import importlib

import pytest

MODULES = (
    "linalg", "channel", "training", "attack", "estimators",
    "analysis", "power_allocation", "simulate", "presets",
)


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    # tools that walk __all__ (such as a layer trace) fetch each entry by name
    module = importlib.import_module(f"dce.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"dce.{name}.__all__ names missing attributes: {missing}"
