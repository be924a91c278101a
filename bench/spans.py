"""Layer trace of dce, installed from outside the program.

Every function named in a dce module's ``__all__`` is replaced by a
wrapper that records a span (name, start, end, parent), both in the
module that defines it and in every dce module that imported it by name.
``RngStream.substream`` is wrapped too, as the ``linalg.substream`` layer.
Spans live in flat arrays while the run lasts and are written out once
at its end.  A span's self time is its duration minus the durations of
its children: calls here are synchronous and single-threaded, so
children never overlap one another and lie inside their parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

MODULES = (
    "linalg", "channel", "training", "attack", "estimators",
    "analysis", "power_allocation", "simulate", "presets",
)

# Spans that form a layer of their own; other spans fall into the layer
# of their module ("linalg.other" for the rest of linalg).
LAYER_OF = {
    "linalg.svd": "linalg.svd",
    "linalg.substream": "linalg.substream",
    "linalg.complex_gaussian": "linalg.complex_gaussian",
    "estimators.blind_whitening_tx": "estimators.wr",
    "estimators.wr_estimate_lr": "estimators.wr",
    "estimators.wr_estimate_ur": "estimators.wr",
    "estimators.procrustes_rotation": "estimators.wr",
    "estimators.lmmse_uplink": "estimators.lmmse",
    "estimators.lmmse_downlink": "estimators.lmmse",
}

TRIAL_LAYERS = (
    "linalg.svd", "linalg.substream", "linalg.complex_gaussian", "linalg.other",
    "channel", "training", "estimators.wr", "estimators.lmmse",
    "attack", "analysis", "simulate",
)


def layer_of(name: str) -> str:
    if name in LAYER_OF:
        return LAYER_OF[name]
    module = name.split(".", 1)[0]
    return "linalg.other" if module == "linalg" else module


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Duration of each span minus the time its child spans cover."""
    duration = end - start
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=duration[nested], minlength=duration.size)
    return duration - covered


class Tracer:
    """In-memory span recorder plus the counts taken at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.gaussian_entries = 0
        self.pools_started = 0

    def wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        stack, name_id, parent, start, end = self._stack, self.name_id, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(index)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = perf_counter()
                stack.pop()

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, total self seconds)."""
        a = self.arrays()
        own = self_times(a["parent"], a["start"], a["end"])
        n = len(self.names)
        calls = np.bincount(a["name_id"], minlength=n)
        total = np.bincount(a["name_id"], weights=a["end"] - a["start"], minlength=n)
        selfs = np.bincount(a["name_id"], weights=own, minlength=n)
        return {name: (int(calls[i]), float(total[i]), float(selfs[i])) for i, name in enumerate(self.names)}

    def layer_self_seconds(self) -> dict[str, float]:
        out = dict.fromkeys(TRIAL_LAYERS, 0.0)
        for name, (_, _, own) in self.summary().items():
            layer = layer_of(name)
            out[layer] = out.get(layer, 0.0) + own
        return out

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _public_functions():
    """(qualified span name, function) for every function in a dce __all__."""
    for short in MODULES:
        module = importlib.import_module(f"dce.{short}")
        for attr in module.__all__:
            obj = getattr(module, attr)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                yield f"{short}.{attr}", obj


@contextmanager
def installed(tracer: Tracer):
    """Wrap dce's public functions for the duration of the block."""
    import dce.linalg
    import dce.simulate

    wrappers = {}
    for name, fn in _public_functions():
        inner = _counting_draws(tracer, fn) if name == "linalg.complex_gaussian" else fn
        wrappers[fn] = tracer.wrap(name, inner)
    patches = []  # (target, attribute, original, replacement)
    for modname, module in list(sys.modules.items()):
        if modname == "dce" or modname.startswith("dce."):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    patches.append((module, attr, obj, wrappers[obj]))
    substream = dce.linalg.RngStream.substream
    patches.append((dce.linalg.RngStream, "substream", substream, tracer.wrap("linalg.substream", substream)))
    executor = dce.simulate.ProcessPoolExecutor

    class CountingPool(executor):
        def __init__(self, *args, **kwargs):
            tracer.pools_started += 1
            super().__init__(*args, **kwargs)

    patches.append((dce.simulate, "ProcessPoolExecutor", executor, CountingPool))
    try:
        for target, attr, _, replacement in patches:
            setattr(target, attr, replacement)
        yield tracer
    finally:
        for target, attr, original, _ in reversed(patches):
            setattr(target, attr, original)


def _counting_draws(tracer: Tracer, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        out = fn(*args, **kwargs)
        tracer.gaussian_entries += out.size
        return out

    return counted
