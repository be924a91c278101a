import dataclasses
from functools import lru_cache

import numpy as np
import pytest

from dce import AttackScenario, ExperimentSpec, SystemConfig, contaminate_reverse, run_experiment

MASTER_SEED = 20240


@pytest.fixture(scope="session")
def cfg():
    return SystemConfig()


@lru_cache(maxsize=None)
def cached_rows(scheme, attack_mode, p0_bar, snr_db_grid, gamma, trials, seed=MASTER_SEED, workers=1):
    """Shared Monte Carlo runs so acceptance criteria reuse identical sweeps."""
    spec = ExperimentSpec(
        cfg=SystemConfig(gamma=gamma),
        scheme=scheme,
        attack=AttackScenario(attack_mode, p0_bar),
        snr_db_grid=snr_db_grid,
        trials=trials,
        master_seed=seed,
    )
    return run_experiment(spec, workers=workers)


def make_cfg(**kw):
    return dataclasses.replace(SystemConfig(), **kw)


def injected_pilots(cfg, scenario, rng, legit_c0=None):
    """The attacker's pilots S0_bar as contaminate_reverse sends them: noise-free, through G = [I 0]."""
    cfg = dataclasses.replace(cfg, sigma0_sq=0.0)
    out = contaminate_reverse(
        np.zeros((cfg.n_t, cfg.t0), dtype=complex), np.eye(cfg.n_u, cfg.n_t), scenario, cfg, rng, legit_c0=legit_c0
    )
    return out[: cfg.n_l]
