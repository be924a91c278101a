import numpy as np
import pytest

from dce import RngStream, SystemConfig, sample_channels
from dce.errors import DimensionError

from conftest import make_cfg


def test_config_defaults_valid():
    cfg = SystemConfig()
    assert cfg.n_t == 4 and cfg.n_l == 2 and cfg.n_u == 2
    assert cfg.t0 == cfg.t1 == 140


@pytest.mark.parametrize(
    "kw",
    [
        dict(n_t=2, n_l=2),
        dict(t0=1),
        dict(t1=3),
        dict(sigma0_sq=-1.0),
        dict(p_ave=0.0),
        dict(gamma=0.0),
    ],
)
def test_config_rejects_invalid(kw):
    with pytest.raises((DimensionError, ValueError)):
        make_cfg(**kw)


def test_sample_channels_shapes_and_zero_variance():
    cfg = make_cfg(sigma_g_sq=0.0)
    ch = sample_channels(cfg, RngStream(0).substream())
    assert ch.h.shape == (2, 4)
    assert ch.g.shape == (2, 4)
    assert np.all(ch.g == 0)


def test_sample_channels_statistics():
    cfg = SystemConfig()
    rng = RngStream(1).substream()
    acc = 0.0
    trials = 100_000
    for _ in range(trials):
        h = sample_channels(cfg, rng).h
        acc += np.real(np.vdot(h, h))
    mean = acc / (trials * cfg.n_l * cfg.n_t)
    assert 0.99 <= mean <= 1.01
