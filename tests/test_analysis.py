import dataclasses

import numpy as np
import pytest

from dce import (
    SystemConfig,
    empirical_nmse,
    nmse_lr_attack_closed,
    nmse_lr_closed,
    nmse_ur_closed,
    snr_to_sigma0_sq,
)
from dce.errors import DimensionError

CFG = SystemConfig()

# allocation at the default operating point (gamma=0.03, 20 dB), frozen from
# the endpoint algebra x* = (sigma_g^2 p_ave + sigma0^2) t1 / (gamma t1 + n_t sigma_g^2)
P1_STAR = 17.243902439024392 * 4 / 140
SA2_STAR = 0.5073170731707317 / 2


def test_empirical_nmse_exact_zero():
    a = np.ones((2, 4), dtype=complex)
    assert empirical_nmse(a, a) == 0.0


def test_empirical_nmse_unit_error():
    truth = np.zeros((2, 4), dtype=complex)
    est = np.ones((2, 4), dtype=complex)
    assert empirical_nmse(est, truth) == pytest.approx(1.0)


def test_empirical_nmse_shape_mismatch():
    with pytest.raises(DimensionError):
        empirical_nmse(np.ones((2, 2)), np.ones((2, 3)))


def test_nmse_lr_closed_no_an_reduction():
    v = nmse_lr_closed(CFG, p0=1.0, p1=0.5, sigma_a_sq=0.0)
    assert v == pytest.approx(CFG.n_t * CFG.sigma0_sq / (0.5 * CFG.t1))


def test_nmse_lr_closed_frozen_value():
    # hand-evaluated at the gamma=0.03 / 20 dB allocation:
    # 0.04 / 68.97561 * (1 + 4 * 0.2536585 / 140) = 5.841180e-4
    v = nmse_lr_closed(CFG, p0=1.0, p1=P1_STAR, sigma_a_sq=SA2_STAR)
    assert v == pytest.approx(5.841180e-4, rel=1e-6)


def test_nmse_lr_closed_power_scaling():
    base = nmse_lr_closed(CFG, p0=1.0, p1=0.3, sigma_a_sq=0.0)
    assert nmse_lr_closed(CFG, p0=1.0, p1=0.6, sigma_a_sq=0.0) == pytest.approx(base / 2)


def test_nmse_ur_closed_no_an():
    v = nmse_ur_closed(CFG, p1=0.5, sigma_a_sq=0.0)
    assert v == pytest.approx(CFG.n_t * CFG.sigma0_sq / (0.5 * CFG.t1))


def test_nmse_ur_closed_hits_gamma_at_allocation():
    v = nmse_ur_closed(CFG, p1=P1_STAR, sigma_a_sq=SA2_STAR)
    assert abs(v - CFG.gamma) <= 1e-9


def test_nmse_ur_closed_vanishing_wiretap_gain():
    cfg = dataclasses.replace(CFG, sigma_g_sq=0.0)
    with_an = nmse_ur_closed(cfg, p1=0.5, sigma_a_sq=10.0)
    without = nmse_ur_closed(cfg, p1=0.5, sigma_a_sq=0.0)
    assert with_an == pytest.approx(without)


def test_nmse_attack_closed_frozen_value():
    # clean 5.841180e-4 plus attack term 2.143463e-4 at p0_bar = 1
    v = nmse_lr_attack_closed(CFG, p0=1.0, p0_bar=1.0, p1=P1_STAR, sigma_a_sq=SA2_STAR)
    assert v == pytest.approx(7.984643e-4, rel=1e-6)


def test_nmse_attack_closed_clean_limit():
    cfg = dataclasses.replace(CFG, sigma_g_sq=0.0)
    v = nmse_lr_attack_closed(cfg, p0=1.0, p0_bar=1e12, p1=0.5, sigma_a_sq=0.25)
    assert v == pytest.approx(nmse_lr_closed(cfg, 1.0, 0.5, 0.25), rel=1e-9)


def test_nmse_attack_term_linear_in_an_power():
    f = lambda s: nmse_lr_attack_closed(CFG, 1.0, 1.0, 0.5, s) - nmse_lr_closed(CFG, 1.0, 0.5, s)
    assert f(0.5) == pytest.approx(2 * f(0.25), rel=1e-12)


def test_nmse_attack_always_above_clean():
    rng = np.random.default_rng(0)
    for _ in range(200):
        p0, p0_bar, p1, sa2 = rng.uniform(0.05, 2.0, size=4)
        att = nmse_lr_attack_closed(CFG, p0, p0_bar, p1, sa2)
        clean = nmse_lr_closed(CFG, p0, p1, sa2)
        assert att >= clean


def test_attack_term_below_noise_terms_at_moderate_snr():
    # the injected-pilot term stays below the noise-driven terms at 15 and
    # 20 dB; at higher SNR the noise terms shrink past it (its wiretap piece
    # does not scale with sigma0^2), so no claim is made there
    for snr in (15.0, 20.0):
        cfg = dataclasses.replace(CFG, sigma0_sq=snr_to_sigma0_sq(snr))
        from dce import PowerAllocationProblem, solve

        alloc = solve(PowerAllocationProblem(cfg))
        clean = nmse_lr_closed(cfg, alloc.p0, alloc.p1, alloc.sigma_a_sq)
        att_term = (
            nmse_lr_attack_closed(cfg, alloc.p0, 1.0, alloc.p1, alloc.sigma_a_sq) - clean
        )
        assert att_term <= clean


def test_closed_forms_depend_on_energy_products():
    # t scaled up, powers scaled down, jamming variance held: predictions unchanged
    cfg2 = dataclasses.replace(CFG, t0=CFG.t0 * 2, t1=CFG.t1 * 2)
    assert nmse_lr_closed(CFG, 1.0, 0.5, 0.25) == pytest.approx(
        nmse_lr_closed(cfg2, 0.5, 0.25, 0.25), rel=1e-12
    )
    assert nmse_ur_closed(CFG, 0.5, 0.25) == pytest.approx(
        nmse_ur_closed(cfg2, 0.25, 0.25), rel=1e-12
    )


@pytest.mark.parametrize("snr_db,expected", [(20.0, 0.01), (0.0, 1.0), (25.0, 10 ** (-2.5))])
def test_snr_to_sigma0_sq(snr_db, expected):
    assert snr_to_sigma0_sq(snr_db) == pytest.approx(expected, rel=1e-12)

