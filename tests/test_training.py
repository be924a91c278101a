import numpy as np
import pytest

from dce import (
    AttackScenario,
    RngStream,
    SystemConfig,
    blind_whitening_tx,
    build_an_basis,
    build_forward_signal,
    build_reverse_signal,
    complex_gaussian,
    orthonormal_rows,
    sample_channels,
)
from dce.errors import DimensionError, NumericalError
from dce.estimators import pilot_correlation, shrinkage

from conftest import injected_pilots, make_cfg

CFG = SystemConfig()


def test_reverse_signal_energy_and_orthogonality():
    rs = build_reverse_signal(CFG, p0=1.0, mode="random", rng=RngStream(0).substream())
    energy = np.real(np.vdot(rs.s0, rs.s0))
    assert abs(energy - 1.0 * CFG.t0) / (1.0 * CFG.t0) <= 1e-9
    assert np.linalg.norm(rs.c0 @ rs.c0.conj().T - np.eye(CFG.n_l)) <= 1e-12


def test_reverse_signal_fixed_deterministic():
    a = build_reverse_signal(CFG, p0=1.0, mode="fixed")
    b = build_reverse_signal(CFG, p0=1.0, mode="fixed")
    assert np.array_equal(a.s0, b.s0)


def test_reverse_signal_random_seeds_differ():
    a = build_reverse_signal(CFG, p0=1.0, mode="random", rng=RngStream(1).substream())
    b = build_reverse_signal(CFG, p0=1.0, mode="random", rng=RngStream(2).substream())
    pa = a.c0.conj().T @ a.c0
    pb = b.c0.conj().T @ b.c0
    assert np.linalg.norm(pa - pb) > 0.1


def test_an_basis_bilinear_orthogonality_and_invisibility():
    ch = sample_channels(CFG, RngStream(3).substream())
    w = ch.h.T  # exact uplink estimate
    n = build_an_basis(w)
    assert n.shape == (CFG.n_t, CFG.n_t - CFG.n_l)
    assert np.linalg.norm(n.T @ w) <= 1e-10
    assert np.linalg.norm(n.conj().T @ n - np.eye(CFG.n_t - CFG.n_l)) <= 1e-10
    # exact reverse estimate: jamming invisible on the downlink
    assert np.linalg.norm(ch.h @ n) <= 1e-10


def test_an_basis_scale_invariant():
    ch = sample_channels(CFG, RngStream(4).substream())
    w = ch.h.T
    n1 = build_an_basis(w)
    n2 = build_an_basis(2.5 * w)
    assert np.linalg.norm(n1 @ n1.conj().T - n2 @ n2.conj().T) <= 1e-10


@pytest.mark.parametrize("scheme", ["wr", "lmmse", "wr_perfect_csi"])
def test_an_basis_projector_is_the_svd_complement(scheme):
    # the QR basis spans the complement of the top-n_l left singular
    # vectors, for every scheme's uplink estimate; for wr, those of the
    # reverse autocorrelation itself, so the eigh step is covered too
    rng = RngStream(15).substream()
    worst = 0.0
    for _ in range(100):
        ch = sample_channels(CFG, rng)
        rs = build_reverse_signal(CFG, p0=1.0, mode="fixed" if scheme == "lmmse" else "random", rng=rng)
        x0 = ch.h.T @ rs.s0 + complex_gaussian(rng, CFG.n_t, CFG.t0, 0.01)
        if scheme == "wr":
            est = blind_whitening_tx(x0, 1.0, CFG.t0, CFG.n_l)
            u = np.linalg.svd(x0 @ x0.conj().T)[0]
        elif scheme == "lmmse":
            a = CFG.t0 / CFG.n_l
            est = shrinkage(CFG.sigma_h_sq, a, 0.01) * pilot_correlation(x0, rs.s0, a)
            u = np.linalg.svd(est)[0]
        else:
            est = ch.h.T
            u = np.linalg.svd(est)[0]
        u_r = u[:, : CFG.n_l]
        n = build_an_basis(est)
        # n is the conjugate of a Hermitian null basis, so conj(n) n^T is the projector
        worst = max(worst, np.linalg.norm(n.conj() @ n.T - (np.eye(CFG.n_t) - u_r @ u_r.conj().T)))
    assert worst <= 1e-12


def test_an_basis_leak_shrinks_with_reverse_energy():
    # noisy reverse estimate: leakage through H @ N falls as p0 * t0 grows
    sigma0_sq = 10 ** (-2.5)
    leaks = []
    for t0 in (35, 140):
        cfg = make_cfg(t0=t0, sigma0_sq=sigma0_sq)
        rng = RngStream(5, t0).substream()
        acc = 0.0
        trials = 400
        for _ in range(trials):
            ch = sample_channels(cfg, rng)
            rs = build_reverse_signal(cfg, p0=1.0, mode="random", rng=rng)
            x0 = ch.h.T @ rs.s0 + complex_gaussian(rng, cfg.n_t, cfg.t0, sigma0_sq)
            w0 = blind_whitening_tx(x0, 1.0, cfg.t0, cfg.n_l)
            n = build_an_basis(w0)
            acc += np.linalg.norm(ch.h @ n) ** 2
        leaks.append(acc / trials)
    assert leaks[1] < leaks[0]
    # first-order prediction: leak ~ n_l^2 (n_t - n_l) sigma0^2 / (p0 t0)
    predicted = CFG.n_l**2 * (CFG.n_t - CFG.n_l) * sigma0_sq / 140.0
    assert abs(leaks[1] / predicted - 1.0) < 0.25


def test_forward_signal_structure():
    ch = sample_channels(CFG, RngStream(6).substream())
    n = build_an_basis(ch.h.T)
    fs = build_forward_signal(CFG, n, p1=0.5, sigma_a_sq=0.25, rng=RngStream(7).substream())
    # s1_pilot s1_pilot^H = (p1 t1 / n_t) I, with the public DFT rows
    gram = fs.s1_pilot @ fs.s1_pilot.conj().T
    assert np.linalg.norm(gram - 0.5 * CFG.t1 / CFG.n_t * np.eye(CFG.n_t)) <= 1e-12
    assert np.allclose(fs.s1_pilot, np.sqrt(0.5 * CFG.t1 / CFG.n_t) * orthonormal_rows(CFG.n_t, CFG.t1))
    # AN part lies in the basis column space
    resid = (fs.s1 - fs.s1_pilot) - n @ (n.conj().T @ (fs.s1 - fs.s1_pilot))
    assert np.linalg.norm(resid) <= 1e-10


def test_forward_signal_no_an():
    ch = sample_channels(CFG, RngStream(8).substream())
    n = build_an_basis(ch.h.T)
    fs = build_forward_signal(CFG, n, p1=0.5, sigma_a_sq=0.0, rng=RngStream(9).substream())
    assert np.array_equal(fs.s1, fs.s1_pilot)


def test_forward_signal_power_accounting():
    ch = sample_channels(CFG, RngStream(10).substream())
    n = build_an_basis(ch.h.T)
    rng = RngStream(11).substream()
    sigma_a_sq = 0.25
    acc = 0.0
    trials = 10_000
    for _ in range(trials):
        an = complex_gaussian(rng, CFG.n_t - CFG.n_l, CFG.t1, sigma_a_sq)
        acc += np.real(np.vdot(n @ an, n @ an)) / CFG.t1
    expected = (CFG.n_t - CFG.n_l) * sigma_a_sq
    assert abs(acc / trials / expected - 1.0) <= 0.02


def test_attack_signal_known_pilot_copies():
    rs = build_reverse_signal(CFG, p0=1.0, mode="fixed")
    s0_bar = injected_pilots(CFG, AttackScenario("known_pilot", 1.0), RngStream(11).substream(), legit_c0=rs.c0)
    assert np.allclose(s0_bar, rs.s0)


def test_attack_signal_zero_power():
    s0_bar = injected_pilots(CFG, AttackScenario("guess", 0.0), RngStream(12).substream())
    assert np.all(s0_bar == 0)


def test_an_basis_rejects_square():
    with pytest.raises(DimensionError):
        build_an_basis(np.eye(2))


def test_an_basis_rejects_non_finite_estimate():
    est = np.ones((4, 2), dtype=complex)
    est[1, 0] = np.inf
    with pytest.raises(NumericalError):
        build_an_basis(est)
