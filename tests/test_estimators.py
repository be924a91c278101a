import dataclasses

import numpy as np
import pytest

from dce import (
    PowerAllocation,
    RngStream,
    SystemConfig,
    blind_whitening_tx,
    build_an_basis,
    build_forward_signal,
    build_reverse_signal,
    complex_gaussian,
    lmmse_downlink,
    lmmse_uplink,
    procrustes_rotation,
    sample_channels,
    run_trial,
    wr_estimate_lr,
    wr_estimate_ur,
)
from dce.attack import AttackScenario

CFG = SystemConfig()


def manual_alloc(p1, sigma_a_sq, p0=1.0):
    t1 = CFG.t1
    x = p1 * t1 / CFG.n_t
    y = (CFG.n_t - CFG.n_l) * sigma_a_sq
    return PowerAllocation(x=x, y=y, z=p0, p1=p1, sigma_a_sq=sigma_a_sq, p0=p0, objective=0.0)


def test_lmmse_uplink_noise_free():
    ch = sample_channels(CFG, RngStream(0).substream())
    rs = build_reverse_signal(CFG, p0=1.0, mode="fixed")
    x0 = ch.h.T @ rs.s0
    est = lmmse_uplink(x0, rs, CFG.sigma_h_sq, 0.0)
    assert np.linalg.norm(est - ch.h.T) <= 1e-9


def test_lmmse_uplink_shrinkage_identity():
    # orthogonal pilots, zero noise realization, sigma0 > 0: the estimator
    # is an exact scalar shrinkage of the true uplink channel
    ch = sample_channels(CFG, RngStream(1).substream())
    rs = build_reverse_signal(CFG, p0=1.0, mode="fixed")
    x0 = ch.h.T @ rs.s0
    sigma0_sq = 0.01
    est = lmmse_uplink(x0, rs, CFG.sigma_h_sq, sigma0_sq)
    alpha = 1.0 * CFG.t0 / CFG.n_l
    shrink = alpha * CFG.sigma_h_sq / (alpha * CFG.sigma_h_sq + sigma0_sq)
    assert np.linalg.norm(est - shrink * ch.h.T) <= 1e-12


def test_lmmse_matches_textbook_formula():
    # with orthonormal-row pilots the full matrix LMMSE formula
    # [sigma^2 (sigma^2 S S^H + sigma0^2 I)^-1 S obs^H]^H is a scalar shrinkage
    def textbook(obs, s, sigma_sq, sigma0_sq):
        gram = sigma_sq * (s @ s.conj().T) + sigma0_sq * np.eye(s.shape[0])
        return (sigma_sq * np.linalg.solve(gram, s @ obs.conj().T)).conj().T

    rng = RngStream(16).substream()
    for sigma0_sq in (0.0, 0.01, 0.5):
        ch = sample_channels(CFG, rng)
        rs = build_reverse_signal(CFG, p0=0.8, mode="fixed")
        x0 = ch.h.T @ rs.s0 + complex_gaussian(rng, CFG.n_t, CFG.t0, sigma0_sq)
        up = lmmse_uplink(x0, rs, 1.3, sigma0_sq)
        want = textbook(x0, rs.s0, 1.3, sigma0_sq)
        assert np.linalg.norm(up - want) <= 1e-12 * np.linalg.norm(want)
        fs = build_forward_signal(CFG, build_an_basis(up), p1=0.5, sigma_a_sq=0.25, rng=rng)
        x1 = ch.h @ fs.s1 + complex_gaussian(rng, CFG.n_l, CFG.t1, sigma0_sq)
        down = lmmse_downlink(x1, fs, 0.7, sigma0_sq)
        want = textbook(x1, fs.s1_pilot, 0.7, sigma0_sq)
        assert np.linalg.norm(down - want) <= 1e-12 * np.linalg.norm(want)
    # no channel variance and no noise: nothing to estimate, the estimate is 0
    assert np.all(lmmse_uplink(x0, rs, 0.0, 0.0) == 0)


def test_wr_estimates_equal_pilot_correlation():
    # the whitening-rotation factorisation reduces to the least-squares
    # correlation obs S1p^H / x that the Monte Carlo trial computes
    rng = RngStream(17).substream()
    p1, sigma_a_sq = 0.49268, 0.25366
    x = p1 * CFG.t1 / CFG.n_t
    worst = 0.0
    for k in range(200):
        sigma0_sq = (10 ** -0.5, 1e-2, 1e-3)[k % 3]
        ch = sample_channels(CFG, rng)
        rs = build_reverse_signal(CFG, p0=1.0, mode="random", rng=rng)
        x0 = ch.h.T @ rs.s0 + complex_gaussian(rng, CFG.n_t, CFG.t0, sigma0_sq)
        n = build_an_basis(blind_whitening_tx(x0, 1.0, CFG.t0, CFG.n_l))
        fs = build_forward_signal(CFG, n, p1, sigma_a_sq, rng)
        for chan, estimate in ((ch.h, wr_estimate_lr), (ch.g, wr_estimate_ur)):
            obs = chan @ fs.s1 + complex_gaussian(rng, chan.shape[0], CFG.t1, sigma0_sq)
            ls = obs @ fs.s1_pilot.conj().T / x
            wr, _, _ = estimate(obs, fs.s1_pilot, p1, CFG.t1, CFG.n_t)
            worst = max(worst, np.linalg.norm(wr - ls) / np.linalg.norm(ls))
    assert worst <= 1e-12


def test_wr_reference_ignores_svd_phase(monkeypatch):
    # a phase on a singular pair cancels in U V^H and in whitening x rotation,
    # so the reference needs no phase convention on np.linalg.svd
    rng = RngStream(18).substream()
    ch = sample_channels(CFG, rng)
    fs = build_forward_signal(CFG, build_an_basis(ch.h.T), 0.5, 0.25, rng)
    x1 = ch.h @ fs.s1 + complex_gaussian(rng, CFG.n_l, CFG.t1, 0.01)
    y1 = ch.g @ fs.s1 + complex_gaussian(rng, CFG.n_u, CFG.t1, 0.01)
    cases = ((wr_estimate_lr, x1), (wr_estimate_ur, y1))
    plain = [est(obs, fs.s1_pilot, 0.5, CFG.t1, CFG.n_t)[0] for est, obs in cases]

    svd = np.linalg.svd
    phases = np.random.default_rng(19)

    def rephased(a, full_matrices=True, **kw):
        u, s, vh = svd(a, full_matrices=full_matrices, **kw)
        ph = np.exp(2j * np.pi * phases.random(u.shape[1]))
        u = u * ph
        k = min(u.shape[1], vh.shape[0])  # the paired singular vectors
        vh = vh.copy()
        vh[:k] *= ph[:k, None].conj()
        return u, s, vh

    monkeypatch.setattr(np.linalg, "svd", rephased)
    for want, (est, obs) in zip(plain, cases):
        got = est(obs, fs.s1_pilot, 0.5, CFG.t1, CFG.n_t)[0]
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_lmmse_downlink_noise_free_recovery():
    ch = sample_channels(CFG, RngStream(2).substream())
    n = build_an_basis(ch.h.T)
    fs = build_forward_signal(CFG, n, p1=0.5, sigma_a_sq=0.25, rng=RngStream(3).substream())
    x1 = ch.h @ fs.s1  # exact basis: jamming invisible, no noise
    est = lmmse_downlink(x1, fs, CFG.sigma_h_sq, 0.0)
    assert np.linalg.norm(est - ch.h) <= 1e-9


def test_blind_whitening_noiseless_autocorrelation():
    ch = sample_channels(CFG, RngStream(4).substream())
    rs = build_reverse_signal(CFG, p0=1.0, mode="random", rng=RngStream(5).substream())
    x0 = ch.h.T @ rs.s0
    w0 = blind_whitening_tx(x0, 1.0, CFG.t0, CFG.n_l)
    target = ch.h.T @ ch.h.conj()
    got = w0 @ w0.conj().T
    assert np.linalg.norm(got - target) / np.linalg.norm(target) <= 1e-9
    # column spaces coincide
    q_true, _ = np.linalg.qr(ch.h.T)
    q_est, _ = np.linalg.qr(w0)
    angles = np.linalg.svd(q_true.conj().T @ q_est, compute_uv=False)
    assert np.all(angles > 1.0 - 1e-6)


def test_blind_whitening_subspace_improves_with_t0():
    sigma0_sq = 10 ** (-2.5)
    errs = []
    for t0 in (35, 140):
        cfg = dataclasses.replace(CFG, t0=t0, sigma0_sq=sigma0_sq)
        rng = RngStream(6, t0).substream()
        acc = 0.0
        for _ in range(300):
            ch = sample_channels(cfg, rng)
            rs = build_reverse_signal(cfg, p0=1.0, mode="random", rng=rng)
            x0 = ch.h.T @ rs.s0 + complex_gaussian(rng, cfg.n_t, t0, sigma0_sq)
            w0 = blind_whitening_tx(x0, 1.0, t0, cfg.n_l)
            q_true, _ = np.linalg.qr(ch.h.T)
            proj = w0 - q_true @ (q_true.conj().T @ w0)
            acc += np.linalg.norm(proj) ** 2 / np.linalg.norm(w0) ** 2
        errs.append(acc / 300)
    assert errs[1] < errs[0]


def test_procrustes_identity():
    assert np.allclose(procrustes_rotation(np.eye(3)), np.eye(3))


def test_procrustes_scaled_unitary():
    rng = np.random.default_rng(7)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, _ = np.linalg.qr(g)
    out = procrustes_rotation(2.7 * q, order="uv")
    assert np.linalg.norm(out - q) <= 1e-10
    out_vu = procrustes_rotation(2.7 * q, order="vu")
    assert np.linalg.norm(out_vu - q.conj().T) <= 1e-10


def test_procrustes_output_unitary():
    rng = np.random.default_rng(8)
    for _ in range(50):
        c = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        out = procrustes_rotation(c)
        assert np.linalg.norm(out.conj().T @ out - np.eye(4)) <= 1e-10


def test_wr_lr_noise_free_exact():
    ch = sample_channels(CFG, RngStream(9).substream())
    n = build_an_basis(ch.h.T)
    fs = build_forward_signal(CFG, n, p1=0.5, sigma_a_sq=0.25, rng=RngStream(10).substream())
    x1 = ch.h @ fs.s1
    est, whitening, rotation = wr_estimate_lr(x1, fs.s1_pilot, 0.5, CFG.t1, CFG.n_t)
    assert np.linalg.norm(est - ch.h) <= 1e-8
    # factors reconstruct the estimate
    assert np.linalg.norm(rotation.conj() @ whitening.T - est) <= 1e-10


def test_wr_lr_rotation_always_unitary():
    rng = RngStream(11).substream()
    for _ in range(20):
        ch = sample_channels(CFG, rng)
        n = build_an_basis(ch.h.T)
        fs = build_forward_signal(CFG, n, p1=0.5, sigma_a_sq=0.25, rng=rng)
        x1 = ch.h @ fs.s1 + complex_gaussian(rng, CFG.n_l, CFG.t1, 0.1)
        _, _, q = wr_estimate_lr(x1, fs.s1_pilot, 0.5, CFG.t1, CFG.n_t)
        assert np.linalg.norm(q @ q.conj().T - np.eye(CFG.n_l)) <= 1e-10


def test_wr_ur_noise_free_exact_without_an():
    ch = sample_channels(CFG, RngStream(12).substream())
    n = build_an_basis(ch.h.T)
    fs = build_forward_signal(CFG, n, p1=0.5, sigma_a_sq=0.0, rng=RngStream(13).substream())
    y1 = ch.g @ fs.s1
    est, whitening, rotation = wr_estimate_ur(y1, fs.s1_pilot, 0.5, CFG.t1, CFG.n_t)
    assert np.linalg.norm(est - ch.g) <= 1e-8
    assert np.linalg.norm(whitening @ rotation.conj().T - est) <= 1e-10


def test_wr_ur_rotation_always_unitary():
    rng = RngStream(14).substream()
    for _ in range(20):
        ch = sample_channels(CFG, rng)
        n = build_an_basis(ch.h.T)
        fs = build_forward_signal(CFG, n, p1=0.5, sigma_a_sq=0.25, rng=rng)
        y1 = ch.g @ fs.s1 + complex_gaussian(rng, CFG.n_u, CFG.t1, 0.1)
        _, _, r = wr_estimate_ur(y1, fs.s1_pilot, 0.5, CFG.t1, CFG.n_t)
        assert np.linalg.norm(r.conj().T @ r - np.eye(CFG.n_t)) <= 1e-10


def test_nmse_monotone_in_forward_pilot_energy():
    attack = AttackScenario()
    means = []
    trials = 10_000
    for k, p1 in enumerate((0.1, 0.2, 0.4)):
        alloc = manual_alloc(p1=p1, sigma_a_sq=0.25)
        acc = 0.0
        for i in range(trials):
            lr, _ = run_trial(CFG, alloc, "wr", attack, RngStream(15 + k, i))
            acc += lr
        means.append(acc / trials)
    assert means[0] > means[1] > means[2]
