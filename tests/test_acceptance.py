"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete.  The heavy Monte Carlo sweeps (criteria 1, 2, 6, 7) run 20 000
trials per operating point and share cached runs where setups coincide.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from dce import (
    AttackScenario,
    ExperimentSpec,
    PowerAllocation,
    PowerAllocationProblem,
    RngStream,
    SystemConfig,
    build_an_basis,
    build_forward_signal,
    build_reverse_signal,
    emit_csv,
    gamma_bounds,
    nmse_lr_attack_closed,
    nmse_lr_closed,
    nmse_ur_closed,
    run_experiment,
    run_trial,
    sample_channels,
    snr_to_sigma0_sq,
    solve,
    solve_grid_oracle,
)
from dce.cli import main as cli_main

from conftest import cached_rows, make_cfg

TRIALS = 20_000
CFG = SystemConfig()


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_lr_closed_form_agreement():
    t_start = time.time()
    rows = cached_rows("wr", "none", 0.0, (15.0, 20.0, 25.0), 0.03, TRIALS)
    elapsed = time.time() - t_start
    gaps = {r.sweep_value: abs(r.nmse_lr_emp - r.nmse_lr_cf) / r.nmse_lr_cf for r in rows}
    ok = all(g <= 0.10 for g in gaps.values())
    per_point = elapsed / len(rows)
    detail = (
        ", ".join(f"{snr:g} dB: {g * 100:.2f}%" for snr, g in gaps.items())
        + f"; {per_point:.0f} s/point"
    )
    report("C1 LR closed-form agreement <= 10%", ok, detail)
    assert ok, detail
    assert per_point < 120, f"runtime target exceeded: {per_point:.0f} s per SNR point"


def test_criterion_2_ur_closed_form_agreement_and_gamma_activity():
    rows = cached_rows("wr", "none", 0.0, (15.0, 20.0, 25.0), 0.03, TRIALS)
    gaps = {r.sweep_value: abs(r.nmse_ur_emp - r.nmse_ur_cf) / r.nmse_ur_cf for r in rows}
    mc_ok = all(g <= 0.10 for g in gaps.values())
    activity_ok = True
    for snr in (15.0, 20.0, 25.0):
        cfg = make_cfg(sigma0_sq=snr_to_sigma0_sq(snr), gamma=0.03)
        alloc = solve(PowerAllocationProblem(cfg))
        activity_ok &= abs(nmse_ur_closed(cfg, alloc.p1, alloc.sigma_a_sq) - 0.03) <= 1e-6
    ok = mc_ok and activity_ok
    detail = (
        ", ".join(f"{snr:g} dB: {g * 100:.2f}%" for snr, g in gaps.items())
        + f"; constraint active: {activity_ok}"
    )
    report("C2 UR closed-form agreement <= 10% and gamma activity", ok, detail)
    assert ok, detail


def test_criterion_3_allocator_vs_oracle():
    # reference solution at gamma = 0.03, 20 dB
    alloc = solve(PowerAllocationProblem(CFG))
    ref_ok = (
        abs(alloc.x - 17.2439) <= 1e-3
        and abs(alloc.y - 0.50732) <= 1e-3
        and abs(alloc.z - 1.0) <= 1e-3
    )
    # oracle agreement at the two reference thresholds
    agree_ok = True
    for gamma in (0.03, 0.1):
        problem = PowerAllocationProblem(make_cfg(gamma=gamma))
        a = solve(problem)
        o = solve_grid_oracle(problem, grid_points=2000)
        agree_ok &= a.objective <= o.objective * 1.005
    # random feasible configs
    rng = np.random.default_rng(7)
    random_ok = True
    checked = 0
    while checked < 100:
        n_t = int(rng.integers(3, 7))
        cfg = make_cfg(
            n_t=n_t,
            n_l=2,
            t0=int(rng.integers(10, 300)),
            t1=int(rng.integers(n_t, 300)),
            sigma0_sq=float(rng.uniform(1e-4, 0.5)),
            sigma_g_sq=float(rng.uniform(0.1, 4.0)),
            p_ave=float(rng.uniform(0.2, 4.0)),
        )
        lo, hi = gamma_bounds(cfg)
        if hi <= lo * 1.02:
            continue
        cfg = dataclasses.replace(cfg, gamma=float(rng.uniform(lo * 1.01, min(hi * 0.99, lo * 100))))
        problem = PowerAllocationProblem(cfg)
        random_ok &= solve(problem).objective <= solve_grid_oracle(problem, 400).objective * 1.005
        checked += 1
    ok = ref_ok and agree_ok and random_ok
    detail = (
        f"x*={alloc.x:.5f} y*={alloc.y:.5f} z*={alloc.z:g}; "
        f"reference ok: {ref_ok}, oracle gammas ok: {agree_ok}, 100 random ok: {random_ok}"
    )
    report("C3 allocator matches oracle within 0.5%", ok, detail)
    assert ok, detail


def test_criterion_4_gamma_bounds_and_rejection():
    lo, hi = gamma_bounds(CFG)
    bounds_ok = abs(lo - 2.857e-4) <= 1e-7 and abs(hi - 2.0) <= 1e-7
    exit_code = cli_main(["power-alloc", "--gamma", "3.0", "--snr-db", "20"])
    reject_ok = exit_code == 2
    ok = bounds_ok and reject_ok
    detail = f"bounds=({lo:.4e}, {hi:g}), infeasible gamma exit code {exit_code}"
    report("C4 gamma bounds and exit-code-2 rejection", ok, detail)
    assert ok, detail


def test_criterion_5_noise_free_exactness():
    cfg = make_cfg(sigma0_sq=0.0)
    alloc = PowerAllocation(
        x=0.5 * cfg.t1 / cfg.n_t, y=0.0, z=1.0, p1=0.5, sigma_a_sq=0.0, p0=1.0, objective=0.0
    )
    worst_lr = worst_ur = 0.0
    for i in range(20):
        lr, ur = run_trial(cfg, alloc, "wr", AttackScenario(), RngStream(50, i))
        worst_lr, worst_ur = max(worst_lr, lr), max(worst_ur, ur)
    # jamming on: LR still exact thanks to the noise-free null space
    alloc_an = dataclasses.replace(alloc, y=0.5, sigma_a_sq=0.25)
    worst_lr_an = 0.0
    for i in range(20):
        lr, _ = run_trial(cfg, alloc_an, "wr", AttackScenario(), RngStream(51, i))
        worst_lr_an = max(worst_lr_an, lr)
    ok = worst_lr <= 1e-16 and worst_ur <= 1e-16 and worst_lr_an <= 1e-16
    detail = f"max per-entry sq errors: lr={worst_lr:.2e}, ur={worst_ur:.2e}, lr with AN={worst_lr_an:.2e}"
    report("C5 noise-free pipeline exactness <= 1e-16", ok, detail)
    assert ok, detail


def test_criterion_6_scheme_ordering():
    snrs = (5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    failures = []
    lines = []
    for gamma in (0.03, 0.1):
        wr = {r.sweep_value: r.nmse_lr_emp for r in cached_rows("wr", "none", 0.0, snrs, gamma, TRIALS)}
        lm = {r.sweep_value: r.nmse_lr_emp for r in cached_rows("lmmse", "none", 0.0, snrs, gamma, TRIALS)}
        pf = {
            r.sweep_value: r.nmse_lr_emp
            for r in cached_rows("wr_perfect_csi", "none", 0.0, snrs, gamma, TRIALS)
        }
        for snr in snrs:
            if not wr[snr] <= lm[snr]:
                failures.append(f"gamma={gamma} snr={snr:g}: wr {wr[snr]:.4e} > lmmse {lm[snr]:.4e}")
            if not pf[snr] <= wr[snr]:
                failures.append(f"gamma={gamma} snr={snr:g}: bound {pf[snr]:.4e} > wr {wr[snr]:.4e}")
            lines.append(
                f"gamma={gamma} snr={snr:g}: wr/lmmse={wr[snr] / lm[snr]:.4f} bound/wr={pf[snr] / wr[snr]:.4f}"
            )
    ok = not failures
    detail = "; ".join(failures) if failures else "all orderings hold"
    report("C6 scheme ordering wr <= lmmse and bound <= wr", ok, detail)
    print("\n".join("  " + ln for ln in lines))
    assert ok, detail


def test_criterion_7_attack_robustness():
    snr = (25.0,)
    gamma = 0.03
    # (a) baseline scheme under pilot replay
    lm_clean = cached_rows("lmmse", "none", 0.0, snr, gamma, TRIALS)[0].nmse_lr_emp
    lm_att = cached_rows("lmmse", "known_pilot", 1.0, snr, gamma, TRIALS)[0].nmse_lr_emp
    a_ok = lm_att >= 5 * lm_clean
    # (b) semiblind scheme under guessed pilots at full power
    wr_clean = cached_rows("wr", "none", 0.0, snr, gamma, TRIALS)[0].nmse_lr_emp
    wr_att_row = cached_rows("wr", "guess", 1.0, snr, gamma, TRIALS)[0]
    cf = wr_att_row.nmse_lr_cf
    b_formula_ok = abs(wr_att_row.nmse_lr_emp - cf) / cf <= 0.15
    b_ratio_ok = wr_att_row.nmse_lr_emp <= 2 * wr_clean
    # (c) attack power sweep
    sweep_spec = ExperimentSpec(
        cfg=make_cfg(gamma=gamma),
        scheme="wr",
        attack=AttackScenario("guess", 1.0),
        snr_db_grid=snr,
        trials=TRIALS,
        master_seed=20240,
        p0_bar_grid=tuple(round(0.1 * k, 1) for k in range(1, 11)),
    )
    sweep = [r.nmse_lr_emp for r in run_experiment(sweep_spec)]
    c_ok = max(sweep) < 2 * min(sweep)
    ok = a_ok and b_formula_ok and b_ratio_ok and c_ok
    detail = (
        f"(a) lmmse attacked/clean={lm_att / lm_clean:.1f}x (need >=5): {a_ok}; "
        f"(b) wr emp={wr_att_row.nmse_lr_emp:.4e} vs cf={cf:.4e} "
        f"gap={(wr_att_row.nmse_lr_emp - cf) / cf * 100:+.0f}% (need <=15%): {b_formula_ok}, "
        f"attacked/clean={wr_att_row.nmse_lr_emp / wr_clean:.2f}x (need <=2): {b_ratio_ok}; "
        f"(c) sweep max/min={max(sweep) / min(sweep):.2f}x (need <2): {c_ok}"
    )
    report("C7 attack robustness", ok, detail)
    assert ok, detail


def test_criterion_8_structural_invariants(tmp_path):
    rng = RngStream(80).substream()
    checks = {}
    # unitarity and bilinear null-space orthogonality on noisy trials
    from dce import blind_whitening_tx, complex_gaussian, wr_estimate_lr, wr_estimate_ur

    worst_unitary = worst_bilinear = worst_invisible = worst_pilot = 0.0
    for _ in range(50):
        ch = sample_channels(CFG, rng)
        rs = build_reverse_signal(CFG, 1.0, mode="random", rng=rng)
        x0 = ch.h.T @ rs.s0 + complex_gaussian(rng, CFG.n_t, CFG.t0, 0.01)
        w0 = blind_whitening_tx(x0, 1.0, CFG.t0, CFG.n_l)
        nb = build_an_basis(w0)
        worst_bilinear = max(worst_bilinear, np.linalg.norm(nb.T @ w0))
        worst_pilot = max(
            worst_pilot, np.linalg.norm(rs.c0 @ rs.c0.conj().T - np.eye(CFG.n_l))
        )
        fs = build_forward_signal(CFG, nb, 0.49268, 0.25366, rng)
        x1 = ch.h @ fs.s1 + complex_gaussian(rng, CFG.n_l, CFG.t1, 0.01)
        _, _, q = wr_estimate_lr(x1, fs.s1_pilot, 0.49268, CFG.t1, CFG.n_t)
        worst_unitary = max(worst_unitary, np.linalg.norm(q @ q.conj().T - np.eye(CFG.n_l)))
        # exact reverse estimate: received forward signal equals pilot part response
        nb_exact = build_an_basis(ch.h.T)
        fs_exact = build_forward_signal(CFG, nb_exact, 0.49268, 0.25366, rng)
        worst_invisible = max(
            worst_invisible, np.linalg.norm(ch.h @ fs_exact.s1 - ch.h @ fs_exact.s1_pilot)
        )
    checks["unitarity<=1e-10"] = worst_unitary <= 1e-10
    checks["bilinear_null<=1e-10"] = worst_bilinear <= 1e-10
    checks["an_invisibility<=1e-10"] = worst_invisible <= 1e-10
    checks["pilot_orthogonality<=1e-12"] = worst_pilot <= 1e-12

    # power accounting, 2% statistical
    acc = 0.0
    trials = 10_000
    nb = build_an_basis(sample_channels(CFG, rng).h.T)
    for _ in range(trials):
        an = complex_gaussian(rng, CFG.n_t - CFG.n_l, CFG.t1, 0.25366)
        acc += np.real(np.vdot(nb @ an, nb @ an)) / CFG.t1
    expected = (CFG.n_t - CFG.n_l) * 0.25366
    checks["power_accounting<=2%"] = abs(acc / trials / expected - 1.0) <= 0.02

    # CSV byte reproducibility across worker counts
    spec = ExperimentSpec(cfg=CFG, scheme="wr", snr_db_grid=(20.0,), trials=200, master_seed=99)
    p1, p2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    emit_csv(run_experiment(spec, workers=1), p1)
    emit_csv(run_experiment(spec, workers=2), p2)
    checks["csv_worker_invariance"] = p1.read_bytes() == p2.read_bytes()

    ok = all(checks.values())
    detail = ", ".join(f"{k}: {v}" for k, v in checks.items())
    report("C8 structural invariant suite", ok, detail)
    assert ok, detail
