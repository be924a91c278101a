import dataclasses

import numpy as np
import pytest

from dce import (
    ExperimentSpec,
    PowerAllocationProblem,
    SystemConfig,
    feasible_x_interval,
    gamma_bounds,
    nmse_lr_closed,
    nmse_ur_closed,
    run_experiment,
    solve,
    solve_grid_oracle,
)
from dce.errors import InfeasibleConfigError

from conftest import make_cfg

CFG = SystemConfig()


def test_gamma_bounds_reference_point():
    lo, hi = gamma_bounds(CFG)
    assert abs(lo - 2.857e-4) <= 1e-7
    assert abs(hi - 2.0) <= 1e-7
    for gamma in (0.03, 0.1):
        assert lo <= gamma <= hi


def test_gamma_bounds_long_training_limit():
    lo, _ = gamma_bounds(make_cfg(t1=10_000_000))
    assert lo < 1e-8


def test_feasible_x_interval_values():
    x_min, x_max = feasible_x_interval(CFG)
    assert x_min == pytest.approx(1.0 / 3.0, rel=1e-9)
    assert x_max == pytest.approx(17.243902439, rel=1e-9)
    x_min, x_max = feasible_x_interval(make_cfg(gamma=0.1))
    assert x_min == pytest.approx(0.1, rel=1e-9)
    # (1 * 1 + 0.01) * 140 / (0.1 * 140 + 4) = 141.4 / 18
    assert x_max == pytest.approx(141.4 / 18.0, rel=1e-9)


def test_feasible_x_interval_collapses_at_lower_gamma_bound():
    lo, _ = gamma_bounds(CFG)
    cfg = make_cfg(gamma=lo)
    _, x_max = feasible_x_interval(cfg)
    assert x_max == pytest.approx(CFG.p_ave * CFG.t1 / CFG.n_t, rel=1e-9)


def test_feasible_x_interval_rejects_bad_gamma():
    with pytest.raises(InfeasibleConfigError, match="upper"):
        feasible_x_interval(make_cfg(gamma=3.0))
    with pytest.raises(InfeasibleConfigError, match="lower"):
        feasible_x_interval(make_cfg(gamma=1e-6))


def test_problem_rejects_infeasible_gamma():
    with pytest.raises(InfeasibleConfigError):
        PowerAllocationProblem(make_cfg(gamma=3.0))


def test_problem_rejects_zero_wiretap_variance():
    # no jamming reaches a zero wiretap channel, so gamma cannot be made active
    with pytest.raises(InfeasibleConfigError, match="sigma_g_sq"):
        PowerAllocationProblem(make_cfg(sigma_g_sq=0.0))


def test_solve_reference_solution():
    alloc = solve(PowerAllocationProblem(CFG))
    assert alloc.x == pytest.approx(17.2439, abs=1e-3)
    assert alloc.y == pytest.approx(0.50732, abs=1e-3)
    assert alloc.z == 1.0
    assert alloc.p1 == pytest.approx(0.49268, abs=1e-3)
    assert alloc.sigma_a_sq == pytest.approx(0.25366, abs=1e-3)
    # total forward power constraint active at this operating point
    total = alloc.p1 + (CFG.n_t - CFG.n_l) * alloc.sigma_a_sq
    assert total == pytest.approx(CFG.p_ave, abs=1e-12)


def test_solve_constraint_activity():
    for gamma in (0.03, 0.1):
        cfg = make_cfg(gamma=gamma)
        alloc = solve(PowerAllocationProblem(cfg))
        # eavesdropper constraint exactly active by construction of y(x)
        assert abs(nmse_ur_closed(cfg, alloc.p1, alloc.sigma_a_sq) - gamma) <= 1e-9
        assert alloc.z == cfg.p_ave
        assert alloc.p1 + (cfg.n_t - cfg.n_l) * alloc.sigma_a_sq <= cfg.p_ave + 1e-12


def test_solve_handles_increasing_objective():
    # n_l s sigma0^2 / (sigma_g^2 p_ave t0) = 9.9 > 1 at t0 = n_l flips the
    # slope of nmse_lr_closed along the active constraint: optimum at x_min
    cfg = make_cfg(sigma_g_sq=0.001, sigma0_sq=0.01, gamma=1.0, t0=2)
    lo, hi = gamma_bounds(cfg)
    assert lo <= cfg.gamma <= hi
    problem = PowerAllocationProblem(cfg)
    alloc = solve(problem)
    x_min, _ = feasible_x_interval(cfg)
    assert alloc.x == pytest.approx(x_min, rel=1e-6)
    oracle = solve_grid_oracle(problem, grid_points=800)
    assert alloc.objective <= oracle.objective * 1.005


def test_solve_noise_free_takes_x_max_at_zero_objective():
    # sigma0 = 0: the objective is 0 on the whole interval, whose lower end is 0
    cfg = make_cfg(sigma0_sq=0.0)
    alloc = solve(PowerAllocationProblem(cfg))
    assert alloc.x == feasible_x_interval(cfg)[1]
    assert alloc.objective == 0.0


def test_solve_large_wiretap_gain_shrinks_jamming():
    cfg = make_cfg(sigma_g_sq=100.0)
    alloc = solve(PowerAllocationProblem(cfg))
    base = solve(PowerAllocationProblem(CFG))
    assert alloc.y < base.y
    assert alloc.x > 0.95 * feasible_x_interval(cfg)[1]


@pytest.mark.parametrize("gamma", [0.03, 0.1])
def test_grid_oracle_agrees_at_reference(gamma):
    problem = PowerAllocationProblem(make_cfg(gamma=gamma))
    alloc = solve(problem)
    oracle = solve_grid_oracle(problem, grid_points=2000)
    assert alloc.objective <= oracle.objective * 1.005
    assert abs(alloc.objective - oracle.objective) / oracle.objective <= 0.005


def test_grid_oracle_degenerate_gamma():
    lo, _ = gamma_bounds(CFG)
    problem = PowerAllocationProblem(make_cfg(gamma=lo))
    alloc = solve(problem)
    oracle = solve_grid_oracle(problem, grid_points=800)
    assert alloc.y <= 1e-9
    assert oracle.y <= CFG.p_ave / 799 + 1e-12


def test_solve_beats_oracle_on_random_configs():
    rng = np.random.default_rng(42)
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
        if hi <= lo * 1.02:  # no usable threshold range at this draw
            continue
        gamma = float(rng.uniform(lo * 1.01, min(hi * 0.99, lo * 100)))
        cfg = dataclasses.replace(cfg, gamma=gamma)
        problem = PowerAllocationProblem(cfg)
        alloc = solve(problem)
        oracle = solve_grid_oracle(problem, grid_points=400)
        assert alloc.objective <= oracle.objective * 1.005
        assert alloc.objective == pytest.approx(
            nmse_lr_closed(cfg, alloc.p0, alloc.p1, alloc.sigma_a_sq), rel=1e-12
        )
        checked += 1


def test_low_snr_split_jams_and_discriminates():
    # at 2 dB the allocator must still jam: the LR sits well below the
    # eavesdropper's floor, which stays active
    spec = ExperimentSpec(cfg=CFG, scheme="wr", snr_db_grid=(2.0,), gamma=0.03, trials=2000, master_seed=5)
    row = run_experiment(spec)[0]
    assert row.sigma_a_sq > 0
    assert row.nmse_lr_emp < 0.9 * 0.03
    assert abs(row.nmse_ur_emp - 0.03) / 0.03 <= 0.05


def test_grid_oracle_requires_enough_points():
    with pytest.raises(ValueError):
        solve_grid_oracle(PowerAllocationProblem(CFG), grid_points=50)
