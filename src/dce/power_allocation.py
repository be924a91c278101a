"""Optimal power split between forward pilots and artificial noise.

The design problem: minimize the legitimate receiver's predicted NMSE
subject to (a) the eavesdropper's predicted NMSE staying above gamma,
(b) the reverse power budget, (c) the forward pilot-plus-jamming budget.
In the reformulated variables x = p1 t1 / n_t, y = (n_t - n_l) sigma_a_sq,
z = p0 the problem collapses to a one-dimensional problem in x: the
eavesdropper constraint is active at the optimum, which pins y(x), and
the reverse power separates, which pins z = p_ave.  What is left is
c1 / x + c2 on the feasible x interval, so the optimum is an endpoint.

solve() picks that endpoint in closed form; solve_grid_oracle()
exhaustively scans the original two-variable feasible set and is kept as
an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import SystemConfig
from .errors import InfeasibleConfigError, NumericalError

__all__ = [
    "PowerAllocationProblem",
    "PowerAllocation",
    "gamma_bounds",
    "feasible_x_interval",
    "solve",
    "solve_grid_oracle",
]


@dataclass(frozen=True)
class PowerAllocation:
    """Solution point: reformulated (x, y, z) plus the physical powers."""

    x: float
    y: float
    z: float
    p1: float
    sigma_a_sq: float
    p0: float
    objective: float


@dataclass(frozen=True)
class PowerAllocationProblem:
    """Validated allocation instance; rejects gamma outside its feasible range.

    A zero wiretap channel (sigma_g_sq = 0) is rejected too: no jamming
    reaches the eavesdropper, so it cannot make the gamma constraint active.
    """

    cfg: SystemConfig

    def __post_init__(self) -> None:
        if self.cfg.sigma_g_sq == 0:
            raise InfeasibleConfigError(
                "sigma_g_sq=0: jamming cannot reach the eavesdropper, so the gamma constraint cannot be active"
            )
        lo, hi = gamma_bounds(self.cfg)
        if not (lo <= self.cfg.gamma <= hi):
            raise InfeasibleConfigError(
                f"gamma={self.cfg.gamma} outside feasible range [{lo:.6g}, {hi:.6g}]"
            )

    def objective(self, x: float) -> float:
        """Reformulated objective sigma0^2/x + y(x) n_l sigma0^2 / (x z) at z = p_ave."""
        cfg = self.cfg
        y = self.y_of_x(x)
        return cfg.sigma0_sq / x + y * cfg.n_l * cfg.sigma0_sq / (x * cfg.p_ave)

    def y_of_x(self, x: float) -> float:
        """Jamming power that makes the eavesdropper constraint active."""
        cfg = self.cfg
        return (x * cfg.gamma - cfg.sigma0_sq) / cfg.sigma_g_sq


def gamma_bounds(cfg: SystemConfig) -> tuple[float, float]:
    """Feasible range of the eavesdropper NMSE threshold.

    Below n_t sigma0^2 / (p_ave t1) even a pilot-only forward signal
    already leaves the eavesdropper worse than gamma; above
    (n_t - n_l) p_ave no jamming level within the budget can degrade it
    that far.
    """
    lower = cfg.n_t * cfg.sigma0_sq / (cfg.p_ave * cfg.t1)
    upper = (cfg.n_t - cfg.n_l) * cfg.p_ave
    return lower, upper


def feasible_x_interval(cfg: SystemConfig) -> tuple[float, float]:
    """Feasible range of x = p1 t1 / n_t given the gamma and power constraints."""
    lo, hi = gamma_bounds(cfg)
    if not (lo <= cfg.gamma <= hi):
        bound = "lower" if cfg.gamma < lo else "upper"
        raise InfeasibleConfigError(
            f"gamma={cfg.gamma} violates the {bound} bound of [{lo:.6g}, {hi:.6g}]"
        )
    x_min = cfg.sigma0_sq / cfg.gamma
    x_max = (
        (cfg.sigma_g_sq * cfg.p_ave + cfg.sigma0_sq)
        * cfg.t1
        / (cfg.gamma * cfg.t1 + cfg.n_t * cfg.sigma_g_sq)
    )
    return x_min, x_max


def solve(problem: PowerAllocationProblem) -> PowerAllocation:
    """Optimal power split: the better endpoint of the feasible x interval.

    With y(x) substituted the objective is c1/x + c2 with
    c1 = sigma0^2 (1 - n_l sigma0^2 / (sigma_g^2 p_ave)), so the optimum
    is x_max when c1 >= 0 (ties resolve toward larger x, lower NMSE at
    the legitimate receiver) and x_min otherwise.  Raises NumericalError
    when that arithmetic overflows, as it does for a sigma_g_sq near the
    largest float.
    """
    cfg = problem.cfg
    x_lo, x_hi = feasible_x_interval(cfg)
    c1 = cfg.sigma0_sq * (1.0 - cfg.n_l * cfg.sigma0_sq / (cfg.sigma_g_sq * cfg.p_ave))
    best_x = x_hi if c1 >= 0 else x_lo
    y_star = max(problem.y_of_x(best_x), 0.0)
    z_star = cfg.p_ave
    alloc = PowerAllocation(
        x=best_x,
        y=y_star,
        z=z_star,
        p1=best_x * cfg.n_t / cfg.t1,
        sigma_a_sq=y_star / (cfg.n_t - cfg.n_l),
        p0=z_star,
        objective=problem.objective(best_x),
    )
    if not np.all(np.isfinite([alloc.x, alloc.y, alloc.p1, alloc.sigma_a_sq, alloc.objective])):
        raise NumericalError(f"non-finite power allocation: {alloc}")
    return alloc


def solve_grid_oracle(problem: PowerAllocationProblem, grid_points: int = 2000) -> PowerAllocation:
    """Brute-force scan of the original (x, y) feasible set at z = p_ave.

    Evaluates the reformulated objective on a grid, keeps feasible points
    only, and returns the best with deterministic tie-breaking (lowest x,
    then lowest y).  Kept deliberately independent of solve() as a check
    against its algebra.
    """
    if grid_points < 100:
        raise ValueError("grid_points must be >= 100")
    cfg = problem.cfg
    z = cfg.p_ave
    # upper x limits implied directly by the raw constraints: the power
    # budget at y = 0, and the threshold constraint at the largest y it
    # admits (y <= p_ave)
    x_hi = cfg.p_ave * cfg.t1 / cfg.n_t
    x_hi = min(x_hi, (cfg.sigma0_sq + cfg.p_ave * cfg.sigma_g_sq) / cfg.gamma)
    xs = np.linspace(x_hi / grid_points, x_hi, grid_points)
    ys = np.linspace(0.0, cfg.p_ave, grid_points)
    xg = xs[:, None]
    yg = ys[None, :]
    ur_ok = cfg.sigma0_sq / xg + yg * cfg.sigma_g_sq / xg >= cfg.gamma
    power_ok = xg * cfg.n_t / cfg.t1 + yg <= cfg.p_ave
    feasible = ur_ok & power_ok
    if not feasible.any():
        raise InfeasibleConfigError("no feasible grid point; gamma likely out of range")
    obj = cfg.sigma0_sq / xg + yg * cfg.n_l * cfg.sigma0_sq / (xg * z)
    obj = np.where(feasible, obj, np.inf)
    flat = np.argmin(obj)  # argmin scans x-major then y: lowest x, then lowest y
    i, j = np.unravel_index(flat, obj.shape)
    x_best, y_best = float(xs[i]), float(ys[j])
    return PowerAllocation(
        x=x_best,
        y=y_best,
        z=z,
        p1=x_best * cfg.n_t / cfg.t1,
        sigma_a_sq=y_best / (cfg.n_t - cfg.n_l),
        p0=z,
        objective=float(obj[i, j]),
    )
