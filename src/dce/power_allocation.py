"""Optimal power split between forward pilots and artificial noise.

The design problem: minimize the legitimate receiver's predicted NMSE,
analysis.nmse_lr_closed, subject to (a) the eavesdropper's predicted
NMSE, analysis.nmse_ur_closed, staying above gamma, (b) the reverse
power budget, (c) the forward pilot-plus-jamming budget.
In the reformulated variables x = p1 t1 / n_t, y = (n_t - n_l) sigma_a_sq,
z = p0 the problem collapses to a one-dimensional problem in x: the
eavesdropper constraint is active at the optimum, which pins y(x), and
the reverse power separates, which pins z = p_ave.  What is left is
c1 / x + c2 with c1 = sigma0^2 (1 - n_l s sigma0^2 / (sigma_g^2 p_ave t0)),
s the closed form's shrinkage at t0 = n_l (s = 1 otherwise), on the
feasible x interval, so the optimum is an endpoint.

solve() keeps the endpoint with the lower nmse_lr_closed;
solve_grid_oracle() exhaustively scans the original two-variable
feasible set with the same two closed forms and is kept as an
independent cross-check of the endpoint argument.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import nmse_lr_closed, nmse_ur_closed
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


def _split(cfg: SystemConfig, x: float, y: float) -> PowerAllocation:
    p1 = x * cfg.n_t / cfg.t1
    sigma_a_sq = y / (cfg.n_t - cfg.n_l)
    objective = nmse_lr_closed(cfg, cfg.p_ave, p1, sigma_a_sq)
    return PowerAllocation(x=x, y=y, z=cfg.p_ave, p1=p1, sigma_a_sq=sigma_a_sq, p0=cfg.p_ave, objective=objective)


def solve(problem: PowerAllocationProblem) -> PowerAllocation:
    """Optimal power split: the endpoint of the feasible x interval with the lower nmse_lr_closed.

    That is x_max when c1 >= 0 and x_min otherwise (see the module
    docstring); ties resolve toward x_max, lower NMSE at the legitimate
    receiver.  With sigma0^2 = 0, x_min = 0 and the objective is 0 at
    x_max.  Raises NumericalError when that arithmetic overflows, as it
    does for a sigma_g_sq near the largest float.
    """
    cfg = problem.cfg
    x_lo, x_hi = feasible_x_interval(cfg)

    def active(x: float) -> PowerAllocation:  # y(x) = (x gamma - sigma0^2) / sigma_g^2
        return _split(cfg, x, max((x * cfg.gamma - cfg.sigma0_sq) / cfg.sigma_g_sq, 0.0))

    alloc = active(x_hi)
    if x_lo > 0:  # sigma0^2 = 0 puts x_min at 0, where no pilot is sent
        low = active(x_lo)
        alloc = low if low.objective < alloc.objective else alloc  # a tie or a NaN keeps x_max
    if not np.all(np.isfinite([alloc.x, alloc.y, alloc.p1, alloc.sigma_a_sq, alloc.objective])):
        raise NumericalError(f"non-finite power allocation: {alloc}")
    return alloc


def solve_grid_oracle(problem: PowerAllocationProblem, grid_points: int = 2000) -> PowerAllocation:
    """Brute-force scan of the original (x, y) feasible set at z = p_ave.

    Keeps the grid points where nmse_ur_closed >= gamma and the forward
    budget holds, ranks them by nmse_lr_closed, and returns the best with
    deterministic tie-breaking (lowest x, then lowest y).  It shares the
    model with solve() but not its endpoint algebra, so it checks that.
    """
    if grid_points < 100:
        raise ValueError("grid_points must be >= 100")
    cfg = problem.cfg
    # upper x limits implied directly by the raw constraints: the power
    # budget at y = 0, and the threshold constraint at the largest y it
    # admits (y <= p_ave)
    x_hi = cfg.p_ave * cfg.t1 / cfg.n_t
    x_hi = min(x_hi, (cfg.sigma0_sq + cfg.p_ave * cfg.sigma_g_sq) / cfg.gamma)
    xs = np.linspace(x_hi / grid_points, x_hi, grid_points)
    ys = np.linspace(0.0, cfg.p_ave, grid_points)
    p1s = xs * cfg.n_t / cfg.t1
    sigma_a_sqs = ys / (cfg.n_t - cfg.n_l)
    # one row per x, since the closed forms take a scalar p1
    ur = np.array([nmse_ur_closed(cfg, p1, sigma_a_sqs) for p1 in p1s])
    feasible = (ur >= cfg.gamma) & (p1s[:, None] + ys[None, :] <= cfg.p_ave)
    if not feasible.any():
        raise InfeasibleConfigError("no feasible grid point; gamma likely out of range")
    obj = np.array([nmse_lr_closed(cfg, cfg.p_ave, p1, sigma_a_sqs) for p1 in p1s])
    flat = np.argmin(np.where(feasible, obj, np.inf))  # x-major then y: lowest x, then lowest y
    i, j = np.unravel_index(flat, obj.shape)
    return _split(cfg, float(xs[i]), float(ys[j]))
