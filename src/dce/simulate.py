"""Monte Carlo orchestration: trials, experiments, and CSV emission.

A trial runs the full two-way exchange once: reverse training (optionally
contaminated), transmitter-side estimation, null-space jamming design,
forward training, and estimation at both receivers.  It computes only what
the two NMSE values depend on: the receivers' least-squares pilot
correlations (which the whitening-rotation estimate equals, see
estimators), one eigh at the transmitter for the blind scheme and one QR
for the jamming basis.  Experiments sweep one dimension (SNR, forward
training length, or attack power), solve the power allocation per sweep
point, and aggregate per-trial NMSE values with exact summation so
results are independent of trial ordering and worker count.

Randomness: trial i of sweep point s uses the stream
(master_seed, s * 2**32 + i), with one substream per drawn quantity, so
schemes compared under the same master seed share channel and noise
realizations draw-for-draw.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from . import analysis
from .attack import AttackScenario, contaminate_reverse
from .channel import SystemConfig, sample_channels
from .errors import InfeasibleConfigError
from .estimators import blind_whitening_tx, lmmse_downlink, lmmse_uplink, pilot_correlation
from .linalg import RngStream, complex_gaussian
from .power_allocation import PowerAllocation, PowerAllocationProblem, solve
from .training import build_an_basis, build_forward_signal, build_reverse_signal

__all__ = [
    "SCHEMES",
    "ExperimentSpec",
    "ResultRow",
    "run_trial",
    "run_experiment",
    "emit_csv",
    "read_csv",
]

SCHEMES = ("wr", "lmmse", "wr_perfect_csi")

# Substream layout: _MAIN carries the draws every scheme consumes in the
# same fixed order (channels, reverse noise, jamming, forward noises);
# quantities that only some variants draw get their own substream, built
# only by those variants, so the shared draws stay aligned in paired
# comparisons.
_MAIN, _REV_PILOT, _ATTACK = range(3)


@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep: scheme, attack, grids, trial count, and seed."""

    cfg: SystemConfig
    scheme: str = "wr"
    attack: AttackScenario = field(default_factory=AttackScenario)
    snr_db_grid: tuple[float, ...] = (20.0,)
    gamma: float = 0.03
    trials: int = 20000
    master_seed: int = 0
    t1_grid: tuple[int, ...] | None = None
    p0_bar_grid: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.snr_db_grid:
            raise ValueError("snr_db_grid must be non-empty")
        active = [g for g in (self.t1_grid, self.p0_bar_grid) if g]
        if len(active) > 1:
            raise ValueError("at most one of t1_grid / p0_bar_grid may be active")
        if active and len(self.snr_db_grid) != 1:
            raise ValueError("secondary sweeps need a single SNR point")

    def sweep(self) -> list[tuple[str, float]]:
        """(kind, value) pairs of the active sweep dimension."""
        if self.t1_grid:
            return [("t1", float(v)) for v in self.t1_grid]
        if self.p0_bar_grid:
            return [("p0_bar", float(v)) for v in self.p0_bar_grid]
        return [("snr_db", float(v)) for v in self.snr_db_grid]


@dataclass(frozen=True)
class ResultRow:
    """One aggregated sweep point; closed-form fields are None where no prediction exists."""

    sweep_value: float
    scheme: str
    attack_mode: str
    p1: float | None
    sigma_a_sq: float | None
    p0: float | None
    nmse_lr_emp: float | None
    nmse_lr_cf: float | None
    nmse_ur_emp: float | None
    nmse_ur_cf: float | None
    trials: int
    seed: int


def run_trial(
    cfg: SystemConfig,
    allocation: PowerAllocation,
    scheme: str,
    attack: AttackScenario,
    stream: RngStream,
) -> tuple[float, float]:
    """One independent two-way exchange; returns per-trial (lr, ur) NMSE values."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    pilot_mode = "fixed" if scheme == "lmmse" else "random"
    if attack.mode == "known_pilot" and pilot_mode != "fixed":
        raise ValueError("known_pilot attack requires the fixed-pilot scheme: random pilots cannot be replayed")

    main = stream.substream(_MAIN)
    ch = sample_channels(cfg, main)
    # drawn unconditionally so later shared draws stay aligned across schemes
    e0 = complex_gaussian(main, cfg.n_t, cfg.t0, cfg.sigma0_sq)

    # reverse phase and transmitter-side uplink knowledge
    if scheme == "wr_perfect_csi":
        uplink = ch.h.T  # genie: exact uplink channel, jamming perfectly nulled
    else:
        rev_rng = stream.substream(_REV_PILOT) if pilot_mode == "random" else None
        reverse = build_reverse_signal(cfg, allocation.p0, mode=pilot_mode, rng=rev_rng)
        x0 = ch.h.T @ reverse.s0 + e0
        if attack.mode != "none":
            x0 = contaminate_reverse(
                x0, ch.g, attack, cfg, stream.substream(_ATTACK), legit_c0=reverse.c0
            )
        if scheme == "wr":
            uplink = blind_whitening_tx(x0, allocation.p0, cfg.t0, cfg.n_l)
        else:
            uplink = lmmse_uplink(x0, reverse, cfg.sigma_h_sq, cfg.sigma0_sq)
    an_basis = build_an_basis(uplink)

    # forward phase
    forward = build_forward_signal(cfg, an_basis, allocation.p1, allocation.sigma_a_sq, main)
    x1 = ch.h @ forward.s1 + complex_gaussian(main, cfg.n_l, cfg.t1, cfg.sigma0_sq)
    y1 = ch.g @ forward.s1 + complex_gaussian(main, cfg.n_u, cfg.t1, cfg.sigma0_sq)

    # estimation at both receivers
    if scheme == "lmmse":
        h_hat = lmmse_downlink(x1, forward, cfg.sigma_h_sq, cfg.sigma0_sq)
        g_hat = lmmse_downlink(y1, forward, cfg.sigma_g_sq, cfg.sigma0_sq)
    else:
        # the whitening-rotation estimates (wr_estimate_lr / _ur) equal these
        x = allocation.p1 * cfg.t1 / cfg.n_t
        h_hat = pilot_correlation(x1, forward.s1_pilot, x)
        g_hat = pilot_correlation(y1, forward.s1_pilot, x)

    return (
        analysis.empirical_nmse(h_hat, ch.h),
        analysis.empirical_nmse(g_hat, ch.g),
    )


def _trial_chunk(args) -> list[tuple[int, float, float]]:
    cfg, allocation, scheme, attack, master_seed, base_id, indices = args
    out = []
    for i in indices:
        stream = RngStream(master_seed, base_id + i)
        lr, ur = run_trial(cfg, allocation, scheme, attack, stream)
        out.append((i, lr, ur))
    return out


def _closed_forms(
    cfg: SystemConfig, alloc: PowerAllocation, scheme: str, attack: AttackScenario
) -> tuple[float | None, float | None]:
    if scheme == "lmmse":
        return None, None
    ur_cf = analysis.nmse_ur_closed(cfg, alloc.p1, alloc.sigma_a_sq)
    if scheme == "wr_perfect_csi":
        # exact nulling: only the forward-noise term remains at the LR
        return analysis.nmse_lr_closed(cfg, alloc.p0, alloc.p1, 0.0), ur_cf
    if attack.mode == "none" or attack.p0_bar == 0:
        return analysis.nmse_lr_closed(cfg, alloc.p0, alloc.p1, alloc.sigma_a_sq), ur_cf
    # Contamination steers the jamming basis toward G as well, so the clean
    # wiretap prediction no longer holds: the UR value is out of model.
    return (
        analysis.nmse_lr_attack_closed(cfg, alloc.p0, attack.p0_bar, alloc.p1, alloc.sigma_a_sq),
        None,
    )


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> list[ResultRow]:
    """Run all sweep points of the spec; bit-reproducible for a given master seed.

    Infeasible sweep points (gamma outside its bounds at that operating
    point, or no wiretap channel to jam) produce a row with empty value
    fields and the run continues.
    Trials run in the same chunks for every worker count: with workers > 1
    one process pool maps them for every sweep point, with one worker they
    are mapped in this process.
    """
    with (ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext()) as pool:
        return [
            _run_point(spec, sweep_index, kind, value, pool, workers)
            for sweep_index, (kind, value) in enumerate(spec.sweep())
        ]


def _run_point(
    spec: ExperimentSpec,
    sweep_index: int,
    kind: str,
    value: float,
    pool: ProcessPoolExecutor | None,
    workers: int,
) -> ResultRow:
    cfg = replace(spec.cfg, gamma=spec.gamma)
    attack = spec.attack
    if kind == "snr_db":
        cfg = replace(cfg, sigma0_sq=analysis.snr_to_sigma0_sq(value))
    elif kind == "t1":
        cfg = replace(
            cfg,
            t1=int(value),
            sigma0_sq=analysis.snr_to_sigma0_sq(spec.snr_db_grid[0]),
        )
    else:  # p0_bar sweep
        cfg = replace(cfg, sigma0_sq=analysis.snr_to_sigma0_sq(spec.snr_db_grid[0]))
        attack = AttackScenario(mode=attack.mode, p0_bar=value)

    try:
        alloc = solve(PowerAllocationProblem(cfg))
    except InfeasibleConfigError:
        return ResultRow(
            sweep_value=value,
            scheme=spec.scheme,
            attack_mode=attack.mode,
            p1=None,
            sigma_a_sq=None,
            p0=None,
            nmse_lr_emp=None,
            nmse_lr_cf=None,
            nmse_ur_emp=None,
            nmse_ur_cf=None,
            trials=0,
            seed=spec.master_seed,
        )

    base_id = sweep_index * (2**32)
    chunk = max(1, math.ceil(spec.trials / (workers * 4)))
    jobs = [
        (cfg, alloc, spec.scheme, attack, spec.master_seed, base_id,
         range(start, min(start + chunk, spec.trials)))
        for start in range(0, spec.trials, chunk)
    ]
    lr_vals = [0.0] * spec.trials
    ur_vals = [0.0] * spec.trials
    for part in (pool.map if pool else map)(_trial_chunk, jobs):
        for i, lr, ur in part:
            lr_vals[i], ur_vals[i] = lr, ur

    lr_cf, ur_cf = _closed_forms(cfg, alloc, spec.scheme, attack)
    return ResultRow(
        sweep_value=value,
        scheme=spec.scheme,
        attack_mode=attack.mode,
        p1=alloc.p1,
        sigma_a_sq=alloc.sigma_a_sq,
        p0=alloc.p0,
        nmse_lr_emp=math.fsum(lr_vals) / spec.trials,
        nmse_lr_cf=lr_cf,
        nmse_ur_emp=math.fsum(ur_vals) / spec.trials,
        nmse_ur_cf=ur_cf,
        trials=spec.trials,
        seed=spec.master_seed,
    )


CSV_HEADER = "sweep,scheme,attack,p1,sigma_a_sq,p0,nmse_lr_emp,nmse_lr_cf,nmse_ur_emp,nmse_ur_cf,trials,seed"


def _fmt(value: float | None) -> str:
    if value is None:
        return ""
    return np.format_float_positional(
        float(value), unique=True, fractional=False, min_digits=6, trim="k"
    )


def emit_csv(rows: list[ResultRow], path: str | os.PathLike) -> None:
    """Write rows with the fixed header; decimal notation, >= 6 significant digits.

    Values round-trip exactly (shortest-unique decimal expansions), and
    identical row lists produce byte-identical files.
    """
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                [
                    _fmt(r.sweep_value),
                    r.scheme,
                    r.attack_mode,
                    _fmt(r.p1),
                    _fmt(r.sigma_a_sq),
                    _fmt(r.p0),
                    _fmt(r.nmse_lr_emp),
                    _fmt(r.nmse_lr_cf),
                    _fmt(r.nmse_ur_emp),
                    _fmt(r.nmse_ur_cf),
                    str(r.trials),
                    str(r.seed),
                ]
            )
        )
    try:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def read_csv(path: str | os.PathLike) -> list[ResultRow]:
    """Parse a file written by emit_csv back into rows."""

    def parse(cell: str) -> float | None:
        return None if cell == "" else float(cell)

    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path} does not carry the expected header")
    rows = []
    for ln in lines[1:]:
        c = ln.split(",")
        rows.append(
            ResultRow(
                sweep_value=float(c[0]),
                scheme=c[1],
                attack_mode=c[2],
                p1=parse(c[3]),
                sigma_a_sq=parse(c[4]),
                p0=parse(c[5]),
                nmse_lr_emp=parse(c[6]),
                nmse_lr_cf=parse(c[7]),
                nmse_ur_emp=parse(c[8]),
                nmse_ur_cf=parse(c[9]),
                trials=int(c[10]),
                seed=int(c[11]),
            )
        )
    return rows
