"""Monte Carlo orchestration: trials, experiments, and CSV emission.

run_trial is the literal reference: it synthesises every reverse and
forward signal of the two-way exchange (reverse training, optionally
contaminated, transmitter-side estimation, null-space jamming design,
forward training, estimation at both receivers) and returns the
(lr, ur) NMSE pair.  run_experiment runs a sufficient-statistic engine
instead, in two stages.  _draw_statistics is its law: the NMSE values
depend on a trial only through the channels, the noises and jamming
projected onto the pilot rows, and the Wishart Gram of the noise-only
reverse rows, so it draws those small matrices, whose size depends on
neither training length.  _tx_basis computes the transmitter's jamming
basis from them, and _evaluate, a pure function, both receivers' errors,
for a pass of trials at once.  Fed run_trial's own draws so projected,
they return run_trial's values; the two implementations differ in how they
draw, so their outputs agree in distribution, not draw for draw.

An experiment solves the power allocation of every sweep point (SNR,
forward training length, or attack power), maps one list of jobs of at
most _PASS trials, and sums each point's per-trial NMSE values exactly,
so results are independent of job order and worker count.  No sweep
changes the shape of a statistic: SNR, t1 and p0_bar only scale the
statistics inside _evaluate.  So a job draws its trials once and
evaluates them at every sweep point (common random numbers), and builds
one jamming basis per distinct reverse statistic: one for a whole t1
sweep, one for every sweep of the perfect-CSI scheme.

Randomness: run_trial draws trial i from the stream (master_seed, i).
run_experiment draws a pass of _PASS trials at a time: pass p from the
stream (master_seed, p), one call per substream, and trial i is column
i % _PASS of pass i // _PASS.  A trial's values therefore do not depend
on the trial count, the job split or the worker count; they are the same
at every sweep point, so the rows of one sweep are correlated, and
independent points need different master seeds.  Draws every scheme
consumes come first, from one substream, field by field in a fixed
order, so schemes compared under the same master seed share channel and
noise realizations; only variant-specific draws (random reverse pilots
in run_trial, the attacker's) come from substreams of their own.
"""

from __future__ import annotations

import math
import os
import stat
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from . import analysis
from .attack import AttackScenario, contaminate_reverse
from .channel import SystemConfig, sample_channels
from .errors import DimensionError, InfeasibleConfigError, NumericalError
from .estimators import blind_whitening_tx, lmmse_downlink, lmmse_uplink, pilot_correlation, shrinkage
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
        if self.attack.mode == "known_pilot" and self.scheme != "lmmse":
            raise ValueError("known_pilot attack requires the fixed-pilot scheme: random pilots cannot be replayed")
        n_u, n_l = self.cfg.n_u, self.cfg.n_l
        if self.attack.mode != "none" and self.scheme != "wr_perfect_csi" and n_u != n_l:
            raise DimensionError(
                f"pilot injection needs n_u == n_l to mirror the pilot shape, got n_u={n_u}, n_l={n_l}"
            )

    def sweep(self) -> list[tuple[str, float]]:
        """(kind, value) pairs of the active sweep dimension."""
        if self.t1_grid:
            return [("t1", float(v)) for v in self.t1_grid]
        if self.p0_bar_grid:
            return [("p0_bar", float(v)) for v in self.p0_bar_grid]
        return [("snr_db", float(v)) for v in self.snr_db_grid]


@dataclass(frozen=True, slots=True)
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


# Trials per pass: a job is one vectorised pass over consecutive trials,
# drawn once and evaluated at every feasible sweep point, so memory does
# not grow with the trial count and the job list does not depend on the
# worker count.  Each pass draws from a stream of its own, so _PASS is
# part of the stream definition: changing it changes every draw.
_PASS = 256


def _job(args) -> list[np.ndarray]:
    """(trials, 2) per-trial (lr, ur) NMSE values of a range of trials, one array per given sweep point.

    The points are (index, config, attack, allocation) of one sweep, so
    they share the shapes of every statistic.  The attacker's draws are
    made if any point's attacker transmits; a silent point ignores them,
    so it sees the clean trial.  The TX basis reads a point only through
    sigma0^2, p0 and, if the attacker transmits, p0_bar (the genie TX
    through none of them), so points that agree on those share one.
    """
    scheme, points, master_seed, stream_ids = args
    loudest = max((attack for _, _, attack, _ in points), key=lambda attack: attack.p0_bar)
    stats = _draw_statistics(points[0][1], scheme, loudest, master_seed, stream_ids)
    clean = replace(stats, f0=None, coords=None)
    bases = {}
    values = []
    for point, cfg, attack, alloc in points:
        seen = stats if attack.p0_bar > 0 else clean
        key = None if scheme == "wr_perfect_csi" else (cfg.sigma0_sq, alloc.p0, attack.p0_bar)
        if key not in bases:
            bases[key] = _tx_basis(cfg, alloc, scheme, attack, seen, point)
        values.append(_evaluate(cfg, alloc, scheme, seen, bases[key], point))
    return values


@dataclass(frozen=True)
class _Statistics:
    """What a pass of trials depends on, stacked over trials; each signal over its standard deviation.

    c0 are the reverse pilot rows, D the k = min(n_l, t0 - n_l) rows a
    guessed pilot adds, R the other reverse rows, c1 the forward pilot rows.
    """

    master_seed: int
    stream_ids: range  # the trials, to name one in an error
    h: np.ndarray  # H
    g: np.ndarray  # G
    an: np.ndarray  # A c1^H, the jamming in TX basis coordinates
    e1: np.ndarray  # E1 c1^H, forward noise at the LR
    f1: np.ndarray  # F1 c1^H, forward noise at the UR
    z0: np.ndarray  # E0 c0^H, reverse noise
    added: np.ndarray | None = None  # blind TX: E0 D^H
    remainder: np.ndarray | None = None  # blind TX: W W^H = E0 R^H R E0^H; of E0 + F0, halved, if attacked
    f0: np.ndarray | None = None  # active attack: F0 [c0; D]^H, its second front-end noise
    coords: np.ndarray | None = None  # active attack: c0_bar [c0; D]^H, its pilot rows


def _wishart_draws(dim: int, dof: int) -> tuple[int, np.ndarray]:
    """Complex draws and gamma shapes behind _wishart_factor(dim, dof)."""
    if dof <= dim:
        return dim * dof, np.empty(0)
    return dim * (dim - 1) // 2, dof - np.arange(dim, dtype=float)


def _wishart_factor(flat: np.ndarray, gammas: np.ndarray, dim: int, dof: int) -> np.ndarray:
    """Stack of dim x min(dim, dof) factors F with F F^H ~ complex Wishart_dim(dof, I).

    Up to dim degrees of freedom F is the direct draw; beyond, it is the
    Bartlett factor (Goodman 1963): lower triangular, CN(0, 1) below the
    diagonal and sqrt(Gamma(dof - j)) on diagonal entry j.
    """
    if dof <= dim:
        return flat.reshape(len(flat), dim, dof)
    flat = flat.reshape(len(flat), -1)
    out = np.zeros((len(flat), dim, dim), dtype=complex)
    out[:, *np.tril_indices(dim, -1)] = flat
    out[:, *np.diag_indices(dim)] = np.sqrt(gammas)
    return out


def _draws(
    master_seed: int, stream_ids: range, substream: int, shapes: list[tuple[int, int]], gamma_shapes: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """Stacks of unit CN(0, 1) matrices of the given shapes, then Gamma draws, of the given trials.

    Pass p draws from its stream (master_seed, p), in one complex_gaussian
    call field by field (row r holds entry r of every trial of the pass,
    so a field's values do not depend on the fields after it), then in one
    standard_gamma call.  Trial i is column i % _PASS of pass i // _PASS.
    Every touched pass is drawn whole and its trials sliced out, so a
    trial's values do not depend on the range it is drawn in.
    """
    sizes = [rows * cols for rows, cols in shapes]
    normal, gamma = [], []
    for p in range(stream_ids[0] // _PASS, stream_ids[-1] // _PASS + 1):
        rng = RngStream(master_seed, p).substream(substream)
        cols = slice(max(stream_ids[0] - p * _PASS, 0), stream_ids[-1] + 1 - p * _PASS)
        normal.append(complex_gaussian(rng, sum(sizes), _PASS, 1.0)[:, cols])
        gamma.append(rng.standard_gamma(gamma_shapes, size=(_PASS, gamma_shapes.size))[cols])
    parts = np.split(np.concatenate(normal, axis=1).T, np.cumsum(sizes)[:-1], axis=1)
    return [part.reshape(len(stream_ids), *shape) for part, shape in zip(parts, shapes)], np.concatenate(gamma)


def _draw_statistics(
    cfg: SystemConfig, scheme: str, attack: AttackScenario, master_seed: int, stream_ids: range
) -> _Statistics:
    """The engine's law: each trial's _Statistics, from _MAIN in one order for every scheme, then _ATTACK.

    The projections are i.i.d. CN(0, 1); the noise-only rows' Gram comes
    as its Wishart factor, and a guessed pilot as its coordinates.
    """
    n_t, n_l, n_u = cfg.n_t, cfg.n_l, cfg.n_u
    k = min(n_l, cfg.t0 - n_l)
    rest = cfg.t0 - n_l - k
    shapes = [(n_l, n_t), (n_u, n_t), (n_t - n_l, n_t), (n_l, n_t), (n_u, n_t), (n_t, n_l)]
    gamma_shapes = np.empty(0)
    if scheme == "wr":
        size, gamma_shapes = _wishart_draws(n_t, rest)
        shapes += [(n_t, k), (1, size)]
    (h, g, an, e1, f1, z0, *blind), rest_gamma = _draws(master_seed, stream_ids, _MAIN, shapes, gamma_shapes)
    added = remainder = f0 = coords = None
    if scheme == "wr":
        added, remainder = blind[0], _wishart_factor(blind[1], rest_gamma, n_t, rest)
    if scheme != "wr_perfect_csi" and attack.mode != "none" and attack.p0_bar > 0:
        shapes, gamma_shapes = [(n_t, n_l + k)], np.empty(0)
        if attack.mode == "guess":
            size, gamma_shapes = _wishart_draws(n_l, cfg.t0 - n_l)
            shapes += [(n_l, n_l), (1, size)]
        (f0, *pilot), l2_gamma = _draws(master_seed, stream_ids, _ATTACK, shapes, gamma_shapes)
        if attack.mode == "guess":
            # c0_bar = C^-1 [gamma1 c0 + l2 D] with C the Cholesky factor
            # of the Gram of [gamma1, l2], as orthonormal_rows builds it
            both = np.concatenate([pilot[0], _wishart_factor(pilot[1], l2_gamma, n_l, cfg.t0 - n_l)], axis=-1)
            coords = np.linalg.solve(np.linalg.cholesky(both @ both.conj().mT), both)
        else:
            coords = np.eye(n_l, n_l + k)  # a replay sends c0 itself
    return _Statistics(master_seed, stream_ids, h, g, an, e1, f1, z0, added, remainder, f0, coords)


def _require_finite(values: np.ndarray, what: str, stats: _Statistics, point: int) -> None:
    finite = np.isfinite(values).reshape(len(values), -1).all(axis=1)
    if not finite.all():
        raise NumericalError(
            f"non-finite {what} in trial {stats.stream_ids[int(np.argmin(finite))]} of sweep point {point}"
            f" (master seed {stats.master_seed})"
        )


def _tx_basis(
    cfg: SystemConfig, alloc: PowerAllocation, scheme: str, attack: AttackScenario, stats: _Statistics, point: int
) -> np.ndarray:
    """Stack of the TX's jamming bases, from the reverse statistics per unit pilot energy a = p0 t0 / n_l.

    The TX sees the reverse observation through its projections onto c0
    and onto the k added rows, and through the Gram of the rest.
    """
    n_t, n_l = cfg.n_t, cfg.n_l
    h = math.sqrt(cfg.sigma_h_sq) * stats.h
    if scheme == "wr_perfect_csi":
        tx = h.mT
    else:
        noise = math.sqrt(cfg.sigma0_sq * n_l / (alloc.p0 * cfg.t0))
        # the attack's part of the statistics on c0 and on the k added rows
        contamination = np.zeros((1, n_t, n_l + min(n_l, cfg.t0 - n_l)))
        if stats.f0 is not None:
            g = math.sqrt(cfg.sigma_g_sq) * stats.g
            contamination = math.sqrt(attack.p0_bar / alloc.p0) * g.mT @ stats.coords + noise * stats.f0
        tx = h.mT + noise * stats.z0 + contamination[..., :n_l]
        if scheme == "wr":
            added = noise * stats.added + contamination[..., n_l:]
            remainder = math.sqrt(1.0 if stats.f0 is None else 2.0) * noise * stats.remainder
            tx = np.concatenate([tx, added, remainder], axis=-1)
    _require_finite(tx, "reverse-phase statistic", stats, point)
    if scheme == "wr":
        # bottom eigenvectors of the reverse autocorrelation: the complement
        # of blind_whitening_tx's top n_l, the span build_an_basis returns
        return np.linalg.eigh(tx @ tx.conj().mT)[1][..., : n_t - n_l].conj()
    return build_an_basis(tx)


def _evaluate(
    cfg: SystemConfig, alloc: PowerAllocation, scheme: str, stats: _Statistics, basis: np.ndarray, point: int
) -> np.ndarray:
    """(trials, 2) per-trial (lr, ur) NMSE values at sweep point `point`, a pure function of the statistics.

    The least-squares error at a receiver is (H N A c1^H + E1 c1^H) / sqrt(x),
    N the TX basis (_tx_basis), and the LMMSE estimate shrinks it by alpha.
    Given run_trial's own draws so projected, this returns run_trial's values.
    """
    h = math.sqrt(cfg.sigma_h_sq) * stats.h
    g = math.sqrt(cfg.sigma_g_sq) * stats.g
    x = alloc.p1 * cfg.t1 / cfg.n_t
    an = math.sqrt(alloc.sigma_a_sq) * (basis @ stats.an)
    err_h = (h @ an + math.sqrt(cfg.sigma0_sq) * stats.e1) / math.sqrt(x)
    err_g = (g @ an + math.sqrt(cfg.sigma0_sq) * stats.f1) / math.sqrt(x)
    if scheme == "lmmse":
        alpha_h = shrinkage(cfg.sigma_h_sq, x, cfg.sigma0_sq)
        alpha_g = shrinkage(cfg.sigma_g_sq, x, cfg.sigma0_sq)
        err_h = alpha_h * err_h + (alpha_h - 1.0) * h
        err_g = alpha_g * err_g + (alpha_g - 1.0) * g
    nmse = np.stack([_sq_norm(err_h) / (cfg.n_l * cfg.n_t), _sq_norm(err_g) / (cfg.n_u * cfg.n_t)], axis=1)
    _require_finite(nmse, "NMSE", stats, point)
    return nmse


def _sq_norm(stack: np.ndarray) -> np.ndarray:
    flat = stack.reshape(len(stack), -1)
    return (flat.real**2 + flat.imag**2).sum(axis=1)


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

    The spec was checked when it was built.  Every sweep point's power
    allocation is solved first; an infeasible point (gamma outside its
    bounds there, or no wiretap channel to jam) gives a row with empty
    value fields and trials=0.  The trials are cut into jobs of one pass
    of _PASS trials each; trial i is drawn once, as column i % _PASS of
    pass i // _PASS (see _draws), and evaluated at every feasible point,
    so the rows of one sweep share their draws.  The one job list is
    mapped once: by a pool of `workers` processes when workers > 1, in
    this process otherwise.  The jobs, and so the rows, do not depend on
    the worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    points = [_solve_point(spec, kind, value) for kind, value in spec.sweep()]
    feasible = [(s, cfg, attack, alloc) for s, (_, cfg, attack, alloc) in enumerate(points) if alloc is not None]
    trials = range(spec.trials)
    jobs = [(spec.scheme, feasible, spec.master_seed, trials[i : i + _PASS]) for i in trials[::_PASS] if feasible]
    with (ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext()) as pool:
        results = list((pool.map if pool else map)(_job, jobs))
    per_point = (np.concatenate(passes) for passes in zip(*results))  # the feasible points' values, in order
    rows = []
    for value, cfg, attack, alloc in points:
        if alloc is None:  # infeasible: no allocation, no trials
            rows.append(ResultRow(value, spec.scheme, attack.mode, *[None] * 7, 0, spec.master_seed))
            continue
        nmse = next(per_point)
        lr_cf, ur_cf = _closed_forms(cfg, alloc, spec.scheme, attack)
        rows.append(
            ResultRow(
                sweep_value=value,
                scheme=spec.scheme,
                attack_mode=attack.mode,
                p1=alloc.p1,
                sigma_a_sq=alloc.sigma_a_sq,
                p0=alloc.p0,
                nmse_lr_emp=math.fsum(nmse[:, 0]) / spec.trials,
                nmse_lr_cf=lr_cf,
                nmse_ur_emp=math.fsum(nmse[:, 1]) / spec.trials,
                nmse_ur_cf=ur_cf,
                trials=spec.trials,
                seed=spec.master_seed,
            )
        )
    return rows


def _solve_point(
    spec: ExperimentSpec, kind: str, value: float
) -> tuple[float, SystemConfig, AttackScenario, PowerAllocation | None]:
    """(sweep value, config, attack, allocation) of one sweep point; no allocation if infeasible."""
    snr_db = value if kind == "snr_db" else spec.snr_db_grid[0]
    cfg = replace(spec.cfg, gamma=spec.gamma, sigma0_sq=analysis.snr_to_sigma0_sq(snr_db))
    if kind == "t1":
        cfg = replace(cfg, t1=int(value))
    attack = AttackScenario(spec.attack.mode, value) if kind == "p0_bar" else spec.attack
    try:
        return value, cfg, attack, solve(PowerAllocationProblem(cfg))
    except InfeasibleConfigError:
        return value, cfg, attack, None


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
    identical row lists produce byte-identical files.  An existing file is
    overwritten in place and then cut to the new length, which is much
    cheaper on some file systems than truncating it on open; only regular
    files are cut, so a path such as /dev/stdout works too.
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
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="ascii", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
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
