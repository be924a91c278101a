"""Monte Carlo orchestration: trials, experiments, and CSV emission.

Two implementations of a trial share one law.  run_trial is the literal
reference: it synthesises every reverse and forward signal of the
two-way exchange (reverse training, optionally contaminated,
transmitter-side estimation, null-space jamming design, forward
training, estimation at both receivers) and returns the (lr, ur) NMSE
pair.  run_experiment runs a sufficient-statistic engine instead: the
NMSE values depend on a trial only through the channels, the noises and
jamming projected onto the pilot rows, and the Wishart Gram of the
noise-only reverse rows, so it draws those small matrices, whose size
depends on neither training length, and computes the transmitter's
jamming basis and both receivers' errors once for a pass of up to 256
trials.  The two agree in distribution, not draw for draw.

Experiments sweep one dimension (SNR, forward training length, or attack
power), solve the power allocation per sweep point, and aggregate
per-trial NMSE values with exact summation, so results are independent
of trial ordering and worker count.

Randomness: trial i of sweep point s uses the stream
(master_seed, s * 2**32 + i), in both implementations.  Draws every
scheme consumes come from one substream in a fixed order, so schemes
compared under the same master seed share channel and noise
realizations; only variant-specific draws (random reverse pilots in
run_trial, the attacker's) come from substreams of their own.
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


# Trials per vectorised pass of the engine, so its working memory does
# not grow with the trial count.
_PASS = 256


def _trial_chunk(args) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial (lr, ur) NMSE arrays of the given trial ids of one sweep point."""
    cfg, allocation, scheme, attack, master_seed, base_id, indices = args
    if attack.mode == "known_pilot" and scheme != "lmmse":
        raise ValueError("known_pilot attack requires the fixed-pilot scheme: random pilots cannot be replayed")
    if attack.mode != "none" and scheme != "wr_perfect_csi" and cfg.n_u != cfg.n_l:
        raise DimensionError(
            f"pilot injection needs n_u == n_l to mirror the pilot shape, got n_u={cfg.n_u}, n_l={cfg.n_l}"
        )
    parts = [
        _engine_pass(cfg, allocation, scheme, attack, master_seed, base_id, indices[start : start + _PASS])
        for start in range(0, len(indices), _PASS)
    ]
    return np.concatenate([lr for lr, _ in parts]), np.concatenate([ur for _, ur in parts])


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
    """Stacks of unit CN(0, 1) matrices of the given shapes, then Gamma draws, from each trial's substream."""
    normal = np.empty((len(stream_ids), sum(r * c for r, c in shapes)), dtype=complex)
    gamma = np.empty((len(stream_ids), gamma_shapes.size))
    for row, stream_id in enumerate(stream_ids):
        rng = RngStream(master_seed, stream_id).substream(substream)
        normal[row : row + 1] = complex_gaussian(rng, 1, normal.shape[1], 1.0)
        if gamma_shapes.size:
            gamma[row] = rng.standard_gamma(gamma_shapes)
    stacks, start = [], 0
    for rows, cols in shapes:
        stacks.append(normal[:, start : start + rows * cols].reshape(len(normal), rows, cols))
        start += rows * cols
    return stacks, gamma


def _require_finite(values: np.ndarray, what: str, master_seed: int, base_id: int, ids: range) -> None:
    finite = np.isfinite(values).reshape(len(ids), -1).all(axis=1)
    if not finite.all():
        trial = ids[int(np.argmin(finite))]
        raise NumericalError(
            f"non-finite {what} in trial {trial} of sweep point {base_id >> 32} (master seed {master_seed})"
        )


def _engine_pass(
    cfg: SystemConfig,
    alloc: PowerAllocation,
    scheme: str,
    attack: AttackScenario,
    master_seed: int,
    base_id: int,
    ids: range,
) -> tuple[np.ndarray, np.ndarray]:
    """run_trial's (lr, ur) law for a pass of trials, from sufficient statistics only.

    With c0 the reverse pilot rows and c1 the forward ones, nothing in a
    trial depends on the training lengths except through projections:
    the forward error at a receiver is (H N A c1^H + E1 c1^H) / sqrt(x),
    and the transmitter sees the reverse observation through its
    projection onto c0, onto the k rows the guessed pilots add, and
    through the Wishart Gram of the noise-only remainder.  Each trial
    draws those projections, which are i.i.d. Gaussian, from its own
    stream; the transmitter basis and both errors are then computed for
    the whole pass at once.
    """
    n_t, n_l, n_u = cfg.n_t, cfg.n_l, cfg.n_u
    k = min(n_l, cfg.t0 - n_l)  # reverse rows the guessed pilots add beyond c0
    rest = cfg.t0 - n_l - k  # noise-only reverse rows
    attacked = scheme != "wr_perfect_csi" and attack.mode != "none" and attack.p0_bar > 0
    guess = attacked and attack.mode == "guess"
    stream_ids = range(base_id + ids.start, base_id + ids.stop)

    # H, G, A c1^H, E1 c1^H, F1 c1^H, E0 c0^H; then, for the blind
    # transmitter only, E0 on the k added rows and the remainder's factor
    shapes = [(n_l, n_t), (n_u, n_t), (n_t - n_l, n_t), (n_l, n_t), (n_u, n_t), (n_t, n_l)]
    gamma_shapes = np.empty(0)
    if scheme == "wr":
        size, gamma_shapes = _wishart_draws(n_t, rest)
        shapes += [(n_t, k), (1, size)]
    (h, g, an, e1, f1, z1, *blind), rest_gamma = _draws(master_seed, stream_ids, _MAIN, shapes, gamma_shapes)
    h = math.sqrt(cfg.sigma_h_sq) * h
    g = math.sqrt(cfg.sigma_g_sq) * g

    # transmitter: reverse statistics per unit pilot energy a = p0 t0 / n_l
    if scheme == "wr_perfect_csi":
        tx = h.mT
    else:
        noise = math.sqrt(cfg.sigma0_sq * n_l / (alloc.p0 * cfg.t0))
        # the attack's part of the statistics on c0 and on the k added rows
        contamination = np.zeros((1, n_t, n_l + k))
        if attacked:
            # f0 on those rows; for a guess, the coordinates of the guessed
            # rows before orthonormalisation: on c0, then on the added rows
            shapes, gamma_shapes = [(n_t, n_l + k)], np.empty(0)
            if guess:
                size, gamma_shapes = _wishart_draws(n_l, cfg.t0 - n_l)
                shapes += [(n_l, n_l), (1, size)]
            (f0, *pilot), l2_gamma = _draws(master_seed, stream_ids, _ATTACK, shapes, gamma_shapes)
            if guess:
                # c0_bar = C^-1 [gamma1 c0 + l2 D] with C the Cholesky factor
                # of the Gram of [gamma1, l2], as orthonormal_rows builds it
                both = np.concatenate([pilot[0], _wishart_factor(pilot[1], l2_gamma, n_l, cfg.t0 - n_l)], axis=-1)
                coords = np.linalg.solve(np.linalg.cholesky(both @ both.conj().mT), both)
            else:
                coords = np.eye(n_l, n_l + k)  # a replay sends c0 itself
            contamination = math.sqrt(attack.p0_bar / alloc.p0) * g.mT @ coords + noise * f0
        tx = h.mT + noise * z1 + contamination[..., :n_l]
        if scheme == "wr":
            added = noise * blind[0] + contamination[..., n_l:]
            # the remainder carries E0 plus, under an attack, f0
            remainder = math.sqrt(2.0 if attacked else 1.0) * noise * _wishart_factor(blind[1], rest_gamma, n_t, rest)
            tx = np.concatenate([tx, added, remainder], axis=-1)
    _require_finite(tx, "reverse-phase statistic", master_seed, base_id, ids)
    if scheme == "wr":
        # bottom eigenvectors of the reverse autocorrelation: the complement
        # of blind_whitening_tx's top n_l, the span build_an_basis returns
        basis = np.linalg.eigh(tx @ tx.conj().mT)[1][..., : n_t - n_l].conj()
    else:
        basis = build_an_basis(tx)

    # forward phase: least-squares errors at both receivers
    x = alloc.p1 * cfg.t1 / n_t
    an = math.sqrt(alloc.sigma_a_sq) * (basis @ an)
    err_h = (h @ an + math.sqrt(cfg.sigma0_sq) * e1) / math.sqrt(x)
    err_g = (g @ an + math.sqrt(cfg.sigma0_sq) * f1) / math.sqrt(x)
    if scheme == "lmmse":
        alpha_h = shrinkage(cfg.sigma_h_sq, x, cfg.sigma0_sq)
        alpha_g = shrinkage(cfg.sigma_g_sq, x, cfg.sigma0_sq)
        err_h = alpha_h * err_h + (alpha_h - 1.0) * h
        err_g = alpha_g * err_g + (alpha_g - 1.0) * g
    nmse = np.stack([_sq_norm(err_h) / (n_l * n_t), _sq_norm(err_g) / (n_u * n_t)], axis=1)
    _require_finite(nmse, "NMSE", master_seed, base_id, ids)
    return nmse[:, 0], nmse[:, 1]


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
    parts = list((pool.map if pool else map)(_trial_chunk, jobs))
    lr_vals = np.concatenate([lr for lr, _ in parts])
    ur_vals = np.concatenate([ur for _, ur in parts])

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
