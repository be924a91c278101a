"""Correctness checks on sweep rows, from expectations computed here.

Nothing in this module calls dce's closed forms or reads stored output:
the expectations below follow from the estimators' algebra.  With the
forward pilots orthogonal, both receivers' estimates are (scaled) pilot
correlations, so

* the wiretap least-squares error per entry is exactly the allocator's
  active constraint gamma, for ``wr`` and ``wr_perfect_csi``;
* the ``lmmse`` wiretap estimate shrinks that by
  alpha = sigma_g^2 x / (sigma_g^2 x + sigma0^2), x = p1 t1 / n_t, giving
  (1 - alpha)^2 sigma_g^2 + alpha^2 gamma;
* with exact nulling only forward noise reaches the legitimate receiver:
  n_t sigma0^2 / (p1 t1) for ``wr_perfect_csi``.

``run_experiment`` returns means only, so a row's standard error comes
from the per-entry Gaussian error model: a mean NMSE m over `entries`
i.i.d. complex Gaussian errors has per-trial spread m / sqrt(entries).
The spread factors widen that for the rows where the error is low-rank
(artificial noise at the wiretap receiver, contamination at the
legitimate one).  Measured with ``run_trial`` at 1500 to 2000 trials per
point on every fig3a, fig3c, fig4a and t = 1120 point, the per-trial
spread over the i.i.d. value was at most 1.05 for clean LR rows and 2.4
for the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

K_SE = 5.0
SPREAD_CLEAN_LR = 1.25
SPREAD_OTHER = 2.5
# "Rises well above": the replayed-pilot attack against lmmse is 9x to
# 260x its clean value at 15 to 30 dB.
REPLAY_RISE = 4.0
REPLAY_MIN_SNR_DB = 15.0
# The one check that fails on purpose: the shipped attack closed form
# misses the wr + guess Monte Carlo (see CHANGES.md).
KNOWN_FAULT = "lr_closed_form"


def sigma0_sq_of(snr_db: float) -> float:
    return 10.0 ** (-snr_db / 10.0)


def standard_error(mean: float, entries: int, trials: int, spread: float) -> float:
    return spread * mean / math.sqrt(entries * trials)


def lr_perfect_csi(n_t: int, sigma0_sq: float, p1: float, t1: int) -> float:
    return n_t * sigma0_sq / (p1 * t1)


def ur_lmmse(n_t: int, sigma0_sq: float, sigma_g_sq: float, gamma: float, p1: float, t1: int) -> float:
    x = p1 * t1 / n_t
    alpha = sigma_g_sq * x / (sigma_g_sq * x + sigma0_sq)
    return (1.0 - alpha) ** 2 * sigma_g_sq + alpha**2 * gamma


def within_budget(n_t: int, n_l: int, p_ave: float, p1: float, sigma_a_sq: float, p0: float) -> bool:
    slack = 1.0 + 1e-9
    return (
        p1 > 0
        and sigma_a_sq >= 0
        and 0 < p0 <= p_ave * slack
        and p1 + (n_t - n_l) * sigma_a_sq <= p_ave * slack
    )


@dataclass(frozen=True)
class Point:
    """One row with the operating point the benchmark derived for it."""

    spec: object  # dce ExperimentSpec
    row: object  # dce ResultRow
    sigma0_sq: float
    t1: int
    snr_db: float


def operating_point(spec, sweep_value: float) -> tuple[float, int, float]:
    """(sigma0^2, t1, SNR in dB) at one sweep value of an SNR or t1 sweep."""
    if spec.t1_grid:
        snr_db = spec.snr_db_grid[0]
        return sigma0_sq_of(snr_db), int(sweep_value), snr_db
    return sigma0_sq_of(sweep_value), spec.cfg.t1, sweep_value


def point_of(spec, row) -> Point:
    return Point(spec, row, *operating_point(spec, row.sweep_value))


def _se(pt: Point, value: float, receiver: str) -> float:
    cfg = pt.spec.cfg
    entries = cfg.n_t * (cfg.n_l if receiver == "lr" else cfg.n_u)
    clean_lr = receiver == "lr" and pt.spec.attack.mode == "none"
    return standard_error(value, entries, pt.row.trials, SPREAD_CLEAN_LR if clean_lr else SPREAD_OTHER)


def check_point(pt: Point, clean_twin: Point | None, csi_twin: Point | None) -> list[str]:
    """Names of the checks this row fails.

    clean_twin is the same scheme's unattacked row at this sweep point and
    csi_twin the paired ``wr_perfect_csi`` row; both come from the same
    master seed, so their trials share every common draw.
    """
    spec, row, cfg = pt.spec, pt.row, pt.spec.cfg
    values = (row.p1, row.sigma_a_sq, row.p0, row.nmse_lr_emp, row.nmse_ur_emp)
    if row.trials != spec.trials or any(v is None or not math.isfinite(v) for v in values):
        return ["complete_row"]
    lr, ur = row.nmse_lr_emp, row.nmse_ur_emp
    if lr <= 0 or ur <= 0:
        return ["complete_row"]
    se_lr, se_ur = _se(pt, lr, "lr"), _se(pt, ur, "ur")
    failed = []
    if not within_budget(cfg.n_t, cfg.n_l, cfg.p_ave, row.p1, row.sigma_a_sq, row.p0):
        failed.append("power_budget")
    if row.nmse_lr_cf is not None and abs(lr - row.nmse_lr_cf) > K_SE * se_lr:
        failed.append(KNOWN_FAULT)
    if spec.attack.mode == "none":
        if spec.scheme == "lmmse":
            want = ur_lmmse(cfg.n_t, pt.sigma0_sq, cfg.sigma_g_sq, spec.gamma, row.p1, pt.t1)
        else:
            want = spec.gamma
        if abs(ur - want) > K_SE * se_ur:
            failed.append("ur_expectation")
        if spec.scheme == "wr_perfect_csi":
            if abs(lr - lr_perfect_csi(cfg.n_t, pt.sigma0_sq, row.p1, pt.t1)) > K_SE * se_lr:
                failed.append("lr_perfect_csi")
        if spec.scheme == "wr" and csi_twin is not None:
            if lr < csi_twin.row.nmse_lr_emp - K_SE * se_lr:
                failed.append("wr_below_perfect_csi")
    elif clean_twin is not None:
        clean_lr = clean_twin.row.nmse_lr_emp
        if lr < clean_lr - K_SE * se_lr:
            failed.append("attack_below_clean")
        if (
            spec.attack.mode == "known_pilot"
            and pt.snr_db >= REPLAY_MIN_SNR_DB
            and lr < REPLAY_RISE * clean_lr
        ):
            failed.append("replay_rise")
    return failed


def check_sweep(specs, rows_by_spec) -> list[tuple[Point, list[str]]]:
    """Check every row of one sweep; returns (point, failed checks) per row."""
    points = [[point_of(s, r) for r in rows] for s, rows in zip(specs, rows_by_spec)]

    def twin(spec, index, scheme, attacked):
        for s, pts in zip(specs, points):
            if s.scheme == scheme and (s.attack.mode != "none") == attacked and len(pts) > index:
                return pts[index]
        return None

    out = []
    for spec, pts in zip(specs, points):
        for i, pt in enumerate(pts):
            clean = twin(spec, i, spec.scheme, False) if spec.attack.mode != "none" else None
            csi = twin(spec, i, "wr_perfect_csi", False)
            out.append((pt, check_point(pt, clean, csi)))
    return out


def is_known_fault(pt: Point, failed: list[str]) -> bool:
    """The documented fault: only the LR closed form misses, on a guess-attack row."""
    return failed == [KNOWN_FAULT] and pt.spec.attack.mode == "guess"
