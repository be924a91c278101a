"""Empirical NMSE, closed-form NMSE predictors, and SNR bookkeeping.

The closed forms are first-order perturbation results: accurate for the
clean semiblind scheme at moderate-to-high SNR, and increasingly
optimistic for the attacked scheme as the attack power grows (the
prediction keeps only pilot/noise cross-correlation terms; see the
simulation results for the empirical behaviour).  The clean LR form is
exact at t0 = n_l: with no reverse rows beyond the pilot's, the blind
transmitter's jamming basis is the LMMSE transmitter's, and the reverse
error per unit pilot energy c^2 = sigma0^2 n_l / (p0 t0) shrinks to
sigma_h^2 c^2 / (sigma_h^2 + c^2).
"""

from __future__ import annotations

import numpy as np

from .channel import SystemConfig
from .errors import DimensionError

__all__ = [
    "empirical_nmse",
    "nmse_lr_closed",
    "nmse_ur_closed",
    "nmse_lr_attack_closed",
    "snr_to_sigma0_sq",
]


def empirical_nmse(estimate: np.ndarray, truth: np.ndarray) -> float:
    """Squared Frobenius error normalized by the number of entries."""
    if estimate.shape != truth.shape:
        raise DimensionError(f"shape mismatch: {estimate.shape} vs {truth.shape}")
    diff = estimate - truth
    return float(np.real(np.vdot(diff, diff))) / diff.size


def nmse_lr_closed(cfg: SystemConfig, p0: float, p1: float, sigma_a_sq: float) -> float:
    """Predicted NMSE at the legitimate receiver, semiblind scheme, no attack.

    n_t sigma0^2 / (p1 t1) from forward noise, times (1 + leakage factor)
    where the leakage factor n_l (n_t - n_l) sigma_a^2 / (p0 t0) accounts
    for artificial noise escaping through the imperfect reverse estimate.
    At t0 = n_l the factor takes the exact shrinkage
    sigma_h^2 / (sigma_h^2 + c^2), c^2 = sigma0^2 n_l / (p0 t0).
    """
    if p0 <= 0 or p1 <= 0:
        raise ValueError("powers must be > 0")
    base = cfg.n_t * cfg.sigma0_sq / (p1 * cfg.t1)
    leak = cfg.n_l * (cfg.n_t - cfg.n_l) * sigma_a_sq / (p0 * cfg.t0)
    if cfg.t0 == cfg.n_l and cfg.sigma0_sq > 0:  # a noise-free reverse phase leaves nothing to shrink
        c_sq = cfg.sigma0_sq * cfg.n_l / (p0 * cfg.t0)
        leak *= cfg.sigma_h_sq / (cfg.sigma_h_sq + c_sq)
    return base + leak * base


def nmse_ur_closed(cfg: SystemConfig, p1: float, sigma_a_sq: float) -> float:
    """Predicted NMSE at the unauthorized receiver.

    [n_t sigma0^2 + n_t (n_t - n_l) sigma_a^2 sigma_g^2] / (p1 t1): noise
    floor plus the full-strength artificial-noise hit, since the jamming
    basis is not aligned with the eavesdropper's channel.
    """
    if p1 <= 0:
        raise ValueError("p1 must be > 0")
    return (
        cfg.n_t * cfg.sigma0_sq
        + cfg.n_t * (cfg.n_t - cfg.n_l) * sigma_a_sq * cfg.sigma_g_sq
    ) / (p1 * cfg.t1)


def nmse_lr_attack_closed(
    cfg: SystemConfig,
    p0: float,
    p0_bar: float,
    p1: float,
    sigma_a_sq: float,
) -> float:
    """Predicted NMSE at the legitimate receiver under pilot contamination.

    Adds to the clean prediction a third term
    [n_l (n_t - n_l) sigma_a^2 / (p1 t1)] *
    [n_t sigma0^2 / (p0_bar t0) + n_u sigma_g^2 / (p0 t0)],
    the first-order effect of the injected pilots on the reverse estimate.
    This keeps cross-correlation terms only; the contamination's own
    autocorrelation, which dominates at contamination power comparable to
    the pilot power, is outside the model.
    """
    if p0 <= 0 or p1 <= 0 or p0_bar <= 0:
        raise ValueError("powers must be > 0")
    clean = nmse_lr_closed(cfg, p0, p1, sigma_a_sq)
    attack = (cfg.n_l * (cfg.n_t - cfg.n_l) * sigma_a_sq / (p1 * cfg.t1)) * (
        cfg.n_t * cfg.sigma0_sq / (p0_bar * cfg.t0)
        + cfg.n_u * cfg.sigma_g_sq / (p0 * cfg.t0)
    )
    return clean + attack


def snr_to_sigma0_sq(snr_db: float) -> float:
    """Noise variance for a target SNR in dB under a unit power budget."""
    return 10.0 ** (-snr_db / 10.0)
