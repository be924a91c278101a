"""Empirical NMSE, closed-form NMSE predictors, and SNR bookkeeping.

Every closed form is one functional of a leak factor kappa, the jamming
power per unit sigma_a^2 that reaches a receiver through the TX's basis:
NMSE = (1/x) [sigma0^2 + sigma_a^2 kappa], x = p1 t1 / n_t.  The public
forms are kappa models over it, and broadcast over p1 and sigma_a_sq:
* UR (kappa_G): exact.
* Clean LR (kappa_H): first order in the reverse error, so least accurate
  at low SNR; exact at t0 = n_l, where the blind basis is the LMMSE TX's.
* Attacked LR: known wrong; under the guessed-pilot attack it misses the
  Monte Carlo by 1.26x to 25x and it diverges as p0_bar -> 0.
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

_Grid = float | np.ndarray  # a scalar in gives a float out


def empirical_nmse(estimate: np.ndarray, truth: np.ndarray) -> float:
    """Squared Frobenius error normalized by the number of entries."""
    if estimate.shape != truth.shape:
        raise DimensionError(f"shape mismatch: {estimate.shape} vs {truth.shape}")
    diff = estimate - truth
    return float(np.real(np.vdot(diff, diff))) / diff.size


def _nmse(cfg: SystemConfig, p1: _Grid, sigma_a_sq: _Grid, kappa: float) -> _Grid:
    """(1/x) [sigma0^2 + sigma_a^2 kappa], x = p1 t1 / n_t: the one NMSE formula."""
    if np.any(p1 <= 0):
        raise ValueError("powers must be > 0")
    return cfg.n_t * (cfg.sigma0_sq + sigma_a_sq * kappa) / (p1 * cfg.t1)


def _kappa_h(cfg: SystemConfig, p0: float) -> float:
    if p0 <= 0:
        raise ValueError("powers must be > 0")
    c_sq = cfg.sigma0_sq * cfg.n_l / (p0 * cfg.t0)
    # a noise-free reverse phase (c^2 = 0) leaves nothing to shrink
    shrink = cfg.sigma_h_sq / (cfg.sigma_h_sq + c_sq) if cfg.t0 == cfg.n_l and c_sq > 0 else 1.0
    return (cfg.n_t - cfg.n_l) * c_sq * shrink


def nmse_lr_closed(cfg: SystemConfig, p0: float, p1: _Grid, sigma_a_sq: _Grid) -> _Grid:
    """Predicted NMSE at the legitimate receiver, semiblind scheme, no attack.

    kappa_H = (n_t - n_l) c^2: artificial noise escaping through the
    imperfect reverse estimate, c^2 = sigma0^2 n_l / (p0 t0) per unit
    pilot energy, shrunk by sigma_h^2 / (sigma_h^2 + c^2) at t0 = n_l.
    """
    return _nmse(cfg, p1, sigma_a_sq, _kappa_h(cfg, p0))


def nmse_ur_closed(cfg: SystemConfig, p1: _Grid, sigma_a_sq: _Grid) -> _Grid:
    """Predicted NMSE at the unauthorized receiver.

    kappa_G = (n_t - n_l) sigma_g^2: the full-strength artificial-noise
    hit, since the jamming basis is not aligned with the eavesdropper's
    channel.
    """
    return _nmse(cfg, p1, sigma_a_sq, (cfg.n_t - cfg.n_l) * cfg.sigma_g_sq)


def nmse_lr_attack_closed(cfg: SystemConfig, p0: float, p0_bar: float, p1: _Grid, sigma_a_sq: _Grid) -> _Grid:
    """Predicted NMSE at the legitimate receiver under pilot contamination.

    kappa_H plus n_l (n_t - n_l) [sigma0^2 / (p0_bar t0) + n_u sigma_g^2 / (n_t p0 t0)],
    the first-order effect of the injected pilots on the reverse estimate.
    It keeps cross-correlation terms only: the contamination's own
    autocorrelation, which dominates at attack power near the pilot's, is
    outside the model.
    """
    if p0_bar <= 0:
        raise ValueError("powers must be > 0")
    kappa = _kappa_h(cfg, p0)
    cross = cfg.n_l * (cfg.n_t - cfg.n_l) * (
        cfg.sigma0_sq / (p0_bar * cfg.t0) + cfg.n_u * cfg.sigma_g_sq / (cfg.n_t * p0 * cfg.t0)
    )
    return _nmse(cfg, p1, sigma_a_sq, kappa + cross)


def snr_to_sigma0_sq(snr_db: float) -> float:
    """Noise variance for a target SNR in dB under a unit power budget."""
    return 10.0 ** (-snr_db / 10.0)
