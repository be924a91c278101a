"""System configuration and channel sampling.

Conventions: the downlink legitimate channel has shape (n_l, n_t) and the
downlink wiretap channel (n_u, n_t).  Uplink channels are the plain
transposes (TDD reciprocity), never an independent draw.  The exact
uplink channel H^T is what the perfect-CSI transmitter builds its
jamming basis from; the whitening-rotation split lives in estimators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .linalg import complex_gaussian

__all__ = [
    "SystemConfig",
    "ChannelRealization",
    "sample_channels",
]


@dataclass(frozen=True)
class SystemConfig:
    """Scenario parameters: antenna counts, training lengths, statistics, budget.

    n_t, n_l, n_u: transmitter / legitimate receiver / eavesdropper antennas.
    t0, t1: reverse and forward training lengths in symbols.
    sigma_h_sq, sigma_g_sq: per-entry channel variances.
    sigma0_sq: receiver noise variance, p_ave: per-phase power budget,
    gamma: lower bound enforced on the eavesdropper's estimation NMSE.
    """

    n_t: int = 4
    n_l: int = 2
    n_u: int = 2
    t0: int = 140
    t1: int = 140
    sigma_h_sq: float = 1.0
    sigma_g_sq: float = 1.0
    sigma0_sq: float = 0.01
    p_ave: float = 1.0
    gamma: float = 0.03

    def __post_init__(self) -> None:
        if self.n_t <= self.n_l:
            raise DimensionError(
                f"need n_t > n_l for a nonempty null space, got n_t={self.n_t}, n_l={self.n_l}"
            )
        if self.t0 < self.n_l:
            raise DimensionError(f"t0={self.t0} < n_l={self.n_l}: reverse pilots cannot be orthogonal")
        if self.t1 < self.n_t:
            raise DimensionError(f"t1={self.t1} < n_t={self.n_t}: forward pilots cannot be orthogonal")
        for name in ("sigma_h_sq", "sigma_g_sq", "sigma0_sq"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.p_ave <= 0:
            raise ValueError("p_ave must be > 0")
        if self.gamma <= 0:
            raise ValueError("gamma must be > 0")


@dataclass(frozen=True)
class ChannelRealization:
    """One block-fading draw: downlink h (n_l, n_t) and wiretap g (n_u, n_t)."""

    h: np.ndarray
    g: np.ndarray


def sample_channels(cfg: SystemConfig, rng: np.random.Generator) -> ChannelRealization:
    """Draw one independent Rayleigh flat-fading realization of both channels."""
    h = complex_gaussian(rng, cfg.n_l, cfg.n_t, cfg.sigma_h_sq)
    g = complex_gaussian(rng, cfg.n_u, cfg.n_t, cfg.sigma_g_sq)
    return ChannelRealization(h=h, g=g)
