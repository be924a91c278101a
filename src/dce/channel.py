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
    Counts and lengths must be ints >= 1 and the other fields ints or
    floats (not bools); NaN is rejected, infinity is not.
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
        for name in ("n_t", "n_l", "n_u", "t0", "t1"):
            if type(getattr(self, name)) is not int or getattr(self, name) < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {getattr(self, name)!r}")
        if self.n_t <= self.n_l:
            raise DimensionError(
                f"need n_t > n_l for a nonempty null space, got n_t={self.n_t}, n_l={self.n_l}"
            )
        if self.t0 < self.n_l:
            raise DimensionError(f"t0={self.t0} < n_l={self.n_l}: reverse pilots cannot be orthogonal")
        if self.t1 < self.n_t:
            raise DimensionError(f"t1={self.t1} < n_t={self.n_t}: forward pilots cannot be orthogonal")
        for name in ("sigma_h_sq", "sigma_g_sq", "sigma0_sq", "p_ave", "gamma"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"{name} must be a number, got {value!r}")
        for name in ("sigma_h_sq", "sigma_g_sq", "sigma0_sq"):
            if not getattr(self, name) >= 0:  # NaN fails every comparison
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        if not self.p_ave > 0:
            raise ValueError(f"p_ave must be > 0, got {self.p_ave!r}")
        if not self.gamma > 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma!r}")


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
