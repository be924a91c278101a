"""Pilot-contamination attack on the reverse training phase.

The eavesdropper transmits its own pilot matrix concurrently with the
legitimate reverse training, so the transmitter receives the legitimate
pilots through H^T plus the contamination through G^T plus two
independent noise processes (the attacked observation carries both the
original receiver noise and a second front-end noise term).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import SystemConfig
from .errors import DimensionError
from .linalg import complex_gaussian
from .training import build_attack_signal

__all__ = ["AttackScenario", "contaminate_reverse"]

MODES = ("none", "known_pilot", "guess")


@dataclass(frozen=True)
class AttackScenario:
    """Attack mode and injection power.

    mode="known_pilot" replays the public pilots (meaningful only against
    the fixed-pilot baseline scheme); mode="guess" injects independently
    drawn orthonormal pilots; mode="none" is the passive eavesdropper.
    """

    mode: str = "none"
    p0_bar: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown attack mode {self.mode!r}, expected one of {MODES}")
        if self.p0_bar < 0:
            raise ValueError("p0_bar must be >= 0")


def contaminate_reverse(
    x0_clean: np.ndarray,
    g: np.ndarray,
    scenario: AttackScenario,
    cfg: SystemConfig,
    rng: np.random.Generator,
    legit_c0: np.ndarray | None = None,
) -> np.ndarray:
    """Reverse-phase observation at the transmitter, optionally contaminated.

    x0_clean is the attack-free observation H^T S0 + E0.  For an active
    scenario the injected component G^T S0_bar plus a fresh noise draw is
    added on top.  Injection requires n_u == n_l antennas at the attacker
    so its pilot matrix can mirror the legitimate one.  A silent attacker
    (p0_bar = 0) transmits nothing, so it adds no front-end noise either:
    the clean observation comes back and nothing is drawn.
    """
    if scenario.mode == "none":
        return x0_clean
    if cfg.n_u != cfg.n_l:
        raise DimensionError(
            f"pilot injection needs n_u == n_l to mirror the pilot shape, got n_u={cfg.n_u}, n_l={cfg.n_l}"
        )
    if scenario.p0_bar == 0:
        return x0_clean
    s0_bar = build_attack_signal(
        cfg,
        scenario.p0_bar,
        strategy=scenario.mode,
        rng=rng,
        legit_c0=legit_c0,
    )
    f0 = complex_gaussian(rng, cfg.n_t, cfg.t0, cfg.sigma0_sq)
    return x0_clean + g.T @ s0_bar + f0
