"""Training signal construction for both two-way schemes.

Reverse phase: the legitimate receiver sends orthogonal-row pilots, either
fixed/public (baseline scheme) or freshly drawn and private (semiblind
scheme).  Forward phase: the transmitter sends public orthogonal pilots
plus artificial noise confined to the null space of its uplink estimate.
The attacker's pilot injection signal mirrors the reverse pilot structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import SystemConfig
from .errors import DimensionError, NumericalError
from .linalg import complex_gaussian, orthonormal_rows

__all__ = [
    "ReverseSignal",
    "ForwardSignal",
    "build_reverse_signal",
    "build_an_basis",
    "build_forward_signal",
    "build_attack_signal",
]


@dataclass(frozen=True)
class ReverseSignal:
    """Reverse pilots s0 = sqrt(p0 t0 / n_l) c0 with orthonormal rows c0."""

    s0: np.ndarray
    c0: np.ndarray
    p0: float


@dataclass(frozen=True)
class ForwardSignal:
    """Forward signal s1 = s1_pilot + (artificial noise in the jamming basis).

    s1_pilot = sqrt(p1 t1 / n_t) c1, with orthonormal public rows c1, is
    the part of s1 the receivers know.
    """

    s1: np.ndarray
    s1_pilot: np.ndarray
    p1: float


def build_reverse_signal(
    cfg: SystemConfig,
    p0: float,
    mode: str = "random",
    rng: np.random.Generator | None = None,
) -> ReverseSignal:
    """Reverse training signal at power p0.

    mode="fixed" uses public DFT-row pilots (deterministic, anyone can
    reproduce them); mode="random" draws fresh orthonormal rows known only
    to the legitimate receiver.
    """
    if p0 <= 0:
        raise ValueError("p0 must be > 0")
    c0 = orthonormal_rows(cfg.n_l, cfg.t0, mode=mode, rng=rng)
    s0 = np.sqrt(p0 * cfg.t0 / cfg.n_l) * c0
    return ReverseSignal(s0=s0, c0=c0, p0=p0)


def build_an_basis(uplink_estimate: np.ndarray) -> np.ndarray:
    """Artificial-noise basis hidden from the legitimate receiver.

    Given an n_t x n_l uplink estimate (of H^T or of its whitening factor),
    returns an n_t x (n_t - n_l) matrix N with orthonormal columns and
    N^T @ uplink_estimate = 0; a stack of estimates gives the stack of
    bases.  The orthogonality is bilinear, not Hermitian: the downlink
    product H @ N = (N^T H^T)^T then vanishes for an exact estimate,
    which is what makes the jamming invisible at the legitimate
    receiver.  Construction: the last n_t - n_l columns of the
    complete QR factor Q of the estimate span its Hermitian orthogonal
    complement; conjugating them turns that into the bilinear one.
    """
    est = np.asarray(uplink_estimate, dtype=complex)
    n_t, n_l = est.shape[-2:]
    if n_t <= n_l:
        raise DimensionError(f"no null space: estimate is {n_t}x{n_l}")
    if not np.all(np.isfinite(est)):
        raise NumericalError(f"uplink estimate of shape {est.shape} contains non-finite entries")
    q, _ = np.linalg.qr(est, mode="complete")
    return q[..., n_l:].conj()


def build_forward_signal(
    cfg: SystemConfig,
    an_basis: np.ndarray,
    p1: float,
    sigma_a_sq: float,
    rng: np.random.Generator,
) -> ForwardSignal:
    """Forward pilots plus artificial noise in the given basis.

    Expected transmit power per symbol is p1 + (n_t - n_l) sigma_a_sq.
    """
    if p1 <= 0:
        raise ValueError("p1 must be > 0")
    if sigma_a_sq < 0:
        raise ValueError("sigma_a_sq must be >= 0")
    c1 = orthonormal_rows(cfg.n_t, cfg.t1, mode="fixed")
    s1_pilot = np.sqrt(p1 * cfg.t1 / cfg.n_t) * c1
    an = complex_gaussian(rng, cfg.n_t - cfg.n_l, cfg.t1, sigma_a_sq)
    return ForwardSignal(s1=s1_pilot + an_basis @ an, s1_pilot=s1_pilot, p1=p1)


def build_attack_signal(
    cfg: SystemConfig,
    p0_bar: float,
    strategy: str = "guess",
    rng: np.random.Generator | None = None,
    legit_c0: np.ndarray | None = None,
) -> np.ndarray:
    """Contaminating reverse pilots s0_bar = sqrt(p0_bar t0 / n_l) c0_bar.

    strategy="known_pilot" replays the legitimate pilot matrix c0 (possible
    only when pilots are public); strategy="guess" draws independent
    orthonormal rows c0_bar.  p0_bar = 0 yields a silent attacker.
    """
    if p0_bar < 0:
        raise ValueError("p0_bar must be >= 0")
    if strategy == "known_pilot":
        if legit_c0 is None:
            raise ValueError("known_pilot strategy requires the legitimate pilot matrix")
        c0_bar = legit_c0
    elif strategy == "guess":
        c0_bar = orthonormal_rows(cfg.n_l, cfg.t0, mode="random", rng=rng)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return np.sqrt(p0_bar * cfg.t0 / cfg.n_l) * c0_bar
