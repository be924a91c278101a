"""Channel estimators for both schemes.

Baseline scheme: linear MMSE from known pilots, at the transmitter
(reverse phase) and at both receivers (forward phase).

Semiblind scheme: the transmitter recovers only the whitening factor of
the uplink channel from the received autocorrelation (no pilot knowledge
needed), while each receiver splits its channel into a whitening factor
estimated from the pilot correlation and a unitary rotation solved in
closed form as an orthogonal Procrustes problem.

Both schemes rest on one identity.  build_reverse_signal and
build_forward_signal send orthonormal-row pilots scaled by sqrt(energy),
so S S^H = energy I.  Then the whitening-rotation estimate reduces
exactly to the least-squares pilot correlation obs S^H / energy, and the
LMMSE estimate is that correlation times a scalar shrinkage.  The Monte
Carlo trial computes pilot_correlation and shrinkage directly;
wr_estimate_lr / wr_estimate_ur keep the factorisation as the readable
reference the tests compare it against.  They call np.linalg.svd as it
comes: a phase on a singular pair cancels in U V^H and in the
whitening-rotation product, so no phase convention is needed.

Every estimator returns the estimate as a plain array; the
whitening-rotation reference returns (estimate, whitening, rotation).
Orientation conventions: x0 is the (n_t, t0) reverse-phase observation,
x1 / y1 are (rx, t1) forward-phase observations.  Uplink estimates are
(n_t, n_l) matrices approximating H^T so the null-space construction in
the training module applies directly; downlink estimates match the
(rx, n_t) downlink channel itself.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NumericalError

__all__ = [
    "blind_whitening_tx",
    "procrustes_rotation",
    "wr_estimate_lr",
    "wr_estimate_ur",
]


def pilot_correlation(obs: np.ndarray, pilots: np.ndarray, energy: float) -> np.ndarray:
    """Least-squares channel estimate obs @ pilots^H / energy.

    Requires pilots @ pilots^H = energy I, the orthonormal-row pilots the
    training module builds (energy p0 t0 / n_l for the reverse pilots,
    p1 t1 / n_t for the forward pilot part).  A forward observation gives
    an (rx, n_t) downlink estimate, a reverse one an (n_t, n_l) estimate
    of H^T.
    """
    return obs @ pilots.conj().T / energy


def shrinkage(sigma_ch_sq: float, energy: float, sigma0_sq: float) -> float:
    """LMMSE factor alpha = sigma^2 energy / (sigma^2 energy + sigma0^2).

    Under S S^H = energy I the textbook estimate
    [sigma^2 (sigma^2 S S^H + sigma0^2 I)^-1 S obs^H]^H is the pilot
    correlation times alpha; a zero denominator means nothing to
    estimate, and alpha is 0.  A receiver knows only the pilot part of
    the forward signal, so it counts the artificial-noise residue as
    noise and regularises with sigma0^2 alone.
    """
    signal = sigma_ch_sq * energy
    total = signal + sigma0_sq
    return signal / total if total > 0 else 0.0


def blind_whitening_tx(x0: np.ndarray, p0: float, t0: int, n_l: int) -> np.ndarray:
    """Blind whitening-factor estimate from the reverse-phase autocorrelation.

    Forms the Hermitian R = X0 X0^H / ((p0 / n_l) t0), whose expectation
    is H^T H^* plus an isotropic noise floor, and keeps its top-n_l
    eigenvectors, in descending order, scaled by the square root of their
    eigenvalues.  Only the column space of the result is consumed
    downstream, so the overall scale is immaterial.
    """
    t0_obs = x0.shape[1]
    if t0_obs < n_l:
        raise DimensionError(f"t0={t0_obs} observations cannot resolve rank {n_l}")
    r = x0 @ x0.conj().T / ((p0 / n_l) * t0)
    vals, vecs = np.linalg.eigh(r)  # ascending order
    vals, vecs = vals[::-1][:n_l], vecs[:, ::-1][:, :n_l]
    return vecs * np.sqrt(np.maximum(vals, 0.0))


def procrustes_rotation(cross: np.ndarray, order: str = "uv") -> np.ndarray:
    """Closed-form unitary solution of the orthogonal Procrustes problem.

    Returns U V^H (order="uv") or V U^H (order="vu") from the SVD of the
    cross-correlation matrix: the unitary factor closest in Frobenius norm
    to the alignment the cross-correlation encodes.  Zero singular
    directions contribute an arbitrary block, which downstream products
    multiply by vanishing singular values.
    """
    u, _, vh = np.linalg.svd(cross)
    uvh = u @ vh
    if order == "uv":
        return uvh
    if order == "vu":
        return uvh.conj().T
    raise ValueError(f"unknown order {order!r}, expected 'uv' or 'vu'")


def wr_estimate_lr(
    x1: np.ndarray,
    s1_pilot: np.ndarray,
    p1: float,
    t1: int,
    n_t: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Semiblind whitening-rotation estimate at the legitimate receiver.

    Steps: (i) pilot correlation X_W = X1 S1p^H / ((p1/n_t) t1);
    (ii) whitening factor W1 = V^* Sigma^T from its SVD; (iii) rotation
    cross-correlation X_Q = X1^* S1p^T W1 / ((p1/n_t) t1); (iv) unitary
    rotation Q1 as the Procrustes factor of X_Q; (v) channel estimate
    Q1^* W1^T.  Under orthonormal forward pilots the result equals X_W
    itself, which is what the Monte Carlo trial computes.

    Returns (estimate, whitening, rotation): the (n_l, n_t) estimate
    Q1^* W1^T, the (n_t, n_l) whitening factor W1 and the (n_l, n_l)
    unitary rotation Q1.
    """
    scale = (p1 / n_t) * t1
    xw = pilot_correlation(x1, s1_pilot, scale)
    if not np.any(np.abs(xw) > 0):
        raise NumericalError("degenerate pilot correlation: received signal uncorrelated with pilots")
    _, sigma, vh = np.linalg.svd(xw, full_matrices=False)
    w1 = vh.T * sigma
    xq = x1.conj() @ s1_pilot.T @ w1 / scale
    q1 = procrustes_rotation(xq, order="uv")
    h1 = q1.conj() @ w1.T
    return h1, w1, q1


def wr_estimate_ur(
    y1: np.ndarray,
    s1_pilot: np.ndarray,
    p1: float,
    t1: int,
    n_t: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Semiblind whitening-rotation estimate at the unauthorized receiver.

    Steps: (i) pilot correlation Y_M; (ii) whitening factor M = U Sigma
    from its SVD; (iii) rotation cross-correlation Y_R = M^H Y1 S1p^H /
    ((p1/n_t) t1); (iv) rotation R as the reversed Procrustes factor;
    (v) channel estimate M R^H.  Under orthonormal forward pilots the
    result equals Y_M itself, which is what the Monte Carlo trial computes.

    Returns (estimate, whitening, rotation): the (n_u, n_t) estimate
    M R^H, the (n_u, n_t) whitening factor M and the (n_t, n_t) unitary
    rotation R.
    """
    scale = (p1 / n_t) * t1
    ym = pilot_correlation(y1, s1_pilot, scale)
    if not np.any(np.abs(ym) > 0):
        raise NumericalError("degenerate pilot correlation: received signal uncorrelated with pilots")
    u, sigma, _ = np.linalg.svd(ym, full_matrices=False)
    m_hat = np.zeros((y1.shape[0], n_t), dtype=complex)
    m_hat[:, : sigma.size] = u * sigma
    yr = m_hat.conj().T @ y1 @ s1_pilot.conj().T / scale
    r_hat = procrustes_rotation(yr, order="vu")
    g_hat = m_hat @ r_hat.conj().T
    return g_hat, m_hat, r_hat
