"""Dense complex linear algebra kernel and seeded randomness.

Every draw in the pipeline comes from the stream-based RNG defined here,
so the same seeds give bit-identical results.  The phase-fixed SVD backs
the whitening-rotation reference (channel.wr_decompose, the Procrustes
rotation, the WR estimators); it is not on the Monte Carlo trial path,
which needs only pilot correlations, one eigh and one QR.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionError, NumericalError

__all__ = [
    "SvdResult",
    "RngStream",
    "svd",
    "complex_gaussian",
    "orthonormal_rows",
]


@dataclass(frozen=True)
class SvdResult:
    """Full SVD a = u @ diag(sigma) @ vh with a fixed phase convention.

    u is m x m unitary, vh is n x n unitary (rows are the conjugated right
    singular vectors), sigma holds the min(m, n) singular values in
    descending order.
    """

    u: np.ndarray
    sigma: np.ndarray
    vh: np.ndarray

    @property
    def v(self) -> np.ndarray:
        return self.vh.conj().T

    def reconstruct(self) -> np.ndarray:
        m, n = self.u.shape[0], self.vh.shape[0]
        full = np.zeros((m, n), dtype=complex)
        k = self.sigma.size
        full[:k, :k] = np.diag(self.sigma)
        return self.u @ full @ self.vh


@dataclass(frozen=True)
class RngStream:
    """Named, reproducible random stream.

    Identical (master_seed, stream_id) pairs always yield identical draw
    sequences; distinct stream ids give statistically independent ones.
    Streams are cheap value objects: materialize a generator right before
    drawing, and never share one generator across concurrent tasks.
    """

    master_seed: int
    stream_id: int = 0

    def substream(self, *path: int) -> np.random.Generator:
        """Generator for a child stream, e.g. one per drawn quantity.

        With no path it is the generator of the stream itself.
        """
        seq = np.random.SeedSequence((self.master_seed, self.stream_id) + path)
        return np.random.Generator(np.random.PCG64(seq))


def _fix_svd_phases(u: np.ndarray, vh: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    # Rotate each column of u so its first non-negligible entry is real and
    # non-negative; compensate in the matching row of vh so the product is
    # unchanged.  Columns of u beyond the k paired triplets have no vh row,
    # so the rotation there is unconstrained and applied to u alone.
    absu = np.abs(u)
    mask = absu > 1e-12
    first = mask.argmax(axis=0)
    missing = ~mask.any(axis=0)
    if missing.any():  # unit columns always clear the threshold; belt and braces
        first[missing] = absu[:, missing].argmax(axis=0)
    lead = u[first, np.arange(u.shape[1])]
    mag = np.abs(lead)
    phase = np.where(mag > 0, lead, 1.0) / np.where(mag > 0, mag, 1.0)
    u = u * phase.conj()
    vh = vh.copy()
    vh[:k, :] *= phase[:k, None]
    return u, vh


@lru_cache(maxsize=64)
def _dft_rows(n_rows: int, n_cols: int) -> np.ndarray:
    cols = np.arange(n_cols)
    rows = np.arange(n_rows)[:, None]
    out = np.exp(-2j * np.pi * rows * cols / n_cols) / np.sqrt(n_cols)
    out.flags.writeable = False
    return out


def svd(a: np.ndarray) -> SvdResult:
    """Full SVD with a deterministic sign/phase convention.

    The first non-negligible entry of every column of u is made real and
    non-negative by a phase rotation absorbed into the corresponding row
    of vh, so repeated calls on the same input (and downstream estimates
    built from the factors) are reproducible.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionError(f"svd expects a 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NumericalError(f"svd input of shape {a.shape} contains non-finite entries")
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge for a {a.shape[0]}x{a.shape[1]} matrix") from exc
    u, vh = _fix_svd_phases(u, vh, k=s.size)
    return SvdResult(u=u, sigma=s, vh=vh)


def complex_gaussian(rng: np.random.Generator, rows: int, cols: int, variance: float) -> np.ndarray:
    """I.i.d. circularly-symmetric complex Gaussian CN(0, variance) matrix.

    Real and imaginary parts are each N(0, variance / 2) so that
    E|entry|^2 = variance.
    """
    if variance < 0:
        raise ValueError(f"variance must be >= 0, got {variance}")
    scale = np.sqrt(variance / 2.0)
    pairs = rng.standard_normal((rows, 2 * cols))  # interleaved re/im per entry
    return scale * pairs.view(np.complex128)


def orthonormal_rows(
    n_rows: int,
    n_cols: int,
    mode: str = "fixed",
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Matrix C with orthonormal rows, C @ C^H = I.

    mode="fixed" returns the first n_rows rows of the n_cols-point unitary
    DFT matrix: deterministic and publicly reproducible, the natural choice
    for openly announced pilots.  mode="random" orthonormalizes a complex
    Gaussian draw, giving Haar-like rows known only to whoever drew them.
    """
    if n_rows > n_cols:
        raise DimensionError(f"cannot fit {n_rows} orthonormal rows of length {n_cols}")
    if mode == "fixed":
        return _dft_rows(n_rows, n_cols)
    if mode == "random":
        if rng is None:
            raise ValueError("mode='random' requires an rng")
        g = complex_gaussian(rng, n_rows, n_cols, 1.0)
        q, r = np.linalg.qr(g.conj().T)
        # normalize the QR phase so the distribution is Haar-like
        q = q * (r.diagonal() / np.abs(r.diagonal()))
        return q.conj().T
    raise ValueError(f"unknown mode {mode!r}, expected 'fixed' or 'random'")
