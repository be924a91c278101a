"""Seeded randomness and orthonormal-row pilot matrices.

Every draw in the pipeline comes from the stream-based RNG defined here,
so the same seeds give bit-identical results.  The pilot rows are either
public DFT rows or a privately drawn Haar-like set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionError

__all__ = [
    "RngStream",
    "complex_gaussian",
    "orthonormal_rows",
]


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


@lru_cache(maxsize=64)
def _dft_rows(n_rows: int, n_cols: int) -> np.ndarray:
    cols = np.arange(n_cols)
    rows = np.arange(n_rows)[:, None]
    out = np.exp(-2j * np.pi * rows * cols / n_cols) / np.sqrt(n_cols)
    out.flags.writeable = False
    return out


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
