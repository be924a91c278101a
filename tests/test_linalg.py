import numpy as np
import pytest

from dce import RngStream, complex_gaussian, orthonormal_rows
from dce.errors import DimensionError


def test_complex_gaussian_zero_variance():
    rng = np.random.default_rng(6)
    z = complex_gaussian(rng, 4, 5, 0.0)
    assert np.all(z == 0)


def test_complex_gaussian_power():
    rng = np.random.default_rng(7)
    z = complex_gaussian(rng, 100, 1000, 1.0)
    mean_power = np.mean(np.abs(z) ** 2)
    assert 0.99 <= mean_power <= 1.01
    # circular symmetry: real/imag parts each carry half the variance
    assert abs(np.var(z.real) - 0.5) < 0.01
    assert abs(np.var(z.imag) - 0.5) < 0.01


def test_complex_gaussian_rejects_negative_variance():
    rng = np.random.default_rng(8)
    with pytest.raises(ValueError):
        complex_gaussian(rng, 2, 2, -1.0)


def test_orthonormal_rows_fixed():
    c = orthonormal_rows(2, 140, mode="fixed")
    assert np.linalg.norm(c @ c.conj().T - np.eye(2)) <= 1e-12
    # deterministic
    assert np.array_equal(c, orthonormal_rows(2, 140, mode="fixed"))


def test_orthonormal_rows_square_fixed_is_unitary_dft():
    c = orthonormal_rows(4, 4, mode="fixed")
    assert np.linalg.norm(c @ c.conj().T - np.eye(4)) <= 1e-12
    assert np.allclose(c[0], 0.5 * np.ones(4))


def test_orthonormal_rows_random_distinct_seeds():
    c1 = orthonormal_rows(2, 140, mode="random", rng=RngStream(1, 0).substream())
    c2 = orthonormal_rows(2, 140, mode="random", rng=RngStream(2, 0).substream())
    assert np.linalg.norm(c1 @ c1.conj().T - np.eye(2)) <= 1e-12
    p1 = c1.conj().T @ c1
    p2 = c2.conj().T @ c2
    assert np.linalg.norm(p1 - p2) > 0.1


def test_orthonormal_rows_too_many_rows():
    with pytest.raises(DimensionError):
        orthonormal_rows(5, 4, mode="fixed")


def test_rng_stream_reproducible():
    a = RngStream(123, 7).substream().standard_normal(16)
    b = RngStream(123, 7).substream().standard_normal(16)
    c = RngStream(123, 8).substream().standard_normal(16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rng_substreams_independent_of_consumption():
    s = RngStream(9, 1)
    g1 = s.substream(0)
    g1.standard_normal(100)
    # substream 1 draws are unaffected by how much substream 0 consumed
    a = s.substream(1).standard_normal(8)
    b = RngStream(9, 1).substream(1).standard_normal(8)
    assert np.array_equal(a, b)
