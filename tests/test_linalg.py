import numpy as np
import pytest

from dce import RngStream, complex_gaussian, orthonormal_rows, svd
from dce.errors import DimensionError


def random_complex(rng, m, n):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def test_svd_identity():
    res = svd(np.eye(3))
    assert np.allclose(res.u, np.eye(3))
    assert np.allclose(res.sigma, [1, 1, 1])
    assert np.allclose(res.v, np.eye(3))


def test_svd_diagonal():
    res = svd(np.diag([3.0, 2.0]))
    assert np.allclose(res.sigma, [3.0, 2.0])


def test_svd_reconstruction_random():
    rng = np.random.default_rng(0)
    a = random_complex(rng, 2, 4)
    res = svd(a)
    assert np.linalg.norm(res.reconstruct() - a) <= 1e-10


def test_svd_invariants_bulk():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 201))
        a = random_complex(rng, m, n)
        res = svd(a)
        assert np.linalg.norm(res.u @ res.u.conj().T - np.eye(m)) <= 1e-10
        assert np.linalg.norm(res.vh @ res.vh.conj().T - np.eye(n)) <= 1e-10
        assert np.all(np.diff(res.sigma) <= 1e-12)
        rel = np.linalg.norm(res.reconstruct() - a) / max(np.linalg.norm(a), 1e-300)
        assert rel <= 1e-10


def test_svd_phase_convention():
    rng = np.random.default_rng(2)
    a = random_complex(rng, 5, 7)
    res = svd(a)
    for j in range(res.u.shape[1]):
        col = res.u[:, j]
        lead = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
        assert abs(lead.imag) <= 1e-12
        assert lead.real >= -1e-12


def test_svd_deterministic():
    rng = np.random.default_rng(3)
    a = random_complex(rng, 4, 6)
    r1, r2 = svd(a), svd(a.copy(order="F"))
    assert np.array_equal(r1.u, r2.u)
    assert np.array_equal(r1.sigma, r2.sigma)
    assert np.array_equal(r1.vh, r2.vh)


def test_svd_rejects_bad_input():
    with pytest.raises(Exception):
        svd(np.array([[np.nan + 0j, 1.0]]))


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
