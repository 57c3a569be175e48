"""Dense linear-algebra kernels: Hermitian/general eigen, det, adjugate."""

import numpy as np
import pytest

from fdpassivity.errors import NonFiniteError, NotHermitianError, SingularMatrixError
from fdpassivity.numerics import (
    adjugate,
    determinant,
    general_eigen,
    hermitian_eigen,
    inverse,
)
from oracles import hermitian_eigs_bisect


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a + a.conj().T


def test_hermitian_eigen_residual_and_orthonormality():
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(2, 17))
        h = random_hermitian(rng, n)
        res = hermitian_eigen(h)
        scale = np.linalg.norm(h)
        for k in range(n):
            r = h @ res.vectors[:, k] - res.values[k] * res.vectors[:, k]
            assert np.linalg.norm(r) <= 1e-10 * scale
        gram = res.vectors.conj().T @ res.vectors
        assert np.linalg.norm(gram - np.eye(n)) <= 1e-10
        # ascending real eigenvalues
        assert np.all(np.diff(res.values) >= -1e-14 * scale)
        assert res.values.dtype == np.float64


def test_hermitian_eigen_matches_bisection_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        h = random_hermitian(rng, n)
        res = hermitian_eigen(h)
        ref = hermitian_eigs_bisect(h)
        scale = max(np.linalg.norm(h), 1.0)
        assert np.max(np.abs(res.values - ref)) <= 1e-9 * scale


def test_hermitian_eigen_min_accessors():
    h = np.diag([3.0, -2.0, 5.0]).astype(complex)
    res = hermitian_eigen(h)
    assert res.min_value == -2.0
    assert abs(abs(res.min_vector[1]) - 1.0) <= 1e-14
    assert res.eigen_gap == pytest.approx(5.0)


def test_hermitian_eigen_rejects_non_hermitian():
    m = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(NotHermitianError):
        hermitian_eigen(m)


def test_hermitian_eigen_rejects_non_finite():
    m = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(NonFiniteError):
        hermitian_eigen(m)


def test_general_eigen_diagonalizable():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        res = general_eigen(a)
        assert not res.defective
        for k in range(n):
            r = a @ res.right[:, k] - res.values[k] * res.right[:, k]
            assert np.linalg.norm(r) <= 1e-9 * np.linalg.norm(a)
        # rows of .left are left eigenvectors normalized against .right
        assert np.linalg.norm(res.left @ res.right - np.eye(n)) <= 1e-9
        for k in range(n):
            r = res.left[k] @ a - res.values[k] * res.left[k]
            assert np.linalg.norm(r) <= 1e-8 * np.linalg.norm(a)
        order = np.lexsort((np.arange(n), res.values.imag, res.values.real))
        assert np.array_equal(order, np.arange(n))


def test_general_eigen_flags_jordan_block():
    a = np.array([[2.0, 1.0], [0.0, 2.0]], dtype=complex)
    res = general_eigen(a)
    assert res.defective


def test_determinant_known_values():
    a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert determinant(a) == pytest.approx(-2.0)
    assert determinant(np.eye(5, dtype=complex)) == pytest.approx(1.0)
    s = 0.3 + 1j
    d = np.diag([s, 2 * s, -s])
    assert determinant(d) == pytest.approx(-2 * s**3)


def test_determinant_singular_returns_zero_without_raising():
    a = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    assert abs(determinant(a)) <= 1e-14


def test_adjugate_identity_small_and_large():
    rng = np.random.default_rng(19)
    for n in (1, 2, 3, 5, 8, 10, 13):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        adj = adjugate(a)
        d = determinant(a)
        assert np.linalg.norm(a @ adj - d * np.eye(n)) <= 1e-9 * abs(d)
        assert np.linalg.norm(adj @ a - d * np.eye(n)) <= 1e-9 * abs(d)


def test_adjugate_rank_deficient():
    # rank n-1: det = 0 but the adjugate is nonzero and annihilates A
    a = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]], dtype=complex)
    adj = adjugate(a)
    assert np.linalg.norm(adj) > 1e-10
    assert np.linalg.norm(a @ adj) <= 1e-10 * np.linalg.norm(a) * np.linalg.norm(adj)


def test_adjugate_near_singular_stays_accurate():
    rng = np.random.default_rng(23)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    u, _, vh = np.linalg.svd(a)
    a = u @ np.diag([1.0, 0.7, 0.2, 1e-9]) @ vh
    adj = adjugate(a)
    d = determinant(a)
    assert np.linalg.norm(a @ adj - d * np.eye(4)) <= 1e-8 * np.linalg.norm(adj)


def test_inverse():
    rng = np.random.default_rng(29)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    assert np.linalg.norm(a @ inverse(a) - np.eye(6)) <= 1e-10


def test_inverse_rejects_singular():
    a = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    with pytest.raises(SingularMatrixError):
        inverse(a)
