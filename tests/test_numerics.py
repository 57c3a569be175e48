"""Dense linear-algebra kernels: Hermitian/general eigen, det, adjugate."""

import numpy as np
import pytest

from fdpassivity.errors import (
    NoConvergenceError,
    NonFiniteError,
    NotHermitianError,
    SingularMatrixError,
)
from fdpassivity.numerics import (
    DEGENERACY_RTOL,
    adjugate,
    determinant,
    eigenvalues,
    general_eigen,
    hermitian_eigen,
    hermitian_eigenvalues,
    inverse,
)
from oracles import adjugate_cofactor, hermitian_eigs_bisect


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a + a.conj().T


def test_degenerate_flags_each_matrix_of_a_mixed_stack():
    # a double minimum eigenvalue, a simple one, a gap just inside and one
    # just outside the tolerance, and the zero matrix
    rng = np.random.default_rng(11)
    u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    spectra = [(1.0, 1.0, 3.0), (1.0, 2.0, 3.0), (1.0, 1.0 + 1e-12, 3.0),
               (1.0, 1.0 + 1e-7, 3.0), (-2.0, -2.0, 5.0), (0.0, 0.0, 0.0)]
    h = np.array([(u * d) @ u.conj().T for d in spectra])
    h = (h + np.swapaxes(h.conj(), -1, -2)) / 2.0
    eig = hermitian_eigen(h)
    expected = eig.eigen_gap <= DEGENERACY_RTOL * np.linalg.norm(h, axis=(-2, -1))
    assert np.array_equal(eig.degenerate, expected)
    assert eig.degenerate.tolist() == [True, False, True, False, True, True]
    for k in range(len(h)):
        one = hermitian_eigen(h[k])
        assert np.ndim(one.degenerate) == 0 and one.degenerate == expected[k]


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


def test_hermitian_eigenvalues_match_hermitian_eigen():
    rng = np.random.default_rng(13)
    h = np.stack([random_hermitian(rng, 12) for _ in range(6)])
    values = hermitian_eigenvalues(h)
    full = hermitian_eigen(h).values
    assert np.all(np.abs(values - full) <= 1e-14 * np.abs(full).max(axis=-1, keepdims=True))
    for k in range(h.shape[0]):
        assert np.array_equal(hermitian_eigenvalues(h[k]), values[k])


def _with(h, k, i, j, value):
    bad = h.copy()
    bad[k, i, j] = value
    return bad


_STACK = np.stack([random_hermitian(np.random.default_rng(17), 4) for _ in range(3)])
BAD_HERMITIAN = {
    "asymmetric": (np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex), NotHermitianError),
    "nan": (np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex), NonFiniteError),
    "imaginary_inf": (np.array([[1.0, 1j * np.inf], [0.0, 1.0]]), NonFiniteError),
    "asymmetric_in_a_stack": (_with(_STACK, 1, 0, 3, _STACK[1, 0, 3] + 1e-6), NotHermitianError),
    "nan_in_a_stack": (_with(_STACK, 2, 2, 2, np.nan), NonFiniteError),
}


@pytest.mark.parametrize("case", sorted(BAD_HERMITIAN))
def test_hermitian_solvers_reject_the_same_inputs(case):
    h, error = BAD_HERMITIAN[case]
    for solver in (hermitian_eigen, hermitian_eigenvalues):
        with pytest.raises(error):
            solver(h)


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


def rel_diff(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def test_adjugate_matches_cofactor_oracle():
    rng = np.random.default_rng(31)
    for n in (1, 2, 3, 5, 8, 9, 13, 20):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert rel_diff(adjugate(a), adjugate_cofactor(a)) <= 1e-12


def test_adjugate_rank_n_minus_1_and_n_minus_2():
    rng = np.random.default_rng(37)
    for n in (2, 3, 6, 12):
        u, _, vh = np.linalg.svd(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        s = np.linspace(2.0, 0.5, n)
        s[-1] = 0.0  # rank n - 1: adj is rank 1, nonzero, and annihilates A from both sides
        a = u @ np.diag(s) @ vh
        adj = adjugate(a)
        scale = np.linalg.norm(a) * np.linalg.norm(adj)
        assert np.linalg.norm(adj) >= 0.1 * np.prod(s[:-1])
        assert np.linalg.norm(a @ adj) <= 1e-13 * scale
        assert np.linalg.norm(adj @ a) <= 1e-13 * scale
        assert rel_diff(adj, adjugate_cofactor(a)) <= 1e-12
        s[-2] = 0.0  # rank n - 2: every (n-1)-minor vanishes, to rounding
        assert np.linalg.norm(adjugate(u @ np.diag(s) @ vh)) <= 1e-13 * np.linalg.norm(adj)


def test_adjugate_near_singular_20x20_matches_lu_oracle():
    rng = np.random.default_rng(41)
    u, _, vh = np.linalg.svd(rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20)))
    s = np.geomspace(10.0, 1e-3, 20)
    s[-1] = 1e-13
    a = u @ np.diag(s) @ vh
    adj = adjugate(a)
    assert rel_diff(adj, adjugate_cofactor(a)) <= 1e-12
    assert np.linalg.norm(a @ adj - determinant(a) * np.eye(20)) <= 1e-12 * np.linalg.norm(adj)


def test_inverse():
    rng = np.random.default_rng(29)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    assert np.linalg.norm(a @ inverse(a) - np.eye(6)) <= 1e-10


def test_inverse_rejects_singular():
    a = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    with pytest.raises(SingularMatrixError):
        inverse(a)


# --- the one input check and the one LAPACK-failure rule --------------------

@pytest.mark.parametrize("kernel, routine", [
    (hermitian_eigen, "eigh"),
    (hermitian_eigenvalues, "eigvalsh"),
    (general_eigen, "eig"),
    (general_eigen, "cond"),
    (eigenvalues, "eigvals"),
    (adjugate, "svd"),
])
def test_a_lapack_failure_is_no_convergence_naming_the_kernel(monkeypatch, kernel, routine):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, routine, fail)
    with pytest.raises(NoConvergenceError) as info:
        kernel(random_hermitian(np.random.default_rng(31), 3))
    assert str(info.value) == f"{kernel.__name__} failed to converge: did not converge"
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


@pytest.mark.parametrize("kernel", [hermitian_eigen, hermitian_eigenvalues, general_eigen,
                                    eigenvalues, determinant, inverse])
@pytest.mark.parametrize("value", [complex(np.nan, 0.0), complex(0.0, np.inf)],
                         ids=["nan_real_part", "inf_imaginary_part"])
def test_one_non_finite_matrix_of_a_stack_is_refused(kernel, value):
    stack = np.stack([random_hermitian(np.random.default_rng(37), 4) for _ in range(5)])
    stack[3, 1, 2] = value
    with pytest.raises(NonFiniteError, match=f"^{kernel.__name__}: matrix contains non-finite"):
        kernel(stack)


@pytest.mark.parametrize("value", [complex(np.nan, 0.0), complex(0.0, np.inf)],
                         ids=["nan_real_part", "inf_imaginary_part"])
def test_adjugate_refuses_a_non_finite_matrix(value):
    a = random_hermitian(np.random.default_rng(41), 4)
    a[2, 0] = value
    with pytest.raises(NonFiniteError, match="^adjugate: matrix contains non-finite"):
        adjugate(a)
