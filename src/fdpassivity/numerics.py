"""Dense complex linear algebra kernel.

Thin, contract-enforcing layer over LAPACK (via numpy): Hermitian and
general eigendecomposition, Hermitian and general eigenvalues alone,
determinant, adjugate and inverse, all at desk scale (matrices up to a
few hundred rows).  The eigensolvers, the determinant and the inverse
also take a stack (..., n, n) of matrices; they check every matrix of it
and give each the bits it gets alone.  The adjugate takes one matrix and
comes from its SVD at every size, O(n^3).  The values-only solvers skip
the eigenvectors (eigvalsh takes about half of eigh's time on 80x80
Hermitian stacks) and may differ from the full ones in the last bits.

Eigenvalue ordering is deterministic: Hermitian values ascend; general
values sort by (real part, imaginary part) with ties broken by original
index.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

from .errors import (
    NoConvergenceError,
    NonFiniteError,
    NotHermitianError,
    SingularMatrixError,
)

# Relative symmetry tolerance for the Hermitian path.
HERMITIAN_RTOL = 1e-9
# An eigenvalue gap at or below this fraction of ||H||_F counts as degenerate.
DEGENERACY_RTOL = 1e-9
# Condition-number gates.
COND_LIMIT = 1e14        # inverse refuses beyond this
DEFECTIVE_COND = 1e12    # general eigenvector matrix flagged beyond this


class HermitianEigen(NamedTuple):
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a stack.

    values (..., n) are real and ascending, so values[..., 0] is the
    minimum eigenvalue; vectors (..., n, n) holds the matching orthonormal
    right eigenvectors as columns; norm is ||H||_F, one per matrix.  The
    properties below are scalars for one matrix and arrays over the stack
    otherwise.
    """

    values: np.ndarray
    vectors: np.ndarray
    norm: np.ndarray = None

    @property
    def min_value(self):
        return self.values[..., 0][()]

    @property
    def min_vector(self) -> np.ndarray:
        return self.vectors[..., :, 0]

    @property
    def eigen_gap(self):
        """Separation between the two smallest eigenvalues (0 for 1x1)."""
        if self.values.shape[-1] < 2:
            return np.zeros(self.values.shape[:-1])[()]
        return (self.values[..., 1] - self.values[..., 0])[()]

    @property
    def degenerate(self):
        """Whether the minimum eigenvalue is not simple (eigen_gap at most
        DEGENERACY_RTOL * norm), so that min_vector is not defined."""
        return self.eigen_gap <= DEGENERACY_RTOL * self.norm


class GeneralEigen(NamedTuple):
    """Eigendecomposition of a general complex matrix, or of each matrix of
    a stack.

    right holds right eigenvectors as columns, left holds left eigenvectors
    as rows, normalized so left @ right == I when the matrix is not
    defective. defective is set when the right-eigenvector matrix has a
    condition number above DEFECTIVE_COND: a bool for one matrix, one per
    matrix for a stack.
    """

    values: np.ndarray
    right: np.ndarray
    left: np.ndarray
    defective: np.ndarray


def _checked(a, op: str, stacked: bool = True) -> np.ndarray:
    """a as a complex square matrix, or a stack (..., n, n) of them when
    stacked: ValueError for any other shape, NonFiniteError for a NaN or
    inf entry.  Every kernel checks its input here."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or (a.ndim > 2 and not stacked) or a.shape[-2] != a.shape[-1]:
        what = "a square matrix or a stack of them" if stacked else "a square matrix"
        raise ValueError(f"{op} expects {what}, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonFiniteError(f"{op}: matrix contains non-finite entries")
    return a


@contextmanager
def _lapack(op: str):
    """Raises numpy's LinAlgError as NoConvergenceError naming op: the one
    rule for a LAPACK failure in every kernel."""
    try:
        yield
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"{op} failed to converge: {exc}") from exc


def _sum_squares(a: np.ndarray) -> np.ndarray:
    """Sum of squares over the last two axes of a real array."""
    return np.einsum("...ij,...ij->...", a, a)


def _hermitian_stack(h, op: str) -> tuple[np.ndarray, np.ndarray]:
    """h as a complex stack and ||H||_F of each matrix of it, after the
    checks both Hermitian solvers make: NonFiniteError on NaN/inf entries,
    NotHermitianError when ||H - H^dagger|| exceeds HERMITIAN_RTOL * ||H||
    for any matrix of the stack."""
    h = _checked(h, op)
    re, im = h.real, h.imag
    # Frobenius norms from the real and imaginary parts, one real
    # temporary at a time: the real part of H - H^dagger is Re H - Re H^T,
    # its imaginary part Im H + Im H^T
    scale = np.ravel(np.sqrt(_sum_squares(re) + _sum_squares(im)))
    asym = np.ravel(np.sqrt(_sum_squares(re - np.swapaxes(re, -1, -2))
                            + _sum_squares(im + np.swapaxes(im, -1, -2))))
    bad = asym > HERMITIAN_RTOL * np.maximum(scale, 1e-300)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise NotHermitianError(
            f"matrix is not Hermitian: ||H - H^dagger|| = {asym[k]:.3e} "
            f"(limit {HERMITIAN_RTOL * scale[k]:.3e})"
        )
    return h, scale.reshape(h.shape[:-2])[()]


def hermitian_eigen(h) -> HermitianEigen:
    """Eigendecomposition of a Hermitian matrix or a stack (..., n, n) of
    them, values ascending.  Raises as _hermitian_stack does."""
    h, norm = _hermitian_stack(h, "hermitian_eigen")
    with _lapack("hermitian_eigen"):
        values, vectors = np.linalg.eigh(h)
    return HermitianEigen(values=values, vectors=vectors, norm=norm)


def hermitian_eigenvalues(h) -> np.ndarray:
    """Eigenvalues (..., n), ascending, of a Hermitian matrix or a stack
    (..., n, n) of them, with no eigenvectors; raises as hermitian_eigen.

    LAPACK skips the eigenvectors here, which can move the last bits:
    hermitian_eigen(h).values matches this result to within 1e-14 of
    max|lambda| on the nodal matrices of the tests.
    """
    h, _ = _hermitian_stack(h, "hermitian_eigenvalues")
    with _lapack("hermitian_eigenvalues"):
        return np.linalg.eigvalsh(h)


def _value_order(values: np.ndarray) -> np.ndarray:
    """Indices sorting general eigenvalues by (real, imag); lexsort is
    stable, so ties keep their original order."""
    return np.lexsort((values.imag, values.real), axis=-1)


def general_eigen(a) -> GeneralEigen:
    """Eigendecomposition of a general complex matrix or a stack (..., n, n)
    of them.

    Values are sorted by (real, imag), ties by original index.  Left
    eigenvectors are the rows of the inverse of the right-eigenvector
    matrix; where that matrix is numerically singular the decomposition is
    flagged defective and a pseudo-inverse is returned instead.
    """
    a = _checked(a, "general_eigen")
    with _lapack("general_eigen"):
        values, right = np.linalg.eig(a)
        order = _value_order(values)
        values = np.take_along_axis(values, order, axis=-1)
        right = np.take_along_axis(right, order[..., None, :], axis=-1)

        cond = np.linalg.cond(right)
        defective = ~np.isfinite(cond) | (cond > DEFECTIVE_COND)
        left = np.empty_like(right)
        left[~defective] = np.linalg.inv(right[~defective])
        left[defective] = np.linalg.pinv(right[defective])
    return GeneralEigen(values=values, right=right, left=left, defective=defective[()])


def eigenvalues(a) -> np.ndarray:
    """Eigenvalues of a general complex matrix or a stack (..., n, n) of
    them, with no eigenvectors, sorted as general_eigen sorts its values.

    LAPACK skips the Schur vectors here, which can move the last bits:
    general_eigen(a).values equals this result exactly on the 2x2 to 20x20
    matrices of the tests, and on 80x80 loop gains of 40-bus networks to
    within 1e-14 of max|lambda| (5.5e-15 at worst, measured).
    """
    a = _checked(a, "eigenvalues")
    with _lapack("eigenvalues"):
        values = np.linalg.eigvals(a)
    return np.take_along_axis(values, _value_order(values), axis=-1)


def determinant(a):
    """Determinant via LU of a matrix (a complex) or of each matrix of a
    stack (..., n, n) (an array).  Never raises on singular input; raises
    NonFiniteError when any matrix has a non-finite entry."""
    a = _checked(a, "determinant")
    det = np.linalg.det(a)
    return complex(det) if a.ndim == 2 else det


def adjugate(a) -> np.ndarray:
    """Adjugate matrix from one SVD, at any rank.

    With A = U S V^H, adj(A) = det(U) det(V^H) V diag(p) U^H, where p_i is
    the product of every singular value but s_i, built from prefix and
    suffix products with no division: A @ adj(A) == det(A) * I holds for
    singular A too, and a 1x1 matrix gives [[1]].
    """
    a = _checked(a, "adjugate", stacked=False)
    with _lapack("adjugate"):
        u, s, vh = np.linalg.svd(a)
    p = np.cumprod(np.r_[1.0, s[:-1]]) * np.cumprod(np.r_[1.0, s[:0:-1]])[::-1]
    return np.linalg.det(u) * np.linalg.det(vh) * (vh.conj().T * p) @ u.conj().T


def inverse(a) -> np.ndarray:
    """Inverse of a matrix or of each matrix of a stack (..., n, n); raises
    SingularMatrixError when the cond of any of them exceeds COND_LIMIT, is
    not finite, or cannot be computed."""
    a = _checked(a, "inverse")
    try:
        cond = np.linalg.cond(a)
    except np.linalg.LinAlgError:
        cond = np.inf
    if not np.all(cond <= COND_LIMIT):
        raise SingularMatrixError(
            f"matrix is singular to working precision (cond > {COND_LIMIT:.0e})"
        )
    return np.linalg.inv(a)
