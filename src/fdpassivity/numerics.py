"""Dense complex linear algebra kernel.

Thin, contract-enforcing layer over LAPACK (via numpy): Hermitian and
general eigendecomposition, general eigenvalues alone, determinant,
adjugate, trace and inverse, all at desk scale (matrices up to a few
hundred rows).  The eigensolvers, the determinant and the
inverse also take a stack (..., n, n) of matrices; they check every
matrix of it and give each the bits it gets alone.

Eigenvalue ordering is deterministic: Hermitian values ascend; general
values sort by (real part, imaginary part) with ties broken by original
index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NoConvergenceError,
    NonFiniteError,
    NotHermitianError,
    SingularMatrixError,
)

# Relative symmetry tolerance for the Hermitian path.
HERMITIAN_RTOL = 1e-9
# Condition-number gates.
COND_LIMIT = 1e14        # inverse refuses beyond this
DEFECTIVE_COND = 1e12    # general eigenvector matrix flagged beyond this
# Cofactor expansion up to this size; LU column replacement above.
_ADJUGATE_COFACTOR_MAX = 8


@dataclass(frozen=True)
class HermitianEigen:
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a stack.

    values (..., n) are real and ascending, so values[..., 0] is the
    minimum eigenvalue; vectors (..., n, n) holds the matching orthonormal
    right eigenvectors as columns.  The properties below are scalars for
    one matrix and arrays over the stack otherwise.
    """

    values: np.ndarray
    vectors: np.ndarray

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


@dataclass(frozen=True)
class GeneralEigen:
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


def _as_square(a, op: str, stacked: bool = False) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or (a.ndim > 2 and not stacked) or a.shape[-2] != a.shape[-1]:
        what = "a square matrix or a stack of them" if stacked else "a square matrix"
        raise ValueError(f"{op} expects {what}, got shape {a.shape}")
    return a


def _check_finite(a: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise NonFiniteError(f"{op}: matrix contains non-finite entries")


def hermitian_eigen(h) -> HermitianEigen:
    """Eigendecomposition of a Hermitian matrix or a stack (..., n, n) of
    them, values ascending.

    Raises NotHermitianError when ||H - H^dagger|| exceeds
    HERMITIAN_RTOL * ||H|| for any matrix of the stack, NonFiniteError on
    NaN/inf entries.
    """
    h = _as_square(h, "hermitian_eigen", stacked=True)
    _check_finite(h, "hermitian_eigen")
    scale = np.ravel(np.linalg.norm(h, axis=(-2, -1)))
    asym = np.ravel(np.linalg.norm(h - np.swapaxes(h.conj(), -1, -2), axis=(-2, -1)))
    bad = asym > HERMITIAN_RTOL * np.maximum(scale, 1e-300)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise NotHermitianError(
            f"matrix is not Hermitian: ||H - H^dagger|| = {asym[k]:.3e} "
            f"(limit {HERMITIAN_RTOL * scale[k]:.3e})"
        )
    try:
        values, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"hermitian_eigen failed to converge: {exc}") from exc
    return HermitianEigen(values=values, vectors=vectors)


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
    a = _as_square(a, "general_eigen", stacked=True)
    _check_finite(a, "general_eigen")
    try:
        values, right = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"general_eigen failed to converge: {exc}") from exc

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
    a = _as_square(a, "eigenvalues", stacked=True)
    _check_finite(a, "eigenvalues")
    try:
        values = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigenvalues failed to converge: {exc}") from exc
    return np.take_along_axis(values, _value_order(values), axis=-1)


def determinant(a):
    """Determinant via LU of a matrix (a complex) or of each matrix of a
    stack (..., n, n) (an array).  Never raises on singular input; raises
    NonFiniteError when any matrix has a non-finite entry."""
    a = _as_square(a, "determinant", stacked=True)
    _check_finite(a, "determinant")
    det = np.linalg.det(a)
    return complex(det) if a.ndim == 2 else det


def trace(a) -> complex:
    a = _as_square(a, "trace")
    _check_finite(a, "trace")
    return complex(np.trace(a))


def _minor_det(a: np.ndarray, i: int, j: int) -> complex:
    keep_r = [r for r in range(a.shape[0]) if r != i]
    keep_c = [c for c in range(a.shape[1]) if c != j]
    sub = a[np.ix_(keep_r, keep_c)]
    if sub.size == 0:
        return 1.0 + 0.0j
    return complex(np.linalg.det(sub))


def adjugate(a) -> np.ndarray:
    """Adjugate matrix, stable near singularity.

    Satisfies A @ adj(A) == det(A) * I even when A is nearly singular.
    Cofactor (minor) expansion for n <= 8; for larger matrices each
    cofactor is the determinant of A with one column replaced by a unit
    vector, evaluated by LU.
    """
    a = _as_square(a, "adjugate")
    _check_finite(a, "adjugate")
    n = a.shape[0]
    if n == 1:
        return np.ones((1, 1), dtype=complex)
    adj = np.empty((n, n), dtype=complex)
    if n <= _ADJUGATE_COFACTOR_MAX:
        for i in range(n):
            for j in range(n):
                adj[j, i] = (-1) ** (i + j) * _minor_det(a, i, j)
    else:
        work = a.copy()  # keep the caller's matrix untouched
        for j in range(n):
            col = work[:, j].copy()
            for i in range(n):
                work[:, j] = 0.0
                work[i, j] = 1.0
                adj[j, i] = np.linalg.det(work)
            work[:, j] = col
    return adj


def _cond_or_inf(a: np.ndarray) -> float:
    """Largest condition number of a matrix or a stack (inf if any is)."""
    try:
        c = np.linalg.cond(a)
    except np.linalg.LinAlgError:
        return np.inf
    return float(np.max(c, initial=0.0)) if np.all(np.isfinite(c)) else np.inf


def inverse(a) -> np.ndarray:
    """Inverse of a matrix or of each matrix of a stack (..., n, n); raises
    SingularMatrixError when the cond of any of them exceeds COND_LIMIT."""
    a = _as_square(a, "inverse", stacked=True)
    _check_finite(a, "inverse")
    if _cond_or_inf(a) > COND_LIMIT:
        raise SingularMatrixError(
            f"matrix is singular to working precision (cond > {COND_LIMIT:.0e})"
        )
    return np.linalg.inv(a)
