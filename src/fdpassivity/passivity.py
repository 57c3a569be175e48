"""Passivity index and its parametric sensitivity for a single device.

The index at a frequency is the minimum eigenvalue of the Hermitian part

    H(j omega) = Y(j omega) + Y(j omega)^dagger

of the 2x2 dq admittance; the device is passive at that frequency iff the
index is >= 0.  With phi the unit eigenvector of the minimum eigenvalue,
first-order perturbation theory gives the exact parametric sensitivity

    d(index)/d(rho) = phi^dagger (dY/drho + (dY/drho)^dagger) phi

valid while the minimum eigenvalue is simple.  Points where the two
eigenvalues collide (within DEGENERACY_RTOL relative to ||H||_F) are
flagged and their derivative reported as NaN rather than trusted.

Every sweep evaluates its grid in fixed-size blocks of frequencies: each
block is one stacked admittance evaluation and one batched eigensolve,
and parallel_map spreads the blocks over worker threads.  The nodal sweep
maps larger chunks (frequency_chunks): each evaluates its component
admittances once, then solves block by block.  Block and chunk sizes do
not depend on the worker count, so results are the same bits for any.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._parallel import parallel_map
from .devices import DeviceModel, param_derivative
from .numerics import HermitianEigen, hermitian_eigen

# An eigenvalue gap below this fraction of ||H||_F counts as degenerate;
# shared with the network-level sensitivity code.
DEGENERACY_RTOL = 1e-9

# A block holds as many frequencies as fit a stacked (B, n, n) complex
# array in this many bytes: 5 at n = 80, the whole grid for 2x2 and 6x6;
# a chunk, half of it of its own data.  Larger blocks cost peak memory and
# save little; the sizes must not depend on the worker count.
BLOCK_BYTES = 1 << 19


def frequency_blocks(points: int, n: int) -> list[slice]:
    """Consecutive slices covering a grid of points for n x n matrices."""
    size = max(1, BLOCK_BYTES // (16 * n * n))
    return [slice(k, k + size) for k in range(0, max(points, 1), size)]


def frequency_chunks(points: int, point_bytes: int) -> list[slice]:
    """The same for point_bytes of data a point in half of BLOCK_BYTES."""
    size = max(1, BLOCK_BYTES // 2 // max(point_bytes, 1))
    return [slice(k, k + size) for k in range(0, max(points, 1), size)]


def join_blocks(rows) -> tuple[np.ndarray, ...]:
    """Per-block tuples of arrays, concatenated field by field."""
    return tuple(np.concatenate(field) for field in zip(*rows))


def hermitian_part(y: np.ndarray) -> np.ndarray:
    """H = Y + Y^dagger (note: not halved), for one matrix or a stack."""
    y = np.asarray(y, dtype=complex)
    return y + np.swapaxes(y.conj(), -1, -2)


def quadratic_form(w: np.ndarray, dy: np.ndarray):
    """Re w^dagger (dY + dY^dagger) w for 2-vectors w (..., 2) and 2x2 dY
    (..., 2, 2): a float, or an array over the stack."""
    return (w.conj()[..., None, :] @ hermitian_part(dy) @ w[..., :, None])[..., 0, 0].real[()]


def is_degenerate(eig: HermitianEigen, h_norm):
    """Whether the minimum eigenvalue is not simple; h_norm is ||H||_F,
    one per matrix for a stack."""
    return eig.eigen_gap <= DEGENERACY_RTOL * h_norm


def log_omega_grid(f_min_hz: float, f_max_hz: float, points: int = 400) -> np.ndarray:
    """Logarithmically spaced angular frequencies covering [f_min, f_max] Hz."""
    if not (0.0 < f_min_hz < f_max_hz):
        raise ValueError("need 0 < f_min_hz < f_max_hz")
    if points < 2:
        raise ValueError("need at least 2 grid points")
    f = np.logspace(math.log10(f_min_hz), math.log10(f_max_hz), points)
    return 2.0 * math.pi * f


@dataclass(frozen=True)
class IndexSweep:
    """Passivity index over a frequency grid."""

    omegas: np.ndarray      # rad/s
    indices: np.ndarray     # min eigenvalue of H at each frequency
    eigen_gaps: np.ndarray  # spread between the two eigenvalues of H

    @property
    def freqs_hz(self) -> np.ndarray:
        return self.omegas / (2.0 * math.pi)

    @property
    def passive_everywhere(self) -> bool:
        """True when the index is >= 0 at every grid frequency: a sampled
        verdict, which says nothing about frequencies between or outside
        the grid points."""
        return bool(np.all(self.indices >= 0.0))


@dataclass(frozen=True)
class SensitivitySeries:
    """Index and its parametric derivative over a frequency grid.

    degenerate[k] marks frequencies where the two eigenvalues of H
    coincide within tolerance; derivatives[k] is NaN there.
    """

    param_name: str
    omegas: np.ndarray
    indices: np.ndarray
    derivatives: np.ndarray
    degenerate: np.ndarray  # bool

    @property
    def freqs_hz(self) -> np.ndarray:
        return self.omegas / (2.0 * math.pi)


@dataclass(frozen=True)
class PredictionCurves:
    """First-order index prediction against a re-evaluated perturbed model."""

    param_name: str
    delta: float
    omegas: np.ndarray
    base: np.ndarray       # index at the nominal parameter
    predicted: np.ndarray  # base + delta * d(index)/d(rho)
    actual: np.ndarray     # index with the parameter shifted by delta
    degenerate: np.ndarray

    @property
    def freqs_hz(self) -> np.ndarray:
        return self.omegas / (2.0 * math.pi)


def index_sweep(model: DeviceModel, omegas) -> IndexSweep:
    """Evaluate the passivity index across a frequency grid."""
    omegas = np.asarray(omegas, dtype=float)

    def block(rows: slice):
        eig = hermitian_eigen(hermitian_part(model.admittance(1j * omegas[rows])))
        return eig.min_value, eig.eigen_gap

    idx, gap = join_blocks(parallel_map(block, frequency_blocks(omegas.size, 2)))
    return IndexSweep(omegas=omegas, indices=idx, eigen_gaps=gap)


def param_passivity_sensitivity(model: DeviceModel, param_name: str, omegas) -> SensitivitySeries:
    """Index and d(index)/d(rho) across a frequency grid.

    Degenerate points are flagged per point (derivative NaN) instead of
    aborting the sweep; the derivative is evaluated only off them.
    """
    omegas = np.asarray(omegas, dtype=float)

    def block(rows: slice):
        s = 1j * omegas[rows]
        h = hermitian_part(model.admittance(s))
        eig = hermitian_eigen(h)
        degenerate = is_degenerate(eig, np.linalg.norm(h, axis=(-2, -1)))
        ok = ~degenerate
        d = np.full(degenerate.shape, math.nan)
        d[ok] = quadratic_form(eig.min_vector[ok], param_derivative(model, param_name, s[ok]))
        return eig.min_value, d, degenerate

    idx, d, degenerate = join_blocks(parallel_map(block, frequency_blocks(omegas.size, 2)))
    return SensitivitySeries(
        param_name=param_name,
        omegas=omegas,
        indices=idx,
        derivatives=d,
        degenerate=degenerate,
    )


def first_order_prediction(model: DeviceModel, param_name: str, omegas, delta: float) -> PredictionCurves:
    """Compare base + delta * derivative against a re-evaluated model.

    The actual curve comes from a genuinely perturbed model (parameter
    shifted by delta), never from the linearization itself.
    """
    sens = param_passivity_sensitivity(model, param_name, omegas)
    shifted = model.with_param(param_name, model.get_param(param_name) + delta)
    actual = index_sweep(shifted, sens.omegas)
    return PredictionCurves(
        param_name=param_name,
        delta=delta,
        omegas=sens.omegas,
        base=sens.indices,
        predicted=sens.indices + delta * sens.derivatives,
        actual=actual.indices,
        degenerate=sens.degenerate,
    )
