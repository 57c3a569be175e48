"""Passivity index and its parametric sensitivity for a single device.

The index at a frequency is the minimum eigenvalue of the Hermitian part

    H(j omega) = Y(j omega) + Y(j omega)^dagger

of the 2x2 dq admittance; the device is passive at that frequency iff the
index is >= 0.  With phi the unit eigenvector of the minimum eigenvalue,
first-order perturbation theory gives the exact parametric sensitivity

    d(index)/d(rho) = phi^dagger (dY/drho + (dY/drho)^dagger) phi

valid while the minimum eigenvalue is simple.  Points where the two
eigenvalues collide (HermitianEigen.degenerate, within
numerics.DEGENERACY_RTOL relative to ||H||_F) are flagged and their
derivative reported as NaN rather than trusted.

Every sweep evaluates its grid in fixed-size blocks of frequencies: each
block is one stacked admittance evaluation and one batched eigensolve,
and parallel_map spreads the blocks over worker threads.  The nodal sweep
maps larger chunks (frequency_chunks): each evaluates its component
admittances once, then solves block by block; eigenvalue-only solves
take blocks big enough to overlap (eigenvalue_blocks).  No size depends
on the worker count, so results are the same bits for any.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._parallel import parallel_map
from .devices import DeviceModel, param_derivative
from .numerics import hermitian_eigen

# A block holds as many frequencies as fit a stacked (B, n, n) complex
# array in this many bytes: 5 at n = 80, the whole grid for 2x2 and 6x6;
# a chunk, half of it of its own data.  Larger blocks cost peak memory and
# save little; the sizes must not depend on the worker count.
BLOCK_BYTES = 1 << 19


def frequency_blocks(points: int, n: int) -> list[slice]:
    """Consecutive slices covering a grid of points for n x n matrices."""
    size = max(1, BLOCK_BYTES // (16 * n * n))
    return [slice(k, k + size) for k in range(0, max(points, 1), size)]


# numpy (2.4) releases the GIL around a stacked eigvalsh or eigvals only
# when rows x n exceeds this many elements, so values-only blocks hold at
# least EIGVALSH_GIL_ELEMENTS // n + 1 rows: 7 at n = 80.  On 400 random
# 80x80 Hermitian matrices with one BLAS thread, blocks of 5 or 6 took
# 0.29-0.35 s on 1 worker and 0.32-0.52 s on 2, blocks of 7 or more
# 0.16-0.18 s on 2; at n = 20 the switch lies between 25 and 26 rows.  eigh
# overlaps at any block size, so eigenpair sweeps keep frequency_blocks.
EIGVALSH_GIL_ELEMENTS = 500


def eigenvalue_blocks(points: int, n: int) -> list[slice]:
    """frequency_blocks, or, where those hold fewer rows than a values-only
    eigensolve needs to release the GIL, that many rows or more: the grid
    split evenly into as many blocks as fit the floor (one if it does not)."""
    floor = EIGVALSH_GIL_ELEMENTS // n + 1
    blocks = frequency_blocks(points, n)
    if blocks[0].stop - blocks[0].start >= floor:
        return blocks
    count = max(1, points // floor)
    return [slice(k * points // count, (k + 1) * points // count) for k in range(count)]


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
    h = np.conj(np.swapaxes(y, -1, -2), order="C")
    h += y  # Y + Y^dagger to the bit (addition commutes), with no temporary
    return h


def quadratic_form(w: np.ndarray, dy: np.ndarray):
    """Re w^dagger (dY + dY^dagger) w for 2-vectors w (..., 2) and 2x2 dY
    (..., 2, 2): a float, or an array over the stack."""
    return (w.conj()[..., None, :] @ hermitian_part(dy) @ w[..., :, None])[..., 0, 0].real[()]


def log_omega_grid(f_min_hz: float, f_max_hz: float, points: int = 400) -> np.ndarray:
    """Logarithmically spaced angular frequencies covering [f_min, f_max] Hz."""
    if not (0.0 < f_min_hz < f_max_hz):
        raise ValueError("need 0 < f_min_hz < f_max_hz")
    if points < 2:
        raise ValueError("need at least 2 grid points")
    return log_omega_points(f_min_hz, f_max_hz, points, np.arange(points))


def log_omega_points(f_min_hz: float, f_max_hz: float, count: int, idx: np.ndarray) -> np.ndarray:
    """log_omega_grid(f_min_hz, f_max_hz, count)[idx], without building the
    whole grid: numpy's logspace formula, point by point, so each point has
    np.logspace's bits."""
    start, stop = math.log10(f_min_hz), math.log10(f_max_hz)
    y = idx * ((stop - start) / (count - 1)) + start
    y[idx == count - 1] = stop
    return 2.0 * math.pi * np.power(10.0, y)


@dataclass(frozen=True)
class IndexSweep:
    """Passivity index over a frequency grid."""

    omegas: np.ndarray      # rad/s
    indices: np.ndarray     # min eigenvalue of H at each frequency
    eigen_gaps: np.ndarray  # spread between the two smallest eigenvalues of H

    @classmethod
    def of(cls, omegas, spectra, *eigenpair):
        """The sweep of the ascending eigenvalues spectra (M, n) of H at
        omegas; a Spectrum also takes its min_vectors and degenerate."""
        return cls(omegas, spectra[:, 0], spectra[:, 1] - spectra[:, 0],
                   *((spectra, *eigenpair) if eigenpair else ()))

    @property
    def freqs_hz(self) -> np.ndarray:
        return self.omegas / (2.0 * math.pi)

    @property
    def passive_everywhere(self) -> bool:
        """True when the index is >= 0 at every grid frequency: a sampled
        verdict, which says nothing about frequencies between or outside
        the grid points."""
        return bool(np.all(self.indices >= 0.0))


class SensitivitySeries(NamedTuple):
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
class Spectrum(IndexSweep):
    """Passivity over a frequency grid with the minimum eigenpair, of one
    device (index_sweep) or of a network (network.nodal_passivity_sweep).

    Row k belongs to omegas[k].  Where degenerate[k] is set the minimum
    eigenvalue is not simple, so min_vectors[k] and every sensitivity or
    participation drawn from it are not defined there.
    """

    spectra: np.ndarray      # (M, n) eigenvalues of H, ascending; spectra[:, 0] == indices
    min_vectors: np.ndarray  # (M, n) unit eigenvectors of the minimum eigenvalue
    degenerate: np.ndarray   # (M,) bool

    def at_simple_points(self, value) -> np.ndarray:
        """value(omegas, min_vectors) at the K simple points, (..., K),
        spread over the grid as (..., M), NaN at the degenerate points."""
        simple = ~self.degenerate
        got = np.asarray(value(self.omegas[simple], self.min_vectors[simple]))
        out = np.full(got.shape[:-1] + simple.shape, math.nan)
        out[..., simple] = got
        return out

    def sensitivity(self, param_name: str, value) -> SensitivitySeries:
        """The index and the derivative value gives, at_simple_points."""
        return SensitivitySeries(param_name, self.omegas, self.indices,
                                 self.at_simple_points(value), self.degenerate)


def index_sweep(model: DeviceModel, omegas) -> Spectrum:
    """Passivity index and minimum eigenpair across a frequency grid: the
    nodal_passivity_sweep of a one-bus network with model as its device."""
    omegas = np.asarray(omegas, dtype=float)

    def block(rows: slice):
        eig = hermitian_eigen(hermitian_part(model.admittance(1j * omegas[rows])))
        return eig.values, eig.min_vector, eig.degenerate

    return Spectrum.of(omegas, *join_blocks(parallel_map(block, frequency_blocks(omegas.size, 2))))


def param_passivity_sensitivity(model: DeviceModel, param_name: str, omegas) -> SensitivitySeries:
    """Index and d(index)/d(rho) across a frequency grid: index_sweep and
    one derivative of the admittance at its simple points, NaN elsewhere."""
    return index_sweep(model, omegas).sensitivity(
        param_name, lambda w, phi: quadratic_form(phi, param_derivative(model, param_name, 1j * w)))
