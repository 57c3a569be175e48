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


def hermitian_part(y: np.ndarray) -> np.ndarray:
    """H = Y + Y^dagger (note: not halved)."""
    y = np.asarray(y, dtype=complex)
    return y + y.conj().T


def passivity_eigen(y: np.ndarray) -> HermitianEigen:
    """Full eigendecomposition of the Hermitian part of an admittance."""
    return hermitian_eigen(hermitian_part(y))


def passivity_index(y: np.ndarray) -> float:
    """Minimum eigenvalue of Y + Y^dagger; >= 0 iff passive there."""
    return passivity_eigen(y).min_value


def is_degenerate(eig: HermitianEigen, h_norm: float) -> bool:
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

    def point(w: float):
        eig = passivity_eigen(model.admittance(1j * w))
        return eig.min_value, eig.eigen_gap

    rows = parallel_map(point, omegas)
    idx = np.array([r[0] for r in rows])
    gap = np.array([r[1] for r in rows])
    return IndexSweep(omegas=omegas, indices=idx, eigen_gaps=gap)


def param_passivity_sensitivity(model: DeviceModel, param_name: str, omegas) -> SensitivitySeries:
    """Index and d(index)/d(rho) across a frequency grid.

    Degenerate points are flagged per point (derivative NaN) instead of
    aborting the sweep.
    """
    omegas = np.asarray(omegas, dtype=float)

    def point(w: float):
        h = hermitian_part(model.admittance(1j * w))
        eig = hermitian_eigen(h)
        if is_degenerate(eig, np.linalg.norm(h)):
            return eig.min_value, math.nan, True
        dy = param_derivative(model, param_name, 1j * w)
        phi = eig.min_vector
        return eig.min_value, float((phi.conj() @ (dy + dy.conj().T) @ phi).real), False

    rows = parallel_map(point, omegas)
    return SensitivitySeries(
        param_name=param_name,
        omegas=omegas,
        indices=np.array([r[0] for r in rows]),
        derivatives=np.array([r[1] for r in rows]),
        degenerate=np.array([r[2] for r in rows], dtype=bool),
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
