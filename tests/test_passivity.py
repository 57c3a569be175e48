"""Passivity index, its parameter sensitivity, and first-order prediction
from it."""

import math

import numpy as np
import pytest

from fdpassivity.devices import RlBranch, ShuntCapacitor, param_derivative
from fdpassivity.numerics import hermitian_eigen
from fdpassivity.passivity import (
    hermitian_part,
    index_sweep,
    log_omega_grid,
    param_passivity_sensitivity,
)

from conftest import WB


def _index(y):
    """Passivity index at one frequency: min eigenvalue of Y + Y^dagger."""
    return hermitian_eigen(hermitian_part(y)).min_value


def test_hermitian_part_literal():
    y = np.array([[1 + 2j, 3 + 0j], [0 + 0j, -1j]])
    h = hermitian_part(y)
    assert np.array_equal(h, np.array([[2 + 0j, 3 + 0j], [3 + 0j, 0 + 0j]]))
    assert np.linalg.norm(h - h.conj().T) == 0.0


def test_index_is_min_eigenvalue_of_hermitian_part(gfl_model):
    rng = np.random.default_rng(5)
    for _ in range(20):
        y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        eig = hermitian_eigen(hermitian_part(y))
        assert eig.min_value == eig.values[0]
        assert eig.min_value == pytest.approx(np.linalg.eigvalsh(y + y.conj().T)[0], abs=1e-14)
    omegas = log_omega_grid(1.0, 2000.0, 40)
    sweep = index_sweep(gfl_model, omegas)
    assert np.array_equal(sweep.indices, [_index(gfl_model.admittance(1j * w)) for w in omegas])


def test_perturbation_of_hermitian_part_is_dy_plus_dagger():
    rng = np.random.default_rng(13)
    y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    for _ in range(50):
        dy = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        lhs = hermitian_part(y + dy) - hermitian_part(y)
        rhs = dy + dy.conj().T
        assert np.max(np.abs(lhs - rhs)) <= 1e-15 * np.max(np.abs(rhs))


def test_rl_branch_strictly_passive():
    sweep = index_sweep(RlBranch(0.05, 0.4, WB), log_omega_grid(0.1, 5000.0, 200))
    assert np.all(sweep.indices > 0)
    assert sweep.passive_everywhere


def test_shunt_capacitor_lossless_and_degenerate():
    # H vanishes identically: index 0 with a double eigenvalue everywhere
    cap = ShuntCapacitor(0.3, WB)
    for f in (1.0, 60.0, 900.0):
        y = cap.admittance(1j * 2 * math.pi * f)
        h = hermitian_part(y)
        assert np.max(np.abs(h)) <= 1e-15
        eig = hermitian_eigen(h)
        assert eig.min_value == pytest.approx(0.0, abs=1e-15)
        assert eig.degenerate


def test_index_scales_linearly():
    rng = np.random.default_rng(17)
    y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert _index(2.5 * y) == pytest.approx(2.5 * _index(y), rel=1e-13)


def test_index_even_in_frequency(gfl_model):
    for f in (3.0, 47.0, 800.0):
        w = 2 * math.pi * f
        ip = _index(gfl_model.admittance(1j * w))
        im = _index(gfl_model.admittance(-1j * w))
        assert im == pytest.approx(ip, rel=1e-12, abs=1e-14)


def test_log_omega_grid_contract():
    om = log_omega_grid(1.0, 2000.0, 400)
    assert om.size == 400
    assert om[0] == pytest.approx(2 * math.pi * 1.0, rel=1e-14)
    assert om[-1] == pytest.approx(2 * math.pi * 2000.0, rel=1e-14)
    ratios = om[1:] / om[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-12)
    with pytest.raises(ValueError):
        log_omega_grid(0.0, 100.0)
    with pytest.raises(ValueError):
        log_omega_grid(100.0, 100.0)
    with pytest.raises(ValueError):
        log_omega_grid(1.0, 100.0, points=1)


def test_index_sweep_accessors(gfl_model):
    om = log_omega_grid(1.0, 2000.0, 50)
    sweep = index_sweep(gfl_model, om)
    assert np.allclose(sweep.freqs_hz, om / (2 * math.pi), rtol=1e-15)
    assert np.all(sweep.eigen_gaps >= 0)
    assert sweep.passive_everywhere == bool(np.all(sweep.indices >= 0))
    # this model loses passivity inside the band, so the flag must be off
    assert not sweep.passive_everywhere


def test_sensitivity_matches_finite_difference(gfl_model):
    for f, name in ((12.0, "k_p_pll"), (55.0, "l_c"), (700.0, "r_c")):
        w = 2 * math.pi * f
        series = param_passivity_sensitivity(gfl_model, name, [w])
        idx, der = series.indices[0], series.derivatives[0]
        assert idx == pytest.approx(_index(gfl_model.admittance(1j * w)), rel=1e-12)
        rho = gfl_model.get_param(name)
        h = max(abs(rho), 1.0) * 1e-6
        fd = (_index(gfl_model.with_param(name, rho + h).admittance(1j * w))
              - _index(gfl_model.with_param(name, rho - h).admittance(1j * w))) / (2 * h)
        assert der == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_sensitivity_from_eigenvector_identity(gfl_model):
    # d index = phi^H (dY + dY^H) phi for the minimizing unit eigenvector phi
    w = 2 * math.pi * 40.0
    der = param_passivity_sensitivity(gfl_model, "k_p_pll", [w]).derivatives[0]
    eig = hermitian_eigen(hermitian_part(gfl_model.admittance(1j * w)))
    dy = param_derivative(gfl_model, "k_p_pll", 1j * w)
    phi = eig.min_vector
    expect = (phi.conj() @ (dy + dy.conj().T) @ phi).real
    assert der == pytest.approx(expect, rel=1e-12)


def test_sensitivity_rejects_degenerate_point():
    series = param_passivity_sensitivity(ShuntCapacitor(0.3, WB), "b", [2 * math.pi * 60.0])
    assert series.degenerate[0]
    assert np.isnan(series.derivatives[0])


def test_sensitivity_series_flags_degenerate_points():
    series = param_passivity_sensitivity(ShuntCapacitor(0.3, WB), "b",
                                         log_omega_grid(1.0, 100.0, 10))
    assert np.all(series.degenerate)
    assert np.all(np.isnan(series.derivatives))
    assert np.allclose(series.indices, 0.0, atol=1e-15)


def test_sensitivity_series_matches_pointwise(gfl_model):
    om = log_omega_grid(5.0, 500.0, 12)
    series = param_passivity_sensitivity(gfl_model, "k_p_pll", om)
    assert not np.any(series.degenerate)
    for k, w in enumerate(om):
        point = param_passivity_sensitivity(gfl_model, "k_p_pll", [w])
        assert series.indices[k] == point.indices[0]
        assert series.derivatives[k] == point.derivatives[0]


def test_first_order_prediction_shrinks_quadratically(gfl_model):
    om = log_omega_grid(5.0, 500.0, 40)
    rho = gfl_model.get_param("k_p_pll")
    sens = param_passivity_sensitivity(gfl_model, "k_p_pll", om)
    err = []
    for delta in (0.04 * rho, 0.02 * rho):
        predicted = sens.indices + delta * sens.derivatives
        actual = index_sweep(gfl_model.with_param("k_p_pll", rho + delta), om).indices
        err.append(np.max(np.abs(predicted - actual)))
    # first-order remainder: halving the step should shrink the gap ~4x
    assert err[1] <= err[0] / 2.5


def test_first_order_prediction_actual_is_reevaluated(gfl_model):
    om = log_omega_grid(5.0, 500.0, 15)
    rho = gfl_model.get_param("l_c")
    delta = 0.05 * rho
    shifted = gfl_model.with_param("l_c", rho + delta)
    # a new model with l_c moved; the nominal one is left as it was
    assert shifted.get_param("l_c") == rho + delta
    assert gfl_model.get_param("l_c") == rho
    actual = index_sweep(shifted, om).indices
    sens = param_passivity_sensitivity(gfl_model, "l_c", om)
    assert np.array_equal(sens.indices, index_sweep(gfl_model, om).indices)
    assert sens.param_name == "l_c"
    # the re-evaluated index differs from the first-order prediction by the
    # second-order remainder, which is not zero
    assert not np.array_equal(actual, sens.indices + delta * sens.derivatives)
