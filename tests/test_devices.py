"""Device admittance models against independent state-space references."""

import math
import re

import numpy as np
import pytest

from fdpassivity.devices import (
    BlackBoxModel,
    GflConverterL1,
    GflParams,
    GfmConverterL1,
    GfmParams,
    OperatingPoint,
    RlBranch,
    ShuntCapacitor,
    TheveninGrid,
    param_derivative,
    rl_impedance,
    sample_model,
)
from fdpassivity.errors import (
    MalformedTableError,
    NotDifferentiableError,
    OutOfRangeError,
)
from fdpassivity.io_cli import BLACKBOX_HEADER, read_blackbox_table, write_blackbox_table
from fdpassivity.numerics import hermitian_eigen
from fdpassivity.passivity import hermitian_part, index_sweep, log_omega_grid

from conftest import WB
from oracles import gfl_state_space, gfm_state_space, transfer

PROBE_HZ = np.concatenate([np.geomspace(0.5, 3000.0, 100), [1.0, 40.0, 60.0, 2000.0]])


def test_gfl_matches_state_space_reference(gfl_model, gfl_op):
    a, b, c = gfl_state_space(gfl_model.params, gfl_op)
    for f in PROBE_HZ:
        s = 1j * 2 * math.pi * f
        y_ref = -transfer(a, b, c, s)
        y = gfl_model.admittance(s)
        assert np.linalg.norm(y - y_ref) <= 1e-8 * np.linalg.norm(y_ref)


def test_gfm_matches_state_space_reference(gfm_model):
    a, b, c = gfm_state_space(gfm_model.params, gfm_model.op)
    for f in PROBE_HZ:
        s = 1j * 2 * math.pi * f
        y_ref = -transfer(a, b, c, s)
        y = gfm_model.admittance(s)
        assert np.linalg.norm(y - y_ref) <= 1e-8 * np.linalg.norm(y_ref)


def test_gfl_reference_holds_off_defaults():
    op = OperatingPoint.from_terminal(0.3, -0.25, 0.97, WB)
    params = GflParams(l_c=0.08, r_c=0.01, k_p_i=0.6, k_i_i=20.0,
                       k_p_pll=0.7, k_i_pll=55.0, t_v=0.004)
    model = GflConverterL1(params, op)
    a, b, c = gfl_state_space(params, op)
    for f in (2.0, 37.0, 333.0, 1500.0):
        s = 1j * 2 * math.pi * f
        y_ref = -transfer(a, b, c, s)
        assert np.linalg.norm(model.admittance(s) - y_ref) <= 1e-8 * np.linalg.norm(y_ref)


def test_gfm_reference_holds_off_defaults():
    op = OperatingPoint.from_terminal(0.5, 0.2, 1.03, WB)
    params = GfmParams(h_vsm=1.2, d_vsm=80.0, l_v=0.3, r_v=0.05)
    model = GfmConverterL1(params, op)
    a, b, c = gfm_state_space(params, op)
    for f in (2.0, 37.0, 333.0, 1500.0):
        s = 1j * 2 * math.pi * f
        y_ref = -transfer(a, b, c, s)
        assert np.linalg.norm(model.admittance(s) - y_ref) <= 1e-8 * np.linalg.norm(y_ref)


def test_conjugate_symmetry_all_models(gfl_model, gfm_model):
    models = [gfl_model, gfm_model, RlBranch(0.1, 0.5, WB),
              ShuntCapacitor(0.2, WB), TheveninGrid(3.0, 6.0, WB)]
    for m in models:
        for f in (0.7, 12.0, 240.0):
            s = 1j * 2 * math.pi * f
            y_pos = m.admittance(s)
            y_neg = m.admittance(-s)
            assert np.linalg.norm(y_neg - y_pos.conj()) <= 1e-12 * np.linalg.norm(y_pos)


def test_gfl_nonpassive_in_pll_band(gfl_model):
    # signature behavior: clearly non-passive near 40 Hz, passive again at 2 kHz
    y = gfl_model.admittance(1j * 2 * math.pi * np.array([40.0, 2000.0]))
    index = hermitian_eigen(hermitian_part(y)).min_value
    assert index[0] < -0.4
    assert index[1] == pytest.approx(0.075, abs=5e-3)


def test_gfm_passive_above_1khz(gfm_model):
    sweep = index_sweep(gfm_model, log_omega_grid(1.0, 2000.0, 400))
    assert np.all(sweep.indices > 0)
    assert sweep.passive_everywhere
    assert np.all(sweep.indices[sweep.freqs_hz >= 1000.0] > 1e-3)


def test_gfl_ideal_current_source_limit(gfl_op):
    # perfect feedforward and a frozen PLL leave (almost) no terminal response
    model = GflConverterL1(GflParams(t_v=1e-12, k_p_pll=1e-12, k_i_pll=1e-12), gfl_op)
    assert np.linalg.norm(model.admittance(1j * 2 * math.pi * 100)) <= 1e-6


def test_gfm_large_inertia_limit():
    op = OperatingPoint.from_terminal(-0.35, 0.1, 1.0, WB)
    model = GfmConverterL1(GfmParams(h_vsm=1e9), op)
    s = 1j * 2 * math.pi * 30
    y_virtual = RlBranch(0.15, 0.2, WB).admittance(s)
    assert np.linalg.norm(model.admittance(s) - y_virtual) <= 1e-6 * np.linalg.norm(y_virtual)


def test_rl_impedance_layout():
    s = 1j * 2 * math.pi * 25
    z = rl_impedance(0.3, 0.8, s, WB)
    a = 0.3 + (s / WB) * 0.8
    assert z[0, 0] == a and z[1, 1] == a
    assert z[0, 1] == -0.8 and z[1, 0] == 0.8
    y = RlBranch(0.3, 0.8, WB).admittance(s)
    assert np.linalg.norm(y @ z - np.eye(2)) <= 1e-14


def test_shunt_c_layout_and_validation():
    s = 1j * 2 * math.pi * 25
    y = ShuntCapacitor(0.4, WB).admittance(s)
    assert y[0, 0] == (s / WB) * 0.4 and y[0, 1] == -0.4 and y[1, 0] == 0.4
    with pytest.raises(ValueError):
        ShuntCapacitor(0.0, WB)
    with pytest.raises(ValueError):
        RlBranch(0.0, 0.0, WB)
    with pytest.raises(ValueError):
        RlBranch(-0.1, 0.5, WB)


def test_thevenin_matches_rl_and_validates():
    s = 1j * 2 * math.pi * 10
    y = TheveninGrid(3.0, 6.0, WB).admittance(s)
    x = 1.0 / 3.0
    assert np.allclose(y, RlBranch(x / 6.0, x, WB).admittance(s), rtol=0, atol=1e-15)
    with pytest.raises(ValueError):
        TheveninGrid(0.0, 6.0, WB)
    with pytest.raises(ValueError):
        TheveninGrid(2e6, 6.0, WB)


def test_converters_reject_dc_evaluation(gfl_model, gfm_model):
    for m in (gfl_model, gfm_model):
        with pytest.raises(ValueError):
            m.admittance(0.0)


def test_operating_point_from_terminal():
    op = OperatingPoint.from_terminal(0.7, 0.2, 1.0, WB)
    # delivered current: i0 = conj((P + jQ)/V) in a frame with v_q0 = 0
    assert op.v_d0 == 1.0 and op.v_q0 == 0.0
    assert op.i_d0 == pytest.approx(0.7)
    assert op.i_q0 == pytest.approx(-0.2)
    with pytest.raises(ValueError):
        OperatingPoint.from_terminal(0.7, 0.2, 0.0, WB)


def test_param_derivative_analytic_rl():
    # dY/dr = -Y Y and dY/dx at fixed s checked against the closed form
    m = RlBranch(0.2, 0.7, WB)
    s = 1j * 2 * math.pi * 15
    y = m.admittance(s)
    d_r = param_derivative(m, "r", s)
    assert np.linalg.norm(d_r - (-(y @ y))) <= 1e-7 * np.linalg.norm(y @ y)
    d_x = param_derivative(m, "x", s)
    dz = (s / WB) * np.eye(2) + np.array([[0.0, -1.0], [1.0, 0.0]])
    assert np.linalg.norm(d_x - (-(y @ dz @ y))) <= 1e-7 * np.linalg.norm(y @ dz @ y)


def test_param_derivative_at_the_bottom_of_the_range():
    # r = 0 is valid but r - h is not, so the derivative steps up only.
    # dZ/dr = I gives dY/dr = -Y Y.  The grid stays off 54-66 Hz: a lossless
    # dq inductor is singular at omega_b, and both sides grow without bound.
    m = RlBranch(0.0, 0.7, WB)
    s = 1j * 2 * math.pi * np.concatenate([np.geomspace(1.0, 54.0, 30),
                                           np.geomspace(66.0, 2000.0, 30)])
    y = m.admittance(s)
    exact = -(y @ y)
    error = np.linalg.norm(param_derivative(m, "r", s) - exact, axis=(1, 2))
    assert (error <= 1e-6 * np.linalg.norm(exact, axis=(1, 2))).all()


@pytest.mark.parametrize("scr", [1e6, 1e6 - 0.5, 1e6 - 2.0])
def test_param_derivative_at_the_top_of_the_range(scr):
    # scr = 1e6 is the largest grid TheveninGrid accepts, so within h = 1 of
    # it the derivative steps down only (and centrally beyond h).  Z =
    # (r + s x/omega_b) I + x J with x = 1/scr, r = x/xr gives dZ/dscr =
    # -((1/xr + s/omega_b) I + J)/scr^2 and dY/dscr = -Y dZ Y.  The grid
    # stays off 54-66 Hz, as at the bottom of a range.
    xr = 6.0
    m = TheveninGrid(scr, xr, WB)
    s = 1j * 2 * math.pi * np.concatenate([np.geomspace(1.0, 54.0, 30),
                                           np.geomspace(66.0, 2000.0, 30)])
    y = m.admittance(s)
    jay = np.array([[0.0, -1.0], [1.0, 0.0]])
    dz = -((1.0 / xr + s / WB)[:, None, None] * np.eye(2) + jay) / scr ** 2
    exact = -(y @ dz @ y)
    error = np.linalg.norm(param_derivative(m, "scr", s) - exact, axis=(1, 2))
    assert (error <= 1e-6 * np.linalg.norm(exact, axis=(1, 2))).all()


def test_param_derivative_homogeneous_capacitor():
    m = ShuntCapacitor(0.4, WB)
    s = 1j * 2 * math.pi * 90
    d_b = param_derivative(m, "b", s)
    assert np.linalg.norm(d_b - m.admittance(s) / 0.4) <= 1e-9


def test_param_derivative_agrees_with_plain_secant(gfl_model):
    s = 1j * 2 * math.pi * 55
    for name in ("l_c", "k_p_pll", "k_i_i", "t_v"):
        d = param_derivative(gfl_model, name, s)
        rho = gfl_model.get_param(name)
        h = max(abs(rho), 1.0) * 1e-5
        sec = (gfl_model.with_param(name, rho + h).admittance(s)
               - gfl_model.with_param(name, rho - h).admittance(s)) / (2 * h)
        assert np.linalg.norm(d - sec) <= 1e-5 * max(np.linalg.norm(d), 1e-12)


def test_inert_params_have_zero_derivative(gfl_model, gfm_model):
    s = 1j * 2 * math.pi * 33
    scale = np.linalg.norm(gfl_model.admittance(s))
    for name in ("k_p_pq", "k_i_pq", "t_i"):
        assert np.linalg.norm(param_derivative(gfl_model, name, s)) <= 1e-12 * scale
    assert np.linalg.norm(param_derivative(gfm_model, "k_vsm", s)) <= 1e-12


def test_with_param_leaves_original_untouched(gfl_model):
    bumped = gfl_model.with_param("l_c", 0.3)
    assert bumped.params.l_c == 0.3
    assert gfl_model.params.l_c == 0.15
    with pytest.raises(ValueError):
        gfl_model.with_param("no_such_param", 1.0)
    with pytest.raises(ValueError):
        gfl_model.get_param("no_such_param")


@pytest.mark.parametrize("model, names", [
    (RlBranch(0.02, 0.3, WB), ("r", "x")),
    (ShuntCapacitor(0.4, WB), ("b",)),
    (TheveninGrid(3.0, 6.0, WB), ("scr", "xr_ratio")),
    (GflConverterL1(GflParams(), OperatingPoint.from_terminal(0.7, 0.2, 1.0, WB)),
     ("l_c", "r_c", "k_p_i", "k_i_i", "k_p_pll", "k_i_pll", "t_v", "k_p_pq", "k_i_pq", "t_i")),
    (GfmConverterL1(GfmParams(), OperatingPoint.from_terminal(-0.3, 0.05, 1.0, WB)),
     ("h_vsm", "d_vsm", "l_v", "r_v", "k_vsm")),
], ids=["rl", "shunt_c", "thevenin", "gfl_l1", "gfm_l1"])
def test_parameter_api_all_models(model, names):
    assert model.param_names() == names
    for name in names:
        value = model.get_param(name)
        bumped = model.with_param(name, 1.5 * value)
        assert bumped.get_param(name) == 1.5 * value
        assert bumped.with_param(name, value) == model
        assert model.get_param(name) == value
        for other in names:
            if other != name:
                assert bumped.get_param(other) == model.get_param(other)
    with pytest.raises(ValueError):
        model.with_param("no_such_param", 1.0)
    with pytest.raises(ValueError):
        model.get_param("no_such_param")


def test_blackbox_exact_at_nodes_and_conjugate(gfl_model):
    grid = np.geomspace(1.0, 2000.0, 50)
    bb = sample_model(gfl_model, grid)
    for f in (grid[0], grid[17], grid[-1]):
        s = 1j * 2 * math.pi * f
        assert np.array_equal(bb.admittance(s), gfl_model.admittance(s))
        assert np.array_equal(bb.admittance(-s), bb.admittance(s).conj())


def test_blackbox_interpolation_accuracy(gfl_model):
    # 401 log-spaced points over [1, 2000] Hz keep entrywise error near 1e-4 relative
    grid = np.geomspace(1.0, 2000.0, 401)
    bb = sample_model(gfl_model, grid)
    mids = np.sqrt(grid[:-1] * grid[1:])
    worst = 0.0
    for f in mids:
        s = 1j * 2 * math.pi * f
        y_exact = gfl_model.admittance(s)
        rel = np.linalg.norm(bb.admittance(s) - y_exact) / np.linalg.norm(y_exact)
        worst = max(worst, rel)
    assert worst <= 1e-4


def test_blackbox_rejects_out_of_range_and_off_axis(gfl_model):
    bb = sample_model(gfl_model, np.geomspace(10.0, 100.0, 20))
    with pytest.raises(OutOfRangeError):
        bb.admittance(1j * 2 * math.pi * 5.0)
    with pytest.raises(OutOfRangeError):
        bb.admittance(1j * 2 * math.pi * 101.0)
    with pytest.raises(OutOfRangeError):
        bb.admittance(-5.0 + 1j * 2 * math.pi * 50.0)


def test_blackbox_not_differentiable(gfl_model):
    bb = sample_model(gfl_model, np.geomspace(10.0, 100.0, 20))
    assert bb.param_names() == ()
    with pytest.raises(NotDifferentiableError):
        param_derivative(bb, "l_c", 1j * 2 * math.pi * 50.0)
    with pytest.raises(NotDifferentiableError):
        bb.with_param("l_c", 1.0)


def test_blackbox_model_validation():
    y_ok = np.zeros((3, 2, 2), dtype=complex)
    with pytest.raises(MalformedTableError):
        BlackBoxModel([10.0], y_ok[:1])                       # too few rows
    with pytest.raises(MalformedTableError):
        BlackBoxModel([10.0, 5.0, 20.0], y_ok)                # not increasing
    with pytest.raises(MalformedTableError):
        BlackBoxModel([-1.0, 5.0, 20.0], y_ok)                # nonpositive
    with pytest.raises(MalformedTableError):
        BlackBoxModel([1.0, 5.0, 20.0], np.zeros((2, 2, 2)))  # shape mismatch
    bad = y_ok.copy()
    bad[1, 0, 1] = np.nan
    with pytest.raises(MalformedTableError):
        BlackBoxModel([1.0, 5.0, 20.0], bad)


def test_blackbox_csv_roundtrip(tmp_path, gfl_model):
    path = tmp_path / "gfl.csv"
    grid = np.geomspace(1.0, 2000.0, 40)
    write_blackbox_table(path, gfl_model, grid)
    bb = read_blackbox_table(path)
    ref = sample_model(gfl_model, grid)
    # 17 significant digits round-trip float64 exactly
    assert np.array_equal(bb.freqs_hz, ref.freqs_hz)
    assert np.array_equal(bb.ydata, ref.ydata)


def test_blackbox_csv_error_reporting(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("")
    with pytest.raises(MalformedTableError):
        read_blackbox_table(p)
    p.write_text("freq,stuff\n1,2\n")
    with pytest.raises(MalformedTableError, match="header"):
        read_blackbox_table(p)
    header = ",".join(BLACKBOX_HEADER)
    p.write_text(header + "\n1.0,0,0,0,0\n")
    with pytest.raises(MalformedTableError, match=":2"):
        read_blackbox_table(p)
    p.write_text(header + "\n1.0,0,0,0,0,0,0,0,oops\n")
    with pytest.raises(MalformedTableError, match=":2"):
        read_blackbox_table(p)
    p.write_text(header + "\n1.0,0,0,0,0,0,0,0,0\n")
    with pytest.raises(MalformedTableError, match="2 rows"):
        read_blackbox_table(p)
    with pytest.raises(MalformedTableError):
        read_blackbox_table(tmp_path / "missing.csv")


@pytest.mark.parametrize("freqs", [[10.0, 5.0, 20.0], [10.0], [0.0, 10.0, 20.0]],
                         ids=["not_increasing", "one_point", "zero_hz"])
def test_writing_refuses_a_table_reading_would_refuse(tmp_path, freqs):
    # an RL branch is evaluable at s = 0, so BlackBoxModel refuses 0 Hz itself
    path = tmp_path / "t.csv"
    with pytest.raises(MalformedTableError):
        write_blackbox_table(path, RlBranch(0.05, 0.6, WB), freqs)
    assert not path.exists()


def test_writing_a_converter_at_0_hz_raises_its_own_guard_and_writes_nothing(tmp_path, gfl_model):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="not evaluable at s = 0"):
        write_blackbox_table(path, gfl_model, [0.0, 10.0, 20.0])
    assert not path.exists()


@pytest.mark.parametrize("rows, message", [
    (["10,0,0,0,0,0,0,0,0", "5,0,0,0,0,0,0,0,0"], "table frequencies must be"),
    (["5,0,0,0,0,0,0,0,0", "10,0,0,0,nan,0,0,0,0"], "table contains non-finite"),
    (["5,0,0,0,0,0,0,0,0", "inf,0,0,0,0,0,0,0,0"], "table frequencies must be"),
    ([], "table needs at least 2 rows"),
], ids=["not_increasing", "non_finite_entry", "infinite_frequency", "no_rows"])
def test_every_table_error_names_the_file(tmp_path, rows, message):
    path = tmp_path / "t.csv"
    path.write_text("\n".join([",".join(BLACKBOX_HEADER), *rows]) + "\n")
    with pytest.raises(MalformedTableError, match="^" + re.escape(f"{path}: {message}")):
        read_blackbox_table(path)
