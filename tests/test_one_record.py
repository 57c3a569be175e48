"""Device and nodal sweeps share one spectrum record; GNC junctions and
refusal paths that other tests do not reach."""

import math

import numpy as np
import pytest

from fdpassivity import io_cli, stability
from fdpassivity.devices import RlBranch, ShuntCapacitor, param_derivative, sample_model
from fdpassivity.errors import (
    DefectiveMatrixError,
    NonFiniteError,
    RefineGridError,
    ScenarioValidationError,
    SingularMatrixError,
    UnknownBusError,
)
from fdpassivity.network import (
    Device,
    Network,
    components,
    nodal_param_sensitivity,
    nodal_passivity_sweep,
)
from fdpassivity.numerics import determinant, inverse
from fdpassivity.passivity import (
    Spectrum,
    index_sweep,
    log_omega_grid,
    param_passivity_sensitivity,
)

from conftest import WB, make_single_gfl, make_three_bus

GRID = log_omega_grid(0.01, 1e4, 2000)
COMPONENTS = [(make, ref) for make in (make_single_gfl, make_three_bus)
              for ref in components(make())]


def _same(a, b):
    return np.array_equal(a, b, equal_nan=np.asarray(a).dtype.kind in "fc")


@pytest.mark.parametrize("make, ref", COMPONENTS, ids=[r.name for _, r in COMPONENTS])
def test_a_device_sweep_is_the_one_bus_nodal_sweep_to_the_bit(make, ref):
    one_bus = Network(buses=("b",), devices=(Device("b", "d", ref.model),))
    device, nodal = index_sweep(ref.model, GRID), nodal_passivity_sweep(one_bus, GRID)
    assert type(device) is type(nodal) is Spectrum
    for field in ("omegas", "indices", "eigen_gaps", "spectra", "min_vectors", "degenerate"):
        assert _same(getattr(device, field), getattr(nodal, field)), field
    for param in ref.model.param_names():
        sens = param_passivity_sensitivity(ref.model, param, GRID)
        assert all(_same(a, b) for a, b in zip(
            sens, nodal_param_sensitivity(one_bus, "d", param, GRID))), param


# scalar loop gains L(s) and the winding count around (-1, 0): the first
# three have one real zero of 1 + L in the right half plane (s = 1, 2.26
# and 0.732), which the unreduced junction closure counted as none
LOOPS = {
    "-2/(s+1)": (lambda s: -2 / (s + 1), -1),
    "-4/((s+1)(0.1s+1))": (lambda s: -4 / ((s + 1) * (0.1 * s + 1)), -1),
    "-3/(s+1)^2": (lambda s: -3 / (s + 1) ** 2, -1),
    "-0.5/(s+1)": (lambda s: -0.5 / (s + 1), 0),
    "10/(s+1)^3": (lambda s: 10 / (s + 1) ** 3, -2),
}


@pytest.mark.parametrize("name", sorted(LOOPS))
def test_gnc_closes_each_junction_the_short_way_when_l0_is_finite(name):
    loop, count = LOOPS[name]
    omegas = log_omega_grid(0.01, 1e4, 4000)
    verdict = stability._winding_verdict(omegas, loop(1j * omegas)[None, :])
    assert verdict.encirclements == count
    assert verdict.stable == (count == 0)


def test_a_pole_at_zero_keeps_the_unreduced_closure():
    omegas = log_omega_grid(0.01, 1e4, 4000)
    loci = (-2 / (1j * omegas + 1))[None, :]
    assert stability._winding_verdict(omegas, loci, finite_at_zero=False).encirclements == 0


def _single_gfl_as_black_box():
    net = make_single_gfl()
    bb = sample_model(net.devices[0].model, np.geomspace(1.0, 2000.0, 60))
    return Network(buses=net.buses, shunts=net.shunts, devices=(Device("poc", "GFL-1", bb),))


@pytest.mark.parametrize("make, finite", [(make_single_gfl, True), (make_three_bus, True),
                                          (_single_gfl_as_black_box, False)])
def test_l0_is_finite_unless_a_device_is_a_black_box(make, finite):
    # a table has no value at s = 0, so a black box keeps the unreduced closure
    assert stability._finite_at_zero(make()) is finite


def test_a_top_level_that_is_no_object_is_refused(tmp_path):
    path = tmp_path / "s.json"
    path.write_text("[]", encoding="utf-8")
    with pytest.raises(ScenarioValidationError, match="top level must be a JSON object"):
        io_cli.load_scenario(path)


def test_out_under_a_regular_file_is_an_io_error(tmp_path, capsys):
    (tmp_path / "f").write_text("x", encoding="utf-8")
    argv = ["device-passivity", "--scenario", str(io_cli.fixture_path("single_gfl.json")),
            "--out", str(tmp_path / "f" / "o")]
    assert io_cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("i/o error: ")


def test_result_table_and_plot_guards():
    with pytest.raises(ValueError, match="does not match 2 columns"):
        io_cli.ResultTable("t", ("a", "b"), np.zeros((3, 3)))
    with pytest.raises(ValueError, match="nothing to plot"):
        io_cli._line_plot(io_cli.ResultTable("t", ("freq_hz",), np.ones((2, 1))))
    with pytest.raises(ValueError, match="positive x values"):
        io_cli._line_plot(io_cli.ResultTable("t", ("freq_hz", "y"), -np.ones((2, 2))))
    with pytest.raises(ValueError, match="re_\\*/im_\\* column pairs"):
        io_cli._nyquist_plot(io_cli.ResultTable("t", ("freq_hz", "y"), np.ones((2, 2))))


def test_a_singular_rl_impedance_names_its_point():
    rl = RlBranch(r=0.0, x=0.1, omega_b=WB)
    with pytest.raises(SingularMatrixError, match="singular"):
        rl.admittance(1j * WB)
    with pytest.raises(SingularMatrixError) as info:
        rl.admittance(np.array([0.5j * WB, 1j * WB]))
    assert info.value.points.tolist() == [False, True]


def test_a_non_finite_derivative_is_refused():
    # 1e300 * 1e10 overflows to inf, and inf - inf is NaN
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NonFiniteError, match="w.r.t. 'b' is not finite"):
        param_derivative(ShuntCapacitor(1e300, WB), "b", np.array([1j * WB, 1e10j * WB]))


def test_network_and_numerics_refusals(monkeypatch):
    with pytest.raises(ValueError, match="at least one bus"):
        Network(buses=())
    with pytest.raises(UnknownBusError, match="'zz' is not a bus"):
        make_three_bus().bus_index("zz")
    with pytest.raises(ValueError, match="expects a square matrix"):
        determinant(np.zeros((2, 3)))

    def failing(a):
        raise np.linalg.LinAlgError("no")

    monkeypatch.setattr(np.linalg, "cond", failing)
    with pytest.raises(SingularMatrixError):
        inverse(np.eye(2))


def test_stability_refusals(monkeypatch):
    omegas = np.array([1.0, 2.0, 3.0])
    with pytest.raises(RefineGridError, match="exactly"):
        stability._winding_verdict(omegas, np.array([[0.5, -1.0, 0.5]], dtype=complex))
    net = make_single_gfl()
    with pytest.raises(ValueError, match="values must hold"):
        stability.gnc(net, omegas, values=np.zeros((3, 1), dtype=complex))
    real = stability.general_eigen
    monkeypatch.setattr(stability, "general_eigen",
                        lambda a: real(a)._replace(defective=True))
    with pytest.raises(DefectiveMatrixError):
        stability.fd_pf(net, 1j * 2 * math.pi * 40.0)
