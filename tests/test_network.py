"""Nodal assembly, nodal passivity, component sensitivity, participation."""

import math

import numpy as np
import pytest

from fdpassivity.devices import RlBranch, ShuntCapacitor
from fdpassivity.errors import UnknownBusError, UnknownComponentError
from fdpassivity.network import (
    Branch,
    Device,
    Network,
    Shunt,
    assemble_devices,
    assemble_net,
    assemble_nodal,
    component,
    components,
    directional_nodal_sensitivity,
    incidence,
    nodal_param_sensitivity,
    nodal_passivity_sweep,
    participation_sweep,
)
from fdpassivity.numerics import hermitian_eigen, inverse
from fdpassivity.passivity import hermitian_part, log_omega_grid

from conftest import WB, random_passive_network


def two_bus_symmetric():
    return Network(
        buses=("a", "b"),
        branches=(Branch("a", "b", RlBranch(0.02, 0.3, WB)),),
        devices=(Device("a", "L-a", RlBranch(0.1, 0.5, WB)),
                 Device("b", "L-b", RlBranch(0.1, 0.5, WB))),
    )


def nodal_index_of(y):
    return hermitian_eigen(y + y.conj().T).values[0]


def nodal_eigen_of(net, w):
    """Independent eigendecomposition of H_n at one frequency."""
    return hermitian_eigen(hermitian_part(assemble_nodal(net, 1j * w)))


def min_vector_at(net, w):
    return nodal_passivity_sweep(net, [w]).min_vectors[0]


def test_network_validation():
    rl = RlBranch(0.1, 0.5, WB)
    with pytest.raises(UnknownBusError):
        Network(buses=("a",), branches=(Branch("a", "zz", rl),))
    with pytest.raises(UnknownBusError):
        Network(buses=("a",), shunts=(Shunt("zz", rl),))
    with pytest.raises(UnknownBusError):
        Network(buses=("a",), devices=(Device("zz", "d", rl),))
    with pytest.raises(ValueError):
        Network(buses=("a", "a"))
    with pytest.raises(ValueError):
        Network(buses=("a",), branches=(Branch("a", "a", rl),))
    with pytest.raises(ValueError):
        Network(buses=("a", "b"),
                devices=(Device("a", "d", rl), Device("b", "d", rl)))
    with pytest.raises(ValueError):
        Network(buses=("a",), shunts=(Shunt("a", rl), Shunt("a", rl)))


def test_component_naming_and_order(three_bus_network):
    refs = components(three_bus_network)
    assert tuple(r.name for r in refs) == (
        "GFM-1", "GFM-2", "GFL-1",
        "b1-b2#1", "b2-b3#1", "b1-b3#1",
        "sh@b1", "sh@b2", "sh@b3",
    )
    assert component(three_bus_network, "GFL-1").buses == (2,)
    assert component(three_bus_network, "b1-b3#1").buses == (0, 2)
    with pytest.raises(UnknownComponentError):
        component(three_bus_network, "nope")
    # parallel branches get a per-pair counter
    rl = RlBranch(0.1, 0.5, WB)
    double = Network(buses=("a", "b"),
                     branches=(Branch("a", "b", rl), Branch("a", "b", rl)))
    names = tuple(r.name for r in components(double))
    assert names == ("a-b#1", "a-b#2")


def test_branch_assembly_is_incidence_sandwich(three_bus_network):
    s = 1j * 2 * math.pi * 17.0
    inc = incidence(three_bus_network)
    nb = len(three_bus_network.branches)
    diag = np.zeros((2 * nb, 2 * nb), dtype=complex)
    for k, br in enumerate(three_bus_network.branches):
        diag[2 * k:2 * k + 2, 2 * k:2 * k + 2] = br.model.admittance(s)
    ref = inc.T @ diag @ inc
    branches_only = Network(buses=three_bus_network.buses, branches=three_bus_network.branches)
    assert np.max(np.abs(assemble_net(branches_only, s) - ref)) <= 1e-15


def test_assembly_block_pattern_random_topologies():
    rng = np.random.default_rng(41)
    s = 1j * 2 * math.pi * 23.0
    for _ in range(15):
        n = int(rng.integers(1, 6))
        net = random_passive_network(rng, n)
        y = assemble_nodal(net, s)
        assert y.shape == (2 * n, 2 * n)
        # independent scatter-based reference; parts are summed in the same
        # order as the assembly ((branches + shunts) + devices) because float
        # addition is not associative and the check is bit-exact
        ref_br = np.zeros_like(y)
        for br in net.branches:
            yb = br.model.admittance(s)
            i, j = net.bus_index(br.from_bus), net.bus_index(br.to_bus)
            ref_br[2 * i:2 * i + 2, 2 * i:2 * i + 2] += yb
            ref_br[2 * j:2 * j + 2, 2 * j:2 * j + 2] += yb
            ref_br[2 * i:2 * i + 2, 2 * j:2 * j + 2] -= yb
            ref_br[2 * j:2 * j + 2, 2 * i:2 * i + 2] -= yb
        ref_sh = np.zeros_like(y)
        for sh in net.shunts:
            i = net.bus_index(sh.bus)
            ref_sh[2 * i:2 * i + 2, 2 * i:2 * i + 2] += sh.model.admittance(s)
        ref_dev = np.zeros_like(y)
        for dev in net.devices:
            i = net.bus_index(dev.bus)
            ref_dev[2 * i:2 * i + 2, 2 * i:2 * i + 2] += dev.model.admittance(s)
        assert np.array_equal(y, (ref_br + ref_sh) + ref_dev)
        # unconnected bus pairs keep exactly zero off-diagonal blocks
        linked = {(net.bus_index(b.from_bus), net.bus_index(b.to_bus)) for b in net.branches}
        for i in range(n):
            for j in range(n):
                if i != j and (i, j) not in linked and (j, i) not in linked:
                    assert np.all(y[2 * i:2 * i + 2, 2 * j:2 * j + 2] == 0)


def test_passive_networks_have_nonnegative_nodal_index():
    rng = np.random.default_rng(43)
    for _ in range(10):
        net = random_passive_network(rng, int(rng.integers(1, 6)))
        sweep = nodal_passivity_sweep(net, 2 * math.pi * np.array([2.0, 60.0, 700.0]))
        assert np.all(sweep.indices >= -1e-12)


def test_single_bus_reduction():
    net = Network(buses=("b1",),
                  shunts=(Shunt("b1", ShuntCapacitor(0.2, WB)),),
                  devices=(Device("b1", "rl", RlBranch(0.1, 0.5, WB)),))
    s = 1j * 2 * math.pi * 35.0
    y = assemble_nodal(net, s)
    ref = ShuntCapacitor(0.2, WB).admittance(s) + RlBranch(0.1, 0.5, WB).admittance(s)
    assert np.array_equal(y, ref)
    # no branch adds to the shunt
    assert np.array_equal(assemble_net(net, s), ShuntCapacitor(0.2, WB).admittance(s))


def test_net_plus_devices_decomposition(three_bus_network):
    s = 1j * 2 * math.pi * 100.0
    y_net = assemble_net(three_bus_network, s)
    buses = three_bus_network.buses
    assert np.array_equal(y_net,
                          assemble_net(Network(buses, branches=three_bus_network.branches), s)
                          + assemble_net(Network(buses, shunts=three_bus_network.shunts), s))
    assert np.array_equal(assemble_nodal(three_bus_network, s),
                          y_net + assemble_devices(three_bus_network, s))


def test_closed_loop_impedance(three_bus_network):
    s = 1j * 2 * math.pi * 80.0
    z = inverse(assemble_nodal(three_bus_network, s))
    assert np.linalg.norm(z @ assemble_nodal(three_bus_network, s) - np.eye(6)) <= 1e-10
    # feedback form against the open-circuit network impedance
    z_net = inverse(assemble_net(three_bus_network, s))
    y_a = assemble_devices(three_bus_network, s)
    ref = inverse(np.eye(6) + z_net @ y_a) @ z_net
    assert np.linalg.norm(z - ref) <= 1e-8 * np.linalg.norm(z)


def test_nodal_passivity_point(three_bus_network):
    w = 2 * math.pi * 40.0
    sweep = nodal_passivity_sweep(three_bus_network, 2 * math.pi * np.array([5.0, 40.0, 400.0]))
    k = 1
    spectrum, phi, index = sweep.spectra[k], sweep.min_vectors[k], sweep.indices[k]
    assert sweep.omegas[k] == w
    assert spectrum.shape == (6,)
    assert np.all(np.diff(spectrum) >= 0)
    assert spectrum[0] == index
    assert sweep.eigen_gaps[k] == pytest.approx(spectrum[1] - spectrum[0])
    assert np.linalg.norm(phi) == pytest.approx(1.0, rel=1e-12)
    h = assemble_nodal(three_bus_network, 1j * w)
    h = h + h.conj().T
    assert np.linalg.norm(h @ phi - index * phi) <= 1e-10 * np.linalg.norm(h)


def test_nodal_sweep_matches_pointwise(three_bus_network):
    om = log_omega_grid(1.0, 2000.0, 16)
    sweep = nodal_passivity_sweep(three_bus_network, om)
    assert not np.any(sweep.degenerate)
    for k, w in enumerate(om):
        eig = nodal_eigen_of(three_bus_network, w)
        assert sweep.indices[k] == eig.min_value
        assert np.array_equal(sweep.spectra[k], eig.values)
        assert np.array_equal(sweep.min_vectors[k], eig.min_vector)


def test_three_bus_loses_passivity_in_pll_band(three_bus_network):
    sweep = nodal_passivity_sweep(three_bus_network, log_omega_grid(1.0, 2000.0, 100))
    low = sweep.indices[sweep.freqs_hz <= 30.0]
    high = sweep.indices[sweep.freqs_hz >= 500.0]
    assert low.min() < -0.5
    assert np.all(high > 0)


def test_nodal_shunt_sensitivity_matches_finite_difference(three_bus_network):
    w = 2 * math.pi * 40.0
    rng = np.random.default_rng(0)
    dy = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    phi = min_vector_at(three_bus_network, w)
    d = directional_nodal_sensitivity(phi, component(three_bus_network, "sh@b2"), dy)
    # any shunt-connected component at b2 sees the same window
    assert d == directional_nodal_sensitivity(phi, component(three_bus_network, "GFM-2"), dy)
    eps = 1e-7
    yp = assemble_nodal(three_bus_network, 1j * w).copy()
    ym = yp.copy()
    yp[2:4, 2:4] += eps * dy
    ym[2:4, 2:4] -= eps * dy
    fd = (nodal_index_of(yp) - nodal_index_of(ym)) / (2 * eps)
    assert d == pytest.approx(fd, rel=1e-5)


def test_nodal_branch_sensitivity_matches_finite_difference(three_bus_network):
    w = 2 * math.pi * 40.0
    rng = np.random.default_rng(0)
    dy = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    phi = min_vector_at(three_bus_network, w)
    d = directional_nodal_sensitivity(phi, component(three_bus_network, "b2-b3#1"), dy)
    eps = 1e-7
    yp = assemble_nodal(three_bus_network, 1j * w).copy()
    ym = yp.copy()
    for (i, j, sgn) in ((1, 1, 1), (2, 2, 1), (1, 2, -1), (2, 1, -1)):
        yp[2 * i:2 * i + 2, 2 * j:2 * j + 2] += sgn * eps * dy
        ym[2 * i:2 * i + 2, 2 * j:2 * j + 2] -= sgn * eps * dy
    fd = (nodal_index_of(yp) - nodal_index_of(ym)) / (2 * eps)
    assert d == pytest.approx(fd, rel=1e-5)


def test_symmetric_branch_window_vanishes(three_bus_network):
    # GFM-1 and GFM-2 are identical, so the minimizing eigenvector is
    # symmetric across b1/b2 and the b1-b2 branch window collapses
    w = 2 * math.pi * 40.0
    dy = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    phi = min_vector_at(three_bus_network, w)
    ref = component(three_bus_network, "b1-b2#1")
    assert abs(directional_nodal_sensitivity(phi, ref, dy)) <= 1e-12


@pytest.mark.parametrize("f_hz", [300.0, 1000.0])
def test_identical_gfms_pair_lowest_eigenvalues(three_bus_network, f_hz):
    # above ~40 Hz the two smallest eigenvalues of H_n belong to the b1+b2
    # and b1-b2 combinations of the identical GFM units; b3 takes no part
    h = hermitian_part(assemble_nodal(three_bus_network, 1j * 2 * math.pi * f_hz))
    vectors = hermitian_eigen(h).vectors
    signs = []
    for k in range(2):
        v = vectors[:, k]
        w1, w2, w3 = (float(np.vdot(v[2 * b:2 * b + 2], v[2 * b:2 * b + 2]).real)
                      for b in range(3))
        assert w3 < 1e-2
        assert w1 == pytest.approx(w2, abs=1e-9)
        signs.append(np.vdot(v[0:2], v[2:4]) / math.sqrt(w1 * w2))
    assert signs[0] * signs[1] == pytest.approx(-1.0, abs=1e-9)


def test_nodal_sensitivity_errors(three_bus_network):
    w = 2 * math.pi * 40.0
    with pytest.raises(UnknownComponentError):
        nodal_param_sensitivity(three_bus_network, "nope", "r", [w])
    # all-capacitor bus: H_n vanishes, the minimum eigenvalue is degenerate
    cap_only = Network(buses=("b1",), shunts=(Shunt("b1", ShuntCapacitor(0.3, WB)),))
    assert nodal_passivity_sweep(cap_only, [w]).degenerate[0]
    series = nodal_param_sensitivity(cap_only, "sh@b1", "b", [w])
    assert series.degenerate[0]
    assert np.isnan(series.derivatives[0])
    table = participation_sweep(cap_only, [w])
    assert table.degenerate[0]
    assert np.all(np.isnan(table.values[:, 0]))


def test_nodal_param_sensitivity_matches_rebuilt_network(three_bus_network):
    w = 2 * math.pi * 40.0
    series = nodal_param_sensitivity(three_bus_network, "GFM-1", "d_vsm", [w])
    idx, der = series.indices[0], series.derivatives[0]
    assert idx == nodal_passivity_sweep(three_bus_network, [w]).indices[0]

    def rebuilt(value):
        devices = tuple(
            Device(d.bus, d.name, d.model.with_param("d_vsm", value)) if d.name == "GFM-1" else d
            for d in three_bus_network.devices
        )
        return Network(buses=three_bus_network.buses, branches=three_bus_network.branches,
                       shunts=three_bus_network.shunts, devices=devices)

    h = 300.0 * 1e-6
    fd = (nodal_passivity_sweep(rebuilt(300.0 + h), [w]).indices[0]
          - nodal_passivity_sweep(rebuilt(300.0 - h), [w]).indices[0]) / (2 * h)
    assert der == pytest.approx(fd, rel=1e-3, abs=1e-14)


def test_nodal_param_sensitivity_sweep(three_bus_network):
    om = log_omega_grid(5.0, 200.0, 8)
    series = nodal_param_sensitivity(three_bus_network, "GFL-1", "k_p_pll", om)
    assert series.param_name == "k_p_pll"
    assert not np.any(series.degenerate)
    for k, w in enumerate(om):
        point = nodal_param_sensitivity(three_bus_network, "GFL-1", "k_p_pll", [w])
        assert series.indices[k] == point.indices[0]
        assert series.derivatives[k] == point.derivatives[0]


def test_participation_sums_to_index(three_bus_network):
    for f in (5.0, 40.0, 400.0):
        w = 2 * math.pi * f
        table = participation_sweep(three_bus_network, [w])
        names, shares, index = table.names, table.values[:, 0], table.indices[0]
        assert len(names) == 9 and shares.shape == (9,)
        assert shares.sum() == pytest.approx(index, abs=1e-12)
        phi = nodal_eigen_of(three_bus_network, w).min_vector
        for ref, share in zip(components(three_bus_network), shares):
            assert directional_nodal_sensitivity(phi, ref, ref.model.admittance(1j * w)) == share


def test_lossless_components_do_not_participate(three_bus_network):
    table = participation_sweep(three_bus_network, [2 * math.pi * 40.0])
    for name, share in zip(table.names, table.values[:, 0]):
        if name.startswith("sh@"):
            assert abs(share) <= 1e-15


def test_identical_devices_participate_equally():
    net = two_bus_symmetric()
    for f in (5.0, 60.0, 300.0):
        w = 2 * math.pi * f
        assert nodal_passivity_sweep(net, [w]).eigen_gaps[0] > 1e-2
        table = participation_sweep(net, [w])
        by_name = dict(zip(table.names, table.values[:, 0]))
        assert by_name["L-a"] == pytest.approx(by_name["L-b"], rel=1e-9)
        assert by_name["L-a"] + by_name["L-b"] == pytest.approx(table.indices[0], rel=1e-9)


def test_participation_sweep_table(three_bus_network):
    om = log_omega_grid(5.0, 500.0, 10)
    table = participation_sweep(three_bus_network, om)
    assert table.names == tuple(r.name for r in components(three_bus_network))
    assert table.values.shape == (9, 10)
    assert not np.any(table.degenerate)
    assert np.allclose(table.values.sum(axis=0), table.indices, atol=1e-12)
    for k, w in enumerate(om):
        eig = nodal_eigen_of(three_bus_network, w)
        shares = np.array([
            directional_nodal_sensitivity(eig.min_vector, ref, ref.model.admittance(1j * w))
            for ref in components(three_bus_network)
        ])
        assert np.array_equal(table.values[:, k], shares)
        assert table.indices[k] == eig.min_value


def test_directional_sensitivity_zero_direction(three_bus_network):
    ref = component(three_bus_network, "GFM-1")
    phi = min_vector_at(three_bus_network, 2 * math.pi * 40.0)
    assert directional_nodal_sensitivity(phi, ref, np.zeros((2, 2))) == 0.0
