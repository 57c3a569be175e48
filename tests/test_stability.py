"""Loop-gain Nyquist verdicts, mode refinement, and modal sensitivities."""

import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdpassivity import stability
from fdpassivity.devices import RlBranch, ShuntCapacitor, TheveninGrid
from fdpassivity.errors import (
    NoConvergenceError,
    OutOfRegionError,
    RefineGridError,
    ZeroDenominatorError,
)
from fdpassivity.network import (
    Device,
    Network,
    Shunt,
    assemble_devices,
    assemble_net,
    assemble_nodal,
)
from fdpassivity.numerics import determinant, inverse
from fdpassivity.passivity import index_sweep, log_omega_grid, param_passivity_sensitivity
from fdpassivity.stability import (
    ModeEstimate,
    fd_pf,
    gnc,
    gnc_auto,
    loop_gain,
    mode_admittance_sensitivity,
    mode_scan,
    refine_mode,
    xi_coefficient,
)

from conftest import WB, make_rlc_bus, make_single_gfl, make_three_bus, scale_all
from oracles import gnc_auto_doubling, rlc_bus_modes

RLC = (0.05, 0.6, 0.3)


def duplicated_rlc():
    r, x, b = RLC
    return Network(
        buses=("a", "b"),
        shunts=(Shunt("a", ShuntCapacitor(b, WB)), Shunt("b", ShuntCapacitor(b, WB))),
        devices=(Device("a", "d1", RlBranch(r, x, WB)), Device("b", "d2", RlBranch(r, x, WB))),
    )


def test_loop_gain_is_znet_times_devices(single_gfl_network):
    s = 1j * 2 * math.pi * 35.0
    l = loop_gain(single_gfl_network, s)
    ref = inverse(assemble_net(single_gfl_network, s)) @ assemble_devices(single_gfl_network, s)
    assert np.array_equal(l, ref)
    assert l.shape == (2, 2)


def test_gnc_grid_validation(single_gfl_network):
    with pytest.raises(ValueError):
        gnc(single_gfl_network, [1.0])
    with pytest.raises(ValueError):
        gnc(single_gfl_network, [5.0, 2.0])
    with pytest.raises(ValueError):
        gnc(single_gfl_network, [-1.0, 2.0])


def test_gnc_passive_system_never_encircles():
    # dissipative net side: the loop gain stays small on the whole contour
    net = Network(
        buses=("poc",),
        shunts=(Shunt("poc", TheveninGrid(3.0, 6.0, WB)),),
        devices=(Device("poc", "load", RlBranch(0.15, 0.2, WB)),),
    )
    loci, verdict = gnc(net, log_omega_grid(0.01, 1e4, 400))
    assert verdict.encirclements == 0
    assert verdict.stable
    assert verdict.min_critical_distance > 0
    assert abs(verdict.winding_float) < 0.25
    assert loci.loci.shape == (2, 400)


def test_gnc_refuses_contour_pole():
    # a lossless-C-only net side is singular at s = j*omega_b, putting a
    # loop-gain pole on the contour; no grid density can resolve the
    # winding there and the refusal must survive refinement to the depth cap
    with pytest.raises(RefineGridError, match=r"after 3 grids, up to 130 points\)$"):
        gnc_auto(make_rlc_bus(*RLC), 0.01, 1e4, points=100, max_doublings=2)


def test_gnc_stable_converter_case():
    _, verdict = gnc_auto(make_single_gfl(scr=3.0, k_p_pll=0.4))
    assert verdict.stable and verdict.encirclements == 0


def test_gnc_unstable_converter_case():
    _, verdict = gnc_auto(make_single_gfl(scr=1.0, k_p_pll=0.9))
    assert not verdict.stable
    assert verdict.encirclements != 0


def test_gnc_coarse_grid_raises_instead_of_miscounting():
    net = make_single_gfl(scr=1.0, k_p_pll=0.9)
    with pytest.raises(RefineGridError):
        gnc(net, log_omega_grid(0.01, 1e4, 12))


def test_gnc_auto_refines_past_coarse_failure():
    net = make_single_gfl(scr=1.0, k_p_pll=0.9)
    _, verdict = gnc_auto(net, points=12, max_doublings=8)
    assert not verdict.stable
    with pytest.raises(RefineGridError):
        gnc_auto(net, points=12, max_doublings=0)


def test_gnc_auto_leaves_no_reference_cycles():
    # the refusals of the coarse levels are kept for the final error; with
    # their tracebacks they would tie gnc_auto's frame and its callers' into
    # a cycle that outlives the call
    net = make_single_gfl(scr=1.0, k_p_pll=0.9)
    gc.collect()
    gc.disable()
    try:
        gnc_auto(net, points=12, max_doublings=8)
        assert gc.collect() == 0
    finally:
        gc.enable()


def gnc_outcome(run, net, **kwargs):
    try:
        _, verdict = run(net, **kwargs)
    except RefineGridError:
        return "refused"
    return verdict.encirclements, verdict.stable


GNC_CASES = [pytest.param(make_single_gfl, dict(scr=scr, k_p_pll=kp), {}, id=f"gfl-{scr}-{kp}")
             for scr in (1.0, 1.3, 3.0) for kp in (0.14, 0.4, 0.66, 0.9, 1.0, 2.0)] + [
    pytest.param(make_rlc_bus, {}, dict(points=100, max_doublings=2), id="rlc-100x3"),
    pytest.param(make_rlc_bus, {}, {}, id="rlc-default"),
    pytest.param(make_three_bus, {}, dict(points=400), id="three-bus-400"),
]


@pytest.mark.parametrize("make, params, kwargs", GNC_CASES)
def test_nested_gnc_auto_agrees_with_plain_doubling(make, params, kwargs):
    net = make(**params)
    assert gnc_outcome(gnc_auto, net, **kwargs) == gnc_outcome(gnc_auto_doubling, net, **kwargs)


@settings(max_examples=40, deadline=None)
@given(scr=st.floats(1.0, 5.0), k_p_pll=st.floats(0.1, 2.0), xr_ratio=st.floats(2.0, 12.0),
       p=st.floats(0.2, 1.0), q=st.floats(-0.3, 0.3))
def test_gnc_auto_agrees_with_plain_doubling_on_any_single_gfl(scr, k_p_pll, xr_ratio, p, q):
    net = make_single_gfl(scr=scr, k_p_pll=k_p_pll, xr_ratio=xr_ratio, p=p, q=q)
    assert gnc_outcome(gnc_auto, net) == gnc_outcome(gnc_auto_doubling, net)


@pytest.mark.parametrize("scr, k_p_pll, points", [(1.3, 0.66, 800), (1.0, 0.9, 12)])
def test_gnc_auto_refines_on_the_nested_grid(monkeypatch, scr, k_p_pll, points):
    # both cases refuse the first grid; the result is gnc's on a subset of
    # the finest nested grid, and no frequency is solved twice
    net = make_single_gfl(scr=scr, k_p_pll=k_p_pll)
    solved = []

    def counting_loop_gain(network, s):
        solved.append(np.atleast_1d(s))
        return loop_gain(network, s)

    monkeypatch.setattr(stability, "loop_gain", counting_loop_gain)
    loci, verdict = gnc_auto(net, points=points, max_doublings=8)
    monkeypatch.undo()
    first = log_omega_grid(0.01, 1e4, points)
    finest = log_omega_grid(0.01, 1e4, (points - 1) * 2 ** 8 + 1)
    with pytest.raises(RefineGridError):
        gnc(net, first)
    assert np.all(np.isin(first, loci.omegas))
    assert np.all(np.isin(loci.omegas, finest))
    ref_loci, ref_verdict = gnc(net, loci.omegas)
    assert np.array_equal(loci.loci, ref_loci.loci)
    assert verdict == ref_verdict
    assert np.array_equal(np.sort(np.concatenate(solved).imag), loci.omegas)
    if points == 800:  # the criterion-8 case near the PLL-gain boundary
        assert loci.omegas.size < 2000


@pytest.mark.parametrize("f_min, f_max, points", [
    (0.01, 1e4, 800), (0.01, 1e4, 12), (0.01, 1e4, 100), (1.0, 2000.0, 400),
    (3.3, 777.7, 57), (0.5, 60.0, 2)])
def test_nested_grid_points_are_log_omega_grid_to_the_bit(f_min, f_max, points):
    for doublings in range(1, 9):
        count = (points - 1) * 2 ** doublings + 1
        grid = log_omega_grid(f_min, f_max, count)
        assert np.array_equal(grid[::2 ** doublings], log_omega_grid(f_min, f_max, points))
        logspace = np.logspace(math.log10(f_min), math.log10(f_max), count)
        assert np.array_equal(grid, 2 * math.pi * logspace)


# --- GNC's refusals -----------------------------------------------------------

GUARD_CASES = {
    # (relative loci, one row per locus) -> (message, intervals)
    "displacement": ([[0.5j, 0.5j, 0.5j + 0.2, 0.5j + 0.2]],
                     "eigenlocus displacement exceeds a quarter of the distance to (-1, 0) "
                     "between omega=2 and omega=3 rad/s", [1]),
    "angle": ([[2, 2, -2 + 0.01j, -2 + 0.01j]],
              "angle increment around (-1, 0) near pi between omega=2 and omega=3 rad/s", [1]),
    "both": ([[0.5j, 0.5j + 0.2, 0.5j + 0.2, 0.5j + 0.2], [2, 2, 2, -2 + 0.01j]],
             "eigenlocus displacement exceeds a quarter of the distance to (-1, 0) "
             "between omega=1 and omega=2 rad/s", [0, 2]),
}


@pytest.mark.parametrize("case", sorted(GUARD_CASES))
def test_each_gnc_guard_keeps_its_message_and_intervals(case):
    # the displacement guard speaks first; both name every flagged interval
    rel, message, intervals = GUARD_CASES[case]
    omegas, loci = np.array([1.0, 2.0, 3.0, 4.0]), np.array(rel) + stability.CRITICAL
    with pytest.raises(RefineGridError) as info:
        stability._winding_verdict(omegas, loci)
    assert str(info.value) == message
    assert info.value.intervals.tolist() == intervals


def _refusing_first(monkeypatch):
    """Patch _winding_verdict to refuse its first grid naming no interval;
    returns the list of grids it is given."""
    real, grids = stability._winding_verdict, []

    def verdict(omegas, loci, **closure):
        grids.append(omegas)
        if len(grids) == 1:
            raise RefineGridError("a refusal that names no interval")
        return real(omegas, loci, **closure)

    monkeypatch.setattr(stability, "_winding_verdict", verdict)
    return grids


def test_gnc_auto_bisects_every_interval_when_a_refusal_names_none(monkeypatch):
    # the 100-point grid passes unpatched; after the refusal every interval
    # is halved, and the count stands once one more halving repeats it
    net = make_single_gfl(scr=3.0, k_p_pll=0.4)
    grids = _refusing_first(monkeypatch)
    loci, verdict = gnc_auto(net, points=100, max_doublings=3)
    monkeypatch.undo()
    assert [g.size for g in grids] == [100, 199, 397]
    assert np.array_equal(grids[1][::2], grids[0]) and np.array_equal(grids[2][::2], grids[1])
    ref_loci, ref_verdict = gnc(net, grids[2])
    assert np.array_equal(loci.omegas, grids[2]) and np.array_equal(loci.loci, ref_loci.loci)
    assert verdict == ref_verdict and verdict.stable


def test_gnc_auto_returns_an_unconfirmed_count_on_the_finest_grid(monkeypatch):
    # with one doubling allowed, the count on the finest grid has no
    # halving left to be confirmed on, and is returned as it is
    net = make_single_gfl(scr=3.0, k_p_pll=0.4)
    grids = _refusing_first(monkeypatch)
    loci, verdict = gnc_auto(net, points=100, max_doublings=1)
    monkeypatch.undo()
    assert [g.size for g in grids] == [100, 199]
    assert np.array_equal(loci.omegas, log_omega_grid(0.01, 1e4, 199))
    assert verdict == gnc(net, loci.omegas)[1]


# --- mode refinement's refusals -------------------------------------------------

def test_lockstep_out_of_iterations_gives_refine_modes_partial(monkeypatch):
    net = make_rlc_bus(*RLC)
    seed = -400.0 + 3000.0j
    with pytest.raises(NoConvergenceError) as info:
        refine_mode(net, seed, WB, max_iterations=2)
    monkeypatch.setattr(stability, "MAX_ITERATIONS", 2)
    (outcome,) = stability._lockstep(net, [seed], WB, None)
    assert isinstance(outcome, NoConvergenceError)
    assert str(outcome) == str(info.value)
    assert outcome.partial == info.value.partial
    assert outcome.partial.iterations == 2


def test_a_search_meeting_a_non_evaluable_iterate_is_rerun_by_refine_mode(monkeypatch):
    # det Y_n reads NaN at the first iterate of the first round only: that
    # search drops out of the lockstep, and refine_mode from its seed gives
    # the scan the same modes
    net = make_rlc_bus(*RLC)
    expected = mode_scan(net, WB)
    real_det_stack, real_refine_mode = stability._det_stack, stability.refine_mode
    stacks, rerun = [], []

    def det_stack(network, s):
        stacks.append(s.copy())
        dets = real_det_stack(network, s)
        if len(stacks) == 2:
            dets[0] = complex(math.nan, math.nan)
        return dets

    def refine(network, s0, *args, **kwargs):
        rerun.append(s0)
        return real_refine_mode(network, s0, *args, **kwargs)

    monkeypatch.setattr(stability, "_det_stack", det_stack)
    monkeypatch.setattr(stability, "refine_mode", refine)
    scan = mode_scan(net, WB)
    assert stacks[1].size > 1 and len(rerun) == 1
    assert scan == expected


def _det_stack_evaluating(monkeypatch, calls):
    """Patch _det_stack to evaluate its first `calls` stacks and give NaN
    for any later one; returns the first point of every stack it is given."""
    real, points = stability._det_stack, []

    def det_stack(network, s):
        points.append(complex(s[0]))
        if len(points) > calls:
            return np.full(s.shape, complex(math.nan, math.nan))
        return real(network, s)

    monkeypatch.setattr(stability, "_det_stack", det_stack)
    return points


@pytest.mark.parametrize("calls", [0, 3], ids=["at_the_seed", "at_an_iterate"])
def test_refine_mode_gives_up_where_no_nudge_is_evaluable(monkeypatch, calls):
    # each point is tried, then three nudges off it; the seed's three start
    # points are evaluated one at a time
    net = make_rlc_bus(*RLC)
    seed = -400.0 + 3000.0j
    points = _det_stack_evaluating(monkeypatch, calls)
    with pytest.raises(NoConvergenceError) as info:
        refine_mode(net, seed, WB)
    assert len(points) == calls + 4
    if calls == 0:
        assert str(info.value) == f"determinant not evaluable near seed {seed:.6g}"
        assert info.value.partial is None
    else:
        assert str(info.value) == f"determinant not evaluable near iterate {points[3]:.6g}"
        assert info.value.partial == ModeEstimate(
            lam=seed, residual=abs(determinant(assemble_nodal(net, seed))), converged=False,
            iterations=1)


def test_gnc_agrees_with_mode_scan():
    for scr, kp, expect_stable in ((3.0, 0.4, True), (1.0, 0.9, False)):
        net = make_single_gfl(scr=scr, k_p_pll=kp)
        _, verdict = gnc_auto(net)
        scan = mode_scan(net, WB)
        assert verdict.stable == expect_stable
        assert scan.unstable == (not expect_stable)


def test_refine_mode_hits_analytic_roots():
    net = make_rlc_bus(*RLC)
    for root in rlc_bus_modes(*RLC, WB):
        if root.imag <= 0:
            continue
        est = refine_mode(net, root * 1.01 + 10.0, WB)
        assert est.converged
        assert abs(est.lam - root) <= 1e-9 * abs(root)
        assert est.iterations < 20


def test_refine_mode_from_exact_seed_converges_fast():
    net = make_rlc_bus(*RLC)
    root = max(rlc_bus_modes(*RLC, WB), key=lambda r: r.imag)
    est = refine_mode(net, root, WB)
    assert est.converged and est.iterations <= 5
    assert abs(est.lam - root) <= 1e-10 * abs(root)


def test_refine_mode_region_guard():
    net = make_rlc_bus(*RLC)
    with pytest.raises(OutOfRegionError):
        refine_mode(net, 100.0 + 100.0j, WB, region=(-1.0, 1.0, 400.0, 600.0))
    # seed inside, converging iterate must leave the box toward the true root
    with pytest.raises(OutOfRegionError):
        refine_mode(net, -0.5 + 500.0j, WB, region=(-1.0, 1.0, 400.0, 600.0))


def test_refine_mode_reports_partial_on_iteration_cap():
    net = make_rlc_bus(*RLC)
    with pytest.raises(NoConvergenceError) as info:
        refine_mode(net, -400.0 + 3000.0j, WB, max_iterations=2)
    partial = info.value.partial
    assert partial is not None and not partial.converged
    assert partial.iterations == 2


def test_mode_scan_finds_all_analytic_modes():
    net = make_rlc_bus(*RLC)
    scan = mode_scan(net, WB)
    assert not scan.unstable
    expected = sorted((r for r in rlc_bus_modes(*RLC, WB) if r.imag > 0), key=lambda r: r.imag)
    got = sorted((m.lam for m in scan.modes), key=lambda r: r.imag)
    assert len(got) == len(expected)
    for lam, ref in zip(got, expected):
        assert abs(lam - ref) <= 1e-8 * abs(ref)
    for m in scan.modes:
        assert m.frequency_hz == abs(m.lam.imag) / (2 * math.pi)


def test_mode_scan_flags_unstable_converter():
    scan = mode_scan(make_single_gfl(scr=1.0, k_p_pll=0.9), WB)
    assert scan.unstable
    assert max(m.lam.real for m in scan.modes) > 1.0


def test_fd_pf_projector_properties():
    net = make_rlc_bus(*RLC)
    p = fd_pf(net, 1j * 2 * math.pi * 80.0)
    assert np.trace(p.matrix) == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.norm(p.matrix @ p.matrix - p.matrix) <= 1e-9
    assert p.eigenvalues.shape == (2,)
    assert abs(p.critical_value) == np.abs(p.eigenvalues).min()
    assert np.allclose(p.diagonal_by_bus().sum(), 1.0, atol=1e-10)


def test_fd_pf_localizes_on_decoupled_buses():
    # two disconnected buses: the critical eigenvalue lives on one of them
    net = Network(
        buses=("a", "b"),
        devices=(Device("a", "stiff", RlBranch(0.01, 0.1, WB)),
                 Device("b", "weak", RlBranch(0.5, 2.0, WB))),
    )
    p = fd_pf(net, 1j * 2 * math.pi * 60.0)
    shares = p.diagonal_by_bus()
    # the weak (small-admittance) bus holds the smallest eigenvalue
    assert abs(shares[1] - 1.0) <= 1e-12
    assert abs(shares[0]) <= 1e-12
    assert np.array_equal(p.bus_block(1, 1), p.matrix[2:4, 2:4])


def test_fd_pf_reports_ties():
    p = fd_pf(duplicated_rlc(), 1j * 2 * math.pi * 60.0)
    assert len(p.tied_with) >= 1


def test_xi_homogeneity():
    net = make_rlc_bus(*RLC)
    root = max(rlc_bus_modes(*RLC, WB), key=lambda r: r.imag)
    xi = xi_coefficient(net, root, WB)
    xi_scaled = xi_coefficient(scale_all(net, 2.0), root, WB)
    assert xi_scaled == pytest.approx(xi / 2.0, rel=1e-9)


def test_xi_zero_denominator_on_constant_determinant():
    net = Network(buses=("a",), devices=(Device("a", "res", RlBranch(0.5, 0.0, WB)),))
    with pytest.raises(ZeroDenominatorError):
        xi_coefficient(net, -10.0 + 300.0j, WB)


def test_mode_sensitivity_predicts_root_shift():
    # first-order shift of a refined mode under an entrywise perturbation
    net = make_rlc_bus(*RLC)
    root = refine_mode(net, max(rlc_bus_modes(*RLC, WB), key=lambda r: r.imag), WB).lam
    sens = mode_admittance_sensitivity(net, root, WB)
    delta = 1e-5
    for (i, j) in ((0, 0), (0, 1)):
        class Bumped:
            kind = "bumped"

            def __init__(self, inner):
                self.inner = inner

            def admittance(self, s):
                y = self.inner.admittance(s).copy()
                y[i, j] += delta
                return y

        bumped = Network(buses=net.buses,
                         shunts=(Shunt("b1", Bumped(net.shunts[0].model)),),
                         devices=net.devices)
        moved = refine_mode(bumped, root, WB).lam
        predicted = root + sens[i, j] * delta
        assert abs(moved - predicted) <= 1e-3 * abs(moved - root)


def test_mode_sensitivity_is_xi_times_participation():
    net = make_rlc_bus(*RLC)
    root = max(rlc_bus_modes(*RLC, WB), key=lambda r: r.imag)
    sens = mode_admittance_sensitivity(net, root, WB)
    xi = xi_coefficient(net, root, WB)
    p = fd_pf(net, root)
    assert np.allclose(sens, xi * p.matrix, rtol=1e-12)


# --- the paper's weak-grid study on the single-GFL system --------------------
# At SCR 3 the converter is stable for every PLL gain below; at SCR 1.3 a
# mode near 39.5 Hz crosses the j omega axis between k_p,pll 0.70 and 0.71.

@pytest.mark.parametrize("k_p_pll", [0.14, 0.4, 0.66, 1.0, 2.0])
def test_scr_3_is_stable_at_every_pll_gain(k_p_pll):
    net = make_single_gfl(scr=3.0, k_p_pll=k_p_pll)
    _, verdict = gnc_auto(net)
    assert (verdict.encirclements, verdict.stable) == (0, True)
    assert not mode_scan(net, WB).unstable


@pytest.mark.parametrize("k_p_pll, stable", [(0.66, True), (0.71, False), (0.75, False),
                                             (1.0, False)])
def test_scr_1p3_is_unstable_past_the_pll_gain_boundary(k_p_pll, stable):
    net = make_single_gfl(scr=1.3, k_p_pll=k_p_pll)
    _, verdict = gnc_auto(net)
    assert (verdict.encirclements, verdict.stable) == ((0, True) if stable else (-2, False))
    assert mode_scan(net, WB).unstable is not stable


def test_scr_1p3_boundary_lies_between_pll_gains_0p70_and_0p71():
    # bracketed by refine_mode from the 0.66 case's rightmost mode: GNC cannot
    # settle 0.70, whose mode lies 0.07 rad/s from the axis
    modes = mode_scan(make_single_gfl(scr=1.3, k_p_pll=0.66), WB).modes
    seed = max((m.lam for m in modes), key=lambda lam: lam.real)
    assert seed == pytest.approx(-2.640 + 244.12j, abs=5e-3)
    below = refine_mode(make_single_gfl(scr=1.3, k_p_pll=0.70), seed, WB)
    above = refine_mode(make_single_gfl(scr=1.3, k_p_pll=0.71), seed, WB)
    assert below.converged and above.converged
    assert below.lam.real == pytest.approx(-0.070, abs=5e-4)
    assert above.lam.real == pytest.approx(0.541, abs=5e-4)
    assert 39.0 < below.frequency_hz < above.frequency_hz < 40.0
    with pytest.raises(RefineGridError):
        gnc_auto(make_single_gfl(scr=1.3, k_p_pll=0.70))


def test_scr_1p3_crossing_lies_in_the_gfl_non_passive_band():
    gfl = make_single_gfl(scr=1.3, k_p_pll=0.70).devices[0].model
    index = index_sweep(gfl, np.array([2 * math.pi * 39.49])).indices[0]
    assert index == pytest.approx(-1.117, abs=5e-4)


def test_a_non_passive_gfl_on_a_stronger_grid_is_stable():
    # non-passivity does not imply instability: the k_p,pll 0.4 GFL is
    # non-passive over 1-49.66 Hz, yet stable against an SCR 3 grid
    net = make_single_gfl(scr=3.0, k_p_pll=0.4)
    freqs = np.arange(100, 4967) / 100.0
    assert (freqs[0], freqs[-1]) == (1.0, 49.66)
    assert np.all(index_sweep(net.devices[0].model, 2 * math.pi * freqs).indices < 0)
    assert gnc_auto(net)[1].stable
    assert not mode_scan(net, WB).unstable


# The stable PLL-gain window on a weak grid has two edges.  Each row brackets
# both by gnc_auto: (low edge, high edge) in k_p,pll, found by bisection.
WINDOW = [
    (1.1, (0.1317, 0.1337), (0.4165, 0.4229)),
    (1.2, (0.0998, 0.1256), (0.5324, 0.5486)),
    (1.3, (0.0946, 0.0998), (0.6906, 0.7109)),
    (1.5, (0.0751, 0.0772), (3.767, 3.972)),
    (1.8, (0.0565, 0.0581), (4.357, 4.422)),
]


@pytest.mark.parametrize("scr, low, high", WINDOW, ids=[f"scr-{row[0]}" for row in WINDOW])
def test_the_weak_grid_stable_window_has_two_edges(scr, low, high):
    outcomes = [gnc_outcome(gnc_auto, make_single_gfl(scr=scr, k_p_pll=k_p_pll))
                for k_p_pll in (*low, *high)]
    assert outcomes == [(-2, False), (0, True), (0, True), (-2, False)]


# The mode scan misses the low-edge mode at SCR 1.3 and above: its rightmost
# modes there are -99.5+j211.3, -119.1+j230.1 and -147.4+j251.3.  Modes from
# a state-space pencil (ROADMAP item 2b) must turn these xfails into passes.
SCAN_MISSES_LOW_EDGE = pytest.mark.xfail(
    strict=True, reason="the mode scan misses the unstable 16 Hz mode at the low edge")


@pytest.mark.parametrize("scr, k_p_pll", [
    (1.1, 0.1317), (1.2, 0.0998), (1.1, 0.4229), (1.5, 3.972), (1.8, 4.422),
    pytest.param(1.3, 0.0946, marks=SCAN_MISSES_LOW_EDGE),
    pytest.param(1.5, 0.0751, marks=SCAN_MISSES_LOW_EDGE),
    pytest.param(1.8, 0.0565, marks=SCAN_MISSES_LOW_EDGE),
])
def test_the_mode_scan_agrees_with_gnc_past_the_window_edges(scr, k_p_pll):
    net = make_single_gfl(scr=scr, k_p_pll=k_p_pll)
    _, verdict = gnc_auto(net)
    assert not verdict.stable
    assert mode_scan(net, WB).unstable


# --- passivation at SCR 1.3, k_p,pll 1.0, and where the index misleads -------
# The index is read at the unstable mode's frequency; p * d(index)/dp ranks
# the GFL's parameters, and a step in a highly ranked one is tried on the
# mode itself.  Raising the index there stabilizes in two cases, but a
# third raises it further and destabilizes: past the passive region the
# index's value says nothing more about stability.

def _unstable_gfl_case():
    net = make_single_gfl(scr=1.3, k_p_pll=1.0)
    scan = mode_scan(net, WB)
    mode = max(scan.modes, key=lambda m: m.lam.real).lam
    return net, scan, mode


def _with_gfl_param(net, name, factor):
    gfl = net.devices[0].model
    model = gfl.with_param(name, gfl.get_param(name) * factor)
    return model, Network(buses=net.buses, shunts=net.shunts,
                          devices=(Device("poc", "GFL-1", model),))


def test_scr_1p3_at_pll_gain_1_has_an_unstable_mode_in_the_non_passive_band():
    net, scan, mode = _unstable_gfl_case()
    assert scan.unstable
    assert mode == pytest.approx(14.317 + 274.019j, abs=5e-3)
    assert abs(mode.imag) / (2.0 * math.pi) == pytest.approx(43.611, abs=5e-4)
    gfl = net.devices[0].model
    index = index_sweep(gfl, np.array([abs(mode.imag)])).indices[0]
    assert index == pytest.approx(-1.2710, abs=5e-4)


def test_relative_index_sensitivities_rank_the_gfl_parameters():
    net, _, mode = _unstable_gfl_case()
    gfl = net.devices[0].model
    omegas = np.array([abs(mode.imag)])
    expected = {"k_p_pll": -0.7104, "k_p_i": 0.3252, "l_c": 0.2114, "k_i_i": -0.1428,
                "k_i_pll": -0.1007, "t_v": -0.0277}
    rel = {p: gfl.get_param(p) * param_passivity_sensitivity(gfl, p, omegas).derivatives[0]
           for p in gfl.param_names()}
    ranked = sorted(rel, key=lambda p: -abs(rel[p]))
    assert ranked[:len(expected)] == list(expected)
    for p, value in expected.items():
        assert rel[p] == pytest.approx(value, abs=5e-4), p


@pytest.mark.parametrize("param, factor, index, lam", [
    ("k_p_i", 1.5, -1.1655, -22.887 + 333.137j),
    ("t_v", 0.5, -1.1712, -2.929 + 378.356j),
    ("t_v", 2.0, -1.1235, 17.472 + 200.903j),
])
def test_passivation_at_the_mode_frequency(param, factor, index, lam):
    net, _, mode = _unstable_gfl_case()
    model, changed = _with_gfl_param(net, param, factor)
    got = index_sweep(model, np.array([abs(mode.imag)])).indices[0]
    assert got == pytest.approx(index, abs=5e-4)
    est = refine_mode(changed, mode, WB)
    assert est.converged
    assert est.lam == pytest.approx(lam, abs=5e-3)


def test_a_higher_index_can_come_with_a_less_stable_mode():
    # t_v x 2 raises the index above both stabilizing steps, yet its mode
    # moves further right: the caveat of the paper
    net, _, mode = _unstable_gfl_case()
    omegas = np.array([abs(mode.imag)])
    index, re = {}, {}
    for step in (("k_p_i", 1.5), ("t_v", 0.5), ("t_v", 2.0)):
        model, changed = _with_gfl_param(net, *step)
        index[step] = index_sweep(model, omegas).indices[0]
        re[step] = refine_mode(changed, mode, WB).lam.real
    stabilizing = [("k_p_i", 1.5), ("t_v", 0.5)]
    assert all(re[step] < 0.0 for step in stabilizing)
    assert index["t_v", 2.0] > max(index[step] for step in stabilizing)
    assert re["t_v", 2.0] > mode.real > 0.0
