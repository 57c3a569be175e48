"""Stacked evaluation against one-s-at-a-time evaluation.

Every admittance, assembly and sweep takes a 1-D array of s.  Element k of
a stacked result must equal the result for s_k alone to the bit (RTOL = 0),
because the stacked arithmetic rounds as Python's scalar complex arithmetic
does (devices._cmul, devices._div): the published outputs and the
benchmark's reference values were computed one s at a time.  The stacked
general eigensolver and inverse must give each matrix the bits it gets
alone, and the GNC tracker must make the decisions the step-by-step loop
makes.  The sweeps and GNC must not depend on how their grid is split into
chunks or blocks or spread over worker threads.  The lockstep mode scan
must return what refine_mode from one seed after another returns, to the
bit, and raise what it raises.  The SVD adjugate and the mode
sensitivities built on it must match the cofactor/LU oracle at the modes
to 1e-12 relative.
"""

import gc
import importlib.util
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fdpassivity import io_cli, network, passivity, stability
from fdpassivity.devices import (
    DeviceModel,
    GflConverterL1,
    GflParams,
    GfmConverterL1,
    GfmParams,
    OperatingPoint,
    RlBranch,
    ShuntCapacitor,
    TheveninGrid,
    combine,
    param_derivative,
    rl_impedance,
    sample_model,
)
from fdpassivity.errors import (
    NoConvergenceError,
    NonFiniteError,
    NotHermitianError,
    NumericalFailure,
    OutOfRangeError,
    SingularMatrixError,
)
from fdpassivity.network import (
    Device,
    Network,
    assemble_devices,
    assemble_net,
    assemble_nodal,
    components,
    nodal_index_sweep,
    nodal_passivity_sweep,
)
from fdpassivity.numerics import (
    adjugate,
    determinant,
    eigenvalues,
    general_eigen,
    hermitian_eigen,
    hermitian_eigenvalues,
    inverse,
)
from fdpassivity.passivity import (
    eigenvalue_blocks,
    frequency_blocks,
    frequency_chunks,
    hermitian_part,
    log_omega_grid,
)
from fdpassivity.stability import (
    _track_loci,
    gnc,
    gnc_auto,
    loop_gain,
    mode_admittance_sensitivity,
    mode_scan,
    refine_mode,
)

from conftest import WB, make_single_gfl, make_three_bus, random_passive_network
from oracles import (
    adjugate_cofactor,
    gnc_auto_doubling,
    mode_scan_sequential,
    track_loci_sequential,
)

RTOL = 0.0  # relative, per element: bit-identical

positive = st.floats(0.01, 10.0)
freqs_hz = st.lists(st.floats(0.1, 5000.0), min_size=1, max_size=12)
sigmas = st.lists(st.floats(-300.0, 300.0), min_size=12, max_size=12)


def op_point(p, q, v):
    return OperatingPoint.from_terminal(p, q, v, WB)


MODELS = {
    "rl": st.builds(RlBranch, positive, positive, st.just(WB)),
    "shunt_c": st.builds(ShuntCapacitor, positive, st.just(WB)),
    "thevenin": st.builds(TheveninGrid, st.floats(0.5, 50.0), st.floats(0.5, 20.0), st.just(WB)),
    "gfl_l1": st.builds(
        GflConverterL1,
        st.builds(GflParams, l_c=st.floats(0.05, 0.3), r_c=st.floats(0.005, 0.05),
                  k_p_i=st.floats(0.2, 2.0), k_i_i=st.floats(5.0, 80.0),
                  k_p_pll=st.floats(0.05, 2.0), k_i_pll=st.floats(5.0, 80.0),
                  t_v=st.floats(0.0005, 0.01)),
        st.builds(op_point, st.floats(-1.0, 1.0), st.floats(-0.5, 0.5), st.floats(0.9, 1.1))),
    "gfm_l1": st.builds(
        GfmConverterL1,
        st.builds(GfmParams, h_vsm=st.floats(0.5, 10.0), d_vsm=st.floats(20.0, 500.0),
                  l_v=st.floats(0.05, 0.5), r_v=st.floats(0.01, 0.3)),
        st.builds(op_point, st.floats(-1.0, 1.0), st.floats(-0.5, 0.5), st.floats(0.9, 1.1))),
}


def assert_rows_match(stacked, one_at_a_time):
    for k, ref in enumerate(one_at_a_time):
        scale = max(np.abs(ref).max(), 1e-300)
        assert stacked[k].shape == ref.shape
        assert np.abs(stacked[k] - ref).max() <= RTOL * scale


@pytest.mark.parametrize("kind", sorted(MODELS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_stacked_admittance_matches_scalar(kind, data):
    model = data.draw(MODELS[kind])
    f = np.array(data.draw(freqs_hz))
    sigma = np.array(data.draw(sigmas))[:f.size]
    signs = np.where(np.arange(f.size) % 3 == 2, -1.0, 1.0)
    for s in (1j * 2 * math.pi * f * signs, sigma + 1j * 2 * math.pi * f):
        y = model.admittance(s)
        assert y.shape == (s.size, 2, 2)
        assert_rows_match(y, [model.admittance(complex(sk)) for sk in s])
        assert_rows_match(y, [model.admittance(sk) for sk in s])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_stacked_blackbox_matches_scalar(data):
    bb = sample_model(data.draw(MODELS["gfl_l1"]), np.geomspace(1.0, 2000.0, 60))
    f = np.clip(np.array(data.draw(freqs_hz)), 1.0, 2000.0)
    s = 1j * 2 * math.pi * f * np.where(np.arange(f.size) % 2 == 1, -1.0, 1.0)
    assert_rows_match(bb.admittance(s), [bb.admittance(complex(sk)) for sk in s])


@pytest.mark.parametrize("kind", ["rl", "thevenin", "gfl_l1", "gfm_l1"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_stacked_param_derivative_matches_scalar(kind, data):
    model = data.draw(MODELS[kind])
    s = 1j * 2 * math.pi * np.array(data.draw(freqs_hz))
    for name in model.param_names()[:3]:
        d = param_derivative(model, name, s)
        assert_rows_match(d, [param_derivative(model, name, complex(sk)) for sk in s])


def network_with_converters(seed: int) -> Network:
    rng = np.random.default_rng(seed)
    net = random_passive_network(rng, int(rng.integers(1, 7)))
    gfl = GflConverterL1(GflParams(k_p_pll=float(rng.uniform(0.1, 1.0))),
                         OperatingPoint.from_terminal(0.6, 0.1, 1.0, WB))
    gfm = GfmConverterL1(GfmParams(d_vsm=float(rng.uniform(50.0, 400.0))),
                         OperatingPoint.from_terminal(-0.3, 0.05, 1.0, WB))
    extra = tuple(Device(net.buses[int(rng.integers(len(net.buses)))], name, m)
                  for name, m in (("gfl", gfl), ("gfm", gfm)))
    return Network(buses=net.buses, branches=net.branches, shunts=net.shunts,
                   devices=net.devices + extra)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), f=freqs_hz)
def test_stacked_assembly_matches_scalar(seed, f):
    net = network_with_converters(seed)
    s = 1j * 2 * math.pi * np.array(f)
    for assemble in (assemble_nodal, assemble_net, assemble_devices):
        y = assemble(net, s)
        assert y.shape == (s.size, 2 * net.n_buses, 2 * net.n_buses)
        assert_rows_match(y, [assemble(net, complex(sk)) for sk in s])


def test_guards_raise_for_any_element_of_a_stack(gfl_model):
    s = 1j * 2 * math.pi * np.array([5.0, 50.0, 500.0])
    for model in (gfl_model, GfmConverterL1(GfmParams(), OperatingPoint.from_terminal(
            -0.35, 0.1, 1.0, WB))):
        with pytest.raises(NonFiniteError):
            model.admittance(np.append(s, 0.0))
    # 2 H s + D = 0 at s = -50 for H = 3, D = 300: the swing term vanishes
    gfm = GfmConverterL1(GfmParams(h_vsm=3.0, d_vsm=300.0),
                         OperatingPoint.from_terminal(-0.35, 0.1, 1.0, WB))
    with pytest.raises(SingularMatrixError):
        gfm.admittance(np.insert(s, 1, -50.0))
    # a pure inductance is singular in the dq frame at s = j omega_b
    with pytest.raises(SingularMatrixError):
        RlBranch(0.0, 0.5, WB).admittance(np.append(s, 1j * WB))


def combined_rl():
    # a line and a pure inductance merged into one evaluator: it takes
    # s[..., None] and refuses the (M, C) elements where an impedance is singular
    ((model, _, merged),) = combine([RlBranch(0.086, 0.69, WB), RlBranch(0.0, 0.5, WB)])
    assert merged
    return lambda s: model.admittance(s[..., None])


GFL_OP, GFM_OP = op_point(0.7, 0.2, 1.0), op_point(-0.35, 0.1, 1.0)

# guard -> (an evaluator of a stack, the one point of the stack it refuses,
#   its error, its message)
GUARDS = {
    # 1 + s t_v = 0 at s = -1 / t_v: the voltage filter's divisor vanishes
    "div": (lambda: GflConverterL1(GflParams(), GFL_OP).admittance, -500.0,
            NonFiniteError, "complex division by zero"),
    "inv2": (lambda: RlBranch(0.0, 0.5, WB).admittance, 1j * WB,
             SingularMatrixError, "RL impedance is singular"),
    "inv2_combined": (combined_rl, 1j * WB, SingularMatrixError, "RL impedance is singular"),
    "gfl_s0": (lambda: GflConverterL1(GflParams(), GFL_OP).admittance, 0.0,
               NonFiniteError, "pure integrators"),
    "gfm_s0": (lambda: GfmConverterL1(GfmParams(), GFM_OP).admittance, 0.0,
               NonFiniteError, "angle integrator"),
    # 2 H s + D = 0 at s = -50 for H = 3, D = 300
    "gfm_swing": (lambda: GfmConverterL1(GfmParams(h_vsm=3.0, d_vsm=300.0), GFM_OP).admittance,
                  -50.0, SingularMatrixError, "swing dynamics"),
    # with H = 2 the power loop's 1 + a v0^T u rounds to exactly 0 at this
    # real s, a float next to its root near -4.4546 rad/s
    "gfm_power_loop": (lambda: GfmConverterL1(GfmParams(h_vsm=2.0), GFM_OP).admittance,
                       -4.454597938543726, SingularMatrixError, "power loop"),
}


@pytest.mark.parametrize("guard", GUARDS)
def test_each_guard_names_exactly_the_points_it_refuses(guard):
    make, bad, error, message = GUARDS[guard]
    evaluate = make()
    s = np.insert(1j * 2 * math.pi * np.array([5.0, 50.0, 500.0, 5000.0]), 2, bad)
    with pytest.raises(error, match=message) as info:
        evaluate(s)
    points = np.asarray(info.value.points)
    assert points.shape[0] == s.size
    assert np.flatnonzero(points.reshape(s.size, -1).any(axis=1)).tolist() == [2]
    with pytest.raises(error, match=message):  # the point alone is refused as well
        evaluate(s[2:3])


@pytest.mark.parametrize("guard", [g for g in GUARDS if g != "inv2_combined"])
def test_each_guard_refuses_a_scalar_s_as_it_refuses_a_stack(guard):
    # one refusal path: the Python scalar takes the stack's class and
    # message, and its points are set (the combined evaluator takes a stack)
    make, bad, error, message = GUARDS[guard]
    with pytest.raises(error, match=message) as info:
        make()(complex(bad))
    assert np.all(info.value.points)


def test_a_divisor_without_the_s_axis_names_every_point():
    # a base frequency of 0 rad/s divides every s by zero: the mask is
    # broadcast to the quotient, so its leading axis is still the s axis
    s = 1j * np.array([1.0, 2.0, 3.0])
    with pytest.raises(NonFiniteError) as info:
        rl_impedance(0.1, 0.5, s, 0.0)
    assert info.value.points.shape == s.shape and info.value.points.all()


def test_hermitian_eigen_checks_every_matrix_of_a_stack():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    h = a + np.swapaxes(a.conj(), -1, -2)
    eig = hermitian_eigen(h)
    for k in range(4):
        one = hermitian_eigen(h[k])
        assert np.array_equal(eig.values[k], one.values)
        assert np.array_equal(eig.min_vector[k], one.min_vector)
        assert eig.min_value[k] == one.min_value and eig.eigen_gap[k] == one.eigen_gap
    bad = h.copy()
    bad[2, 0, 1] += 1.0
    with pytest.raises(NotHermitianError):
        hermitian_eigen(bad)
    bad = h.copy()
    bad[3, 1, 1] = np.nan
    with pytest.raises(NonFiniteError):
        hermitian_eigen(bad)


def converter_network_with_loads() -> Network:
    net = network_with_converters(7)
    return Network(buses=net.buses + tuple(f"x{k}" for k in range(10)), branches=net.branches,
                   shunts=net.shunts, devices=net.devices
                   + tuple(Device(f"x{k}", f"load{k}", RlBranch(0.1 + 0.01 * k, 0.5, WB))
                           for k in range(10)))


def small_chunks(monkeypatch, net: Network, om: np.ndarray) -> list[slice]:
    """Blocks of 7 points, so that every chunk of the grid holds several."""
    n = 2 * net.n_buses
    monkeypatch.setattr(passivity, "BLOCK_BYTES", 16 * n * n * 7)
    chunks = frequency_chunks(om.size, 64 * len(components(net)))
    assert len(chunks) >= 3
    assert all(len(frequency_blocks(c.stop - c.start, n)) >= 3 for c in chunks[:-1])
    return chunks


def test_multi_block_nodal_sweep_same_bits_for_any_thread_count(monkeypatch):
    net = converter_network_with_loads()
    om = log_omega_grid(1.0, 2000.0, 200)
    small_chunks(monkeypatch, net, om)
    sweeps = []
    for threads in ("1", "2"):
        monkeypatch.setenv("PASSIVITY_THREADS", threads)
        sweeps.append(nodal_passivity_sweep(net, om))
    one, two = sweeps
    for field in ("indices", "eigen_gaps", "spectra", "min_vectors", "degenerate"):
        assert np.array_equal(getattr(one, field), getattr(two, field)), field
    # and a row does not depend on the chunk or block it was computed in
    for k, w in enumerate(om):
        h = hermitian_part(assemble_nodal(net, 1j * w))
        eig = hermitian_eigen(h)
        assert np.array_equal(eig.values, one.spectra[k])
        assert np.array_equal(eig.min_vector, one.min_vectors[k])
        assert eig.degenerate == one.degenerate[k]


def test_nodal_sweep_evaluates_admittances_once_per_chunk(monkeypatch):
    net = converter_network_with_loads()
    om = log_omega_grid(1.0, 2000.0, 200)
    chunks = small_chunks(monkeypatch, net, om)
    monkeypatch.setenv("PASSIVITY_THREADS", "1")
    evaluated, assembled = [], []
    for cls in {type(ref.model) for ref in components(net)}:
        monkeypatch.setattr(cls, "admittance", lambda self, s, f=cls.admittance:
                            evaluated.append(np.size(s)) or f(self, s))
    assemble_nodal(net, 1j)
    per_s = len(evaluated)  # admittance calls per assembly
    evaluated.clear()
    assemble = network.assemble_nodal
    monkeypatch.setattr(network, "assemble_nodal", lambda net_, s, **kw:
                        assembled.append(np.size(s)) or assemble(net_, s, **kw))
    nodal_passivity_sweep(net, om)
    sizes = [len(range(om.size)[c]) for c in chunks]
    assert evaluated == [m for m in sizes for _ in range(per_s)]
    # each block still assembles through assemble_nodal
    assert assembled == [len(range(m)[b]) for m in sizes
                         for b in frequency_blocks(m, 2 * net.n_buses)]


def test_assemble_nodal_takes_or_rejects_evaluated_values():
    net = make_three_bus()
    s = 1j * 2 * math.pi * np.array([5.0, 50.0, 500.0])
    values = [network._evaluate(part.evaluators, s) for part in net._parts]
    assert np.array_equal(assemble_nodal(net, s, values=values), assemble_nodal(net, s))
    for bad in (values[:2], [v[:2] for v in values]):
        with pytest.raises(ValueError):
            assemble_nodal(net, s, values=bad)


def test_nodal_sweep_memory_stays_within_a_block_of_its_output(monkeypatch):
    monkeypatch.setenv("PASSIVITY_THREADS", "1")
    net = random_passive_network(np.random.default_rng(3), 40)
    om = log_omega_grid(1.0, 2000.0, 200)
    assert len(frequency_chunks(om.size, 64 * len(components(net)))) >= 3
    tracemalloc.start()
    try:
        spec = nodal_passivity_sweep(net, om)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = spec.spectra.nbytes + spec.min_vectors.nbytes + spec.degenerate.nbytes
    # the rows, once per block and once joined, plus the chunk's admittances
    # and one block's working set: its Y_n and H stacks, their temporaries
    # and eigenvectors.  A chunk's whole Y_n stack alone would take 8
    # BLOCK_BYTES, and keeping a finished block's arrays through the next
    # one about 2 more.
    assert peak < 2 * out + 4 * passivity.BLOCK_BYTES


@pytest.fixture(scope="module")
def ladder(tmp_path_factory) -> io_cli.Scenario:
    """The benchmark's seeded 40-bus ladder: 80x80 matrices, 400 points."""
    inputs = load_bench_inputs()
    path = tmp_path_factory.mktemp("ladder") / "ladder.json"
    inputs.write_scenario(path, inputs.ladder_scenario(inputs.DEFAULT_SEED))
    return io_cli.load_scenario(path)


@pytest.mark.parametrize("name", ["single_gfl", "three_bus", "ladder"])
def test_index_sweep_matches_eigenpair_sweep_to_roundoff(request, name):
    if name == "ladder":
        sc = request.getfixturevalue("ladder")
    else:
        sc = io_cli.load_scenario(io_cli.fixture_path(f"{name}.json"))
    sweep = nodal_index_sweep(sc.network, sc.omegas)
    spec = nodal_passivity_sweep(sc.network, sc.omegas)
    assert np.array_equal(sweep.omegas, spec.omegas)
    tol = 1e-14 * np.abs(spec.spectra).max(axis=1)
    assert np.all(np.abs(sweep.indices - spec.indices) <= tol)
    assert np.all(np.abs(sweep.eigen_gaps - spec.eigen_gaps) <= tol)


def test_multi_block_index_sweep_same_bits_for_any_thread_count(monkeypatch):
    net = converter_network_with_loads()
    om = log_omega_grid(1.0, 2000.0, 200)
    small_chunks(monkeypatch, net, om)  # below the index block floor at n = 32
    sweeps = []
    for threads in ("1", "2"):
        monkeypatch.setenv("PASSIVITY_THREADS", threads)
        sweeps.append(nodal_index_sweep(net, om))
    one, two = sweeps
    assert np.array_equal(one.indices, two.indices)
    assert np.array_equal(one.eigen_gaps, two.eigen_gaps)
    # and a row does not depend on the chunk or block it was computed in
    for k, w in enumerate(om):
        values = hermitian_eigenvalues(hermitian_part(assemble_nodal(net, 1j * w)))
        assert one.indices[k] == values[0]
        assert one.eigen_gaps[k] == values[1] - values[0]


def test_index_blocks_hold_enough_rows_to_release_the_gil(monkeypatch, ladder):
    monkeypatch.setenv("PASSIVITY_THREADS", "1")
    rows = []
    solve = network.hermitian_eigenvalues
    monkeypatch.setattr(network, "hermitian_eigenvalues",
                        lambda h: rows.append(h.shape) or solve(h))
    nodal_index_sweep(ladder.network, ladder.omegas)
    assert {shape[1:] for shape in rows} == {(80, 80)}
    assert sum(shape[0] for shape in rows) == ladder.omegas.size
    assert min(shape[0] for shape in rows) >= 7  # 500 // 80 + 1
    for points in (0, 1, 5, 6, 7, 13, 40, 41, 400):
        sizes = [len(range(points)[b]) for b in eigenvalue_blocks(points, 80)]
        assert sum(sizes) == points
        assert min(sizes) >= min(points, 7)
    # where frequency_blocks already hold enough rows, they are kept
    for n in (2, 6, 12, 20):
        for points in (0, 1, 25, 26, 81, 100, 400):
            assert eigenvalue_blocks(points, n) == frequency_blocks(points, n)


def test_gnc_blocks_hold_enough_rows_to_release_the_gil(monkeypatch, ladder):
    monkeypatch.setenv("PASSIVITY_THREADS", "1")
    rows = []
    solve = stability.eigenvalues
    monkeypatch.setattr(stability, "eigenvalues", lambda a: rows.append(a.shape) or solve(a))
    values = stability._loop_gain_eigenvalues(ladder.network, ladder.omegas)
    assert values.shape == (ladder.omegas.size, 80)
    assert {shape[1:] for shape in rows} == {(80, 80)}
    assert sum(shape[0] for shape in rows) == ladder.omegas.size
    assert min(shape[0] for shape in rows) >= 7  # 500 // 80 + 1


def complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), count=st.integers(1, 6), n=st.integers(1, 20),
       tie=st.booleans())
def test_stacked_general_eigen_and_inverse_match_one_at_a_time(seed, count, n, tie):
    rng = np.random.default_rng(seed)
    a = complex_normal(rng, (count, n, n))
    if tie:  # repeated eigenvalues: the sort falls back to the original index
        a[-1] = np.diag(rng.integers(1, 3, n).astype(complex))
    eig, inv, values = general_eigen(a), inverse(a), eigenvalues(a)
    assert eig.defective.shape == (count,)
    assert np.array_equal(values, eig.values)
    for k in range(count):
        one = general_eigen(a[k])
        for field in ("values", "right", "left"):
            assert np.array_equal(getattr(eig, field)[k], getattr(one, field)), field
        assert eig.defective[k] == one.defective
        assert np.array_equal(inv[k], inverse(a[k]))
        assert np.array_equal(eigenvalues(a[k]), one.values)


def test_eigenvalues_of_80x80_loop_gains_match_general_eigen_to_tolerance():
    # without Schur vectors LAPACK may round these differently
    net = random_passive_network(np.random.default_rng(5), 40)
    l = loop_gain(net, 1j * 2 * math.pi * np.array([0.3, 7.0, 45.0, 700.0]))
    assert l.shape[-1] == 80
    ref = general_eigen(l).values
    err = np.abs(eigenvalues(l) - ref) / np.abs(ref).max(axis=1, keepdims=True)
    assert err.max() <= 1e-14


@given(f_min=st.floats(1e-3, 1e3), decades=st.floats(1e-6, 8.0), n=st.integers(2, 2000))
def test_doubled_log_grid_nests_the_coarse_grid(f_min, decades, n):
    f_max = f_min * 10.0 ** decades
    assume(f_max > f_min)
    fine = log_omega_grid(f_min, f_max, 2 * n - 1)
    assert np.array_equal(fine[::2], log_omega_grid(f_min, f_max, n))


def test_stacked_general_eigen_flags_only_the_defective_matrix():
    a = complex_normal(np.random.default_rng(3), (3, 2, 2))
    a[1] = [[1.0, 1.0], [0.0, 1.0]]  # Jordan block
    eig = general_eigen(a)
    assert eig.defective.tolist() == [False, True, False]
    assert np.array_equal(eig.left[1], np.linalg.pinv(eig.right[1]))
    for k in (0, 2):
        assert np.array_equal(eig.left[k], np.linalg.inv(eig.right[k]))


def test_inverse_raises_for_one_singular_matrix_of_a_stack():
    a = complex_normal(np.random.default_rng(4), (4, 3, 3))
    for k in range(4):
        inverse(a[k])
    a[2, :, 2] = a[2, :, 0] + 2.0 * a[2, :, 1]
    with pytest.raises(SingularMatrixError):
        inverse(a)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**31), m=st.integers(1, 4), k=st.integers(2, 40),
       kind=st.sampled_from(["crossing", "noise", "ties"]), block=st.integers(1, 8))
def test_vectorised_tracking_matches_step_by_step(seed, m, k, kind, block):
    rng = np.random.default_rng(seed)
    if kind == "crossing":  # straight tracks that cross, sampled coarsely
        start, end = complex_normal(rng, m), complex_normal(rng, m)
        values = start + np.linspace(0.0, 1.0, k)[:, None] * (end - start)
    elif kind == "noise":  # jumps of the order of the spacing: many ambiguous steps
        values = complex_normal(rng, (k, m))
    else:  # a lattice: repeated eigenvalues and exact distance ties
        values = rng.integers(-2, 3, (k, m)) + 1j * rng.integers(-2, 3, (k, m))
    values = np.take_along_axis(values, np.argsort(rng.random((k, m)), axis=1), axis=1)
    with pytest.MonkeyPatch.context() as mp:  # steps decided a few at a time
        mp.setattr(passivity, "BLOCK_BYTES", 16 * m * m * block)
        assert np.array_equal(_track_loci(values), track_loci_sequential(list(values)))


def test_tracking_memory_does_not_grow_with_k_m_squared():
    k, m = 2001, 32
    rng = np.random.default_rng(7)
    values = np.cumsum(0.01 * complex_normal(rng, (k, m)), axis=0) + np.arange(m)
    tracemalloc.start()
    try:
        _track_loci(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a whole-grid distance table alone would take 16 * k * m * m = 33 MB
    assert peak < 4 * values.nbytes + 2 * passivity.BLOCK_BYTES


def test_multi_block_gnc_same_bits_for_any_thread_count(monkeypatch):
    net = make_single_gfl(scr=1.3, k_p_pll=0.4)
    om = log_omega_grid(0.01, 1e4, 800)
    whole_loci, whole_verdict = gnc(net, om)
    monkeypatch.setattr(passivity, "BLOCK_BYTES", 64 * 100)  # 100 2x2 matrices a block
    monkeypatch.setattr(passivity, "EIGVALSH_GIL_ELEMENTS", 0)  # and no row floor
    assert len(eigenvalue_blocks(om.size, 2 * net.n_buses)) == 8
    for threads in ("1", "2"):
        monkeypatch.setenv("PASSIVITY_THREADS", threads)
        loci, verdict = gnc(net, om)
        assert np.array_equal(loci.loci, whole_loci.loci)
        assert verdict == whole_verdict


def test_gnc_calls_loop_gain_once_per_block(monkeypatch):
    sizes = []
    loop_gain = stability.loop_gain
    monkeypatch.setattr(stability, "loop_gain",
                        lambda net, s: sizes.append(np.size(s)) or loop_gain(net, s))
    monkeypatch.setattr(passivity, "BLOCK_BYTES", 64 * 100)
    monkeypatch.setattr(passivity, "EIGVALSH_GIL_ELEMENTS", 0)
    gnc(make_single_gfl(), log_omega_grid(0.01, 1e4, 800))
    assert sizes == [100] * 8


@pytest.mark.parametrize("assemble", [assemble_devices, assemble_net, assemble_nodal, loop_gain])
def test_empty_stack_gives_empty_stack(assemble):
    net = make_three_bus()
    assert assemble(net, np.array([], dtype=complex)).shape == (0, 6, 6)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), count=st.integers(0, 6), n=st.integers(1, 6),
       bad=st.integers(0, 5), value=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_stacked_determinant_matches_one_at_a_time(seed, count, n, bad, value):
    a = complex_normal(np.random.default_rng(seed), (count, n, n))
    det = determinant(a)
    assert det.shape == (count,)
    for k in range(count):
        assert det[k] == determinant(a[k])
    if count:
        a[bad % count, n - 1, 0] = value
        with pytest.raises(NonFiniteError):
            determinant(a)


def load_bench_inputs():
    spec = importlib.util.spec_from_file_location(
        "bench_inputs_readonly", Path(__file__).resolve().parent.parent / "bench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


def stability_ladder(tmp_path, seed: int) -> io_cli.Scenario:
    """The benchmark's seeded stability-study ladder (10 buses)."""
    inputs = load_bench_inputs()
    path = tmp_path / f"ladder{seed}.json"
    inputs.write_scenario(path, inputs.ladder_scenario(seed, inputs.STABILITY_LADDER_BUSES))
    return io_cli.load_scenario(path)


CRITERION_8 = [(scr, kp) for scr in (3.0, 1.3) for kp in (0.14, 0.4, 0.66)]


@pytest.mark.parametrize("scr, k_p_pll", CRITERION_8)
def test_lockstep_mode_scan_matches_sequential_criterion_8(scr, k_p_pll):
    net = make_single_gfl(scr=scr, k_p_pll=k_p_pll)
    assert mode_scan(net, WB) == mode_scan_sequential(net, WB)


def test_lockstep_mode_scan_matches_sequential_fixtures():
    for name in ("single_gfl", "three_bus"):
        sc = io_cli.load_scenario(io_cli.fixture_path(f"{name}.json"))
        opts = sc.analyses["modes"]
        ranges = dict(re_range=(opts["re_min"], opts["re_max"]),
                      im_range=(0.0, 2.0 * math.pi * opts["f_max_hz"]))
        scan = mode_scan(sc.network, sc.omega_b, **ranges)
        assert scan.modes
        assert scan == mode_scan_sequential(sc.network, sc.omega_b, **ranges)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lockstep_mode_scan_matches_sequential_ladder(tmp_path, seed):
    sc = stability_ladder(tmp_path, seed)
    assert mode_scan(sc.network, sc.omega_b) == mode_scan_sequential(sc.network, sc.omega_b)


def test_gnc_auto_agrees_with_plain_doubling_ladder(tmp_path):
    # the ladder refines near its critical point, as the criterion-8 cases do
    net = stability_ladder(tmp_path, 1).network
    loci, verdict = gnc_auto(net)
    _, ref = gnc_auto_doubling(net)
    assert loci.omegas.size > 800
    assert (verdict.encirclements, verdict.stable) == (ref.encirclements, ref.stable)


def test_adjugate_matches_oracle_at_ladder_modes(tmp_path):
    sc = stability_ladder(tmp_path, 1)
    modes = mode_scan(sc.network, sc.omega_b).modes
    assert modes
    for m in modes:
        y = assemble_nodal(sc.network, m.lam)
        ref = adjugate_cofactor(y)
        assert np.linalg.norm(adjugate(y) - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("scr, k_p_pll", CRITERION_8)
def test_mode_sensitivity_matches_oracle_adjugate_criterion_8(monkeypatch, scr, k_p_pll):
    net = make_single_gfl(scr=scr, k_p_pll=k_p_pll)
    modes = mode_scan(net, WB).modes
    assert modes
    sens = [mode_admittance_sensitivity(net, m.lam, WB) for m in modes]
    monkeypatch.setattr(stability, "adjugate", adjugate_cofactor)
    for m, got in zip(modes, sens):
        ref = mode_admittance_sensitivity(net, m.lam, WB)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


@settings(max_examples=20, deadline=None)
@given(n_re=st.integers(1, 4), n_im=st.integers(1, 4), re_lo=st.floats(-700.0, 100.0),
       re_width=st.floats(0.0, 800.0), im_lo=st.floats(0.0, 1000.0),
       im_width=st.floats(0.0, 4000.0))
@example(n_re=2, n_im=3, re_lo=-500.0, re_width=700.0, im_lo=0.0, im_width=3000.0)
@example(n_re=1, n_im=1, re_lo=5e-250, re_width=0.0, im_lo=5e-250, im_width=0.0)
@example(n_re=3, n_im=2, re_lo=-300.0, re_width=600.0, im_lo=0.0, im_width=3000.0)
def test_lockstep_mode_scan_matches_sequential_on_any_grid(n_re, n_im, re_lo, re_width,
                                                           im_lo, im_width):
    # re_lo = -500 puts a seed on the voltage filter pole s = -1 / t_v
    net = make_single_gfl(scr=1.3, k_p_pll=0.66)
    ranges = dict(re_range=(re_lo, re_lo + re_width), im_range=(im_lo, im_lo + im_width),
                  n_re=n_re, n_im=n_im)

    def outcome(scan):
        # a seed within about 1e-150 of s = 0 overflows the PLL's 1/s;
        # refine_mode steps off it as off an exact s = 0, and both scans
        # must end alike
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                return scan(net, WB, **ranges)
        except NumericalFailure as exc:
            return type(exc), str(exc)

    assert outcome(mode_scan) == outcome(mode_scan_sequential)


def test_refine_mode_steps_off_a_seed_where_y_n_overflows():
    # Y_n has non-finite entries at 5.26e-250 (1 + j), where the PLL's k_i/s
    # overflows: the search steps off it as off the exact s = 0, where the
    # model's guard raises, and both seeds end alike
    net = make_single_gfl(scr=1.3, k_p_pll=0.66)
    ends = []
    for s0 in (5.26e-250 + 5.26e-250j, 0j):
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                ends.append(refine_mode(net, s0, WB))
            except NoConvergenceError as exc:
                ends.append(exc.partial)
    assert ends[0] == ends[1]


def test_lockstep_reruns_a_seed_on_a_model_pole_alone(monkeypatch):
    seeds = []
    refine_mode = stability.refine_mode
    monkeypatch.setattr(stability, "refine_mode",
                        lambda net, s0, *args, **kw: seeds.append(s0) or refine_mode(
                            net, s0, *args, **kw))
    mode_scan(make_single_gfl(), WB)
    assert seeds == [complex(-1.0 / GflParams().t_v, 0.0)]


def recorded_assembly(monkeypatch) -> list:
    """The s of every assemble_nodal call stability makes from now on."""
    calls = []
    assemble = stability.assemble_nodal
    monkeypatch.setattr(stability, "assemble_nodal",
                        lambda net, s: calls.append(s) or assemble(net, s))
    return calls


def test_det_stack_assembles_the_first_stack_again_without_its_pole(monkeypatch):
    # the default scan's seed -500 + 0j sits on the GFL voltage filter pole
    # s = -1 / t_v: its error names that point, and one more assembly
    # evaluates the other 230; the bisection took 17
    net = make_single_gfl()
    stacks = []
    det_stack = stability._det_stack
    monkeypatch.setattr(stability, "_det_stack",
                        lambda net, s: stacks.append(s) or det_stack(net, s))
    mode_scan(net, WB)
    monkeypatch.undo()
    s = stacks[0]
    calls = recorded_assembly(monkeypatch)
    dets = stability._det_stack(net, s)
    assert [np.size(c) for c in calls] == [231, 230]
    assert s[~np.isfinite(dets)].tolist() == [complex(-1.0 / GflParams().t_v, 0.0)]
    assert np.isnan(dets[s == -500.0]).all()
    monkeypatch.undo()
    for sk, det in zip(s, dets):
        if sk != -500.0:
            assert det == determinant(assemble_nodal(net, complex(sk)))


def test_det_stack_refuses_exactly_the_points_refused_alone_on_three_bus(monkeypatch):
    # s = 0: the GFMs' angle integrators; -50: their swing pole (H = 3,
    # D = 300); -500: the GFL voltage filter pole; 5.26e-250 (1 + j): the
    # PLL's k_i / s overflows, so Y_n has non-finite entries and no error
    net = make_three_bus()
    s = np.array([2j * math.pi * 40.0, 0.0, -30.0 + 200.0j, -50.0, 1.0 + 1.0j, -500.0,
                  5.26e-250 * (1.0 + 1.0j), -400.0 + 3000.0j])
    bad = [1, 3, 5, 6]
    calls = recorded_assembly(monkeypatch)
    with np.errstate(over="ignore", invalid="ignore"):
        dets = stability._det_stack(net, s)
    assert len(calls) <= len(bad) + 1
    assert np.flatnonzero(np.isnan(dets)).tolist() == bad
    assert np.isfinite(np.delete(dets, bad)).all()
    monkeypatch.undo()
    for k, sk in enumerate(s):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                y = assemble_nodal(net, complex(sk))
        except stability.NOT_EVALUABLE:
            assert k in bad
            continue
        if k in bad:
            assert not np.isfinite(y).all()
        else:
            assert dets[k] == determinant(y)


class UnnamedRefusal(DeviceModel):
    """A device that refuses every s with a SingularMatrixError naming no points."""

    def admittance(self, s):
        raise SingularMatrixError("refused without naming a point")


class BrokenModel(DeviceModel):
    """A device whose evaluation fails with an error no guard raises."""

    def admittance(self, s):
        raise ValueError("a model bug")


def test_det_stack_raises_a_refusal_that_names_no_points():
    # a stack cannot tell which of its points such an error refuses; one
    # point evaluated alone is refused by it
    net = Network(buses=("b",), devices=(Device("b", "x", UnnamedRefusal()),))
    with pytest.raises(SingularMatrixError, match="without naming a point"):
        stability._det_stack(net, np.array([1j, 2j]))
    assert np.isnan(stability._det_stack(net, np.array([1j]))).all()


@pytest.mark.parametrize("size", [1, 2])
def test_det_stack_propagates_an_error_that_is_no_refusal(size):
    # only the package's refusals read as a point that is not evaluable;
    # a model bug surfaces, whether the stack holds one point or more
    net = Network(buses=("b",), devices=(Device("b", "x", BrokenModel()),))
    with pytest.raises(ValueError, match="a model bug"):
        stability._det_stack(net, 1j * np.arange(1.0, size + 1.0))


def test_a_round_with_one_live_search_evaluates_a_point(monkeypatch):
    # one seed: the start stack holds three points, and every later round
    # has one live search, which is assembled at a complex scalar
    net = make_single_gfl(scr=1.3, k_p_pll=0.66)
    ranges = dict(re_range=(-20.0, -20.0), im_range=(250.0, 250.0), n_re=1, n_im=1)
    expected = mode_scan_sequential(net, WB, **ranges)
    calls = recorded_assembly(monkeypatch)
    assert mode_scan(net, WB, **ranges) == expected
    assert np.shape(calls[0]) == (3,)
    assert len(calls) > 1 and all(type(s) is complex for s in calls[1:])


def test_lockstep_mode_scan_matches_sequential_with_seeds_on_three_bus_poles():
    # seeds on s = -500 (GFL voltage filter pole), -50 (GFM swing pole) and
    # 0 (every converter's integrators): one stack is refused by two guards
    net = make_three_bus()
    ranges = dict(re_range=(-500.0, 100.0), n_re=13)
    assert {-500.0, -50.0, 0.0} <= set(np.linspace(-500.0, 100.0, 13).tolist())
    assert mode_scan(net, WB, **ranges) == mode_scan_sequential(net, WB, **ranges)


def test_lockstep_mode_scan_raises_for_a_black_box():
    net = make_single_gfl()
    bb = sample_model(net.devices[0].model, np.geomspace(1.0, 2000.0, 60))
    net = Network(buses=net.buses, shunts=net.shunts, devices=(Device("poc", "bb", bb),))
    for scan in (mode_scan, mode_scan_sequential):
        with pytest.raises(OutOfRangeError):
            scan(net, WB)


def test_mode_scan_raises_for_a_black_box_from_the_stacked_evaluation(monkeypatch):
    # a black box is not evaluable off the j omega axis, which no nudge
    # mends: the scan neither bisects its stack down to single points nor
    # re-runs a seed alone
    net = make_single_gfl()
    bb = sample_model(net.devices[0].model, np.geomspace(1.0, 2000.0, 60))
    net = Network(buses=net.buses, shunts=net.shunts, devices=(Device("poc", "bb", bb),))
    sizes, refined = [], []
    assemble = stability.assemble_nodal
    monkeypatch.setattr(stability, "assemble_nodal",
                        lambda net, s: sizes.append(np.size(s)) or assemble(net, s))
    monkeypatch.setattr(stability, "refine_mode", lambda *args, **kw: refined.append(args))
    with pytest.raises(OutOfRangeError, match="only evaluable at s = j"):
        mode_scan(net, WB)
    assert refined == []
    assert sizes and min(sizes) > 1


def test_lockstep_mode_scan_raises_for_a_non_finite_iterate(monkeypatch):
    # finite determinants hardly make Muller's arithmetic overflow inside
    # the scan region, so the square root of its step is made NaN
    net = make_single_gfl()
    monkeypatch.setattr(stability.cmath, "sqrt", lambda z: complex(math.nan, math.nan))
    for scan in (mode_scan, mode_scan_sequential):
        with pytest.raises(NonFiniteError, match="Muller iterate became non-finite"):
            scan(net, WB)


def test_lockstep_evaluates_in_frequency_blocks(monkeypatch):
    sizes = []
    assemble = stability.assemble_nodal
    monkeypatch.setattr(stability, "assemble_nodal",
                        lambda net, s: sizes.append(np.size(s)) or assemble(net, s))
    monkeypatch.setattr(passivity, "BLOCK_BYTES", 64 * 10)  # 10 2x2 matrices a block
    net = make_single_gfl(scr=3.0, k_p_pll=0.4)
    assert mode_scan(net, WB) == mode_scan_sequential(net, WB)
    assert max(sizes) == 10


def test_mode_scan_leaves_no_reference_cycles():
    # stored outcomes must not tie frames (and their stacks) into cycles
    net = make_single_gfl(scr=1.3, k_p_pll=0.66)
    gc.collect()
    gc.disable()
    try:
        mode_scan(net, WB)
        assert gc.collect() == 0
    finally:
        gc.enable()
