"""Scenario loading, analysis dispatch, CSV/SVG emission, CLI exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import fdpassivity
from fdpassivity.devices import blackbox_model, write_blackbox_table
from fdpassivity.errors import ScenarioParseError, ScenarioValidationError
from fdpassivity.io_cli import (
    ANALYSES,
    PlotSpec,
    ResultTable,
    emit_csv,
    emit_svg_plot,
    fixture_path,
    load_scenario,
    main,
    read_result_csv,
    run,
)
from fdpassivity.network import nodal_param_sensitivity, nodal_passivity_sweep, participation_sweep
from fdpassivity.passivity import first_order_prediction, index_sweep
from fdpassivity.stability import fd_pf, gnc_auto, mode_scan


@pytest.fixture(scope="module")
def single_gfl_scenario():
    return load_scenario(fixture_path("single_gfl.json"))


@pytest.fixture(scope="module")
def three_bus_scenario():
    return load_scenario(fixture_path("three_bus.json"))


def write_scenario(tmp_path, doc, name="scn.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return p


def minimal_doc():
    return {
        "schema": 1,
        "base": {"s_va": 5e6, "v_v": 600.0, "f_hz": 60.0},
        "grid": {"f_min_hz": 1.0, "f_max_hz": 100.0, "points": 10},
        "buses": ["b1"],
        "shunts": [{"bus": "b1", "kind": "shunt_c", "params": {"b": 0.2}}],
        "devices": [{"bus": "b1", "name": "load", "kind": "rl",
                     "params": {"r": 0.1, "x": 0.5}}],
        "analyses": {"device-passivity": {"device": "load"}},
    }


def test_bundled_fixtures_load(single_gfl_scenario, three_bus_scenario):
    s = single_gfl_scenario
    assert s.name == "single_gfl"
    assert s.omega_b == pytest.approx(2 * math.pi * 60.0)
    assert s.omegas.size == 400
    assert s.omegas[0] == pytest.approx(2 * math.pi * 1.0)
    assert s.omegas[-1] == pytest.approx(2 * math.pi * 2000.0)
    assert tuple(s.network.buses) == ("poc",)
    assert set(s.analyses) == set(ANALYSES)
    assert s.standalone_stable

    t = three_bus_scenario
    assert tuple(t.network.buses) == ("b1", "b2", "b3")
    assert [d.name for d in t.network.devices] == ["GFM-1", "GFM-2", "GFL-1"]
    assert len(t.network.branches) == 3 and len(t.network.shunts) == 3


def test_parse_error_reports_line_and_column(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{\n  "schema": 1,\n}', encoding="utf-8")
    with pytest.raises(ScenarioParseError, match=r":3:"):
        load_scenario(p)
    with pytest.raises(ScenarioParseError):
        load_scenario(tmp_path / "missing.json")
    raw = tmp_path / "binary.json"
    raw.write_bytes(b"\xff\xfe\x00{")
    with pytest.raises(ScenarioParseError):
        load_scenario(raw)


def test_validation_collects_every_violation(tmp_path):
    doc = {
        "schema": 2,
        "grid": {"f_min_hz": 100.0, "f_max_hz": 1.0, "points": 10},
        "buses": [],
        "analyses": {"made-up": {}},
    }
    with pytest.raises(ScenarioValidationError) as info:
        load_scenario(write_scenario(tmp_path, doc))
    text = "\n".join(info.value.violations)
    assert "schema" in text
    assert "base" in text
    assert "f_min_hz" in text
    assert "buses" in text
    assert "made-up" in text
    assert len(info.value.violations) >= 5


def test_validation_checks_topology(tmp_path):
    doc = minimal_doc()
    doc["branches"] = [{"from": "b1", "to": "zz", "kind": "rl", "params": {"r": 0.1, "x": 0.5}}]
    doc["devices"].append({"bus": "b1", "name": "load", "kind": "rl",
                           "params": {"r": 0.2, "x": 0.4}})
    with pytest.raises(ScenarioValidationError) as info:
        load_scenario(write_scenario(tmp_path, doc))
    text = "\n".join(info.value.violations)
    assert "unknown bus 'zz'" in text
    assert "duplicate device name" in text


def test_validation_checks_analysis_options(tmp_path):
    # option checks need a resolvable network, so the topology here is valid
    doc = minimal_doc()
    doc["analyses"] = {
        "device-sens": {"device": "load", "param": "nope"},
        "fdpf": {},
        "nodal-sens": {"component": "ghost", "param": "r"},
        "gnc": {},
    }
    with pytest.raises(ScenarioValidationError) as info:
        load_scenario(write_scenario(tmp_path, doc))
    text = "\n".join(info.value.violations)
    assert "device-sens.param" in text
    assert "fdpf.f_hz" in text
    assert "nodal-sens.component" in text
    assert "gnc" not in text
    assert len(info.value.violations) == 3


def test_grid_forms(tmp_path):
    doc = minimal_doc()
    doc["grid"] = {"freqs_hz": [1.0, 10.0, 100.0]}
    s = load_scenario(write_scenario(tmp_path, doc))
    assert np.allclose(s.omegas, 2 * math.pi * np.array([1.0, 10.0, 100.0]))

    doc["grid"] = {"f_min_hz": 1.0, "f_max_hz": 1000.0, "points_per_decade": 10}
    s = load_scenario(write_scenario(tmp_path, doc))
    assert s.omegas.size == 31

    doc["grid"] = {"f_min_hz": 1.0, "f_max_hz": 1000.0, "points": 10, "points_per_decade": 10}
    with pytest.raises(ScenarioValidationError, match="exactly one"):
        load_scenario(write_scenario(tmp_path, doc))

    doc["grid"] = {"freqs_hz": [10.0, 5.0]}
    with pytest.raises(ScenarioValidationError, match="increasing"):
        load_scenario(write_scenario(tmp_path, doc))


def test_run_rejects_undeclared_analysis(single_gfl_scenario, tmp_path):
    with pytest.raises(ScenarioValidationError):
        run(single_gfl_scenario, "not-an-analysis")
    scn = load_scenario(write_scenario(tmp_path, minimal_doc()))
    with pytest.raises(ScenarioValidationError, match="not declared"):
        run(scn, "gnc")


def test_run_device_passivity_matches_direct_call(single_gfl_scenario):
    (table,) = run(single_gfl_scenario, "device-passivity")
    assert table.name == "device_passivity_GFL-1"
    assert table.columns == ("freq_hz", "index", "eigen_gap")
    model = single_gfl_scenario.network.devices[0].model
    sweep = index_sweep(model, single_gfl_scenario.omegas)
    assert np.array_equal(table.rows[:, 1], sweep.indices)
    assert np.array_equal(table.rows[:, 2], sweep.eigen_gaps)
    assert np.allclose(table.rows[:, 0], sweep.freqs_hz, rtol=1e-15)


def test_run_device_sens_contract(single_gfl_scenario):
    (table,) = run(single_gfl_scenario, "device-sens")
    assert table.name == "device_sens_GFL-1_k_p_pll"
    assert table.columns == ("freq_hz", "index", "d_index",
                             "predicted_after_5pct", "exact_after_5pct")
    model = single_gfl_scenario.network.devices[0].model
    # byte-exact cross-check: mirror the runner's delta arithmetic
    delta = model.get_param("k_p_pll") * 5.0 / 100.0
    pred = first_order_prediction(model, "k_p_pll", single_gfl_scenario.omegas, delta)
    assert np.array_equal(table.rows[:, 1], pred.base)
    assert np.array_equal(table.rows[:, 3], pred.predicted)
    assert np.array_equal(table.rows[:, 4], pred.actual)
    # d_index column is the derivative: base + delta * d_index == predicted
    assert np.allclose(table.rows[:, 1] + delta * table.rows[:, 2],
                       table.rows[:, 3], rtol=0, atol=1e-14)


def test_run_nodal_passivity_includes_standalone_columns(three_bus_scenario):
    (table,) = run(three_bus_scenario, "nodal-passivity")
    assert table.columns == ("freq_hz", "nodal_index",
                             "index_GFM-1", "index_GFM-2", "index_GFL-1")
    sweep = nodal_passivity_sweep(three_bus_scenario.network, three_bus_scenario.omegas)
    assert np.array_equal(table.rows[:, 1], sweep.indices)
    gfm1 = index_sweep(three_bus_scenario.network.devices[0].model, three_bus_scenario.omegas)
    assert np.array_equal(table.rows[:, 2], gfm1.indices)


def test_run_nodal_sens_matches_direct_call(three_bus_scenario):
    (table,) = run(three_bus_scenario, "nodal-sens")
    assert table.name == "nodal_sens_GFM-1_d_vsm"
    assert table.columns == ("freq_hz", "nodal_index", "d_index", "degenerate")
    series = nodal_param_sensitivity(three_bus_scenario.network, "GFM-1", "d_vsm",
                                     three_bus_scenario.omegas)
    assert np.array_equal(table.rows[:, 1], series.indices)
    finite = ~series.degenerate
    assert np.array_equal(table.rows[finite, 2], series.derivatives[finite])
    assert np.array_equal(table.rows[:, 3].astype(bool), series.degenerate)


def test_run_participation_table(three_bus_scenario):
    (table,) = run(three_bus_scenario, "participation")
    expected = ("freq_hz", "nodal_index",
                "p_GFM-1", "p_GFM-2", "p_GFL-1",
                "p_b1-b2#1", "p_b2-b3#1", "p_b1-b3#1",
                "p_sh@b1", "p_sh@b2", "p_sh@b3", "degenerate")
    assert table.columns == expected
    direct = participation_sweep(three_bus_scenario.network, three_bus_scenario.omegas)
    assert np.array_equal(table.rows[:, 2:11], direct.values.T)
    # participations sum back to the nodal index
    sums = table.rows[:, 2:11].sum(axis=1)
    assert np.allclose(sums, table.rows[:, 1], atol=1e-10)


def test_run_gnc_tables(single_gfl_scenario):
    loci_table, verdict_table = run(single_gfl_scenario, "gnc")
    assert loci_table.name == "gnc_loci"
    assert loci_table.columns[0] == "freq_hz"
    assert loci_table.columns[1:3] == ("re_locus_1", "im_locus_1")
    _, verdict = gnc_auto(single_gfl_scenario.network, f_min_hz=1.0, f_max_hz=2000.0,
                          points=400)
    assert verdict_table.columns == ("encirclements", "stable", "winding_float",
                                     "min_critical_distance", "standalone_stable_asserted")
    row = verdict_table.rows[0]
    assert row[0] == verdict.encirclements
    assert bool(row[1]) == verdict.stable
    assert row[1] == 1.0  # this system is stable
    assert row[4] == 1.0


def test_run_fdpf_tables(three_bus_scenario):
    part_table, crit_table = run(three_bus_scenario, "fdpf")
    assert part_table.columns == ("freq_hz", "bus", "re_participation",
                                  "im_participation", "abs_participation")
    assert part_table.rows.shape == (3, 5)
    assert np.array_equal(part_table.rows[:, 1], [1.0, 2.0, 3.0])
    direct = fd_pf(three_bus_scenario.network, 1j * 2 * math.pi * 40.0)
    diag = direct.diagonal_by_bus()
    assert np.allclose(part_table.rows[:, 2], diag.real, rtol=1e-15)
    assert np.allclose(part_table.rows[:, 2].sum(), 1.0, atol=1e-8)
    assert crit_table.rows[0][0] == 40.0


def test_run_modes_tables(single_gfl_scenario):
    modes_table, verdict_table = run(single_gfl_scenario, "modes")
    assert modes_table.columns == ("freq_hz", "re_lambda", "im_lambda",
                                   "residual", "iterations")
    assert verdict_table.columns == ("unstable", "n_modes")
    scan = mode_scan(single_gfl_scenario.network, single_gfl_scenario.omega_b)
    assert verdict_table.rows[0][0] == float(scan.unstable)
    assert verdict_table.rows[0][1] == float(len(scan.modes))
    assert modes_table.rows.shape[0] == len(scan.modes)
    # sorted by frequency
    assert np.all(np.diff(modes_table.rows[:, 0]) >= 0)


def test_blackbox_device_in_scenario(tmp_path, single_gfl_scenario):
    grid = np.geomspace(1.0, 2000.0, 60)
    model = single_gfl_scenario.network.devices[0].model
    write_blackbox_table(tmp_path / "gfl_table.csv", model, grid)
    doc = minimal_doc()
    doc["devices"] = [{"bus": "b1", "name": "bb", "kind": "blackbox",
                       "path": "gfl_table.csv"}]
    doc["grid"] = {"f_min_hz": 1.0, "f_max_hz": 2000.0, "points": 25}
    doc["analyses"] = {"device-passivity": {"device": "bb"}}
    scn = load_scenario(write_scenario(tmp_path, doc))
    (table,) = run(scn, "device-passivity")
    ydata = np.array([model.admittance(1j * 2 * math.pi * f) for f in grid])
    direct = index_sweep(blackbox_model(grid, ydata), scn.omegas)
    assert np.array_equal(table.rows[:, 1], direct.indices)


def test_csv_roundtrip_exact(tmp_path, single_gfl_scenario):
    (table,) = run(single_gfl_scenario, "device-passivity")
    path = tmp_path / "out.csv"
    emit_csv(table, path)
    back = read_result_csv(path)
    assert back.columns == table.columns
    assert np.array_equal(back.rows, table.rows)
    assert back.name == "out"


def test_csv_roundtrip_empty_table(tmp_path):
    empty = ResultTable("modes", ("freq_hz", "re_lambda"), np.empty((0, 2)))
    path = tmp_path / "empty.csv"
    emit_csv(empty, path)
    back = read_result_csv(path)
    assert back.rows.shape == (0, 2)
    assert back.columns == ("freq_hz", "re_lambda")


def test_svg_line_plot_structure(tmp_path):
    rows = np.column_stack([
        np.array([1.0, 10.0, 100.0, 1000.0]),
        np.array([0.5, -0.2, np.nan, 0.3]),
        np.array([1.0, 2.0, 3.0, 4.0]),
    ])
    table = ResultTable("demo", ("freq_hz", "a", "b"), rows)
    path = tmp_path / "demo.svg"
    emit_svg_plot(table, PlotSpec(kind="line", title="demo & more"), path)
    root = ET.fromstring(path.read_text(encoding="utf-8"))
    assert root.tag.endswith("svg")
    ns = {"s": "http://www.w3.org/2000/svg"}
    series = [el for el in root.findall(".//s:path", ns)
              if el.get("class") == "series"]
    assert len(series) == 2
    # the NaN sample lifts the pen: two disjoint segments in the first series
    assert series[0].get("d").count("M") == 2
    assert series[1].get("d").count("M") == 1


def test_svg_nyquist_plot_structure(tmp_path, single_gfl_scenario):
    loci_table, _ = run(single_gfl_scenario, "gnc")
    path = tmp_path / "nyq.svg"
    emit_svg_plot(loci_table, PlotSpec(kind="nyquist", title="loci"), path)
    root = ET.fromstring(path.read_text(encoding="utf-8"))
    ns = {"s": "http://www.w3.org/2000/svg"}
    series = [el for el in root.findall(".//s:path", ns)
              if el.get("class") == "series"]
    assert len(series) == 2  # one locus track per admittance axis


def test_main_success_writes_files(tmp_path, capsys):
    out = tmp_path / "results"
    code = main(["device-passivity",
                 "--scenario", str(fixture_path("single_gfl.json")),
                 "--out", str(out)])
    assert code == 0
    assert (out / "device_passivity_GFL-1.csv").exists()
    assert "wrote" in capsys.readouterr().out


def test_main_gnc_with_svg(tmp_path, capsys):
    out = tmp_path / "results"
    code = main(["gnc",
                 "--scenario", str(fixture_path("single_gfl.json")),
                 "--out", str(out), "--svg"])
    assert code == 0
    assert (out / "gnc_loci.csv").exists()
    assert (out / "gnc_verdict.csv").exists()
    assert (out / "gnc_loci.svg").exists()
    assert "gnc verdict: stable" in capsys.readouterr().out


def test_main_validation_failure_exits_2(tmp_path, capsys):
    doc = minimal_doc()
    doc["schema"] = 99
    p = write_scenario(tmp_path, doc)
    code = main(["device-passivity", "--scenario", str(p), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "scenario validation failed:" in err
    assert "schema" in err


def test_main_parse_failure_exits_2(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{nope")
    code = main(["gnc", "--scenario", str(p), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_main_numerical_failure_exits_3(tmp_path, capsys, gfl_model):
    # black-box table narrower than the requested sweep: evaluation must
    # refuse to extrapolate, surfacing as a numerical failure
    write_blackbox_table(tmp_path / "narrow.csv", gfl_model, np.geomspace(10.0, 100.0, 12))
    doc = minimal_doc()
    doc["devices"] = [{"bus": "b1", "name": "bb", "kind": "blackbox", "path": "narrow.csv"}]
    doc["grid"] = {"f_min_hz": 1.0, "f_max_hz": 2000.0, "points": 10}
    doc["analyses"] = {"device-passivity": {"device": "bb"}}
    p = write_scenario(tmp_path, doc)
    code = main(["device-passivity", "--scenario", str(p), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "numerical error:" in capsys.readouterr().err


def test_run_is_deterministic_in_process(single_gfl_scenario, tmp_path):
    paths = []
    for k in (1, 2):
        (table,) = run(single_gfl_scenario, "device-sens")
        p = tmp_path / f"run{k}.csv"
        emit_csv(table, p)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


# --- exact violation texts and SVG bytes -------------------------------------

GFL_OP = {"p": 0.7, "q": 0.2, "v": 1.0}


def _malformed(part):
    """One document per kind of defect; the exact violations are pinned below."""
    doc = minimal_doc()
    if part == "base":
        doc["base"] = {"s_va": 0, "v_v": "600"}
    elif part == "grid":
        doc["grid"] = {"f_min_hz": -1.0, "f_max_hz": "2000"}
    elif part == "params":
        doc["buses"] = ["b1", "b2"]
        doc["branches"] = [{"from": "b1", "to": "b2", "kind": "rl", "params": {"r": "a"}}]
        doc["shunts"] = [{"bus": "b1", "kind": "shunt_c", "params": {"b": -0.2}},
                         {"bus": "b2", "kind": "thevenin", "params": {"scr": 0, "xr_ratio": 6.0}}]
        doc["devices"] = [{"bus": "b1", "name": "gfl", "kind": "gfl_l1",
                           "params": {"k_pll": 0.4}, "op": GFL_OP},
                          {"bus": "b2", "name": "x", "kind": "svc"}]
    elif part == "op":
        doc["devices"] = [{"bus": "b1", "name": "gfl", "kind": "gfl_l1"},
                          {"bus": "b1", "name": "gfm", "kind": "gfm_l1",
                           "op": {"p": -0.3, "q": "x", "v": 0.0}}]
        doc["analyses"] = {}
    elif part == "topology":
        doc["buses"] = ["b1", "b2", "b1"]
        doc["branches"] = [{"from": "b1", "to": "b1", "kind": "rl", "params": {"r": 0.1, "x": 0.5}},
                           {"from": "b1", "to": "zz", "kind": "rl", "params": {"r": 0.1, "x": 0.5}},
                           7]
        doc["shunts"].append({"bus": "b1", "kind": "shunt_c", "params": {"b": 0.1}})
        doc["devices"].append({"bus": "b1", "name": "load", "kind": "rl",
                               "params": {"r": 0.2, "x": 0.4}})
        doc["standalone_stable"] = "yes"
    else:
        doc["analyses"] = {"device-passivity": {"device": "ghost"},
                           "device-sens": {"device": "load", "param": "q", "delta_pct": 0},
                           "nodal-sens": {"component": "sh@b1", "param": "r"},
                           "fdpf": {"f_hz": -40.0}, "modes": [], "spectrum": {}}
    return doc


EXPECTED_VIOLATIONS = {
    "base": [
        "base.s_va: must be positive, got 0.0",
        "base.v_v: expected a number, got str",
        "base: missing required field 'f_hz'",
    ],
    "grid": [
        "grid.f_min_hz: must be positive, got -1.0",
        "grid.f_max_hz: expected a number, got str",
    ],
    "params": [
        "branches[0].params.r: expected a number, got str",
        "branches[0].params: missing required field 'x'",
        "shunts[0].params.b: must be positive, got -0.2",
        "shunts[1].params.scr: must be positive, got 0.0",
        "devices[0].params.k_pll: unknown parameter (known: k_i_i, k_i_pll, k_i_pq, "
        "k_p_i, k_p_pll, k_p_pq, l_c, r_c, t_i, t_v)",
        "devices[1].kind: unknown model kind 'svc' (known: rl, shunt_c, thevenin, "
        "gfl_l1, gfm_l1, blackbox)",
    ],
    "op": [
        'devices[0]: converter models need an "op" object with p, q, v',
        "devices[1].op.q: expected a number, got str",
        "devices[1].op.v: must be positive, got 0.0",
    ],
    "topology": [
        "buses: names must be unique",
        "branches[0]: endpoints must differ",
        "branches[1]: unknown bus 'zz'",
        "branches[2]: expected an object",
        "shunts[1]: more than one shunt at bus 'b1'; merge them",
        "devices[1]: duplicate device name 'load'",
        "standalone_stable: expected true or false",
    ],
    "options": [
        "analyses.device-passivity.device: expected one of ['load'], got 'ghost'",
        "analyses.device-sens.param: expected one of ['r', 'x'], got 'q'",
        "analyses.device-sens.delta_pct: expected a nonzero number",
        "analyses.nodal-sens.param: expected one of ['b'], got 'r'",
        "analyses.fdpf.f_hz: expected a positive number",
        "analyses.modes: expected an options object",
        "analyses.spectrum: unknown analysis (known: device-passivity, device-sens, "
        "nodal-passivity, nodal-sens, participation, gnc, fdpf, modes)",
    ],
}


@pytest.mark.parametrize("part", sorted(EXPECTED_VIOLATIONS))
def test_violation_messages_are_exact(tmp_path, part):
    with pytest.raises(ScenarioValidationError) as info:
        load_scenario(write_scenario(tmp_path, _malformed(part)))
    assert info.value.violations == EXPECTED_VIOLATIONS[part]


def _svg_table(name, columns, *series):
    return ResultTable(name, columns, np.column_stack(series))


def _svg_cases():
    f = np.array([1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0])
    nan = math.nan
    gap = _svg_table("gap", ("freq_hz", "index", "gain"), f,
                     [0.8, 0.1, -0.3, nan, -0.05, 0.2, 0.6], np.log10(f))
    flat = _svg_table("flat", ("freq_hz", "level"), f, np.full(f.size, 2.5))
    shifted = _svg_table("shifted", ("freq_hz", "index"), f * 2.0, np.linspace(-1.0, 3.0, f.size))
    theta = np.linspace(0.0, 3.0, f.size)
    locus = _svg_table("loci", ("freq_hz", "re_locus_1", "im_locus_1", "re_locus_2", "im_locus_2"),
                       f, 0.5 * np.cos(theta), [0.2, -0.4, nan, 0.1, 0.3, -0.2, 0.0],
                       -2.0 + np.sin(theta), 0.3 * theta)
    far = _svg_table("far", ("freq_hz", "re_l", "im_l"), f, 4.0 + theta, 1.0 + theta)
    return {
        "line_gap": ([gap], PlotSpec(kind="line", title="gap & zero <line>", y_label="index")),
        "line_two": ([flat, shifted], PlotSpec(kind="line", title="two tables")),
        "line_flat": ([flat], PlotSpec(kind="line")),
        "nyquist_gap": ([locus], PlotSpec(kind="nyquist", title="loci")),
        "nyquist_two": ([locus, far], PlotSpec(kind="nyquist")),
    }


SVG_SHA256 = {
    "line_flat": "55d8d87ccef515b8d8606741748bfb03b8859c878e2aeba3414f4cb07fce0477",
    "line_gap": "c761f8762edd17122bde1edf045b482cffe21ccb8f1d4e76b5b3953ea16ff550",
    "line_two": "239f54612febd232f6de168ff18c5df635e8d9d5a62a62272e5173ce30972b6e",
    "nyquist_gap": "41c964de2e52854d3810acb5846698bd48cc0d9ec80ad5510c22cd62e46ab06b",
    "nyquist_two": "d255ddd7c503a65c3f41c95468fd4c0b8f3bea8e4900075f45cdcf5bfc9392b3",
}


@pytest.mark.parametrize("case", sorted(_svg_cases()))
def test_svg_bytes_are_pinned(tmp_path, case):
    tables, spec = _svg_cases()[case]
    path = tmp_path / f"{case}.svg"
    emit_svg_plot(tables, spec, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SVG_SHA256[case]


def test_module_entry_point_runs_without_warning(tmp_path):
    src = Path(fdpassivity.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "fdpassivity.io_cli", "device-passivity",
         "--scenario", str(fixture_path("single_gfl.json")), "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert (tmp_path / "device_passivity_GFL-1.csv").exists()


def _single_gfl_doc():
    return json.loads(fixture_path("single_gfl.json").read_text(encoding="utf-8"))


def _set_option(analysis, key, value):
    def edit(doc):
        doc["analyses"][analysis][key] = value
    return edit


def _set_thevenin_param(doc):
    doc["shunts"][0]["params"]["zz"] = 1


BAD_VALUES = {
    "modes_re_min_text": (_set_option("modes", "re_min", "abc"),
                          "analyses.modes.re_min: expected a number"),
    "modes_re_range_inverted": (
        lambda doc: doc["analyses"]["modes"].update(re_min=100, re_max=-100),
        "analyses.modes.re_max: expected a number above re_min"),
    "modes_re_max_infinite": (_set_option("modes", "re_max", math.inf),
                              "analyses.modes.re_max: expected a number above re_min"),
    "modes_f_max_nan": (_set_option("modes", "f_max_hz", math.nan),
                        "analyses.modes.f_max_hz: expected a positive number"),
    "modes_f_max_zero": (_set_option("modes", "f_max_hz", 0),
                         "analyses.modes.f_max_hz: expected a positive number"),
    "fdpf_f_infinite": (_set_option("fdpf", "f_hz", math.inf),
                        "analyses.fdpf.f_hz: expected a positive number"),
    "device_sens_delta_infinite": (_set_option("device-sens", "delta_pct", -math.inf),
                                   "analyses.device-sens.delta_pct: expected a nonzero number"),
    "unknown_option": (_set_option("device-sens", "delta_pc", 1.0),
                       "analyses.device-sens.delta_pc: unknown option "
                       "(known: delta_pct, device, param)"),
    "unknown_option_none_declared": (_set_option("gnc", "points", 800),
                                     "analyses.gnc.points: unknown option (known: none)"),
    "unknown_thevenin_param": (_set_thevenin_param,
                               "shunts[0].params.zz: unknown parameter (known: scr, xr_ratio)"),
}


@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_bad_or_unknown_keys_exit_2_with_named_violation(tmp_path, capsys, case):
    edit, violation = BAD_VALUES[case]
    doc = _single_gfl_doc()
    edit(doc)
    p = write_scenario(tmp_path, doc)
    code = main(["modes", "--scenario", str(p), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("scenario validation failed:")
    assert f"  - {violation}\n" in err
    assert not (tmp_path / "o").exists()


def test_declared_options_take_defaults(single_gfl_scenario):
    assert single_gfl_scenario.analyses["modes"] == {
        "re_min": -500.0, "re_max": 200.0, "f_max_hz": 500.0}
    assert single_gfl_scenario.analyses["device-sens"] == {
        "device": "GFL-1", "param": "k_p_pll", "delta_pct": 5.0}
    assert single_gfl_scenario.analyses["gnc"] == {}
