"""Scenario loading, analysis dispatch, CSV/SVG emission, CLI exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fdpassivity
from fdpassivity import io_cli
from fdpassivity.devices import BlackBoxModel, write_blackbox_table
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

from oracles import series_path_pointwise


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
    direct = index_sweep(BlackBoxModel(grid, ydata), scn.omegas)
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


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.lists(st.floats(), min_size=3, max_size=3), max_size=6))
@example(rows=[[math.nan, -math.nan, math.inf], [-math.inf, -0.0, 0.0],
               [5e-324, -2.2250738585072009e-308, 2.2250738585072014e-308],
               [1.7976931348623157e308, -1e-300, 0.1], [1e16, 123456789.0, -1.0]])
def test_csv_values_match_17_significant_digit_format(tmp_path_factory, rows):
    table = ResultTable("t", ("a", "b", "c"), np.array(rows, dtype=float).reshape(-1, 3))
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    emit_csv(table, path)
    lines = ["a,b,c"] + [",".join(f"{v:.17g}" for v in row) for row in table.rows]
    assert path.read_text(encoding="utf-8") == "\n".join(lines) + "\n"


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


def test_modes_on_a_black_box_exits_3(tmp_path, capsys, gfl_model):
    # a black box is evaluable on the j omega axis only; the mode scan
    # searches off it
    write_blackbox_table(tmp_path / "bb.csv", gfl_model, np.geomspace(1.0, 2000.0, 60))
    doc = minimal_doc()
    doc["devices"] = [{"bus": "b1", "name": "bb", "kind": "blackbox", "path": "bb.csv"}]
    doc["analyses"] = {"modes": {}}
    p = write_scenario(tmp_path, doc)
    code = main(["modes", "--scenario", str(p), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "only evaluable at s = j*omega" in capsys.readouterr().err


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
    elif part == "missing":
        # a key missing from two entries is no repeated value
        doc["shunts"] = [{"kind": "shunt_c", "params": {"b": 0.2}},
                         {"kind": "shunt_c", "params": {"b": 0.1}}]
        doc["devices"] = [{"bus": "b1", "kind": "rl", "params": {"r": 0.1, "x": 0.5}},
                          {"bus": "b1", "kind": "rl", "params": {"r": 0.2, "x": 0.4}}]
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
    "missing": [
        "shunts[0]: missing required field 'bus'",
        "shunts[1]: missing required field 'bus'",
        "devices[0]: missing required field 'name'",
        "devices[1]: missing required field 'name'",
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
    theta = np.linspace(0.0, 3.0, f.size)
    loci = ("freq_hz", "re_locus_1", "im_locus_1", "re_locus_2", "im_locus_2")
    loci_values = (f, 0.5 * np.cos(theta), [0.2, -0.4, nan, 0.1, 0.3, -0.2, 0.0],
                   -2.0 + np.sin(theta), 0.3 * theta)
    locus = _svg_table("loci", loci, *loci_values)
    # the loci and a far locus as one table: the plane spans both
    loci_and_far = _svg_table("loci", loci + ("re_l", "im_l"), *loci_values, 4.0 + theta,
                              1.0 + theta)
    inf = math.inf
    # a finite sample between two gaps is a run with an M and no L
    lone = _svg_table("lone", ("freq_hz", "index", "gain"), f,
                      [nan, 0.4, nan, -0.2, 0.1, nan, 0.3], [0.5, nan, nan, nan, nan, nan, nan])
    nonpositive = _svg_table("nonpositive", ("freq_hz", "index"), f - 3.0,
                             np.linspace(-1.0, 2.0, f.size))
    infinite = _svg_table("infinite", ("freq_hz", "index", "gain"),
                          np.array([1.0, 3.0, 10.0, inf, 100.0, 300.0, 1000.0]),
                          [0.1, inf, 0.3, 0.2, -inf, 0.5, -0.1], [inf, 1.0, 2.0, 1.5, 0.5, 0.7, -inf])
    empty = _svg_table("empty", ("freq_hz", "index"), f, np.full(f.size, nan))
    locus_inf = _svg_table("loci", ("freq_hz", "re_locus_1", "im_locus_1"), f,
                           [inf, 0.2, nan, -0.4, 0.1, -inf, 0.3],
                           [0.1, -0.3, 0.2, 0.5, inf, 0.0, -0.2])
    locus_empty = _svg_table("loci", ("freq_hz", "re_locus_1", "im_locus_1", "re_locus_2",
                                      "im_locus_2"),
                             f, np.full(f.size, nan), np.full(f.size, nan),
                             0.5 * np.cos(theta), 0.3 * theta)
    # the middle sample maps to x = 300.005 px through math.log10, while
    # np.log10 of it is an ulp off on AVX-512 builds and gives 300.0050000000001
    log_edge = _svg_table("log_edge", ("freq_hz", "index"),
                          [1.0, 1.5009268625895287, 4.0403218650391475], [0.0, 1.0, 2.0])
    return {
        "line_log_edge": (log_edge, PlotSpec(kind="line")),
        "line_gap": (gap, PlotSpec(kind="line", title="gap & zero <line>")),
        "line_flat": (flat, PlotSpec(kind="line")),
        "line_lone": (lone, PlotSpec(kind="line")),
        "line_nonpositive": (nonpositive, PlotSpec(kind="line")),
        "line_infinite": (infinite, PlotSpec(kind="line")),
        "line_all_nan": (empty, PlotSpec(kind="line")),
        "nyquist_gap": (locus, PlotSpec(kind="nyquist", title="loci")),
        "nyquist_two": (loci_and_far, PlotSpec(kind="nyquist")),
        "nyquist_infinite": (locus_inf, PlotSpec(kind="nyquist")),
        "nyquist_all_nan": (locus_empty, PlotSpec(kind="nyquist")),
    }


SVG_SHA256 = {
    "line_all_nan": "20870ef78edae8f89e6207283469108faee8a01dff3e271184b48d0e3ddd13b8",
    "line_flat": "55d8d87ccef515b8d8606741748bfb03b8859c878e2aeba3414f4cb07fce0477",
    "line_gap": "5d2151b9494ed9b5332a87a52fa66e2304126430c7715d9e3eeb6b3b4ea5b3d9",
    "line_infinite": "9bf80f8c0d22b8c07c5075bb21ac00f34243cfac2ab93d3be15f4d99fb27faa6",
    "line_lone": "94ec7da2a7fdddc102910e45f4c6248eeba0600ceaa7a1efb81d66f745e2c9bb",
    "line_log_edge": "1540f658cfeb474e328a04e561f34fbf4d38dec8031c83c645dc165d80d7d84b",
    "line_nonpositive": "dc590e2f1ceaea8077e29b1796634cdc1bafe02f134c364e6d620fc3f61feac5",
    "nyquist_all_nan": "1f819c58c44dfc8862608210b4b0724e47d1af948c52c5b2ace841c55199d156",
    "nyquist_gap": "41c964de2e52854d3810acb5846698bd48cc0d9ec80ad5510c22cd62e46ab06b",
    "nyquist_infinite": "e6e30eae28ea5f64212fce1fd831443d21ab93727e813177ee2b98835cbfc762",
    "nyquist_two": "fbf4a9c827b8f2e2fb4d7f491832de96e5236386420ceeef54e8f84671ded793",
}


@pytest.mark.parametrize("case", sorted(_svg_cases()))
def test_svg_bytes_are_pinned(tmp_path, case):
    table, spec = _svg_cases()[case]
    path = tmp_path / f"{case}.svg"
    emit_svg_plot(table, spec, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SVG_SHA256[case]


# --- the array series renderer against the per-sample loop --------------------

def _render_both(table, spec):
    """A plot's SVG lines as rendered, and with every series path built by
    the per-sample oracle instead."""
    plot = io_cli._nyquist_plot if spec.kind == "nyquist" else io_cli._line_plot
    arrays = plot(table)
    with mock.patch.object(io_cli, "_series_path", series_path_pointwise):
        return arrays, plot(table)


def _samples(values, n):
    return st.lists(values, min_size=n, max_size=n)


# values within 1e-12 of a .xx5 edge, where a %.2f digit turns
_EDGES = st.builds(lambda k, eps: k / 100.0 + 0.005 + eps,
                   st.integers(-100_000, 100_000), st.floats(-1e-12, 1e-12))
_VALUES = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]),
                    st.floats(-1e6, 1e6), _EDGES)
_FREQS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0]),
                   st.floats(1e-3, 1e6))


@st.composite
def _columns(draw, x_values, n_series):
    """An x column and n_series value columns of one random length."""
    n = draw(st.integers(1, 12))
    return draw(_samples(x_values, n)), draw(st.lists(_samples(_VALUES, n),
                                                      min_size=n_series, max_size=n_series))


def _lone_runs(n):
    """A series of n samples whose finite samples all stand alone."""
    return [0.5 if k % 2 else math.nan for k in range(n)]


@settings(max_examples=150, deadline=None)
@given(cols=_columns(_FREQS, 3))
@example(cols=([-1.0, 0.0, 1.0, math.inf, 10.0], [[math.nan] * 5, _lone_runs(5), [0.3] * 5]))
@example(cols=([1.0, 2.0, 4.0], [[math.inf, 0.2, -math.inf], [math.nan, 0.1, math.nan],
                                 [1.005, 2.015, 0.125]]))
def test_line_plot_paths_match_pointwise_oracle(cols):
    freqs, series = cols
    assume(any(math.isfinite(f) and f > 0 for f in freqs))
    table = ResultTable("t", ("freq_hz", "a", "b", "c"), np.column_stack([freqs, *series]))
    arrays, pointwise = _render_both(table, PlotSpec(kind="line"))
    assert arrays == pointwise


@settings(max_examples=150, deadline=None)
@given(cols=_columns(_VALUES, 4))
@example(cols=([0.0] * 5, [[math.nan] * 5, [0.1] * 5, _lone_runs(5), [math.inf, 1, 2, 3, -math.inf]]))
def test_nyquist_plot_paths_match_pointwise_oracle(cols):
    freqs, (re_1, im_1, re_2, im_2) = cols
    table = ResultTable("t", ("freq_hz", "re_l1", "im_l1", "re_l2", "im_l2"),
                        np.column_stack([freqs, re_1, im_1, re_2, im_2]))
    arrays, pointwise = _render_both(table, PlotSpec(kind="nyquist"))
    assert arrays == pointwise


# an identity map formats the drawn values themselves, so the .xx5 edges
# reach the format step; the affine maps have the plots' shapes
_MAPS = {
    "identity": lambda v: v,
    "line_x": lambda v: 72 + (v - 0.25) / 3.5 * 784,
    "line_y": lambda v: 466 - (v - -1.5) / 4.0 * 420,
    "nyquist_x": lambda v: 238.0 + (v - (0.5 - 6.25 / 2.0)) / 6.25 * 420.0,
}


@pytest.mark.parametrize("name", sorted(_MAPS))
@settings(max_examples=100, deadline=None)
@given(cols=_columns(_VALUES, 1))
def test_series_path_matches_pointwise_oracle(name, cols):
    xs, (ys,) = cols
    xs, ys = np.array(xs), np.array(ys)
    m = _MAPS[name]
    assert io_cli._series_path("#000", xs, ys, m, m) == series_path_pointwise("#000", xs, ys, m, m)


def _bench_inputs():
    """bench/inputs.py, loaded read-only: the benchmark's scenario generators."""
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "bench_inputs_readonly", Path(__file__).resolve().parent.parent / "bench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


def test_fixture_and_ladder_plots_match_pointwise_oracle(tmp_path):
    inputs = _bench_inputs()
    ladder = tmp_path / "ladder.json"
    inputs.write_scenario(ladder, inputs.ladder_scenario(1, 40))
    runs = [(load_scenario(fixture_path(name)), None) for name in ("single_gfl.json",
                                                                  "three_bus.json")]
    runs.append((load_scenario(ladder), "participation"))
    plotted = []
    for scenario, only in runs:
        for analysis in [only] if only else scenario.analyses:
            for table in run(scenario, analysis):
                spec = io_cli._plot_spec_for(table, scenario)
                if spec is not None:
                    arrays, pointwise = _render_both(table, spec)
                    assert arrays == pointwise, (scenario.name, table.name)
                    plotted.append(table.rows.shape)
    # the 14 SVGs the fixtures' analyses write, and the ladder's 102-series table
    assert len(plotted) == 15 and plotted[-1] == (400, 103)


# --- parsing with the process's one parser ------------------------------------

MAIN_HELP = """\
usage: fdpassivity [-h] ANALYSIS ...

Frequency-domain passivity and stability analysis for converter-dominated
power systems.

positional arguments:
  ANALYSIS
    device-passivity
                    run the device-passivity analysis declared in the scenario
    device-sens     run the device-sens analysis declared in the scenario
    nodal-passivity
                    run the nodal-passivity analysis declared in the scenario
    nodal-sens      run the nodal-sens analysis declared in the scenario
    participation   run the participation analysis declared in the scenario
    gnc             run the gnc analysis declared in the scenario
    fdpf            run the fdpf analysis declared in the scenario
    modes           run the modes analysis declared in the scenario

options:
  -h, --help        show this help message and exit
"""

NODAL_SENS_HELP = """\
usage: fdpassivity nodal-sens [-h] --scenario SCENARIO --out OUT [--svg]

options:
  -h, --help           show this help message and exit
  --scenario SCENARIO  path to a scenario JSON file
  --out OUT            directory for result files
  --svg                also emit SVG plots
"""

USAGE_ERRORS = {
    "missing_scenario": (["gnc", "--out", "o"], """\
usage: fdpassivity gnc [-h] --scenario SCENARIO --out OUT [--svg]
fdpassivity gnc: error: the following arguments are required: --scenario
"""),
    "unknown_analysis": (["bogus", "--scenario", "a", "--out", "b"], """\
usage: fdpassivity [-h] ANALYSIS ...
fdpassivity: error: argument ANALYSIS: invalid choice: 'bogus' (choose from \
'device-passivity', 'device-sens', 'nodal-passivity', 'nodal-sens', 'participation', 'gnc', \
'fdpf', 'modes')
"""),
}


def _exit_of(argv, capsys):
    """(exit code, stdout, stderr) of a main call that argparse ends."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    return (info.value.code, *capsys.readouterr())


@pytest.mark.parametrize("argv,expected", [(["--help"], MAIN_HELP),
                                           (["nodal-sens", "--help"], NODAL_SENS_HELP)])
def test_help_text_is_pinned(capsys, monkeypatch, argv, expected):
    monkeypatch.setenv("COLUMNS", "80")
    io_cli._parser.cache_clear()
    for _ in range(2):  # a new parser, then the cached one
        assert _exit_of(argv, capsys) == (0, expected, "")


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_error_exits_2_before_and_after_a_run(tmp_path, capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")
    io_cli._parser.cache_clear()
    argv, expected = USAGE_ERRORS[case]
    assert _exit_of(argv, capsys) == (2, "", expected)
    assert main(["device-passivity", "--scenario", str(fixture_path("single_gfl.json")),
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert _exit_of(argv, capsys) == (2, "", expected)


def test_back_to_back_runs_write_what_each_writes_alone(tmp_path, capsys):
    scenario = str(fixture_path("single_gfl.json"))
    runs = [("gnc", "--svg"), ("device-passivity",)]

    def written(analysis, *flags, out):
        assert main([analysis, "--scenario", scenario, "--out", str(out), *flags]) == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}

    alone = []
    for argv in runs:
        io_cli._parser.cache_clear()  # as in a new process
        alone.append(written(*argv, out=tmp_path / "alone" / argv[0]))
    io_cli._parser.cache_clear()
    together = [written(*argv, out=tmp_path / "together" / argv[0]) for argv in runs]
    assert together == alone
    assert sorted(alone[1]) == ["device_passivity_GFL-1.csv"]  # no SVG left over from gnc
    assert io_cli._parser.cache_info().misses == 1


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
    "unknown_op_key": (lambda doc: doc["devices"][0]["op"].update(qq=0.5),
                       "devices[0].op.qq: unknown field (known: p, q, v)"),
    "unknown_top_level_key": (
        lambda doc: doc.update(standalone_stabel=True),
        "standalone_stabel: unknown field (known: analyses, base, branches, buses, devices, "
        "grid, name, schema, shunts, standalone_stable)"),
    "unknown_base_key": (lambda doc: doc["base"].update(f_hzz=50.0),
                         "base.f_hzz: unknown field (known: f_hz, s_va, v_v)"),
    "unknown_grid_key": (lambda doc: doc["grid"].update(point=10),
                         "grid.point: unknown field (known: f_max_hz, f_min_hz, freqs_hz, "
                         "points, points_per_decade)"),
    "unknown_device_key": (lambda doc: doc["devices"][0].update(nmae="x"),
                           "devices[0].nmae: unknown field (known: bus, kind, name, op, params)"),
    "unknown_shunt_key": (lambda doc: doc["shunts"][0].update(op={}),
                          "shunts[0].op: unknown field (known: bus, kind, params)"),
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


def test_negative_rl_parameter_exits_2_and_writes_nothing(tmp_path, capsys):
    doc = json.loads(fixture_path("three_bus.json").read_text(encoding="utf-8"))
    doc["branches"][0]["params"]["r"] = -0.1
    p = write_scenario(tmp_path, doc)
    code = main(["nodal-passivity", "--scenario", str(p), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("scenario validation failed:")
    assert "  - branches[0]: RL element needs r >= 0, x >= 0 and not both zero\n" in err
    assert not (tmp_path / "o").exists()


def test_loader_accepts_the_benchmark_scenarios(tmp_path):
    inputs = _bench_inputs()
    for k, doc in enumerate([inputs.ladder_scenario(1), inputs.single_gfl_scenario(1.3, 0.66)]):
        path = tmp_path / f"b{k}.json"
        inputs.write_scenario(path, doc)
        load_scenario(path)
