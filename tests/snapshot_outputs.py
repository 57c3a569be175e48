"""Write a fixed set of CLI outputs, for comparing two checkouts byte for byte.

Usage (from a checkout, with the fdpassivity under test on PYTHONPATH):

    PYTHONPATH=src python tests/snapshot_outputs.py OUT_DIR
    PYTHONPATH=src python tests/snapshot_outputs.py --compare OUT_A OUT_B

The set is every declared analysis of both bundled fixtures, the seeded
40-bus benchmark ladder's nodal-passivity, nodal-sens and participation,
the 10-bus benchmark ladder's modes, gnc and modes of the benchmark's
single-GFL case at SCR 1.3 and k_p_pll 0.66, the unstable passivation
case at SCR 1.3 and k_p_pll 1.0 (device-passivity, device-sens on k_p_i,
gnc and modes), modes of three_bus with re_min -500 and re_max 100 (seeds
on the GFL voltage filter pole s = -500 and on s = 0), and five analyses
of single_gfl with GFL-1 declared as a black-box table, each run as
``python -m fdpassivity.io_cli ANALYSIS --svg``.  OUT_DIR/CASE/ receives
each run's CSV and SVG files and ANALYSIS.stdout, ANALYSIS.stderr and
ANALYSIS.exit; the scenario files go to OUT_DIR/scenarios/.  Every path a
run prints is relative to OUT_DIR, so the outputs of two checkouts are
equal exactly when ``diff -r OUT_A OUT_B`` prints nothing.

The passivation scenario and the black-box one are written by this
script from single_gfl.json, and the pole-seed one from three_bus.json.
The black-box table is written by it too, from GflConverterL1's
admittance on the scenario grid at 17 significant digits, so every
checkout reads the same file; modes exits 3 on it, since a black box is
evaluable on the j omega axis only.  bench/inputs.py is read, never
changed.  pytest does not collect this file: its name does not start
with ``test_``.

``--compare OUT_A OUT_B`` compares two such directories, OUT_A before
and OUT_B after a change, and prints one line per CSV column and per other
file.  A CSV (read with io_cli.read_result_csv) reports, per column, the
largest |a - b| / max|b|; a value passes when |a - b| <= 1e-6 |b| + 1e-8
max|b| over its column, NaN matches only NaN and an infinity only itself.
The columns in EXACT_COLUMNS (verdicts, counts, flags) must match exactly.
Other files are reported equal or changed.  Files, columns and rows only
one side has are reported as added or removed.  The exit status is 1 when
a value breaks its tolerance, an exact column or an exit code differs, or
a file, column or row is added or removed, and 0 otherwise: a changed SVG,
stdout or stderr file alone is reported but passes.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import fdpassivity
from fdpassivity import io_cli
from fdpassivity.errors import MalformedTableError

BENCH_INPUTS = Path(__file__).resolve().parent.parent / "bench" / "inputs.py"
BLACKBOX_COLUMNS = "freq_hz,re_ydd,im_ydd,re_ydq,im_ydq,re_yqd,im_yqd,re_yqq,im_yqq"
BLACKBOX_ANALYSES = ("device-passivity", "nodal-passivity", "participation", "gnc", "modes")
# Columns compared exactly: verdicts, counts and flags.
EXACT_COLUMNS = ("stable", "unstable", "encirclements", "n_modes", "n_tied", "degenerate",
                 "standalone_stable_asserted")
RTOL, ATOL = 1e-6, 1e-8  # |a - b| <= RTOL |b| + ATOL max|b| over the column
PASSIVATION_ANALYSES = {"device-passivity": {"device": "GFL-1"},
                        "device-sens": {"device": "GFL-1", "param": "k_p_i", "delta_pct": 5.0},
                        "gnc": {}, "modes": {}}


def bench_inputs():
    spec = importlib.util.spec_from_file_location("bench_inputs_readonly", BENCH_INPUTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cases(scenarios: Path) -> list[tuple[str, Path, list[str]]]:
    """(case, scenario file, analyses) for every run of the set."""
    inputs = bench_inputs()
    runs = []
    for name in ("single_gfl.json", "three_bus.json"):
        path = scenarios / name
        shutil.copyfile(io_cli.fixture_path(name), path)
        runs.append((path.stem, path, list(io_cli.load_scenario(path).analyses)))
    for buses, analyses in ((inputs.LADDER_BUSES, ["nodal-passivity", "nodal-sens", "participation"]),
                            (inputs.STABILITY_LADDER_BUSES, ["modes"])):
        path = scenarios / f"ladder{buses}.json"
        inputs.write_scenario(path, inputs.ladder_scenario(inputs.DEFAULT_SEED, buses))
        runs.append((path.stem, path, analyses))
    # the criterion-8 case near the PLL-gain boundary, where gnc refines
    doc = inputs.single_gfl_scenario(1.3, 0.66)
    path = scenarios / f"{doc['name']}.json"
    inputs.write_scenario(path, doc)
    runs.append((path.stem, path, ["gnc", "modes"]))
    runs.append(passivation_case(scenarios))
    runs.append(pole_seeds_case(scenarios))
    runs.append(blackbox_case(scenarios))
    return runs


def fixture_doc(name: str = "single_gfl.json") -> dict:
    return json.loads(io_cli.fixture_path(name).read_text(encoding="utf-8"))


def write_doc(scenarios: Path, doc: dict, analyses) -> tuple[str, Path, list[str]]:
    path = scenarios / f"{doc['name']}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return path.stem, path, list(analyses)


def passivation_case(scenarios: Path) -> tuple[str, Path, list[str]]:
    """single_gfl at SCR 1.3 and k_p_pll 1.0, where a mode at 43.6 Hz is
    unstable: the GFL's index, its sensitivity to k_p_i, and both stability
    readings."""
    doc = fixture_doc()
    doc["name"] = "single_gfl_passivation"
    doc["shunts"][0]["params"]["scr"] = 1.3
    doc["devices"][0]["params"]["k_p_pll"] = 1.0
    doc["analyses"] = PASSIVATION_ANALYSES
    return write_doc(scenarios, doc, PASSIVATION_ANALYSES)


def pole_seeds_case(scenarios: Path) -> tuple[str, Path, list[str]]:
    """three_bus modes from seeds at Re s = -500, -400, ..., 100: one stacked
    det Y_n holds the GFL voltage filter pole s = -500 and s = 0, which two
    different guards refuse."""
    doc = fixture_doc("three_bus.json")
    doc["name"] = "three_bus_pole_seeds"
    doc["analyses"] = {"modes": {"re_min": -500, "re_max": 100}}
    return write_doc(scenarios, doc, doc["analyses"])


def blackbox_case(scenarios: Path) -> tuple[str, Path, list[str]]:
    """single_gfl with GFL-1 replaced by its own admittance, tabulated on
    the scenario grid as a black-box table."""
    fixture = io_cli.fixture_path("single_gfl.json")
    scenario = io_cli.load_scenario(fixture)
    (gfl,) = scenario.network.devices
    lines = [BLACKBOX_COLUMNS]
    for omega, y in zip(scenario.omegas, gfl.model.admittance(1j * scenario.omegas)):
        cells = [omega / (2.0 * math.pi)] + [v for c in y.ravel() for v in (c.real, c.imag)]
        lines.append(",".join("%.17g" % v for v in cells))
    (scenarios / "gfl_table.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    doc = fixture_doc()
    doc["name"] = "single_gfl_blackbox"
    doc["devices"] = [{"bus": gfl.bus, "name": gfl.name, "kind": "blackbox",
                       "path": "gfl_table.csv"}]
    doc["analyses"] = {name: doc["analyses"][name] for name in BLACKBOX_ANALYSES}
    return write_doc(scenarios, doc, BLACKBOX_ANALYSES)


def column_change(a: np.ndarray, b: np.ndarray, exact: bool) -> tuple[float, bool]:
    """max |a - b| / max|b| over one column (inf where a non-finite value
    changed), and whether the column passes."""
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    finite = np.isfinite(a) & np.isfinite(b)
    scale = np.abs(b[np.isfinite(b)]).max(initial=0.0)
    with np.errstate(invalid="ignore"):  # inf - inf, masked out below
        diff = np.where(same, 0.0, np.where(finite, np.abs(a - b), math.inf))
    worst = diff.max(initial=0.0)
    rel = worst / scale if scale > 0 else (0.0 if worst == 0 else math.inf)
    if exact:
        return rel, bool(same.all())
    return rel, bool(np.all(diff <= RTOL * np.abs(np.where(finite, b, 0.0)) + ATOL * scale))


def compare_tables(name: str, path_a: Path, path_b: Path) -> tuple[list[str], bool]:
    """The report lines for one CSV present on both sides, and whether it passes."""
    try:
        a, b = io_cli.read_result_csv(path_a), io_cli.read_result_csv(path_b)
    except MalformedTableError as exc:
        return [f"{name}: unreadable: {exc}"], False
    lines = [f"{name}:{c}: removed" for c in a.columns if c not in b.columns]
    lines += [f"{name}:{c}: added" for c in b.columns if c not in a.columns]
    ok = not lines
    if len(a.rows) != len(b.rows):
        return lines + [f"{name}: rows {len(a.rows)} -> {len(b.rows)}"], False
    for j, column in enumerate(b.columns):
        if column not in a.columns:
            continue
        exact = column in EXACT_COLUMNS
        rel, passes = column_change(a.rows[:, a.columns.index(column)], b.rows[:, j], exact)
        verdict = "ok" if passes else ("EXACT MISMATCH" if exact else "BREAKS TOLERANCE")
        lines.append(f"{name}:{column}: max rel {rel:.3g} {verdict}")
        ok = ok and passes
    return lines, ok


def compare(out_a: Path, out_b: Path) -> tuple[list[str], bool]:
    """The report of how OUT_B differs from OUT_A, and whether it passes."""
    files = [{p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
             for out in (out_a, out_b)]
    lines = [f"{name}: removed" for name in sorted(files[0] - files[1])]
    lines += [f"{name}: added" for name in sorted(files[1] - files[0])]
    ok = not lines
    for name in sorted(files[0] & files[1]):
        if name.endswith(".csv"):
            got, passes = compare_tables(name, out_a / name, out_b / name)
            lines += got
            ok = ok and passes
            continue
        same = (out_a / name).read_bytes() == (out_b / name).read_bytes()
        lines.append(f"{name}: {'equal' if same else 'changed'}")
        ok = ok and (same or not name.endswith(".exit"))
    return lines, ok


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        lines, ok = compare(Path(argv[1]), Path(argv[2]))
        print("\n".join(lines))
        print("pass" if ok else "FAIL")
        return 0 if ok else 1
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    (out / "scenarios").mkdir(parents=True, exist_ok=True)
    # the runs import the package this script imported, with one BLAS
    # thread, as the benchmark runs the program
    path = [str(Path(fdpassivity.__file__).resolve().parent.parent),
            *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    for case, scenario, analyses in cases(out / "scenarios"):
        for analysis in analyses:
            done = subprocess.run(
                [sys.executable, "-m", "fdpassivity.io_cli", analysis,
                 "--scenario", str(scenario.relative_to(out)), "--out", case, "--svg"],
                cwd=out, env=env, capture_output=True, text=True)
            (out / case).mkdir(exist_ok=True)
            (out / case / f"{analysis}.stdout").write_text(done.stdout, encoding="utf-8")
            (out / case / f"{analysis}.stderr").write_text(done.stderr, encoding="utf-8")
            (out / case / f"{analysis}.exit").write_text(f"{done.returncode}\n", encoding="utf-8")
            print(f"{case} {analysis}: exit {done.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
