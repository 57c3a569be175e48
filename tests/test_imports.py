"""Modules an analysis does not run stay off the import path.

The package imports scipy only inside stability._match_tracks, on the
first GNC tracking step whose greedy eigenvalue match collides.  Every
other analysis runs on numpy alone.  concurrent.futures, and logging with
it, is imported only when a sweep first maps over blocks on more than one
thread.  io_cli imports the stability module only in the gnc, fdpf and
modes analyses, so the other five never load it, and io_cli imports csv
only to read a CSV file back.  The tests here run in fresh
interpreters: in this process tests/oracles.py has already imported
scipy, and earlier tests have loaded stability and csv.  The last two
tests read the source instead: no module imports a name it never uses,
and every refusal is a numerical failure of the package.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import fdpassivity
from fdpassivity import errors, stability

TESTS = Path(__file__).resolve().parent
SRC = Path(fdpassivity.__file__).resolve().parent.parent

REPORT = """
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in {roots!r})))
"""


def run_fresh(code: str, roots=("scipy",)) -> list[str]:
    """Run code in a new interpreter with src and tests on the path; the
    modules under the given top-level packages it has loaded when it ends."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), str(TESTS)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    report = REPORT.format(roots=tuple(roots))
    proc = subprocess.run([sys.executable, "-c", "import json, sys\n" + code + report],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_and_stability_analyses_never_load_scipy(tmp_path):
    code = f"""
from fdpassivity import io_cli, stability
from conftest import WB, make_single_gfl

for fixture in ("single_gfl.json", "three_bus.json"):
    path = io_cli.fixture_path(fixture)
    for analysis in io_cli.load_scenario(path).analyses:
        status = io_cli.main([analysis, "--scenario", str(path),
                              "--out", {str(tmp_path)!r} + "/" + analysis, "--svg"])
        assert status == 0, (fixture, analysis, status)

net = make_single_gfl(scr=1.3, k_p_pll=0.66)  # a criterion-8 case
stability.gnc_auto(net)
scan = stability.mode_scan(net, WB)
stability.mode_admittance_sensitivity(net, scan.modes[0].lam, WB)
"""
    assert run_fresh(code) == []


def test_colliding_tracking_step_loads_scipy_and_matches_oracle():
    code = """
import numpy as np
from fdpassivity.stability import _track_loci

# step 1: both tracks' nearest eigenvalue is 0.1, so greedy collides
values = np.array([[0.0, 1.0], [0.1, 5.0], [4.0, 0.2], [0.3, 4.5]], dtype=complex)
assert "scipy.optimize" not in sys.modules
loci = _track_loci(values)

from oracles import track_loci_sequential
assert np.array_equal(loci, track_loci_sequential(list(values)))
"""
    assert "scipy.optimize" in run_fresh(code)


def test_loading_scenarios_leaves_the_thread_pool_unloaded():
    code = """
from fdpassivity import io_cli

for fixture in ("single_gfl.json", "three_bus.json"):
    io_cli.load_scenario(io_cli.fixture_path(fixture))
"""
    assert run_fresh(code, ("concurrent", "logging")) == []


PASSIVITY_ANALYSES = ("device-passivity", "device-sens", "nodal-passivity", "nodal-sens",
                       "participation")


def test_passivity_analyses_leave_stability_and_csv_unloaded(tmp_path):
    code = f"""
from fdpassivity import io_cli

for fixture in ("single_gfl.json", "three_bus.json"):
    path = io_cli.fixture_path(fixture)
    for analysis in {PASSIVITY_ANALYSES!r}:
        status = io_cli.main([analysis, "--scenario", str(path),
                              "--out", {str(tmp_path)!r} + "/" + fixture + analysis, "--svg"])
        assert status == 0, (fixture, analysis, status)
"""
    loaded = run_fresh(code, ("fdpassivity", "csv"))
    assert "fdpassivity.io_cli" in loaded
    assert "fdpassivity.stability" not in loaded
    assert "csv" not in loaded
    assert len(list(tmp_path.glob("*/*.svg"))) >= 2 * len(PASSIVITY_ANALYSES)


def test_gnc_loads_stability_on_first_use(tmp_path):
    code = f"""
from fdpassivity import io_cli

path = io_cli.fixture_path("single_gfl.json")
assert "fdpassivity.stability" not in sys.modules
assert io_cli.main(["gnc", "--scenario", str(path), "--out", {str(tmp_path)!r}]) == 0
"""
    assert "fdpassivity.stability" in run_fresh(code, ("fdpassivity",))


def test_reading_a_blackbox_table_loads_csv_and_parses_it(tmp_path):
    code = f"""
import numpy as np
from fdpassivity.devices import GflConverterL1, GflParams, OperatingPoint, sample_model
from fdpassivity.io_cli import read_blackbox_table, write_blackbox_table

# not conftest's models: pytest imports csv
op = OperatingPoint.from_terminal(p=0.7, q=0.2, v=1.0, omega_b=2 * np.pi * 60)
model, freqs = GflConverterL1(GflParams(), op), np.logspace(0, 3, 30)
path = {str(tmp_path / "table.csv")!r}
write_blackbox_table(path, model, freqs)
assert "csv" not in sys.modules
table, sampled = read_blackbox_table(path), sample_model(model, freqs)
assert np.array_equal(table.freqs_hz, sampled.freqs_hz)
assert np.array_equal(table.ydata, sampled.ydata)
"""
    assert "csv" in run_fresh(code, ("csv",))


# (module, name) imported and never used, on purpose: network imports
# numerics.inverse only so that bench/tracing.py's network.inverse hook
# resolves, though nothing in network calls it
KEPT_UNUSED = {("network", "inverse")}


def test_no_module_imports_a_name_it_never_uses():
    unused = set()
    for path in sorted((SRC / "fdpassivity").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused |= {(path.stem, name) for name in imported - used}
    assert unused == KEPT_UNUSED


def test_every_refusal_is_a_package_numerical_failure():
    # a guard refuses through devices._refuse, and det Y_n reads as not
    # evaluable only on NOT_EVALUABLE: both name fdpassivity.errors classes
    # under NumericalFailure, so a refusal exits 3 and a model bug is no refusal
    refused = []
    for path in sorted((SRC / "fdpassivity").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_refuse":
                error = dict(zip(("points", "error"), node.args),
                             **{k.arg: k.value for k in node.keywords})["error"]
                module = importlib.import_module(f"fdpassivity.{path.stem}")
                refused.append(getattr(module, error.id))
    assert refused
    for error in [*refused, *stability.NOT_EVALUABLE]:
        assert getattr(errors, error.__name__) is error
        assert issubclass(error, errors.NumericalFailure)
