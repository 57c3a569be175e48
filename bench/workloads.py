"""The benchmark's workloads, their operations and the output checks.

Every workload is a closed loop: one caller runs its operations back to
back.  An operation is one in-process ``io_cli.main([...])`` call, which is
what a CLI user runs minus interpreter start, or one call of a public
``stability`` function where no CLI analysis exposes the work.

An operation fails if it raises, if the CLI returns a non-zero code, or if
its output fails a check.  Checks run outside the timed region:

- reference outputs recorded from a known-good build (``reference.json``)
  for the fixtures, the default ladder seed and the criterion-8 grid.
  Verdict and count columns (EXACT) must match exactly; other values must
  match within ``|a - b| <= RTOL * |b| + ATOL * max|column|``; Muller
  residuals and iteration counts (UNCHECKED) are not outputs to check;
- invariants that hold for any seed: participation columns sum to the
  nodal index, the nodal index equals an eigvalsh oracle on a Y_n that
  the benchmark assembles itself, the GNC verdict agrees with the mode
  scan, and mode sensitivities are finite.
"""

from __future__ import annotations

import contextlib
import io
import math
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from fdpassivity import io_cli, stability
from inputs import scenario_paths

EXACT = ("encirclements", "stable", "unstable", "n_modes", "n_tied", "degenerate",
         "standalone_stable_asserted")
UNCHECKED = ("residual", "iterations")
RTOL = 1e-6
ATOL = 1e-8
SAMPLES = 9
PARTICIPATION_TOL = 1e-8   # |sum of shares - index| / max(1, |index|)
ORACLE_TOL = 1e-12         # |index - oracle| / ||Y_n + Y_n^H||_F
ORACLE_POINTS = 8

# Analyses whose summed time is reported; fdpf takes about 1 ms, too short
# to time steadily, and counts toward wall_s only.
ANALYSES = ("device-passivity", "device-sens", "nodal-passivity", "nodal-sens",
            "participation", "gnc", "modes", "mode-sens")


class StopPass(Exception):
    """Raised by Ops once its operation budget is spent (warm-up)."""


class Ops:
    """Runs, times and checks the operations of one pass."""

    def __init__(self, reference: dict, record: bool = False, tracer=None, budget=None):
        self.reference = reference
        self.record = record
        self.tracer = tracer
        self.budget = budget
        self.times: dict[str, tuple[str, float]] = {}  # label -> (analysis, seconds)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    @property
    def wall(self) -> float:
        return sum(t for _, t in self.times.values())

    def call(self, analysis: str, label: str, fn, check=None):
        """Time fn(); then check(result) -> problems.  None if the operation failed."""
        if self.budget is not None:
            if self.budget == 0:
                raise StopPass
            self.budget -= 1
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            self.times[label] = (analysis, time.perf_counter() - t0)
            return self._fail(label, f"{type(exc).__name__}: {exc}")
        self.times[label] = (analysis, time.perf_counter() - t0)
        if check is None:
            return result
        tracing = self.tracer is not None and self.tracer.on
        if tracing:
            self.tracer.on = False
        try:
            problems = check(result)
        except Exception as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        finally:
            if tracing:
                self.tracer.on = True
        if problems:
            return self._fail(label, "; ".join(problems[:3]))
        return result

    def _fail(self, label: str, message: str):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{label}: {message}")
        return None

    def cli(self, analysis: str, scenario, path, out_dir, svg: bool = False):
        """One CLI job; returns {table name: ResultTable} of the CSVs it wrote."""
        argv = [analysis, "--scenario", str(path), "--out", str(out_dir)]
        if svg:
            argv.append("--svg")
        label = f"{scenario.name}/{analysis}"

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = io_cli.main(argv)
            return code, out.getvalue(), err.getvalue()

        tables = {}

        def check(result):
            code, out, err = result
            if code != 0:
                return [f"exit code {code}: {err.strip()[:300]}"]
            written = [Path(line[6:]) for line in out.splitlines() if line.startswith("wrote ")]
            csvs = [p for p in written if p.suffix == ".csv"]
            if not csvs:
                return ["no CSV written"]
            problems = []
            for p in csvs:
                tables[p.stem] = io_cli.read_result_csv(p)
            for name, table in tables.items():
                problems += self.compare(f"{scenario.name}/{name}", table.columns, table.rows)
            problems += invariants(analysis, scenario, tables)
            return problems

        return tables if self.call(analysis, label, run, check) is not None else None

    def compare(self, key: str, columns, rows) -> list[str]:
        """Record or check a table against the reference; [] when no reference."""
        if self.record:
            self.reference[key] = summarize(columns, rows)
            return []
        ref = self.reference.get(key)
        return [] if ref is None else [f"{key}: {p}" for p in compare(ref, columns, rows)]


# --- reference tables -----------------------------------------------------------

def _spread(n: int, k: int) -> list[int]:
    """k row indices spread evenly over n rows (fewer when n < k)."""
    return sorted({int(round(x)) for x in np.linspace(0, n - 1, k)}) if n else []


def summarize(columns, rows: np.ndarray) -> dict:
    """Compact form of a table: exact columns whole, others sampled and summed."""
    n = rows.shape[0]
    idx = _spread(n, SAMPLES)
    entry = {"columns": list(columns), "n_rows": n, "exact": {}, "sample_rows": idx,
             "sample": {}, "abs_sum": {}, "abs_max": {}, "n_nan": {}}
    for k, c in enumerate(columns):
        col = rows[:, k]
        if c in EXACT:
            entry["exact"][c] = [int(v) for v in col]
        elif c not in UNCHECKED:
            fin = np.abs(col[np.isfinite(col)])
            entry["sample"][c] = [None if math.isnan(col[i]) else float(col[i]) for i in idx]
            entry["abs_sum"][c] = float(fin.sum())
            entry["abs_max"][c] = float(fin.max(initial=0.0))
            entry["n_nan"][c] = int(np.isnan(col).sum())
    return entry


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= RTOL * abs(b) + ATOL * scale


def compare(ref: dict, columns, rows: np.ndarray) -> list[str]:
    if list(columns) != ref["columns"]:
        return [f"columns {list(columns)} != {ref['columns']}"]
    if rows.shape[0] != ref["n_rows"]:
        return [f"{rows.shape[0]} rows, reference has {ref['n_rows']}"]
    problems = []
    pos = {c: k for k, c in enumerate(columns)}
    for c, want in ref["exact"].items():
        got = [int(v) for v in rows[:, pos[c]]]
        if got != want:
            bad = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
            problems.append(f"{c} differs at {len(bad)} rows (first row {bad[0]})")
    for c, want in ref["sample"].items():
        col = rows[:, pos[c]]
        scale = ref["abs_max"][c]
        if int(np.isnan(col).sum()) != ref["n_nan"][c]:
            problems.append(f"{c}: {int(np.isnan(col).sum())} NaN, reference {ref['n_nan'][c]}")
            continue
        for i, w in zip(ref["sample_rows"], want):
            g = float(col[i])
            if (w is None) != math.isnan(g) or (w is not None and not _close(g, w, scale)):
                problems.append(f"{c}[{i}] = {g!r}, reference {w!r}")
        fin = np.abs(col[np.isfinite(col)])
        if not _close(float(fin.sum()), ref["abs_sum"][c], scale * rows.shape[0]):
            problems.append(f"{c}: sum |x| = {fin.sum()!r}, reference {ref['abs_sum'][c]!r}")
    return problems


# --- invariants -------------------------------------------------------------------

def oracle_index(network, omega: float) -> tuple[float, float]:
    """(min eigenvalue, Frobenius norm) of Y_n + Y_n^H, assembled here from
    each component's 2x2 admittance, independently of the network module."""
    bus = {b: k for k, b in enumerate(network.buses)}
    y = np.zeros((2 * len(bus), 2 * len(bus)), dtype=complex)
    s = 1j * omega

    def add(i, j, block):
        y[2 * i:2 * i + 2, 2 * j:2 * j + 2] += block

    for br in network.branches:
        yb = br.model.admittance(s)
        i, j = bus[br.from_bus], bus[br.to_bus]
        add(i, i, yb)
        add(j, j, yb)
        add(i, j, -yb)
        add(j, i, -yb)
    for item in tuple(network.shunts) + tuple(network.devices):
        add(bus[item.bus], bus[item.bus], item.model.admittance(s))
    h = y + y.conj().T
    return float(np.linalg.eigvalsh(h)[0]), float(np.linalg.norm(h))


def invariants(analysis: str, scenario, tables: dict) -> list[str]:
    problems = []
    if analysis == "participation":
        t = tables["participation"]
        cols = list(t.columns)
        shares = [k for k, c in enumerate(cols) if c.startswith("p_")]
        ok = t.rows[:, cols.index("degenerate")] == 0
        index = t.rows[ok, cols.index("nodal_index")]
        total = t.rows[ok][:, shares].sum(axis=1)
        err = np.abs(total - index) / np.maximum(1.0, np.abs(index))
        if err.size and err.max() > PARTICIPATION_TOL:
            problems.append(f"participations miss the index by {err.max():.3g} (relative)")
    if analysis == "nodal-passivity":
        t = tables["nodal_passivity"]
        for k in _spread(t.rows.shape[0], ORACLE_POINTS):
            f, index = t.rows[k, 0], t.rows[k, 1]
            want, norm = oracle_index(scenario.network, 2.0 * math.pi * f)
            if abs(index - want) > ORACLE_TOL * norm:
                problems.append(f"nodal index {index!r} at {f:.6g} Hz, oracle {want!r}")
    return problems


def _finite(m) -> list[str]:
    m = np.asarray(m)
    return [] if np.all(np.isfinite(m)) else ["mode sensitivity has non-finite entries"]


def _modes_of(tables) -> list[complex]:
    t = tables["modes"]
    cols = list(t.columns)
    return [complex(r[cols.index("re_lambda")], r[cols.index("im_lambda")]) for r in t.rows]


# --- workloads --------------------------------------------------------------------

def context(chosen: dict, out: Path) -> SimpleNamespace:
    """Scenario paths plus each scenario loaded (outside any timing) for the checks."""
    return SimpleNamespace(out=out, **chosen,
                           scenarios={p: io_cli.load_scenario(p) for p in scenario_paths(chosen)})


def fixtures_pass(ops: Ops, ctx) -> None:
    """Every analysis declared in both bundled fixtures, with SVG."""
    for path in ctx.fixtures:
        scenario = ctx.scenarios[path]
        for analysis in scenario.analyses:
            ops.cli(analysis, scenario, path, ctx.out / scenario.name, svg=True)


def ladder_pass(ops: Ops, ctx) -> None:
    """Hermitian nodal sweeps on the seeded ladder, CSV only."""
    scenario = ctx.scenarios[ctx.ladder]
    for analysis in ("nodal-passivity", "nodal-sens", "participation"):
        ops.cli(analysis, scenario, ctx.ladder, ctx.out / scenario.name)


def _mode_sens(ops: Ops, scenario, lams) -> None:
    for k, lam in enumerate(lams):
        ops.call("mode-sens", f"{scenario.name}/mode-sens[{k}]",
                 lambda lam=lam: stability.mode_admittance_sensitivity(
                     scenario.network, lam, scenario.omega_b),
                 _finite)


def stability_pass(ops: Ops, ctx) -> None:
    """Criterion-8 grid (GNC, mode scan, mode sensitivities), then the
    10-bus ladder's mode scan through the CLI and a sensitivity at every mode."""
    for path in ctx.grid:
        sc = ctx.scenarios[path]
        got = ops.call("gnc", f"{sc.name}/gnc", lambda: stability.gnc_auto(sc.network))
        verdict = None if got is None else got[1]

        def check_scan(scan, sc=sc, verdict=verdict):
            problems = []
            if verdict is not None and verdict.stable != (not scan.unstable):
                problems.append(f"gnc says stable={verdict.stable}, "
                                f"mode scan says unstable={scan.unstable}")
            modes = sorted(scan.modes, key=lambda m: (m.frequency_hz, m.lam.real))
            rows = np.array([[m.lam.real, m.lam.imag] for m in modes]).reshape(-1, 2)
            if verdict is not None:
                problems += ops.compare(f"{sc.name}/gnc", ("encirclements", "stable"),
                                        np.array([[verdict.encirclements, verdict.stable]]))
            problems += ops.compare(f"{sc.name}/mode_scan", ("re_lambda", "im_lambda"), rows)
            return problems

        scan = ops.call("modes", f"{sc.name}/modes",
                        lambda: stability.mode_scan(sc.network, sc.omega_b), check_scan)
        if scan is not None:
            _mode_sens(ops, sc, [m.lam for m in scan.modes])

    scenario = ctx.scenarios[ctx.ladder]
    tables = ops.cli("modes", scenario, ctx.ladder, ctx.out / scenario.name)
    if tables is not None:
        _mode_sens(ops, scenario, _modes_of(tables))


# fixtures: 2x2 and 6x6 matrices, so per-point Python, the converter closed
#   forms, param_derivative and CSV/SVG writing show, not LAPACK.
# ladder-sweep: 80x80 Hermitian eigensolves and ~100 components assembled
#   per point; where frequency batching should pay most.
# stability-study: Muller assembles Y_n one complex s at a time, which a
#   batched sweep cannot absorb, plus eig, det and the 20x20 adjugate (the
#   LU path; see inputs.STABILITY_LADDER_BUSES for why not 80x80).  GNC
#   stays off the random ladder: its grid refinement (800 to 25,600 points)
#   follows the seed, not the code.
WORKLOADS = {
    "fixtures": fixtures_pass,
    "ladder-sweep": ladder_pass,
    "stability-study": stability_pass,
}

# Layers the traced run must see called ("mainly on" the workload).
MAINLY_ON = {
    "fixtures": ("devices.admittance", "devices.param_derivative", "numerics.hermitian_eigen",
                 "passivity.index_sweep", "passivity.sensitivity", "parallel.parallel_map",
                 "io_cli.load_scenario", "io_cli.run", "io_cli.emit_csv",
                 "io_cli.emit_svg_plot"),
    "ladder-sweep": ("devices.admittance", "network.assemble", "network.sweep",
                     "network.components", "numerics.hermitian_eigen",
                     "passivity.index_sweep", "parallel.parallel_map",
                     "io_cli.load_scenario", "io_cli.run", "io_cli.emit_csv"),
    "stability-study": ("network.assemble", "numerics.general_eigen", "numerics.inverse",
                        "numerics.determinant", "numerics.adjugate", "stability.gnc",
                        "stability.loop_gain", "stability.refine_mode",
                        "stability.xi_coefficient", "stability.fd_pf"),
}
