"""Scenario files, result serialization, SVG plots, and the command line.

A scenario is a single JSON document (schema 1, per-unit quantities)
declaring the base, the frequency grid, the network and the analyses that
may be run on it.  Loading is total: a file either yields a fully
validated Scenario (black-box tables pre-loaded) or a structured error
listing every violated constraint.

Each analysis is one entry of a table keyed by its name: its declared
options, the function that runs it and an optional summary line.  Option
checking, dispatch and the CLI's subcommands all read that table.  The
function declares each result table as one {column: values} mapping.

Results are flat tables written as RFC-4180-style CSV at 17 significant
digits, so re-parsing reproduces every float exactly.  Output files carry
data only and are byte-identical across runs and thread counts.  A
black-box device's frequency-response table is such a file too.

SVG emission is deliberately dependency-free: log-frequency line charts
with one path per column, and equal-aspect Nyquist planes with (-1, 0)
marked.  Each series is mapped to the plot as one array, and each finite
run of it is formatted with one format string.  The line chart still takes
math.log10 one value at a time: np.log10 can differ from it in the last
bit, which can turn a 0.01 px digit of the output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import MISSING, dataclass, fields
from importlib import resources
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import network as net
from . import passivity
from .devices import (
    BlackBoxModel,
    DeviceModel,
    GflConverterL1,
    GflParams,
    GfmConverterL1,
    GfmParams,
    OperatingPoint,
    RlBranch,
    ShuntCapacitor,
    TheveninGrid,
    sample_model,
)
from .errors import (
    MalformedTableError,
    NumericalFailure,
    ScenarioParseError,
    ScenarioValidationError,
    ValidationFailure,
)

# The keys the loader reads; any other key is a violation.
_TOP_KEYS = ("schema", "name", "base", "grid", "buses", "branches", "shunts", "devices",
             "standalone_stable", "analyses")
_BASE_KEYS = ("s_va", "v_v", "f_hz")
_GRID_KEYS = ("f_min_hz", "f_max_hz", "points", "points_per_decade", "freqs_hz")
_OP_FIELDS = {"p": True, "q": True, "v": True}  # field -> required


class Scenario(NamedTuple):
    """Validated analysis configuration; analyses map each declared
    analysis to its options, defaults filled in."""

    name: str
    omega_b: float
    omegas: np.ndarray
    network: net.Network
    standalone_stable: bool
    analyses: dict


@dataclass(frozen=True, eq=False)
class ResultTable:
    """Column-named numeric table."""

    name: str
    columns: tuple[str, ...]
    rows: np.ndarray  # (n_rows, n_columns) float

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.size == 0:
            rows = rows.reshape(0, len(self.columns))
        if rows.ndim != 2 or rows.shape[1] != len(self.columns):
            raise ValueError(f"rows shape {rows.shape} does not match {len(self.columns)} columns")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "columns", tuple(self.columns))


# --- black-box tables -------------------------------------------------------

# The columns of a black-box device's frequency-response table: a result
# CSV with one row per frequency and Y(j 2 pi f) entry by entry.
BLACKBOX_HEADER = ("freq_hz", "re_ydd", "im_ydd", "re_ydq", "im_ydq",
                   "re_yqd", "im_yqd", "re_yqq", "im_yqq")


def read_blackbox_table(path) -> BlackBoxModel:
    """Load a frequency-response table (see BLACKBOX_HEADER).  BlackBoxModel
    checks all but the header, and every MalformedTableError names the file."""
    table = read_result_csv(path)
    if tuple(c.strip() for c in table.columns) != BLACKBOX_HEADER:
        raise MalformedTableError(
            f"{path}: bad header {list(table.columns)!r}, expected {','.join(BLACKBOX_HEADER)}")
    data = table.rows[:, 1:]
    y = (data[:, 0::2] + 1j * data[:, 1::2]).reshape(-1, 2, 2)
    try:
        return BlackBoxModel(table.rows[:, 0], y)
    except MalformedTableError as exc:
        raise MalformedTableError(f"{path}: {exc}") from None


def write_blackbox_table(path, model: DeviceModel, freqs_hz) -> None:
    """Tabulate a model as a black-box table, at 17 significant digits; a
    table that read_blackbox_table would refuse raises, and nothing is written."""
    table = sample_model(model, freqs_hz)
    y = table.ydata.reshape(-1, 4)
    rows = np.column_stack([table.freqs_hz, np.stack([y.real, y.imag], axis=-1).reshape(-1, 8)])
    emit_csv(ResultTable(Path(path).stem, BLACKBOX_HEADER, rows), path)


# --- scenario loading -------------------------------------------------------

def _finite(v) -> float | None:
    """A JSON number as a float, or None when that is not finite: NaN and
    Infinity (json reads both), or an integer too large for a float."""
    try:
        v = float(v)
    except OverflowError:
        return None
    return v if math.isfinite(v) else None


def _num(doc, key, ctx, violations, positive=False):
    if key not in doc:
        violations.append(f"{ctx}: missing required field {key!r}")
        return None
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        violations.append(f"{ctx}.{key}: expected a number, got {type(v).__name__}")
        return None
    v = _finite(v)
    if v is None:
        violations.append(f"{ctx}.{key}: must be finite")
        return None
    if positive and v <= 0:
        violations.append(f"{ctx}.{key}: must be positive, got {v!r}")
        return None
    return v


def _str(doc, key, ctx, violations):
    if key not in doc:
        violations.append(f"{ctx}: missing required field {key!r}")
        return None
    v = doc[key]
    if not isinstance(v, str) or not v:
        violations.append(f"{ctx}.{key}: expected a non-empty string")
        return None
    return v


def _reject_unknown(given, known, ctx, what, violations):
    for key in given:
        if key not in known:
            name = f"{ctx}.{key}" if ctx else key
            violations.append(
                f"{name}: unknown {what} (known: {', '.join(sorted(known)) or 'none'})")


def _read_fields(given, table, ctx, what, violations) -> dict | None:
    """The numbers a JSON object gives for the names of table (name ->
    required): an optional name may be left out; an unknown key (a
    "parameter" or a "field") and a bad value are violations, and any
    violation gives None."""
    before = len(violations)
    _reject_unknown(given, table, ctx, what, violations)
    values = {name: _num(given, name, ctx, violations)
              for name, required in table.items() if required or name in given}
    return values if len(violations) == before else None


# kind -> (what makes the model; the dataclass whose fields are its
#   "params", or None for a table read from "path"; the keys its entry may
#   hold next to those of its section).  A converter's op is parsed apart.
#   The models check their own ranges.
_MODELS = {
    "rl": (RlBranch, RlBranch, ("kind", "params")),
    "shunt_c": (ShuntCapacitor, ShuntCapacitor, ("kind", "params")),
    "thevenin": (TheveninGrid, TheveninGrid, ("kind", "params")),
    "gfl_l1": (GflConverterL1, GflParams, ("kind", "params", "op")),
    "gfm_l1": (GfmConverterL1, GfmParams, ("kind", "params", "op")),
    "blackbox": (read_blackbox_table, None, ("kind", "path", "params")),
}


def _build_model(doc, ctx, entry_keys, omega_b, base_dir, violations) -> DeviceModel | None:
    kind = _str(doc, "kind", ctx, violations)
    if kind is None:
        return None
    if kind not in _MODELS:
        violations.append(f"{ctx}.kind: unknown model kind {kind!r} (known: {', '.join(_MODELS)})")
        return None
    make, source, model_keys = _MODELS[kind]
    _reject_unknown(doc, (*entry_keys, *model_keys), ctx, "field", violations)
    try:
        if source is None:
            # the table is loaded now so later evaluation cannot hit I/O
            if "params" in doc:
                violations.append(f"{ctx}.params: a {kind} model takes no parameters")
            rel = _str(doc, "path", ctx, violations)
            return None if rel is None else make(base_dir / rel)
        given, values = doc.get("params", {}), None
        if isinstance(given, dict):
            # every field of source but omega_b; one without a default is required
            table = {f.name: f.default is MISSING for f in fields(source) if f.name != "omega_b"}
            values = _read_fields(given, table, f"{ctx}.params", "parameter", violations)
        else:
            violations.append(f"{ctx}.params: expected an object")
        if source is make:
            return None if values is None else make(**values, omega_b=omega_b)
        given, op = doc.get("op"), None
        if isinstance(given, dict):
            op = _read_fields(given, _OP_FIELDS, f"{ctx}.op", "field", violations)
        else:
            violations.append(f"{ctx}: converter models need an \"op\" object with p, q, v")
        if values is None or op is None:
            return None
        return make(params=source(**values), op=OperatingPoint.from_terminal(**op, omega_b=omega_b))
    except (ValidationFailure, ValueError) as exc:
        violations.append(f"{ctx}: {exc}")
        return None


def _build_grid(doc, violations) -> np.ndarray | None:
    grid = doc.get("grid")
    if not isinstance(grid, dict):
        violations.append("grid: missing or not an object")
        return None
    _reject_unknown(grid, _GRID_KEYS, "grid", "field", violations)
    if "freqs_hz" in grid:
        others = [k for k in ("f_min_hz", "f_max_hz", "points", "points_per_decade") if k in grid]
        if others:
            violations.append(f"grid: freqs_hz excludes {', '.join(others)}")
            return None
        freqs = grid["freqs_hz"]
        if (not isinstance(freqs, list) or len(freqs) < 2
                or not all(isinstance(f, (int, float)) and not isinstance(f, bool) for f in freqs)):
            violations.append("grid.freqs_hz: expected a list of at least 2 numbers")
            return None
        arr = np.array([_finite(f) for f in freqs], dtype=float)  # None reads as NaN
        if not np.all(np.isfinite(arr)):
            violations.append("grid.freqs_hz: must be finite")
            return None
        if np.any(arr <= 0) or np.any(np.diff(arr) <= 0):
            violations.append("grid.freqs_hz: must be positive and strictly increasing")
            return None
        return 2.0 * math.pi * arr
    f_min = _num(grid, "f_min_hz", "grid", violations, positive=True)
    f_max = _num(grid, "f_max_hz", "grid", violations, positive=True)
    if f_min is None or f_max is None:
        return None
    if not f_min < f_max:
        violations.append(f"grid: f_min_hz ({f_min!r}) must be below f_max_hz ({f_max!r})")
        return None
    if ("points" in grid) == ("points_per_decade" in grid):
        violations.append("grid: give exactly one of points, points_per_decade (or freqs_hz alone)")
        return None
    if "points" in grid:
        pts = _num(grid, "points", "grid", violations, positive=True)
        if pts is None:
            return None
        if not pts.is_integer():  # an integral float such as 400.0 is accepted
            violations.append(f"grid.points: expected a whole number, got {pts!r}")
            return None
        points = int(pts)
    else:
        ppd = _num(grid, "points_per_decade", "grid", violations, positive=True)
        if ppd is None:
            return None
        count = ppd * math.log10(f_max / f_min)
        if not count < sys.maxsize:  # round() of an infinite count raises
            violations.append(f"grid: {ppd!r} points per decade do not fit in memory")
            return None
        points = max(2, round(count) + 1)
    if points < 2:
        violations.append("grid.points: need at least 2")
        return None
    if points <= sys.maxsize // 8:  # numpy refuses larger sizes before allocating
        try:
            return passivity.log_omega_grid(f_min, f_max, points)
        except MemoryError:
            pass
    violations.append(f"grid: {points} points do not fit in memory")
    return None


def load_scenario(path) -> Scenario:
    """Parse and fully validate a scenario file.

    Raises ScenarioParseError for broken JSON and ScenarioValidationError
    carrying every violated constraint otherwise.
    """
    p = Path(path)
    try:
        raw = p.read_bytes()
    except OSError as exc:
        raise ScenarioParseError(f"cannot read scenario {path}: {exc}") from exc
    try:
        doc = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ScenarioParseError(f"{path}: not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ScenarioValidationError([f"{path}: top level must be a JSON object"])

    violations: list[str] = []
    schema = doc.get("schema")
    if isinstance(schema, bool) or schema != 1:  # True == 1, but 1.0 is accepted
        violations.append(f"schema: expected 1, got {schema!r}")
    _reject_unknown(doc, _TOP_KEYS, "", "field", violations)
    name = doc.get("name", p.stem)
    if not isinstance(name, str) or not name:
        violations.append("name: expected a non-empty string")

    base = doc.get("base")
    f_hz = None
    if not isinstance(base, dict):
        violations.append("base: missing or not an object (need s_va, v_v, f_hz)")
    else:
        # every quantity is per unit, so s_va and v_v are checked but not used
        _reject_unknown(base, _BASE_KEYS, "base", "field", violations)
        _num(base, "s_va", "base", violations, positive=True)
        _num(base, "v_v", "base", violations, positive=True)
        f_hz = _num(base, "f_hz", "base", violations, positive=True)
    omega_b = 2.0 * math.pi * f_hz if f_hz else 2.0 * math.pi * 60.0

    omegas = _build_grid(doc, violations)

    buses = doc.get("buses")
    if (not isinstance(buses, list) or not buses
            or not all(isinstance(b, str) and b for b in buses)):
        violations.append("buses: expected a non-empty list of names")
        buses = []
    else:
        violations += [f"buses: {problem}" for problem in net.bus_problems(buses)]

    bus_set = set(buses)
    found = {}  # section -> (values, model) of each entry
    for section, (keys, *_) in net.SECTIONS.items():
        found[section], seen = [], set()
        entries = doc.get(section, [])
        if not isinstance(entries, list):
            violations.append(f"{section}: expected a list")
            entries = []
        for k, item in enumerate(entries):
            ctx = f"{section}[{k}]"
            if not isinstance(item, dict):
                violations.append(f"{ctx}: expected an object")
                continue
            values = [_str(item, key, ctx, violations) for key in keys]
            violations += [f"{ctx}: {message}"
                           for _, message in net.entry_problems(section, values, bus_set, seen)]
            model = _build_model(item, ctx, keys, omega_b, p.parent, violations)
            found[section].append((*values, model))

    standalone = doc.get("standalone_stable", False)
    if not isinstance(standalone, bool):
        violations.append("standalone_stable: expected true or false")
        standalone = False

    network = None
    if not violations:  # so of Network's rules, only unique component names are unchecked
        try:
            network = net.Network(buses=buses, **{
                section: [cls(*entry) for entry in found[section]]
                for section, (_, cls, *_) in net.SECTIONS.items()})
        except ValueError as exc:
            violations.append(str(exc))

    analyses = doc.get("analyses", {})
    resolved = {}
    if not isinstance(analyses, dict):
        violations.append("analyses: expected an object keyed by analysis name")
    else:
        for aname, opts in analyses.items():
            ctx = f"analyses.{aname}"
            if aname not in ANALYSES:
                violations.append(f"{ctx}: unknown analysis (known: {', '.join(ANALYSES)})")
                continue
            if not isinstance(opts, dict):
                violations.append(f"{ctx}: expected an options object")
                continue
            if network is not None:
                resolved[aname] = _resolve_options(_ANALYSIS_TABLE[aname].options, opts, ctx,
                                                   network, violations)

    if violations:
        raise ScenarioValidationError(violations)

    return Scenario(name=name, omega_b=omega_b, omegas=omegas, network=network,
                    standalone_stable=standalone, analyses=resolved)


# --- analysis options -------------------------------------------------------

class _Option(NamedTuple):
    name: str
    # (value, the valid options declared before it, network) -> what was
    # expected, or None when the value is acceptable
    check: Callable
    default: object = None  # None: the option is required


def _resolve_options(declared, opts, ctx, network, violations) -> dict:
    """Every declared option, defaults filled in; each bad or unknown key
    is a violation."""
    _reject_unknown(opts, [o.name for o in declared], ctx, "option", violations)
    done = {}
    for opt in declared:
        value = opts.get(opt.name, opt.default)
        expected = opt.check(value, done, network)
        if expected is None:
            done[opt.name] = value
        else:
            violations.append(f"{ctx}.{opt.name}: expected {expected}")
    return done


def _one_of(names, value):
    names = sorted(names)
    return None if value in names else f"one of {names}, got {value!r}"


def _named(*kinds):
    """Option naming a component of one of the kinds."""
    return lambda value, done, network: _one_of(
        [ref.name for ref in net.components(network) if ref.kind in kinds], value)


def _param_of(owner):
    """Option naming a parameter of the component that option owner names."""
    def check(value, done, network):
        if owner not in done:
            return None  # owner's own violation already reported
        return _one_of(net.component(network, done[owner]).model.param_names(), value)
    return check


def _number(expected, ok=lambda value, done: True, *more):
    """Finite JSON number for which ok(value, done) holds, else expected;
    more are further (expected, ok) rules, checked in turn after it."""
    def check(value, done, network):
        finite = (not isinstance(value, bool) and isinstance(value, (int, float))
                  and _finite(value) is not None)
        rules = [(expected, lambda v, d: finite and ok(v, d)), *more]
        return next((text for text, holds in rules if not holds(value, done)), None)
    return check


def _shifted(model, param, delta_pct):
    """device-sens's step in param, delta_pct percent of its value (of 1
    where it is 0), and the model with param moved by it."""
    rho = model.get_param(param)
    delta = (rho or 1.0) * delta_pct / 100.0
    return delta, model.with_param(param, rho + delta)


def _delta_pct(value, done, network):
    """device-sens's step: a nonzero number that the model's range allows."""
    expected = _number("a nonzero number", lambda v, done: v != 0)(value, done, network)
    if expected is None and {"device", "param"} <= done.keys():
        try:
            _shifted(net.component(network, done["device"]).model, done["param"], value)
        except ValueError as exc:
            return f"a step the model accepts, got {value!r}: {exc}"
    return expected


# --- analyses ---------------------------------------------------------------

def _run_device_passivity(sc: Scenario, opts, freqs):
    sweep = passivity.index_sweep(net.component(sc.network, opts["device"]).model, sc.omegas)
    return {f"device_passivity_{opts['device']}":
            {"freq_hz": freqs, "index": sweep.indices, "eigen_gap": sweep.eigen_gaps}}


def _run_device_sens(sc: Scenario, opts, freqs):
    model = net.component(sc.network, opts["device"]).model
    param, delta_pct = opts["param"], float(opts["delta_pct"])
    delta, shifted = _shifted(model, param, delta_pct)
    sens = passivity.param_passivity_sensitivity(model, param, sc.omegas)
    # the exact column re-evaluates the shifted model, never the linearization
    exact = passivity.index_sweep(shifted, sc.omegas)
    label = f"{delta_pct:g}".replace("-", "m").replace(".", "p")
    return {f"device_sens_{opts['device']}_{param}": {
        "freq_hz": freqs, "index": sens.indices, "d_index": sens.derivatives,
        f"predicted_after_{label}pct": sens.indices + delta * sens.derivatives,
        f"exact_after_{label}pct": exact.indices}}


def _run_nodal_passivity(sc: Scenario, opts, freqs):
    sweep = net.nodal_index_sweep(sc.network, sc.omegas)
    return {"nodal_passivity": {
        "freq_hz": freqs, "nodal_index": sweep.indices,
        **{f"index_{dev.name}": passivity.index_sweep(dev.model, sc.omegas).indices
           for dev in sc.network.devices}}}


def _run_nodal_sens(sc: Scenario, opts, freqs):
    comp, param = opts["component"], opts["param"]
    sens = net.nodal_param_sensitivity(sc.network, comp, param, sc.omegas)
    return {f"nodal_sens_{comp}_{param}": {
        "freq_hz": freqs, "nodal_index": sens.indices, "d_index": sens.derivatives,
        "degenerate": sens.degenerate}}


def _run_participation(sc: Scenario, opts, freqs):
    table = net.participation_sweep(sc.network, sc.omegas)
    return {"participation": {
        "freq_hz": freqs, "nodal_index": table.indices,
        **{f"p_{name}": values for name, values in zip(table.names, table.values)},
        "degenerate": table.degenerate}}


def _run_gnc(sc: Scenario, opts, freqs):
    from . import stability  # on first use: five analyses never load it
    loci, verdict = stability.gnc_auto(
        sc.network,
        f_min_hz=float(freqs[0]),
        f_max_hz=float(freqs[-1]),
        points=len(sc.omegas),
    )
    columns = {"freq_hz": loci.omegas / (2.0 * math.pi)}
    for t, locus in enumerate(loci.loci, 1):
        columns |= {f"re_locus_{t}": locus.real, f"im_locus_{t}": locus.imag}
    return {"gnc_loci": columns, "gnc_verdict": {
        "encirclements": verdict.encirclements, "stable": verdict.stable,
        "winding_float": verdict.winding_float,
        "min_critical_distance": verdict.min_critical_distance,
        "standalone_stable_asserted": sc.standalone_stable}}


def _gnc_summary(tables):
    row = dict(zip(tables[1].columns, tables[1].rows[0]))
    verdict = "stable" if row["stable"] else "unstable"
    return (f"gnc verdict: {verdict} (encirclements={int(row['encirclements'])}, "
            f"min distance to critical point={row['min_critical_distance']:.4g})")


def _run_fdpf(sc: Scenario, opts, freqs):
    from . import stability  # on first use: five analyses never load it
    f_hz = float(opts["f_hz"])
    part = stability.fd_pf(sc.network, 1j * 2.0 * math.pi * f_hz)
    diag = part.diagonal_by_bus()
    lam = part.critical_value
    return {
        "fdpf": {"freq_hz": np.full(diag.size, f_hz), "bus": np.arange(1.0, diag.size + 1.0),
                 "re_participation": diag.real, "im_participation": diag.imag,
                 "abs_participation": np.abs(diag)},
        "fdpf_critical": {"freq_hz": f_hz, "re_lambda_c": lam.real, "im_lambda_c": lam.imag,
                          "n_tied": len(part.tied_with)},
    }


def _run_modes(sc: Scenario, opts, freqs):
    from . import stability  # on first use: five analyses never load it
    scan = stability.mode_scan(
        sc.network, sc.omega_b,
        re_range=(float(opts["re_min"]), float(opts["re_max"])),
        im_range=(0.0, 2.0 * math.pi * float(opts["f_max_hz"])),
    )
    modes = sorted(scan.modes, key=lambda m: (m.frequency_hz, m.lam.real))
    lam = np.array([m.lam for m in modes], dtype=complex)
    return {
        "modes": {"freq_hz": [m.frequency_hz for m in modes], "re_lambda": lam.real,
                  "im_lambda": lam.imag, "residual": [m.residual for m in modes],
                  "iterations": [m.iterations for m in modes]},
        "modes_verdict": {"unstable": scan.unstable, "n_modes": len(modes)},
    }


def _modes_summary(tables):
    row = dict(zip(tables[1].columns, tables[1].rows[0]))
    verdict = "unstable" if row["unstable"] else "stable"
    return f"mode scan: {verdict} ({int(row['n_modes'])} distinct modes found)"


class _Analysis(NamedTuple):
    options: tuple[_Option, ...]
    # (scenario, resolved options, grid in Hz) -> {table name: {column:
    #   values}}, each table's values arrays of one length, or numbers for
    #   a one-row table
    run: Callable[..., dict]
    # result tables -> the line printed after the files are written
    summary: Callable[[list[ResultTable]], str] | None = None


_ANALYSIS_TABLE = {
    "device-passivity": _Analysis((_Option("device", _named("device")),), _run_device_passivity),
    "device-sens": _Analysis((
        _Option("device", _named("device")),
        _Option("param", _param_of("device")),
        _Option("delta_pct", _delta_pct, 5.0),
    ), _run_device_sens),
    "nodal-passivity": _Analysis((), _run_nodal_passivity),
    "nodal-sens": _Analysis((
        _Option("component", _named("device", "branch", "shunt")),
        _Option("param", _param_of("component")),
    ), _run_nodal_sens),
    "participation": _Analysis((), _run_participation),
    "gnc": _Analysis((), _run_gnc, _gnc_summary),
    "fdpf": _Analysis((_Option("f_hz", _number("a positive number", lambda v, done: v > 0)),),
                      _run_fdpf),
    "modes": _Analysis((
        _Option("re_min", _number("a number"), -500.0),
        _Option("re_max", _number(
            "a number above re_min", lambda v, done: "re_min" not in done or v > done["re_min"],
            ("a number with re_max - re_min finite",
             lambda v, done: "re_min" not in done or math.isfinite(v - done["re_min"]))), 200.0),
        _Option("f_max_hz", _number(
            "a positive number", lambda v, done: v > 0,
            ("a number with 2*pi*f_max_hz finite", lambda v, done: math.isfinite(2 * math.pi * v))),
            500.0),
    ), _run_modes, _modes_summary),
}

ANALYSES = tuple(_ANALYSIS_TABLE)


def run(scenario: Scenario, analysis_name: str) -> list[ResultTable]:
    """Execute one declared analysis; deterministic for a fixed scenario."""
    if analysis_name not in ANALYSES:
        raise ScenarioValidationError([f"unknown analysis {analysis_name!r}"])
    if analysis_name not in scenario.analyses:
        raise ScenarioValidationError(
            [f"analysis {analysis_name!r} is not declared in scenario {scenario.name!r}"])
    tables = _ANALYSIS_TABLE[analysis_name].run(
        scenario, scenario.analyses[analysis_name], scenario.omegas / (2.0 * math.pi))
    return [ResultTable(name, tuple(columns), np.column_stack([*columns.values()]))
            for name, columns in tables.items()]


# --- serialization ----------------------------------------------------------

def emit_csv(table: ResultTable, path) -> None:
    """Header plus rows at 17 significant digits."""
    row = ",".join(["%.17g"] * len(table.columns))
    lines = [",".join(table.columns)] + [row % tuple(r) for r in table.rows.tolist()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_result_csv(path) -> ResultTable:
    """The table emit_csv wrote: a header line, then rows of numbers;
    blank lines are skipped.  Raises MalformedTableError naming the file
    when it cannot be read as UTF-8 text, and naming path:line for an
    empty file, a row not as long as the header or a cell that is no
    number."""
    import csv  # on the first read: writing results never needs it
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            nonblank = filter(None, reader)
            columns = next(nonblank, None)
            if columns is None:
                raise MalformedTableError(f"{path}:1: empty table file")
            rows = []
            for row in nonblank:
                try:
                    if len(row) != len(columns):
                        raise ValueError(f"expected {len(columns)} columns, got {len(row)}")
                    rows.append([float(v) for v in row])
                except ValueError as exc:
                    raise MalformedTableError(f"{path}:{reader.line_num}: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedTableError(f"cannot read table {path}: {exc}") from exc
    except csv.Error as exc:
        raise MalformedTableError(f"{path}:{reader.line_num}: {exc}") from None
    return ResultTable(Path(path).stem, tuple(columns),
                       np.array(rows, dtype=float).reshape(-1, len(columns)))


# --- SVG emission -----------------------------------------------------------

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#17becf", "#7f7f7f", "#bcbd22", "#e377c2",
)

_W, _H = 880, 520
_ML, _MR, _MT, _MB = 72, 24, 46, 54


class PlotSpec(NamedTuple):
    """How to render a table: log-frequency lines or a Nyquist plane."""

    kind: str = "line"  # "line" | "nyquist"
    title: str = ""


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _px(v) -> str:
    """An SVG coordinate: integers as they are, anything else to 0.01 px."""
    return str(v) if isinstance(v, int) else f"{v:.2f}"


def _line(x1, y1, x2, y2, stroke, width, extra="") -> str:
    return (f'<line x1="{_px(x1)}" y1="{_px(y1)}" x2="{_px(x2)}" y2="{_px(y2)}" '
            f'stroke="{stroke}" stroke-width="{width}"{extra}/>')


def _rect(x, y, width, height) -> str:
    return (f'<rect x="{_px(x)}" y="{_px(y)}" width="{_px(width)}" height="{_px(height)}" '
            f'fill="none" stroke="#444" stroke-width="1"/>')


def _text(x, y, text, size, fill="#333", anchor=None) -> str:
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return (f'<text x="{_px(x)}" y="{_px(y)}"{anchor} font-family="sans-serif" '
            f'font-size="{size}" fill="{fill}">{_esc(text)}</text>')


def _series_path(color, xs, ys, sx, sy) -> str:
    """One series; samples that map to no finite point split the path.
    sx and sy map whole arrays."""
    with np.errstate(all="ignore"):  # a sample mapped to inf or NaN is a gap
        pts = np.column_stack((sx(xs), sy(ys)))
    edges = np.flatnonzero(np.diff(np.isfinite(pts).all(axis=1), prepend=False, append=False))
    runs = [("M%.2f %.2f" + " L%.2f %.2f" * (b - a - 1)) % tuple(pts[a:b].ravel().tolist())
            for a, b in zip(edges[::2], edges[1::2])]
    return (f'<path class="series" fill="none" stroke="{color}" '
            f'stroke-width="1.5" d="{" ".join(runs)}"/>')


def _line_plot(table: ResultTable) -> list[str]:
    if len(table.columns) < 2:
        raise ValueError("nothing to plot")
    x = table.rows[:, 0]
    all_x = x[np.isfinite(x) & (x > 0)]
    if all_x.size == 0:
        raise ValueError("log-frequency plot needs positive x values")
    lx0, lx1 = math.log10(all_x.min()), math.log10(all_x.max())
    if lx1 - lx0 < 1e-12:
        lx0, lx1 = lx0 - 0.5, lx1 + 0.5

    all_y = table.rows[:, 1:]
    all_y = all_y[np.isfinite(all_y)]
    y0v, y1v = (float(all_y.min()), float(all_y.max())) if all_y.size else (0.0, 1.0)
    if y1v - y0v < 1e-300:
        y0v, y1v = y0v - 1.0, y1v + 1.0
    pad = 0.05 * (y1v - y0v)
    y0v, y1v = y0v - pad, y1v + pad

    def sx(lx):  # lx: log10 of the frequency
        return _ML + (lx - lx0) / (lx1 - lx0) * (_W - _ML - _MR)

    def sy(y):
        return (_H - _MB) - (y - y0v) / (y1v - y0v) * (_H - _MT - _MB)

    out = []
    # decade gridlines and x tick labels
    for k in range(math.ceil(lx0 - 1e-9), math.floor(lx1 + 1e-9) + 1):
        gx = sx(math.log10(10.0 ** k))
        out.append(_line(gx, _MT, gx, _H - _MB, "#ddd", 1))
        out.append(_text(gx, _H - _MB + 18, _fmt(10.0 ** k), 11, anchor="middle"))
    # y ticks
    for t in np.linspace(y0v, y1v, 6):
        gy = sy(t)
        out.append(_line(_ML, gy, _W - _MR, gy, "#eee", 1))
        out.append(_text(_ML - 6, gy + 4, _fmt(t), 11, anchor="end"))
    # zero line when visible
    if y0v < 0 < y1v:
        gy = sy(0.0)
        out.append(_line(_ML, gy, _W - _MR, gy, "#999", 1, ' stroke-dasharray="4 3"'))
    out.append(_rect(_ML, _MT, _W - _MR - _ML, _H - _MB - _MT))

    # a non-positive frequency has no place on the log axis
    lx = np.array([math.log10(v) if v > 0 else math.nan for v in x.tolist()])
    for k, label in enumerate(table.columns[1:]):
        color = _PALETTE[k % len(_PALETTE)]
        out.append(_series_path(color, lx, table.rows[:, k + 1], sx, sy))
        ly = _MT + 16 + 14 * k
        out.append(_line(_W - _MR - 150, ly - 4, _W - _MR - 130, ly - 4, color, 2))
        out.append(_text(_W - _MR - 124, ly, label, 11))

    out.append(_text((_ML + _W - _MR) // 2, _H - 14, "frequency (Hz)", 12, "#111", "middle"))
    return out


def _nyquist_plot(table: ResultTable) -> list[str]:
    cols = table.columns
    series = [(cols[c][3:], table.rows[:, c], table.rows[:, c + 1]) for c in range(len(cols) - 1)
              if cols[c].startswith("re_") and cols[c + 1] == "im_" + cols[c][3:]]
    if not series:
        raise ValueError("nyquist plot needs re_*/im_* column pairs")

    xs = np.concatenate([x for _, x, _ in series])
    ys = np.concatenate([y for _, _, y in series])
    finite = np.isfinite(xs) & np.isfinite(ys)
    re = np.concatenate([xs[finite], [-1.0, 1.0]])
    im = np.concatenate([ys[finite], [-1.0, 1.0]])
    cx, cy = (re.min() + re.max()) / 2.0, (im.min() + im.max()) / 2.0
    span = max(re.max() - re.min(), im.max() - im.min()) * 1.1 or 2.0

    side = float(min(_W - _ML - _MR, _H - _MT - _MB))
    ox = _ML + ((_W - _ML - _MR) - side) / 2.0
    oy = _MT + ((_H - _MT - _MB) - side) / 2.0

    def sx(x):
        return ox + (x - (cx - span / 2.0)) / span * side

    def sy(y):
        return oy + side - (y - (cy - span / 2.0)) / span * side

    out = [_rect(ox, oy, side, side)]
    for t in np.linspace(cx - span / 2.0, cx + span / 2.0, 6):
        out.append(_text(sx(t), oy + side + 16, _fmt(t), 10, anchor="middle"))
    for t in np.linspace(cy - span / 2.0, cy + span / 2.0, 6):
        out.append(_text(ox - 6, sy(t) + 3, _fmt(t), 10, anchor="end"))
    # real/imaginary axes through zero when visible
    if cx - span / 2.0 < 0 < cx + span / 2.0:
        out.append(_line(sx(0), oy, sx(0), oy + side, "#bbb", 1))
    if cy - span / 2.0 < 0 < cy + span / 2.0:
        out.append(_line(ox, sy(0), ox + side, sy(0), "#bbb", 1))

    for k, (label, x, y) in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        out.append(_series_path(color, x, y, sx, sy))
        out.append(_text(ox + side - 8, oy + 16 + 14 * k, label, 11, color, "end"))

    # the critical point (-1, 0)
    mx, my = sx(-1.0), sy(0.0)
    out.append(_line(mx - 6, my, mx + 6, my, "#c00", 1.6))
    out.append(_line(mx, my - 6, mx, my + 6, "#c00", 1.6))
    out.append(f'<circle cx="{mx:.2f}" cy="{my:.2f}" r="4" fill="none" '
               f'stroke="#c00" stroke-width="1.2"/>')
    out.append(_text(mx + 8, my - 8, "(-1, 0)", 11, "#c00"))
    return out


def emit_svg_plot(table: ResultTable, spec: PlotSpec, path) -> None:
    """Render a table to a standalone SVG 1.1 file."""
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
           f'width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
           f'<rect width="{_W}" height="{_H}" fill="white"/>']
    if spec.title:
        out.append(_text(_W // 2, 24, spec.title, 15, "#111", "middle"))
    plot = _nyquist_plot if spec.kind == "nyquist" else _line_plot
    out += plot(table) + ["</svg>"]
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


# --- fixtures and CLI -------------------------------------------------------

def fixture_path(name: str) -> Path:
    """Filesystem path of a bundled scenario fixture."""
    return Path(str(resources.files("fdpassivity") / "fixtures" / name))


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name)


def _plot_spec_for(table: ResultTable, scenario: Scenario) -> PlotSpec | None:
    if table.name == "gnc_loci":
        return PlotSpec(kind="nyquist", title=f"{scenario.name}: loop-gain eigenloci")
    if table.columns and table.columns[0] == "freq_hz" and len(table.columns) > 1 \
            and table.rows.shape[0] > 1:
        return PlotSpec(kind="line", title=f"{scenario.name}: {table.name}")
    return None


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="fdpassivity",
        description="Frequency-domain passivity and stability analysis "
                    "for converter-dominated power systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="ANALYSIS")
    for cmd in ANALYSES:
        p = sub.add_parser(cmd, help=f"run the {cmd} analysis declared in the scenario")
        p.add_argument("--scenario", required=True, help="path to a scenario JSON file")
        p.add_argument("--out", required=True, help="directory for result files")
        p.add_argument("--svg", action="store_true", help="also emit SVG plots")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        # bench/tracing.py wraps load_scenario, run, emit_csv and emit_svg_plot
        # on this module, so they are called through its globals
        scenario = load_scenario(args.scenario)
        tables = run(scenario, args.command)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for table in tables:
            csv_path = out_dir / f"{_safe_name(table.name)}.csv"
            emit_csv(table, csv_path)
            print(f"wrote {csv_path}")
            if args.svg:
                spec = _plot_spec_for(table, scenario)
                if spec is not None:
                    svg_path = out_dir / f"{_safe_name(table.name)}.svg"
                    emit_svg_plot(table, spec, svg_path)
                    print(f"wrote {svg_path}")
        summary = _ANALYSIS_TABLE[args.command].summary
        if summary is not None:
            print(summary(tables))
    except ScenarioValidationError as exc:
        print("scenario validation failed:", file=sys.stderr)
        for v in exc.violations:
            print(f"  - {v}", file=sys.stderr)
        return 2
    except ValidationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
