"""Fresh-process side of the benchmark; started by run.py, not by hand.

    worker.py setup SCENARIO...      import fdpassivity and load each scenario
                                     cold; print the seconds it took
    worker.py run --workload W ...   run one workload and write its result JSON

The run mode warms up with the workload's first operation, then repeats
whole passes of its operation list for --seconds (at least one pass).
wall_s is the sum over the operations of each one's median time across
the passes.  Peak RSS is read before any
tracing.  With --trace 1 it then makes one more pass with every layer
boundary traced and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def setup_probe(paths: list[str]) -> None:
    t0 = time.perf_counter()
    from fdpassivity import io_cli
    for p in paths:
        io_cli.load_scenario(p)
    print(repr(time.perf_counter() - t0))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment() -> dict:
    import numpy
    import scipy
    try:
        from fdpassivity._parallel import worker_count
        workers = worker_count()
    except ImportError:
        workers = None
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "PASSIVITY_THREADS": os.environ.get("PASSIVITY_THREADS"),
        "parallel_workers": workers,
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "src_py_lines": lines,
    }


def run_workload(args) -> dict:
    import fdpassivity
    if SRC not in Path(fdpassivity.__file__).resolve().parents:
        raise SystemExit(f"fdpassivity imported from {fdpassivity.__file__}, not from {SRC}")
    import workloads as wl

    ref_path = Path(__file__).with_name("reference.json")
    reference = json.loads(ref_path.read_text(encoding="utf-8")) if ref_path.exists() else {}
    ctx = wl.context(json.loads(args.inputs), Path(args.work) / "out")
    one_pass = wl.WORKLOADS[args.workload]

    try:
        one_pass(wl.Ops(reference, budget=1), ctx)
    except wl.StopPass:
        pass

    # Whole passes until --seconds are spent, never starting one that is
    # expected to overrun; at least one.
    passes, lengths = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + statistics.median(lengths) <= args.seconds:
        t0 = time.perf_counter()
        ops = wl.Ops(reference)
        one_pass(ops, ctx)
        passes.append(ops)
        lengths.append(time.perf_counter() - t0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Each operation's median over the passes, so a burst of load from
    # elsewhere on the machine during one pass does not move the result.
    op_s = {label: statistics.median(o.times[label][1] for o in passes if label in o.times)
            for label in {label for o in passes for label in o.times}}
    analysis_of = {label: a for o in passes for label, (a, _) in o.times.items()}
    wall = sum(op_s.values())
    analysis_s = {a: sum(t for label, t in op_s.items() if analysis_of[label] == a)
                  for a in wl.ANALYSES}
    result = {
        "env": environment(),
        "passes": [{"wall_s": o.wall, "times": {k: t for k, (_, t) in o.times.items()}}
                   for o in passes],
        "attempted": sum(o.attempted for o in passes),
        "failed": sum(o.failed for o in passes),
        "errors": [e for o in passes for e in o.errors][:20],
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "analysis_s": analysis_s,
    }
    if args.trace:
        result.update(traced_pass(args, wl, one_pass, ctx, reference, wall, analysis_s))
    return result


def traced_pass(args, wl, one_pass, ctx, reference, wall, analysis_s) -> dict:
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    ops = wl.Ops(reference, tracer=tracer)
    tracer.on = True
    try:
        one_pass(ops, ctx)
    finally:
        tracer.on = False
        tracer.uninstall()
    metrics, calls = tracer.layer_metrics()
    metrics["trace.overhead_ratio"] = ops.wall / wall
    metrics.update({f"{a}_s": t for a, t in analysis_s.items()})
    silent = [layer for layer in wl.MAINLY_ON[args.workload]
              if layer not in tracer.missing and calls.get(layer, 0) == 0]
    errors = list(ops.errors)
    if silent:
        errors.append(f"traced layers with zero calls: {', '.join(silent)}")
    return {
        "trace_metrics": metrics,
        "trace_missing_hooks": dict(tracer.missing),
        "trace_spans": tracer.write_spans(args.spans),
        "trace_wall_s": ops.wall,
        "attempted_traced": ops.attempted,
        "failed_traced": ops.failed + (1 if silent else 0),
        "trace_errors": errors,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("scenarios", nargs="+")
    p_run = sub.add_parser("run")
    p_run.add_argument("--workload", required=True)
    p_run.add_argument("--seconds", type=float, required=True)
    p_run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p_run.add_argument("--inputs", required=True, help="JSON: fixtures, grid, ladder paths")
    p_run.add_argument("--work", required=True)
    p_run.add_argument("--spans", required=True)
    p_run.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        setup_probe(args.scenarios)
        return 0
    result = run_workload(args)
    Path(args.result).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
