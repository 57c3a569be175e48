"""fdpassivity benchmark: one command, three workloads, checked outputs.

    python3 bench/run.py --workload fixtures|ladder-sweep|stability-study
                         [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the program is imported from the ``src`` directory next
to this one, never from an installed copy.  Inputs are generated from
--seed under ``.bench_work/``.  Set-up is timed in fresh processes, half
before and half after the workload, which runs in one more fresh process.
Every process has OpenBLAS/OpenMP pinned to one thread and
PASSIVITY_THREADS unset (the default users get).

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end_to_end list of
BENCHMARK.json (setup_s, wall_s, peak_rss_mb); with --trace 1 they are its
per_layer list: layer metrics from one traced pass, plus each analysis's
untraced time.  A full report (environment, per-pass times, errors) goes
to ``.bench_work/report-<workload>-seed<seed>-trace<t>.json`` and the spans
of a traced pass to ``.bench_work/spans-<workload>.csv.gz``.

Exit code 0 with a result line; 2 when the program or the inputs cannot be
found; 1 when a worker process fails or runs out of time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("fixtures", "ladder-sweep", "stability-study")
SETUP_PROBES = 9
DEADLINE_S = 170.0


def metric_units(section: str) -> dict[str, str]:
    """name -> unit for one metric list of BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[section]}


def write_inputs(workload: str, seed: int, work: Path) -> dict:
    """Scenario files for the workload; the program receives only these."""
    fixtures_dir = SRC / "fdpassivity" / "fixtures"
    chosen = {"fixtures": [], "grid": [], "ladder": None}
    if workload == "fixtures":
        chosen["fixtures"] = [str(fixtures_dir / n) for n in ("single_gfl.json", "three_bus.json")]
        missing = [p for p in chosen["fixtures"] if not Path(p).is_file()]
        if missing:
            raise FileNotFoundError(f"fixture not found: {missing[0]}")
    if workload == "stability-study":
        for k, (scr, kp) in enumerate(inputs.STABILITY_GRID):
            path = work / f"grid{k}.json"
            inputs.write_scenario(path, inputs.single_gfl_scenario(scr, kp))
            chosen["grid"].append(str(path))
    if workload in ("ladder-sweep", "stability-study"):
        n_buses = (inputs.LADDER_BUSES if workload == "ladder-sweep"
                   else inputs.STABILITY_LADDER_BUSES)
        path = work / "ladder.json"
        inputs.write_scenario(path, inputs.ladder_scenario(seed, n_buses))
        chosen["ladder"] = str(path)
    return chosen


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fdpassivity benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "fdpassivity" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT / 'BENCHMARK.json'} not found", file=sys.stderr)
        return 2
    out_root = ROOT / ".bench_work"
    work = out_root / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, out_root, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, out_root: Path, work: Path, deadline: float) -> int:
    try:
        chosen = write_inputs(args.workload, args.seed, work)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PASSIVITY_THREADS", None)
    worker = str(BENCH / "worker.py")
    scenarios = inputs.scenario_paths(chosen)

    def child(cmd: list[str]) -> subprocess.CompletedProcess | None:
        try:
            done = subprocess.run([sys.executable, worker, *cmd], env=env, cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print(f"error: worker {cmd[0]} ran out of time", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"error: worker {cmd[0]} exited with {done.returncode}:\n"
                  f"{done.stderr[-2000:]}", file=sys.stderr)
            return None
        return done

    setups = []

    def probe_setup(n: int) -> bool:
        for _ in range(n):
            done = child(["setup", *scenarios])
            if done is None:
                return False
            setups.append(float(done.stdout.strip().splitlines()[-1]))
        return True

    # Half the set-up probes run before the workload and half after it, so
    # that they sample the machine's load at two moments of the run.
    if not probe_setup(SETUP_PROBES - SETUP_PROBES // 2):
        return 1
    result_path = work / "result.json"
    spans_path = out_root / f"spans-{args.workload}.csv.gz"
    done = child(["run", "--workload", args.workload, "--seconds", str(args.seconds),
                  "--trace", str(args.trace), "--inputs", json.dumps(chosen),
                  "--work", str(work), "--spans", str(spans_path),
                  "--result", str(result_path)])
    if done is None or not probe_setup(SETUP_PROBES // 2):
        return 1
    report = json.loads(result_path.read_text(encoding="utf-8"))
    report.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup_s_samples=setups)

    attempted = report["attempted"] + report.get("attempted_traced", 0)
    failed = report["failed"] + report.get("failed_traced", 0)
    if args.trace:
        measured = report["trace_metrics"]
        units = metric_units("per_layer")
    else:
        measured = {"setup_s": statistics.median(setups), "wall_s": report["wall_s"],
                    "peak_rss_mb": report["peak_rss_mb"]}
        units = metric_units("end_to_end")
    # a layer whose hook point no longer exists in the program is absent
    metrics = {k: {"value": measured[k], "unit": u} for k, u in units.items() if k in measured}
    report_path = out_root / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1), encoding="utf-8")

    print("environment: " + json.dumps(report["env"], sort_keys=True))
    for line in report["errors"] + report.get("trace_errors", []):
        print(f"failed: {line}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
