"""Record reference.json: the outputs of one pass of every workload.

    python3 bench/make_reference.py

Run it only on a build whose results are trusted.  It uses the default
ladder seed; the checks in workloads.py compare later runs against it.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import inputs  # noqa: E402
import workloads as wl  # noqa: E402
from run import write_inputs  # noqa: E402


def main() -> int:
    reference: dict = {}
    work = BENCH.parent / ".bench_work" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name, one_pass in wl.WORKLOADS.items():
            ops = wl.Ops(reference, record=True)
            one_pass(ops, wl.context(write_inputs(name, inputs.DEFAULT_SEED, work), work / "out"))
            if ops.failed:
                print("\n".join(ops.errors), file=sys.stderr)
                return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    text = json.dumps(reference, sort_keys=True, separators=(",", ":"))
    (BENCH / "reference.json").write_text(text.replace('},"', '},\n"') + "\n", encoding="utf-8")
    print(f"recorded {len(reference)} tables")
    return 0


if __name__ == "__main__":
    sys.exit(main())
