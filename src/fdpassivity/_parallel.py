"""Ordered, optionally threaded map for frequency sweeps.

The sweeps map it over fixed-size blocks of their frequency grid.  Worker
count comes from the PASSIVITY_THREADS environment variable (default:
available cores).  Results always come back in input order and each block
is computed independently by a pure function, so output is bit-identical
regardless of the worker count.
"""

from __future__ import annotations

import os


def worker_count() -> int:
    raw = os.environ.get("PASSIVITY_THREADS", "")
    try:
        n = int(raw)
    except ValueError:
        n = os.cpu_count() or 1
    return max(n, 1)


def parallel_map(fn, items):
    items = list(items)
    n = worker_count()
    if n <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    # imported here: concurrent.futures (and logging with it) costs ~5 ms of start-up
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))
