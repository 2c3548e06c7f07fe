"""Deterministic work partitioning across processes.

Everything parallelized in this package reduces with associative,
order-free operations (integer tally sums, max keyed by a total
order), and every partition of the index space computes trial values
from per-trial streams. Results are therefore byte-identical at any
worker count; these helpers only organize the plumbing.

The trial database is shipped to workers once, through the pool
initializer, so tasks stay small. Work on ``GeneratedTrials`` ships no
rows at all: a task carries the trials' description and a row range
and regenerates those rows itself.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

# below this many trials, a process pool costs more than the work it spreads
MIN_PARALLEL_TRIALS = 4096

_WORKER_DB = None


def _init_db(db):
    global _WORKER_DB
    _WORKER_DB = db


def worker_db():
    """Database installed by the pool initializer (None in the parent)."""
    return _WORKER_DB


def _processes(workers: int) -> int:
    # the fork start method starts every process at once; a pool never needs
    # more than the CPUs it can keep busy, and callers still split the rows
    # into ``workers`` chunks, so capping changes no result
    return max(1, min(workers, os.cpu_count() or 1))


def db_pool(db, workers: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(
        max_workers=_processes(workers), initializer=_init_db, initargs=(db,)
    )


def plain_pool(workers: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(max_workers=_processes(workers))


def resolve_workers(workers) -> int:
    """Turn a worker request ('auto', int, or numeric string) into a count."""
    if workers == "auto" or workers is None:
        return max(1, os.cpu_count() or 1)
    count = int(workers)
    if count < 1:
        raise ValueError("workers must be a positive integer or 'auto'")
    return count


def chunk_ranges(n: int, parts: int) -> list[tuple[int, int]]:
    """Split [0, n) into at most ``parts`` contiguous non-empty ranges."""
    parts = max(1, min(parts, n))
    step = n // parts
    extra = n % parts
    ranges = []
    lo = 0
    for i in range(parts):
        hi = lo + step + (1 if i < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges
