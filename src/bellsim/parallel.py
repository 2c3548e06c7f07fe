"""Deterministic work partitioning across processes.

Everything parallelized in this package reduces with associative,
order-free operations (integer tally sums, max keyed by a total
order), and every partition of the index space computes trial values
from per-trial streams. Results are therefore byte-identical at any
worker count; ``map_ranges`` is the one place that spreads work.

Pools have no initializer and hold no state: a task carries its
source and a range (of trials, or of a fresh search's candidates).
The source is usually ``GeneratedTrials``, a few hundred bytes from
which a task regenerates its own rows; a ``TrialDatabase`` that a
library caller passed is pickled with each task.

``concurrent.futures`` is imported when the first pool starts, not with
the package, so a command that starts no pool never pays for it.
"""

from __future__ import annotations

import os
import sys

# below this many trials, a process pool costs more than the work it spreads
MIN_PARALLEL_TRIALS = 4096
# ranges per worker when there are several: a worker slowed by other load
# takes fewer of them, and each task reads fewer rows at once
RANGES_PER_WORKER = 4
# rows a range task reads at once; bounds what it holds
_BLOCK_ROWS = 1 << 16


def _usable_cpus() -> int:
    # the CPUs this process may run on (its affinity mask, as under taskset),
    # where the platform can tell, else all of the machine's
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _processes(workers: int) -> int:
    # the fork start method starts every process at once; a pool never needs
    # more than the CPUs it can keep busy, and tallies and the keyed max do
    # not depend on the partition, so capping changes no result
    return max(1, min(workers, _usable_cpus()))


def __getattr__(name: str):
    # PEP 562: the executor class is imported on its first lookup, then kept
    # as a module global
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor

    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


def plain_pool(workers: int):
    # a ProcessPoolExecutor, looked up as a module attribute so that a test can
    # replace it; unannotated, since the class is bound only on first lookup
    executor = sys.modules[__name__].ProcessPoolExecutor
    return executor(max_workers=_processes(workers))


def map_ranges(fn, n: int, workers: int, *args, minimum: int = MIN_PARALLEL_TRIALS) -> list:
    """``[fn(*args, lo, hi) for lo, hi in ranges]``, in range order.

    ``ranges`` is [(0, n)] at one worker and ``chunk_ranges(n,
    RANGES_PER_WORKER * processes)`` otherwise, where ``processes`` is
    ``workers`` capped at the CPUs this process may use. The ranges run in one process
    pool when there is more than one worker and ``n`` is at least
    ``minimum``, and in this process otherwise; a pool task pickles
    ``fn``, ``args`` and its range.
    """
    parts = 1 if workers <= 1 else RANGES_PER_WORKER * _processes(workers)
    tasks = [(*args, lo, hi) for lo, hi in chunk_ranges(n, parts)]
    if workers <= 1 or n < minimum:
        return [fn(*task) for task in tasks]
    with plain_pool(workers) as pool:
        return list(pool.map(fn, *zip(*tasks)))


def resolve_workers(workers) -> int:
    """Turn a worker request ('auto', int, or numeric string) into a count."""
    if workers == "auto" or workers is None:
        return _usable_cpus()
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
