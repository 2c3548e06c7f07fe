"""Deterministic work partitioning across forked processes.

Everything parallelized in this package reduces with associative,
order-free operations (integer tally sums, max keyed by a total
order), and every partition of the index space computes trial values
from per-trial streams. Results are therefore byte-identical at any
worker count; ``map_ranges`` is the one place that spreads work.

A parallel ``map_ranges`` forks its workers itself, with no executor:
each child inherits the function, its arguments and its share of the
ranges, so nothing is pickled into a task; it pickles back only its
results, or the exception that stopped it, through a pipe of its own.
The parent runs no range: it reads each pipe to its end, reaps every
child, and leaves no process running when it returns or raises, an
interrupt included. A platform without ``os.fork`` runs the ranges in
this process, which changes no result.
"""

from __future__ import annotations

import os
import pickle

# below this many trials, forking workers costs more than the work it spreads
MIN_PARALLEL_TRIALS = 4096
# ranges per worker when there are several. Worker w runs the fixed share w,
# w + p, w + 2p, ..., so this balances no load any more: it sets the partition,
# and so the rows each range task reads and the partial result it returns
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
    # every worker starts at once, and none is needed beyond the CPUs that can
    # keep it busy; tallies and the keyed max do not depend on the partition,
    # so capping changes no result
    return max(1, min(workers, _usable_cpus()))


def map_ranges(fn, n: int, workers: int, *args, minimum: int = MIN_PARALLEL_TRIALS) -> list:
    """``[fn(*args, lo, hi) for lo, hi in ranges]``, in range order.

    ``ranges`` is [(0, n)] at one worker and ``chunk_ranges(n,
    RANGES_PER_WORKER * p)`` otherwise, where ``p`` is ``workers`` capped
    at the CPUs this process may use. With more than one worker and ``n``
    at least ``minimum``, p forked children (fewer if there are fewer
    ranges) run them, child w the ranges w, w + p, w + 2p, ... in order;
    otherwise they run in this process. An exception raised by ``fn``
    reaches the caller with its type, that of the lowest range that
    raised, as in the serial loop.
    """
    processes = _processes(workers)
    ranges = chunk_ranges(n, 1 if workers <= 1 else RANGES_PER_WORKER * processes)
    if workers <= 1 or n < minimum or not hasattr(os, "fork"):
        return [fn(*args, lo, hi) for lo, hi in ranges]
    processes = min(processes, len(ranges))
    payloads = _fork_workers(processes, lambda w: _worker_payload(fn, args, ranges[w::processes]))
    # a payload is (results, None), or (k, exc) when the worker's k-th range raised
    outcomes = [pickle.loads(data) for data in payloads]
    failures = [(w + processes * k, e) for w, (k, e) in enumerate(outcomes) if e is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results = [None] * len(ranges)
    for w, (done, _) in enumerate(outcomes):
        results[w::processes] = done
    return results


def _worker_payload(fn, args, ranges) -> bytes:
    # runs in a child: its ranges in order, stopping at the first that raises
    done = []
    try:
        for lo, hi in ranges:
            done.append(fn(*args, lo, hi))
        return pickle.dumps((done, None), pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        failed = exc
    try:
        data = pickle.dumps((len(done), failed), pickle.HIGHEST_PROTOCOL)
        pickle.loads(data)  # an exception class can pickle and still not rebuild
        return data
    except Exception:
        stand_in = RuntimeError(f"{type(failed).__name__}: {failed}")
        return pickle.dumps((len(done), stand_in), pickle.HIGHEST_PROTOCOL)


def _fork_workers(processes: int, work) -> list[bytes]:
    """``[work(w) for w in range(processes)]``, each call in a forked child of its own.

    ``work(w)`` returns bytes, which child w writes to its pipe before it
    leaves through ``os._exit``, so it never returns into the caller's
    stack. The parent reads the pipes to their ends in worker order and
    reaps each child. A child that exits without writing them all raises
    ``ChildProcessError`` naming the worker and how it ended; on that or
    any other way out, an interrupt included, every child not yet reaped
    is killed and reaped before the exception goes on.
    """
    pending = []  # [pid, read end] of each child not yet reaped, in worker order
    payloads = []
    try:
        for w in range(processes):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _child(work, w, write_end)
            except BaseException:
                os.close(read_end)
                raise
            finally:
                os.close(write_end)
            pending.append([pid, read_end])
        for w in range(processes):
            pid, read_end = pending[0]
            pending[0][1] = None  # the pipe's file closes it, so it is never closed twice
            with open(read_end, "rb") as pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            pending.pop(0)
            if status != 0:
                raise ChildProcessError(
                    f"worker {w} of {processes} {_ending(status)} before sending its results"
                )
            payloads.append(data)
    except BaseException:
        from signal import SIGKILL  # loaded only on a way out that leaves children

        for pid, read_end in pending:
            if read_end is not None:
                os.close(read_end)
            try:  # an interrupt can fall between a child's reaping and its pop
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
        raise
    return payloads


def _child(work, w: int, write_end: int) -> None:
    # never returns: no atexit handler runs and no inherited stdio buffer is flushed
    code = 1
    try:
        view = memoryview(work(w))
        while view:
            view = view[os.write(write_end, view) :]
        code = 0
    finally:
        os._exit(code)


def _ending(status: int) -> str:
    code = os.waitstatus_to_exitcode(status)
    if code >= 0:
        return f"exited with status {code}"
    from signal import Signals

    return f"was killed by {Signals(-code).name}"


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
