"""Traced in-process replay of one bellsim CLI command.

    python3 bench/trace_replay.py --spans FILE --run-id ID [--read-back PATH] -- <bellsim argv>

Imports bellsim (from PYTHONPATH), wraps the functions at each layer
boundary with timing spans, runs ``bellsim.cli.main(argv)`` inside a
top-level ``cli.main`` span and writes the spans as JSON lines to FILE
once the command has finished. Nothing in ``src/`` is modified: the
wrappers replace module globals in this process only, so every
artifact must still be byte-identical to an untraced run.

Each span line holds ``id``, ``name`` (``<layer>.<function>``),
``start`` and ``end`` (perf_counter nanoseconds), ``parent`` (id of the
enclosing span or null) and ``run``; some carry counters:

- ``draws``: uniform draws requested at the vectorized rng boundary;
- ``sign_evals``: station signs computed (2 per trial and setting pair);
- ``quads``: candidate quads a settings search is asked to evaluate;
- ``bytes``: characters written by ``write_database`` (ASCII, so bytes);
- ``tasks``, ``first_result_ns``, ``bytes_shipped``: per process pool.

A ``parallel.*`` span covers a pool from creation to shutdown (or to
the end of the replay); ``tasks`` counts submissions, ``first_result_ns``
is the time from creation to the first finished task, and
``bytes_shipped`` is ``len(pickle.dumps(db)) * workers`` for a database
pool, computed outside any span, and 0 for a plain pool.

With ``--read-back PATH`` the written database is read back inside a
second top-level span, and afterwards, untimed, the round trip is
checked bit for bit against ``generate_database``.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import pickle
import sys
import time

# Functions wrapped at each layer boundary, by defining module.
TARGETS = {
    "rng": ("child_keys", "key_uniform_column"),
    "geometry": ("unit_rows_for_keys", "sample_uniform_directions"),
    "experiment": ("generate_database", "write_database", "read_database"),
    "correlation": ("station_products", "estimate_correlation", "sweep_correlation", "write_curve_csv"),
    "chsh": ("chsh_statistic", "per_trial_terms", "search_max_chsh", "result_summary"),
    "cli": ("build_parser", "_config_from_args", "_dump_json", "_atomic_write"),
}


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# Counters recorded on a span from the call's arguments, before it runs.
COUNTERS = {
    "rng.key_uniform_column": lambda a, k: {"draws": len(_arg(a, k, 0, "keys"))},
    "geometry.sample_uniform_directions": lambda a, k: {"draws": 4 * _arg(a, k, 1, "count")},
    "correlation.station_products": lambda a, k: {"sign_evals": 2 * len(_arg(a, k, 0, "spins"))},
    "chsh.search_max_chsh": lambda a, k: {"quads": _arg(a, k, 2, "budget")},
}


class Tracer:
    """Spans kept in memory until the replay ends."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self._pickled: dict[int, tuple[object, int]] = {}

    def _open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self.stack[-1] if self.stack else None,
            "run": self.run_id,
        }
        self.spans.append(span)
        return span

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            if counter is not None:
                span.update(counter(args, kwargs))
            sink = _arg(args, kwargs, 1, "fileobj") if name == "experiment.write_database" else None
            written = sink.tell() if sink is not None else 0
            self.stack.append(span["id"])
            span["start"] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter_ns()
                self.stack.pop()
                if sink is not None:
                    span["bytes"] = sink.tell() - written

        return traced

    def _shipped(self, db, workers: int) -> int:
        if id(db) not in self._pickled:
            # holding db keeps its id from being reused by another database
            self._pickled[id(db)] = (db, len(pickle.dumps(db)))
        return self._pickled[id(db)][1] * workers

    def wrap_pool(self, name: str, make_pool):
        """A pool span runs from creation to shutdown and counts submitted tasks."""

        @functools.wraps(make_pool)
        def traced(*args, **kwargs):
            shipped = 0
            if name == "parallel.db_pool":
                shipped = self._shipped(_arg(args, kwargs, 0, "db"), _arg(args, kwargs, 1, "workers"))
            span = self._open(name)
            span.update(tasks=0, first_result_ns=None, bytes_shipped=shipped)
            span["start"] = time.perf_counter_ns()
            pool = make_pool(*args, **kwargs)
            inner_submit, inner_shutdown = pool.submit, pool.shutdown

            def first_result(_future):
                if span["first_result_ns"] is None:
                    span["first_result_ns"] = time.perf_counter_ns() - span["start"]

            def counted_submit(*s_args, **s_kwargs):  # Executor.map submits through here too
                span["tasks"] += 1
                future = inner_submit(*s_args, **s_kwargs)
                future.add_done_callback(first_result)
                return future

            def timed_shutdown(*s_args, **s_kwargs):
                try:
                    return inner_shutdown(*s_args, **s_kwargs)
                finally:
                    span["end"] = time.perf_counter_ns()

            pool.submit, pool.shutdown = counted_submit, timed_shutdown
            return pool

        return traced


def install(tracer: Tracer) -> dict:
    """Replace every bellsim module global bound to a target; return the originals."""
    import bellsim.cli  # noqa: F401  (imports every layer)

    modules = [m for n, m in sys.modules.items() if n == "bellsim" or n.startswith("bellsim.")]
    originals = {}
    replacements = []
    for layer, names in TARGETS.items():
        home = importlib.import_module(f"bellsim.{layer}")
        for fname in names:
            fn = getattr(home, fname, None)  # a target the program no longer has is not traced
            if fn is not None:
                originals[f"{layer}.{fname}"] = fn
                replacements.append((fn, tracer.wrap(f"{layer}.{fname}", fn)))
    parallel = importlib.import_module("bellsim.parallel")
    for fname in ("db_pool", "plain_pool"):
        fn = getattr(parallel, fname, None)
        if fn is not None:
            originals[f"parallel.{fname}"] = fn
            replacements.append((fn, tracer.wrap_pool(f"parallel.{fname}", fn)))
    for fn, wrapped in replacements:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)
    return originals


def _check_round_trip(originals: dict, read) -> str | None:
    """Compare a database read back from text with a fresh generation, bit for bit."""
    fresh = originals["experiment.generate_database"](read.seed, read.distribution, read.n)
    if read.distribution.tag() != fresh.distribution.tag():
        return "distribution tag differs after the round trip"
    if read.spins.tobytes() != fresh.spins.tobytes():
        return "spins differ after the round trip"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="JSON-lines file the spans are written to")
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--read-back", default=None, help="database written by the command")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    tracer = Tracer(args.run_id)
    originals = install(tracer)
    import bellsim.cli

    rc = tracer.wrap("cli.main", bellsim.cli.main)(command)
    read = None
    if rc == 0 and args.read_back:
        with open(args.read_back) as handle:
            read = bellsim.experiment.read_database(handle)

    finished = time.perf_counter_ns()
    with open(args.spans, "w") as out:
        for span in tracer.spans:
            span.setdefault("end", finished)  # a pool never shut down ends with the replay
            out.write(json.dumps(span) + "\n")

    if read is not None:
        problem = _check_round_trip(originals, read)
        if problem:
            print(f"trace_replay: {problem}", file=sys.stderr)
            return 1
    return rc


if __name__ == "__main__":
    sys.exit(main())
