"""Benchmark of the bellsim command line, end to end and layer by layer.

Run from the root of a checkout (the program is taken from ``src/``):

    python3 bench/run.py --workload sweep --seed 0 --seconds 32 --trace 0

Workloads (the sizes are scaled so that one repetition takes a few
seconds on 2 CPUs; see ``WORKLOADS``):

- ``sweep``:  ``sweep --n 100000 --steps 181``, uniform sphere;
- ``search``: ``search --n 10000 --budget 1000 --mode reuse``;
- ``chsh``:   ``chsh --n 1000000`` at the canonical quad, mixture spins;
- ``gendb``:  ``gen-db --n 100000``.

``--trace 0`` (end to end). Every command runs as a subprocess, one at
a time. A repetition runs ``bellsim enumerate``, then the workload at
``--workers 2`` and ``--workers 1`` (alternating which goes first), each
right after a run of the fixed reference job ``bench/reference.py`` on as
many processes as the command keeps CPUs busy (``Workload.busy_cpus``);
repetitions continue until one more would end the run after
``--seconds``, with at least ``MIN_REPS`` of them. Wall time includes
interpreter start; CPU time and peak RSS come from the ``os.wait4``
rusage of the command, which on Linux includes the pool workers it
waited for. Reported, as medians over the repetitions:

- ``wall_ref`` / ``wall_ref_serial``: wall time at 2 / 1 workers, in
  units of the wall time of the reference run just before it;
- ``work_per_ref``: work per reference wall time at 2 workers
  (``work / wall_ref``), in the workload's unit (sweep: trials x grid
  points; search: trials x budget; chsh: trials; gendb: rows);
- ``scaling_eff``: the 1-worker wall time over twice the 2-worker wall
  time of the same repetition (seconds over seconds; no reference);
- ``cpu_ref``: user + system CPU at 2 workers over the CPU time of the
  reference run just before it;
- ``peak_rss_mb``: peak RSS at 2 workers;
- ``setup_s``: wall time of ``bellsim enumerate``, the interpreter,
  import and parser cost every command pays, in seconds; one sample per
  repetition, after one untimed warm-up.

Why times are relative to a reference: on a small shared host the CPU
runs at full speed in some stretches and up to twice as slowly in others,
and the mix shifts over minutes, so that every workload's seconds move
together by 20-30 % from one run to the next, fastest repetition and
median alike. A reference job run seconds before the command is slowed
alike, and the ratio cancels most of it. The reference imports nothing
from bellsim, so a change to the program moves only the numerator. The
raw seconds (minimum, median and maximum) are printed beside each ratio.

``--trace 1`` (per layer). Each repetition runs ``bellsim enumerate``
and the command once untraced at 1 worker, then replays the command
in-process through ``bench/trace_replay.py`` at 1 worker (layer times
and counts) and at 2 workers (process-pool counts). Layer times are
inclusive span totals of the named function, or ``<layer>.self_s``:
the layer's span time minus the time of the spans it called.
``trace.overhead_s`` is the traced ``cli.main`` span minus the untraced
1-worker wall time less ``setup_s`` (medians over the repetitions).
The spans of the last repetition stay in
``.bench_work/<workload>-traced-w<workers>-spans.jsonl``.

Every artifact is checked: it must parse and satisfy the workload's
invariants, be byte-identical to every other artifact of the run (so
1 and 2 workers, traced and untraced, agree), and for the default seed
0 match the sha256 in ``bench/digests.json``. A command that exits
non-zero or fails a check counts as failed; ``failed / attempted`` is
the fail ratio. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".bench_work"
DIGESTS = BENCH / "digests.json"
DEFAULT_SEED = 0

WORKERS = 2  # the CPU count the benchmark was sized on; scaling_eff divides by it
MIN_REPS = 3
COMMAND_TIMEOUT_S = 90.0
RUN_DEADLINE_S = 150.0  # stop repeating past this, well inside the 180 s limit
SPIN_BYTES_PER_TRIAL = 24  # three float64 per trial

SWEEP_N, SWEEP_STEPS = 100_000, 181
SEARCH_N, SEARCH_BUDGET = 10_000, 1_000
CHSH_N = 1_000_000
GENDB_N = 100_000
MIXTURE = "mixture(0.5:uniform-sphere;0.5:cap(0,0,1,0.8))"


# ---------------------------------------------------------------------------
# output checks: each returns a problem description, or None


def check_sweep(data: bytes) -> str | None:
    lines = [line for line in data.decode().splitlines() if not line.startswith("#")]
    columns = lines[0].split(",")
    pos, neg = columns.index("count_pos"), columns.index("count_neg")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != SWEEP_STEPS:
        return f"sweep has {len(rows)} rows, expected {SWEEP_STEPS}"
    for row in rows:
        if int(row[pos]) + int(row[neg]) != SWEEP_N:
            return f"count_pos + count_neg != n in row {row}"
    return None


def _check_quad_doc(doc: dict, n: int) -> str | None:
    if doc["n"] != n or doc["mode"] != "reuse":
        return f"unexpected n or mode: {doc['n']}, {doc['mode']}"
    # every per-trial term is +-2, so min and max each are -2 or +2
    t_min, t_max = doc["per_trial_min"], doc["per_trial_max"]
    if t_min not in (-2, 2) or t_max not in (-2, 2) or t_min > t_max:
        return f"per-trial term range [{t_min}, {t_max}] is not within {{-2, +2}}"
    numerator = 0
    for key, sign in (("e11", 1), ("e12", -1), ("e22", -1), ("e21", -1)):
        est = doc[key]
        if est["count_pos"] + est["count_neg"] != n:
            return f"{key}: count_pos + count_neg != n"
        numerator += sign * (est["count_pos"] - est["count_neg"])
    if doc["statistic"] != numerator / n:
        return f"S = {doc['statistic']} is not its tallies' {numerator}/{n}"
    if abs(doc["statistic"]) > 2.0:
        return f"|S| = {abs(doc['statistic'])} exceeds 2"
    return None


def check_chsh(data: bytes) -> str | None:
    return _check_quad_doc(json.loads(data), CHSH_N)


def check_search(data: bytes) -> str | None:
    doc = json.loads(data)
    if doc["budget"] != SEARCH_BUDGET:
        return f"budget {doc['budget']} != {SEARCH_BUDGET}"
    if doc["statistic"] > 2.0:
        return f"S_max = {doc['statistic']} exceeds 2"
    return _check_quad_doc(doc, SEARCH_N)


def check_gendb(data: bytes) -> str | None:
    header, _, body = data.partition(b"\n")
    fields = header.decode().split(" ")
    if fields[:2] != ["bellsim-db", "v1"] or not fields[-1].startswith("n="):
        return f"bad database header {header[:80]!r}"
    n = int(fields[-1].removeprefix("n="))
    rows = body.count(b"\n")
    if n != GENDB_N or rows != n:
        return f"header n={n}, {rows} rows, expected {GENDB_N}"
    if not body.rsplit(b"\n", 2)[-2].startswith(f"{n - 1} ".encode()):
        return "last row is not trial n-1"
    return None


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    out_name: str
    check: Callable[[bytes], str | None]
    work: int
    work_unit: str
    n: int
    read_back: bool = False  # time read_database on the artifact in the traced run
    # CPUs the 2-worker command keeps busy for most of its run, and so the
    # processes of the reference run before it
    busy_cpus: int = WORKERS


WORKLOADS = {
    "sweep": Workload(
        ("sweep", "--n", str(SWEEP_N), "--steps", str(SWEEP_STEPS)),
        "sweep.csv", check_sweep, SWEEP_N * SWEEP_STEPS, "trials x grid points", SWEEP_N,
    ),
    "search": Workload(
        ("search", "--n", str(SEARCH_N), "--budget", str(SEARCH_BUDGET), "--mode", "reuse"),
        "search.json", check_search, SEARCH_N * SEARCH_BUDGET, "trials x budget", SEARCH_N,
    ),
    "chsh": Workload(
        ("chsh", "--n", str(CHSH_N), "--a1", "0", "--a2", "90", "--b1", "135", "--b2", "45",
         "--dist", MIXTURE),
        "chsh.json", check_chsh, CHSH_N, "trials", CHSH_N,
    ),
    "gendb": Workload(
        ("gen-db", "--n", str(GENDB_N)),
        "db.txt", check_gendb, GENDB_N, "rows", GENDB_N, read_back=True,
        busy_cpus=1,  # about 90 % of gen-db is the serial text writer
    ),
}


# ---------------------------------------------------------------------------
# running commands


class BenchError(Exception):
    """The benchmark cannot run here (no program, wrong import)."""


@dataclass(frozen=True)
class Outcome:
    rc: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_command(cmd: list[str], log_dir: Path) -> Outcome:
    """Run one command to completion; time it and read its rusage."""
    out_path, err_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        # its own process group, so a kill also reaches the command's pool workers
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=_env(), cwd=ROOT,
                                start_new_session=True)
        kill = functools.partial(os.killpg, proc.pid, signal.SIGKILL)
        killer = threading.Timer(COMMAND_TIMEOUT_S, kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        rc=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss * 1024 / 1e6,  # ru_maxrss is in KiB on Linux
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
    )


def bellsim_cmd(*args: str) -> list[str]:
    return [sys.executable, "-m", "bellsim", *args]


class Ledger:
    """Counts attempts and failures and checks that artifacts agree."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.workload = WORKLOADS[name]
        self.attempted = 0
        self.failed = 0
        self.reference: bytes | None = None
        self.expected_digest = None
        if seed == DEFAULT_SEED:
            self.expected_digest = json.loads(DIGESTS.read_text()).get(name)
            if self.expected_digest is None:
                raise BenchError(f"no digest recorded for workload {name!r}")

    def record(self, label: str, outcome: Outcome, problem: str | None) -> bool:
        self.attempted += 1
        if outcome.rc != 0:
            problem = f"exit code {outcome.rc}: {outcome.stderr.strip()[-500:]}"
        if problem:
            self.failed += 1
            print(f"FAILED {label}: {problem}", file=sys.stderr)
            return False
        return True

    def check_artifact(self, path: Path) -> str | None:
        try:
            data = path.read_bytes()
        except OSError as exc:
            return f"artifact missing: {exc}"
        finally:
            path.unlink(missing_ok=True)
        if self.reference is None:
            digest = hashlib.sha256(data).hexdigest()
            if self.expected_digest is not None and digest != self.expected_digest:
                return f"sha256 {digest} != recorded {self.expected_digest}"
            try:
                problem = self.workload.check(data)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                problem = f"unparsable artifact: {exc!r}"
            if problem:
                return problem
            self.reference = data
            return None
        if data != self.reference:
            return "artifact differs from the run's first artifact"
        return None


def _command_args(workload: Workload, seed: int, workers: int, out: Path) -> list[str]:
    return [*workload.argv, "--seed", str(seed), "--workers", str(workers), "--out", str(out)]


def run_cli(ledger: Ledger, work_dir: Path, seed: int, workers: int, label: str) -> Outcome | None:
    out = work_dir / f"{label}-{ledger.workload.out_name}"
    outcome = run_command(bellsim_cmd(*_command_args(ledger.workload, seed, workers, out)), work_dir)
    problem = ledger.check_artifact(out) if outcome.rc == 0 else None
    return outcome if ledger.record(label, outcome, problem) else None


def run_traced(ledger: Ledger, work_dir: Path, seed: int, workers: int, label: str) -> list[dict] | None:
    """Replay the command traced; its spans stay in WORK_ROOT until the next traced run."""
    out = work_dir / f"{label}-{ledger.workload.out_name}"
    spans_path = WORK_ROOT / f"{ledger.name}-traced-w{workers}-spans.jsonl"
    cmd = [sys.executable, str(BENCH / "trace_replay.py"), "--spans", str(spans_path),
           "--run-id", f"{ledger.name}-seed{seed}-{label}"]
    if ledger.workload.read_back:
        cmd += ["--read-back", str(out)]
    cmd += ["--", *_command_args(ledger.workload, seed, workers, out)]
    outcome = run_command(cmd, work_dir)
    problem = ledger.check_artifact(out) if outcome.rc == 0 else None
    if not ledger.record(label, outcome, problem):
        return None
    return [json.loads(line) for line in spans_path.read_text().splitlines()]


def check_checkout() -> dict:
    """Fail unless bellsim imports from this checkout's ``src``; return versions."""
    if not (SRC / "bellsim" / "cli.py").is_file():
        raise BenchError(f"no bellsim sources under {SRC}")
    probe = subprocess.run(
        [sys.executable, "-c",
         "import bellsim, numpy, sys; print(bellsim.__file__); print(numpy.__version__); "
         "print(sys.version.split()[0])"],
        capture_output=True, text=True, env=_env(), cwd=ROOT, timeout=COMMAND_TIMEOUT_S,
    )
    if probe.returncode != 0:
        raise BenchError(f"cannot import bellsim: {probe.stderr.strip()[-500:]}")
    module_file, numpy_version, python_version = probe.stdout.split()
    if not Path(module_file).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"bellsim imports from {module_file}, not from {SRC}")
    return {"python": python_version, "numpy": numpy_version}


REFERENCE_OUTPUT = "reference 52993 986502 889572"


def run_reference(work_dir: Path, procs: int) -> Outcome:
    """Run the fixed reference job; it is not the program, so a failure stops the run."""
    outcome = run_command([sys.executable, str(BENCH / "reference.py"), "--procs", str(procs)], work_dir)
    if outcome.rc != 0 or outcome.stdout.strip() != REFERENCE_OUTPUT:
        raise BenchError(f"reference job failed (exit code {outcome.rc}): "
                         f"{(outcome.stdout + outcome.stderr).strip()[-500:]}")
    return outcome


def run_enumerate(ledger: Ledger, work_dir: Path, label: str) -> Outcome | None:
    """``bellsim enumerate``: interpreter start, imports and parser, with no work."""
    outcome = run_command(bellsim_cmd("enumerate"), work_dir)
    problem = None if "max=+2 min=-2" in outcome.stdout else "enumerate did not report max=+2 min=-2"
    return outcome if ledger.record(label, outcome, problem) else None


# ---------------------------------------------------------------------------
# run record


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _git_revision() -> str:
    head = _read(str(ROOT / ".git" / "HEAD")).strip()
    if head.startswith("ref: "):
        return _read(str(ROOT / ".git" / head[5:])).strip() or head
    return head or "unknown (not a git checkout)"


def run_record(name: str, workload: Workload, seed: int, versions: dict) -> dict:
    cpu_model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    llc = _read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip() or "unknown"
    spin_bytes = SPIN_BYTES_PER_TRIAL * workload.n
    record = {
        "workload": name,
        "argv": ["bellsim", *workload.argv, "--seed", str(seed)],
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "llc_size": llc,
        "python": versions["python"],
        "numpy": versions["numpy"],
        "git_revision": _git_revision(),
        "work": workload.work,
        "work_unit": workload.work_unit,
        "working_set_spins_bytes_computed": spin_bytes,
    }
    if name == "sweep":
        record["note"] = (
            f"computed working set ({spin_bytes / 1e6:.1f} MB of spins plus per-point "
            f"temporaries) fits in the LLC ({llc}): the sweep is compute-bound here, "
            "not a memory-bandwidth measurement"
        )
    return record


# ---------------------------------------------------------------------------
# metrics


@dataclass(frozen=True)
class Repetition:
    """One untraced repetition: each command with the reference run before it."""
    parallel: Outcome
    parallel_ref: Outcome
    serial: Outcome
    serial_ref: Outcome


def end_to_end(reps: list[Repetition], setup_s: float, work: int) -> dict:
    def median(f: Callable[[Repetition], float]) -> float:
        return statistics.median(f(r) for r in reps)

    wall = median(lambda r: r.parallel.wall_s / r.parallel_ref.wall_s)
    return {
        "wall_ref": (wall, "ref"),
        "wall_ref_serial": (median(lambda r: r.serial.wall_s / r.serial_ref.wall_s), "ref"),
        "work_per_ref": (work / wall, "work/ref"),
        "scaling_eff": (median(lambda r: r.serial.wall_s / (WORKERS * r.parallel.wall_s)), "ratio"),
        "cpu_ref": (median(lambda r: r.parallel.cpu_s / r.parallel_ref.cpu_s), "ref"),
        "peak_rss_mb": (median(lambda r: r.parallel.peak_rss_mb), "MB"),
        "setup_s": (setup_s, "s"),
    }


def _tree(spans: list[dict], root_name: str) -> list[dict]:
    """The spans under the first span called ``root_name``, root included."""
    root = next(s["id"] for s in spans if s["name"] == root_name)
    inside = {root}
    for s in spans:  # parents are always opened before their children
        if s["parent"] in inside:
            inside.add(s["id"])
    return [s for s in spans if s["id"] in inside]


def _self_times(spans: list[dict]) -> dict[str, float]:
    child_ns: dict[int, int] = {}
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] = child_ns.get(s["parent"], 0) + s["end"] - s["start"]
    layers: dict[str, float] = {}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + (s["end"] - s["start"] - child_ns.get(s["id"], 0)) / 1e9
    return layers


def _total_s(spans: list[dict], name: str) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name) / 1e9


def _count(spans: list[dict], key: str) -> int:
    return sum(s.get(key, 0) for s in spans)


LAYERS = ("rng", "geometry", "experiment", "correlation", "chsh", "cli")
COUNT_METRICS = ("rng.draws", "correlation.sign_evals", "chsh.quads", "experiment.write_bytes",
                 "parallel.pools", "parallel.db_pools", "parallel.tasks", "parallel.bytes_shipped")


def layer_metrics(serial_spans: list[dict], parallel_spans: list[dict]) -> dict:
    """Per-layer values of one traced repetition (1-worker and 2-worker replays)."""
    main = _tree(serial_spans, "cli.main")
    self_s = _self_times(main)
    search_s = _total_s(main, "chsh.search_max_chsh")
    quads = _count(main, "quads")
    pools = [s for s in parallel_spans if s["name"].startswith("parallel.")]
    metrics = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in LAYERS}
    metrics.update({
        "rng.child_keys_s": _total_s(main, "rng.child_keys"),
        "rng.draws": _count(main, "draws"),
        "geometry.unit_rows_s": _total_s(main, "geometry.unit_rows_for_keys"),
        "experiment.generate_s": _total_s(main, "experiment.generate_database"),
        "experiment.write_s": _total_s(main, "experiment.write_database"),
        "experiment.write_bytes": _count(main, "bytes"),
        "experiment.read_s": _total_s(serial_spans, "experiment.read_database"),
        "correlation.sweep_s": _total_s(main, "correlation.sweep_correlation"),
        "correlation.sign_evals": _count(main, "sign_evals"),
        "correlation.write_csv_s": _total_s(main, "correlation.write_curve_csv"),
        "chsh.statistic_s": _total_s(main, "chsh.chsh_statistic"),
        "chsh.per_trial_terms_s": _total_s(main, "chsh.per_trial_terms"),
        "chsh.search_s": search_s,
        "chsh.quads": quads,
        "chsh.quad_ms": 1000.0 * search_s / quads if quads else 0.0,
        "cli.serialize_s": _total_s(main, "cli._dump_json") + _total_s(main, "cli._atomic_write"),
        "parallel.self_s": _self_times(pools).get("parallel", 0.0),
        "parallel.pools": len(pools),
        "parallel.db_pools": sum(s["name"] == "parallel.db_pool" for s in pools),
        "parallel.tasks": _count(pools, "tasks"),
        "parallel.pool_start_s": sum(
            s["first_result_ns"] if s["first_result_ns"] is not None else s["end"] - s["start"]
            for s in pools
        ) / 1e9,
        "parallel.bytes_shipped": _count(pools, "bytes_shipped"),
        "_main_s": _total_s(main, "cli.main"),
    })
    return metrics


LAYER_UNITS = {"rng.draws": "count", "correlation.sign_evals": "count", "chsh.quads": "count",
               "chsh.quad_ms": "ms", "experiment.write_bytes": "B", "parallel.pools": "count",
               "parallel.db_pools": "count", "parallel.tasks": "count", "parallel.bytes_shipped": "B"}


# ---------------------------------------------------------------------------
# entry point


def _describe(values: list[float]) -> str:
    return f"{len(values)} runs, min {min(values):.6g}, median {statistics.median(values):.6g}, max {max(values):.6g}"


def measure(name: str, seed: int, seconds: float, trace: bool, work_dir: Path) -> tuple[Ledger, dict]:
    workload = WORKLOADS[name]
    started = time.perf_counter()
    versions = check_checkout()
    ledger = Ledger(name, seed)
    print("run record: " + json.dumps(run_record(name, workload, seed, versions)))
    run_enumerate(ledger, work_dir, "warm-up")  # untimed; compiles the bytecode caches

    setup: list[Outcome] = []
    serial: list[Outcome] = []  # traced mode: the untraced 1-worker runs
    reps: list[Repetition] = []  # untraced mode
    layer_reps: list[dict] = []
    rep_s: list[float] = []
    rep = 0
    while rep < MIN_REPS or time.perf_counter() - started + statistics.median(rep_s) <= seconds:
        if time.perf_counter() - started > RUN_DEADLINE_S:
            break
        rep_start = time.perf_counter()
        outcome = run_enumerate(ledger, work_dir, f"enumerate-{rep}")
        if outcome:
            setup.append(outcome)
        if trace:
            outcome = run_cli(ledger, work_dir, seed, 1, f"untraced-w1-{rep}")
            spans_1 = run_traced(ledger, work_dir, seed, 1, f"traced-w1-{rep}")
            spans_2 = run_traced(ledger, work_dir, seed, WORKERS, f"traced-w{WORKERS}-{rep}")
            if outcome and spans_1 and spans_2:
                serial.append(outcome)
                layer_reps.append(layer_metrics(spans_1, spans_2))
        else:
            order = (WORKERS, 1) if rep % 2 == 0 else (1, WORKERS)
            refs, outcomes = {}, {}
            for w in order:
                refs[w] = run_reference(work_dir, min(w, workload.busy_cpus))
                outcomes[w] = run_cli(ledger, work_dir, seed, w, f"w{w}-{rep}")
            if all(outcomes.values()):
                reps.append(Repetition(outcomes[WORKERS], refs[WORKERS], outcomes[1], refs[1]))
        rep_s.append(time.perf_counter() - rep_start)
        rep += 1

    if not setup:
        raise BenchError("bellsim enumerate never succeeded")
    setup_s = statistics.median(o.wall_s for o in setup)
    metrics: dict[str, tuple[float, str]] = {}
    if trace:
        if not layer_reps:
            raise BenchError("no traced repetition succeeded")
        for key in COUNT_METRICS:
            if len({r[key] for r in layer_reps}) != 1:
                ledger.failed += 1
                print(f"FAILED: {key} differs between repetitions: {[r[key] for r in layer_reps]}",
                      file=sys.stderr)
        wall_serial = statistics.median(o.wall_s for o in serial)
        main_s = statistics.median(r["_main_s"] for r in layer_reps)
        for key in layer_reps[0]:
            if key != "_main_s":
                metrics[key] = (statistics.median(r[key] for r in layer_reps), LAYER_UNITS.get(key, "s"))
        metrics["trace.overhead_s"] = (main_s - (wall_serial - setup_s), "s")
        print(f"traced cli.main {main_s:.4f} s vs untraced median 1-worker wall - setup_s "
              f"{wall_serial - setup_s:.4f} s ({len(layer_reps)} traced repetitions)")
    else:
        if not reps:
            raise BenchError("no untraced repetition succeeded")
        metrics = end_to_end(reps, setup_s, workload.work)
        for label, values in (
            ("2-worker wall s", [r.parallel.wall_s for r in reps]),
            ("1-worker wall s", [r.serial.wall_s for r in reps]),
            ("2-worker CPU s", [r.parallel.cpu_s for r in reps]),
            ("reference wall s", [r.parallel_ref.wall_s for r in reps] + [r.serial_ref.wall_s for r in reps]),
        ):
            print(f"{label}: {_describe(values)}")
    print(f"fail_ratio: {ledger.failed}/{ledger.attempted} = {ledger.failed / ledger.attempted:.4f}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:28s} {value:>16.6f} {unit}")
    return ledger, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bellsim benchmark (run from the checkout root)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the running command's process group is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir()
    try:
        ledger, metrics = measure(args.workload, args.seed, args.seconds, bool(args.trace), work_dir)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        for path in work_dir.iterdir():
            path.unlink()
        work_dir.rmdir()
        if not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
