"""The forked range map: the process cap, range order, failures and clean-up."""

import os
import signal
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from bellsim import cli, parallel
from bellsim.experiment import ConfigurationError, InvariantError


def _usable_cpus(monkeypatch, cpus):
    # ``cpus`` CPUs in this process's affinity mask; None: a platform with no
    # affinity call that cannot count its CPUs either
    if cpus is None:
        monkeypatch.delattr(parallel.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: None)
    else:
        monkeypatch.setattr(
            parallel.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False
        )


@pytest.mark.parametrize(
    "cpus,workers,expected",
    [(3, 10_000, 3), (None, 10_000, 1), (64, 2, 2), ("host", 10_000, parallel._usable_cpus())],
)
def test_pools_start_at_most_cpu_count_processes(
    fork_recorder, monkeypatch, cpus, workers, expected
):
    # records the fork request instead of starting any process
    fork_recorder.refuse = True
    if cpus != "host":
        _usable_cpus(monkeypatch, cpus)
    with pytest.raises(AssertionError, match="fork refused"):
        parallel.map_ranges(_span, parallel.MIN_PARALLEL_TRIALS, workers, "job")
    assert fork_recorder.processes == [expected]


def _span(job, lo, hi):
    return job, lo, hi


@pytest.mark.parametrize(
    "n,workers,minimum,pools",
    [(10, 1, 1, []), (30, 3, 31, []), (30, 3, 30, [2]), (2, 3, 1, [2])],
)
def test_map_ranges_returns_the_ranges_in_order(
    fork_recorder, monkeypatch, n, workers, minimum, pools
):
    _usable_cpus(monkeypatch, 2)
    partials = parallel.map_ranges(_span, n, workers, "job", minimum=minimum)
    # the ranges come from the process count, capped at the two CPUs
    parts = 1 if workers == 1 else parallel.RANGES_PER_WORKER * 2
    assert partials == [("job", lo, hi) for lo, hi in parallel.chunk_ranges(n, parts)]
    assert fork_recorder.processes == pools


def test_map_ranges_cuts_absurd_worker_counts_to_the_capped_process_count(
    fork_recorder, monkeypatch
):
    # n is below the minimum, so the ranges run in this process and nothing starts
    fork_recorder.refuse = True
    _usable_cpus(monkeypatch, 2)
    partials = parallel.map_ranges(_span, 20_000, 10_000, "job", minimum=20_001)
    assert len(partials) == 2 * parallel.RANGES_PER_WORKER
    assert [(lo, hi) for _, lo, hi in partials] == parallel.chunk_ranges(20_000, len(partials))
    assert fork_recorder.processes == []


def test_a_platform_without_fork_runs_the_ranges_in_this_process(fork_recorder, monkeypatch):
    fork_recorder.refuse = True
    _usable_cpus(monkeypatch, 2)
    monkeypatch.delattr(parallel.os, "fork")
    partials = parallel.map_ranges(_span, 30, 2, "job", minimum=1)
    assert partials == [("job", lo, hi) for lo, hi in parallel.chunk_ranges(30, 8)]
    assert fork_recorder.processes == []


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 30, 4099])
@pytest.mark.parametrize("parts", [1, 2, 3, 8, 10_000])
def test_chunk_ranges_tile_the_trials_in_near_equal_ranges(n, parts):
    ranges = parallel.chunk_ranges(n, parts)
    assert len(ranges) == min(n, parts)
    assert [lo for lo, _ in ranges] == [0, *(hi for _, hi in ranges[:-1])]
    assert ranges[-1][1] == n
    # the first n % len(ranges) ranges take one trial more than the rest
    sizes = [hi - lo for lo, hi in ranges]
    step, extra = divmod(n, len(ranges))
    assert sizes == [step + 1] * extra + [step] * (len(ranges) - extra)


# runs one command through cli.main at two workers, counting the forks, then
# prints the exit code, the fork counts and the executor modules it loaded
_IMPORT_PROBE = """
import sys
from bellsim import cli, parallel

forks, fork_workers = [], parallel._fork_workers


def counted(processes, work):
    forks.append(processes)
    return fork_workers(processes, work)


parallel._fork_workers = counted
code = cli.main(sys.argv[1:])
print(code, forks, [m for m in ("concurrent.futures", "multiprocessing") if m in sys.modules])
"""


@pytest.mark.parametrize(
    "command",
    [["sweep", "--steps", "19"], ["chsh", "--a1", "0", "--a2", "90", "--b1", "135", "--b2", "45"]],
    ids=["sweep", "chsh"],
)
def test_the_commands_fork_their_workers_with_no_executor_module(tmp_path, command):
    argv = [*command, "--n", str(parallel.MIN_PARALLEL_TRIALS), "--workers", "2"]
    argv += ["--out", str(tmp_path / "out")]
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *argv], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"0 [{parallel._processes(2)}] []"


# acceptance criterion 8's commands, each with the processes forked and the ranges
# cut by each of its maps at --workers 8 on eight CPUs: gen-db maps nothing, and the
# reuse search ignores --workers, re-evaluating its winner over one range
_CRITERION_8 = {
    "gen-db": (["gen-db", "--seed", "11", "--n", "20000"], ([], [])),
    "sweep": (["sweep", "--seed", "11", "--n", "20000", "--steps", "19"], ([8], [32])),
    "chsh": (
        ["chsh", "--seed", "11", "--n", "20000", "--a1", "0", "--a2", "90", "--b1", "135", "--b2", "45"],
        ([8], [32]),
    ),
    "search": (["search", "--seed", "11", "--n", "2000", "--budget", "200"], ([], [1])),
}


@pytest.mark.parametrize("command", list(_CRITERION_8))
def test_eight_workers_fork_eight_children_over_32_ranges_and_write_one_worker_bytes(
    tmp_path, monkeypatch, fork_recorder, command
):
    # criterion 8 itself forks no more children than the host has CPUs
    argv, maps = _CRITERION_8[command]
    assert cli.main([*argv, "--workers", "1", "--out", str(tmp_path / "w1")]) == 0
    assert fork_recorder.processes == []
    _usable_cpus(monkeypatch, 8)
    parts, chunk_ranges = [], parallel.chunk_ranges
    monkeypatch.setattr(
        parallel, "chunk_ranges", lambda n, p: parts.append(len(chunk_ranges(n, p))) or chunk_ranges(n, p)
    )
    assert cli.main([*argv, "--workers", "8", "--out", str(tmp_path / "w8")]) == 0
    assert (tmp_path / "w1").read_bytes() == (tmp_path / "w8").read_bytes()
    assert (fork_recorder.processes, parts) == maps


def _fail_in(failures, lo, hi):
    # raises the exception ``failures`` holds for the range starting at lo
    if lo in failures:
        raise failures[lo]
    return lo


@pytest.mark.parametrize(
    "failures,raised",
    [
        ({0: InvariantError("range 0")}, 0),  # worker 0's first range
        ({7000: InvariantError("range 7")}, 7000),  # worker 1's last range
        # ranges 1 (worker 1) and 2 (worker 0) raise: the lower range's wins
        ({1000: ConfigurationError("range 1"), 2000: InvariantError("range 2")}, 1000),
    ],
    ids=["first", "last", "lowest"],
)
def test_an_exception_in_a_child_reaches_the_caller_with_its_type(
    fork_recorder, monkeypatch, failures, raised
):
    _usable_cpus(monkeypatch, 2)
    expected = failures[raised]
    with pytest.raises(type(expected), match=str(expected)) as info:
        parallel.map_ranges(_fail_in, 8000, 2, failures)
    assert type(info.value) is type(expected)
    assert fork_recorder.processes == [2]


class _TwoArgumentError(Exception):
    # pickles, but its class cannot be rebuilt from the one message it pickles
    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


def test_an_exception_that_cannot_travel_arrives_as_a_runtime_error(monkeypatch):
    class LocalError(Exception):  # no import path, so it cannot be pickled
        pass

    _usable_cpus(monkeypatch, 2)
    for exc, message in [
        (_TwoArgumentError("tally", "row 5"), "_TwoArgumentError: tally at row 5"),
        (LocalError("lost"), "LocalError: lost"),
    ]:
        with pytest.raises(RuntimeError, match=message) as info:
            parallel.map_ranges(_fail_in, 8000, 2, {3000: exc})
        assert type(info.value) is RuntimeError


@contextmanager
def _deadline(seconds, exc_type):
    # raises exc_type in this thread once ``seconds`` have passed
    def expire(signum, frame):
        raise exc_type(f"no result after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _end_in(parent, ending, start, lo, hi):
    # a worker (never the test's own process) ends in the range starting at ``start``
    if lo == start and os.getpid() != parent:
        if ending == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        sys.exit(3)  # not an Exception, so no payload carries it
    return lo


@pytest.mark.parametrize(
    "ending,message", [("kill", "was killed by SIGKILL"), ("exit", "exited with status 1")]
)
def test_a_child_that_ends_in_a_range_makes_the_map_raise(monkeypatch, ending, message):
    _usable_cpus(monkeypatch, 2)
    with _deadline(60, TimeoutError):
        with pytest.raises(ChildProcessError, match=f"worker 1 of 2 {message} before sending"):
            parallel.map_ranges(_end_in, 8000, 2, os.getpid(), ending, 5000)


class _Interrupt(BaseException):
    pass


def _sleep_in_children(parent, lo, hi):
    if os.getpid() != parent:
        time.sleep(30)
    return lo


def test_an_interrupted_map_kills_and_reaps_every_child(monkeypatch):
    _usable_cpus(monkeypatch, 2)
    started = time.monotonic()
    with pytest.raises(_Interrupt):
        with _deadline(0.5, _Interrupt):
            parallel.map_ranges(_sleep_in_children, 8000, 2, os.getpid())
    # the sleeping children were killed, not waited for
    assert time.monotonic() - started < 20
