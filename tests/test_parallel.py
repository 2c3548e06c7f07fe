"""Process-pool plumbing: the process cap and the row-range map."""

import subprocess
import sys

import pytest

from bellsim import parallel


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
def test_pools_start_at_most_cpu_count_processes(pool_recorder, monkeypatch, cpus, workers, expected):
    # records the pool request instead of starting any process
    pool_recorder.refuse = True
    if cpus != "host":
        _usable_cpus(monkeypatch, cpus)
    with pytest.raises(AssertionError, match="pool refused"):
        parallel.plain_pool(workers)
    assert pool_recorder.processes == [expected]


def _span(job, lo, hi):
    return job, lo, hi


@pytest.mark.parametrize(
    "n,workers,minimum,pools",
    [(10, 1, 1, []), (30, 3, 31, []), (30, 3, 30, [3]), (2, 3, 1, [3])],
)
def test_map_ranges_returns_the_ranges_in_order(
    pool_recorder, monkeypatch, n, workers, minimum, pools
):
    _usable_cpus(monkeypatch, 2)
    partials = parallel.map_ranges(_span, n, workers, "job", minimum=minimum)
    # the ranges come from the process count, capped at the two CPUs
    parts = 1 if workers == 1 else parallel.RANGES_PER_WORKER * 2
    assert partials == [("job", lo, hi) for lo, hi in parallel.chunk_ranges(n, parts)]
    assert pool_recorder.requests == pools


def test_map_ranges_cuts_absurd_worker_counts_to_the_capped_process_count(
    pool_recorder, monkeypatch
):
    # n is below the minimum, so the ranges run in this process and nothing starts
    pool_recorder.refuse = True
    _usable_cpus(monkeypatch, 2)
    partials = parallel.map_ranges(_span, 20_000, 10_000, "job", minimum=20_001)
    assert len(partials) == 2 * parallel.RANGES_PER_WORKER
    assert [(lo, hi) for _, lo, hi in partials] == parallel.chunk_ranges(20_000, len(partials))
    assert pool_recorder.requests == [] and pool_recorder.processes == []


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


def test_the_cli_imports_no_pool_machinery_until_a_pool_starts():
    code = "import sys, bellsim.cli; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
