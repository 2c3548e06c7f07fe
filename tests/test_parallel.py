"""Process-pool plumbing: the process cap."""

import os

import pytest

from bellsim import parallel


@pytest.mark.parametrize(
    "cpus,workers,expected",
    [(3, 10_000, 3), (None, 10_000, 1), (64, 2, 2), ("host", 10_000, os.cpu_count() or 1)],
)
def test_pools_start_at_most_cpu_count_processes(monkeypatch, cpus, workers, expected):
    # records the pool request instead of starting any process
    requested = []
    monkeypatch.setattr(
        parallel, "ProcessPoolExecutor", lambda **kw: requested.append(kw["max_workers"])
    )
    if cpus != "host":
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: cpus)
    parallel.db_pool(object(), workers)
    parallel.plain_pool(workers)
    assert requested == [expected, expected]
