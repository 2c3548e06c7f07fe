"""Shared fixtures."""

from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import Phase, settings

from bellsim import parallel

# Hypothesis's explain phase re-runs a failing property's examples under a line
# tracer, which also traces the shrinking before it. On properties over tens of
# thousands of rows that turned a failure reported in 8 s at 267 MB into one
# reported in 105 s at 493 MB. Leaving it out changes no test's pass or fail.
settings.register_profile("bellsim", phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("bellsim")


class PoolRecorder:
    """Records each ``parallel.plain_pool`` request, then opens the pool or refuses it.

    ``requests`` holds the ``workers`` argument of each request and
    ``processes`` the process count that request asked of
    ``ProcessPoolExecutor``. With ``refuse`` set, a request raises an
    ``AssertionError`` (message "pool refused") before any process starts.
    """

    def __init__(self, monkeypatch):
        self.requests, self.processes, self.refuse = [], [], False
        plain_pool = parallel.plain_pool

        def record_pool(workers):
            self.requests.append(workers)
            return plain_pool(workers)

        def record_executor(max_workers, **kwargs):
            self.processes.append(max_workers)
            if self.refuse:
                raise AssertionError(f"pool refused: {max_workers} processes requested")
            return ProcessPoolExecutor(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(parallel, "plain_pool", record_pool)
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", record_executor)


@pytest.fixture
def pool_recorder(monkeypatch):
    return PoolRecorder(monkeypatch)
