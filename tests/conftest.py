"""Shared fixtures."""

import os

import pytest
from hypothesis import Phase, settings

from bellsim import parallel

# Hypothesis's explain phase re-runs a failing property's examples under a line
# tracer, which also traces the shrinking before it. On properties over tens of
# thousands of rows that turned a failure reported in 8 s at 267 MB into one
# reported in 105 s at 493 MB. Leaving it out changes no test's pass or fail.
settings.register_profile("bellsim", phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("bellsim")


@pytest.fixture(autouse=True)
def _no_child_outlives_the_test():
    yield
    # every process a test started was reaped: none is left running, none is a zombie
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class ForkRecorder:
    """Records each call of ``parallel._fork_workers``, then forks or refuses.

    ``processes`` holds the process count of each call, that is, of each
    parallel ``map_ranges``. With ``refuse`` set, a call raises an
    ``AssertionError`` (message "fork refused") before any process starts.
    """

    def __init__(self, monkeypatch):
        self.processes, self.refuse = [], False
        fork_workers = parallel._fork_workers

        def record(processes, work):
            self.processes.append(processes)
            if self.refuse:
                raise AssertionError(f"fork refused: {processes} processes requested")
            return fork_workers(processes, work)

        monkeypatch.setattr(parallel, "_fork_workers", record)


@pytest.fixture
def fork_recorder(monkeypatch):
    return ForkRecorder(monkeypatch)
