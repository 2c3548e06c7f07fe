"""Mutation check of bellsim's fast paths and run-time checks against tier-1.

Each mutant is one textual edit (old text, new text) of one source file.
For each, the checkout is copied to a temporary directory, the edit is
applied there, and tier-1 runs on the copy with ``-x`` under a time limit.
A mutant is killed when a test fails (the first failing test is named) or
the run exceeds the limit, and survives when every test passes. A survivor
shows a missing test, unless it changes no behaviour a test could observe;
such an equivalent mutant is taken off the list. The checkout itself is
only read; every file the runs write stays in the temporary copies.

Standard library only. Not part of tier-1: a killed mutant takes seconds,
a survivor a whole tier-1 run. Exits 1 if any mutant survives or no longer
applies.

    python3 tools/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
_IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks"
)
_TIMEOUT = 300.0  # seconds per tier-1 run


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the checkout
    old: str  # must occur exactly once in the file
    new: str


MUTANTS = [
    # the generation kernel and the sampler's redraw (geometry)
    Mutant(
        "box-muller-gz",
        "src/bellsim/geometry.py",
        "np.cos(u4, out=gz)",
        "np.sin(u4, out=gz)",
    ),
    Mutant(
        "sampler-redraw-once",
        "src/bellsim/geometry.py",
        "while norm[i] < _REJECT_NORM:",
        "for _ in range(1):",
    ),
    # a mixture's positions, composed through its picks (experiment.Mixture._visit_columns)
    Mutant(
        "composed-position",
        "src/bellsim/experiment.py",
        "lambda cols, at, p=picked: visit(cols, p[at])",
        "lambda cols, at, p=picked: visit(cols, at)",
    ),
    Mutant(
        "mixture-component-offset",
        "src/bellsim/experiment.py",
        "offset + 1, lambda cols, at, p=picked",
        "offset, lambda cols, at, p=picked",
    ),
    Mutant(
        "row-kernel-trailing-zeros",
        "src/bellsim/experiment.py",
        "later |= words[j] != 0",
        "later |= words[j] == 0",
    ),
    Mutant(
        "nesting-limit",
        "src/bellsim/experiment.py",
        "if depth == _MAX_NESTING:",
        "if depth == _MAX_NESTING + 1:",
    ),
    Mutant(
        "usable-cpus",
        "src/bellsim/parallel.py",
        'if hasattr(os, "sched_getaffinity"):',
        "if False:",
    ),
    # the packed sign kernel and the reuse search's bound
    Mutant(
        "station-a-tie",
        "src/bellsim/chsh.py",
        "(a_dirs, slice(None, k), np.greater_equal)",
        "(a_dirs, slice(None, k), np.greater)",
    ),
    Mutant(
        "plus-bits-x1",
        "src/bellsim/chsh.py",
        "return x2 ^ y1 ^ ((y1 ^ y2) & ~(x1 ^ x2))",
        "return x1 ^ y1 ^ ((y1 ^ y2) & ~(x1 ^ x2))",
    ),
    Mutant(
        "b-tie-mask",
        "src/bellsim/chsh.py",
        "tied = np.bitwise_count(tie[i] | tie[2:][j])",
        "tied = np.bitwise_count(tie[i] | tie[i])",
    ),
    Mutant(
        "pair-table-transposed",
        "src/bellsim/chsh.py",
        "pos = n - disagree",
        "pos = (n - disagree).T",
    ),
    Mutant(
        "prune-bound",
        "src/bellsim/chsh.py",
        "live = live[(bound > bar) | ((bound == bar) & greater[live])]",
        "live = live[(bound >= bar) | ((bound == bar) & greater[live])]",
    ),
    Mutant(
        "best-keeps-last-of-equals",
        "src/bellsim/chsh.py",
        "return int(best[0])",
        "return int(best[-1])",
    ),
    Mutant(
        "chunk-ranges-extra",
        "src/bellsim/parallel.py",
        "1 if i < extra else 0",
        "1 if i <= extra else 0",
    ),
    Mutant(
        "ranges-uncapped",
        "src/bellsim/parallel.py",
        "RANGES_PER_WORKER * _processes(workers)",
        "RANGES_PER_WORKER * workers",
    ),
    # the import graph: each command loads only the layers it runs
    Mutant(
        "cli-imports-every-layer",
        "src/bellsim/cli.py",
        "from .parallel import resolve_workers\n",
        "from .parallel import resolve_workers\nfrom . import chsh, correlation\n",
    ),
    Mutant(
        "chsh-imports-correlation",
        "src/bellsim/chsh.py",
        "from .rng import CounterStream\n",
        "from .rng import CounterStream\nfrom . import correlation\n",
    ),
    # the run-time checks
    Mutant(
        "identity-check-off",
        "src/bellsim/chsh.py",
        "if not (all_pm2 and tallies.term_sum == numerator and abs(numerator) <= 2 * n):",
        "if False:",
    ),
    Mutant(
        "identity-check-no-pm2-count",
        "src/bellsim/chsh.py",
        "if not (all_pm2 and tallies.term_sum == numerator and abs(numerator) <= 2 * n):",
        "if not (tallies.term_sum == numerator and abs(numerator) <= 2 * n):",
    ),
    Mutant(
        "identity-check-no-sum",
        "src/bellsim/chsh.py",
        "if not (all_pm2 and tallies.term_sum == numerator and abs(numerator) <= 2 * n):",
        "if not (all_pm2 and abs(numerator) <= 2 * n):",
    ),
    Mutant(
        "identity-check-no-range",
        "src/bellsim/chsh.py",
        "if not (all_pm2 and tallies.term_sum == numerator and abs(numerator) <= 2 * n):",
        "if not (all_pm2 and tallies.term_sum == numerator):",
    ),
    Mutant(
        "sweep-equal-settings-check",
        "src/bellsim/correlation.py",
        "if a == b and count_pos != tie_count:",
        "if False:",
    ),
    Mutant(
        "search-winner-check",
        "src/bellsim/chsh.py",
        "if numerator / db.n != best_result.statistic:",
        "if False:",
    ),
]


def _first_failure(output: str) -> str:
    # the test named on pytest's first FAILED or ERROR summary line
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return "(no test named; see pytest's output)"


def run_mutant(mutant: Mutant) -> tuple[str, str, float]:
    """(outcome, detail, seconds) of tier-1 on a mutated copy of the checkout."""
    with tempfile.TemporaryDirectory(prefix="bellsim-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_IGNORED)
        target = copy / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return "stale", f"{mutant.old!r} occurs {text.count(mutant.old)} times", 0.0
        target.write_text(text.replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider"]
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                argv, cwd=copy, env=env, capture_output=True, text=True, timeout=_TIMEOUT
            )
        except subprocess.TimeoutExpired:
            return "killed", f"timed out after {_TIMEOUT:g} s", time.perf_counter() - start
        seconds = time.perf_counter() - start
        if proc.returncode == 0:
            return "survived", "", seconds
        return "killed", _first_failure(proc.stdout), seconds


def main() -> int:
    missed = 0
    for mutant in MUTANTS:
        outcome, detail, seconds = run_mutant(mutant)
        print(f"{mutant.name:<30} {outcome:<8} {seconds:6.1f} s  {detail}", flush=True)
        missed += outcome != "killed"
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
