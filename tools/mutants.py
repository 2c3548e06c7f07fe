"""Mutation check of bellsim's fast paths and run-time checks against tier-1.

Each mutant is one textual edit (old text, new text) of one source file.
For each, the checkout is copied to a temporary directory, the edit is
applied there, and tier-1 runs on the copy with ``-x`` under a time limit,
less ``tests/test_mutants.py``: that file checks that each mutant's old text
is in the checkout, which the mutated copy lacks by design.
A mutant is killed when a test fails (the first failing test is named) or
the run exceeds the limit, and survives when every test passes. A survivor
shows a missing test, unless it changes no behaviour a test could observe;
such an equivalent mutant is taken off the list. The checkout itself is
only read; every file the runs write stays in the temporary copies.

Each mutant also names the test that killed it last. That test runs alone
first: if it fails, the mutant is killed, as tier-1, which holds the test,
would find. If it passes, no longer exists or cannot run, tier-1 runs with
``-x`` as above, so no verdict depends on the recorded test.

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
    killer: str | None = None  # pytest node id of the test that killed it last


MUTANTS = [
    # the generation kernel and the sampler's redraw (geometry)
    Mutant(
        "box-muller-gz",
        "src/bellsim/geometry.py",
        "np.cos(u4, out=gz)",
        "np.sin(u4, out=gz)",
        "tests/test_cli.py::test_benchmark_workload_matches_its_recorded_digest[sweep-1]",
    ),
    Mutant(
        "sampler-redraw-once",
        "src/bellsim/geometry.py",
        "while norm[i] < _REJECT_NORM:",
        "for _ in range(1):",
        "tests/test_geometry.py::test_short_triples_are_redrawn_after_the_batch_in_order",
    ),
    Mutant(
        "sub-block-bound",
        "src/bellsim/geometry.py",
        "hi = min(lo + _SUB_BLOCK_ROWS, n)",
        "hi = min(lo + _SUB_BLOCK_ROWS - 1, n)",
        "tests/test_acceptance.py::test_criterion_3_perfect_anticorrelation",
    ),
    Mutant(
        "redraw-offset",
        "src/bellsim/geometry.py",
        "keys[redo], offset + _DRAWS_PER_ATTEMPT,",
        "keys[redo], offset + _DRAWS_PER_ATTEMPT + 1,",
        "tests/test_experiment.py::test_generation_kernel_matches_the_row_wise_oracle",
    ),
    # the uniforms' shift off zero (rng._to_open_unit)
    Mutant(
        "open-unit-shift",
        "src/bellsim/rng.py",
        "out += 0.5",
        "out += 0.0",
        "tests/test_cli.py::test_benchmark_workload_matches_its_recorded_digest[gendb-1]",
    ),
    # the one put of visited columns into trial order (experiment._put_columns)
    Mutant(
        "column-put-reversed",
        "src/bellsim/experiment.py",
        "columns[:, where] = cols",
        "columns[:, where] = cols[:, ::-1]",
        "tests/test_cli.py::test_streamed_chsh_matches_the_database_composition[policy1-1]",
    ),
    # a mixture's positions, composed through its picks (experiment.Mixture._visit_columns)
    Mutant(
        "composed-position",
        "src/bellsim/experiment.py",
        "return visit(cols, p[at])",
        "return visit(cols, at)",
        "tests/test_acceptance.py::test_criterion_2_per_trial_identity",
    ),
    Mutant(
        "mixture-component-offset",
        "src/bellsim/experiment.py",
        "spec._visit_columns(picked, offset + 1, through, inner)",
        "spec._visit_columns(picked, offset, through, inner)",
        "tests/test_cli.py::test_benchmark_workload_matches_its_recorded_digest[chsh-1]",
    ),
    # the block walk of generated trials (experiment.GeneratedTrials.visit_columns)
    Mutant(
        "block-keys-from-next",
        "src/bellsim/experiment.py",
        "keys = _trial_keys(self.seed, b, min(b + _BLOCK_ROWS, hi), scratch)",
        "keys = _trial_keys(self.seed, b + 1, min(b + _BLOCK_ROWS, hi) + 1, scratch)",
        "tests/test_experiment.py::test_the_block_walk_equals_the_oracle_across_block_and_sub_block_bounds[uniform]",
    ),
    Mutant(
        "block-one-column-late",
        "src/bellsim/experiment.py",
        "self.distribution._visit_columns(keys, 0, visit, scratch, b - lo)",
        "self.distribution._visit_columns(keys, 0, visit, scratch, b - lo + 1)",
        "tests/test_experiment.py::test_the_block_walk_equals_the_oracle_across_block_and_sub_block_bounds[uniform]",
    ),
    # a mixture's picks, found a sub-block at a time (experiment._flatnonzero_into)
    Mutant(
        "picks-sub-block-offset",
        "src/bellsim/experiment.py",
        "np.add(part, lo, out=out[count : count + part.size])",
        "np.add(part, 0, out=out[count : count + part.size])",
        "tests/test_experiment.py::test_the_block_walk_equals_the_oracle_across_block_and_sub_block_bounds[rare-component]",
    ),
    Mutant(
        "keys-buffer-unsliced",
        "src/bellsim/experiment.py",
        "m = hi - lo\n    return child_keys(",
        "m = scratch.keys.shape[0]\n    return child_keys(",
        "tests/test_experiment.py::test_the_block_walk_equals_the_oracle_across_block_and_sub_block_bounds[uniform]",
    ),
    Mutant(
        "row-kernel-trailing-zeros",
        "src/bellsim/experiment.py",
        "later |= words[j] != 0",
        "later |= words[j] == 0",
        "tests/test_cli.py::test_gen_db_writes_loadable_database",
    ),
    Mutant(
        "row-kernel-exponent-redo",
        "src/bellsim/experiment.py",
        "if redo.size:",
        "if False:",
        "tests/test_experiment.py::test_row_kernel_matches_the_row_format_on_any_finite_floats",
    ),
    Mutant(
        "round-half-even",
        "src/bellsim/experiment.py",
        "((floor & _U1) == _U1)",
        "((floor & _U1) == 0)",
        "tests/test_experiment.py::test_row_kernel_rounds_ties_to_even",
    ),
    Mutant(
        "nesting-limit",
        "src/bellsim/experiment.py",
        "if depth == _MAX_NESTING:",
        "if depth == _MAX_NESTING + 1:",
        "tests/test_experiment.py::test_mixtures_nest_at_most_the_limit_in_a_spec_and_a_database_header",
    ),
    Mutant(
        "usable-cpus",
        "src/bellsim/parallel.py",
        'if hasattr(os, "sched_getaffinity"):',
        "if False:",
        "tests/test_cli.py::test_auto_workers_count_the_cpus_this_process_may_use",
    ),
    # the coordinates a setting group's dots use: those nonzero in some direction
    Mutant(
        "group-coordinates-all",
        "src/bellsim/experiment.py",
        "if any(column))",
        "if all(column))",
        "tests/test_acceptance.py::test_criterion_7_fresh_mode_concentration",
    ),
    Mutant(
        "group-coordinates-tolerance",
        "src/bellsim/experiment.py",
        "if any(column))",
        "if any(abs(v) > 1e-12 for v in column))",
        "tests/test_chsh.py::test_packed_search_evaluator_matches_chsh_statistic",
    ),
    # the stations' rule, which every sign reads: an exact zero dot reads +1
    Mutant(
        "station-a-tie",
        "src/bellsim/experiment.py",
        "np.greater_equal(da, 0.0)",
        "np.greater(da, 0.0)",
        "tests/test_chsh.py::test_terms_match_oracle_and_mean_equals_statistic",
    ),
    Mutant(
        "station-b-tie",
        "src/bellsim/experiment.py",
        "np.less_equal(db, 0.0)",
        "np.less(db, 0.0)",
        "tests/test_chsh.py::test_terms_match_oracle_and_mean_equals_statistic",
    ),
    # the packed sign kernel and the reuse search's bound
    Mutant(
        "plus-bits-x1",
        "src/bellsim/chsh.py",
        "return x2 ^ y1 ^ ((y1 ^ y2) & ~(x1 ^ x2))",
        "return x1 ^ y1 ^ ((y1 ^ y2) & ~(x1 ^ x2))",
        "tests/test_acceptance.py::test_criterion_2_per_trial_identity",
    ),
    Mutant(
        "b-tie-mask",
        "src/bellsim/chsh.py",
        "tied = np.bitwise_count(tie[:2, None] | tie[2:])",
        "tied = np.bitwise_count(tie[:2, None] | tie[:2])",
        "tests/test_chsh.py::test_fresh_statistic_matches_the_database_composition[5-dist1]",
    ),
    Mutant(
        "pair-table-transposed",
        "src/bellsim/chsh.py",
        "pos = n - disagree",
        "pos = (n - disagree).T",
        "tests/test_chsh.py::test_one_tile_pass_serves_many_candidates_bit_for_bit",
    ),
    Mutant(
        "prune-bound",
        "src/bellsim/chsh.py",
        "live = live[(bound > bar) | ((bound == bar) & greater[live])]",
        "live = live[(bound >= bar) | ((bound == bar) & greater[live])]",
        "tests/test_chsh.py::test_tile_evaluator_drops_a_candidate_at_its_first_losing_bound",
    ),
    Mutant(
        "tile-doubling-off",
        "src/bellsim/chsh.py",
        "m, tile = m + t, min(2 * tile, _BLOCK_ROWS // 4)",
        "m, tile = m + t, min(tile, _BLOCK_ROWS // 4)",
        "tests/test_chsh.py::test_tile_evaluator_drops_a_candidate_at_its_first_losing_bound",
    ),
    Mutant(
        "best-keeps-last-of-equals",
        "src/bellsim/chsh.py",
        "return int(best[0])",
        "return int(best[-1])",
        "tests/test_chsh.py::test_best_candidate_is_the_greatest_statistic_then_sort_key_then_earliest",
    ),
    Mutant(
        "chunk-ranges-extra",
        "src/bellsim/parallel.py",
        "1 if i < extra else 0",
        "1 if i <= extra else 0",
        "tests/test_acceptance.py::test_criterion_2_per_trial_identity",
    ),
    Mutant(
        "ranges-uncapped",
        "src/bellsim/parallel.py",
        "RANGES_PER_WORKER * processes)",
        "RANGES_PER_WORKER * workers)",
        "tests/test_parallel.py::test_map_ranges_returns_the_ranges_in_order[30-3-31-pools1]",
    ),
    Mutant(
        "serial-fallback",
        "src/bellsim/parallel.py",
        "if workers <= 1 or n < minimum",
        "if workers <= 1 or n <= minimum",
        "tests/test_cli.py::test_each_command_opens_one_pool_at_two_workers_and_none_at_one[sweep]",
    ),
    # the forked map: results back in range order, and a child's exception kept
    Mutant(
        "fork-results-out-of-order",
        "src/bellsim/parallel.py",
        "results[w::processes] = done",
        "results[w::processes] = done[::-1]",
        "tests/test_parallel.py::test_map_ranges_returns_the_ranges_in_order[30-3-30-pools2]",
    ),
    Mutant(
        "fork-exception-dropped",
        "src/bellsim/parallel.py",
        "        failed = exc\n",
        "        return pickle.dumps((done, None), pickle.HIGHEST_PROTOCOL)\n",
        "tests/test_parallel.py::test_an_exception_in_a_child_reaches_the_caller_with_its_type[first]",
    ),
    Mutant(
        "stand-in-unchecked",
        "src/bellsim/parallel.py",
        "        pickle.loads(data)  # an exception class can pickle and still not rebuild\n",
        "",
        "tests/test_parallel.py::test_an_exception_that_cannot_travel_arrives_as_a_runtime_error",
    ),
    Mutant(
        "stand-in-unnamed",
        "src/bellsim/parallel.py",
        'stand_in = RuntimeError(f"{type(failed).__name__}: {failed}")',
        "stand_in = RuntimeError(str(failed))",
        "tests/test_parallel.py::test_an_exception_that_cannot_travel_arrives_as_a_runtime_error",
    ),
    # the entry's collector: the start-up heap frozen after the imports, the collector on
    Mutant(
        "collector-left-off",
        "src/bellsim/__main__.py",
        "        gc.freeze()\n        gc.enable()\n",
        "        gc.freeze()\n",
        "tests/test_blas_threads.py::test_the_command_freezes_its_start_up_heap_and_collects_the_rest[entry-function]",
    ),
    Mutant(
        "freeze-before-imports",
        "src/bellsim/__main__.py",
        "    try:\n        from .cli import main as cli_main\n    finally:\n        gc.freeze()\n",
        "    gc.freeze()\n    try:\n        from .cli import main as cli_main\n    finally:\n",
        "tests/test_blas_threads.py::test_the_command_freezes_its_start_up_heap_and_collects_the_rest[entry-function]",
    ),
    # the import graph: each command loads only the layers it runs
    Mutant(
        "cli-imports-every-layer",
        "src/bellsim/cli.py",
        "from .parallel import resolve_workers\n",
        "from .parallel import resolve_workers\nfrom . import chsh, correlation\n",
        "tests/test_imports.py::test_each_command_loads_only_the_layers_it_runs[gen-db]",
    ),
    Mutant(
        "chsh-imports-correlation",
        "src/bellsim/chsh.py",
        "from .rng import CounterStream\n",
        "from .rng import CounterStream\nfrom . import correlation\n",
        "tests/test_imports.py::test_each_command_loads_only_the_layers_it_runs[chsh]",
    ),
    # the run-time checks
    Mutant(
        "identity-check-off",
        "src/bellsim/chsh.py",
        "if not (all_pm2 and term_sum == numerator and abs(numerator) <= 2 * n):",
        "if False:",
        "tests/test_chsh.py::test_reuse_statistic_raises_when_the_tallies_break_the_identity[False-zero-term]",
    ),
    Mutant(
        "identity-check-no-pm2-count",
        "src/bellsim/chsh.py",
        "if not (all_pm2 and term_sum == numerator and abs(numerator) <= 2 * n):",
        "if not (term_sum == numerator and abs(numerator) <= 2 * n):",
        "tests/test_chsh.py::test_reuse_statistic_raises_when_the_tallies_break_the_identity[False-count-only]",
    ),
    Mutant(
        "identity-check-no-sum",
        "src/bellsim/chsh.py",
        "if not (all_pm2 and term_sum == numerator and abs(numerator) <= 2 * n):",
        "if not (all_pm2 and abs(numerator) <= 2 * n):",
        "tests/test_chsh.py::test_each_clause_of_the_identity_check_rejects_tallies_on_its_own[sum-off-the-tallies]",
    ),
    Mutant(
        "identity-check-no-range",
        "src/bellsim/chsh.py",
        "if not (all_pm2 and term_sum == numerator and abs(numerator) <= 2 * n):",
        "if not (all_pm2 and term_sum == numerator):",
        "tests/test_chsh.py::test_each_clause_of_the_identity_check_rejects_tallies_on_its_own[beyond-2n]",
    ),
    # the per-trial range, derived from the term sum of the checked tallies
    Mutant(
        "per-trial-min-derived",
        "src/bellsim/chsh.py",
        "per_trial_min=2 if term_sum == 2 * n else -2",
        "per_trial_min=2 if term_sum > 0 else -2",
        "tests/test_chsh.py::test_terms_match_oracle_and_mean_equals_statistic",
    ),
    Mutant(
        "per-trial-max-derived",
        "src/bellsim/chsh.py",
        "per_trial_max=-2 if term_sum == -2 * n else 2",
        "per_trial_max=-2 if term_sum < 0 else 2",
        "tests/test_chsh.py::test_terms_match_oracle_and_mean_equals_statistic",
    ),
    # a database's norm check (TrialDatabase._check): NaN and short rows fail it too
    Mutant(
        "norm-check-nan-passes",
        "src/bellsim/experiment.py",
        "if not np.abs(e, out=e).max() <= NORM_TOLERANCE:",
        "if np.abs(e, out=e).max() > NORM_TOLERANCE:",
        "tests/test_experiment.py::test_every_database_rejects_non_finite_and_non_unit_rows[row0]",
    ),
    Mutant(
        "norm-check-unsigned",
        "src/bellsim/experiment.py",
        "if not np.abs(e, out=e).max() <= NORM_TOLERANCE:",
        "if not e.max() <= NORM_TOLERANCE:",
        "tests/test_experiment.py::test_every_database_rejects_non_finite_and_non_unit_rows[row2]",
    ),
    Mutant(
        "sweep-equal-settings-check",
        "src/bellsim/correlation.py",
        "if a == b and count_pos != tie_count:",
        "if False:",
        "tests/test_cli.py::test_sweep_checks_exact_anticorrelation_where_b_equals_a",
    ),
    Mutant(
        "search-winner-check",
        "src/bellsim/chsh.py",
        "if numerator / db.n != best_result.statistic:",
        "if False:",
        "tests/test_chsh.py::test_reuse_search_raises_when_its_best_quad_fails_a_check[_tile_numerators]",
    ),
]


def _first_failure(output: str) -> str:
    # the test named on pytest's first FAILED or ERROR summary line
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return "(no test named; see pytest's output)"


def _pytest(copy: Path, env: dict, *args: str) -> subprocess.CompletedProcess | None:
    # None when the run exceeds the time limit
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider", *args]
    try:
        return subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True, timeout=_TIMEOUT)
    except subprocess.TimeoutExpired:
        return None


def run_mutant(mutant: Mutant) -> tuple[str, str, float]:
    """(outcome, detail, seconds) of the last killer, then if need be tier-1, on a
    mutated copy of the checkout."""
    with tempfile.TemporaryDirectory(prefix="bellsim-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_IGNORED)
        target = copy / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return "stale", f"{mutant.old!r} occurs {text.count(mutant.old)} times", 0.0
        target.write_text(text.replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        start = time.perf_counter()
        if mutant.killer:
            first = _pytest(copy, env, mutant.killer)
            # pytest exits 1 only when a test ran and failed; a missing id exits 4
            if first is None or first.returncode == 1:
                detail = f"timed out after {_TIMEOUT:g} s" if first is None else _first_failure(first.stdout)
                return "killed", f"{detail} (last killer)", time.perf_counter() - start
        proc = _pytest(copy, env, "--ignore=tests/test_mutants.py")
        seconds = time.perf_counter() - start
        if proc is None:
            return "killed", f"timed out after {_TIMEOUT:g} s", seconds
        if proc.returncode == 0:
            return "survived", "", seconds
        return "killed", _first_failure(proc.stdout), seconds


def main() -> int:
    missed = 0
    start = time.perf_counter()
    for mutant in MUTANTS:
        outcome, detail, seconds = run_mutant(mutant)
        print(f"{mutant.name:<30} {outcome:<8} {seconds:6.1f} s  {detail}", flush=True)
        missed += outcome != "killed"
    print(f"{len(MUTANTS)} mutants, {missed} not killed, {time.perf_counter() - start:.0f} s")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
