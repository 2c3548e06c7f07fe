"""End-to-end command tests through the installed entry point."""

import functools
import hashlib
import io
import json
import math
import os
import signal
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bellsim import (
    UniformSphere,
    chsh,
    chsh_statistic,
    cli,
    correlation,
    experiment,
    generate_database,
    parallel,
    parse_distribution,
    read_database,
    result_summary,
)
from bellsim.experiment import _WRITE_BLOCK_ROWS, InvariantError

from oracles import first_line_difference, write_database_per_row


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "bellsim", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def test_gen_db_writes_loadable_database(tmp_path):
    out = tmp_path / "db.txt"
    proc = run_cli("gen-db", "--seed", "42", "--n", "200", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    with open(out) as fh:
        db = read_database(fh)
    ref = generate_database(42, UniformSphere(), 200)
    assert db.spins.tobytes() == ref.spins.tobytes()


def test_commands_are_deterministic(tmp_path):
    args = ["sweep", "--seed", "7", "--n", "10", "--steps", "5"]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*args, "--out", str(first)).returncode == 0
    assert run_cli(*args, "--out", str(second)).returncode == 0
    assert first.read_bytes() == second.read_bytes()


def test_sweep_row_count_and_summary(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = run_cli("sweep", "--seed", "1", "--n", "5000", "--steps", "19", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# bellsim v")
    assert "workers" not in lines[0]  # files stay identical across worker counts
    assert len(lines) == 2 + 19
    assert "max |E_hat - E_linear| =" in proc.stdout
    assert "max |E_hat - E_singlet| =" in proc.stdout


def test_sweep_single_step_grid(tmp_path):
    out = tmp_path / "one.csv"
    proc = run_cli(
        "sweep", "--seed", "2", "--n", "1000", "--steps", "1", "--theta-start", "0",
        "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    rows = out.read_text().splitlines()
    assert len(rows) == 3
    assert float(rows[2].split(",")[2]) == -1.0


def test_sweep_json_format(tmp_path):
    out = tmp_path / "sweep.json"
    proc = run_cli(
        "sweep", "--seed", "1", "--n", "500", "--steps", "4", "--format", "json",
        "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["command"] == "sweep" and len(doc["points"]) == 4
    assert {"theta_rad", "E_hat", "SE", "E_linear", "E_singlet"} <= set(doc["points"][0])


def test_chsh_reuse_json_and_identity_banner(tmp_path):
    out = tmp_path / "chsh.json"
    proc = run_cli(
        "chsh", "--seed", "3", "--n", "20000",
        "--a1", "0", "--a2", "90", "--b1", "135", "--b2", "45",
        "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    assert "per-trial terms in {-2,+2}: OK" in proc.stdout
    doc = json.loads(out.read_text())
    assert doc["mode"] == "reuse"
    assert doc["statistic"] == 2.0  # canonical quad pins every term at +2
    assert doc["per_trial_min"] == 2 and doc["per_trial_max"] == 2
    assert {"e11", "e12", "e21", "e22", "quad", "seed", "version"} <= set(doc)


def test_chsh_artifact_reports_every_term_at_minus_two(tmp_path):
    # spins on +y against settings in the x-z plane: every dot is 0, every term -2
    out = tmp_path / "chsh.json"
    argv = ["chsh", "--n", "5000", "--dist", "fixed-axis(0,1,0)"]
    argv += ["--a1", "0", "--a2", "90", "--b1", "0", "--b2", "90", "--out", str(out)]
    assert cli.main(argv) == 0
    doc = json.loads(out.read_text())
    assert doc["statistic"] == -2.0
    assert doc["per_trial_min"] == doc["per_trial_max"] == -2


def test_chsh_identical_settings(tmp_path):
    out = tmp_path / "same.json"
    proc = run_cli(
        "chsh", "--seed", "4", "--n", "4000",
        "--a1", "30", "--a2", "30", "--b1", "30", "--b2", "30",
        "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["statistic"] == 2.0


def test_chsh_fresh_mode_fields(tmp_path):
    out = tmp_path / "fresh.json"
    proc = run_cli(
        "chsh", "--seed", "5", "--n", "10000", "--mode", "fresh",
        "--a1", "0", "--a2", "90", "--b1", "135", "--b2", "45",
        "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["mode"] == "fresh"
    assert "per_trial_min" not in doc and "combined_se" in doc
    assert "combined SE" in proc.stdout


def test_chsh_vector_settings_and_policies(tmp_path):
    out = tmp_path / "vec.json"
    proc = run_cli(
        "chsh", "--seed", "6", "--n", "2000",
        "--a1", "0,0,1", "--a2", "1,0,0", "--b1", "0.5,0.5,0.7071067811865476", "--b2", "45",
        "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr

    drawn = tmp_path / "drawn.json"
    proc = run_cli(
        "chsh", "--seed", "6", "--n", "2000", "--policy", "from-database", "--out", str(drawn)
    )
    assert proc.returncode == 0, proc.stderr
    assert abs(json.loads(drawn.read_text())["statistic"]) <= 2.0


_CANONICAL = ["--a1", "0", "--a2", "90", "--b1", "135", "--b2", "45"]
_POLICIES = [_CANONICAL, ["--policy", "from-database"], ["--policy", "uniform"]]


def test_reuse_chsh_at_one_worker_opens_no_pool(tmp_path, fork_recorder):
    fork_recorder.refuse = True
    for policy in _POLICIES:
        out = tmp_path / "chsh.json"
        assert cli.main(["chsh", "--n", "5000", *policy, "--workers", "1", "--out", str(out)]) == 0


def test_reuse_chsh_at_two_workers_opens_one_pool(tmp_path, fork_recorder):
    outputs = []
    for workers in ("2", "1"):
        out = tmp_path / f"chsh-w{workers}.json"
        argv = ["chsh", "--n", "5000", *_CANONICAL, "--workers", workers, "--out", str(out)]
        assert cli.main(argv) == 0
        outputs.append(out.read_bytes())
    assert fork_recorder.processes == [parallel._processes(2)]
    assert outputs[0] == outputs[1]


_ONE_POOL_COMMANDS = {
    "sweep": ["sweep", "--steps", "19"],
    "reuse-chsh": ["chsh", *_CANONICAL],
    "fresh-chsh": ["chsh", "--mode", "fresh", *_CANONICAL],
}


@pytest.mark.parametrize("command", list(_ONE_POOL_COMMANDS))
def test_each_command_opens_one_pool_at_two_workers_and_none_at_one(
    tmp_path, fork_recorder, command
):
    argv = [*_ONE_POOL_COMMANDS[command], "--n", str(parallel.MIN_PARALLEL_TRIALS)]
    fork_recorder.refuse = True
    assert cli.main([*argv, "--workers", "1", "--out", str(tmp_path / "w1")]) == 0
    assert fork_recorder.processes == []
    fork_recorder.refuse = False
    assert cli.main([*argv, "--workers", "2", "--out", str(tmp_path / "w2")]) == 0
    assert fork_recorder.processes == [parallel._processes(2)]
    assert (tmp_path / "w1").read_bytes() == (tmp_path / "w2").read_bytes()


def test_gen_db_opens_no_pool_at_one_or_two_workers(tmp_path, fork_recorder):
    # generated rows stream through the writer in this process at any --workers
    fork_recorder.refuse = True
    argv = ["gen-db", "--seed", "5", "--n", str(3 * parallel.MIN_PARALLEL_TRIALS)]
    for workers in ("1", "2"):
        assert cli.main([*argv, "--workers", workers, "--out", str(tmp_path / workers)]) == 0
    assert fork_recorder.processes == []
    assert (tmp_path / "1").read_bytes() == (tmp_path / "2").read_bytes()


def _replaced(tallies, *changes):
    """A copy of the tally vector with each (field constant, value) of ``changes`` set."""
    tallies = tallies.copy()
    for field, value in changes:
        tallies[field] = value
    return tallies


_SUM, _PM2 = chsh.TERM_SUM, chsh.TERM_PM2
_DEFECTS = {
    # one +2 term reported as 0, which no four signs can produce
    "zero-term": lambda t: _replaced(t, (_SUM, t[_SUM] - 2), (_PM2, t[_PM2] - 1)),
    # one term counted as not +-2 while the sum still matches the tallies
    "count-only": lambda t: _replaced(t, (_PM2, t[_PM2] - 1)),
}


@pytest.mark.parametrize("defect", list(_DEFECTS))
def test_chsh_defect_check_reads_the_counters(tmp_path, monkeypatch, capsys, defect):
    quad_tallies = chsh._quad_tallies

    def defective(cols, quad, dots):
        return _DEFECTS[defect](quad_tallies(cols, quad, dots))

    monkeypatch.setattr(chsh, "_quad_tallies", defective)
    out = tmp_path / "chsh.json"
    for mode in ("reuse", "fresh"):
        argv = ["chsh", "--n", "3000", *_CANONICAL, "--mode", mode, "--out", str(out)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "defect: per-trial identity violated" in err
        assert "all terms +-2: False" in err
        assert list(tmp_path.iterdir()) == []


def _defect_in_range(sets, quad, lo, hi):
    raise InvariantError(f"per-trial identity violated in trials [{lo}, {hi})")


def _killed_in_range(parent, sets, quad, lo, hi):
    if os.getpid() != parent:  # never the test's own process
        os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("failure", ["defect", "killed"])
def test_a_failure_in_a_worker_ends_the_command_with_one_line(
    tmp_path, monkeypatch, capsys, fork_recorder, failure
):
    n = parallel.MIN_PARALLEL_TRIALS
    processes = parallel._processes(2)
    if failure == "defect":
        lo, hi = parallel.chunk_ranges(n, parallel.RANGES_PER_WORKER * processes)[0]
        expected = f"defect: per-trial identity violated in trials [{lo}, {hi})"
        monkeypatch.setattr(chsh, "_range_tallies", _defect_in_range)
    else:
        expected = f"error: worker 0 of {processes} was killed by SIGKILL before sending its"
        expected += " results"
        killed = functools.partial(_killed_in_range, os.getpid())
        monkeypatch.setattr(chsh, "_range_tallies", killed)
    out = tmp_path / "chsh.json"
    argv = ["chsh", "--n", str(n), *_CANONICAL, "--workers", "2", "--out", str(out)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [expected]
    assert fork_recorder.processes == [processes] and not out.exists()


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("policy", _POLICIES)
def test_streamed_chsh_matches_the_database_composition(tmp_path, workers, policy):
    argv = ["chsh", "--seed", "12", "--n", "5000", "--dist", "cap(0.6,0,0.8,0.5)", *policy]
    out = tmp_path / "chsh.json"
    assert cli.main([*argv, "--workers", workers, "--out", str(out)]) == 0
    # the composition the command ran before it streamed its rows
    args = cli.build_parser().parse_args(argv)
    cfg = cli._config_from_args(args, default_out="chsh.json")
    db = generate_database(cfg.seed, cfg.distribution, cfg.n)
    quad = cli._quad_from_args(cfg, db)
    result = chsh_statistic(db, quad, "reuse")
    doc = result_summary(result, quad, seed=cfg.seed, distribution_tag=cfg.distribution.tag())
    assert out.read_text() == cli._dump_json(doc)


def test_search_banner_and_budget(tmp_path):
    out = tmp_path / "search.json"
    proc = run_cli(
        "search", "--seed", "8", "--n", "2000", "--budget", "50", "--out", str(out)
    )
    assert proc.returncode == 0, proc.stderr
    assert "bound respected: S_max = " in proc.stdout
    doc = json.loads(out.read_text())
    assert doc["budget"] == 50 and doc["statistic"] <= 2.0


def _inflated_tiles(f):
    def inflated(spins, *args):
        numerators, read = f(spins, *args)
        return numerators + len(spins) / 4, read

    return inflated


_SEARCH_DEFECTS = {
    # the tile evaluator ranks every candidate a quarter too high
    "_tile_numerators": _inflated_tiles,
    # the lattice's pair table does the same
    "_table_numerators": lambda f: lambda spins, *args: f(spins, *args) + len(spins) / 4,
    "_quad_tallies": lambda f: lambda *args: _DEFECTS["zero-term"](f(*args)),
}


@pytest.mark.parametrize("target", list(_SEARCH_DEFECTS))
def test_reuse_search_checks_its_best_quad_before_claiming_the_bound(
    tmp_path, monkeypatch, capsys, target
):
    monkeypatch.setattr(chsh, target, _SEARCH_DEFECTS[target](getattr(chsh, target)))
    argv = ["search", "--seed", "8", "--n", "2000", "--budget", "50"]
    assert cli.main([*argv, "--out", str(tmp_path / "search.json")]) == 1
    captured = capsys.readouterr()
    assert "defect: " in captured.err
    assert "bound respected" not in captured.out
    assert list(tmp_path.iterdir()) == []


def test_reuse_search_tallies_its_best_quad_once(tmp_path, monkeypatch):
    # the re-evaluation that checks the identity is the only tally of the winner
    calls, quad_tallies = [], chsh._quad_tallies
    monkeypatch.setattr(chsh, "_quad_tallies", lambda *args: calls.append(1) or quad_tallies(*args))
    argv = ["search", "--seed", "8", "--n", "2000", "--budget", "50"]
    assert cli.main([*argv, "--out", str(tmp_path / "search.json")]) == 0
    assert len(calls) == 1


_DIGESTS = Path(__file__).resolve().parents[1] / "bench" / "digests.json"
# the argv of each workload of bench/run.py (its WORKLOADS), whose artifacts at
# the default seed 0 have the sha256 recorded in bench/digests.json
_BENCHMARK_ARGV = {
    "sweep": ["sweep", "--n", "100000", "--steps", "181"],
    "search": ["search", "--n", "10000", "--budget", "1000", "--mode", "reuse"],
    "chsh": [
        "chsh", "--n", "1000000", "--a1", "0", "--a2", "90", "--b1", "135", "--b2", "45",
        "--dist", "mixture(0.5:uniform-sphere;0.5:cap(0,0,1,0.8))",
    ],
    "gendb": ["gen-db", "--n", "100000"],
}


def _benchmark_digest(tmp_path, workload, workers):
    # the sha256 of the benchmark workload's artifact at its default seed
    out = tmp_path / "artifact"
    argv = [*_BENCHMARK_ARGV[workload], "--seed", "0", "--workers", workers, "--out", str(out)]
    assert cli.main(argv) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_benchmark_search_matches_its_recorded_digest(tmp_path, workers):
    expected = json.loads(_DIGESTS.read_text())["search"]
    assert _benchmark_digest(tmp_path, "search", workers) == expected


def test_benchmark_search_reads_no_row_of_its_random_and_refinement_candidates(tmp_path, capsys):
    # the lattice reaches S = 2 with a1 = +x, the greatest first key, so the
    # bound drops all 743 later candidates before they read a row
    expected = json.loads(_DIGESTS.read_text())["search"]
    assert _benchmark_digest(tmp_path, "search", "1") == expected
    captured = capsys.readouterr()
    assert captured.err == (
        "search: 743 of 743 random and refinement candidates dropped before reading a row, "
        "0 tallied in full, 0 of 7430000 rows read (0.00%)\n"
    )
    # stdout is as it was
    assert captured.out == (
        f"search: wrote {tmp_path / 'artifact'} (budget=1000, mode=reuse, workers=1)\n"
        "bound respected: S_max = 2 ≤ 2\n"
    )


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("workload", ["sweep", "chsh", "gendb"])
def test_benchmark_workload_matches_its_recorded_digest(tmp_path, workload, workers):
    expected = json.loads(_DIGESTS.read_text())[workload]
    assert _benchmark_digest(tmp_path, workload, workers) == expected


_MIXTURE = "mixture(0.5:uniform-sphere;0.5:cap(0,0,1,0.8))"
# sha256 of fresh-mode artifacts at seed 0, the bytes bellsim wrote when fresh
# mode still tallied its four trial sets with int8 station signs
_FRESH_DIGESTS = {
    "chsh": (
        ["chsh", "--n", "20011", "--a1", "0", "--a2", "90", "--b1", "135", "--b2", "45"],
        "2844e0a79d589016c180c9587551b4d9f323d2236434ec944ccd2002e80140da",
    ),
    "search": (
        ["search", "--n", "500", "--budget", "60"],
        "a216bafc630eba58c9f48e67105ac0f33af657e26d5ee69557bca9501c536c82",
    ),
}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("command", list(_FRESH_DIGESTS))
def test_fresh_mode_artifacts_match_their_recorded_digests(tmp_path, command, workers):
    argv, expected = _FRESH_DIGESTS[command]
    out = tmp_path / "fresh.json"
    argv = [*argv, "--mode", "fresh", "--seed", "0", "--dist", _MIXTURE, "--workers", workers]
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected


# sha256 of reuse searches on either side of the lattice's first size, g = 2 at budget
# 49, the bytes bellsim wrote when it still measured a pair table of no directions
_SMALL_SEARCH_DIGESTS = {
    1: "e6601339f4584497d580ac69cc52076424007c5187d95f28e5948f77e8d665fb",
    48: "b3cccf3d3348081004df6c2d1e4045dafc5e24e156b79f9e8150f2e52c02e388",
    49: "482bb4475878bb98d2f953962e3cf628a5126068db6e903ab238041eda324e49",
}


@pytest.mark.parametrize("budget", list(_SMALL_SEARCH_DIGESTS))
def test_a_search_measures_a_pair_table_only_for_a_lattice(tmp_path, monkeypatch, budget):
    groups, tables = [], []
    readings, table = chsh.experiment.station_readings, chsh._table_numerators
    monkeypatch.setattr(
        chsh.experiment, "station_readings",
        lambda s, a, b, *dots: groups.append((len(a), len(b))) or readings(s, a, b, *dots),
    )
    monkeypatch.setattr(
        chsh, "_table_numerators", lambda spins, a, *rest: tables.append(len(a)) or table(spins, a, *rest)
    )
    out = tmp_path / "search.json"
    argv = ["search", "--seed", "8", "--n", "2000", "--budget", str(budget), "--dist", _MIXTURE]
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _SMALL_SEARCH_DIGESTS[budget]
    # the lattice's table over its g = 2 directions, if any, then the winner's check
    assert tables == ([2, 2] if budget == 49 else [2])
    assert min(min(sizes) for sizes in groups) >= 1


# rows generated and generator calls (``experiment._trial_keys``) of each command at
# its worker count: a change of the work a command does shows here, whatever the
# host's speed. A range is generated _BLOCK_ROWS keys per call, so the search's
# 200 000 trials take 4 calls; at 2 workers each of chsh's 8 ranges takes one
_WORK = {
    "sweep": (["sweep", "--n", "10000"], 1, 10_000, 1),
    "reuse-chsh": (["chsh", "--n", "10000", *_CANONICAL], 1, 10_000, 1),
    "reuse-chsh-2-workers": (["chsh", "--n", "10000", *_CANONICAL], 2, 10_000, 8),
    "from-database-chsh": (["chsh", "--n", "10000", "--policy", "from-database"], 1, 10_004, 5),
    "fresh-chsh": (["chsh", "--n", "10000", "--mode", "fresh", *_CANONICAL], 1, 40_000, 4),
    "reuse-search": (["search", "--n", "10000", "--budget", "1000"], 1, 10_000, 1),
    "long-reuse-search": (["search", "--n", "200000", "--budget", "16"], 1, 200_000, 4),
    "fresh-search": (
        ["search", "--n", "1000", "--budget", "1000", "--mode", "fresh"], 1, 3_004_000, 3_004
    ),
    "gen-db": (["gen-db", "--n", "10000"], 1, 10_000, 3),
}


@pytest.mark.parametrize("command", list(_WORK))
def test_each_command_generates_its_pinned_rows_in_its_pinned_calls(tmp_path, monkeypatch, command):
    argv, workers, rows, calls = _WORK[command]
    # every process, forked workers included, appends each call's row count to one file
    log, trial_keys = tmp_path / "calls.txt", experiment._trial_keys

    def counted(seed, lo, hi, *scratch):
        with open(log, "a") as f:
            f.write(f"{hi - lo}\n")
        return trial_keys(seed, lo, hi, *scratch)

    monkeypatch.setattr(experiment, "_trial_keys", counted)
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert cli.main([*argv, "--workers", str(workers), "--out", str(tmp_path / "out")]) == 0
    counts = [int(line) for line in log.read_text().split()]
    assert (sum(counts), len(counts)) == (rows, calls)


# sha256 of the JSON sweep at seed 0, the bytes bellsim wrote when its CSV writer
# and its JSON summary each spelled out the nine columns
_SWEEP_JSON_DIGEST = "721c80c4b6c467385440e51ccdb40bb7827f22c8360cf724b4a8eb48216b56b8"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_json_matches_its_recorded_digest(tmp_path, workers):
    out = tmp_path / "sweep.json"
    argv = ["sweep", "--n", "5000", "--steps", "19", "--format", "json", "--seed", "0"]
    assert cli.main([*argv, "--workers", workers, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _SWEEP_JSON_DIGEST


@pytest.mark.parametrize(
    "seed,n,budget,capped",
    [(15, 400, 3, False), (0, 100, 60, True)],  # budget * bound about 0.26, and past 1
)
def test_fresh_search_prints_the_union_bound_on_stderr(tmp_path, capsys, seed, n, budget, capped):
    out = tmp_path / "fresh.json"
    argv = ["search", "--seed", str(seed), "--n", str(n), "--mode", "fresh"]
    argv += ["--budget", str(budget)]
    assert cli.main([*argv, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    doc = json.loads(out.read_text())
    bound = doc["excess_hoeffding_bound"]
    assert doc["excess_over_2"] > 0.0 and (budget * bound > 1.0) == capped
    union = 1.0 if capped else budget * bound
    assert captured.err == f"search: over all {budget} candidates (union bound): {union:.3e}\n"
    # stdout is as it was
    assert captured.out == (
        f"search: wrote {out} (budget={budget}, mode=fresh, workers=1)\n"
        f"search: S_max = {doc['statistic']:.10g} (fresh mode, n={n})\n"
        f"search: excess over 2 is {doc['excess_over_2']:.6f}; "
        f"Hoeffding bound for a fluctuation this large: {bound:.3e}\n"
    )


def test_sweep_checks_exact_anticorrelation_where_b_equals_a(tmp_path, monkeypatch, capsys):
    argv = ["sweep", "--n", "1000", "--steps", "3", "--dist", "fixed-axis(1,0,0)"]
    # every trial is a tie at theta = 0 here, and count_pos == tie_count holds
    assert cli.main([*argv, "--out", str(tmp_path / "clean.csv")]) == 0
    pair_tallies = correlation.pair_tallies

    def defective(source, pairs, workers=1):
        (count_pos, ties), *rest = pair_tallies(source, pairs, workers)
        return [(count_pos - 1, ties), *rest]

    monkeypatch.setattr(correlation, "pair_tallies", defective)
    out = tmp_path / "sweep.csv"
    assert cli.main([*argv, "--out", str(out)]) == 1
    assert "defect: b equals a at theta = 0.0" in capsys.readouterr().err
    assert not out.exists()


def test_search_fresh_reports_excess_bound(tmp_path):
    out = tmp_path / "fresh-search.json"
    proc = run_cli(
        "search", "--seed", "9", "--n", "100", "--mode", "fresh", "--budget", "1000",
        "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["statistic"] <= 2.0 + 4 * math.sqrt(4 / 100)
    assert doc["excess_over_2"] == max(0.0, doc["statistic"] - 2.0)
    if doc["excess_over_2"] > 0:
        assert 0.0 < doc["excess_hoeffding_bound"] <= 1.0
        assert "Hoeffding bound" in proc.stdout


def test_sweep_with_defaults_hits_linear_law(tmp_path):
    # all defaults: n = 1e6, 181 grid points over [0, 180] degrees
    out = tmp_path / "default.csv"
    proc = run_cli("sweep", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert len(lines) == 2 + 181
    summary = [l for l in proc.stdout.splitlines() if "max |E_hat - E_linear|" in l][0]
    dev = float(summary.split("max |E_hat - E_linear| = ")[1].split(";")[0])
    assert dev <= 0.005


def test_enumerate_output():
    proc = run_cli("enumerate")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert len([l for l in lines if l.strip().startswith(("+1", "-1"))]) == 16
    assert lines[-1] == "max=+2 min=-2"


@pytest.mark.parametrize(
    "args,needle",
    [
        (["sweep", "--steps", "0"], "--steps"),
        (["sweep", "--n", "0"], "--n"),
        (["sweep", "--seed", "-1"], "--seed"),
        (["sweep", "--theta-start", "20", "--theta-stop", "10"], "--theta-stop"),
        (["sweep", "--dist", "donut(1)"], "distribution"),
        (["sweep", "--workers", "0"], "--workers"),
        (["chsh", "--policy", "fixed"], "--a1"),
        (["chsh", "--policy", "from-database", "--a1", "10"], "policy"),
        (["search", "--budget", "0"], "--budget"),
    ],
)
def test_invalid_configs_fail_fast(tmp_path, args, needle):
    # later flags win in argparse, so the case-specific bad value survives
    proc = run_cli(args[0], "--n", "10", *args[1:], "--out", str(tmp_path / "x"))
    assert proc.returncode == 2
    assert needle in proc.stderr
    assert not (tmp_path / "x").exists()


def test_a_mixture_nested_too_deep_is_one_error_line(tmp_path):
    # 340 levels once overflowed Python's recursion limit into a traceback
    out = tmp_path / "chsh.json"
    dist = "mixture(1:" * 340 + "uniform-sphere" + ")" * 340
    proc = run_cli("chsh", "--n", "10", "--dist", dist, *_CANONICAL, "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: distribution spec nests mixtures more than 32 deep"]
    assert not out.exists()


def test_auto_workers_count_the_cpus_this_process_may_use(tmp_path, monkeypatch, fork_recorder):
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert parallel.resolve_workers("auto") == 1
    assert parallel._processes(8) == 1
    fork_recorder.refuse = True
    argv = ["chsh", "--n", "5000", *_CANONICAL, "--workers", "auto", "--out", str(tmp_path / "a")]
    assert cli.main(argv) == 0
    assert fork_recorder.processes == []


# runs each command through cli.main in one fresh process and prints, after each,
# how many row-kernel table sets that process has built
_TABLES_PROBE = """
import json, sys
from bellsim import cli
from bellsim.experiment import _kernel_tables
built = []
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
    built.append([argv[0], _kernel_tables.cache_info().currsize])
print(json.dumps(built))
"""


def test_only_gen_db_builds_the_row_kernel_tables(tmp_path):
    out = ["--out", str(tmp_path / "artifact")]
    commands = [
        ["chsh", "--n", "300", "--a1", "0", "--a2", "90", "--b1", "135", "--b2", "45", *out],
        ["sweep", "--n", "300", "--steps", "5", *out],
        ["search", "--n", "300", "--budget", "20", *out],
        ["enumerate"],
        ["gen-db", "--n", "300", *out],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _TABLES_PROBE, json.dumps(commands)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [
        ["chsh", 0], ["sweep", 0], ["search", 0], ["enumerate", 0], ["gen-db", 1]
    ]


@pytest.mark.parametrize(
    "dist,n",
    [("uniform-sphere", 3 * _WRITE_BLOCK_ROWS + 17), ("fixed-axis(1e-5,0,1)", 50), ("cap(0,0,1,0.5)", 40)],
)
def test_gen_db_counts_its_row_format_rows_on_stderr_only(tmp_path, capsys, dist, n):
    out = tmp_path / "db.txt"
    assert cli.main(["gen-db", "--seed", "3", "--n", str(n), "--dist", dist, "--out", str(out)]) == 0
    db = generate_database(3, parse_distribution(dist), n)
    mag = np.abs(db.spins)
    outside = int((~((mag == 0.0) | ((mag >= 1e-4) & (mag <= 1.0)))).any(axis=1).sum())
    assert outside == {"uniform-sphere": 6, "fixed-axis(1e-5,0,1)": n, "cap(0,0,1,0.5)": 0}[dist]
    captured = capsys.readouterr()
    assert captured.err == f"gen-db: {outside} of {n} rows outside the row kernel's domain\n"
    assert captured.out == (
        f"gen-db: wrote {out} (n={n}, seed=3, dist={db.distribution.tag()}, workers=1)\n"
    )
    per_row = io.StringIO()
    write_database_per_row(db, per_row)
    assert first_line_difference(out.read_text(), per_row.getvalue()) is None


def test_directions_with_overflowing_squares_are_normalized_and_non_finite_ones_named(tmp_path):
    def run(*argv):
        out = tmp_path / "artifact"
        assert cli.main([*argv, "--n", "200", "--out", str(out)]) == 0
        return out.read_bytes()

    quad = ["--a2", "90", "--b1", "135", "--b2", "45"]
    assert run("chsh", "--a1", "1e308,1e308,0", *quad) == run("chsh", "--a1", "1,1,0", *quad)
    assert run("gen-db", "--dist", "fixed-axis(1e308,1e308,0)") == run(
        "gen-db", "--dist", "fixed-axis(1,1,0)"
    )
    for argv, needle in [
        (["chsh", "--a1", "nan,0,1", *quad], "--a1: bad direction 'nan,0,1'"),
        (["gen-db", "--dist", "fixed-axis(0,-inf,1)"], "bad distribution spec 'fixed-axis(0,-inf,1)'"),
        (["sweep", "--plane", "1,0,0;0,nan,0"], "--plane: bad direction '0,nan,0'"),
    ]:
        proc = run_cli(*argv, "--n", "10", "--out", str(tmp_path / "x"))
        assert proc.returncode == 2
        assert needle in proc.stderr and "non-finite" in proc.stderr
        assert "(0.0, 0.0, 0.0)" not in proc.stderr
        assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
@pytest.mark.parametrize("command", ["gen-db", "chsh"])
def test_an_artifact_gets_the_mode_of_a_new_file_under_the_umask(
    tmp_path, command, umask, mode, existing
):
    # the temp file it is renamed from is made 0600, whatever the umask
    out = tmp_path / "artifact"
    if existing:
        out.write_text("old\n")
        out.chmod(0o640)
    settings = _CANONICAL if command == "chsh" else []
    previous = os.umask(umask)
    try:
        assert cli.main([command, "--n", "100", *settings, "--out", str(out)]) == 0
    finally:
        os.umask(previous)
    assert stat.S_IMODE(out.stat().st_mode) == mode


def test_unwritable_output_leaves_no_partial_file(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a plain file, not a directory\n")
    target = blocker / "out.csv"
    proc = run_cli("sweep", "--seed", "1", "--n", "10", "--steps", "3", "--out", str(target))
    assert proc.returncode == 1
    assert "error:" in proc.stderr
    assert list(tmp_path.iterdir()) == [blocker]


class _FailingHandle:
    """Passes writes through to a file handle until the ``fail_at``-th, which raises."""

    def __init__(self, handle, fail_at, error):
        self.handle, self.fail_at, self.error, self.calls = handle, fail_at, error, 0

    def write(self, text):
        self.calls += 1
        if self.calls == self.fail_at:
            self.handle.flush()  # the rows written so far reach the temp file
            raise self.error
        return self.handle.write(text)


@pytest.mark.parametrize("error", [OSError("no space left on device"), KeyboardInterrupt()])
@pytest.mark.parametrize("existing", [False, True])
def test_gen_db_failing_partway_leaves_no_artifact(tmp_path, monkeypatch, capsys, error, existing):
    out = tmp_path / "db.txt"
    if existing:
        out.write_text("an earlier artifact\n")
    write_database = cli.write_database
    handles = []

    def write_then_fail(db, handle):
        # the header, then one full block of rows, then the failure
        handles.append(_FailingHandle(handle, 3, error))
        write_database(db, handles[-1])

    monkeypatch.setattr(cli, "write_database", write_then_fail)
    argv = ["gen-db", "--n", str(2 * _WRITE_BLOCK_ROWS), "--out", str(out)]
    if isinstance(error, OSError):
        assert cli.main(argv) == 1
        assert "error: no space left on device" in capsys.readouterr().err
    else:
        with pytest.raises(KeyboardInterrupt):
            cli.main(argv)
    assert handles[0].calls == 3
    assert list(tmp_path.iterdir()) == ([out] if existing else [])
    if existing:
        assert out.read_text() == "an earlier artifact\n"


@pytest.mark.parametrize("command", ["search", "gen-db"])
def test_out_of_memory_is_an_error_line_and_leaves_no_artifact(
    tmp_path, monkeypatch, capsys, command
):
    # stands in for a size too large for the machine, which no test asks for for real
    error = MemoryError("Unable to allocate 7.28 TiB for an array with shape (333333333333, 3)")

    def exhausted(*args):
        raise error

    if command == "search":
        monkeypatch.setattr(cli, "generate_database", exhausted)
    else:  # the header and one block of rows reach the temp file first
        write_database = cli.write_database

        def write_then_fail(db, handle):
            write_database(db, _FailingHandle(handle, 3, error))

        monkeypatch.setattr(cli, "write_database", write_then_fail)
    argv = [command, "--n", str(2 * _WRITE_BLOCK_ROWS), "--out", str(tmp_path / "artifact")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: out of memory: {error}\n"
    assert list(tmp_path.iterdir()) == []


def test_every_name_in_all_resolves_on_the_package():
    # a stale __all__ entry fails only on a star import, which nothing else runs
    import bellsim

    assert sorted(set(bellsim.__all__)) == sorted(bellsim.__all__)
    assert [name for name in bellsim.__all__ if not hasattr(bellsim, name)] == []
    namespace = {}
    exec("from bellsim import *", namespace)
    assert set(bellsim.__all__) <= set(namespace)
