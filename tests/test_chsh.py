"""CHSH statistic, per-trial identity, strategy enumeration, search."""

import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellsim import (
    CANONICAL_QUAD,
    Cap,
    ChshResult,
    ConfigurationError,
    FixedAxis,
    GeneratedTrials,
    InvariantError,
    Mixture,
    SettingQuad,
    UniformSphere,
    UnitVector,
    angle_between,
    chsh_statistic,
    direction_at_angle,
    enumerate_deterministic_strategies,
    estimate_correlation,
    generate_database,
    parse_distribution,
    per_trial_terms,
    reference_singlet,
    result_summary,
    search_max_chsh,
    standard_combination,
)
from bellsim import chsh, cli, correlation, experiment, geometry, parallel
from bellsim.chsh import (
    N,
    POS,
    TALLY_SIZE,
    TERM_PM2,
    TERM_SUM,
    TIES,
    _best,
    _perturbed_quads,
    _quad_rows,
    _quad_tallies,
    _range_tallies,
    _table_numerators,
    _tile_numerators,
    result_from_tallies,
    streamed_tallies,
)
from bellsim.geometry import X_AXIS, Y_AXIS, Z_AXIS
from bellsim.rng import root_stream

import oracles
from oracles import brute_force_terms, random_unit


def _random_quad(rng) -> SettingQuad:
    return SettingQuad(random_unit(rng), random_unit(rng), random_unit(rng), random_unit(rng))


def _random_distribution(rng):
    kind = rng.integers(0, 4)
    if kind == 0:
        return UniformSphere()
    if kind == 1:
        return FixedAxis(random_unit(rng))
    if kind == 2:
        return Cap(random_unit(rng), float(rng.uniform(0.05, math.pi)))
    w = float(rng.uniform(0.1, 0.9))
    return Mixture(((w, UniformSphere()), (1.0 - w, FixedAxis(random_unit(rng)))))


# -- per-trial identity -----------------------------------------------------


def _check_terms(db, quad):
    terms = per_trial_terms(db, quad)
    assert terms.tolist() == brute_force_terms(db, quad)
    assert set(np.unique(terms).tolist()) <= {-2, 2}
    result = chsh_statistic(db, quad, "reuse")
    assert int(terms.sum()) / db.n == result.statistic
    assert result.per_trial_min == int(terms.min())
    assert result.per_trial_max == int(terms.max())
    assert -2.0 <= result.statistic <= 2.0


def test_terms_match_oracle_and_mean_equals_statistic():
    rng = np.random.default_rng(50)
    for i in range(30):
        db = generate_database(int(rng.integers(0, 2**32)), _random_distribution(rng), 211)
        _check_terms(db, _random_quad(rng))
    # ties: axis spins, signed zeros included, against axis quads give exact zero
    # dots at both stations; no n is a multiple of 8, so packed bytes carry padding
    axes = [X_AXIS, Y_AXIS, Z_AXIS, X_AXIS.negated(), Y_AXIS.negated(), Z_AXIS.negated()]
    tags = ["fixed-axis(-0,-1,-0)", "mixture(0.5:fixed-axis(-0,-1,-0);0.5:fixed-axis(1,0,0))"]
    for tag in tags:
        for n in (1, 13, 211):
            db = generate_database(n, parse_distribution(tag), n)
            for _ in range(8):
                _check_terms(db, SettingQuad(*(axes[i] for i in rng.integers(0, 6, 4))))


def test_statistic_equals_correlation_combination():
    rng = np.random.default_rng(51)
    for i in range(10):
        db = generate_database(7000 + i, UniformSphere(), 997)
        quad = _random_quad(rng)
        r = chsh_statistic(db, quad, "reuse")
        combo = r.e11.value - r.e12.value - r.e22.value - r.e21.value
        assert r.statistic == pytest.approx(combo, abs=1e-12)


def test_identical_settings_quad_saturates_positive_bound():
    db = generate_database(52, UniformSphere(), 5000)
    a = random_unit(np.random.default_rng(1))
    quad = SettingQuad(a, a, a, a)
    r = chsh_statistic(db, quad, "reuse")
    for e in (r.e11, r.e12, r.e21, r.e22):
        assert e.value == -1.0 and e.tie_count == 0
    assert r.statistic == 2.0
    assert r.per_trial_min == r.per_trial_max == 2


@pytest.mark.parametrize("workers", [1, 2])
def test_spins_orthogonal_to_every_setting_pin_every_trial_at_minus_two(fork_recorder, workers):
    # spins on +y against settings in the x-z plane: every dot is 0 and reads +1, so
    # every term x1*(y1 - y2) - x2*(y2 + y1) is -2, the only case of a greatest term -2
    n = 2 * parallel.MIN_PARALLEL_TRIALS  # enough trials for the forked map at 2 workers
    quad = SettingQuad.from_plane_angles(0.0, math.pi / 2, 0.0, math.pi / 2)
    r = chsh_statistic(GeneratedTrials(6, FixedAxis(Y_AXIS), n), quad, workers=workers)
    assert r.statistic == -2.0
    assert r.per_trial_min == r.per_trial_max == -2
    assert all(e.tie_count == n for e in (r.e11, r.e12, r.e21, r.e22))
    assert fork_recorder.processes == ([] if workers == 1 else [parallel._processes(2)])


def test_canonical_quad_pins_every_trial_at_plus_two():
    # this quad makes the per-trial term identically +2, so S = 2 exactly
    db = generate_database(53, UniformSphere(), 100_000)
    r = chsh_statistic(db, CANONICAL_QUAD, "reuse")
    assert r.statistic == 2.0
    assert (r.per_trial_min, r.per_trial_max) == (2, 2)
    # the four correlations sit near the linear-law values +-1/2
    assert r.e11.value == pytest.approx(0.5, abs=0.02)
    for e in (r.e12, r.e21, r.e22):
        assert e.value == pytest.approx(-0.5, abs=0.02)


def test_large_uniform_database_canonical_statistic():
    db = generate_database(42, UniformSphere(), 1_000_000)
    r = chsh_statistic(db, CANONICAL_QUAD, "reuse")
    assert r.statistic == pytest.approx(2.0, abs=0.01)


def test_reuse_worker_invariance():
    db = generate_database(54, UniformSphere(), 40_000)
    quad = _random_quad(np.random.default_rng(2))
    assert chsh_statistic(db, quad, "reuse", workers=1) == chsh_statistic(
        db, quad, "reuse", workers=8
    )


def _replaced(tallies, *changes):
    """A copy of the tally vector with each (field constant, value) of ``changes`` set."""
    tallies = tallies.copy()
    for field, value in changes:
        tallies[field] = value
    return tallies


_DEFECTS = {
    # one +2 term reported as 0, which no four signs can produce
    "zero-term": lambda t: _replaced(t, (TERM_SUM, t[TERM_SUM] - 2), (TERM_PM2, t[TERM_PM2] - 1)),
    # one term counted as not +-2 while the sum still matches the tallies
    "count-only": lambda t: _replaced(t, (TERM_PM2, t[TERM_PM2] - 1)),
}


def _defective_quad_tallies(defect):
    quad_tallies = chsh._quad_tallies
    return lambda cols, quad, dots: _DEFECTS[defect](quad_tallies(cols, quad, dots))


@pytest.mark.parametrize("defect", list(_DEFECTS))
@pytest.mark.parametrize(
    "mode,stored",
    [
        pytest.param("reuse", False, id="False"),
        pytest.param("reuse", True, id="True"),
        pytest.param("fresh", False, id="fresh-False"),
        pytest.param("fresh", True, id="fresh-True"),
    ],
)
def test_reuse_statistic_raises_when_the_tallies_break_the_identity(
    monkeypatch, defect, mode, stored
):
    # fresh mode checks each of its four trial sets as reuse mode checks its one
    trials = GeneratedTrials(3, UniformSphere(), 3000)
    source = generate_database(3, UniformSphere(), 3000) if stored else trials
    monkeypatch.setattr(chsh, "_quad_tallies", _defective_quad_tallies(defect))
    with pytest.raises(InvariantError, match=r"per-trial identity violated \(all terms \+-2: False"):
        chsh_statistic(source, CANONICAL_QUAD, mode, root_stream(3))


# one trial whose term is +2: T11 = T12 = +1, T21 = T22 = -1
_ONE_TRIAL = _replaced(
    np.zeros(TALLY_SIZE, dtype=np.int64), (N, 1), (POS, (1, 1, 0, 0)), (TERM_SUM, 2), (TERM_PM2, 1)
)


@pytest.mark.parametrize(
    "broken",
    [
        _replaced(_ONE_TRIAL, (TERM_PM2, 0)),  # the term counted as not +-2
        _replaced(_ONE_TRIAL, (TERM_SUM, -2)),  # a +-2 term whose sum is not the tallies'
        # tallies and sum agree at 4 > 2n, though the one term counts as +-2
        _replaced(_ONE_TRIAL, (POS, (1, 0, 0, 0)), (TERM_SUM, 4)),
    ],
    ids=["not-pm2", "sum-off-the-tallies", "beyond-2n"],
)
def test_each_clause_of_the_identity_check_rejects_tallies_on_its_own(broken):
    assert result_from_tallies(_ONE_TRIAL).statistic == 2.0
    with pytest.raises(InvariantError, match="per-trial identity violated"):
        result_from_tallies(broken)


# -- strategy enumeration ---------------------------------------------------


def test_enumeration_exhausts_sixteen_strategies():
    enum = enumerate_deterministic_strategies()
    assert enum.max == 2 and enum.min == -2
    assert len(enum.table) == 16
    assert len(set(r[:4] for r in enum.table)) == 16
    terms = [r[4] for r in enum.table]
    assert terms.count(2) == 8 and terms.count(-2) == 8
    for x1, x2, y1, y2, term in enum.table:
        assert term == x1 * y1 - x1 * y2 - x2 * y2 - x2 * y1
    # the two spot checks: all-plus gives -2, alternating gives +2
    assert dict(((r[0], r[1], r[2], r[3]), r[4]) for r in enum.table)[(1, 1, 1, 1)] == -2
    assert dict(((r[0], r[1], r[2], r[3]), r[4]) for r in enum.table)[(1, -1, 1, -1)] == 2


def test_standard_convention_bridge():
    rng = np.random.default_rng(3)
    for i in range(8):
        db = generate_database(900 + i, UniformSphere(), 501)
        quad = _random_quad(rng)
        ours = chsh_statistic(db, quad, "reuse")
        relabeled = SettingQuad(a1=quad.a2, a2=quad.a1, b1=quad.b2, b2=quad.b1)
        r = chsh_statistic(db, relabeled, "reuse")
        std = standard_combination(r.e11.value, r.e12.value, r.e21.value, r.e22.value)
        assert std == pytest.approx(-ours.statistic, abs=1e-12)


# -- fresh mode -------------------------------------------------------------


def test_fresh_mode_contract():
    db = generate_database(60, UniformSphere(), 2000)
    with pytest.raises(ConfigurationError):
        chsh_statistic(db, CANONICAL_QUAD, "fresh")
    with pytest.raises(ConfigurationError):
        chsh_statistic(db, CANONICAL_QUAD, "sideways", root_stream(0))
    r = chsh_statistic(db, CANONICAL_QUAD, "fresh", root_stream(60, 3))
    assert r.mode == "fresh"
    assert r.per_trial_min is None and r.per_trial_max is None
    assert r.combined_se > 0.0
    # deterministic given the stream state
    again = chsh_statistic(db, CANONICAL_QUAD, "fresh", root_stream(60, 3))
    assert again == r
    # statistic assembled from the four tallies with one division
    numer = (
        (r.e11.count_pos - r.e11.count_neg)
        - (r.e12.count_pos - r.e12.count_neg)
        - (r.e22.count_pos - r.e22.count_neg)
        - (r.e21.count_pos - r.e21.count_neg)
    )
    assert r.statistic == numer / db.n


@pytest.mark.parametrize(
    "seed,dist",
    [(0, UniformSphere()), (5, Mixture(((0.5, Cap(Y_AXIS, 0.8)), (0.5, FixedAxis(X_AXIS)))))],
)
def test_fresh_statistic_matches_the_database_composition(seed, dist):
    n = parallel.MIN_PARALLEL_TRIALS + 3  # two workers open a pool
    db = generate_database(seed, dist, n)
    quad = SettingQuad(Z_AXIS, X_AXIS, direction_at_angle(2.0), Y_AXIS)
    # the reference composition: three more databases, then four estimates
    stream = root_stream(seed, 3)
    db12, db21, db22 = (generate_database(stream.raw(), dist, n) for _ in range(3))
    e11 = estimate_correlation(db, quad.a1, quad.b1)
    e12 = estimate_correlation(db12, quad.a1, quad.b2)
    e21 = estimate_correlation(db21, quad.a2, quad.b1)
    e22 = estimate_correlation(db22, quad.a2, quad.b2)
    numerator = sum(
        sign * (e.count_pos - e.count_neg) for sign, e in ((1, e11), (-1, e12), (-1, e22), (-1, e21))
    )
    expected = ChshResult(e11, e12, e21, e22, numerator / n, "fresh", n)
    for source in (db, GeneratedTrials(seed, dist, n)):
        for workers in (1, 2):
            result = chsh_statistic(source, quad, "fresh", root_stream(seed, 3), workers=workers)
            assert result == expected


def test_fresh_mode_breaks_the_per_trial_pin():
    # at the canonical quad, reuse is exactly 2; fresh fluctuates around 2
    values = []
    for seed in range(30):
        db = generate_database(3000 + seed, UniformSphere(), 2000)
        r = chsh_statistic(db, CANONICAL_QUAD, "fresh", root_stream(3000 + seed, 3))
        values.append(r.statistic)
    assert any(v != 2.0 for v in values)
    assert max(values) <= 2.0 + 4 * math.sqrt(4 / 2000)
    assert abs(sum(values) / len(values) - 2.0) < 0.02


# -- search -----------------------------------------------------------------


def test_budget_one_evaluates_the_initial_quad():
    db = generate_database(70, UniformSphere(), 1500)
    best, quad = search_max_chsh(db, "reuse", 1, root_stream(70, 4))
    assert quad == CANONICAL_QUAD
    assert best == chsh_statistic(db, CANONICAL_QUAD, "reuse")
    fixed = SettingQuad(X_AXIS, Y_AXIS, Z_AXIS, X_AXIS)
    best2, quad2 = search_max_chsh(db, "reuse", 1, root_stream(70, 4), initial=fixed)
    assert quad2 == fixed
    assert best2 == chsh_statistic(db, fixed, "reuse")
    with pytest.raises(ConfigurationError):
        search_max_chsh(db, "reuse", 0, root_stream(70, 4))


def test_search_respects_bound_on_any_distribution():
    db = generate_database(71, UniformSphere(), 1000)
    best, _ = search_max_chsh(db, "reuse", 500, root_stream(71, 4))
    assert best.statistic <= 2.0
    axis_db = generate_database(72, FixedAxis(Z_AXIS), 1000)
    best_axis, _ = search_max_chsh(axis_db, "reuse", 1000, root_stream(72, 4))
    assert best_axis.statistic <= 2.0


def test_search_is_deterministic_and_worker_invariant():
    db = generate_database(73, UniformSphere(), 1200)
    first = search_max_chsh(db, "reuse", 260, root_stream(73, 4))
    second = search_max_chsh(db, "reuse", 260, root_stream(73, 4))
    assert first == second
    parallel_run = search_max_chsh(db, "reuse", 260, root_stream(73, 4), workers=4)
    assert parallel_run == first


def test_reuse_search_opens_no_process_pool(tmp_path, fork_recorder):
    fork_recorder.refuse = True
    db = generate_database(75, UniformSphere(), 5000)
    best, quad = search_max_chsh(db, "reuse", 200, root_stream(75, 4), workers=2)
    assert best == chsh_statistic(db, quad, "reuse")
    # the command also generates its database in this process
    n = str(parallel.MIN_PARALLEL_TRIALS)
    argv = ["search", "--n", n, "--budget", "50", "--workers", "2", "--out", str(tmp_path / "s")]
    assert cli.main(argv) == 0
    assert fork_recorder.processes == []


# coordinate axes give exact zero dot products against axis-aligned spins
_AXES = [X_AXIS, Y_AXIS, Z_AXIS, X_AXIS.negated(), Y_AXIS.negated(), Z_AXIS.negated()]
_units = st.one_of(
    st.sampled_from(_AXES),
    st.tuples(*[st.floats(-1.0, 1.0)] * 3)
    .filter(lambda v: math.hypot(*v) > 0.1)
    .map(lambda v: UnitVector.normalize(*v)),
)
_distributions = st.one_of(
    st.just(UniformSphere()),
    _units.map(FixedAxis),
    st.builds(Cap, _units, st.floats(0.05, math.pi)),
)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    dist=_distributions,
    n=st.integers(1, 300).filter(lambda n: n % 8),  # padding bits in the last byte
    quads=st.lists(st.builds(SettingQuad, _units, _units, _units, _units), min_size=1, max_size=40),
)
@example(seed=0, dist=FixedAxis(X_AXIS), n=13, quads=[SettingQuad(Z_AXIS, X_AXIS, Z_AXIS, Y_AXIS)])
@example(  # x below 1e-12 in both of the first quad's a directions: s . a = -1e-13 reads -1
    seed=0, dist=FixedAxis(X_AXIS), n=13,
    quads=[
        SettingQuad(UnitVector(-1e-13, 0.0, 1.0), UnitVector(-1e-13, 1.0, 0.0), Z_AXIS, Y_AXIS),
        SettingQuad(X_AXIS, Z_AXIS, Z_AXIS, Y_AXIS),  # whose a1 puts x in the table's a group
    ],
)
def test_packed_search_evaluator_matches_chsh_statistic(seed, dist, n, quads):
    db = generate_database(seed, dist, n)
    expected = [chsh_statistic(db, q, "reuse").statistic for q in quads]
    rows = _quad_rows(quads)
    # with no incumbent every candidate is tallied in full, to its exact numerator
    numerators, read = _tile_numerators(db.spins, rows)
    assert (numerators / n).tolist() == expected and read.tolist() == [n] * len(quads)
    assert numerators.tolist() == [int(per_trial_terms(db, q).sum()) for q in quads]
    # the pair table over all the quads' directions, each quad read by index
    index = [(2 * q, 2 * q + 1, 2 * q, 2 * q + 1) for q in range(len(quads))]
    a_dirs, b_dirs = rows[:, :2].reshape(-1, 3), rows[:, 2:].reshape(-1, 3)
    assert (_table_numerators(db.spins, a_dirs, b_dirs, index) / n).tolist() == expected


def test_one_tile_pass_serves_many_candidates_bit_for_bit():
    # a tile takes its live candidates _BLOCK_ROWS sign elements at a time,
    # and the pair table all its directions at once; a candidate must get
    # the numerator it gets alone, whatever else shares its pass
    rng = np.random.default_rng(31)
    for n in (5, 3001, 70_000):  # one tile, several, and tiles of one candidate per pass
        db = generate_database(31, UniformSphere(), n)
        for k in (1, 40, 3, 33):
            rows = _quad_rows([_random_quad(rng) for _ in range(k)])
            alone = [_tile_numerators(db.spins, rows[i : i + 1])[0] for i in range(k)]
            assert _tile_numerators(db.spins, rows)[0].tobytes() == np.concatenate(alone).tobytes()
            a_dirs, b_dirs = rows[:, :2].reshape(-1, 3), rows[:, 2:].reshape(-1, 3)
            index = [(0, 2 * k - 1, 2 * k - 1, 0)]
            pair = (a_dirs[[0, -1]], b_dirs[[-1, 0]], [(0, 1, 0, 1)])
            assert _table_numerators(db.spins, a_dirs, b_dirs, index).tobytes() == (
                _table_numerators(db.spins, *pair).tobytes()
            )


def _tile_ends(n: int, first_tile: int) -> list[int]:
    """The rows read before each bound check: 0, then the end of each tile."""
    ends, tile = [0], first_tile
    while ends[-1] < n:
        ends.append(min(n, ends[-1] + tile))
        tile = min(2 * tile, parallel._BLOCK_ROWS // 4)
    return ends


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    dist=_distributions,
    n=st.integers(1, 300),
    quads=st.lists(st.builds(SettingQuad, _units, _units, _units, _units), min_size=1, max_size=12),
    first_tile=st.integers(1, 64),
    pick=st.integers(0, 11),
    shift=st.sampled_from([-4, -2, 0, 2]),
)
@example(  # both quads end at S = 2, and only the second has a greater key than the first
    seed=0, dist=FixedAxis(Z_AXIS), n=13,
    quads=[CANONICAL_QUAD, SettingQuad(*[UnitVector.normalize(1.0, 0.0, 1.0)] * 4)],
    first_tile=1, pick=0, shift=0,
)
def test_tile_evaluator_drops_a_candidate_at_its_first_losing_bound(
    seed, dist, n, quads, first_tile, pick, shift
):
    # the incumbent is one candidate's numerator moved by shift, under that
    # candidate's key; each candidate is read tile by tile until its best
    # case, partial sum plus 2 per unread row, loses to the incumbent
    db = generate_database(seed, dist, n)
    rows = _quad_rows(quads)
    terms = [np.array(oracles.brute_force_terms(db, q)) for q in quads]
    bar, key = int(terms[pick % len(quads)].sum()) + shift, quads[pick % len(quads)].sort_key()
    expected_numerators, expected_read = [], []
    for q, t in zip(quads, terms):
        best_case = {m: int(t[:m].sum()) + 2 * (n - m) for m in _tile_ends(n, first_tile)[:-1]}
        losing = [
            m for m, b in best_case.items() if b < bar or (b == bar and not q.sort_key() > key)
        ]
        expected_numerators.append(-2 * n - 1 if losing else int(t.sum()))
        expected_read.append(losing[0] if losing else n)
    with patch.object(chsh, "_FIRST_TILE", first_tile):
        numerators, read = _tile_numerators(db.spins, rows, (bar, rows[pick % len(quads)]))
    assert numerators.tolist() == expected_numerators
    assert read.tolist() == expected_read


_mixtures = st.builds(
    lambda w, first, second: Mixture(((w, first), (1.0 - w, second))),
    st.floats(0.1, 0.9),
    _distributions,
    _distributions,
)
_quads = st.one_of(
    st.builds(SettingQuad, _units, _units, _units, _units),
    _units.map(lambda d: SettingQuad(d, d, d, d)),  # identical settings
)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    dist=st.one_of(_distributions, _mixtures),
    n=st.integers(1, 60),
    workers=st.integers(1, 3),
    block_rows=st.integers(1, 16),
    quad=_quads,
)
@example(seed=0, dist=FixedAxis(X_AXIS), n=13, workers=2, block_rows=4,
         quad=SettingQuad(Z_AXIS, X_AXIS, Z_AXIS, Y_AXIS))
@example(seed=0, dist=FixedAxis(X_AXIS), n=9, workers=1, block_rows=4,
         quad=SettingQuad(Y_AXIS, X_AXIS, Z_AXIS, X_AXIS))  # a tie in (a2,b1), none in (a2,b2)
@example(seed=1, dist=UniformSphere(), n=2, workers=3, block_rows=1,
         quad=SettingQuad(X_AXIS, X_AXIS, X_AXIS, X_AXIS))
def test_streamed_tallies_match_the_database_path(seed, dist, n, workers, block_rows, quad):
    # a small block size puts n on both sides of it; the pool needs more
    # trials than n, so the worker ranges run in this process
    trials = GeneratedTrials(seed, dist, n)
    with patch.object(experiment, "_BLOCK_ROWS", block_rows):
        (tallies,) = streamed_tallies([trials], quad, workers)
        streamed = chsh_statistic(trials, quad, "reuse", workers=workers)
    db = generate_database(seed, dist, n)
    result = result_from_tallies(tallies)
    assert result == streamed == chsh_statistic(db, quad, "reuse")
    pairs = ((quad.a1, quad.b1), (quad.a1, quad.b2), (quad.a2, quad.b1), (quad.a2, quad.b2))
    for estimate, (a, b) in zip((result.e11, result.e12, result.e21, result.e22), pairs):
        assert estimate == estimate_correlation(db, a, b)
    terms = per_trial_terms(db, quad)
    assert tallies[N] == n == tallies[TERM_PM2]
    assert (result.per_trial_min, result.per_trial_max) == (int(terms.min()), int(terms.max()))
    assert tallies[TERM_SUM] == int(terms.sum())
    assert result.statistic == int(terms.sum()) / n


def test_reuse_tallies_never_put_generated_trials_in_order(monkeypatch):
    # each generated sub-block is tallied where the kernel wrote it, no row is formed
    dist = Mixture(((0.5, UniformSphere()), (0.5, Cap(Z_AXIS, 0.8))))
    expected = chsh_statistic(generate_database(4, dist, 70_000), CANONICAL_QUAD)

    def refuse(*args):
        raise AssertionError("rows put in trial order")

    monkeypatch.setattr(experiment, "_put_columns", refuse)
    assert chsh_statistic(GeneratedTrials(4, dist, 70_000), CANONICAL_QUAD) == expected
    with pytest.raises(AssertionError, match="rows put in trial order"):
        GeneratedTrials(4, dist, 70_000).rows(0, 1)


_unit_rows = st.lists(_units, min_size=1, max_size=40).map(
    lambda us: np.array([(u.x, u.y, u.z) for u in us])
)


@settings(max_examples=100, deadline=None)
@given(rows=_unit_rows, quad=_quads)
@example(  # each spin on an axis and every setting on one: exact zero dots at both stations
    rows=np.array([(1.0, 0.0, 0.0), (0.0, 0.0, -1.0), (-0.0, 1.0, -0.0)]),
    quad=SettingQuad(Z_AXIS, X_AXIS, Y_AXIS, Z_AXIS.negated()),
)
def test_pm2_identity_holds_on_any_finite_unit_rows(rows, quad):
    cols, dots = np.ascontiguousarray(rows.T), np.empty((2, 4, len(rows)))
    tallies = _quad_tallies(cols, _quad_rows([quad])[0], dots)
    assert tallies[N] == len(rows)
    result_from_tallies(tallies)  # raises InvariantError if the identity fails


_nested_mixtures = st.recursive(
    _distributions,
    lambda children: st.builds(
        lambda w, first, second: Mixture(((w, first), (1.0 - w, second))),
        st.floats(0.1, 0.9),
        children,
        children,
    ),
    max_leaves=4,
)
_SIGNED_ZERO_AXIS = FixedAxis(UnitVector(-0.0, 0.0, -1.0))


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    dist=_nested_mixtures,
    n=st.integers(1, 300),
    start=st.integers(0, 299),
    length=st.integers(1, 300),
    quad=_quads,
    block_rows=st.one_of(st.integers(1, 16), st.just(parallel._BLOCK_ROWS)),
    sub_block_rows=st.one_of(st.integers(1, 16), st.just(geometry._SUB_BLOCK_ROWS)),
    stored=st.booleans(),
)
# axis spins against axis settings: exact zero dots at both stations, in
# sub-blocks of 5 and 3 rows whose packed bytes are mostly padding
@example(seed=0, dist=FixedAxis(X_AXIS), n=13, start=0, length=13,
         quad=SettingQuad(Z_AXIS, X_AXIS, Y_AXIS, Z_AXIS.negated()),
         block_rows=5, sub_block_rows=3, stored=False)
@example(seed=0, dist=_SIGNED_ZERO_AXIS, n=11, start=2, length=300,
         quad=SettingQuad(X_AXIS.negated(), Z_AXIS, Y_AXIS, X_AXIS),
         block_rows=16, sub_block_rows=7, stored=True)
@example(seed=7, dist=Mixture(((0.5, _SIGNED_ZERO_AXIS), (0.5, FixedAxis(Y_AXIS.negated())))),
         n=299, start=0, length=300, quad=SettingQuad(Z_AXIS, Y_AXIS, X_AXIS, Y_AXIS.negated()),
         block_rows=parallel._BLOCK_ROWS, sub_block_rows=geometry._SUB_BLOCK_ROWS, stored=False)
def test_column_tallies_equal_the_int8_oracle_on_the_same_rows(
    seed, dist, n, start, length, quad, block_rows, sub_block_rows, stored
):
    lo = start % n
    hi = min(n, lo + length)
    source = generate_database(seed, dist, n) if stored else GeneratedTrials(seed, dist, n)
    with patch.object(experiment, "_BLOCK_ROWS", block_rows), patch.object(
        geometry, "_SUB_BLOCK_ROWS", sub_block_rows
    ):
        (tallies,) = _range_tallies([source], quad, lo, hi)
    expected = oracles.quad_tallies(source.rows(lo, hi), quad)
    for field in (N, POS, TIES, TERM_SUM, TERM_PM2):
        assert tallies[field].tolist() == expected[field].tolist(), field


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    dist=st.one_of(_distributions, _mixtures),
    n=st.integers(1, 120),
    block_rows=st.integers(1, 16),
    quad=_quads,
    stored=st.booleans(),
    data=st.data(),
)
def test_tallies_merge_to_the_whole_range_over_any_cut_points(
    seed, dist, n, block_rows, quad, stored, data
):
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=6))) if n > 1 else []
    ranges = list(zip([0, *cuts], [*cuts, n]))
    source = generate_database(seed, dist, n) if stored else GeneratedTrials(seed, dist, n)
    pair_sources = [
        (source, [(quad.a1, quad.b1), (quad.a2, quad.b2)]),
        (GeneratedTrials(seed ^ 1, dist, n), [(quad.a1, quad.b2)]),
    ]
    with patch.object(experiment, "_BLOCK_ROWS", block_rows), patch.object(
        correlation, "_BLOCK_ROWS", block_rows
    ):
        parts = [_range_tallies([source], quad, lo, hi)[0] for lo, hi in ranges]
        (whole,) = _range_tallies([source], quad, 0, n)
        assert sum(parts).tolist() == whole.tolist()
        for pair_source, pairs in pair_sources:
            pair_parts = [
                correlation._range_pair_tallies(pair_source, pairs, lo, hi) for lo, hi in ranges
            ]
            whole = correlation._range_pair_tallies(pair_source, pairs, 0, n)
            assert sum(pair_parts).tolist() == whole.tolist()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    dist=st.one_of(_distributions, _mixtures),
    n=st.integers(1, 300).filter(lambda n: n % 8),  # padding bits in the last byte
    # small budgets have no lattice (it starts at 49) and, below 3, no random quads
    budget=st.one_of(st.integers(1, 20), st.integers(49, 120), st.integers(200, 1000)),
    initial=st.none() | st.builds(SettingQuad, _units, _units, _units, _units),
)
@example(seed=0, dist=FixedAxis(Z_AXIS), n=13, budget=1000, initial=None)  # many quads tie at S = 2
@example(seed=3, dist=UniformSphere(), n=301, budget=2, initial=None)  # one refinement, no more
@example(
    seed=4,
    dist=Mixture(((0.5, UniformSphere()), (0.5, Cap(Z_AXIS, 0.8)))),
    n=299,
    budget=777,
    initial=None,
)
def test_array_search_matches_the_sequential_oracle(seed, dist, n, budget, initial):
    db = generate_database(seed, dist, n)
    stream, oracle_stream = root_stream(seed, 4), root_stream(seed, 4)
    best, quad = search_max_chsh(db, "reuse", budget, stream, initial)
    oracle_best, oracle_quad = oracles.search_max_chsh(db, "reuse", budget, oracle_stream, initial)
    assert best == oracle_best
    # bit for bit, signed zeros included
    assert _quad_rows([quad]).tobytes() == _quad_rows([oracle_quad]).tobytes()
    assert stream == oracle_stream


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    dist=st.one_of(_distributions, _mixtures),
    n=st.integers(1, 300),
    budget=st.integers(1, 200),  # below 49 no lattice, below 3 no random quads
    initial=st.none() | st.builds(SettingQuad, _units, _units, _units, _units),
    first_tile=st.integers(1, 64),
    block_rows=st.sampled_from([256, 4096, parallel._BLOCK_ROWS]),
)
# the initial quad's S is 1.013 < 2, and 8 of the 14 later candidates are
# dropped after reading some of their rows
@example(
    seed=0, dist=UniformSphere(), n=300, budget=15,
    initial=SettingQuad(X_AXIS, Y_AXIS, Z_AXIS, X_AXIS),
    first_tile=64, block_rows=parallel._BLOCK_ROWS,
)
@example(  # many quads tie at S = 2, so only the key rule picks the winner
    seed=0, dist=FixedAxis(Z_AXIS), n=13, budget=200, initial=None, first_tile=1, block_rows=256
)
def test_pruned_reuse_search_equals_the_unpruned_oracle(
    seed, dist, n, budget, initial, first_tile, block_rows
):
    db = generate_database(seed, dist, n)
    counts, stream, oracle_stream = [], root_stream(seed, 4), root_stream(seed, 4)
    with patch.object(chsh, "_FIRST_TILE", first_tile), patch.object(chsh, "_BLOCK_ROWS", block_rows):
        best, quad = search_max_chsh(
            db, "reuse", budget, stream, initial, report=lambda **c: counts.append(c)
        )
    oracle_best, oracle_quad = oracles.search_max_chsh(db, "reuse", budget, oracle_stream, initial)
    assert best == oracle_best
    assert _quad_rows([quad]).tobytes() == _quad_rows([oracle_quad]).tobytes()
    assert stream == oracle_stream
    # the counts cover every candidate after the first quad and the lattice
    (c,) = counts
    g = int(((budget - 1) // 3) ** 0.25) if budget > 16 else 0
    assert c["candidates"] == budget - 1 - (g**4 if g >= 2 else 0)
    assert c["unread"] + c["full"] <= c["candidates"]
    assert c["full"] * n <= c["rows"] <= (c["candidates"] - c["unread"]) * n


@pytest.mark.parametrize(
    "seed,dist,workers",
    [
        (0, UniformSphere(), 1),
        (0, UniformSphere(), 2),
        (5, Cap(Z_AXIS, 0.4), 1),
        (5, FixedAxis(X_AXIS), 1),
    ],
)
def test_fresh_array_search_matches_the_sequential_oracle(seed, dist, workers):
    # from a budget of 244 the lattice has 3 angles, whose quads' fresh S
    # depend on the stream each candidate's index derives
    db = generate_database(seed, dist, 37)
    got = search_max_chsh(db, "fresh", 300, root_stream(seed, 4), workers=workers)
    assert got == oracles.search_max_chsh(db, "fresh", 300, root_stream(seed, 4))


def test_best_candidate_is_the_greatest_statistic_then_sort_key_then_earliest():
    big = SettingQuad(X_AXIS, X_AXIS, X_AXIS, X_AXIS)
    small = SettingQuad(Y_AXIS, Z_AXIS, X_AXIS, Y_AXIS)
    assert _best(np.array([1.0, 2.0, 2.0]), _quad_rows([big, small, big])) == 2
    assert _best(np.array([3.0, 2.0, 2.0]), _quad_rows([small, big, big])) == 0
    assert _best(np.array([1.0, 1.5, 1.5, 1.5]), _quad_rows([small, big, small, big])) == 1
    # sort keys compare with ==, so a -0.0 and a 0.0 component are equal
    plus = SettingQuad(Z_AXIS, Y_AXIS, Y_AXIS, Y_AXIS)
    minus = SettingQuad(UnitVector(-0.0, 0.0, 1.0), Y_AXIS, Y_AXIS, Y_AXIS)
    assert _best(np.array([0.5, 0.5]), _quad_rows([plus, minus])) == 0
    assert _best(np.array([0.5, 0.5]), _quad_rows([minus, plus])) == 0


def test_refinement_keeps_the_incumbent_against_an_equal_candidate(monkeypatch):
    # every perturbation is the incumbent itself, and at n = 3 a fresh S takes
    # few values, so candidates often tie with it; only a greater S replaces it,
    # and the final fresh evaluation shows which candidate index won
    monkeypatch.setattr(
        chsh, "_perturbed_quads", lambda quad, stream, radius, size: np.repeat(quad[None], size, 0)
    )
    monkeypatch.setattr(
        oracles, "perturbed_round", lambda quad, stream, radius, size: [quad] * size
    )
    for seed in range(10):
        db = generate_database(seed, UniformSphere(), 3)
        assert search_max_chsh(db, "fresh", 40, root_stream(seed, 4)) == oracles.search_max_chsh(
            db, "fresh", 40, root_stream(seed, 4)
        )


def _redrawing_seeds(size: int) -> list:
    # the first three seeds whose round of 4 * size gaussian triples, drawn
    # from root_stream(seed, 4), holds one shorter than the rejection norm
    seeds = []
    for seed in range(3000):
        gx, gy, gz = geometry._gaussian_triples(root_stream(seed, 4), 4 * size)
        if (np.sqrt(gx * gx + gy * gy + gz * gz) < geometry._REJECT_NORM).any():
            seeds.append(seed)
            if len(seeds) == 3:
                return seeds
    raise AssertionError(f"fewer than 3 seeds redraw a round of {size}")


@pytest.mark.parametrize("size,radius", [(1, 0.4), (2, 0.4), (32, 0.4), (7, 0.01)])
def test_a_round_that_redraws_matches_the_oracle_round(monkeypatch, size, radius):
    # about 3 % of gaussian triples are shorter than 0.5; a round is one sampler
    # call, so its redraws follow the whole round's draws
    monkeypatch.setattr(geometry, "_REJECT_NORM", 0.5)
    for seed in _redrawing_seeds(size):
        stream, oracle_stream = root_stream(seed, 4), root_stream(seed, 4)
        rows = _perturbed_quads(_quad_rows([CANONICAL_QUAD])[0], stream, radius, size)
        expected = oracles.perturbed_round(CANONICAL_QUAD, oracle_stream, radius, size)
        assert stream.counter > 16 * size  # the round did redraw
        assert rows.tobytes() == _quad_rows(expected).tobytes()
        assert stream == oracle_stream


@pytest.mark.parametrize("size", [1, 7, 32])
def test_a_round_at_the_shipped_norm_takes_16_draws_per_quad(size):
    stream = root_stream(0, 4)
    _perturbed_quads(_quad_rows([CANONICAL_QUAD])[0], stream, 0.4, size)
    assert stream.counter == 16 * size


def test_searches_that_redraw_match_the_oracle(monkeypatch):
    # most rounds of 32 quads hold a triple shorter than 0.5
    monkeypatch.setattr(geometry, "_REJECT_NORM", 0.5)
    for mode, n in (("reuse", 200), ("fresh", 37)):
        db = generate_database(9, UniformSphere(), n)
        stream, oracle_stream = root_stream(9, 4), root_stream(9, 4)
        got = search_max_chsh(db, mode, 300, stream)
        assert got == oracles.search_max_chsh(db, mode, 300, oracle_stream)
        assert stream == oracle_stream


def test_a_reuse_search_that_redraws_normalizes_no_vector(monkeypatch):
    # every candidate stays a row of an array; only the winner becomes a SettingQuad,
    # of unit vectors it does not renormalize
    monkeypatch.setattr(geometry, "_REJECT_NORM", 0.5)
    calls, normalize = [], UnitVector.normalize.__func__

    def counted(cls, x, y, z):
        calls.append((x, y, z))
        return normalize(cls, x, y, z)

    db = generate_database(9, UniformSphere(), 200)
    stream, oracle_stream = root_stream(9, 4), root_stream(9, 4)
    expected = oracles.search_max_chsh(db, "reuse", 300, oracle_stream)
    monkeypatch.setattr(UnitVector, "normalize", classmethod(counted))
    got = search_max_chsh(db, "reuse", 300, stream)
    assert calls == []
    assert got == expected and stream == oracle_stream


def _inflated_tiles(f):
    def inflated(spins, *args):
        numerators, read = f(spins, *args)
        return numerators + len(spins) / 4, read

    return inflated


_SEARCH_DEFECTS = {
    # the tile evaluator ranks every candidate a quarter too high
    "_tile_numerators": (_inflated_tiles, "tile evaluator gives the best quad S = "),
    # the lattice's pair table does the same
    "_table_numerators": (
        lambda f: lambda spins, *args: f(spins, *args) + len(spins) / 4,
        "pair table gives the best quad S = ",
    ),
    "_quad_tallies": (lambda f: _defective_quad_tallies("zero-term"), "per-trial identity violated"),
}


@pytest.mark.parametrize("target", list(_SEARCH_DEFECTS))
def test_reuse_search_raises_when_its_best_quad_fails_a_check(monkeypatch, target):
    inflate, message = _SEARCH_DEFECTS[target]
    db = generate_database(8, UniformSphere(), 2000)
    monkeypatch.setattr(chsh, target, inflate(getattr(chsh, target)))
    with pytest.raises(InvariantError, match=message):
        search_max_chsh(db, "reuse", 50, root_stream(8, 4))


def test_fresh_search_reports_only_sampling_noise():
    db = generate_database(74, UniformSphere(), 100)
    best, _ = search_max_chsh(db, "fresh", 300, root_stream(74, 4))
    assert best.statistic <= 2.0 + 4 * math.sqrt(4 / 100)


# -- summaries --------------------------------------------------------------


def test_result_summary_fields():
    db = generate_database(80, UniformSphere(), 400)
    r = chsh_statistic(db, CANONICAL_QUAD, "reuse")
    doc = result_summary(r, CANONICAL_QUAD, seed=80, distribution_tag="uniform-sphere")
    assert doc["seed"] == 80 and doc["mode"] == "reuse" and doc["n"] == 400
    assert set(doc["quad"]) == {"a1", "a2", "b1", "b2"}
    assert doc["e11"]["value"] == r.e11.value
    assert doc["per_trial_min"] == r.per_trial_min
    assert "combined_se" not in doc and "budget" not in doc

    rf = chsh_statistic(db, CANONICAL_QUAD, "fresh", root_stream(80, 3))
    doc_f = result_summary(rf, CANONICAL_QUAD, seed=80, distribution_tag="uniform-sphere", budget=5)
    assert doc_f["combined_se"] == rf.combined_se
    assert doc_f["budget"] == 5
    assert "per_trial_min" not in doc_f
    assert doc_f["excess_over_2"] == max(0.0, rf.statistic - 2.0)


def test_singlet_reference_combination_reaches_tsirelson():
    quad = CANONICAL_QUAD
    s = (
        reference_singlet(angle_between(quad.a1, quad.b1))
        - reference_singlet(angle_between(quad.a1, quad.b2))
        - reference_singlet(angle_between(quad.a2, quad.b2))
        - reference_singlet(angle_between(quad.a2, quad.b1))
    )
    assert s == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)
