"""CHSH statistic, per-trial identity, strategy enumeration, search."""

import functools
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
    per_trial_terms,
    reference_singlet,
    result_summary,
    search_max_chsh,
    standard_combination,
)
from bellsim import chsh, cli, correlation, geometry, parallel
from bellsim.chsh import (
    QuadTallies,
    _SignPasses,
    _best,
    _perturbed_quads,
    _quad_rows,
    _quad_tallies,
    _range_tallies,
    _reuse_statistics,
    _table_statistics,
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


def test_terms_match_oracle_and_mean_equals_statistic():
    rng = np.random.default_rng(50)
    for i in range(30):
        db = generate_database(int(rng.integers(0, 2**32)), _random_distribution(rng), 211)
        quad = _random_quad(rng)
        terms = per_trial_terms(db, quad)
        assert terms.tolist() == brute_force_terms(db, quad)
        assert set(np.unique(terms).tolist()) <= {-2, 2}
        result = chsh_statistic(db, quad, "reuse")
        assert int(terms.sum()) / db.n == result.statistic
        assert result.per_trial_min == int(terms.min())
        assert result.per_trial_max == int(terms.max())
        assert -2.0 <= result.statistic <= 2.0


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


_DEFECTS = {
    # one +2 term reported as 0, which no four signs can produce
    "zero-term": lambda t: t._replace(term_min=0, term_sum=t.term_sum - 2, term_pm2=t.term_pm2 - 1),
    # one term counted as not +-2 while the sum still matches the tallies
    "count-only": lambda t: t._replace(term_pm2=t.term_pm2 - 1),
}


def _defective_quad_tallies(defect):
    quad_tallies = chsh._quad_tallies
    return lambda spins, quad: _DEFECTS[defect](quad_tallies(spins, quad))


@pytest.mark.parametrize("defect", list(_DEFECTS))
@pytest.mark.parametrize("stored", [False, True])
def test_reuse_statistic_raises_when_the_tallies_break_the_identity(monkeypatch, defect, stored):
    trials = GeneratedTrials(3, UniformSphere(), 3000)
    source = generate_database(3, UniformSphere(), 3000) if stored else trials
    monkeypatch.setattr(chsh, "_quad_tallies", _defective_quad_tallies(defect))
    with pytest.raises(InvariantError, match=r"per-trial identity violated \(all terms \+-2: False"):
        chsh_statistic(source, CANONICAL_QUAD, "reuse")


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


def test_reuse_search_opens_no_process_pool(tmp_path, pool_recorder):
    pool_recorder.refuse = True
    db = generate_database(75, UniformSphere(), 5000)
    best, quad = search_max_chsh(db, "reuse", 200, root_stream(75, 4), workers=2)
    assert best == chsh_statistic(db, quad, "reuse")
    # the command also generates its database in this process
    n = str(parallel.MIN_PARALLEL_TRIALS)
    argv = ["search", "--n", n, "--budget", "50", "--workers", "2", "--out", str(tmp_path / "s")]
    assert cli.main(argv) == 0
    assert pool_recorder.requests == [] and pool_recorder.processes == []


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
def test_packed_search_evaluator_matches_chsh_statistic(seed, dist, n, quads):
    db = generate_database(seed, dist, n)
    expected = [chsh_statistic(db, q, "reuse").statistic for q in quads]
    rows = _quad_rows(quads)
    assert _reuse_statistics(db.spins, rows).tolist() == expected
    # the pair table over all the quads' directions, each quad read by index
    index = [(2 * q, 2 * q + 1, 2 * q, 2 * q + 1) for q in range(len(quads))]
    a_dirs, b_dirs = rows[:, :2].reshape(-1, 3), rows[:, 2:].reshape(-1, 3)
    assert _table_statistics(db.spins, a_dirs, b_dirs, index).tolist() == expected


def test_one_sign_passes_serves_many_evaluations_bit_for_bit():
    # the search shares one column copy and one scratch across calls of
    # every size; a pass must never read what an earlier call left there
    rng = np.random.default_rng(31)
    for n in (5, 3001, 70_000):  # one pass per call, several, and one row per pass
        db = generate_database(31, UniformSphere(), n)
        passes = _SignPasses(db.spins)
        for k in (1, 40, 3, 33):
            rows = _quad_rows([_random_quad(rng) for _ in range(k)])
            assert _reuse_statistics(passes, rows).tobytes() == (
                _reuse_statistics(db.spins, rows).tobytes()
            )
            a_dirs, b_dirs = rows[:, :2].reshape(-1, 3), rows[:, 2:].reshape(-1, 3)
            index = [(0, 2 * k - 1, 2 * k - 1, 0)]
            assert _table_statistics(passes, a_dirs, b_dirs, index).tobytes() == (
                _table_statistics(db.spins, a_dirs, b_dirs, index).tobytes()
            )


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
    with patch.object(chsh, "_BLOCK_ROWS", block_rows):
        tallies = streamed_tallies(trials, quad, workers)
        streamed = chsh_statistic(trials, quad, "reuse", workers=workers)
    db = generate_database(seed, dist, n)
    result = result_from_tallies(tallies)
    assert result == streamed == chsh_statistic(db, quad, "reuse")
    pairs = ((quad.a1, quad.b1), (quad.a1, quad.b2), (quad.a2, quad.b1), (quad.a2, quad.b2))
    for estimate, (a, b) in zip((result.e11, result.e12, result.e21, result.e22), pairs):
        assert estimate == estimate_correlation(db, a, b)
    terms = per_trial_terms(db, quad)
    assert tallies.n == n == tallies.term_pm2
    assert (tallies.term_min, tallies.term_max) == (int(terms.min()), int(terms.max()))
    assert tallies.term_sum == int(terms.sum())
    assert result.statistic == int(terms.sum()) / n


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
    tallies = _quad_tallies(rows, quad)
    assert tallies.n == len(rows)
    result_from_tallies(tallies)  # raises InvariantError if the identity fails


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
    jobs = [
        (source, [(quad.a1, quad.b1), (quad.a2, quad.b2)]),
        (GeneratedTrials(seed ^ 1, dist, n), [(quad.a1, quad.b2)]),
    ]
    with patch.object(chsh, "_BLOCK_ROWS", block_rows), patch.object(
        correlation, "_BLOCK_ROWS", block_rows
    ):
        parts = [_range_tallies(source, quad, lo, hi) for lo, hi in ranges]
        assert functools.reduce(QuadTallies.merge, parts) == _range_tallies(source, quad, 0, n)
        pair_parts = [correlation._range_pair_tallies(jobs, lo, hi) for lo, hi in ranges]
        whole = correlation._range_pair_tallies(jobs, 0, n)
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
    monkeypatch.setattr(oracles, "perturbed_quad", lambda quad, stream, radius: quad)
    for seed in range(10):
        db = generate_database(seed, UniformSphere(), 3)
        assert search_max_chsh(db, "fresh", 40, root_stream(seed, 4)) == oracles.search_max_chsh(
            db, "fresh", 40, root_stream(seed, 4)
        )


def test_perturbations_fall_back_to_the_sequential_draw_after_a_short_triple(monkeypatch):
    # about 3 % of gaussian triples are shorter than 0.5, so most rounds of 32
    # quads hold one; a moved direction is at least 1 - 0.4 long, so none fails
    for module in (geometry, chsh):
        monkeypatch.setattr(module, "_REJECT_NORM", 0.5)
    sequential, calls = chsh._perturbed_quad, []

    def counted(*args):
        calls.append(args)
        return sequential(*args)

    monkeypatch.setattr(chsh, "_perturbed_quad", counted)
    for seed in range(4):
        for size, radius in ((1, 0.4), (32, 0.4), (7, 0.01)):
            stream, oracle_stream = root_stream(seed, 4), root_stream(seed, 4)
            rows = _perturbed_quads(_quad_rows([CANONICAL_QUAD])[0], stream, radius, size)
            expected = [
                oracles.perturbed_quad(CANONICAL_QUAD, oracle_stream, radius) for _ in range(size)
            ]
            assert rows.tobytes() == _quad_rows(expected).tobytes()
            assert stream == oracle_stream
    assert calls
    db = generate_database(9, UniformSphere(), 200)
    assert search_max_chsh(db, "reuse", 300, root_stream(9, 4)) == oracles.search_max_chsh(
        db, "reuse", 300, root_stream(9, 4)
    )


_SEARCH_DEFECTS = {
    # the packed evaluator ranks every candidate a quarter too high
    "_reuse_statistics": (
        lambda f: lambda spins, quads: f(spins, quads) + 0.25,
        "packed evaluator gives the best quad S = ",
    ),
    # the lattice's pair table does the same
    "_table_statistics": (
        lambda f: lambda *args: f(*args) + 0.25,
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
