"""Estimator exactness, reference curves, and angle sweeps."""

import io
import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellsim import (
    Cap,
    ConfigurationError,
    CorrelationEstimate,
    FixedAxis,
    GeneratedTrials,
    InvariantError,
    Mixture,
    UniformSphere,
    UnitVector,
    direction_at_angle,
    estimate_correlation,
    generate_database,
    reference_linear,
    reference_singlet,
    sweep_correlation,
    write_curve_csv,
)
from bellsim import correlation
from bellsim.correlation import CURVE_CSV_HEADER
from bellsim.experiment import station_readings
from bellsim.geometry import X_AXIS, Y_AXIS, Z_AXIS, orthonormal_basis
from bellsim.parallel import MIN_PARALLEL_TRIALS

from oracles import brute_force_estimate, pair_count, random_unit, sign_product_mean_quadrature


# -- the estimator ----------------------------------------------------------


def test_equal_settings_give_exact_anticorrelation():
    db = generate_database(6, UniformSphere(), 10_000)
    a = random_unit(np.random.default_rng(0))
    est = estimate_correlation(db, a, a)
    assert est.tie_count == 0
    assert est.value == -1.0 and est.count_pos == 0 and est.standard_error == 0.0
    flipped = estimate_correlation(db, a, a.negated())
    assert flipped.value == 1.0 and flipped.count_neg == 0


def test_right_angle_estimate_near_zero_at_large_n():
    db = generate_database(0, UniformSphere(), 1_000_000)
    est = estimate_correlation(db, direction_at_angle(0.0), direction_at_angle(math.pi / 2))
    assert abs(est.value) <= 0.004  # 3*SE ~ 0.003 plus margin


def test_matches_trial_by_trial_oracle_exactly():
    rng = np.random.default_rng(40)
    dists = [
        UniformSphere(),
        Cap(Y_AXIS, 0.9),
        Mixture(((0.5, UniformSphere()), (0.5, FixedAxis(Z_AXIS)))),
    ]
    for i, dist in enumerate(dists):
        db = generate_database(100 + i, dist, 257)
        a, b = random_unit(rng), random_unit(rng)
        est = estimate_correlation(db, a, b)
        pos, neg, ties, value = brute_force_estimate(db, a, b)
        assert (est.count_pos, est.count_neg, est.tie_count) == (pos, neg, ties)
        assert est.value == value


def test_tie_handling_matches_oracle():
    # every spin along +z measured against x: both stations tie on every trial
    db = generate_database(1, FixedAxis(Z_AXIS), 101)
    est = estimate_correlation(db, X_AXIS, X_AXIS)
    pos, neg, ties, value = brute_force_estimate(db, X_AXIS, X_AXIS)
    assert est.tie_count == ties == 101
    assert est.value == value == 1.0  # both tie-ruled to +1, product +1


def test_symmetry_in_settings_without_ties():
    rng = np.random.default_rng(41)
    db = generate_database(9, UniformSphere(), 4001)
    for _ in range(20):
        a, b = random_unit(rng), random_unit(rng)
        ab = estimate_correlation(db, a, b)
        ba = estimate_correlation(db, b, a)
        assert ab.tie_count == 0
        assert ab.value == ba.value


def test_tallies_are_exact_integers():
    rng = np.random.default_rng(42)
    for trial in range(25):
        db = generate_database(trial, UniformSphere(), int(rng.integers(1, 400)))
        a, b = random_unit(rng), random_unit(rng)
        est = estimate_correlation(db, a, b)
        assert est.count_pos + est.count_neg == est.n
        assert est.value == (est.count_pos - est.count_neg) / est.n
        assert -1.0 <= est.value <= 1.0
        assert round(est.value * est.n) == est.count_pos - est.count_neg


def test_worker_partitioning_is_exact():
    db = generate_database(3, UniformSphere(), 60_000)
    a, b = direction_at_angle(0.0), direction_at_angle(1.0)
    serial = estimate_correlation(db, a, b, workers=1)
    parallel_est = estimate_correlation(db, a, b, workers=8)
    assert serial == parallel_est


# -- reference curves -------------------------------------------------------


def test_reference_values_at_special_angles():
    assert reference_linear(0.0) == -1.0
    assert reference_linear(math.pi) == 1.0
    assert reference_linear(math.pi / 2) == 0.0
    assert reference_linear(math.pi / 4) == pytest.approx(-0.5, abs=1e-15)
    assert reference_singlet(0.0) == -1.0
    assert reference_singlet(math.pi / 2) == pytest.approx(0.0, abs=1e-15)
    assert reference_singlet(math.pi / 4) == pytest.approx(-math.sqrt(2) / 2, abs=1e-15)
    for bad in (-0.2, math.pi + 0.2):
        with pytest.raises(ConfigurationError):
            reference_linear(bad)
        with pytest.raises(ConfigurationError):
            reference_singlet(bad)


def test_linear_law_agrees_with_integration_oracle():
    for theta in (math.pi / 4, math.pi / 2, 0.33, 2.8):
        assert sign_product_mean_quadrature(theta) == pytest.approx(
            reference_linear(theta), abs=1e-6
        )


def test_reference_curves_intersect_only_at_three_angles():
    gap = lambda t: reference_linear(t) - reference_singlet(t)
    for node in (0.0, math.pi / 2, math.pi):
        assert abs(gap(node)) <= 1e-15
    grid = np.linspace(0.0, math.pi, 2001)
    interior = [t for t in grid if min(abs(t), abs(t - math.pi / 2), abs(t - math.pi)) > 0.01]
    assert all(abs(gap(float(t))) > 1e-3 for t in interior)
    # gap at pi/4 is sqrt(2)/2 - 1/2; the global maximum sits at arcsin(2/pi)
    assert abs(gap(math.pi / 4)) == pytest.approx(math.sqrt(2) / 2 - 0.5, abs=1e-15)
    t_star = math.asin(2.0 / math.pi)
    best = math.cos(t_star) + 2.0 * t_star / math.pi - 1.0
    assert max(abs(gap(float(t))) for t in grid) == pytest.approx(best, abs=1e-6)
    assert best > abs(gap(math.pi / 4))


# -- sweeps -----------------------------------------------------------------


def test_single_point_grids():
    db = generate_database(12, UniformSphere(), 5000)
    low = sweep_correlation(db, [0.0])
    assert len(low.points) == 1
    assert low.points[0].estimate.value == -1.0 and low.points[0].estimate.tie_count == 0
    high = sweep_correlation(db, [math.pi])
    assert high.points[0].estimate.value == 1.0 and high.points[0].estimate.tie_count == 0


def test_sweep_matches_pointwise_estimates():
    db = generate_database(13, UniformSphere(), 3000)
    grid = [0.1, 0.8, 2.0, 3.0]
    curve = sweep_correlation(db, grid)
    for theta, point in zip(grid, curve.points):
        est = estimate_correlation(db, direction_at_angle(0.0), direction_at_angle(theta))
        assert point.estimate == est
        assert point.linear_ref == reference_linear(theta)
        assert point.singlet_ref == reference_singlet(theta)


def test_sweep_rejects_bad_grids():
    db = generate_database(1, UniformSphere(), 10)
    for bad in ([], [0.5, 0.4], [0.5, 0.5], [-0.1, 0.5], [0.5, math.pi + 0.1]):
        with pytest.raises(ConfigurationError):
            sweep_correlation(db, bad)


def test_sweep_with_explicit_plane():
    db = generate_database(14, Cap(Y_AXIS, 0.8), 2000)
    grid = [0.0, 0.7, 1.9]
    curve = sweep_correlation(db, grid, plane=(X_AXIS, Y_AXIS))
    for theta, point in zip(grid, curve.points):
        b = UnitVector.normalize(math.sin(theta), math.cos(theta), 0.0)
        est = estimate_correlation(db, Y_AXIS, b)
        assert point.estimate == est
    with pytest.raises(ConfigurationError):
        sweep_correlation(db, grid, plane=(X_AXIS, UnitVector.normalize(1.0, 1.0, 0.0)))


@pytest.mark.parametrize("plane", [None, (X_AXIS, Y_AXIS)])
def test_sweep_raises_where_b_equals_a_and_count_pos_misses_the_ties(monkeypatch, plane):
    # b equals a at theta = 0 only; one miscounted trial there is a defect,
    # the same miscount at any other point is not one the sweep can see
    trials = GeneratedTrials(4, FixedAxis(X_AXIS), 1000)
    grid = [0.0, 0.5, 1.0]
    pair_tallies = correlation.pair_tallies

    def miscount(index):
        def defective(source, pairs, workers=1):
            tallies = pair_tallies(source, pairs, workers)
            count_pos, ties = tallies[index]
            tallies[index] = (count_pos - 1, ties)
            return tallies

        return defective

    monkeypatch.setattr(correlation, "pair_tallies", miscount(1))
    sweep_correlation(trials, grid, plane=plane)
    monkeypatch.setattr(correlation, "pair_tallies", miscount(0))
    with pytest.raises(InvariantError, match=r"^b equals a at theta = 0\.0, yet count_pos"):
        sweep_correlation(trials, grid, plane=plane)


def test_sweep_worker_invariance():
    db = generate_database(15, UniformSphere(), 30_000)
    grid = list(np.linspace(0.0, math.pi, 13))
    assert sweep_correlation(db, grid, workers=1) == sweep_correlation(db, grid, workers=8)


# coordinate axes give exact zero dot products against axis-aligned spins
_AXES = [X_AXIS, Y_AXIS, Z_AXIS, X_AXIS.negated(), Y_AXIS.negated(), Z_AXIS.negated()]
_units = st.one_of(
    st.sampled_from(_AXES),
    st.tuples(*[st.floats(-1.0, 1.0)] * 3)
    .filter(lambda v: math.hypot(*v) > 0.1)
    .map(lambda v: UnitVector.normalize(*v)),
)
_simple = st.one_of(
    st.just(UniformSphere()),
    _units.map(FixedAxis),
    st.builds(Cap, _units, st.floats(0.05, math.pi)),
)
_distributions = st.one_of(
    _simple,
    st.builds(
        lambda w, first, second: Mixture(((w, first), (1.0 - w, second))),
        st.floats(0.1, 0.9),
        _simple,
        _simple,
    ),
)
# 0 and pi put axis-aligned spins exactly on a tie with the moving setting
_grids = st.lists(
    st.one_of(st.sampled_from([0.0, math.pi / 2, math.pi]), st.floats(0.0, math.pi)),
    min_size=1,
    max_size=8,
    unique=True,
).map(sorted)
_planes = st.one_of(
    st.none(),
    st.sampled_from([(X_AXIS, Y_AXIS), (Y_AXIS, Z_AXIS), (Z_AXIS.negated(), X_AXIS)]),
    _units.map(lambda u: tuple(UnitVector.from_array(e) for e in orthonormal_basis(u.as_array()))),
)


def _sweep_setting_pair(theta, plane):
    if plane is None:
        return direction_at_angle(0.0), direction_at_angle(theta)
    e1, e2 = plane
    s, c = math.sin(theta), math.cos(theta)
    return e2, UnitVector.normalize(s * e1.x + c * e2.x, s * e1.y + c * e2.y, s * e1.z + c * e2.z)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    dist=_distributions,
    n=st.integers(1, 60),
    workers=st.integers(1, 3),
    block_rows=st.integers(1, 16),
    grid=_grids,
    plane=_planes,
)
@example(seed=0, dist=FixedAxis(X_AXIS), n=13, workers=2, block_rows=4,
         grid=[0.0, math.pi / 2, math.pi], plane=None)
@example(seed=0, dist=FixedAxis(Z_AXIS), n=7, workers=3, block_rows=2,
         grid=[0.0, 1.0, math.pi], plane=(X_AXIS, Y_AXIS))
def test_streamed_sweep_matches_the_whole_array_count(seed, dist, n, workers, block_rows, grid, plane):
    # n stays below the pool threshold, so the worker ranges run in this process
    trials = GeneratedTrials(seed, dist, n)
    with patch.object(correlation, "_BLOCK_ROWS", block_rows):
        curve = sweep_correlation(trials, grid, plane=plane, workers=workers)
        estimates = [
            estimate_correlation(trials, *_sweep_setting_pair(t, plane), workers=workers)
            for t in grid
        ]
    spins = generate_database(seed, dist, n).spins
    assert [p.theta for p in curve.points] == grid
    for theta, point, estimate in zip(grid, curve.points, estimates):
        count_pos, tie_count = pair_count(spins, *_sweep_setting_pair(theta, plane))
        expected = CorrelationEstimate.from_tallies(n, count_pos, tie_count)
        assert point.estimate == estimate == expected


# The pair kernel counts agreeing boolean station masks; the oracle forms the int8
# signs and their products. Exact zero dots of either sign are where they could part.
_IN_PLANE = [0.0, 0.5, math.pi / 2, 2.0, math.pi]
_NEGATIVE_ZERO_PLANE = (UnitVector(1.0, -0.0, 0.0), UnitVector(0.0, -0.0, 1.0))
_NEGATIVE_ZERO_THETAS = [0.0, 0.4, 1.2, math.pi / 2]  # cos >= 0 keeps each b's y at -0.0
# name: (distribution, setting pairs, whether every trial ties at every pair)
_KERNEL_CASES = {
    # s = +y against settings in the x-z plane: every dot is +0.0
    "y-axis-in-plane": (FixedAxis(Y_AXIS), [_sweep_setting_pair(t, None) for t in _IN_PLANE], True),
    # s = +x against a = +z: every dot at A is +0.0; B's dots are sin(theta)
    "x-axis-against-z": (FixedAxis(X_AXIS), [(Z_AXIS, direction_at_angle(t)) for t in _IN_PLANE], True),
    # s = (-0, 1, -0) against settings whose y is -0.0: every dot is -0.0
    "negative-zero": (
        FixedAxis(UnitVector(-0.0, 1.0, -0.0)),
        [_sweep_setting_pair(t, _NEGATIVE_ZERO_PLANE) for t in _NEGATIVE_ZERO_THETAS],
        True,
    ),
    # b equal to a, on ties mixed with uniform spins
    "b-equals-a": (
        Mixture(((0.5, UniformSphere()), (0.5, FixedAxis(Y_AXIS)))),
        [(Z_AXIS, Z_AXIS), (X_AXIS, X_AXIS), (Y_AXIS, Y_AXIS)]
        + [_sweep_setting_pair(t, None) for t in _IN_PLANE],
        False,
    ),
}


@pytest.mark.parametrize("n, workers", [(50, 1), (50, 3), (MIN_PARALLEL_TRIALS + 904, 2)])
@pytest.mark.parametrize("block_rows", [3, 256])
@pytest.mark.parametrize("make_source", [generate_database, GeneratedTrials], ids=["database", "generated"])
@pytest.mark.parametrize("case", list(_KERNEL_CASES))
def test_pair_tallies_match_the_int8_oracle_bit_for_bit(case, make_source, block_rows, n, workers):
    # 3 rows split every range; at 5000 trials and 2 workers the ranges run in a pool
    dist, pairs, all_tie = _KERNEL_CASES[case]
    source = make_source(7, dist, n)
    with patch.object(correlation, "_BLOCK_ROWS", block_rows):
        tallies = correlation.pair_tallies(source, pairs, workers)
    spins = generate_database(7, dist, n).spins
    assert tallies == [pair_count(spins, a, b) for a, b in pairs]
    for (a, b), (count_pos, tie_count) in zip(pairs, tallies):
        assert tie_count == n if all_tie else tie_count < n
        if a == b:  # opposite readings on every trial but a tie
            assert count_pos == tie_count


def test_the_negative_zero_case_forms_dots_of_exactly_minus_zero():
    dist, pairs, _ = _KERNEL_CASES["negative-zero"]
    spins = generate_database(7, dist, 50).spins
    for a, b in pairs:
        assert all(d.y == 0.0 and math.copysign(1.0, d.y) == -1.0 for d in (a, b))
        x, y, da, db = station_readings(spins.T, a.as_array()[None], b.as_array()[None])
        for dots in (da, db):
            assert dots.shape == (1, 50) and not dots.any() and np.signbit(dots).all()
        assert x.all() and y.all()
    # the sweep reaches the same settings through its plane: both read +1 on every trial
    curve = sweep_correlation(GeneratedTrials(7, dist, 50), _NEGATIVE_ZERO_THETAS, plane=_NEGATIVE_ZERO_PLANE)
    assert [(p.estimate.count_pos, p.estimate.tie_count) for p in curve.points] == [(50, 50)] * 4


def test_estimator_tracks_linear_law_across_seeds():
    # at a fixed angle, the estimate should sit within 3 SE of the linear
    # law in at least 99 percent of independent runs
    theta = 0.8
    expected = reference_linear(theta)
    a, b = direction_at_angle(0.0), direction_at_angle(theta)
    hits = 0
    for seed in range(200):
        db = generate_database(1000 + seed, UniformSphere(), 10_000)
        est = estimate_correlation(db, a, b)
        if abs(est.value - expected) <= 3.0 * est.standard_error:
            hits += 1
    assert hits >= 198


# -- CSV --------------------------------------------------------------------


def test_curve_csv_schema_and_precision():
    db = generate_database(16, UniformSphere(), 777)
    curve = sweep_correlation(db, [0.25, 1.25, 2.25])
    buf = io.StringIO()
    write_curve_csv(curve, buf, provenance="test run")
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# test run"
    assert lines[1] == CURVE_CSV_HEADER
    assert len(lines) == 2 + 3
    fields = lines[2].split(",")
    assert len(fields) == 9
    assert float(fields[0]) == 0.25
    assert float(fields[2]) == curve.points[0].estimate.value  # 17g round-trips
    assert int(fields[4]) == curve.points[0].estimate.count_pos
    assert float(fields[1]) == pytest.approx(math.degrees(0.25), abs=1e-12)
