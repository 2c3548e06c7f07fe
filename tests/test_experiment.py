"""Database generation, sign measurement, setting policies, text format."""

import io
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellsim import (
    CANONICAL_QUAD,
    Cap,
    ConfigurationError,
    FixedAxis,
    GeneratedTrials,
    Mixture,
    Outcome,
    TrialDatabase,
    UniformSphere,
    UnitVector,
    angle_between,
    chsh_statistic,
    estimate_correlation,
    generate_database,
    measure_sign,
    parse_distribution,
    read_database,
    select_settings,
    write_database,
)
from bellsim import experiment, geometry
from bellsim.experiment import _MAX_NESTING, _WRITE_BLOCK_ROWS, _Scratch
from bellsim.rowtext import _DB_ROW, _format_columns, _kernel_tables, _scaled
from bellsim.geometry import X_AXIS, Y_AXIS, Z_AXIS
from bellsim.rng import DOMAIN_TRIALS, child_keys, key_uniform_column, root_key, root_stream

import oracles
from oracles import first_line_difference, random_unit, write_database_per_row


# -- generation -------------------------------------------------------------


def test_generation_is_deterministic():
    a = generate_database(42, UniformSphere(), 10)
    b = generate_database(42, UniformSphere(), 10)
    assert a.spins.tolist() == b.spins.tolist()
    assert a.seed == b.seed == 42 and a.n == 10


def test_fixed_axis_is_degenerate():
    db = generate_database(42, FixedAxis(Z_AXIS), 5)
    assert db.spins.tolist() == [[0.0, 0.0, 1.0]] * 5


def test_trial_depends_only_on_seed_and_index():
    small = generate_database(8, UniformSphere(), 50)
    big = generate_database(8, UniformSphere(), 500)
    assert big.spins[:50].tolist() == small.spins.tolist()


def test_generated_trials_match_the_database_bit_for_bit():
    dist = parse_distribution(
        "mixture(0.4:uniform-sphere;0.3:cap(0,0,1,0.8);0.3:fixed-axis(0,1,0))"
    )
    db = generate_database(9, dist, 5000)
    trials = GeneratedTrials(9, dist, 5000)
    for k in np.random.default_rng(4).integers(0, 5000, 60).tolist() + [0, 4999]:
        assert trials.spin(k).as_array().tobytes() == db.spins[k].tobytes()
    assert trials.rows(1234, 4321).tobytes() == db.spins[1234:4321].tobytes()
    with pytest.raises(IndexError):
        trials.spin(5000)
    with pytest.raises(ConfigurationError):
        GeneratedTrials(9, dist, True)


def test_database_is_write_protected():
    db = generate_database(1, UniformSphere(), 4)
    with pytest.raises(ValueError):
        db.spins[0, 0] = 0.5


def test_generation_validation():
    with pytest.raises(ConfigurationError):
        generate_database(1, UniformSphere(), 0)
    with pytest.raises(ConfigurationError):
        generate_database(-1, UniformSphere(), 5)
    with pytest.raises(ConfigurationError):
        generate_database(2**64, UniformSphere(), 5)
    with pytest.raises(ConfigurationError):
        generate_database(1, "uniform", 5)


def test_generation_rejects_bool_trial_count():
    # bool is a subclass of int, so True would pass as n = 1
    for n in (True, False):
        with pytest.raises(ConfigurationError):
            generate_database(0, UniformSphere(), n)


def test_generation_rejects_bool_seed():
    for seed in (True, False):
        with pytest.raises(ConfigurationError, match="seed"):
            generate_database(seed, UniformSphere(), 3)


def test_all_generated_spins_are_unit():
    for dist in (
        UniformSphere(),
        Cap(X_AXIS, 0.4),
        Mixture(((0.25, FixedAxis(Z_AXIS)), (0.75, UniformSphere()))),
    ):
        db = generate_database(3, dist, 4000)
        err = np.abs(np.sum(db.spins * db.spins, axis=1) - 1.0)
        assert err.max() <= 1e-12


# -- distributions ----------------------------------------------------------


def test_cap_stays_inside_half_angle():
    rng = np.random.default_rng(17)
    for _ in range(10):
        axis = random_unit(rng)
        half = float(rng.uniform(0.05, math.pi))
        db = generate_database(11, Cap(axis, half), 2000)
        worst = max(angle_between(db.spin(k), axis) for k in range(0, 2000, 7))
        assert worst <= half + 1e-9


def test_mixture_component_frequencies():
    mix = Mixture(((0.3, FixedAxis(Z_AXIS)), (0.7, FixedAxis(X_AXIS))))
    db = generate_database(21, mix, 20_000)
    frac_z = float(np.count_nonzero(db.spins[:, 2] == 1.0)) / db.n
    sigma = math.sqrt(0.3 * 0.7 / db.n)
    assert abs(frac_z - 0.3) < 5 * sigma
    assert np.isin(db.spins[:, 0], (0.0, 1.0)).all()


def test_distribution_validation():
    with pytest.raises(ConfigurationError):
        Cap(Z_AXIS, 0.0)
    with pytest.raises(ConfigurationError):
        Cap(Z_AXIS, 3.2)
    with pytest.raises(ConfigurationError):
        Mixture(((0.5, UniformSphere()), (0.6, UniformSphere())))
    with pytest.raises(ConfigurationError):
        Mixture(((-0.5, UniformSphere()), (1.5, UniformSphere())))
    with pytest.raises(ConfigurationError):
        Mixture(())


def test_mixture_rejects_nan_weights():
    nan = float("nan")
    with pytest.raises(ConfigurationError):
        Mixture(((nan, UniformSphere()),))
    with pytest.raises(ConfigurationError):
        Mixture(((0.5, UniformSphere()), (nan, UniformSphere())))
    with pytest.raises(ConfigurationError):
        parse_distribution("mixture(nan:uniform-sphere)")


def _nested(depth: int) -> str:
    return "mixture(1:" * depth + "uniform-sphere" + ")" * depth


def test_mixtures_nest_at_most_the_limit_in_a_spec_and_a_database_header():
    at_limit = parse_distribution(_nested(_MAX_NESTING))
    assert at_limit.tag() == _nested(_MAX_NESTING)
    keys = child_keys(root_key(3, DOMAIN_TRIALS), 0, 50)
    assert oracles.kernel_rows(at_limit, keys, 0).tobytes() == oracles.sample_rows(at_limit, keys, 0).tobytes()
    for depth in (_MAX_NESTING + 1, 340):
        with pytest.raises(ConfigurationError, match=f"nests mixtures more than {_MAX_NESTING} deep"):
            parse_distribution(_nested(depth))
        header = f"bellsim-db v1 seed=0 dist={_nested(depth)} n=1\n0 0 0 1\n"
        with pytest.raises(ConfigurationError, match="bad database header") as caught:
            read_database(io.StringIO(header))
        assert f"more than {_MAX_NESTING} deep" in str(caught.value.__cause__)


def test_distribution_tags_round_trip():
    specs = [
        UniformSphere(),
        FixedAxis(UnitVector.normalize(1.0, -2.0, 0.25)),
        Cap(UnitVector.normalize(0.1, 0.2, 0.3), 0.7853981633974483),
        Mixture(
            (
                (0.125, FixedAxis(Z_AXIS)),
                (0.375, Cap(X_AXIS, 1.5)),
                (0.5, Mixture(((0.5, UniformSphere()), (0.5, FixedAxis(X_AXIS))))),
            )
        ),
    ]
    for spec in specs:
        assert parse_distribution(spec.tag()) == spec
    with pytest.raises(ConfigurationError):
        parse_distribution("donut(1,2)")
    with pytest.raises(ConfigurationError):
        parse_distribution("cap(0,0,1)")


# a coordinate axis or its negation, the other components signed zeros
_signed_axes = st.builds(
    lambda zeros, i, sign: UnitVector(*(sign if j == i else zeros[j] for j in range(3))),
    st.tuples(*[st.sampled_from([0.0, -0.0])] * 3),
    st.integers(0, 2),
    st.sampled_from([1.0, -1.0]),
)
_tag_units = st.one_of(
    _signed_axes,
    st.tuples(*[st.floats(-1.0, 1.0)] * 3)
    .filter(lambda v: math.hypot(*v) > 1e-3)
    .map(lambda v: UnitVector.normalize(*v)),
)


def _mixture(entries):
    total = sum(count for count, _ in entries)
    return Mixture(tuple((count / total, spec) for count, spec in entries))


_specs = st.recursive(
    st.one_of(
        st.just(UniformSphere()),
        _tag_units.map(FixedAxis),
        st.builds(Cap, _tag_units, st.floats(0.0, math.pi, exclude_min=True)),
    ),
    lambda children: st.lists(
        st.tuples(st.integers(1, 1000), children), min_size=1, max_size=4
    ).map(_mixture),
    max_leaves=8,
)


@settings(max_examples=150, deadline=None)
@given(spec=_specs)
def test_distribution_tag_round_trip_property(spec):
    # the header's dist= field is written with tag() and read back with parse_distribution
    tag = spec.tag()
    back = parse_distribution(tag)
    assert back == spec
    assert back.tag() == tag  # also tells -0 from 0, which == does not


# -- generation kernel --------------------------------------------------------

_SUB = geometry._SUB_BLOCK_ROWS
# no keys, one, a sub-block and one either side, and a count not a multiple of it
_key_counts = st.sampled_from([0, 1, _SUB - 1, _SUB, _SUB + 1, 2 * _SUB + 123]) | st.integers(2, 300)


@settings(max_examples=80, deadline=None)
@given(
    spec=_specs,
    seed=st.integers(0, 2**64 - 1),
    count=_key_counts,
    offset=st.integers(0, 9),
    reject=st.sampled_from([geometry._REJECT_NORM, 0.5]),
)
@example(spec=UniformSphere(), seed=5, count=2 * _SUB + 123, offset=0, reject=0.5)
def test_generation_kernel_matches_the_row_wise_oracle(spec, seed, count, offset, reject):
    # a rejection norm of 0.5 redraws about 3% of the triples, some of them twice
    keys = child_keys(root_key(seed, DOMAIN_TRIALS), 0, count)
    with mock.patch.object(geometry, "_REJECT_NORM", reject):
        rows = oracles.kernel_rows(spec, keys, offset)
        expected = oracles.sample_rows(spec, keys, offset)
    assert rows.shape == (count, 3) and rows.dtype == np.float64 and rows.T.flags.c_contiguous
    assert rows.tobytes() == expected.tobytes()


def test_the_oracle_example_redraws_on_later_attempts():
    # the explicit example above: some rows are short on their first two attempts
    keys = child_keys(root_key(5, DOMAIN_TRIALS), 0, 2 * _SUB + 123)
    first, second = (np.sqrt(sum(g * g for g in oracles.gaussian_triples(keys, o))) for o in (0, 4))
    assert ((first < 0.5) & (second < 0.5)).any()
    assert ((first < 0.5) & ~(second < 0.5)).any()


@settings(max_examples=40, deadline=None)
@given(spec=_specs, seed=st.integers(0, 2**64 - 1), n=st.integers(1, 3 * _SUB), data=st.data())
def test_generated_rows_over_any_cut_points_equal_one_call(spec, seed, n, data):
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=6)))
    trials = GeneratedTrials(seed, spec, n)
    bounds = [0, *cuts, n]
    parts = [trials.rows(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    assert np.concatenate(parts).tobytes() == trials.rows(0, n).tobytes()


@settings(max_examples=80, deadline=None)
@given(
    spec=_specs,
    seed=st.integers(0, 2**64 - 1),
    n=st.integers(1, 300),
    offset=st.integers(0, 9),
    start=st.integers(0, 299),
    length=st.integers(1, 300),
    sub_block_rows=st.integers(1, 16),
)
def test_column_visits_hold_the_oracle_rows_at_their_positions(
    spec, seed, n, offset, start, length, sub_block_rows
):
    # every row is visited once, in (3, m) columns of at most sub_block_rows, at
    # positions that index the row-wise oracle's rows: in a mixture, the rows
    # each component picked, composed through every level of nesting
    lo = start % n
    hi = min(n, lo + length)
    keys = child_keys(root_key(seed, DOMAIN_TRIALS), 0, n)
    oracle_rows = oracles.sample_rows(spec, keys, 0)
    db = generate_database(seed, spec, n)
    runs = [
        (lambda visit: spec._visit_columns(keys, offset, visit, _Scratch.of(n, spec)), oracles.sample_rows(spec, keys, offset)),
        (lambda visit: GeneratedTrials(seed, spec, n).visit_columns(lo, hi, visit), oracle_rows[lo:hi]),
        (lambda visit: db.visit_columns(lo, hi, visit), oracle_rows[lo:hi]),
    ]
    for run, rows in runs:
        seen = np.zeros(len(rows), dtype=np.int64)

        def visit(cols, where):
            assert cols.shape == (3, rows[where].shape[0]) and cols.shape[1] <= sub_block_rows
            assert np.ascontiguousarray(cols.T).tobytes() == rows[where].tobytes()
            np.add.at(seen, where, 1)

        with mock.patch.object(geometry, "_SUB_BLOCK_ROWS", sub_block_rows):
            run(visit)
        assert seen.tolist() == [1] * len(rows)


# the block walk of GeneratedTrials with blocks of 7 keys and sub-blocks of 3, over 40
# trials: ranges that start and end inside, on and across block and sub-block bounds,
# one that ends in a short last block, and one inside a sub-block
_WALK_N, _WALK_BLOCK, _WALK_SUB = 40, 7, 3
_WALK_RANGES = [(0, 40), (3, 4), (5, 9), (7, 14), (6, 22), (13, 40), (20, 21), (1, 36)]
_RARE_CAP = Cap(Z_AXIS, 0.3)
_WALK_SPECS = {
    "uniform": UniformSphere(),
    "cap": Cap(UnitVector(0.6, 0.0, 0.8), 0.7),
    "fixed-axis": FixedAxis(X_AXIS.negated()),
    "rare-component": Mixture(((0.9, UniformSphere()), (0.1, _RARE_CAP))),
    "nested": Mixture(
        ((0.4, Mixture(((0.5, FixedAxis(Y_AXIS)), (0.5, UniformSphere())))), (0.6, Cap(X_AXIS, 1.2)))
    ),
}


@pytest.mark.parametrize("name", list(_WALK_SPECS))
def test_the_block_walk_equals_the_oracle_across_block_and_sub_block_bounds(monkeypatch, name):
    spec, seed = _WALK_SPECS[name], 2
    keys = child_keys(root_key(seed, DOMAIN_TRIALS), 0, _WALK_N)
    oracle = oracles.sample_rows(spec, keys, 0)
    if name == "rare-component":  # the cap's keys: in some blocks of 7, none
        picked = (key_uniform_column(keys, 0) >= 0.9).tolist()
        counts = {sum(picked[b : b + _WALK_BLOCK]) for b in range(0, _WALK_N, _WALK_BLOCK)}
        assert 0 in counts and len(counts) > 1
    monkeypatch.setattr(experiment, "_BLOCK_ROWS", _WALK_BLOCK)
    monkeypatch.setattr(geometry, "_SUB_BLOCK_ROWS", _WALK_SUB)
    trials = GeneratedTrials(seed, spec, _WALK_N)
    for lo, hi in _WALK_RANGES:
        rows = trials.rows(lo, hi)
        assert rows.T.flags.c_contiguous and rows.tobytes() == oracle[lo:hi].tobytes()
        seen = np.zeros(hi - lo, dtype=np.int64)

        def visit(cols, where):
            # the positions count from lo, across blocks
            assert cols.shape[1] <= _WALK_SUB
            assert np.ascontiguousarray(cols.T).tobytes() == oracle[lo:hi][where].tobytes()
            np.add.at(seen, where, 1)

        trials.visit_columns(lo, hi, visit)
        assert seen.tolist() == [1] * (hi - lo)


@pytest.mark.parametrize("lo,hi", [(0, 15), (-2, 3), (-1, 0), (5, 3), (11, 11), (10, 11)])
def test_both_trial_sources_reject_rows_outside_the_trials(lo, hi):
    for source in (GeneratedTrials(3, UniformSphere(), 10), generate_database(3, UniformSphere(), 10)):
        with pytest.raises(IndexError, match=rf"trials \[{lo}, {hi}\) outside \[0, 10\)"):
            source.rows(lo, hi)
        assert source.rows(0, 10).shape == (10, 3)
        assert source.rows(10, 10).shape == source.rows(4, 4).shape == (0, 3)


@pytest.mark.parametrize("k", [-1, 0, 9, 10])
def test_both_trial_sources_take_exactly_the_trials_they_hold(k):
    sources = (GeneratedTrials(3, UniformSphere(), 10), generate_database(3, UniformSphere(), 10))
    for source in sources:
        if 0 <= k < 10:
            assert source.spin(k).as_array().tobytes() == source.rows(k, k + 1)[0].tobytes()
        else:
            with pytest.raises(IndexError, match=rf"^trial {k} outside \[0, 10\)$"):
                source.spin(k)


# -- measurement ------------------------------------------------------------


def test_measure_sign_basic_cases():
    assert measure_sign(+1, Z_AXIS, Z_AXIS) == Outcome(1, False)
    assert measure_sign(-1, Z_AXIS, Z_AXIS) == Outcome(-1, False)
    assert measure_sign(+1, Z_AXIS, X_AXIS) == Outcome(1, True)
    assert measure_sign(-1, Z_AXIS, X_AXIS) == Outcome(1, True)
    with pytest.raises(ValueError):
        measure_sign(0, Z_AXIS, Z_AXIS)
    with pytest.raises(ValueError):
        Outcome(0)


def test_outcome_always_plus_minus_one():
    rng = np.random.default_rng(31)
    pairs = [(random_unit(rng), random_unit(rng)) for _ in range(400)]
    pairs += [(Z_AXIS, X_AXIS), (X_AXIS, Z_AXIS)]  # adversarial exact-orthogonal
    for s, a in pairs:
        for sign in (+1, -1):
            assert measure_sign(sign, s, a).value in (-1, 1)


def test_stations_see_opposite_outcomes_without_ties():
    rng = np.random.default_rng(32)
    for _ in range(400):
        s, a = random_unit(rng), random_unit(rng)
        pos, neg = measure_sign(+1, s, a), measure_sign(-1, s, a)
        if not pos.was_tie:
            assert pos.value == -neg.value


# -- setting selection ------------------------------------------------------


def test_unknown_setting_policy_is_rejected():
    # only the two drawn policies are kinds; fixed settings come from the caller
    db = generate_database(1, UniformSphere(), 3)
    stream = root_stream(0)
    for kind in ("fixed", "sideways", "Uniform", ""):
        with pytest.raises(ConfigurationError, match="unknown setting policy"):
            select_settings(kind, db, stream)
    assert stream == root_stream(0)  # nothing drawn


def test_single_trial_database_support():
    db = generate_database(1, FixedAxis(Z_AXIS), 1)
    a, b = select_settings("from-database", db, root_stream(0, 2))
    assert a == Z_AXIS and b == Z_AXIS


def test_database_policy_draws_members():
    db = generate_database(77, UniformSphere(), 10_000)
    member_rows = {db.spins[k].tobytes() for k in range(db.n)}
    stream = root_stream(77, 2)
    for _ in range(1000):
        a, b = select_settings("from-database", db, stream)
        assert a.as_array().tobytes() in member_rows
        assert b.as_array().tobytes() in member_rows


def test_uniform_policy_is_deterministic():
    db = generate_database(5, UniformSphere(), 10)
    first = select_settings("uniform", db, root_stream(5, 2))
    second = select_settings("uniform", db, root_stream(5, 2))
    assert first == second


# -- text format ------------------------------------------------------------


def test_database_text_round_trip_is_bit_exact():
    db = generate_database(123, UniformSphere(), 500)
    buf = io.StringIO()
    write_database(db, buf)
    text = buf.getvalue()
    assert text.startswith("bellsim-db v1 seed=123 dist=uniform-sphere n=500\n")
    back = read_database(io.StringIO(text))
    assert back.spins.tobytes() == db.spins.tobytes()
    assert back.seed == db.seed and back.n == db.n
    assert back.distribution == db.distribution
    # serialization is stable: writing the parsed copy reproduces the bytes
    buf2 = io.StringIO()
    write_database(back, buf2)
    assert buf2.getvalue() == text


def test_database_text_round_trip_grows_its_array_block_by_block():
    # more rows than the first block the reader allocates, and not a multiple of it
    db = generate_database(5, UniformSphere(), 2 * _WRITE_BLOCK_ROWS + 5)
    buf = io.StringIO()
    write_database(db, buf)
    back = read_database(io.StringIO(buf.getvalue()))
    assert back.spins.shape == db.spins.shape and back.spins.tobytes() == db.spins.tobytes()


def test_database_text_rejects_corruption():
    db = generate_database(1, UniformSphere(), 3)
    buf = io.StringIO()
    write_database(db, buf)
    good = buf.getvalue().splitlines()

    with pytest.raises(ConfigurationError):
        read_database(io.StringIO("not-a-header\n"))
    swapped = "\n".join([good[0], good[2], good[1], good[3]]) + "\n"
    with pytest.raises(ConfigurationError):
        read_database(io.StringIO(swapped))
    bad_row = "\n".join([good[0], "0 0.5 0.5 0.5", good[2], good[3]]) + "\n"
    with pytest.raises(ConfigurationError):
        read_database(io.StringIO(bad_row))


def _database_lines(n: int) -> list[str]:
    buf = io.StringIO()
    write_database(generate_database(1, UniformSphere(), n), buf)
    return buf.getvalue().splitlines()


def test_database_text_rejects_nan_row():
    good = _database_lines(2)
    text = "\n".join([good[0], "0 nan nan nan", good[2]]) + "\n"
    with pytest.raises(ConfigurationError):
        read_database(io.StringIO(text))


@pytest.mark.parametrize(
    "row", [(math.nan, 0.0, 1.0), (0.0, -math.inf, 0.0), (0.0, 0.0, 0.0), (0.0, 2.0, 0.0)]
)
def test_every_database_rejects_non_finite_and_non_unit_rows(row):
    # built directly or read from text, a database holds unit rows only, so no
    # tally ever reads a malformed one
    spins = np.array([(0.0, 0.0, 1.0), row])
    with pytest.raises(ConfigurationError, match="^database contains non-unit spin rows$"):
        TrialDatabase(seed=0, distribution=UniformSphere(), n=2, spins=spins)
    text = _database_lines(2)[0] + "\n" + "".join(_DB_ROW % (k, *r) for k, r in enumerate(spins))
    with pytest.raises(ConfigurationError, match="^database contains non-unit spin rows$"):
        read_database(io.StringIO(text))


@pytest.mark.parametrize("bad", [0, 6, 7, 13, 19])
def test_the_norm_check_reads_every_block(monkeypatch, bad):
    # blocks of 7 rows over 20: a bad row first, last or alone in a full block, or last
    # in the short last block, is found; the good rows pass in any block
    monkeypatch.setattr(experiment, "_BLOCK_ROWS", 7)
    spins = np.array(GeneratedTrials(4, UniformSphere(), 20).rows(0, 20))
    TrialDatabase(seed=4, distribution=UniformSphere(), n=20, spins=spins)
    spins[bad] *= 1.0 + 1e-9
    with pytest.raises(ConfigurationError, match="^database contains non-unit spin rows$"):
        TrialDatabase(seed=4, distribution=UniformSphere(), n=20, spins=spins)


def test_database_text_rejects_lines_after_last_trial():
    good = _database_lines(2)
    with pytest.raises(ConfigurationError):
        read_database(io.StringIO("\n".join(good + [good[2].replace("1 ", "2 ", 1)]) + "\n"))
    with pytest.raises(ConfigurationError):
        read_database(io.StringIO("\n".join(good + [""]) + "\n"))


@pytest.mark.parametrize("n", [10**13, 10**19])
def test_database_header_count_is_not_trusted_before_its_rows(n):
    # one row where the header promises n: a bad file, found before any array of n rows
    header, row = _database_lines(1)
    text = f"{header.removesuffix('n=1')}n={n}\n{row}\n"
    with pytest.raises(ConfigurationError, match="^bad or out-of-order trial line 1$"):
        read_database(io.StringIO(text))


@pytest.mark.parametrize("seed", ["-5", "18446744073709551616"])
def test_database_header_rejects_seed_out_of_range(seed):
    good = _database_lines(2)
    header = good[0].replace("seed=1 ", f"seed={seed} ")
    assert header != good[0]
    with pytest.raises(ConfigurationError, match="seed"):
        read_database(io.StringIO("\n".join([header] + good[1:]) + "\n"))


@pytest.mark.parametrize("seed", [-1, 2**64, True])
def test_database_rejects_a_seed_its_reader_would_refuse(seed):
    # a database is built only with a seed its header can carry back
    spins = np.array([(0.0, 0.0, 1.0)])
    with pytest.raises(ConfigurationError, match="seed"):
        TrialDatabase(seed=seed, distribution=UniformSphere(), n=1, spins=spins)
    db = TrialDatabase(seed=2**64 - 1, distribution=UniformSphere(), n=1, spins=spins)
    buf = io.StringIO()
    write_database(db, buf)
    assert read_database(io.StringIO(buf.getvalue())).seed == 2**64 - 1


@pytest.mark.parametrize(
    "n,spec,message",
    [
        (True, UniformSphere(), "^n must be a positive integer, got True$"),
        (0, UniformSphere(), "^n must be a positive integer, got 0$"),
        (1, "uniform-sphere", "^not a distribution spec: 'uniform-sphere'$"),
    ],
)
def test_a_database_rejects_what_generated_trials_reject(n, spec, message):
    # one row that would fit n = True; a spec given by its tag is not a spec
    spins = np.array([[0.0, 0.0, 1.0]])
    for build in (GeneratedTrials, lambda seed, d, k: TrialDatabase(seed, d, k, spins)):
        with pytest.raises(ConfigurationError, match=message):
            build(0, spec, n)


_LAYOUT_SPEC = parse_distribution("mixture(0.5:uniform-sphere;0.3:cap(0,1,0,0.7);0.2:fixed-axis(1,0,0))")


def _generated(seed, n):
    return generate_database(seed, _LAYOUT_SPEC, n)


def _read_back(seed, n):
    buf = io.StringIO()
    write_database(GeneratedTrials(seed, _LAYOUT_SPEC, n), buf)
    return read_database(io.StringIO(buf.getvalue()))


def _from_c_ordered_rows(seed, n):
    rows = np.ascontiguousarray(GeneratedTrials(seed, _LAYOUT_SPEC, n).rows(0, n))
    assert rows.flags.c_contiguous
    return TrialDatabase(seed, _LAYOUT_SPEC, n, rows)


@pytest.mark.parametrize("build", [_generated, _read_back, _from_c_ordered_rows])
def test_every_database_holds_read_only_unit_stride_columns(build):
    # n past two growths of the reader's array; visits of 3000 columns, the last one short
    n, seed = 2 * _WRITE_BLOCK_ROWS + 5, 11
    db = build(seed, n)
    assert db.spins.T.flags.c_contiguous and not db.spins.flags.writeable
    expected = oracles.sample_rows(_LAYOUT_SPEC, child_keys(root_key(seed, DOMAIN_TRIALS), 0, n))
    assert db.spins.tobytes() == expected.tobytes()
    for lo, hi in ((0, n), (123, n - 7)):
        seen = []

        def visit(cols, where):
            assert cols.strides[1] == 8 and not cols.flags.writeable
            assert np.shares_memory(cols, db.spins)
            assert np.ascontiguousarray(cols.T).tobytes() == expected[lo:hi][where].tobytes()
            seen.append((where.start, where.stop))

        with mock.patch.object(geometry, "_SUB_BLOCK_ROWS", 3000):
            db.visit_columns(lo, hi, visit)
        bounds = list(range(0, hi - lo, 3000))
        assert seen == [(a, min(a + 3000, hi - lo)) for a in bounds]


def _writable_rows(rows):
    return rows, rows


def _read_only_view(rows):
    view = rows[:]
    view.setflags(write=False)
    return view, rows


def _owned_read_only(rows):
    # an array that owns its data, read-only until its owner makes it writable again
    rows = rows.copy()
    rows.setflags(write=False)
    return rows, rows


@pytest.mark.parametrize("given", [_writable_rows, _read_only_view, _owned_read_only])
def test_a_database_keeps_its_own_read_only_copy_of_the_callers_rows(given):
    # a later write to the caller's array reaches no row the database validated
    spins, caller = given(np.tile([0.0, 0.0, 1.0], (5, 1)))
    db = TrialDatabase(seed=0, distribution=UniformSphere(), n=5, spins=spins)
    assert db.spins is not spins and not db.spins.flags.writeable
    before = chsh_statistic(db, CANONICAL_QUAD), estimate_correlation(db, Z_AXIS, Z_AXIS)
    caller.setflags(write=True)
    caller[:] = np.nan
    assert (chsh_statistic(db, CANONICAL_QUAD), estimate_correlation(db, Z_AXIS, Z_AXIS)) == before
    assert before[0].statistic == 2.0 and before[1].count_pos == 0
    assert np.array_equal(db.spins, np.tile([0.0, 0.0, 1.0], (5, 1)))


def test_only_generation_and_reading_hand_their_own_arrays_to_a_database():
    built = []
    rows = GeneratedTrials.rows

    def keep(self, lo, hi):
        built.append(rows(self, lo, hi))
        return built[-1]

    with mock.patch.object(GeneratedTrials, "rows", keep):
        db = generate_database(3, UniformSphere(), 10)
    assert len(built) == 1 and db.spins is built[0]
    spins = np.array([[0.0, 1.0, 0.0]] * 4)
    spins.setflags(write=False)
    assert TrialDatabase(seed=0, distribution=UniformSphere(), n=4, spins=spins).spins is not spins
    buf = io.StringIO()
    write_database(db, buf)
    back = read_database(io.StringIO(buf.getvalue()))
    assert back.spins.flags.owndata and not back.spins.flags.writeable


_SPELLINGS = {  # value-preserving spellings that Python's int() accepts
    "sign": lambda t: "+" + t,
    "leading-zero": lambda t: "0" + t,
    "zero-underscore": lambda t: "0_" + t,
    "underscore": lambda t: t[:1] + "_" + t[1:],
}


@pytest.mark.parametrize("spelling", list(_SPELLINGS))
@pytest.mark.parametrize("field", ["seed", "n", "row"])
def test_database_text_rejects_non_canonical_integers(field, spelling):
    # seed 10, n 11 and row index 10 all have two digits, so every spelling applies
    buf = io.StringIO()
    write_database(generate_database(10, UniformSphere(), 11), buf)
    lines = buf.getvalue().splitlines()
    if field == "row":
        index, rest = lines[11].split(" ", 1)
        lines[11] = f"{_SPELLINGS[spelling](index)} {rest}"
        assert int(lines[11].split(" ")[0]) == 10
    else:
        value = {"seed": "10", "n": "11"}[field]
        spelled = _SPELLINGS[spelling](value)
        assert int(spelled) == int(value)
        lines[0] = lines[0].replace(f" {field}={value}", f" {field}={spelled}")
    assert lines != buf.getvalue().splitlines()
    with pytest.raises(ConfigurationError):
        read_database(io.StringIO("\n".join(lines) + "\n"))


def test_database_text_rejects_double_zero_index():
    lines = _database_lines(2)
    lines[1] = "0" + lines[1]
    with pytest.raises(ConfigurationError):
        read_database(io.StringIO("\n".join(lines) + "\n"))


_B = _WRITE_BLOCK_ROWS


@pytest.mark.parametrize("n", [1, _B - 1, _B, _B + 1, 2 * _B + 3])
@pytest.mark.parametrize(
    "dist", ["uniform-sphere", "fixed-axis(0,-1,0)", "fixed-axis(-0,-1,-0)", "cap(0.6,0,0.8,0.3)"]
)
def test_block_writer_matches_per_row_writer(n, dist):
    db = generate_database(11, parse_distribution(dist), n)
    fast, slow = io.StringIO(), io.StringIO()
    write_database(db, fast)
    write_database_per_row(db, slow)
    assert first_line_difference(fast.getvalue(), slow.getvalue()) is None
    assert fast.getvalue().count("\n") == n + 1
    if dist == "fixed-axis(-0,-1,-0)":
        assert fast.getvalue().splitlines()[-1].endswith(" -0 -1 -0")


# the writer's walk of generated trials: one generation sub-block at a time
_WALK = geometry._SUB_BLOCK_ROWS
_BENCH_MIXTURE = "mixture(0.5:uniform-sphere;0.5:cap(0,0,1,0.8))"  # the benchmark chsh's spins


# each n crosses a walk block, slices of _B and the index word added at 10^4, which lies
# inside the slice [2 * _B, 3 * _B)
@pytest.mark.parametrize("n", [_WALK + _B + 7, 2 * _WALK + 1])
@pytest.mark.parametrize(
    "dist", ["uniform-sphere", _BENCH_MIXTURE, "cap(0,0,1,0.5)", "fixed-axis(1e-5,0,1)"]
)
def test_writer_equals_the_per_row_oracle_for_generated_trials_and_their_database(n, dist):
    trials = GeneratedTrials(8, parse_distribution(dist), n)
    db = generate_database(8, trials.distribution, n)
    expected = io.StringIO()
    write_database_per_row(db, expected)
    for source in (trials, db):
        out = io.StringIO()
        spliced = write_database(source, out)
        assert first_line_difference(out.getvalue(), expected.getvalue()) is None
        assert spliced == (n if dist.startswith("fixed-axis") else _outside_kernel(db.spins))


# rows the row format writes in exponent form, as integers or as "-0", placed at the first
# and last column of slices, beside the index word added at 10^4 and at the ends
_ODD_ROWS = [
    (1e-5, 0.0, math.sqrt(1.0 - 1e-10)),
    (-0.0, -1.0, 0.0),
    (5e-324, 1.0, -0.0),
    (0.6, -0.0, -0.8),
    (-1e-4, math.sqrt(1.0 - 1e-8), 0.0),
]
_AT = [0, 1, _B - 1, _B, 2 * _B - 1, 9_999, 10_000, 10_001, 3 * _B - 1, 3 * _B]


@pytest.mark.parametrize("n", [10_002, 3 * _B + 1, _WALK + 1])
def test_writer_equals_the_per_row_oracle_for_a_database_of_arbitrary_rows(n):
    rng = np.random.default_rng(n)
    spins = rng.normal(size=(n, 3))
    spins /= np.sqrt((spins * spins).sum(axis=1))[:, None]
    for j, k in enumerate(k for k in _AT if k < n):
        spins[k] = _ODD_ROWS[j % len(_ODD_ROWS)]
    spins[n - 1] = _ODD_ROWS[0]
    db = TrialDatabase(seed=2, distribution=UniformSphere(), n=n, spins=spins)
    fast, slow = io.StringIO(), io.StringIO()
    assert write_database(db, fast) == _outside_kernel(spins)
    write_database_per_row(db, slow)
    assert first_line_difference(fast.getvalue(), slow.getvalue()) is None


def _scaled_oracle(v: float, xi: int) -> tuple[int, int]:
    # floor and round-half-even of v * 10^(16 + xi), in Python's integers
    num, den = v.as_integer_ratio()
    floor, rem = divmod(num * 10 ** (16 + xi), den)
    return floor, floor + (2 * rem > den or (2 * rem == den and floor % 2 == 1))


def test_scaled_is_exact_at_each_exponent_and_its_neighbours():
    # the exponent the kernel tries first is floor(log10 |v|) or one off it, and the
    # redo takes the true one; _scaled is exact at all three
    rng = np.random.default_rng(5)
    edges = [np.nextafter(10.0**-p, d) for p in range(5) for d in (0.0, 2.0)]
    ties = [0.5 + (2 * j + 1) * 2.0**-18 for j in range(8)]  # each a tie at 17 digits
    mag = np.concatenate([10 ** rng.uniform(-4, 0, 2000), [10.0**-p for p in range(5)], edges, ties])
    mag = mag[(mag >= 1e-4) & (mag <= 1.0)]
    exponent = -np.floor(np.log10(mag)).astype(np.intp)
    for shift in (-1, 0, 1):
        xi = np.clip(exponent + shift, 0, 4)
        floor, sig = _scaled(mag, xi)
        expected = [_scaled_oracle(v, x) for v, x in zip(mag.tolist(), xi.tolist())]
        assert list(zip(floor.tolist(), sig.tolist())) == expected


_AXES = [X_AXIS, Y_AXIS, Z_AXIS, UnitVector(-0.0, -1.0, -0.0), UnitVector(-0.0, -0.0, 1.0)]
_unit_rows = st.one_of(
    st.sampled_from([(v.x, v.y, v.z) for v in _AXES]),
    st.tuples(*[st.floats(-1.0, 1.0)] * 3)
    .filter(lambda v: math.hypot(*v) > 1e-3)
    .map(lambda v: tuple(np.array(v) / math.hypot(*v))),
)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), rows=st.lists(_unit_rows, min_size=1, max_size=50))
@example(seed=2**64 - 1, rows=[(-0.0, -1.0, -0.0), (5e-324, -1.0, 0.0)])
def test_database_text_round_trip_property(seed, rows):
    spins = np.array(rows, dtype=np.float64)
    db = TrialDatabase(seed=seed, distribution=UniformSphere(), n=len(rows), spins=spins)
    buf, slow = io.StringIO(), io.StringIO()
    write_database(db, buf)
    write_database_per_row(db, slow)
    text = buf.getvalue()
    assert text == slow.getvalue()
    back = read_database(io.StringIO(text))
    assert back.seed == seed and back.n == db.n
    assert back.spins.tobytes() == spins.tobytes()
    again = io.StringIO()
    write_database(back, again)
    assert again.getvalue() == text


def _rows_oracle(rows, lo: int) -> str:
    return "".join(_DB_ROW % (k, *row) for k, row in enumerate(np.asarray(rows).tolist(), lo))


def _format_rows(rows, lo: int):
    # the column kernel on the (3, m) columns of the (m, 3) rows
    return _format_columns(np.asarray(rows, dtype=np.float64).T, lo)


# the boundaries of the kernel's domain and of each decimal exponent in it
_EDGES = [
    v
    for p in range(5)
    for v in (10.0**-p, np.nextafter(10.0**-p, 0.0), np.nextafter(10.0**-p, 2.0))
] + [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-5, 1.5, 1e300, 0.5 + 2**-18]
_any_finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1.0, 1.0),
    st.tuples(st.floats(1e-4, 1e-3) | st.sampled_from(_EDGES), st.sampled_from([1.0, -1.0])).map(
        math.prod
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(st.tuples(_any_finite, _any_finite, _any_finite), min_size=1, max_size=40),
    lo=st.one_of(
        st.integers(0, 2**64 - 41),
        st.sampled_from([10**p - 3 for p in range(1, 20)]),
        st.sampled_from([10 ** (4 * k) - 2 for k in range(1, 5)]),  # where an index word is added
    ),
)
def test_row_kernel_matches_the_row_format_on_any_finite_floats(rows, lo):
    assert _format_rows(np.array(rows, dtype=np.float64), lo)[0] == _rows_oracle(rows, lo)


def test_row_kernel_rounds_ties_to_even():
    # each is a tie at 17 digits; the even neighbour wins
    row = np.array([[0.5 + 2**-18, 0.5 + 3 * 2**-18, -(0.5 + 2**-18)]])
    text = "0 0.50000381469726562 0.50001144409179688 -0.50000381469726562\n"
    assert _format_rows(row, 0)[0] == text


def test_row_kernel_corrects_the_log10_exponent_near_powers_of_ten():
    # the neighbours of 1, 0.1, ..., 0.001 below and of 0.1, ..., 1e-4 above; those
    # below are also the doubles nearest to a rounding carry into an 18th digit
    below = [np.nextafter(10.0**-p, 0.0) for p in range(4)]
    above = [np.nextafter(10.0**-p, 1.0) for p in range(1, 5)]
    rows = np.array([below[:3], [below[3], *above[:2]], [*above[2:], 1e-4]])
    text = _format_rows(rows, 0)[0]
    assert text == _rows_oracle(rows, 0)
    assert text.startswith("0 0.99999999999999989 0.099999999999999992 0.0099999999999999985\n")


@pytest.mark.parametrize("lo", [10**p - 2 for p in range(1, 20)] + [2**64 - 4])
def test_row_kernel_writes_every_index_width(lo):
    rows = np.tile([0.25, -0.5, 1.0], (4, 1))
    text = _format_rows(rows, lo)[0]
    assert text == _rows_oracle(rows, lo)
    assert text.splitlines()[-1].startswith(f"{lo + 3} ")


def test_row_kernel_sends_rows_outside_its_domain_to_the_row_format():
    values = [1e-5, -2.0, 5e-324, np.inf, np.nan, 1.0, -0.0, 0.3]
    rows = np.array([[v, 0.5, -0.25] for v in values] + [[0.5, v, 0.125] for v in values])
    # no numpy warning or error: out-of-domain values never reach the integer path
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        text = _format_rows(rows, 7)[0]
    assert text == _rows_oracle(rows, 7)
    assert "1.0000000000000001e-05" in text and " -2 " in text and " nan " in text


@pytest.mark.parametrize("lo", [0, 9_999, 10**8 - 1, 2**64 - 1])
def test_row_format_rows_of_the_greatest_length_fill_their_words(lo):
    # a row outside the domain is written into its own 4 * (w + 19) bytes: an index of
    # 4 * w digits and three components of the longest %.17g text fill them exactly
    rows = np.array([[-2.2250738585072014e-308, -4.9406564584124654e-324, -1.7976931348623157e308]])
    text = _format_rows(rows, lo)[0]
    assert text == _rows_oracle(rows, lo)
    assert len(text) == len(str(lo)) + 3 * 25 + 1


@pytest.mark.parametrize(
    "dist",
    [
        "uniform-sphere",
        "fixed-axis(-0,-1,-0)",
        "cap(0.6,0,0.8,0.3)",
        "mixture(0.5:uniform-sphere;0.5:cap(0,0,1,0.8))",
    ],
)
def test_writer_streams_generated_trials_as_it_writes_the_database(dist):
    trials = GeneratedTrials(3, parse_distribution(dist), 2 * _B + 5)
    streamed, stored = io.StringIO(), io.StringIO()
    write_database(trials, streamed)
    write_database_per_row(generate_database(3, trials.distribution, trials.n), stored)
    assert first_line_difference(streamed.getvalue(), stored.getvalue()) is None


def _table_text(words) -> list[bytes]:
    return [word.tobytes() for word in np.asarray(words).view(np.uint8).reshape(-1, 4)]


def test_kernel_word_tables_hold_every_word_stripped_and_whole():
    tables = _kernel_tables()
    whole = [f"{w:04d}".encode() for w in range(10_000)]
    assert _table_text(tables.index[:10_000]) == [t.lstrip(b"0").rjust(4, b"\0") for t in whole]
    assert _table_text(tables.trail[:10_000]) == [t.rstrip(b"0").ljust(4, b"\0") for t in whole]
    assert _table_text(tables.index[10_000:]) == whole == _table_text(tables.trail[10_000:])
    for neg in (0, 1):
        for x in range(0, -5, -1):
            prefix = " " + "-" * neg + ("0." + "0" * (-x - 1) if x else "")
            for digit in range(10):
                word = tables.lead[10 * (5 * neg - x) + digit].tobytes()
                assert word == (prefix + str(digit)).encode().rjust(8, b"\0")
    assert all(not table.flags.writeable for table in tables)


# the kernel's domain (1e-4 <= |v| <= 1, and +-0) sends a row with any other
# component through the row format
def _outside_kernel(rows) -> int:
    mag = np.abs(np.asarray(rows, dtype=np.float64))
    return int((~((mag == 0.0) | ((mag >= 1e-4) & (mag <= 1.0)))).any(axis=1).sum())


@pytest.mark.parametrize(
    "dist",
    [
        "uniform-sphere",
        "fixed-axis(-0,-1,-0)",
        "cap(0.6,0,0.8,0.3)",
        "mixture(0.5:uniform-sphere;0.5:cap(0,0,1,0.8))",
    ],
)
def test_written_database_holds_no_nul_and_counts_its_row_format_rows(dist):
    trials = GeneratedTrials(4, parse_distribution(dist), 2 * _B + 5)
    buf = io.StringIO()
    spliced = write_database(trials, buf)
    assert "\0" not in buf.getvalue()
    assert spliced == _outside_kernel(trials.rows(0, trials.n))


_TINY = (1e-5, 0.0, math.sqrt(1.0 - 1e-10))  # a unit row outside the kernel's domain


@pytest.mark.parametrize("at", [[0], [_B - 1], [_B], [0, 1, 2], [3, _B + 4, 2 * _B]])
def test_rows_outside_the_kernel_are_spliced_in_without_nul(at):
    spins = np.tile([0.6, 0.0, -0.8], (2 * _B + 1, 1))
    spins[at] = _TINY
    spins[at[-1] - 1] = (5e-324, -1.0, 0.0)
    db = TrialDatabase(seed=1, distribution=UniformSphere(), n=spins.shape[0], spins=spins)
    fast, slow = io.StringIO(), io.StringIO()
    assert write_database(db, fast) == _outside_kernel(spins) == len(set(at) | {at[-1] - 1})
    write_database_per_row(db, slow)
    assert first_line_difference(fast.getvalue(), slow.getvalue()) is None
    assert "\0" not in fast.getvalue()


@pytest.mark.parametrize("lo", [0, 1] + [10 ** (4 * k) + d for k in range(1, 5) for d in (-3, 0)])
def test_row_kernel_text_holds_no_nul_at_any_index_width(lo):
    rows = np.array([[0.5, -0.25, 1.0], _TINY, [-0.0, 0.0, -1.0], [0.1, 0.2, 0.3]])
    text = _format_rows(rows, lo)[0]
    assert text == _rows_oracle(rows, lo)
    assert "\0" not in text


# 17-digit significands with zero words inside or at the end, by the four words
# after the leading digit, then ones and signed zeros
_PINNED = [
    (0.50000000000000011, "0.50000000000000011"),  # 0000 0000 0000 0011
    (0.1, "0.10000000000000001"),  # 0000 0000 0000 0001
    (0.50000000100000008, "0.50000000100000008"),  # 0000 0001 0000 0008
    (0.12340000000000567, "0.12340000000000567"),  # 2340 0000 0000 0567
    (0.1000000000000001, "0.1000000000000001"),  # one trailing zero
    (0.001007080078125, "0.001007080078125"),  # 33 / 2**15: 4 trailing zeros
    (0.1000000000001, "0.1000000000001"),  # 0000 0000 0001 0000
    (0.103515625, "0.103515625"),  # 53 / 2**9: 8 trailing zeros
    (0.15625, "0.15625"),  # 5 / 2**5: 12 trailing zeros
    (0.0625, "0.0625"),
    (0.5, "0.5"),  # 16 trailing zeros
    (1.0, "1"),
    (-1.0, "-1"),
    (0.0, "0"),
    (-0.0, "-0"),
]


def test_row_kernel_writes_pinned_significands_with_zero_words():
    rows = np.array([[v, -v, v] for v, _ in _PINNED])
    text = _format_rows(rows, 9_998)[0]
    assert text == _rows_oracle(rows, 9_998)
    expected = [(t, t[1:] if t[0] == "-" else "-" + t) for _, t in _PINNED]
    assert text.splitlines() == [f"{k} {t} {neg} {t}" for k, (t, neg) in enumerate(expected, 9_998)]
