"""Unit-norm invariants, angle arithmetic, and sampling uniformity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim import (
    UniformSphere,
    geometry,
    UnitVector,
    angle_between,
    direction_at_angle,
    sample_uniform_direction,
)
from bellsim.geometry import Z_AXIS, orthonormal_basis, sample_uniform_directions
from bellsim.rng import CounterStream, child_keys, root_key, root_stream

from oracles import kernel_rows, random_unit


def test_unit_vector_accepts_unit_and_rejects_other():
    UnitVector(0.0, 0.0, 1.0)
    UnitVector(1 / math.sqrt(3), 1 / math.sqrt(3), 1 / math.sqrt(3))
    with pytest.raises(ValueError):
        UnitVector(0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        UnitVector.normalize(0.0, 0.0, 0.0)
    v = UnitVector.normalize(3.0, -4.0, 12.0)
    assert abs(v.x**2 + v.y**2 + v.z**2 - 1.0) <= 1e-12


def test_direction_at_angle_axes():
    assert direction_at_angle(0.0) == UnitVector(0.0, 0.0, 1.0)
    v = direction_at_angle(math.pi / 2)
    assert v.x == 1.0 and v.y == 0.0 and abs(v.z) < 1e-12
    w = direction_at_angle(math.pi)
    assert abs(w.x) < 1e-12 and w.y == 0.0 and abs(w.z + 1.0) < 1e-12
    with pytest.raises(ValueError):
        direction_at_angle(math.inf)


def test_angle_between_basic_cases():
    a = UnitVector.normalize(1.0, 2.0, -0.5)
    assert angle_between(a, a) == 0.0
    assert angle_between(a, a.negated()) == math.pi
    assert angle_between(UnitVector(1, 0, 0), UnitVector(0, 0, 1)) == pytest.approx(math.pi / 2)


def test_angle_between_symmetric_exactly():
    rng = np.random.default_rng(5)
    for _ in range(500):
        u, v = random_unit(rng), random_unit(rng)
        assert angle_between(u, v) == angle_between(v, u)


def test_angle_between_recovers_plane_angle():
    for theta in np.linspace(0.0, math.pi, 91):
        got = angle_between(direction_at_angle(0.0), direction_at_angle(float(theta)))
        assert got == pytest.approx(float(theta), abs=1e-9)


def test_sampling_is_deterministic_in_stream_state():
    a = sample_uniform_direction(root_stream(23, 1))
    b = sample_uniform_direction(root_stream(23, 1))
    assert a == b
    # consuming moves the state, the next draw differs
    s = root_stream(23, 1)
    first, second = sample_uniform_direction(s), sample_uniform_direction(s)
    assert first != second


def test_scalar_and_batched_key_sampling_agree():
    keys = child_keys(root_key(77, 1), 0, 25)
    rows = kernel_rows(UniformSphere(), keys, 0)
    for i, k in enumerate(keys):
        v = sample_uniform_direction(CounterStream(int(k)))
        assert rows[i].tolist() == [v.x, v.y, v.z]


def test_short_triples_are_redrawn_after_the_batch_in_order(monkeypatch):
    # a rejection norm of 1 makes about 20% of the triples short, and about 4% short
    # twice or more in a row
    monkeypatch.setattr(geometry, "_REJECT_NORM", 1.0)
    attempts = []
    for seed in range(10):
        for count in (1, 64):
            stream, reference = root_stream(seed, 1), root_stream(seed, 1)
            rows = sample_uniform_directions(stream, count)
            expected = []
            for triple in geometry._gaussian_triples(reference, count).T.tolist():
                attempts.append(1)
                while math.sqrt(sum(g * g for g in triple)) < 1.0:
                    attempts[-1] += 1
                    triple = geometry._gaussian_triples(reference, 1)[:, 0].tolist()
                norm = math.sqrt(sum(g * g for g in triple))
                expected.append([g / norm for g in triple])
            assert rows.tolist() == expected
            assert stream == reference
    assert max(attempts) >= 3


def test_every_sample_is_normalized():
    # 1e5 random constructions, all satisfying the norm invariant
    rows = sample_uniform_directions(root_stream(4, 1), 100_000)
    err = np.abs(np.sum(rows * rows, axis=1) - 1.0)
    assert err.max() <= 1e-12


def test_uniformity_statistics_at_one_million():
    rows = sample_uniform_directions(root_stream(2024, 1), 1_000_000)
    n = rows.shape[0]
    # CLT: mean vector norm ~ 1/sqrt(n), 0.01 is a 10x margin
    assert math.sqrt(float(np.sum(rows.mean(axis=0) ** 2))) <= 0.01
    # hemisphere balance: binomial with p = 1/2, 3 sigma = 0.0015
    frac_z = float(np.count_nonzero(rows[:, 2] > 0)) / n
    assert 0.4985 <= frac_z <= 0.5015
    # octant occupancy within 4 sigma of n/8
    octant = (rows[:, 0] > 0).astype(int) * 4 + (rows[:, 1] > 0).astype(int) * 2 + (
        rows[:, 2] > 0
    ).astype(int)
    counts = np.bincount(octant, minlength=8)
    sigma = math.sqrt(n * (1 / 8) * (7 / 8))
    assert (np.abs(counts - n / 8) <= 4 * sigma).all()


def test_orthonormal_basis_properties():
    rng = np.random.default_rng(9)
    for _ in range(200):
        axis = random_unit(rng).as_array()
        e1, e2 = orthonormal_basis(axis)
        for v in (e1, e2):
            assert abs(float(v @ v) - 1.0) < 1e-12
        assert abs(float(e1 @ e2)) < 1e-12
        assert abs(float(e1 @ axis)) < 1e-12
        assert abs(float(e2 @ axis)) < 1e-12
    again1, again2 = orthonormal_basis(Z_AXIS.as_array())
    repeat1, repeat2 = orthonormal_basis(Z_AXIS.as_array())
    assert again1.tolist() == repeat1.tolist() and again2.tolist() == repeat2.tolist()


def _normalize_before(x: float, y: float, z: float) -> UnitVector:
    # UnitVector.normalize before it rejected non-finite components and
    # rescaled vectors whose squares overflow
    n = math.sqrt(x * x + y * y + z * z)
    if n < 1e-6:
        raise ValueError("cannot normalize near-zero vector")
    return UnitVector(x / n, y / n, z / n)


def _bits(v: UnitVector) -> tuple[str, str, str]:
    return v.x.hex(), v.y.hex(), v.z.hex()


_components = st.one_of(
    st.floats(),
    st.floats(-2.0, 2.0),
    st.sampled_from([0.0, -0.0, 1e-300, 1e154, -1e155, 1e308, -1.7e308, math.inf, math.nan]),
)


@settings(max_examples=500, deadline=None)
@given(v=st.tuples(_components, _components, _components))
def test_normalize_keeps_every_vector_it_accepted_before_bit_for_bit(v):
    try:
        before = _normalize_before(*v)
    except ValueError:
        before = None
    try:
        after = UnitVector.normalize(*v)
    except ValueError as exc:
        assert before is None
        if not all(map(math.isfinite, v)):
            assert "non-finite" in str(exc)
        return
    if before is not None:
        assert _bits(after) == _bits(before)
    else:  # accepted only now: finite components whose squares overflow
        assert all(map(math.isfinite, v)) and math.isinf(sum(c * c for c in v))


def test_rng_seeded_normalize_matches_the_old_expression():
    rng = np.random.default_rng(14)
    scales = 10.0 ** rng.integers(-5, 150, size=(2000, 1))
    for v in (rng.normal(size=(2000, 3)) * scales).tolist():
        assert _bits(UnitVector.normalize(*v)) == _bits(_normalize_before(*v))


def test_normalize_rescales_overflowing_squares_and_names_non_finite_components():
    assert UnitVector.normalize(1e308, 1e308, 0.0) == UnitVector.normalize(1.0, 1.0, 0.0)
    assert UnitVector.normalize(0.0, -1.7e308, 0.0) == UnitVector(0.0, -1.0, 0.0)
    v = UnitVector.normalize(1e200, 3e199, -4e199)
    assert abs(v.x**2 + v.y**2 + v.z**2 - 1.0) <= 1e-12
    for bad in [(math.nan, 0.0, 1.0), (0.0, math.inf, 0.0), (1.0, 1.0, -math.inf)]:
        with pytest.raises(ValueError, match="non-finite") as info:
            UnitVector.normalize(*bad)
        assert str(bad) in str(info.value)
