"""Unit-norm invariants, angle arithmetic, and sampling uniformity."""

import math

import numpy as np
import pytest

from bellsim import (
    UniformSphere,
    UnitVector,
    angle_between,
    direction_at_angle,
    sample_uniform_direction,
)
from bellsim.geometry import Z_AXIS, orthonormal_basis, sample_uniform_directions
from bellsim.rng import CounterStream, child_keys, root_key, root_stream

from oracles import random_unit


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
    rows = UniformSphere()._sample_rows(keys, 0)
    for i, k in enumerate(keys):
        v = sample_uniform_direction(CounterStream(int(k)))
        assert rows[i].tolist() == [v.x, v.y, v.z]


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
