"""Counter stream pins: scalar/vector agreement, determinism, derivation."""

import numpy as np

from bellsim import UniformSphere, geometry
from bellsim.rng import (
    _GOLDEN,
    _MASK,
    _MIX1,
    _MIX2,
    CounterStream,
    child_key,
    child_keys,
    key_uniform_column,
    mix64,
    mix64_array,
    root_key,
    root_stream,
)

from oracles import kernel_rows


def test_scalar_and_vector_mix_agree():
    rng = np.random.default_rng(11)
    inputs = rng.integers(0, 2**64, size=5000, dtype=np.uint64)
    vec = mix64_array(inputs)
    sca = np.array([mix64(int(v)) for v in inputs], dtype=np.uint64)
    assert (vec == sca).all()


def test_mixing_leaves_the_callers_keys_as_they_are():
    # the draws mix a temporary in place; the caller's array is never it
    keys = child_keys(root_key(3, 1), 0, 100)
    kept = keys.copy()
    mix64_array(keys)
    key_uniform_column(keys, 4)
    kernel_rows(UniformSphere(), keys, 8)
    assert keys.tobytes() == kept.tobytes()


def test_key_draws_take_any_integer_key_array_as_uint64():
    keys = child_keys(root_key(3, 1), 0, 100)
    signed = keys.view(np.int64)  # keys past 2**63 read as negative
    assert (signed < 0).any()
    assert key_uniform_column(signed, 2).tobytes() == key_uniform_column(keys, 2).tobytes()


def test_uniforms_match_scalar_draws():
    s1 = CounterStream(key=root_key(99, 1))
    s2 = CounterStream(key=root_key(99, 1))
    batch = s1.uniforms(64)
    singles = [s2.uniform() for _ in range(64)]
    assert batch.tolist() == singles
    assert s1.counter == s2.counter == 64


def test_key_uniform_column_matches_stream():
    keys = child_keys(root_key(5, 1), 0, 40)
    for pos in (0, 1, 7):
        col = key_uniform_column(keys, pos)
        for i, k in enumerate(keys):
            assert col[i] == CounterStream(int(k), counter=pos).uniform()


def test_child_keys_match_scalar_derivation():
    base = root_key(1234, 2)
    vec = child_keys(base, 10, 50)
    sca = [child_key(base, i) for i in range(10, 50)]
    assert vec.tolist() == sca
    stream_children = [CounterStream(base).derive(i).key for i in range(10, 50)]
    assert stream_children == sca
    # the counters double in place: lengths around powers of two, and none
    start = 2**64 - 70  # the counters wrap past 2**64
    for m in (0, 1, 2, 3, 4, 5, 63, 64, 65, 129):
        assert child_keys(base, start, start + m).tolist() == [
            child_key(base, i) for i in range(start, start + m)
        ]
    out, shift = np.empty(65, dtype=np.uint64), np.empty(65, dtype=np.uint64)
    assert child_keys(base, 3, 68, out, shift) is out
    assert out.tolist() == [child_key(base, i) for i in range(3, 68)]


def test_same_state_same_values():
    a = root_stream(7, 3)
    b = a.clone()
    assert [a.uniform() for _ in range(10)] == [b.uniform() for _ in range(10)]


def test_uniforms_in_open_interval():
    u = root_stream(0).uniforms(200_000)
    assert u.min() > 0.0 and u.max() < 1.0
    # crude uniformity: decile counts within 5 sigma of 20k
    counts, _ = np.histogram(u, bins=10, range=(0.0, 1.0))
    sigma = (200_000 * 0.1 * 0.9) ** 0.5
    assert (np.abs(counts - 20_000) < 5 * sigma).all()


def _unmix64(z: int) -> int:
    # the inverse of the SplitMix64 finalizer, a bijection of 64-bit integers
    def unshift(y, s):  # inverts y = x ^ (x >> s)
        x = y
        for _ in range(64 // s):
            x = y ^ (x >> s)
        return x

    z = unshift(z, 31)
    z = (z * pow(_MIX2, -1, 1 << 64)) & _MASK
    z = unshift(z, 27)
    z = (z * pow(_MIX1, -1, 1 << 64)) & _MASK
    return unshift(z, 30)


def test_the_top_raw_draws_give_a_uniform_of_exactly_one():
    # (2**53 - 1) + 0.5 rounds to 2**53, so uniforms lie in (0, 1], not (0, 1)
    assert all(_unmix64(mix64(z)) == z for z in (0, 1, _GOLDEN, _MASK, 0x123456789ABCDEF))
    key = (_unmix64(_MASK) - _GOLDEN) & _MASK  # its first draw is raw 2**64 - 1
    assert CounterStream(key).raw() == _MASK
    assert CounterStream(key).uniform() == 1.0
    assert CounterStream(key).uniforms(1).tolist() == [1.0]
    assert key_uniform_column(np.array([key], dtype=np.uint64), 0).tolist() == [1.0]
    # Box-Muller of u1 = u3 = 1 is the zero triple, which the samplers must redraw
    out = np.empty((3, 1))
    geometry._gaussian_columns(np.array([[1.0], [0.3], [1.0], [0.7]]), out)
    assert out.ravel().tolist() == [0.0, 0.0, 0.0]
    assert np.sqrt((out * out).sum()) < geometry._REJECT_NORM


def test_domains_and_seeds_separate_streams():
    assert root_key(1, 1) != root_key(1, 2)
    assert root_key(1, 1) != root_key(2, 1)
    a = root_stream(1, 1).uniforms(8)
    b = root_stream(1, 2).uniforms(8)
    assert not np.array_equal(a, b)


def test_index_below_range_and_determinism():
    s = root_stream(42, 2)
    draws = [s.index_below(7) for _ in range(2000)]
    assert all(0 <= d < 7 for d in draws)
    replay = root_stream(42, 2)
    assert draws == [replay.index_below(7) for _ in range(2000)]
    counts = np.bincount(draws, minlength=7)
    sigma = (2000 / 7 * (1 - 1 / 7)) ** 0.5
    assert (np.abs(counts - 2000 / 7) < 5 * sigma).all()


def test_derive_does_not_consume_parent():
    s = root_stream(3)
    before = s.counter
    s.derive(5)
    assert s.counter == before
    assert s.derive(5).key == s.derive(5).key != s.derive(6).key
