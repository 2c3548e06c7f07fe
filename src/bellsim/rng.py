"""Counter-based deterministic random number generation.

Every random quantity in the simulator is a pure function of a 64-bit
seed, a domain tag, a stream index, and a draw position. There is no
global generator state: draw ``j`` of stream ``(seed, domain, index)``
is obtained by hashing the position with the SplitMix64 finalizer.
This is what makes the simulator reproducible under any partitioning
of the work: trial ``k`` of a database owns its private stream, so the
values it consumes cannot depend on generation order or worker count.

The SplitMix64 construction (additive counter with golden-ratio
increment, followed by a 64-bit avalanche mix) passes BigCrush and is
trivially vectorizable with numpy uint64 arithmetic. The scalar and
array code paths below are kept bit-identical; a test pins this.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # 2**64 / phi, odd
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_DERIVE_SALT = 0xD6E8FEB86659FD93  # separates child-key derivation from draws

# Domain tags keep unrelated uses of the same user seed on disjoint streams.
# No command draws from DOMAIN_FRESH: `chsh --mode fresh` seeds its three
# fresh sets from DOMAIN_SEARCH, as `search` does, and the recorded fresh-mode
# digests pin that choice.
DOMAIN_TRIALS = 1
DOMAIN_SETTINGS = 2
DOMAIN_FRESH = 3
DOMAIN_SEARCH = 4


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer (scalar path)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def mix64_array(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, elementwise on a uint64 array.

    Must stay bit-identical to :func:`mix64`; uint64 arithmetic wraps
    mod 2**64 exactly like the masked scalar path. ``z`` is left as it is.
    """
    return _mix64_inplace(z.astype(np.uint64, copy=True))


def _mix64_inplace(z: np.ndarray, shift: np.ndarray | None = None) -> np.ndarray:
    # mix64_array on a uint64 temporary the caller owns, overwriting it; the
    # uint64 ``shift``, shaped like z, holds each shifted copy (made if not given)
    shift = np.empty_like(z) if shift is None else shift
    z ^= np.right_shift(z, np.uint64(30), out=shift)
    z *= np.uint64(_MIX1)
    z ^= np.right_shift(z, np.uint64(27), out=shift)
    z *= np.uint64(_MIX2)
    z ^= np.right_shift(z, np.uint64(31), out=shift)
    return z


def _to_open_unit(raw: np.ndarray, out: np.ndarray) -> np.ndarray:
    # 53-bit mantissa, shifted off zero so log() is always finite: (0, 1].
    # The top 2**11 raw values give exactly 1.0, since (2**53 - 1) + 0.5
    # rounds to 2**53 in float64 (probability 2**-53 per draw).
    # Written into the float64 ``out``, in place; ``raw`` is overwritten.
    raw >>= np.uint64(11)
    out[...] = raw
    out += 0.5
    out *= 2.0**-53
    return out


def root_key(seed: int, domain: int = 0) -> int:
    """Stream key for (seed, domain). Domains never share draws."""
    return mix64((mix64(seed & _MASK) + domain * _GOLDEN) & _MASK)


def child_key(key: int, index: int) -> int:
    """Key of the index-th substream of a stream (scalar path)."""
    return mix64(((key ^ _DERIVE_SALT) + (index + 1) * _GOLDEN) & _MASK)


def child_keys(key: int, start: int, stop: int, out=None, shift=None) -> np.ndarray:
    """Vectorized :func:`child_key` for indices ``start..stop-1``.

    Written into the uint64 ``out`` if given, with the uint64 ``shift`` as
    the mix's scratch; each is made if not given. Index start + j is j
    golden-ratio steps past start, in wrapping uint64 arithmetic: the counters
    double in place, each copy k steps past the counters before it, so no
    temporary is made and freed per call.
    """
    m = stop - start
    out = np.empty(m, dtype=np.uint64) if out is None else out
    if m:
        out[0] = ((key ^ _DERIVE_SALT) + (start + 1) * _GOLDEN) & _MASK
    k = 1
    while k < m:
        j = min(k, m - k)
        np.add(out[:j], np.uint64((k * _GOLDEN) & _MASK), out=out[k : k + j])
        k += j
    return _mix64_inplace(out, shift)


def key_uniform_column(
    keys: np.ndarray, position: int, out=None, raw=None, shift=None
) -> np.ndarray:
    """Draw number ``position`` from each stream in ``keys``, as floats in (0, 1].

    Equals ``CounterStream(k, counter=position).uniform()`` for every key k.
    Every step runs in place: written into the float64 ``out``, with the uint64
    ``raw`` and ``shift``, shaped like keys, as scratch; each is made if not
    given. The generation kernel repeats the same steps per column in buffers
    it reuses (``_uniform_column_into``).
    """
    keys = np.asarray(keys, dtype=np.uint64)
    out = np.empty(keys.shape) if out is None else out
    raw = np.empty_like(keys) if raw is None else raw
    return _uniform_column_into(keys, position, out, raw, shift)


def _uniform_column_into(
    keys: np.ndarray, position: int, out: np.ndarray, raw: np.ndarray, shift=None
) -> np.ndarray:
    # key_uniform_column of uint64 ``keys`` written into ``out``, with the
    # uint64 ``raw`` and ``shift``, shaped like keys, as scratch
    np.add(keys, np.uint64(((position + 1) * _GOLDEN) & _MASK), out=raw)
    return _to_open_unit(_mix64_inplace(raw, shift), out)


@dataclass
class CounterStream:
    """A positioned view over one keyed counter sequence.

    The pair (key, counter) fully determines every future draw, so two
    streams constructed with the same state produce identical values.
    """

    key: int
    counter: int = 0

    def clone(self) -> "CounterStream":
        return CounterStream(self.key, self.counter)

    def raw(self) -> int:
        """Next raw 64-bit draw."""
        self.counter += 1
        return mix64((self.key + self.counter * _GOLDEN) & _MASK)

    def uniform(self) -> float:
        """Next float in (0, 1]; 1.0 has probability 2**-53 (see ``_to_open_unit``)."""
        return ((self.raw() >> 11) + 0.5) * 2.0**-53

    def uniforms(self, count: int) -> np.ndarray:
        """Next ``count`` floats in (0, 1], consumed in order."""
        pos = np.arange(self.counter + 1, self.counter + count + 1, dtype=np.uint64)
        self.counter += count
        raw = _mix64_inplace(np.uint64(self.key) + pos * np.uint64(_GOLDEN))
        return _to_open_unit(raw, np.empty(count))

    def index_below(self, bound: int) -> int:
        """Unbiased integer in [0, bound) via rejection on raw draws."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        threshold = ((1 << 64) // bound) * bound
        while True:
            r = self.raw()
            if r < threshold:
                return r % bound

    def derive(self, index: int) -> "CounterStream":
        """Independent child stream; does not consume from this one."""
        return CounterStream(child_key(self.key, index))


def root_stream(seed: int, domain: int = 0) -> CounterStream:
    return CounterStream(root_key(seed, domain))
