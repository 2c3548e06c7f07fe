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


def _mix64_inplace(z: np.ndarray) -> np.ndarray:
    # mix64_array on a uint64 temporary the caller owns, overwriting it
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def _to_open_unit(raw: np.ndarray) -> np.ndarray:
    # 53-bit mantissa, shifted off zero so log() is always safe: (0, 1).
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def root_key(seed: int, domain: int = 0) -> int:
    """Stream key for (seed, domain). Domains never share draws."""
    return mix64((mix64(seed & _MASK) + domain * _GOLDEN) & _MASK)


def child_key(key: int, index: int) -> int:
    """Key of the index-th substream of a stream (scalar path)."""
    return mix64(((key ^ _DERIVE_SALT) + (index + 1) * _GOLDEN) & _MASK)


def child_keys(key: int, start: int, stop: int) -> np.ndarray:
    """Vectorized :func:`child_key` for indices ``start..stop-1``."""
    idx = np.arange(start, stop, dtype=np.uint64)
    base = np.uint64((key ^ _DERIVE_SALT) & _MASK)
    return _mix64_inplace(base + (idx + np.uint64(1)) * np.uint64(_GOLDEN))


def key_uniform_column(keys: np.ndarray, position: int) -> np.ndarray:
    """Draw number ``position`` from each stream in ``keys``, as floats in (0,1).

    Equals ``CounterStream(k, counter=position).uniform()`` for every key k.
    """
    off = np.uint64(((position + 1) * _GOLDEN) & _MASK)
    return _to_open_unit(_mix64_inplace(np.asarray(keys, dtype=np.uint64) + off))


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
        """Next float in the open interval (0, 1)."""
        return ((self.raw() >> 11) + 0.5) * 2.0**-53

    def uniforms(self, count: int) -> np.ndarray:
        """Next ``count`` floats in (0, 1), consumed in order."""
        pos = np.arange(self.counter + 1, self.counter + count + 1, dtype=np.uint64)
        self.counter += count
        raw = _mix64_inplace(np.uint64(self.key) + pos * np.uint64(_GOLDEN))
        return _to_open_unit(raw)

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
