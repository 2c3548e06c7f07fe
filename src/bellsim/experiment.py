"""Signed spin-pair trials: generation, storage, and sign measurement.

Each trial k carries one direction s_k. Station A receives the carrier
with angular momentum along +s_k, station B the partner along -s_k;
the convention is fixed here and deliberately not configurable. A
station's measurement against a setting direction is the sign of the
dot product, with an explicit tie rule at exact zero.

Trial k's spin is a pure function of (seed, k), drawn from a private
counter-based stream, so a database is reproducible byte for byte no
matter how generation is ordered or partitioned.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .geometry import (
    NORM_TOLERANCE,
    UnitVector,
    orthonormal_basis,
    sample_uniform_direction,
    unit_rows_for_keys,
)
from .rng import DOMAIN_TRIALS, CounterStream, child_keys, key_uniform_column, root_key

_WEIGHT_TOLERANCE = 1e-12
_SEED_LIMIT = 1 << 64


class ConfigurationError(ValueError):
    """Invalid run configuration (bad field values, missing settings)."""


class InvariantError(RuntimeError):
    """A run broke one of the theorems it checks, such as the per-trial +-2 identity.

    Such a run has a defect in the program, not in its configuration,
    and its results must not be reported.
    """


def check_seed(seed, what: str = "seed") -> int:
    """Return ``seed`` if it is an unsigned 64-bit integer, else raise.

    ``bool`` is a subclass of ``int`` but is not a seed.
    """
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < _SEED_LIMIT:
        raise ConfigurationError(f"{what} must be an unsigned 64-bit integer, got {seed!r}")
    return seed


def format_g17(v: float) -> str:
    """The package's one float formatter: 17 significant digits, a bit-exact round trip.

    The database writer's ``%.17g`` row format is the same CPython conversion,
    signed zero (``-0``) included.
    """
    return format(float(v), ".17g")


# ---------------------------------------------------------------------------
# spin direction distributions


class DistributionSpec:
    """Base for spin-direction distributions.

    The correlation estimator's CHSH bound is distribution-free, so the
    simulator accepts arbitrary distributions as stress inputs; the
    physically motivated default is the uniform sphere.
    """

    def tag(self) -> str:
        raise NotImplementedError

    def _sample_rows(self, keys: np.ndarray, offset: int) -> np.ndarray:
        """One spin row per stream key, consuming draws from ``offset``."""
        raise NotImplementedError


@dataclass(frozen=True)
class UniformSphere(DistributionSpec):
    def tag(self) -> str:
        return "uniform-sphere"

    def _sample_rows(self, keys, offset):
        return unit_rows_for_keys(keys, offset)


@dataclass(frozen=True)
class FixedAxis(DistributionSpec):
    """Every trial's spin points along one fixed axis (degenerate stress case)."""

    axis: UnitVector

    def tag(self) -> str:
        a = self.axis
        return f"fixed-axis({','.join(map(format_g17, (a.x, a.y, a.z)))})"

    def _sample_rows(self, keys, offset):
        return np.tile(self.axis.as_array(), (keys.shape[0], 1))


@dataclass(frozen=True)
class Cap(DistributionSpec):
    """Uniform over the spherical cap of angular radius ``half_angle`` around ``axis``."""

    axis: UnitVector
    half_angle: float

    def __post_init__(self):
        if not 0.0 < self.half_angle <= math.pi:
            raise ConfigurationError(
                f"cap half-angle must be in (0, pi], got {self.half_angle}"
            )

    def tag(self) -> str:
        a = self.axis
        return f"cap({','.join(map(format_g17, (a.x, a.y, a.z, self.half_angle)))})"

    def _sample_rows(self, keys, offset):
        # cos(alpha) uniform on [cos(half_angle), 1] gives the uniform cap.
        u0 = key_uniform_column(keys, offset)
        u1 = key_uniform_column(keys, offset + 1)
        cos_a = 1.0 - u0 * (1.0 - math.cos(self.half_angle))
        sin_a = np.sqrt(np.maximum(0.0, 1.0 - cos_a * cos_a))
        beta = 2.0 * math.pi * u1
        axis = self.axis.as_array()
        e1, e2 = orthonormal_basis(axis)
        rows = (
            (sin_a * np.cos(beta))[:, None] * e1
            + (sin_a * np.sin(beta))[:, None] * e2
            + cos_a[:, None] * axis
        )
        norm = np.sqrt(rows[:, 0] ** 2 + rows[:, 1] ** 2 + rows[:, 2] ** 2)
        return rows / norm[:, None]


@dataclass(frozen=True)
class Mixture(DistributionSpec):
    """Weighted mixture of component distributions."""

    components: tuple[tuple[float, DistributionSpec], ...]

    def __post_init__(self):
        if not self.components:
            raise ConfigurationError("mixture needs at least one component")
        weights = [w for w, _ in self.components]
        if any(not w > 0.0 for w in weights):  # NaN-safe: NaN fails every comparison
            raise ConfigurationError(f"mixture weights must be positive, got {weights}")
        if not abs(sum(weights) - 1.0) <= _WEIGHT_TOLERANCE:
            raise ConfigurationError(f"mixture weights must sum to 1, got {sum(weights)}")

    def tag(self) -> str:
        parts = ";".join(f"{format_g17(w)}:{spec.tag()}" for w, spec in self.components)
        return f"mixture({parts})"

    def _sample_rows(self, keys, offset):
        # draw at `offset` selects the component; components draw from offset+1
        u = key_uniform_column(keys, offset)
        cum = np.cumsum([w for w, _ in self.components])
        idx = np.minimum(np.searchsorted(cum, u, side="right"), len(self.components) - 1)
        rows = np.empty((keys.shape[0], 3))
        for i, (_, spec) in enumerate(self.components):
            mask = idx == i
            if mask.any():
                rows[mask] = spec._sample_rows(keys[mask], offset + 1)
        return rows


def _unit_from_components(x: float, y: float, z: float) -> UnitVector:
    # keep already-unit components bit-exact (round-tripping a tag must not
    # renormalize); only repair vectors that genuinely miss the invariant
    if abs(x * x + y * y + z * z - 1.0) <= NORM_TOLERANCE:
        return UnitVector(x, y, z)
    return UnitVector.normalize(x, y, z)


def _split_top_level(text: str, sep: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def parse_distribution(text: str) -> DistributionSpec:
    """Parse a distribution tag, the inverse of ``DistributionSpec.tag()``.

    Grammar: ``uniform-sphere`` | ``fixed-axis(x,y,z)`` |
    ``cap(x,y,z,half_angle_rad)`` | ``mixture(w:spec;w:spec;...)``.
    """
    text = text.strip()
    if text in ("uniform-sphere", "uniform"):
        return UniformSphere()
    for name in ("fixed-axis", "cap", "mixture"):
        if text.startswith(name + "(") and text.endswith(")"):
            body = text[len(name) + 1 : -1]
            try:
                if name == "fixed-axis":
                    x, y, z = (float(p) for p in body.split(","))
                    return FixedAxis(_unit_from_components(x, y, z))
                if name == "cap":
                    x, y, z, half = (float(p) for p in body.split(","))
                    return Cap(_unit_from_components(x, y, z), half)
                entries = []
                for part in _split_top_level(body, ";"):
                    w_text, spec_text = part.split(":", 1)
                    entries.append((float(w_text), parse_distribution(spec_text)))
                return Mixture(tuple(entries))
            except ConfigurationError:
                raise
            except ValueError as exc:
                raise ConfigurationError(f"bad distribution spec {text!r}: {exc}") from exc
    raise ConfigurationError(f"unknown distribution spec {text!r}")


# ---------------------------------------------------------------------------
# trial database


@dataclass(frozen=True, eq=False)
class TrialDatabase:
    """The stored record of n spin directions, immutable once generated."""

    seed: int
    distribution: DistributionSpec
    n: int
    spins: np.ndarray = field(repr=False)  # (n, 3) float64, write-protected

    def __post_init__(self):
        if self.n < 1 or self.spins.shape != (self.n, 3):
            raise ConfigurationError(
                f"database needs spins shaped ({self.n}, 3), got {self.spins.shape}"
            )

    def spin(self, k: int) -> UnitVector:
        return UnitVector.from_array(self.spins[k])

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """The spin rows of trials [lo, hi), a read-only view."""
        return self.spins[lo:hi]


def _spin_rows(seed: int, distribution: DistributionSpec, lo: int, hi: int) -> np.ndarray:
    keys = child_keys(root_key(seed, DOMAIN_TRIALS), lo, hi)
    return distribution._sample_rows(keys, 0)


@dataclass(frozen=True)
class GeneratedTrials:
    """The trials of (seed, distribution, n), generated on demand and never stored.

    Trial k depends only on (seed, k), so ``rows(lo, hi)`` equals
    ``generate_database(seed, distribution, n).spins[lo:hi]`` bit for bit,
    and ``spin(k)`` generates trial k alone. The object is a few hundred
    bytes when pickled, so worker processes can take it in place of a database.
    """

    seed: int
    distribution: DistributionSpec
    n: int

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 1:
            raise ConfigurationError(f"n must be a positive integer, got {self.n!r}")
        check_seed(self.seed)
        if not isinstance(self.distribution, DistributionSpec):
            raise ConfigurationError(f"not a distribution spec: {self.distribution!r}")

    def spin(self, k: int) -> UnitVector:
        if not 0 <= k < self.n:
            raise IndexError(f"trial {k} outside [0, {self.n})")
        return UnitVector.from_array(self.rows(k, k + 1)[0])

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """The spin rows of trials [lo, hi)."""
        return _spin_rows(self.seed, self.distribution, lo, hi)


def generate_database(seed: int, distribution: DistributionSpec, n: int) -> TrialDatabase:
    """Generate the trial database deterministically from (seed, distribution, n).

    Trial k's direction depends only on (seed, k), so the result is
    identical under any index partitioning.
    """
    spins = GeneratedTrials(seed, distribution, n).rows(0, n)
    spins.setflags(write=False)
    return TrialDatabase(seed=seed, distribution=distribution, n=n, spins=spins)


# ---------------------------------------------------------------------------
# sign measurement


@dataclass(frozen=True)
class Outcome:
    """A station's reading: always exactly +1 or -1, never 0.

    ``was_tie`` flags the measure-zero event of an exactly orthogonal
    spin and setting, resolved by the fixed rule sign(0) := +1 so the
    event stays auditable in downstream tallies.
    """

    value: int
    was_tie: bool = False

    def __post_init__(self):
        if self.value not in (-1, 1):
            raise ValueError(f"outcome must be +1 or -1, got {self.value}")


def measure_sign(spin_sign: int, s: UnitVector, setting: UnitVector) -> Outcome:
    """Idealized measurement: sign(spin_sign * (s . setting)).

    ``spin_sign`` is +1 at station A and -1 at station B, selecting
    which member of the pair the station received.
    """
    if spin_sign not in (-1, 1):
        raise ValueError(f"spin_sign must be +1 or -1, got {spin_sign}")
    d = s.dot(setting)
    if d == 0.0:
        return Outcome(value=1, was_tie=True)
    signed = spin_sign * d
    return Outcome(value=1 if signed > 0.0 else -1, was_tie=False)


# ---------------------------------------------------------------------------
# setting selection


def select_settings(
    kind: str, db: TrialDatabase | GeneratedTrials, stream: CounterStream
) -> tuple[UnitVector, UnitVector]:
    """Draw the setting pair (a, b) by the policy ``kind``.

    'from-database' picks both independently, uniformly with
    replacement, from the already observed spin directions; given
    ``GeneratedTrials`` it generates just those two trials. 'uniform'
    draws fresh directions from the sphere.
    """
    if kind == "from-database":
        ia = stream.index_below(db.n)
        ib = stream.index_below(db.n)
        return db.spin(ia), db.spin(ib)
    if kind == "uniform":
        return sample_uniform_direction(stream), sample_uniform_direction(stream)
    raise ConfigurationError(f"unknown setting policy {kind!r}")


# ---------------------------------------------------------------------------
# text serialization (line-oriented, bit-exact round trip)

_DB_HEADER_PREFIX = "bellsim-db v1"
_DB_ROW = "%d %.17g %.17g %.17g\n"  # per value, the same text as format_g17
_WRITE_BLOCK_ROWS = 4096
# ``key=<decimal>`` as the writer emits it; 20 digits hold any unsigned 64-bit
# value, and the cap keeps int() away from its limit on very long digit strings
_CANONICAL_FIELD = re.compile(r"([a-z]+)=(0|[1-9][0-9]{0,19})")

# The row kernel lays each row out in a fixed 93-byte slot, then keeps the
# bytes that ``_DB_ROW`` would write: a 20-digit index, right-aligned, and per
# component a 24-byte field of a 7-byte prefix, right-aligned (" ", a "-" if
# negative, "0." and the zeros after the point), then 17 significand digits.
_INDEX_WIDTH, _LEAD, _FIELD_WIDTH = 20, 7, 24
_FIELD_POS = np.arange(_FIELD_WIDTH, dtype=np.uint8)
_INDEX_POS = np.arange(_INDEX_WIDTH, 0, -1, dtype=np.uint8)


class _KernelTables(NamedTuple):
    prefix: np.ndarray  # the 7-byte prefix of 5 * negative - X, for X = 0, -1, ..., -4
    prefix_start: np.ndarray  # where each prefix's text starts in its 7 bytes
    digits4: np.ndarray  # the four ASCII digits of 0 .. 9999, one uint32 each
    pow10: np.ndarray  # 10^1 .. 10^19, the index width steps
    pow5: np.ndarray  # 5^(16 - X) for X = 0, -1, ..., -4


@functools.cache
def _kernel_tables() -> _KernelTables:
    """The row kernel's tables, built on its first call (only ``gen-db`` needs
    them), and read-only, since every caller shares them."""
    prefixes = [
        " " + "-" * neg + ("0." + "0" * (j - 1) if j else "") for neg in (0, 1) for j in range(5)
    ]
    text = "".join(t.rjust(_LEAD) for t in prefixes).encode()
    tables = _KernelTables(
        prefix=np.frombuffer(text, np.uint8).reshape(-1, _LEAD),
        prefix_start=np.array([_LEAD - len(t) for t in prefixes], dtype=np.uint8),
        digits4=np.ascontiguousarray(
            np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + ord("0")
        ).view(np.uint32).ravel(),
        pow10=10 ** np.arange(1, 20, dtype=np.uint64),
        pow5=5 ** np.arange(16, 21, dtype=np.uint64),
    )
    for table in tables:
        table.flags.writeable = False
    return tables


_TEN8, _TEN16, _TEN17 = np.uint64(10**8), np.uint64(10**16), np.uint64(10**17)
_U1, _U32, _U64, _LOW32 = np.uint64(1), np.uint64(32), np.uint64(64), np.uint64(0xFFFFFFFF)


def _divmod(values: np.ndarray, unit, dtype) -> tuple[np.ndarray, np.ndarray]:
    high = values // unit  # floor division by a scalar is far faster than np.divmod
    return high, (values - high * unit).astype(dtype)


def _ascii_digits(values: np.ndarray) -> np.ndarray:
    """The 20 decimal digits of each unsigned 64-bit value, zero-padded, as ASCII bytes."""
    words = np.empty((values.shape[0], 5), dtype=np.uint32)
    head, rest = _divmod(values, _TEN16, np.uint64)
    high, low = _divmod(rest, _TEN8, np.uint32)
    digits4 = _kernel_tables().digits4
    words[:, 0] = digits4.take(head)
    for col, part in ((1, high.astype(np.uint32)), (3, low)):
        words[:, col], words[:, col + 1] = (
            digits4.take(p) for p in _divmod(part, np.uint32(10_000), np.intp)
        )
    return words.view(np.uint8)


def _scaled(mant: np.ndarray, exp2: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor and round-half-even of v * 10^(16 - x), for v = mant * 2^(exp2 - 53) and
    -4 <= x <= 0, exactly in integers.

    With k = 16 - x this is mant * 5^k shifted right by t = 53 - exp2 - k.
    mant < 2^53 and 5^k < 2^47, so the product is formed from 32-bit halves
    in two 64-bit limbs; for 1e-4 <= v <= 1, t lies in [33, 50].
    """
    pow5 = _kernel_tables().pow5[-x]
    shift = (37 - exp2 + x).astype(np.uint64)
    m_hi, m_lo = mant >> _U32, mant & _LOW32
    p_hi, p_lo = pow5 >> _U32, pow5 & _LOW32
    low = m_lo * p_lo
    mid = m_hi * p_lo + m_lo * p_hi
    lo = low + ((mid & _LOW32) << _U32)  # wraps modulo 2^64; the carry goes to hi
    hi = m_hi * p_hi + (mid >> _U32) + (lo < low)
    floor = (hi << (_U64 - shift)) | (lo >> shift)
    rem = lo & ((_U1 << shift) - _U1)
    half = _U1 << (shift - _U1)
    return floor, floor + ((rem > half) | ((rem == half) & ((floor & _U1) == _U1)))


def _format_rows(rows: np.ndarray, lo: int) -> str:
    """``_DB_ROW`` of trials lo, lo + 1, ... with spin rows ``rows``, equal to it bit for bit.

    A component v with 1e-4 <= |v| <= 1, whose ``%.17g`` text is in fixed
    notation "0.<zeros><17 digits>" with trailing zeros cut (or "1"), is
    formatted here, as is a signed zero; its decimal exponent X is
    floor(log10 |v|), corrected where the floor of v * 10^(16 - X) leaves
    [10^16, 10^17). Rounding never carries into an 18th digit: that needs
    v within 5e-18 (relative) below a power of ten, and the nearest double
    below 1, 0.1, 0.01 or 0.001 is at least 8e-17 away. A row with any other
    component (0 < |v| < 1e-4, |v| > 1, a subnormal, or non-finite) goes
    through ``_DB_ROW`` itself.
    """
    tables = _kernel_tables()
    m = rows.shape[0]
    v = np.ascontiguousarray(rows, dtype=np.float64).reshape(-1)
    mag = np.abs(v)
    zero = mag == 0.0
    fixed = (mag >= 1e-4) & (mag <= 1.0)  # NaN-safe: NaN fails both
    fallback = ~(fixed | zero).reshape(m, 3).all(axis=1)
    # every other value is swapped for 0.5, so the integer path stays in range
    mag = np.where(fixed, mag, 0.5)
    frac, exp2 = np.frexp(mag)
    mant = np.ldexp(frac, 53).astype(np.uint64)
    x = np.clip(np.floor(np.log10(mag)), -4, 0).astype(np.int64)
    floor, sig = _scaled(mant, exp2, x)
    redo = np.flatnonzero((floor < _TEN16) | (floor >= _TEN17))
    if redo.size:
        x[redo] += np.where(floor[redo] < _TEN16, -1, 1)
        sig[redo] = _scaled(mant[redo], exp2[redo], x[redo])[1]
    sig[zero] = 0
    x[zero] = 0

    index = np.arange(m, dtype=np.uint64) + np.uint64(lo)
    digits = _ascii_digits(sig)[:, 3:]
    prefix = 5 * np.signbit(v) - x
    fields = np.concatenate([tables.prefix[prefix], digits], axis=1)
    slot = np.concatenate(
        [_ascii_digits(index), fields.reshape(m, -1), np.full((m, 1), ord("\n"), np.uint8)], axis=1
    )
    # a field keeps [start, end): its prefix, and its digits up to the last nonzero one
    start = tables.prefix_start[prefix]
    end = _LEAD + np.where(sig == 0, 1, 17 - np.argmax(digits[:, ::-1] != ord("0"), axis=1))
    kept = (_FIELD_POS - start[:, None]) < (end - start).astype(np.uint8)[:, None]
    width = 1 + np.searchsorted(tables.pow10, index, side="right")
    keep = np.concatenate(
        [_INDEX_POS <= width.astype(np.uint8)[:, None], kept.reshape(m, -1), np.ones((m, 1), bool)],
        axis=1,
    )
    if not fallback.any():
        return slot[keep].tobytes().decode("ascii")

    keep[fallback] = False
    text = slot[keep].tobytes().decode("ascii")
    ends = np.cumsum(keep.sum(axis=1)).tolist()
    pieces, done = [], 0
    for r in np.flatnonzero(fallback).tolist():
        pieces += [text[done : ends[r]], _DB_ROW % (lo + r, *rows[r].tolist())]
        done = ends[r]
    pieces.append(text[done:])
    return "".join(pieces)


def write_database(source: TrialDatabase | GeneratedTrials, fileobj) -> None:
    """Write the line-oriented text format; floats carry 17 significant digits.

    ``source`` is a database or generated trials: anything with ``n``,
    ``seed``, ``distribution`` and ``rows(lo, hi)``. Rows are read, formatted
    by ``_format_rows`` and written one block at a time, one ``write`` per
    block, so neither the rows nor their text are ever held whole.
    """
    fileobj.write(
        f"{_DB_HEADER_PREFIX} seed={source.seed} dist={source.distribution.tag()} n={source.n}\n"
    )
    for lo in range(0, source.n, _WRITE_BLOCK_ROWS):
        fileobj.write(_format_rows(source.rows(lo, min(lo + _WRITE_BLOCK_ROWS, source.n)), lo))


def _header_count(field: str, key: str) -> int:
    """The integer of a ``key=<digits>`` header field, in the canonical decimal
    the writer emits: no sign, no underscore, no leading zero."""
    match = _CANONICAL_FIELD.fullmatch(field)
    if match is None or match[1] != key:
        raise ConfigurationError(f"bad database header field {field!r}: expected {key}=<decimal>")
    return int(match[2])


def read_database(fileobj) -> TrialDatabase:
    """Parse the text format back into a database, bit-exact."""
    header = fileobj.readline().rstrip("\n")
    fields = header.split(" ")
    if len(fields) != 5 or fields[0] != "bellsim-db" or fields[1] != "v1":
        raise ConfigurationError(f"bad database header: {header!r}")
    seed = check_seed(_header_count(fields[2], "seed"), "database header seed")
    try:
        dist = parse_distribution(fields[3].removeprefix("dist="))
    except ValueError as exc:
        raise ConfigurationError(f"bad database header: {header!r}") from exc
    n = _header_count(fields[4], "n")
    if n < 1:
        raise ConfigurationError("database must contain at least one trial")
    spins = np.empty((n, 3))
    for k in range(n):
        parts = fileobj.readline().split()
        try:
            if len(parts) != 4 or parts[0] != str(k):  # the index exactly as written
                raise ConfigurationError(f"bad or out-of-order trial line {k}")
            spins[k] = [float(parts[1]), float(parts[2]), float(parts[3])]
        except ValueError as exc:
            raise ConfigurationError(f"bad trial line {k}") from exc
    if fileobj.readline():
        raise ConfigurationError(f"unexpected content after trial {n - 1}")
    norm_err = np.abs(np.sum(spins * spins, axis=1) - 1.0)
    if not norm_err.max() <= NORM_TOLERANCE:  # NaN-safe: a NaN row fails here
        raise ConfigurationError("database contains non-unit spin rows")
    spins.setflags(write=False)
    return TrialDatabase(seed=seed, distribution=dist, n=n, spins=spins)
