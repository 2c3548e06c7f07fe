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

from . import geometry
from .geometry import (
    NORM_TOLERANCE,
    UnitVector,
    _column_blocks,
    _KernelScratch,
    _normalize_columns,
    _unit_columns,
    orthonormal_basis,
    sample_uniform_direction,
)
from .rng import (
    DOMAIN_TRIALS,
    CounterStream,
    _uniform_column_into,
    child_keys,
    key_uniform_column,
    root_key,
)
from .parallel import _BLOCK_ROWS

_WEIGHT_TOLERANCE = 1e-12
_MAX_NESTING = 32  # mixtures in a spec; far deeper ones would exhaust Python's recursion limit
_SEED_LIMIT = 1 << 64
MODES = ("reuse", "fresh")  # the CHSH modes: of chsh_statistic, search_max_chsh and --mode


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
    signed zero (``-0``) included, and its row kernel (``rowtext._format_columns``)
    is a vectorized equal of that conversion, byte for byte.
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

    def _visit_columns(self, keys: np.ndarray, offset: int, visit, scratch, base: int = 0) -> None:
        """``visit(cols, positions)`` for the spins of the uint64 stream ``keys``, drawn from
        ``offset`` on, in (3, m) column sub-blocks (``geometry._column_blocks``), with the
        buffers of ``scratch`` (a ``_Scratch`` for at least len(keys) keys).

        Spin i depends on keys[i] and ``offset`` alone. ``positions`` locate
        ``cols`` among the keys, counted from ``base``: a slice, or an index array
        where a mixture picked them. ``cols`` is a view of a buffer that the next visit
        overwrites. A consumer that ignores the positions never orders the spins.
        """
        raise NotImplementedError

    def _mixture_depth(self) -> int:
        # how many mixtures nest here, so how many _MixtureScratch a visit needs
        return 0


def _put_columns(m: int, walk, out: np.ndarray | None = None) -> np.ndarray:
    """The rows that ``walk(put)`` visits at positions 0 .. m - 1: the one consumer that
    puts column visits in order.

    The rows are the (m, 3) view of (3, m) columns, new and C-contiguous, or
    the first m columns of ``out``: each visited sub-block is written once at
    its positions, never transposed, so ``rows.T`` reads unit-stride columns.
    """
    columns = np.empty((3, m)) if out is None else out[:, :m]

    def put(cols, where):
        columns[:, where] = cols

    walk(put)
    return columns.T


class _MixtureScratch(NamedTuple):
    """The buffers of one mixture level for at most m keys (``Mixture._visit_columns``)."""

    selector: np.ndarray  # (m,) float64: each key's component draw
    masks: np.ndarray  # (2, m) bool: a component's keys, and a comparison
    keys: np.ndarray  # (m,) uint64: the selector's raw draws, then a component's keys
    picks: np.ndarray  # (m,) intp: where a component's keys are among the level's

    @classmethod
    def of(cls, m: int) -> "_MixtureScratch":
        return cls(
            np.empty(m), np.empty((2, m), dtype=bool), np.empty(m, dtype=np.uint64),
            np.empty(m, dtype=np.intp),
        )


def _flatnonzero_into(mask: np.ndarray, out: np.ndarray) -> np.ndarray:
    # np.flatnonzero(mask), written into out a sub-block at a time. A block's index array
    # is large enough for malloc to map it afresh and unmap it again, for every component
    # of every block; a sub-block's stays on the heap
    count = 0
    for lo in range(0, mask.shape[0], geometry._SUB_BLOCK_ROWS):
        part = np.flatnonzero(mask[lo : lo + geometry._SUB_BLOCK_ROWS])
        np.add(part, lo, out=out[count : count + part.size])
        count += part.size
    return out[:count]


class _Scratch(NamedTuple):
    """Every buffer that generating the spins of at most m keys at a time writes: made
    once per call of ``GeneratedTrials.visit_columns`` and reused by each block and
    sub-block, so a long range faults in its generation memory once."""

    keys: np.ndarray  # (m,) uint64: a block's trial keys
    # (m,) uint64: the mix's shift temporary for the keys and selectors, then the
    # kernels' raw draws
    shift: np.ndarray
    kernel: _KernelScratch  # the column kernels' sub-block buffers
    levels: tuple  # a _MixtureScratch per nesting level, outermost first

    @classmethod
    def of(cls, m: int, spec: DistributionSpec) -> "_Scratch":
        shift = np.empty(m, dtype=np.uint64)
        return cls(
            np.empty(m, dtype=np.uint64), shift,
            _KernelScratch.of(min(m, geometry._SUB_BLOCK_ROWS), shift),
            tuple(_MixtureScratch.of(m) for _ in range(spec._mixture_depth())),
        )


@dataclass(frozen=True)
class UniformSphere(DistributionSpec):
    def tag(self) -> str:
        return "uniform-sphere"

    def _visit_columns(self, keys, offset, visit, scratch, base=0):
        _column_blocks(
            keys.shape[0], lambda lo, hi, part: _unit_columns(keys[lo:hi], offset, part), visit,
            scratch.kernel, base,
        )


@dataclass(frozen=True)
class FixedAxis(DistributionSpec):
    """Every trial's spin points along one fixed axis (degenerate stress case)."""

    axis: UnitVector

    def tag(self) -> str:
        a = self.axis
        return f"fixed-axis({','.join(map(format_g17, (a.x, a.y, a.z)))})"

    def _visit_columns(self, keys, offset, visit, scratch, base=0):
        axis = self.axis.as_array()[:, None]
        _column_blocks(
            keys.shape[0], lambda lo, hi, part: np.copyto(part.columns, axis), visit,
            scratch.kernel, base,
        )


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

    def _visit_columns(self, keys, offset, visit, scratch, base=0):
        # cos(alpha) uniform on [cos(half_angle), 1] gives the uniform cap.
        depth = 1.0 - math.cos(self.half_angle)
        axis = self.axis.as_array()
        e1, e2 = orthonormal_basis(axis)

        def fill(lo, hi, part):
            cos_a, beta, sin_a, term = part.floats
            out = part.columns
            _uniform_column_into(keys[lo:hi], offset, cos_a, part.raw, part.shift)
            _uniform_column_into(keys[lo:hi], offset + 1, beta, part.raw, part.shift)
            cos_a *= depth
            np.subtract(1.0, cos_a, out=cos_a)
            np.multiply(cos_a, cos_a, out=sin_a)
            np.subtract(1.0, sin_a, out=sin_a)
            np.maximum(0.0, sin_a, out=sin_a)
            np.sqrt(sin_a, out=sin_a)
            beta *= 2.0 * math.pi
            # the weights of e1 and e2; that of e1 waits in the last row of
            # out, which is written last
            along_e1, along_e2 = out[2], beta
            np.cos(beta, out=along_e1)
            along_e1 *= sin_a
            np.sin(beta, out=along_e2)
            along_e2 *= sin_a
            for j in (0, 1, 2):
                # (sin_a cos(beta) e1 + sin_a sin(beta) e2) + cos_a axis
                np.multiply(along_e1, e1[j], out=out[j])
                np.multiply(along_e2, e2[j], out=term)
                out[j] += term
                np.multiply(cos_a, axis[j], out=term)
                out[j] += term
            _normalize_columns(out, cos_a, term)  # cos_a is free once the sums are out

        _column_blocks(keys.shape[0], fill, visit, scratch.kernel, base)


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

    def _mixture_depth(self) -> int:
        return 1 + max(spec._mixture_depth() for _, spec in self.components)

    def _visit_columns(self, keys, offset, visit, scratch, base=0):
        # draw at `offset` selects the component; components draw from offset+1.
        # The component is the count of cumulative weights <= u, capped at the
        # last: the count over all but the last weight, which is never larger.
        # The bounds never decrease, so component i holds low_i <= u < high_i: the keys
        # below high_i xor those below low_i, all of which are below high_i too
        m = keys.shape[0]
        level, inner = scratch.levels[0], scratch._replace(levels=scratch.levels[1:])
        u, (mask, below) = level.selector[:m], level.masks[:, :m]
        key_uniform_column(keys, offset, u, level.keys[:m], scratch.shift[:m])
        bounds = np.cumsum([w for w, _ in self.components])[:-1].tolist()
        for (_, spec), low, high in zip(self.components, [-math.inf, *bounds], [*bounds, math.inf]):
            np.less(u, high, out=mask)
            mask ^= np.less(u, low, out=below)
            picks = _flatnonzero_into(mask, level.picks)
            if not picks.size:
                continue
            # every pick is in range; "clip" writes to out directly, "raise" through a copy
            picked = np.take(keys, picks, out=level.keys[: picks.size], mode="clip")
            picks += base  # the component's positions, taken through the picks

            def through(cols, at, p=picks):
                return visit(cols, p[at])

            spec._visit_columns(picked, offset + 1, through, inner)


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
    ``cap(x,y,z,half_angle_rad)`` | ``mixture(w:spec;w:spec;...)``, with
    mixtures nested at most ``_MAX_NESTING`` deep.
    """
    return _parse_spec(text, 0)


def _parse_spec(text: str, depth: int) -> DistributionSpec:
    # ``depth``: the mixtures that enclose ``text``
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
                if depth == _MAX_NESTING:
                    raise ConfigurationError(
                        f"distribution spec nests mixtures more than {_MAX_NESTING} deep"
                    )
                entries = []
                for part in _split_top_level(body, ";"):
                    w_text, spec_text = part.split(":", 1)
                    entries.append((float(w_text), _parse_spec(spec_text, depth + 1)))
                return Mixture(tuple(entries))
            except ConfigurationError:
                raise
            except ValueError as exc:
                raise ConfigurationError(f"bad distribution spec {text!r}: {exc}") from exc
    raise ConfigurationError(f"unknown distribution spec {text!r}")


# ---------------------------------------------------------------------------
# trial database


def _check_trials(seed, distribution, n) -> None:
    """The checks of every set of trials, stored or generated: a positive integer n
    (not a ``bool``), an unsigned 64-bit seed and a distribution spec."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ConfigurationError(f"n must be a positive integer, got {n!r}")
    check_seed(seed)
    if not isinstance(distribution, DistributionSpec):
        raise ConfigurationError(f"not a distribution spec: {distribution!r}")


@dataclass(frozen=True, eq=False)
class TrialDatabase:
    """The stored record of n spin directions, immutable once generated.

    ``spins`` is the (n, 3) float64 view of C-contiguous (3, n) columns,
    write-protected: ``spins.T`` and its slices are unit-stride columns.
    """

    seed: int
    distribution: DistributionSpec
    n: int
    spins: np.ndarray = field(repr=False)  # (n, 3) float64 in column order, write-protected

    def __post_init__(self):
        # a copy of its own, so that no later write by the caller reaches a checked row:
        # the owner of an array can make it writable again
        spins = np.array(self.spins, dtype=np.float64, order="F")
        spins.setflags(write=False)
        object.__setattr__(self, "spins", spins)
        self._check()

    @classmethod
    def _adopt(
        cls, seed: int, distribution: DistributionSpec, n: int, spins: np.ndarray
    ) -> TrialDatabase:
        """The database of ``spins`` itself, not a copy: only for an array made for it, in
        column order, that no caller holds, as ``generate_database`` and ``read_database``
        make."""
        spins.setflags(write=False)
        db = cls.__new__(cls)
        db.__dict__.update(seed=seed, distribution=distribution, n=n, spins=spins)
        db._check()
        return db

    def _check(self) -> None:
        _check_trials(self.seed, self.distribution, self.n)
        if self.spins.shape != (self.n, 3):
            raise ConfigurationError(
                f"database needs spins shaped ({self.n}, 3), got {self.spins.shape}"
            )
        # |x*x + y*y + z*z - 1| block by block, in two buffers that every block reuses
        columns, err, square = self.spins.T, *np.empty((2, min(self.n, _BLOCK_ROWS)))
        for lo in range(0, self.n, _BLOCK_ROWS):
            x, y, z = columns[:, lo : lo + _BLOCK_ROWS]
            e, sq = err[: x.shape[0]], square[: x.shape[0]]
            np.multiply(x, x, out=e)
            e += np.multiply(y, y, out=sq)
            e += np.multiply(z, z, out=sq)
            e -= 1.0
            if not np.abs(e, out=e).max() <= NORM_TOLERANCE:  # NaN fails too
                raise ConfigurationError("database contains non-unit spin rows")

    def spin(self, k: int) -> UnitVector:
        if not 0 <= k < self.n:
            raise IndexError(f"trial {k} outside [0, {self.n})")
        return UnitVector.from_array(self.spins[k])

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """The spin rows of trials [lo, hi), a read-only view."""
        _check_range(lo, hi, self.n)
        return self.spins[lo:hi]

    def visit_columns(self, lo: int, hi: int, visit) -> None:
        """Calls ``visit(cols, positions)`` over trials [lo, hi) as ``GeneratedTrials`` does,
        in order: each ``cols`` is a read-only (3, m) view of the stored columns, m at
        most ``geometry._SUB_BLOCK_ROWS``, and nothing is copied."""
        columns, step = self.rows(lo, hi).T, geometry._SUB_BLOCK_ROWS
        for a in range(0, hi - lo, step):
            visit(columns[:, a : a + step], slice(a, min(a + step, hi - lo)))


def _check_range(lo: int, hi: int, n: int) -> None:
    # both trial sources take exactly the ranges 0 <= lo <= hi <= n
    if not 0 <= lo <= hi <= n:
        raise IndexError(f"trials [{lo}, {hi}) outside [0, {n})")


def _trial_keys(seed: int, lo: int, hi: int, scratch: _Scratch) -> np.ndarray:
    # the trial keys of [lo, hi), written into the call's keys buffer
    m = hi - lo
    return child_keys(
        root_key(seed, DOMAIN_TRIALS), lo, hi, scratch.keys[:m], scratch.shift[:m]
    )


@dataclass(frozen=True)
class GeneratedTrials:
    """The trials of (seed, distribution, n), generated on demand and never stored.

    Trial k depends only on (seed, k), so ``rows(lo, hi)`` equals
    ``generate_database(seed, distribution, n).spins[lo:hi]`` bit for bit,
    and ``spin(k)`` generates trial k alone. The object holds no rows, so a
    worker process regenerates just the rows of its own ranges.
    """

    seed: int
    distribution: DistributionSpec
    n: int

    def __post_init__(self):
        _check_trials(self.seed, self.distribution, self.n)

    def spin(self, k: int) -> UnitVector:
        if not 0 <= k < self.n:
            raise IndexError(f"trial {k} outside [0, {self.n})")
        return UnitVector.from_array(self.rows(k, k + 1)[0])

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """The spin rows of trials [lo, hi): the (m, 3) view of new C-contiguous (3, m)
        columns, filled block by block as ``visit_columns`` generates them
        (``_put_columns``)."""
        _check_range(lo, hi, self.n)
        return _put_columns(hi - lo, functools.partial(self.visit_columns, lo, hi))

    def visit_columns(self, lo: int, hi: int, visit, scratch: _Scratch | None = None) -> None:
        """Calls ``visit(cols, positions)`` with the spins of trials [lo, hi) as they are
        generated, (3, m) columns whose positions count from lo
        (``DistributionSpec._visit_columns``); they are never put in trial order.

        The range is walked ``_BLOCK_ROWS`` keys at a time, with one key call
        per block and one ``_Scratch`` for the whole call (``scratch`` if given,
        for at least min(hi - lo, _BLOCK_ROWS) keys of this distribution), so at
        most one block of keys exists, and every block reuses the memory of the last.
        """
        _check_range(lo, hi, self.n)
        scratch = scratch or _Scratch.of(min(hi - lo, _BLOCK_ROWS), self.distribution)
        for b in range(lo, hi, _BLOCK_ROWS):
            keys = _trial_keys(self.seed, b, min(b + _BLOCK_ROWS, hi), scratch)
            self.distribution._visit_columns(keys, 0, visit, scratch, b - lo)


def generate_database(seed: int, distribution: DistributionSpec, n: int) -> TrialDatabase:
    """Generate the trial database deterministically from (seed, distribution, n).

    Trial k's direction depends only on (seed, k), so the result is
    identical under any index partitioning. Its spins are the (n, 3) view
    of the C-contiguous (3, n) columns the generator wrote, not a copy.
    """
    spins = GeneratedTrials(seed, distribution, n).rows(0, n)
    return TrialDatabase._adopt(seed, distribution, n, spins)


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


def station_readings(s: np.ndarray, a_dirs: np.ndarray, b_dirs: np.ndarray, dots=None):
    """(x, y, da, db) of the spin columns ``s`` (3, t), visited or a source's ``rows.T``, at
    ``a_dirs`` (ka, 3) and ``b_dirs`` (kb, 3): the dots da = s . a and db = s . b, and
    the masks x and y of the readings +1. ``measure_sign`` on arrays, and the one writer
    of the stations' rule: A reads +1 where s . a >= 0 and B, holding -s, where
    s . b <= 0, so sign(0) := +1 at both. The dots are elementwise, never BLAS, whose
    kernel can depend on operand size, so a trial's dot has the same bits in any block.
    ``dots``, (2, ka + kb, t) scratch if given, keeps da and then db in ``dots[0]``.

    Each group's dots sum, in x, y, z order, the products of only the coordinates
    that are nonzero in at least one of its directions; every group holds a
    direction, and each direction a nonzero coordinate. A coordinate that is 0.0
    or -0.0 in every direction of the group adds only a signed zero, since spins
    are finite, and adding a zero to the other terms changes at most the sign of
    a zero sum. So the dots equal ``s0*dx + s1*dy + s2*dz`` as values, and the
    masks (>= 0, <= 0) and ties (== 0), which cannot see a zero's sign, are
    the same bits. So a setting in the x-z plane, as ``direction_at_angle`` gives
    it, pays two products and an axis one, where a general direction pays three.
    """
    k, readings = len(a_dirs), []
    for directions, rows in ((a_dirs, slice(None, k)), (b_dirs, slice(k, None))):
        d, term = (None, None) if dots is None else dots[:, rows]
        # in Python on the tiny (k, 3) array: three ndarray.any calls cost more
        first, *rest = (c for c, column in enumerate(zip(*directions.tolist())) if any(column))
        d = np.multiply(s[first], directions[:, first, None], out=d)
        for c in rest:
            d += np.multiply(s[c], directions[:, c, None], out=term)
        readings.append(d)
    da, db = readings
    return np.greater_equal(da, 0.0), np.less_equal(db, 0.0), da, db


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
_WRITE_BLOCK_ROWS = 4096
# ``key=<decimal>`` as the writer emits it; 20 digits hold any unsigned 64-bit
# value, and the cap keeps int() away from its limit on very long digit strings
_CANONICAL_FIELD = re.compile(r"([a-z]+)=(0|[1-9][0-9]{0,19})")


def _in_order(trials: GeneratedTrials):
    """(b, cols) for each block of trials from b: their (3, m) columns in trial order,
    generated by one ``visit_columns`` call each with one ``_Scratch`` for all, and put
    into one column buffer, which the next block overwrites.

    A block is one generation sub-block (``_SUB_BLOCK_ROWS``), so the walk's buffers
    are no larger than the kernels' own: 65 536-key blocks faulted in 2 MB more, and
    more pages than the whole write saved.
    """
    m = min(trials.n, geometry._SUB_BLOCK_ROWS)
    columns, scratch = np.empty((3, m)), _Scratch.of(m, trials.distribution)
    for b in range(0, trials.n, m):
        walk = functools.partial(trials.visit_columns, b, min(b + m, trials.n), scratch=scratch)
        yield b, _put_columns(min(m, trials.n - b), walk, columns).T


def write_database(source: TrialDatabase | GeneratedTrials, fileobj) -> int:
    """Write the line-oriented text format; floats carry 17 significant digits.

    A database's stored columns are formatted where they lie; generated trials
    are walked once, a block at a time (``_in_order``). The row kernel
    (``rowtext._format_columns``) formats
    ``_WRITE_BLOCK_ROWS`` columns at a time with one set of buffers, one
    ``write`` each, so neither the rows nor their text are ever held whole.
    Returns how many rows went through the ``%`` row format rather than the kernel.
    """
    from .rowtext import _format_columns, _FormatScratch  # only gen-db compiles the kernel

    n = source.n
    fileobj.write(f"{_DB_HEADER_PREFIX} seed={source.seed} dist={source.distribution.tag()} n={n}\n")
    scratch = _FormatScratch.of(min(n, _WRITE_BLOCK_ROWS), -(-len(str(n - 1)) // 4))
    blocks = [(0, source.rows(0, n).T)] if isinstance(source, TrialDatabase) else _in_order(source)
    spliced = 0
    for b, cols in blocks:
        for a in range(0, cols.shape[1], _WRITE_BLOCK_ROWS):
            text, count = _format_columns(cols[:, a : a + _WRITE_BLOCK_ROWS], b + a, scratch)
            fileobj.write(text)
            spliced += count
    return spliced


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
    # grown as rows arrive, not sized from n, in the column order of every database
    spins = np.empty((min(n, _WRITE_BLOCK_ROWS), 3), order="F")
    for k in range(n):
        if k == len(spins):  # concatenate keeps the column order of its inputs
            spins = np.concatenate([spins, np.empty((min(k, n - k), 3), order="F")])
        parts = fileobj.readline().split()
        if len(parts) != 4 or parts[0] != str(k):  # the index exactly as written
            raise ConfigurationError(f"bad or out-of-order trial line {k}")
        try:
            spins[k] = [float(parts[1]), float(parts[2]), float(parts[3])]
        except ValueError as exc:
            raise ConfigurationError(f"bad trial line {k}") from exc
    if fileobj.readline():
        raise ConfigurationError(f"unexpected content after trial {n - 1}")
    return TrialDatabase._adopt(seed, dist, n, spins)
