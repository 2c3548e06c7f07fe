"""Unit vectors on the sphere and uniform direction sampling.

Spin carriers and measurement settings are directions only; magnitudes
play no role anywhere in the simulator. Directions are sampled by
normalizing three standard normal deviates, which is rotation
invariant by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .rng import CounterStream, _uniform_column_into

NORM_TOLERANCE = 1e-12
# A raw gaussian triple shorter than this is redrawn. Uniforms lie in (0, 1],
# and u1 = u3 = 1 gives the zero triple, which would normalize to NaN; so
# the redraws in _unit_columns and sample_uniform_directions stay.
_REJECT_NORM = 1e-6
_DRAWS_PER_ATTEMPT = 4  # two Box-Muller pairs; the fourth deviate is unused
_SUB_BLOCK_ROWS = 16_384  # keys per generation kernel pass; its scratch stays in cache


@dataclass(frozen=True)
class UnitVector:
    """A direction on the unit sphere."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        err = abs(self.x * self.x + self.y * self.y + self.z * self.z - 1.0)
        if not err <= NORM_TOLERANCE:
            raise ValueError(
                f"not a unit vector: ({self.x}, {self.y}, {self.z}), |n^2-1|={err:.3e}"
            )

    @classmethod
    def normalize(cls, x: float, y: float, z: float) -> "UnitVector":
        if not all(map(math.isfinite, (x, y, z))):
            raise ValueError(f"cannot normalize a non-finite vector: ({x}, {y}, {z})")
        # where the squares overflow, scaled down first (x / 1.0 is x, bit for bit)
        big = max(abs(x), abs(y), abs(z)) if math.isinf(x * x + y * y + z * z) else 1.0
        x, y, z = x / big, y / big, z / big
        n = math.sqrt(x * x + y * y + z * z)
        if n < _REJECT_NORM:
            raise ValueError("cannot normalize near-zero vector")
        return cls(x / n, y / n, z / n)

    @classmethod
    def from_array(cls, arr) -> "UnitVector":
        return cls(float(arr[0]), float(arr[1]), float(arr[2]))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def dot(self, other: "UnitVector") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def negated(self) -> "UnitVector":
        return UnitVector(-self.x, -self.y, -self.z)


X_AXIS = UnitVector(1.0, 0.0, 0.0)
Y_AXIS = UnitVector(0.0, 1.0, 0.0)
Z_AXIS = UnitVector(0.0, 0.0, 1.0)


def angle_between(u: UnitVector, v: UnitVector) -> float:
    """Angle in [0, pi] between two directions.

    The dot product is clamped to [-1, 1] before arccos so numerically
    parallel or antipodal inputs cannot produce NaN. Symmetric in its
    arguments down to the exact floating-point expression.
    """
    d = u.x * v.x + u.y * v.y + u.z * v.z
    return math.acos(min(1.0, max(-1.0, d)))


def direction_at_angle(theta: float) -> UnitVector:
    """In-plane direction (sin t, 0, cos t); angle theta away from +z."""
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    return UnitVector(math.sin(theta), 0.0, math.cos(theta))


def _gaussian_columns(u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Box-Muller: three N(0,1) deviates from each column of four (0, 1] uniforms.

    ``u`` is (4, m), rows u1..u4, and serves as scratch, so it is
    overwritten; gx, gy, gz are written to the rows of ``out`` (3, m).
    Every caller passes contiguous rows, the one layout the bit-exact
    tests pin (``_gaussian_triples`` copies a stream's interleaved draws).
    """
    u1, u2, u3, u4 = u
    for r, angle in ((u1, u2), (u3, u4)):
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        angle *= 2.0 * math.pi
    gx, gy, gz = out
    np.cos(u2, out=gx)
    gx *= u1
    np.sin(u2, out=gy)
    gy *= u1
    np.cos(u4, out=gz)
    gz *= u3
    return out


def _gaussian_triples(stream: CounterStream, count: int) -> np.ndarray:
    """The gaussian triples of the stream's next ``4 * count`` draws, four per
    triple, as (3, count) columns."""
    u = np.ascontiguousarray(stream.uniforms(4 * count).reshape(count, 4).T)
    return _gaussian_columns(u, np.empty((3, count)))


class _KernelScratch(NamedTuple):
    """The column kernels' buffers for sub-blocks of at most m keys. One set serves every
    sub-block of a generation call, each overwriting what the last one wrote."""

    columns: np.ndarray  # (3, m): the columns a sub-block's visit reads
    floats: np.ndarray  # (4, m): the uniform kernel's four uniforms, the cap kernel's temporaries
    raw: np.ndarray  # (m,) uint64: a uniform column's raw draws
    # (m,) uint64: the shift temporary of ``rng._mix64_inplace``, the first column row
    # read as uint64: no kernel writes its columns before it has drawn
    shift: np.ndarray

    @classmethod
    def of(cls, m: int, raw: np.ndarray | None = None) -> "_KernelScratch":
        columns = np.empty((3, m))
        raw = np.empty(m, dtype=np.uint64) if raw is None else raw[:m]
        return cls(columns, np.empty((4, m)), raw, columns[0].view(np.uint64))

    def head(self, m: int) -> "_KernelScratch":
        """The buffers of a sub-block of m keys."""
        return _KernelScratch(self.columns[:, :m], self.floats[:, :m], self.raw[:m], self.shift[:m])


def _column_blocks(n: int, fill, visit, scratch: _KernelScratch, base: int = 0) -> None:
    """``fill(lo, hi, part)``, then ``visit(part.columns, slice(base + lo, base + hi))``, for
    each sub-block [lo, hi) of at most ``_SUB_BLOCK_ROWS`` of n rows, in order. ``part`` is
    ``scratch.head(hi - lo)``, so every sub-block reuses the same buffers.
    """
    for lo in range(0, n, _SUB_BLOCK_ROWS):
        hi = min(lo + _SUB_BLOCK_ROWS, n)
        part = scratch.head(hi - lo)
        fill(lo, hi, part)
        visit(part.columns, slice(base + lo, base + hi))


def _normalize_columns(out: np.ndarray, norm: np.ndarray, square: np.ndarray) -> np.ndarray:
    # divides the (3, m) ``out`` by its column lengths sqrt((x*x + y*y) + z*z),
    # computed in ``norm`` with ``square`` as scratch; returns norm
    np.square(out[0], out=norm)
    for row in out[1:]:
        np.square(row, out=square)
        norm += square
    np.sqrt(norm, out=norm)
    out /= norm
    return norm


def _unit_columns(keys: np.ndarray, offset: int, scratch: _KernelScratch) -> np.ndarray:
    """Uniform sphere directions, one per uint64 stream key, into the (3, m)
    ``scratch.columns``, which it returns.

    Column i consumes draws offset, offset+1, ... of stream keys[i] only,
    so the result is independent of how the keys are partitioned. The four
    uniform columns are drawn in place in ``scratch.floats``, and Box-Muller
    (``_gaussian_columns``) and the normalization run on (3, m) columns with
    ``out=`` ufuncs. A column whose gaussian triple is shorter than
    ``_REJECT_NORM`` is redrawn from the next four draws of its stream, as
    often as it takes.
    """
    u, out = scratch.floats[:4], scratch.columns
    for j, row in enumerate(u):
        _uniform_column_into(keys, offset + j, row, scratch.raw, scratch.shift)
    _gaussian_columns(u, out)
    norm = _normalize_columns(out, u[1], u[3])  # u is free once the deviates are out
    redo = np.flatnonzero(norm < _REJECT_NORM)
    if redo.size:  # the next attempt draws from the next four positions
        out[:, redo] = _unit_columns(
            keys[redo], offset + _DRAWS_PER_ATTEMPT, _KernelScratch.of(redo.size)
        )
    return out


def sample_uniform_direction(stream: CounterStream) -> UnitVector:
    """One direction distributed uniformly on the sphere: ``sample_uniform_directions(stream, 1)``.

    Deterministic in the stream state: equal (key, counter) gives an
    identical vector.
    """
    return UnitVector.from_array(sample_uniform_directions(stream, 1)[0])


def sample_uniform_directions(stream: CounterStream, count: int) -> np.ndarray:
    """``count`` uniform directions drawn sequentially from one stream, as (count, 3) rows.

    Each consumes four draws per attempt. A gaussian triple shorter than
    ``_REJECT_NORM`` is redrawn, after the whole batch, from the stream's
    next four draws, as often as it takes.
    """
    gx, gy, gz = _gaussian_triples(stream, count)
    norm = np.sqrt(gx * gx + gy * gy + gz * gz)
    out = np.stack([gx, gy, gz], axis=1)
    for i in np.flatnonzero(norm < _REJECT_NORM):  # essentially never taken
        while norm[i] < _REJECT_NORM:
            x, y, z = out[i] = _gaussian_triples(stream, 1)[:, 0]
            norm[i] = math.sqrt(x * x + y * y + z * z)
    return out / norm[:, None]


def orthonormal_basis(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two unit vectors completing ``axis`` to a right-handed frame.

    Branches only on which coordinate axis is least aligned with
    ``axis``, so the completion is a deterministic function of input.
    """
    helper = np.zeros(3)
    helper[int(np.argmin(np.abs(axis)))] = 1.0
    e1 = np.cross(axis, helper)
    e1 /= math.sqrt(e1[0] ** 2 + e1[1] ** 2 + e1[2] ** 2)
    e2 = np.cross(axis, e1)
    return e1, e2
