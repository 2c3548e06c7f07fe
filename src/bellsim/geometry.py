"""Unit vectors on the sphere and uniform direction sampling.

Spin carriers and measurement settings are directions only; magnitudes
play no role anywhere in the simulator. Directions are sampled by
normalizing three standard normal deviates, which is rotation
invariant by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import CounterStream, key_uniform_column

NORM_TOLERANCE = 1e-12
_REJECT_NORM = 1e-6  # raw gaussian triple shorter than this is redrawn
_DRAWS_PER_ATTEMPT = 4  # two Box-Muller pairs; the fourth deviate is unused


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


def _gaussian_columns(u1, u2, u3, u4):
    # Box-Muller: exactly three N(0,1) deviates from four (0,1) uniforms.
    r1 = np.sqrt(-2.0 * np.log(u1))
    r2 = np.sqrt(-2.0 * np.log(u3))
    return (
        r1 * np.cos(2.0 * math.pi * u2),
        r1 * np.sin(2.0 * math.pi * u2),
        r2 * np.cos(2.0 * math.pi * u4),
    )


def unit_rows_for_keys(keys: np.ndarray, offset: int = 0) -> np.ndarray:
    """Uniform sphere directions, one per stream key, vectorized.

    Row i consumes draws offset, offset+1, ... of stream keys[i] only,
    so the result is independent of how the key array is partitioned.
    Degenerate short triples are redrawn from the same stream.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    out = np.empty((keys.shape[0], 3))
    todo = np.arange(keys.shape[0])
    attempt = 0
    while todo.size:
        base = offset + _DRAWS_PER_ATTEMPT * attempt
        k = keys[todo]
        u = [key_uniform_column(k, base + j) for j in range(4)]
        gx, gy, gz = _gaussian_columns(*u)
        norm = np.sqrt(gx * gx + gy * gy + gz * gz)
        ok = norm >= _REJECT_NORM
        rows = todo[ok]
        out[rows, 0] = gx[ok] / norm[ok]
        out[rows, 1] = gy[ok] / norm[ok]
        out[rows, 2] = gz[ok] / norm[ok]
        todo = todo[~ok]
        attempt += 1
    return out


def sample_uniform_direction(stream: CounterStream) -> UnitVector:
    """One direction distributed uniformly on the sphere.

    Deterministic in the stream state: equal (key, counter) gives an
    identical vector. Consumes four draws per attempt.
    """
    while True:
        u1, u2, u3, u4 = stream.uniforms(4)
        gx, gy, gz = _gaussian_columns(u1, u2, u3, u4)
        norm = math.sqrt(gx * gx + gy * gy + gz * gz)
        if norm >= _REJECT_NORM:
            return UnitVector(gx / norm, gy / norm, gz / norm)


def sample_uniform_directions(stream: CounterStream, count: int) -> np.ndarray:
    """``count`` uniform directions drawn sequentially from one stream."""
    u = stream.uniforms(4 * count).reshape(count, 4)
    gx, gy, gz = _gaussian_columns(u[:, 0], u[:, 1], u[:, 2], u[:, 3])
    norm = np.sqrt(gx * gx + gy * gy + gz * gz)
    out = np.stack([gx, gy, gz], axis=1)
    bad = np.flatnonzero(norm < _REJECT_NORM)
    for i in bad:  # essentially never taken
        v = sample_uniform_direction(stream)
        out[i] = (v.x, v.y, v.z)
        norm[i] = 1.0
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
