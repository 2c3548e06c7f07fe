"""The sign-product correlation estimator and its reference curves.

For settings a and b, the estimator averages the product of the two
stations' readings over the stored trials:

    E(a, b) = (1/n) * sum_k sign(+s_k . a) * sign(-s_k . b)

The average is kept as exact integer tallies divided once, so results
are independent of accumulation order and partitioning. Two analytic
curves accompany every estimate: the large-n limit of this estimator
under uniform spins, which is linear in the angle between the
settings, and the singlet correlation -cos(angle) that a quantum
spin-1/2 pair would show. The whole point of the toolkit is that the
estimator tracks the first and provably cannot track the second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import parallel
from .experiment import ConfigurationError, TrialDatabase, format_g17
from .geometry import UnitVector, direction_at_angle
from .stats import standard_error

_ANGLE_SLACK = 1e-9


@dataclass(frozen=True)
class CorrelationEstimate:
    """E(a, b) with its exact tallies and a large-sample standard error."""

    value: float
    n: int
    count_pos: int
    count_neg: int
    tie_count: int
    standard_error: float

    @classmethod
    def from_tallies(cls, n: int, count_pos: int, tie_count: int) -> "CorrelationEstimate":
        count_neg = n - count_pos
        value = (count_pos - count_neg) / n
        return cls(
            value=value,
            n=n,
            count_pos=count_pos,
            count_neg=count_neg,
            tie_count=tie_count,
            standard_error=standard_error(value, n),
        )


def setting_dots(s0: np.ndarray, s1: np.ndarray, s2: np.ndarray, d: UnitVector) -> np.ndarray:
    """Per-trial dot products s_k . d from the three spin columns.

    Every station sign in the package is taken from this expression.
    It is formed elementwise rather than with BLAS matvec calls, whose
    kernel choice can depend on operand size; elementwise ufuncs give
    bit-identical per-trial values under any partitioning of the rows.
    """
    return s0 * d.x + s1 * d.y + s2 * d.z


def station_products(
    spins: np.ndarray, a: UnitVector, b: UnitVector
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-trial station signs and tie masks for a setting pair.

    Returns (x, y, tie_a, tie_b) where x_k = sign(+s_k . a) and
    y_k = sign(-s_k . b), with sign(0) := +1.
    """
    s0, s1, s2 = spins[:, 0], spins[:, 1], spins[:, 2]
    da = setting_dots(s0, s1, s2, a)
    db = setting_dots(s0, s1, s2, b)
    x = np.where(da >= 0.0, 1, -1).astype(np.int8)
    y = np.where(db <= 0.0, 1, -1).astype(np.int8)
    return x, y, da == 0.0, db == 0.0


def _pair_tallies(spins: np.ndarray, a: UnitVector, b: UnitVector) -> tuple[int, int]:
    x, y, tie_a, tie_b = station_products(spins, a, b)
    count_pos = int(np.count_nonzero(x == y))  # product is +1 iff signs agree
    tie_count = int(np.count_nonzero(tie_a | tie_b))
    return count_pos, tie_count


def _estimate_range_task(args) -> tuple[int, int]:
    lo, hi, a, b = args
    return _pair_tallies(parallel.worker_db().spins[lo:hi], a, b)


def estimate_correlation(
    db: TrialDatabase, a: UnitVector, b: UnitVector, workers: int = 1
) -> CorrelationEstimate:
    """The sign-product correlation over all trials of the database.

    Workers partition the trial range; each partition contributes
    integer tallies merged by addition, so the estimate is exact and
    identical at any worker count.
    """
    if db.n < 1:
        raise ConfigurationError("database is empty")
    if workers > 1 and db.n >= parallel.MIN_PARALLEL_TRIALS:
        ranges = parallel.chunk_ranges(db.n, workers)
        with parallel.db_pool(db, workers) as pool:
            partials = list(pool.map(_estimate_range_task, [(lo, hi, a, b) for lo, hi in ranges]))
        count_pos = sum(p for p, _ in partials)
        tie_count = sum(t for _, t in partials)
    else:
        count_pos, tie_count = _pair_tallies(db.spins, a, b)
    return CorrelationEstimate.from_tallies(db.n, count_pos, tie_count)


# ---------------------------------------------------------------------------
# reference curves


def _check_theta(theta: float) -> float:
    if not (-_ANGLE_SLACK <= theta <= math.pi + _ANGLE_SLACK):
        raise ConfigurationError(f"theta must lie in [0, pi], got {theta}")
    return min(max(theta, 0.0), math.pi)


def reference_linear(theta: float) -> float:
    """Large-n limit of the estimator for uniform spins: -1 + 2*theta/pi.

    Perfect anticorrelation at theta = 0 rising linearly to perfect
    correlation at theta = pi. The closed form is cross-checked against
    a numerical integration oracle in the acceptance suite.
    """
    return -1.0 + 2.0 * _check_theta(theta) / math.pi


def reference_singlet(theta: float) -> float:
    """Quantum singlet correlation, -cos(theta), for contrast."""
    return -math.cos(_check_theta(theta))


# ---------------------------------------------------------------------------
# angle sweeps


@dataclass(frozen=True)
class CurvePoint:
    theta: float
    estimate: CorrelationEstimate
    linear_ref: float
    singlet_ref: float


@dataclass(frozen=True)
class CorrelationCurve:
    """E(theta) tabulated against both reference curves."""

    points: tuple[CurvePoint, ...]

    def max_deviations(self) -> tuple[float, float]:
        """(max |E - linear|, max |E - singlet|) over the grid."""
        dl = max(abs(p.estimate.value - p.linear_ref) for p in self.points)
        ds = max(abs(p.estimate.value - p.singlet_ref) for p in self.points)
        return dl, ds


def _sweep_directions(theta: float, plane) -> tuple[UnitVector, UnitVector]:
    if plane is None:
        return direction_at_angle(0.0), direction_at_angle(theta)
    e1, e2 = plane
    a = e2
    b = UnitVector.normalize(
        math.sin(theta) * e1.x + math.cos(theta) * e2.x,
        math.sin(theta) * e1.y + math.cos(theta) * e2.y,
        math.sin(theta) * e1.z + math.cos(theta) * e2.z,
    )
    return a, b


def _sweep_tallies(spins: np.ndarray, thetas, plane) -> list[tuple[int, int]]:
    out = []
    for theta in thetas:
        a, b = _sweep_directions(theta, plane)
        out.append(_pair_tallies(spins, a, b))
    return out


def _sweep_block_task(args) -> list[tuple[int, int]]:
    thetas, plane = args
    return _sweep_tallies(parallel.worker_db().spins, thetas, plane)


def _validate_grid(thetas) -> list[float]:
    thetas = [float(t) for t in thetas]
    if not thetas:
        raise ConfigurationError("theta grid is empty")
    cleaned = [_check_theta(t) for t in thetas]
    if any(b <= a for a, b in zip(cleaned, cleaned[1:])):
        raise ConfigurationError("theta grid must be strictly increasing")
    return cleaned


def sweep_correlation(
    db: TrialDatabase,
    thetas,
    plane: tuple[UnitVector, UnitVector] | None = None,
    workers: int = 1,
) -> CorrelationCurve:
    """Evaluate the estimator on a strictly increasing grid over [0, pi].

    By default the first setting is fixed at +z and the second moves
    through the x-z plane, which loses no generality for rotation
    invariant spin distributions. For other distributions pass an
    explicit orthonormal ``plane`` (e1, e2); the sweep then starts at
    e2 and rotates toward e1.
    """
    grid = _validate_grid(thetas)
    if plane is not None:
        e1, e2 = plane
        if abs(e1.dot(e2)) > _ANGLE_SLACK:
            raise ConfigurationError("sweep plane vectors must be orthonormal")

    if workers > 1 and db.n >= parallel.MIN_PARALLEL_TRIALS and len(grid) > 1:
        blocks = parallel.chunk_ranges(len(grid), 2 * workers)
        tasks = [(grid[lo:hi], plane) for lo, hi in blocks]
        with parallel.db_pool(db, workers) as pool:
            results = list(pool.map(_sweep_block_task, tasks))
        tallies = [t for block in results for t in block]
    else:
        tallies = _sweep_tallies(db.spins, grid, plane)

    points = []
    for theta, (count_pos, tie_count) in zip(grid, tallies):
        est = CorrelationEstimate.from_tallies(db.n, count_pos, tie_count)
        points.append(
            CurvePoint(
                theta=theta,
                estimate=est,
                linear_ref=reference_linear(theta),
                singlet_ref=reference_singlet(theta),
            )
        )
    return CorrelationCurve(points=tuple(points))


# ---------------------------------------------------------------------------
# CSV serialization

CURVE_CSV_HEADER = "theta_rad,theta_deg,E_hat,SE,count_pos,count_neg,tie_count,E_linear,E_singlet"


def write_curve_csv(curve: CorrelationCurve, fileobj, provenance: str | None = None) -> None:
    """Write one row per grid point; real values carry 17 significant digits."""
    if provenance:
        fileobj.write(f"# {provenance}\n")
    fileobj.write(CURVE_CSV_HEADER + "\n")
    for p in curve.points:
        e = p.estimate
        fileobj.write(
            ",".join(
                [
                    format_g17(p.theta),
                    format_g17(math.degrees(p.theta)),
                    format_g17(e.value),
                    format_g17(e.standard_error),
                    str(e.count_pos),
                    str(e.count_neg),
                    str(e.tie_count),
                    format_g17(p.linear_ref),
                    format_g17(p.singlet_ref),
                ]
            )
            + "\n"
        )
