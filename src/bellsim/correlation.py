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
from ._version import __version__
from .experiment import (
    ConfigurationError,
    GeneratedTrials,
    InvariantError,
    TrialDatabase,
    format_g17,
    station_readings,
)
from .geometry import UnitVector, direction_at_angle
from .parallel import _BLOCK_ROWS
from .stats import CorrelationEstimate

_ANGLE_SLACK = 1e-9


def _pair_tallies(spins: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[int, int]:
    """(count_pos, tie_count) of one setting pair, direction rows ``a`` and ``b`` (1, 3),
    over the spin rows (m, 3): a product of readings is +1 where the two
    ``station_readings`` masks agree, so the signs themselves are never formed."""
    x, y, da, db = station_readings(spins.T, a, b)
    count_pos = int(np.count_nonzero(x == y))
    tie_count = int(np.count_nonzero((da == 0.0) | (db == 0.0)))
    return count_pos, tie_count


def _range_pair_tallies(source, pairs, lo: int, hi: int) -> np.ndarray:
    """One (count_pos, tie_count) row per setting pair, over trials [lo, hi) of ``source``.

    The source is a ``TrialDatabase`` or ``GeneratedTrials``. Its rows are
    read one block at a time, and every pair is tallied on a block before
    the next one is read.
    """
    directions = [(a.as_array()[None], b.as_array()[None]) for a, b in pairs]
    sums = np.zeros((len(pairs), 2), dtype=np.int64)
    for start in range(lo, hi, _BLOCK_ROWS):
        spins = source.rows(start, min(start + _BLOCK_ROWS, hi))
        sums += [_pair_tallies(spins, a, b) for a, b in directions]
    return sums


def pair_tallies(source, pairs, workers: int = 1) -> list[tuple[int, int]]:
    """(count_pos, tie_count) of every setting pair over all trials of ``source``.

    Workers split the trial range, and the ranges' tallies merge by addition.
    """
    total = sum(parallel.map_ranges(_range_pair_tallies, source.n, workers, source, pairs))
    return [tuple(row) for row in total.tolist()]


def estimate_correlation(
    db: TrialDatabase | GeneratedTrials, a: UnitVector, b: UnitVector, workers: int = 1
) -> CorrelationEstimate:
    """The sign-product correlation over all trials of the database or generated trials.

    Workers partition the trial range; each partition contributes
    integer tallies merged by addition, so the estimate is exact and
    identical at any worker count.
    """
    if db.n < 1:
        raise ConfigurationError("database is empty")
    ((count_pos, tie_count),) = pair_tallies(db, [(a, b)], workers)
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


def _validate_grid(thetas) -> list[float]:
    thetas = [float(t) for t in thetas]
    if not thetas:
        raise ConfigurationError("theta grid is empty")
    cleaned = [_check_theta(t) for t in thetas]
    if any(b <= a for a, b in zip(cleaned, cleaned[1:])):
        raise ConfigurationError("theta grid must be strictly increasing")
    return cleaned


def sweep_correlation(
    db: TrialDatabase | GeneratedTrials,
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

    Workers split the trials; each range is read in row blocks, and
    every grid point is tallied on a block before the next is read.

    Where b equals a (theta = 0 in the default plane) the stations read
    opposite signs on every trial except an exact tie, which both read
    as +1, so count_pos must equal tie_count exactly; a point that
    breaks this raises ``InvariantError``.
    """
    grid = _validate_grid(thetas)
    if plane is not None:
        e1, e2 = plane
        if abs(e1.dot(e2)) > _ANGLE_SLACK:
            raise ConfigurationError("sweep plane vectors must be orthonormal")

    pairs = [_sweep_directions(theta, plane) for theta in grid]
    tallies = pair_tallies(db, pairs, workers)

    points = []
    for theta, (a, b), (count_pos, tie_count) in zip(grid, pairs, tallies):
        if a == b and count_pos != tie_count:
            raise InvariantError(
                f"b equals a at theta = {theta!r}, yet count_pos {count_pos} "
                f"!= tie_count {tie_count}"
            )
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
# CSV and JSON serialization

# The sweep's columns in order, each with its value at a grid point: the CSV
# header and rows and the JSON points are all read from this one table.
_CURVE_COLUMNS = {
    "theta_rad": lambda p: p.theta,
    "theta_deg": lambda p: math.degrees(p.theta),
    "E_hat": lambda p: p.estimate.value,
    "SE": lambda p: p.estimate.standard_error,
    "count_pos": lambda p: p.estimate.count_pos,
    "count_neg": lambda p: p.estimate.count_neg,
    "tie_count": lambda p: p.estimate.tie_count,
    "E_linear": lambda p: p.linear_ref,
    "E_singlet": lambda p: p.singlet_ref,
}
CURVE_CSV_HEADER = ",".join(_CURVE_COLUMNS)


def _point_fields(p: CurvePoint) -> dict:
    return {name: column(p) for name, column in _CURVE_COLUMNS.items()}


def write_curve_csv(curve: CorrelationCurve, fileobj, provenance: str | None = None) -> None:
    """Write one row per grid point; real values carry 17 significant digits."""
    if provenance:
        fileobj.write(f"# {provenance}\n")
    fileobj.write(CURVE_CSV_HEADER + "\n")
    for p in curve.points:
        row = (format_g17(v) if isinstance(v, float) else str(v) for v in _point_fields(p).values())
        fileobj.write(",".join(row) + "\n")


def curve_summary(curve: CorrelationCurve, seed: int, distribution_tag: str) -> dict:
    """JSON-shaped summary of a sweep; each point carries the CSV's columns."""
    return {
        "tool": "bellsim",
        "version": __version__,
        "command": "sweep",
        "seed": seed,
        "n": curve.points[0].estimate.n,
        "dist": distribution_tag,
        "points": [_point_fields(p) for p in curve.points],
    }
