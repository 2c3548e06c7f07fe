"""The CHSH statistic for the sign-product estimator.

For two setting pairs (a1, a2) and (b1, b2) the statistic combines the
four correlations as

    S = E(a1,b1) - E(a1,b2) - E(a2,b2) - E(a2,b1).

In reuse mode all four are computed from the same trials, which is
legitimate for a classical non-destructive experiment. Writing
x_i = sign(+s_k . a_i) and y_j = sign(-s_k . b_j), trial k contributes

    x_1*(y_1 - y_2) - x_2*(y_2 + y_1)

to n*S. Because the four signs are each +-1, one of y_1 - y_2 and
y_1 + y_2 is 0 and the other is +-2, so every per-trial term is +-2
and S, their average, can never leave [-2, +2]. That identity holds
per realization, for any spin distribution, which is exactly why this
classical experiment cannot approach the singlet curve's 2*sqrt(2).

Fresh mode instead evaluates each correlation on an independent
database, modeling a destructive protocol; the bound then holds in
expectation and S may exceed 2 only by sampling noise.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import parallel
from ._version import __version__
from .correlation import (
    _BLOCK_ROWS,
    CorrelationEstimate,
    pair_tallies,
    station_products,
)
from .experiment import ConfigurationError, GeneratedTrials, InvariantError, TrialDatabase
from .geometry import (
    _REJECT_NORM,
    UnitVector,
    _gaussian_columns,
    direction_at_angle,
    sample_uniform_directions,
)
from .rng import CounterStream
from .stats import hoeffding_bound

_BLOCK_QUADS = 32  # bounds the sign bits the search holds at once


@dataclass(frozen=True)
class SettingQuad:
    """The four reference directions (a1, a2) for station A, (b1, b2) for B."""

    a1: UnitVector
    a2: UnitVector
    b1: UnitVector
    b2: UnitVector

    @classmethod
    def from_plane_angles(cls, t_a1: float, t_a2: float, t_b1: float, t_b2: float) -> "SettingQuad":
        """Quad in the x-z plane, each direction at the given angle from +z."""
        return cls(
            a1=direction_at_angle(t_a1),
            a2=direction_at_angle(t_a2),
            b1=direction_at_angle(t_b1),
            b2=direction_at_angle(t_b2),
        )

    def sort_key(self) -> tuple:
        """Total order over quads; breaks ties when reducing search results."""
        return (
            self.a1.x, self.a1.y, self.a1.z,
            self.a2.x, self.a2.y, self.a2.z,
            self.b1.x, self.b1.y, self.b1.z,
            self.b2.x, self.b2.y, self.b2.z,
        )


# Settings at which the uniform-spin linear law saturates S = 2 while the
# singlet curve would reach 2*sqrt(2): a1=0, a2=90, b1=135, b2=45 degrees.
CANONICAL_QUAD = SettingQuad.from_plane_angles(0.0, math.pi / 2, 3 * math.pi / 4, math.pi / 4)


@dataclass(frozen=True)
class ChshResult:
    """The four correlations, the assembled statistic, and diagnostics."""

    e11: CorrelationEstimate
    e12: CorrelationEstimate
    e21: CorrelationEstimate
    e22: CorrelationEstimate
    statistic: float
    mode: str  # 'reuse' | 'fresh'
    n: int
    per_trial_min: int | None = None  # reuse mode only
    per_trial_max: int | None = None

    @property
    def combined_se(self) -> float:
        """Quadrature sum of the four standard errors (exact for fresh mode)."""
        return math.sqrt(
            self.e11.standard_error**2
            + self.e12.standard_error**2
            + self.e21.standard_error**2
            + self.e22.standard_error**2
        )


# ---------------------------------------------------------------------------
# per-trial terms and the statistic


def _pm2_terms(x1: np.ndarray, y1: np.ndarray, x2: np.ndarray, y2: np.ndarray) -> np.ndarray:
    """The per-trial terms x1*(y1 - y2) - x2*(y2 + y1), each +-2, from the station signs."""
    return x1 * (y1 - y2).astype(np.int64) - x2 * (y2 + y1).astype(np.int64)


class QuadTallies(NamedTuple):
    """What reuse mode keeps of a run of trials; runs merge by addition and min/max.

    ``pos`` and ``ties`` are ordered (a1,b1), (a1,b2), (a2,b1), (a2,b2).
    ``term_sum`` and ``term_pm2`` (the count of terms equal to +-2) exist
    so that the per-trial identity can be checked without the terms.
    """

    n: int
    pos: tuple[int, int, int, int]
    ties: tuple[int, int, int, int]
    term_min: int
    term_max: int
    term_sum: int
    term_pm2: int

    def merge(self, other: "QuadTallies") -> "QuadTallies":
        return QuadTallies(
            n=self.n + other.n,
            pos=tuple(map(operator.add, self.pos, other.pos)),
            ties=tuple(map(operator.add, self.ties, other.ties)),
            term_min=min(self.term_min, other.term_min),
            term_max=max(self.term_max, other.term_max),
            term_sum=self.term_sum + other.term_sum,
            term_pm2=self.term_pm2 + other.term_pm2,
        )


def _quad_tallies(spins: np.ndarray, quad: SettingQuad) -> QuadTallies:
    x1, y1, ta1, tb1 = station_products(spins, quad.a1, quad.b1)
    x2, y2, ta2, tb2 = station_products(spins, quad.a2, quad.b2)
    terms = _pm2_terms(x1, y1, x2, y2)
    return QuadTallies(
        n=len(terms),
        pos=(
            int(np.count_nonzero(x1 == y1)),
            int(np.count_nonzero(x1 == y2)),
            int(np.count_nonzero(x2 == y1)),
            int(np.count_nonzero(x2 == y2)),
        ),
        ties=(
            int(np.count_nonzero(ta1 | tb1)),
            int(np.count_nonzero(ta1 | tb2)),
            int(np.count_nonzero(ta2 | tb1)),
            int(np.count_nonzero(ta2 | tb2)),
        ),
        term_min=int(terms.min()),
        term_max=int(terms.max()),
        term_sum=int(terms.sum()),
        term_pm2=int(np.count_nonzero(np.abs(terms) == 2)),
    )


def _range_tallies(source, quad: SettingQuad, lo: int, hi: int) -> QuadTallies:
    """Tallies of trials [lo, hi) of a TrialDatabase or GeneratedTrials.

    The rows are taken one block at a time, so of generated trials no
    more than one block ever exists.
    """
    return functools.reduce(
        QuadTallies.merge,
        (
            _quad_tallies(source.rows(b, min(b + _BLOCK_ROWS, hi)), quad)
            for b in range(lo, hi, _BLOCK_ROWS)
        ),
    )


def streamed_tallies(
    trials: TrialDatabase | GeneratedTrials, quad: SettingQuad, workers: int = 1
) -> QuadTallies:
    """Reuse-mode tallies of all trials, merged over the row ranges of ``parallel.map_ranges``.

    Each range reads its rows block by block, so generated trials are
    tallied as they are generated. With more than one worker the ranges
    go to one pool whose tasks carry only (trials, quad, lo, hi): of
    ``GeneratedTrials`` no database is built, shipped or returned, in
    this process or any other.
    """
    partials = parallel.map_ranges(_range_tallies, trials.n, workers, trials, quad)
    return functools.reduce(QuadTallies.merge, partials)


def per_trial_terms(db: TrialDatabase, quad: SettingQuad) -> np.ndarray:
    """The n integer terms x1*(y1 - y2) - x2*(y2 + y1), each +-2.

    Their mean is exactly the reuse-mode statistic: the sum is an
    integer and the statistic performs the same single division by n.
    """
    spins = db.rows(0, db.n)
    x1, y1, _, _ = station_products(spins, quad.a1, quad.b1)
    x2, y2, _, _ = station_products(spins, quad.a2, quad.b2)
    return _pm2_terms(x1, y1, x2, y2)


def _numerator(n: int, pos11: int, pos12: int, pos21: int, pos22: int) -> int:
    """n*S = T11 - T12 - T22 - T21, with T_ij = 2*pos_ij - n."""
    return 2 * (pos11 - pos12 - pos22 - pos21) + 2 * n


def _reuse_statistic(n: int, pos11: int, pos12: int, pos21: int, pos22: int) -> float:
    # a single division keeps S exactly equal to the per-trial term mean
    return _numerator(n, pos11, pos12, pos21, pos22) / n


def result_from_tallies(tallies: QuadTallies) -> ChshResult:
    """The reuse-mode result of (merged) tallies that keep the per-trial +-2 identity.

    Every term is +-2, so all n of them count as such, their sum equals
    the numerator formed from the pair tallies, and |numerator| <= 2n.
    Tallies that break this raise ``InvariantError``.
    """
    numerator = _numerator(tallies.n, *tallies.pos)
    all_pm2 = tallies.term_pm2 == tallies.n
    if not (all_pm2 and tallies.term_sum == numerator and abs(numerator) <= 2 * tallies.n):
        raise InvariantError(
            "per-trial identity violated "
            f"(all terms +-2: {all_pm2}, sum {tallies.term_sum}, tallies {numerator})"
        )
    n = tallies.n
    pos11, pos12, pos21, pos22 = tallies.pos
    tie11, tie12, tie21, tie22 = tallies.ties
    return ChshResult(
        e11=CorrelationEstimate.from_tallies(n, pos11, tie11),
        e12=CorrelationEstimate.from_tallies(n, pos12, tie12),
        e21=CorrelationEstimate.from_tallies(n, pos21, tie21),
        e22=CorrelationEstimate.from_tallies(n, pos22, tie22),
        statistic=_reuse_statistic(n, pos11, pos12, pos21, pos22),
        mode="reuse",
        n=n,
        per_trial_min=tallies.term_min,
        per_trial_max=tallies.term_max,
    )


def chsh_statistic(
    db: TrialDatabase | GeneratedTrials,
    quad: SettingQuad,
    mode: str = "reuse",
    stream: CounterStream | None = None,
    workers: int = 1,
) -> ChshResult:
    """Evaluate S for a setting quad, in reuse or fresh mode.

    Reuse mode computes all four correlations on the same trials, so
    the per-trial +-2 identity applies and |S| <= 2 holds exactly. It
    is one pass over the rows, whose ranges are spread over ``workers``
    (``streamed_tallies``); if the merged tallies break the identity,
    which only a defect in the program can do, it raises
    ``InvariantError``. Fresh mode consumes three seeds from ``stream``
    for three more sets of trials of the same size and distribution,
    one per remaining correlation, which are generated as they are
    tallied and never stored; all four correlations are tallied in one
    map over row ranges. It carries no per-trial diagnostics.
    """
    if mode == "reuse":
        return result_from_tallies(streamed_tallies(db, quad, workers))
    if mode != "fresh":
        raise ConfigurationError(f"mode must be 'reuse' or 'fresh', got {mode!r}")
    if stream is None:
        raise ConfigurationError("fresh mode requires a random stream")

    # the fresh trials of e12, e21 and e22, seeded in that order
    t12, t21, t22 = (GeneratedTrials(stream.raw(), db.distribution, db.n) for _ in range(3))
    jobs = [
        (db, [(quad.a1, quad.b1)]),
        (t12, [(quad.a1, quad.b2)]),
        (t21, [(quad.a2, quad.b1)]),
        (t22, [(quad.a2, quad.b2)]),
    ]
    e11, e12, e21, e22 = (
        CorrelationEstimate.from_tallies(db.n, pos, ties)
        for pos, ties in pair_tallies(jobs, db.n, workers)
    )
    numerator = (
        (e11.count_pos - e11.count_neg)
        - (e12.count_pos - e12.count_neg)
        - (e22.count_pos - e22.count_neg)
        - (e21.count_pos - e21.count_neg)
    )
    return ChshResult(
        e11=e11, e12=e12, e21=e21, e22=e22,
        statistic=numerator / db.n,
        mode="fresh",
        n=db.n,
    )


# ---------------------------------------------------------------------------
# deterministic strategies


class StrategyEnumeration(NamedTuple):
    max: int
    min: int
    table: tuple[tuple[int, int, int, int, int], ...]


def enumerate_deterministic_strategies() -> StrategyEnumeration:
    """Exhaust all 16 sign assignments of (x1, x2, y1, y2).

    The combination x1*y1 - x1*y2 - x2*y2 - x2*y1 evaluates to +-2 for
    every assignment, which is the entire content of the classical
    bound: no deterministic strategy reaches past 2.
    """
    rows = tuple(
        (x1, x2, y1, y2, x1 * y1 - x1 * y2 - x2 * y2 - x2 * y1)
        for x1, x2, y1, y2 in itertools.product((-1, 1), repeat=4)
    )
    terms = [r[4] for r in rows]
    return StrategyEnumeration(max=max(terms), min=min(terms), table=rows)


def standard_combination(e11: float, e12: float, e21: float, e22: float) -> float:
    """The textbook CHSH form E11 + E12 + E21 - E22, for cross-checks.

    Feeding it the relabeled quad (a2, a1, b2, b1) yields exactly minus
    the combination used in this package, so the two conventions agree
    on the bound and saturate together.
    """
    return e11 + e12 + e21 - e22


# ---------------------------------------------------------------------------
# adversarial settings search
#
# Search candidates are float64 arrays shaped (k, 4, 3): per quad the
# directions a1, a2, b1, b2, each (x, y, z), the order of ``sort_key``.


def _quad_rows(quads) -> np.ndarray:
    """The (k, 4, 3) candidate rows of a sequence of SettingQuads."""
    return np.array([q.sort_key() for q in quads], dtype=np.float64).reshape(-1, 4, 3)


def _quad_of(row: np.ndarray) -> SettingQuad:
    return SettingQuad(*(UnitVector(*v) for v in row.tolist()))


class _SignPasses:
    """The spins of a reuse search, as its sign passes read them.

    Holds the unit-stride spin columns (each pass is faster on them) and
    the scratch of the passes, both allocated once here and shared by
    every evaluation on these spins: the search makes one and hands it to
    each ``_reuse_statistics`` and ``_table_statistics`` call.
    """

    def __init__(self, spins: np.ndarray):
        self.n = spins.shape[0]
        self.columns = np.ascontiguousarray(spins.T)
        # as many directions per ufunc call as fit in _BLOCK_ROWS elements (at least one)
        self.step = max(1, _BLOCK_ROWS // max(self.n, 1))
        self._dots = np.empty((self.step, self.n))
        self._term = np.empty_like(self._dots)
        self._plus = np.empty(self._dots.shape, dtype=bool)

    def bits(self, directions: np.ndarray, is_plus) -> np.ndarray:
        """One row of packed station signs per row of ``directions`` (k, 3), bit 1 for sign +1.

        ``is_plus`` is ``np.greater_equal`` for station A and ``np.less_equal``
        for station B: the comparisons of ``station_products``, including its
        sign(0) := +1 rule. The dots are the elementwise expression of
        ``setting_dots``, formed in place for ``step`` directions per ufunc
        call. The padding bits of the last byte are 0 at both stations, so
        they never count as a disagreement.
        """
        s0, s1, s2 = self.columns
        bits = np.empty((len(directions), (self.n + 7) // 8), dtype=np.uint8)
        for lo in range(0, len(directions), self.step):
            d = directions[lo : lo + self.step, :, None]
            dots, term, plus = self._dots[: len(d)], self._term[: len(d)], self._plus[: len(d)]
            np.multiply(s0, d[:, 0], out=dots)
            np.multiply(s1, d[:, 1], out=term)
            dots += term
            np.multiply(s2, d[:, 2], out=term)
            dots += term
            is_plus(dots, 0.0, out=plus)
            bits[lo : lo + len(d)] = np.packbits(plus, axis=1)
        return bits


def _passes_of(spins) -> _SignPasses:
    return spins if isinstance(spins, _SignPasses) else _SignPasses(spins)


def _reuse_statistics(spins, quads: np.ndarray) -> np.ndarray:
    """Reuse-mode statistics of candidate rows (k, 4, 3), each equal bit for bit
    to ``chsh_statistic(db, quad, "reuse").statistic``.

    ``spins`` is the (n, 3) spin array or its ``_SignPasses``. A pair tally
    is n - popcount(bitsA(a) XOR bitsB(b)). Quads are taken
    ``_BLOCK_QUADS`` at a time, which bounds the sign bits held at once.
    """
    passes = _passes_of(spins)
    n = passes.n
    stats = np.empty(len(quads))
    for lo in range(0, len(quads), _BLOCK_QUADS):
        block = quads[lo : lo + _BLOCK_QUADS]
        k = len(block)
        a = passes.bits(block[:, :2].reshape(-1, 3), np.greater_equal).reshape(k, 2, 1, -1)
        b = passes.bits(block[:, 2:].reshape(-1, 3), np.less_equal).reshape(k, 1, 2, -1)
        pos = n - np.bitwise_count(a ^ b).sum(axis=3, dtype=np.int64)  # pos[:, i, j]: (a_i, b_j)
        stats[lo : lo + k] = _reuse_statistic(
            n, pos[:, 0, 0], pos[:, 0, 1], pos[:, 1, 0], pos[:, 1, 1]
        )
    return stats


def _table_statistics(spins, a_dirs: np.ndarray, b_dirs: np.ndarray, index) -> np.ndarray:
    """Reuse-mode statistics of the quads (a_dirs[i1], a_dirs[i2], b_dirs[j1], b_dirs[j2]),
    one per row (i1, i2, j1, j2) of ``index``, equal bit for bit to ``_reuse_statistics``.

    ``spins`` is the (n, 3) spin array or its ``_SignPasses``. Each
    direction's signs are measured once, and every quad reads its four
    tallies by index from the table of all (a, b) pair tallies.
    """
    passes = _passes_of(spins)
    n = passes.n
    a_bits = passes.bits(a_dirs, np.greater_equal)
    b_bits = passes.bits(b_dirs, np.less_equal)
    pos = np.empty((len(a_bits), len(b_bits)), dtype=np.int64)
    for row, a in zip(pos, a_bits):
        row[:] = n - np.bitwise_count(a ^ b_bits).sum(axis=1, dtype=np.int64)
    i1, i2, j1, j2 = np.asarray(index, dtype=np.intp).reshape(-1, 4).T
    return _reuse_statistic(n, pos[i1, j1], pos[i1, j2], pos[i2, j1], pos[i2, j2])


def _eval_candidates(source, quads, mode, base_key, offset, workers) -> np.ndarray:
    """Statistics for candidate rows (k, 4, 3).

    Reuse mode runs in this process on packed sign bits; ``source`` is the
    search's ``_SignPasses``. Fresh candidates derive their private stream
    from (base_key, global candidate index) and are spread over a process
    pool; ``source`` is the trial database.
    """
    if mode == "reuse":
        return _reuse_statistics(source, quads)
    chunks = parallel.map_ranges(
        _fresh_statistics, len(quads), workers, source, quads, base_key, offset, minimum=2
    )
    return np.array([s for chunk in chunks for s in chunk])


def _fresh_statistics(db, quads, base_key, offset, lo, hi):
    return [
        chsh_statistic(
            db, _quad_of(quads[i]), "fresh", CounterStream(base_key).derive(offset + i)
        ).statistic
        for i in range(lo, hi)
    ]


def _lattice(count_budget: int) -> tuple[np.ndarray, np.ndarray]:
    """The in-plane lattice of at most ``count_budget`` quads, g**4 of them.

    Returns its g directions, at angles 2*pi*k/g from +z, and the (g**4, 4)
    direction indices of its quads in ``itertools.product`` order; both are
    empty when g < 2.
    """
    g = int(count_budget**0.25)
    if g < 2:
        g = 0
    directions = [direction_at_angle(2.0 * math.pi * k / g) for k in range(g)]
    rows = np.array([(d.x, d.y, d.z) for d in directions], dtype=np.float64).reshape(-1, 3)
    return rows, np.indices((g,) * 4).reshape(4, -1).T


def _perturbed_quad(quad: SettingQuad, stream: CounterStream, radius: float) -> SettingQuad:
    dirs = []
    g = sample_uniform_directions(stream, 4)
    for base, step in zip((quad.a1, quad.a2, quad.b1, quad.b2), g):
        dirs.append(
            UnitVector.normalize(
                base.x + radius * step[0],
                base.y + radius * step[1],
                base.z + radius * step[2],
            )
        )
    return SettingQuad(*dirs)


def _perturbed_quads(
    quad: np.ndarray, stream: CounterStream, radius: float, size: int
) -> np.ndarray:
    """``size`` perturbations of the quad rows ``quad`` (4, 3), equal bit for bit to
    ``size`` calls of ``_perturbed_quad`` in a row, leaving ``stream`` where they leave it.

    One draw of 16 * size uniforms serves them all, unless some gaussian
    triple or some moved direction is shorter than ``_REJECT_NORM``; then
    the stream goes back to where the round started and the sequential
    path redraws the triple (or rejects the direction) as it always has.
    """
    start = stream.counter
    u = stream.uniforms(16 * size).reshape(-1, 4)
    gx, gy, gz = _gaussian_columns(u[:, 0], u[:, 1], u[:, 2], u[:, 3])
    norm = np.sqrt(gx * gx + gy * gy + gz * gz)
    moved = np.tile(quad, (size, 1)) + radius * (np.stack([gx, gy, gz], axis=1) / norm[:, None])
    x, y, z = moved.T
    length = np.sqrt(x * x + y * y + z * z)
    if norm.min() < _REJECT_NORM or length.min() < _REJECT_NORM:
        stream.counter = start
        base = _quad_of(quad)
        return _quad_rows([_perturbed_quad(base, stream, radius) for _ in range(size)])
    return (moved / length[:, None]).reshape(size, 4, 3)


def _best(stats: np.ndarray, quads: np.ndarray) -> int:
    """Index of the greatest (statistic, sort_key) among candidate rows, the earliest of equals."""
    best = np.flatnonzero(stats == stats.max())
    for column in quads.reshape(len(quads), -1).T:
        values = column[best]
        best = best[values == values.max()]
    return int(best[0])


def search_max_chsh(
    db: TrialDatabase,
    mode: str,
    budget: int,
    stream: CounterStream,
    initial: SettingQuad | None = None,
    workers: int = 1,
) -> tuple[ChshResult, SettingQuad]:
    """Derivative-free search for the settings maximizing the statistic.

    The objective is piecewise constant in the settings (moving a
    setting only matters when some trial's sign flips), so the search
    combines a coarse in-plane lattice, uniform random quads over the
    sphere, and random local refinement around the incumbent. Budget
    counts evaluated quads; the first candidate is ``initial``
    (canonical saturating quad by default), so budget 1 just evaluates
    that quad. The best candidate is reduced with an associative max
    keyed on (statistic, quad ordering), making the outcome independent
    of evaluation order and worker count. Candidates are kept as arrays
    and only the winner becomes a SettingQuad. Reuse mode runs in this
    process and ignores ``workers``.

    In reuse mode the winner is checked before it is returned: its
    re-evaluation by ``chsh_statistic`` checks the per-trial identity,
    and both evaluators that ranked the candidates, the packed one and
    the lattice's pair table, must give it the re-evaluated statistic.
    A failed check raises ``InvariantError``.
    """
    if budget < 1:
        raise ConfigurationError(f"search budget must be >= 1, got {budget}")
    if mode not in ("reuse", "fresh"):
        raise ConfigurationError(f"mode must be 'reuse' or 'fresh', got {mode!r}")

    base_key = stream.key  # fresh-mode candidates derive substreams from here
    first = _quad_rows([initial if initial is not None else CANONICAL_QUAD])
    remaining = budget - 1

    directions, lattice = _lattice(remaining // 3 if remaining >= 16 else 0)
    remaining -= len(lattice)

    n_random = remaining // 2
    randoms = sample_uniform_directions(stream, 4 * n_random).reshape(n_random, 4, 3)
    remaining -= n_random

    quads = np.concatenate([first, directions[lattice], randoms])
    if mode == "reuse":
        # every evaluation shares one column copy and one pass scratch
        source = _SignPasses(db.spins)
        # the lattice quads share g directions, so one pair table gives all their S
        packed = _reuse_statistics(source, np.concatenate([first, randoms]))
        table = _table_statistics(source, directions, directions, lattice)
        stats = np.concatenate([packed[:1], table, packed[1:]])
    else:
        source = db
        stats = _eval_candidates(source, quads, mode, base_key, 0, workers)
    best_index = _best(stats, quads)
    best_stat, best_quad = stats[best_index], quads[best_index]

    # local refinement: perturb the incumbent with shrinking radius
    offset = len(quads)
    round_no = 0
    while remaining > 0:
        size = min(32, remaining)
        radius = 0.4 * (0.8**round_no)
        batch = _perturbed_quads(best_quad, stream, radius, size)
        batch_stats = _eval_candidates(source, batch, mode, base_key, offset, workers)
        # the incumbent goes first, so an equal candidate leaves it in place
        i = _best(np.append(best_stat, batch_stats), np.concatenate([best_quad[None], batch])) - 1
        if i >= 0:
            best_stat, best_quad, best_index = batch_stats[i], batch[i], offset + i
        offset += size
        remaining -= size
        round_no += 1

    quad = _quad_of(best_quad)
    if mode == "fresh":
        best_result = chsh_statistic(
            db, quad, "fresh", CounterStream(base_key).derive(best_index), workers=workers
        )
    else:
        best_result = chsh_statistic(db, quad, "reuse")
        a_dirs, b_dirs = best_quad[:2], best_quad[2:]
        ranked = (
            ("packed evaluator", _reuse_statistics(source, best_quad[None])[0]),
            ("pair table", _table_statistics(source, a_dirs, b_dirs, [(0, 1, 0, 1)])[0]),
        )
        for name, statistic in ranked:
            if statistic != best_result.statistic:
                raise InvariantError(
                    f"{name} gives the best quad S = {float(statistic)!r}, "
                    f"its re-evaluation {best_result.statistic!r}"
                )
    return best_result, quad


# ---------------------------------------------------------------------------
# structured summaries (JSON-shaped)


def _vector_fields(v: UnitVector) -> dict:
    return {"x": v.x, "y": v.y, "z": v.z}


def _estimate_fields(e: CorrelationEstimate) -> dict:
    return {
        "value": e.value,
        "se": e.standard_error,
        "ties": e.tie_count,
        "count_pos": e.count_pos,
        "count_neg": e.count_neg,
    }


def result_summary(
    result: ChshResult,
    quad: SettingQuad,
    seed: int,
    distribution_tag: str,
    budget: int | None = None,
) -> dict:
    """JSON-shaped summary of a CHSH evaluation or settings search."""
    doc = {
        "tool": "bellsim",
        "version": __version__,
        "seed": seed,
        "dist": distribution_tag,
        "mode": result.mode,
        "n": result.n,
        "quad": {
            "a1": _vector_fields(quad.a1),
            "a2": _vector_fields(quad.a2),
            "b1": _vector_fields(quad.b1),
            "b2": _vector_fields(quad.b2),
        },
        "e11": _estimate_fields(result.e11),
        "e12": _estimate_fields(result.e12),
        "e21": _estimate_fields(result.e21),
        "e22": _estimate_fields(result.e22),
        "statistic": result.statistic,
    }
    if result.mode == "reuse":
        doc["per_trial_min"] = result.per_trial_min
        doc["per_trial_max"] = result.per_trial_max
    else:
        doc["combined_se"] = result.combined_se
    if budget is not None:
        doc["budget"] = budget
        excess = max(0.0, result.statistic - 2.0)
        doc["excess_over_2"] = excess
        if excess > 0.0:
            # four independent +-1 means stack like one mean with n/4 samples
            doc["excess_hoeffding_bound"] = hoeffding_bound(max(1, result.n // 4), excess).bound
        else:
            doc["excess_hoeffding_bound"] = None
    return doc
