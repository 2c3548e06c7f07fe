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
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import experiment, geometry, parallel
from ._version import __version__
from .experiment import MODES, ConfigurationError, GeneratedTrials, InvariantError, TrialDatabase
from .geometry import UnitVector, direction_at_angle, sample_uniform_directions
from .parallel import _BLOCK_ROWS
from .rng import CounterStream
from .stats import CorrelationEstimate, hoeffding_bound


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
        return cls(*map(direction_at_angle, (t_a1, t_a2, t_b1, t_b2)))

    def sort_key(self) -> tuple:
        """Total order over quads; breaks ties when reducing search results."""
        return tuple(c for v in (self.a1, self.a2, self.b1, self.b2) for c in (v.x, v.y, v.z))


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
        return math.sqrt(sum(e.standard_error**2 for e in (self.e11, self.e12, self.e21, self.e22)))


# ---------------------------------------------------------------------------
# per-trial terms and the statistic


class QuadTallies(NamedTuple):
    """What a statistic keeps of a run of trials; runs merge by addition and min/max.

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


def _quad_tallies(s: np.ndarray, quad: np.ndarray, dots: np.ndarray) -> QuadTallies:
    """Tallies of the spin columns ``s`` (3, m) at the quad rows ``quad`` (4, 3), a1, a2,
    b1, b2, with ``dots`` (2, 4, >= m) as scratch for ``_station_bits``, the search's kernel.

    Ties are the dots' exact zeros, and a pair's ``pos`` is m less the trials
    whose signs differ. On packed bits every term is +-2 by construction, so
    ``term_pm2`` is m. The +2 terms are counted from ``_plus_bits``, so the
    term sum and the numerator from ``pos`` are computed apart: that pair is
    what the identity check compares.
    """
    m = s.shape[1]
    d = dots[:, :, :m]
    x, y = _station_bits(s, quad[:2], quad[2:], d)
    tie = np.packbits(d[0] == 0.0, axis=1)
    i, j = [0, 0, 1, 1], [0, 1, 0, 1]  # the pairs (a1,b1), (a1,b2), (a2,b1), (a2,b2)
    differ = np.bitwise_count(x[i] ^ y[j]).sum(axis=1, dtype=np.int64)
    tied = np.bitwise_count(tie[i] | tie[2:][j]).sum(axis=1, dtype=np.int64)
    plus = int(np.bitwise_count(_plus_bits(*x, *y)).sum(dtype=np.int64))
    return QuadTallies(
        n=m,
        pos=tuple((m - differ).tolist()),
        ties=tuple(tied.tolist()),
        term_min=2 if plus == m else -2,
        term_max=-2 if plus == 0 else 2,
        term_sum=4 * plus - 2 * m,
        term_pm2=m,
    )


def _range_tallies(sets, quad: SettingQuad, lo: int, hi: int) -> list[QuadTallies]:
    """Tallies of trials [lo, hi) of each TrialDatabase or GeneratedTrials of ``sets``.

    The trials are visited one block of rows at a time as the (3, m)
    columns that ``visit_columns`` gives, in any order, so of generated
    trials no more than one block ever exists and none is put in trial
    order. The dots scratch serves every visit of the range, in every set.
    """
    row = _quad_rows([quad])[0]
    dots = np.empty((2, 4, min(hi - lo, _BLOCK_ROWS, geometry._SUB_BLOCK_ROWS)))
    tallies = []
    for source in sets:
        parts = []
        for b in range(lo, hi, _BLOCK_ROWS):
            source.visit_columns(
                b, min(b + _BLOCK_ROWS, hi), lambda s, _: parts.append(_quad_tallies(s, row, dots))
            )
        tallies.append(functools.reduce(QuadTallies.merge, parts))
    return tallies


def streamed_tallies(sets, quad: SettingQuad, workers: int = 1) -> list[QuadTallies]:
    """Tallies of all trials of each set (all of one size), merged over the row ranges
    of one ``parallel.map_ranges``.

    Each range reads its rows block by block, so generated trials are
    tallied as they are generated. With more than one worker the ranges
    go to one pool whose tasks carry only (sets, quad, lo, hi): of
    ``GeneratedTrials`` no database is built, shipped or returned, in
    this process or any other.
    """
    partials = parallel.map_ranges(_range_tallies, sets[0].n, workers, sets, quad)
    return [functools.reduce(QuadTallies.merge, ranges) for ranges in zip(*partials)]


def per_trial_terms(db: TrialDatabase, quad: SettingQuad) -> np.ndarray:
    """The n integer terms x1*(y1 - y2) - x2*(y2 + y1), each +-2.

    Their mean is exactly the reuse-mode statistic: the sum is an
    integer and the statistic performs the same single division by n.
    """
    s, row = np.ascontiguousarray(db.rows(0, db.n).T), _quad_rows([quad])[0]
    x, y = _station_bits(s, row[:2], row[2:])
    return 4 * np.unpackbits(_plus_bits(*x, *y), count=db.n).astype(np.int64) - 2


def _numerator(n: int, pos11: int, pos12: int, pos21: int, pos22: int) -> int:
    """n*S = T11 - T12 - T22 - T21, with T_ij = 2*pos_ij - n."""
    return 2 * (pos11 - pos12 - pos22 - pos21) + 2 * n


def result_from_tallies(tallies: QuadTallies) -> ChshResult:
    """The reuse-mode result of (merged) tallies that keep the per-trial +-2 identity.

    Every term is +-2, so all n of them count as such, their sum equals
    the numerator formed from the pair tallies, and |numerator| <= 2n.
    Tallies that break this raise ``InvariantError``.
    """
    n = tallies.n
    numerator = _numerator(n, *tallies.pos)
    all_pm2 = tallies.term_pm2 == n
    if not (all_pm2 and tallies.term_sum == numerator and abs(numerator) <= 2 * n):
        raise InvariantError(
            "per-trial identity violated "
            f"(all terms +-2: {all_pm2}, sum {tallies.term_sum}, tallies {numerator})"
        )
    return ChshResult(
        # e11, e12, e21, e22, the pairs' order in the tallies
        *(CorrelationEstimate.from_tallies(n, *pt) for pt in zip(tallies.pos, tallies.ties)),
        statistic=numerator / n,  # one division: exactly the per-trial term mean
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
    tallied and never stored. All four sets are tallied and checked as
    in reuse mode, in one map over row ranges; set i gives the i-th of
    e11, e12, e21, e22. It carries no per-trial diagnostics.
    """
    if mode == "reuse":
        return result_from_tallies(streamed_tallies([db], quad, workers)[0])
    if mode not in MODES:
        raise ConfigurationError(f"mode must be 'reuse' or 'fresh', got {mode!r}")
    if stream is None:
        raise ConfigurationError("fresh mode requires a random stream")

    # the fresh trials of e12, e21 and e22, seeded in that order
    sets = (db, *(GeneratedTrials(stream.raw(), db.distribution, db.n) for _ in range(3)))
    checked = [result_from_tallies(t) for t in streamed_tallies(sets, quad, workers)]
    e11, e12, e21, e22 = checked[0].e11, checked[1].e12, checked[2].e21, checked[3].e22
    return ChshResult(
        e11=e11, e12=e12, e21=e21, e22=e22,
        statistic=_numerator(db.n, *(e.count_pos for e in (e11, e12, e21, e22))) / db.n,
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
# Reuse mode ranks them by their exact integer numerators n*S.

_FIRST_TILE = 64  # rows read before a candidate's first bound check; later tiles double


def _quad_rows(quads) -> np.ndarray:
    """The (k, 4, 3) candidate rows of a sequence of SettingQuads."""
    return np.array([q.sort_key() for q in quads], dtype=np.float64).reshape(-1, 4, 3)


def _quad_of(row: np.ndarray) -> SettingQuad:
    return SettingQuad(*(UnitVector(*v) for v in row.tolist()))


def _station_bits(s: np.ndarray, a_dirs: np.ndarray, b_dirs: np.ndarray, dots=None):
    """The readings x (ka, t) and y (kb, t) of ``experiment.station_readings``, each row
    packed into bits, 1 for +1; the last byte's padding bits are 0."""
    x, y, _, _ = experiment.station_readings(s, a_dirs, b_dirs, dots)
    return np.packbits(x, axis=1), np.packbits(y, axis=1)


def _plus_bits(x1, x2, y1, y2):
    """The +2 terms of packed a1, a2, b1, b2 signs: x2 != y1 where y1 = y2, else x1 = y1."""
    return x2 ^ y1 ^ ((y1 ^ y2) & ~(x1 ^ x2))


def _tile_numerators(spins: np.ndarray, quads: np.ndarray, incumbent=None):
    """Exact numerators n*S of candidate rows (k, 4, 3) on the spins (n, 3), and the
    rows each candidate read.

    The live candidates read the same tiles of rows, the first ``_FIRST_TILE``
    long and each later one twice the last, up to ``_BLOCK_ROWS // 4``. Each
    tile is copied to unit-stride columns once and takes its candidates
    ``_BLOCK_ROWS`` sign elements at a time. A trial adds +2 where
    ``_plus_bits`` is set and -2 elsewhere. With an
    ``incumbent`` (numerator, quad row), a candidate whose first m rows sum
    to P is dropped before the next tile if its best case P + 2(n - m) is
    below the incumbent's numerator, or equal to it with a ``sort_key`` that
    is not greater: it can never be ``_best``. A dropped candidate's
    numerator is reported as -2n - 1, below any real one; every other
    candidate is tallied in full.
    """
    n, k = len(spins), len(quads)
    total, read, live = np.zeros(k, dtype=np.int64), np.zeros(k, dtype=np.int64), np.arange(k)
    if incumbent is not None:
        bar, key, flat = incumbent[0], incumbent[1].ravel(), quads.reshape(k, 12)
        first = (flat != key).argmax(axis=1)  # the first component that differs, if any
        greater = flat[np.arange(k), first] > key[first]
    m, tile = 0, _FIRST_TILE
    while m < n and len(live):
        if incumbent is not None:
            bound = total[live] + 2 * (n - m)
            live = live[(bound > bar) | ((bound == bar) & greater[live])]
        s = np.ascontiguousarray(spins[m : m + tile].T)
        t = s.shape[1]
        step = _BLOCK_ROWS // (4 * t)
        for ids in (live[lo : lo + step] for lo in range(0, len(live), step)):
            a, b = _station_bits(s, quads[ids, :2].reshape(-1, 3), quads[ids, 2:].reshape(-1, 3))
            plus = np.bitwise_count(_plus_bits(a[0::2], a[1::2], b[0::2], b[1::2]))
            total[ids] += 4 * plus.sum(axis=1, dtype=np.int64) - 2 * t
        read[live] += t
        m, tile = m + t, min(2 * tile, _BLOCK_ROWS // 4)
    numerators = np.full(k, -2 * n - 1, dtype=np.int64)
    numerators[live] = total[live]
    return numerators, read


def _table_numerators(spins: np.ndarray, a_dirs: np.ndarray, b_dirs: np.ndarray, index):
    """Exact numerators of the quads (a_dirs[i1], a_dirs[i2], b_dirs[j1], b_dirs[j2]), one
    per row (i1, i2, j1, j2) of ``index``, read from one table of all (a, b) pair tallies:
    each direction's signs are measured once per tile of rows.
    """
    n = len(spins)
    step = _BLOCK_ROWS // max(1, len(a_dirs), len(b_dirs))
    disagree = np.zeros((len(a_dirs), len(b_dirs)), dtype=np.int64)
    for m in range(0, n, step):
        s = np.ascontiguousarray(spins[m : m + step].T)
        a, b = _station_bits(s, a_dirs, b_dirs)
        disagree += np.bitwise_count(a[:, None] ^ b).sum(axis=2, dtype=np.int64)
    pos = n - disagree
    i1, i2, j1, j2 = np.asarray(index, dtype=np.intp).reshape(-1, 4).T
    return _numerator(n, pos[i1, j1], pos[i1, j2], pos[i2, j1], pos[i2, j2])


def _fresh_candidates(db, quads, base_key, offset, workers) -> np.ndarray:
    """Fresh-mode statistics of candidate rows (k, 4, 3), each on its own stream, over a pool."""
    chunks = parallel.map_ranges(
        _fresh_statistics, len(quads), workers, db, quads, base_key, offset, minimum=2
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


def _perturbed_quads(
    quad: np.ndarray, stream: CounterStream, radius: float, size: int
) -> np.ndarray:
    """``size`` perturbations of the quad rows ``quad`` (4, 3): each direction moved by
    ``radius`` times a uniform direction, renormalized, quad after quad.

    One ``sample_uniform_directions`` call draws the round's 4 * size steps,
    so a redraw of a short triple, if any, follows the whole round's draws.
    """
    steps = sample_uniform_directions(stream, 4 * size)
    moved = np.tile(quad, (size, 1)) + radius * steps
    x, y, z = moved.T
    return (moved / np.sqrt(x * x + y * y + z * z)[:, None]).reshape(size, 4, 3)


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
    *,
    report: Callable[..., None] | None = None,
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
    and only the winner becomes a SettingQuad.

    Reuse mode runs in this process and ignores ``workers``. The first
    quad and the lattice are tallied in full; each later candidate is
    dropped once the per-trial +-2 bound shows that it cannot beat the
    best before it (``_tile_numerators``). ``report``, if given, is
    called with counts of these ``candidates``: dropped ``unread``,
    tallied in ``full``, and the ``rows`` they read. The winner's
    re-evaluation by ``chsh_statistic`` checks the per-trial identity,
    and both evaluators that ranked the candidates, the tile evaluator
    and the lattice's pair table, must give it the same statistic, or
    ``InvariantError`` is raised.
    """
    if budget < 1:
        raise ConfigurationError(f"search budget must be >= 1, got {budget}")
    if mode not in MODES:
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
        # the lattice quads share g directions, so one pair table gives all their numerators
        values = np.concatenate([
            _tile_numerators(db.spins, first)[0],
            _table_numerators(db.spins, directions, directions, lattice),
        ])
        i = _best(values, quads[: len(values)])
        tail, read = _tile_numerators(db.spins, randoms, (values[i], quads[i]))
        values, reads = np.concatenate([values, tail]), [read]
    else:
        values = _fresh_candidates(db, quads, base_key, 0, workers)
    best_index = _best(values, quads)
    best_value, best_quad = values[best_index], quads[best_index]

    # local refinement: perturb the incumbent with shrinking radius
    offset, round_no = len(quads), 0
    while remaining > 0:
        size = min(32, remaining)
        radius = 0.4 * (0.8**round_no)
        batch = _perturbed_quads(best_quad, stream, radius, size)
        if mode == "reuse":
            batch_values, read = _tile_numerators(db.spins, batch, (best_value, best_quad))
            reads.append(read)
        else:
            batch_values = _fresh_candidates(db, batch, base_key, offset, workers)
        # the incumbent goes first, so an equal candidate leaves it in place
        i = _best(np.append(best_value, batch_values), np.concatenate([best_quad[None], batch])) - 1
        if i >= 0:
            best_value, best_quad, best_index = batch_values[i], batch[i], offset + i
        offset += size
        remaining -= size
        round_no += 1

    quad = _quad_of(best_quad)
    if mode == "fresh":
        return chsh_statistic(
            db, quad, "fresh", CounterStream(base_key).derive(best_index), workers=workers
        ), quad
    best_result = chsh_statistic(db, quad, "reuse")
    ranked = (
        ("tile evaluator", _tile_numerators(db.spins, best_quad[None])[0][0]),
        ("pair table", _table_numerators(db.spins, best_quad[:2], best_quad[2:], [(0, 1, 0, 1)])[0]),
    )
    for name, numerator in ranked:
        if numerator / db.n != best_result.statistic:
            raise InvariantError(
                f"{name} gives the best quad S = {float(numerator / db.n)!r}, "
                f"its re-evaluation {best_result.statistic!r}"
            )
    if report is not None:
        read = np.concatenate(reads)
        unread, full = (int(np.count_nonzero(read == rows)) for rows in (0, db.n))
        report(candidates=len(read), unread=unread, full=full, rows=int(read.sum()))
    return best_result, quad


# ---------------------------------------------------------------------------
# structured summaries (JSON-shaped)


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
        "quad": {k: asdict(getattr(quad, k)) for k in ("a1", "a2", "b1", "b2")},
        **{k: _estimate_fields(getattr(result, k)) for k in ("e11", "e12", "e21", "e22")},
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
