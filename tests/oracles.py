"""Independent oracles the tests check the fast paths against.

Everything here is deliberately written the slow, obvious way (per
trial loops over measure_sign, 1-D quadrature, one object per search
candidate, whole-array temporaries for generation) and shares no code
with the vectorized implementation beyond the public building blocks
it calls; ``kernel_rows`` alone runs the implementation, as the thing the
oracles are compared with.
"""

import itertools
import math

import numpy as np
from scipy import integrate

from bellsim import (
    CANONICAL_QUAD,
    Cap,
    FixedAxis,
    Mixture,
    SettingQuad,
    UniformSphere,
    UnitVector,
    chsh_statistic,
    direction_at_angle,
    geometry,
    measure_sign,
    sample_uniform_directions,
)
from bellsim.chsh import N, POS, TALLY_SIZE, TERM_PM2, TERM_SUM, TIES
from bellsim.experiment import _put_columns, _Scratch
from bellsim.geometry import orthonormal_basis
from bellsim.rng import _GOLDEN, _MASK, CounterStream, mix64_array


def sign_product_mean_quadrature(theta: float) -> float:
    """E(theta) for uniform spins by numerical integration.

    Reduces the azimuthal integral of sign(-(s.b)) at fixed polar
    cosine u to a closed arc length, then integrates over u with
    adaptive quadrature. Independent of the -1 + 2*theta/pi closed form
    and of the simulator's sampling path.
    """
    st, ct = math.sin(theta), math.cos(theta)

    def inner(u: float) -> float:
        if u == 0.0:
            return 0.0
        amp = st * math.sqrt(max(0.0, 1.0 - u * u))
        off = ct * u
        if amp <= 1e-15:
            arc_pos = 2.0 * math.pi if off > 0 else 0.0
        else:
            c = -off / amp
            if c >= 1.0:
                arc_pos = 0.0
            elif c <= -1.0:
                arc_pos = 2.0 * math.pi
            else:
                arc_pos = 2.0 * math.acos(c)
        return math.copysign(1.0, u) * (2.0 * math.pi - 2.0 * arc_pos)

    val, _ = integrate.quad(inner, -1.0, 1.0, points=[0.0], limit=400, epsabs=1e-12, epsrel=1e-12)
    return val / (4.0 * math.pi)


def brute_force_estimate(db, a: UnitVector, b: UnitVector):
    """Tally the correlation trial by trial through measure_sign."""
    count_pos = count_neg = tie_count = 0
    for k in range(db.n):
        s = db.spin(k)
        out_a = measure_sign(+1, s, a)
        out_b = measure_sign(-1, s, b)
        if out_a.value * out_b.value == 1:
            count_pos += 1
        else:
            count_neg += 1
        if out_a.was_tie or out_b.was_tie:
            tie_count += 1
    return count_pos, count_neg, tie_count, (count_pos - count_neg) / db.n


def brute_force_terms(db, quad) -> list:
    """Per-trial CHSH terms evaluated one measure_sign call at a time."""
    terms = []
    for k in range(db.n):
        s = db.spin(k)
        x1 = measure_sign(+1, s, quad.a1).value
        x2 = measure_sign(+1, s, quad.a2).value
        y1 = measure_sign(-1, s, quad.b1).value
        y2 = measure_sign(-1, s, quad.b2).value
        terms.append(x1 * (y1 - y2) - x2 * (y2 + y1))
    return terms


def dots(s0: np.ndarray, s1: np.ndarray, s2: np.ndarray, d: UnitVector) -> np.ndarray:
    """Per-trial dot products s_k . d of the three spin columns, as one whole-array
    expression in the package's order of operations, so that the dots agree bit for bit."""
    return s0 * d.x + s1 * d.y + s2 * d.z


def station_products(spins: np.ndarray, a: UnitVector, b: UnitVector):
    """Per-trial int8 station signs and tie masks (x, y, tie_a, tie_b) of the spin
    rows (n, 3) for a setting pair: x_k = sign(+s_k . a) and y_k = sign(-s_k . b),
    with sign(0) := +1."""
    s0, s1, s2 = spins[:, 0], spins[:, 1], spins[:, 2]
    da = dots(s0, s1, s2, a)
    db = dots(s0, s1, s2, b)
    x = np.where(da >= 0.0, 1, -1).astype(np.int8)
    y = np.where(db <= 0.0, 1, -1).astype(np.int8)
    return x, y, da == 0.0, db == 0.0


def pair_count(spins: np.ndarray, a: UnitVector, b: UnitVector) -> tuple[int, int]:
    """(count_pos, tie_count) of a setting pair over the whole spin array, from the
    int8 signs: a product is +1 where x_k * y_k == 1, a tie where either dot is 0."""
    x, y, tie_a, tie_b = station_products(spins, a, b)
    products = x.astype(np.int64) * y
    return int(np.count_nonzero(products == 1)), int(np.count_nonzero(tie_a | tie_b))


def quad_tallies(rows: np.ndarray, quad) -> np.ndarray:
    """Reuse-mode tally vector of the spin rows (n, 3), from int8 +-1 station signs
    (``station_products``) and the int64 terms x1*(y1 - y2) - x2*(y2 + y1)."""
    x1, y1, ta1, tb1 = station_products(rows, quad.a1, quad.b1)
    x2, y2, ta2, tb2 = station_products(rows, quad.a2, quad.b2)
    terms = x1 * (y1 - y2).astype(np.int64) - x2 * (y2 + y1).astype(np.int64)
    tallies = np.zeros(TALLY_SIZE, dtype=np.int64)
    tallies[N] = len(terms)
    tallies[POS] = [np.count_nonzero(x == y) for x, y in ((x1, y1), (x1, y2), (x2, y1), (x2, y2))]
    tallies[TIES] = [
        np.count_nonzero(ta | tb) for ta, tb in ((ta1, tb1), (ta1, tb2), (ta2, tb1), (ta2, tb2))
    ]
    tallies[TERM_SUM] = terms.sum()
    tallies[TERM_PM2] = np.count_nonzero(np.abs(terms) == 2)
    return tallies


def random_unit(rng: np.random.Generator) -> UnitVector:
    """A uniform direction from numpy's own generator (not the package's)."""
    while True:
        v = rng.normal(size=3)
        norm = math.sqrt(float(v @ v))
        if norm > 1e-6:
            return UnitVector(v[0] / norm, v[1] / norm, v[2] / norm)


def first_line_difference(text: str, expected: str):
    """None if the texts are equal, else the first line number where they differ and
    both versions of that line: a short failure report for texts of many lines."""
    for k, pair in enumerate(itertools.zip_longest(text.splitlines(), expected.splitlines())):
        if pair[0] != pair[1]:
            return k, *pair
    return None if text == expected else (None, text[-2:], expected[-2:])


def write_database_per_row(db, fileobj) -> None:
    """The database text format written one row, and one float, at a time."""
    fileobj.write(f"bellsim-db v1 seed={db.seed} dist={db.distribution.tag()} n={db.n}\n")
    for k in range(db.n):
        x, y, z = db.spins[k]
        fx, fy, fz = (format(float(v), ".17g") for v in (x, y, z))
        fileobj.write(f"{k} {fx} {fy} {fz}\n")


# ---------------------------------------------------------------------------
# the settings search, one SettingQuad per candidate


def _packed_signs(columns: np.ndarray, directions, is_plus) -> np.ndarray:
    """One row of packed station signs per direction, one ``dots`` pass each."""
    bits = np.empty((len(directions), (columns.shape[1] + 7) // 8), dtype=np.uint8)
    for row, d in zip(bits, directions):
        row[:] = np.packbits(is_plus(dots(*columns, d), 0.0))
    return bits


def reuse_statistics(spins: np.ndarray, quads: list) -> list:
    """Reuse-mode S of each quad from packed sign bits, distinct directions
    measured once per block of 32 quads."""
    n = spins.shape[0]
    columns = np.ascontiguousarray(spins.T)
    stats = []
    for lo in range(0, len(quads), 32):
        block = quads[lo : lo + 32]
        a_rows, b_rows = {}, {}
        a_of_quad = [[a_rows.setdefault(d, len(a_rows)) for d in (q.a1, q.a2)] for q in block]
        b_of_quad = [[b_rows.setdefault(d, len(b_rows)) for d in (q.b1, q.b2)] for q in block]
        a_bits = _packed_signs(columns, list(a_rows), np.greater_equal)
        b_bits = _packed_signs(columns, list(b_rows), np.less_equal)
        a_idx = np.repeat(a_of_quad, 2, axis=1).ravel()
        b_idx = np.tile(b_of_quad, 2).ravel()
        disagree = np.bitwise_count(a_bits[a_idx] ^ b_bits[b_idx]).sum(axis=1, dtype=np.int64)
        for p11, p12, p21, p22 in (n - disagree.reshape(-1, 4)).tolist():
            stats.append((2 * (p11 - p12 - p22 - p21) + 2 * n) / n)
    return stats


def _evaluate(db, quads, mode, base_key, offset):
    if mode == "reuse":
        return reuse_statistics(db.spins, quads)
    return [
        chsh_statistic(db, q, "fresh", CounterStream(base_key).derive(offset + i)).statistic
        for i, q in enumerate(quads)
    ]


def perturbed_round(quad, stream, radius, size):
    """``size`` copies of the quad, each direction moved by ``radius`` times a uniform
    direction and renormalized; the round's 4 * size steps are one sampler call."""
    steps = sample_uniform_directions(stream, 4 * size).reshape(size, 4, 3)
    bases = (quad.a1, quad.a2, quad.b1, quad.b2)
    return [
        SettingQuad(
            *(
                UnitVector.normalize(
                    base.x + radius * step[0], base.y + radius * step[1], base.z + radius * step[2]
                )
                for base, step in zip(bases, quad_steps)
            )
        )
        for quad_steps in steps
    ]


def search_max_chsh(db, mode, budget, stream, initial=None):
    """The settings search with one SettingQuad per candidate, evaluated in this process.

    Candidates: the initial quad, a g**4 in-plane lattice, uniform random
    quads, then refinement rounds of 32 perturbations of the incumbent.
    The best is the maximum of (S, sort_key), the earliest among equals.
    """
    base_key = stream.key
    candidates = [initial if initial is not None else CANONICAL_QUAD]
    remaining = budget - 1

    g = int((remaining // 3) ** 0.25) if remaining >= 16 else 0
    if g >= 2:
        angles = [2.0 * math.pi * k / g for k in range(g)]
        lattice = [
            SettingQuad(*(direction_at_angle(t) for t in ts))
            for ts in itertools.product(angles, repeat=4)
        ]
        candidates.extend(lattice)
        remaining -= len(lattice)

    n_random = remaining // 2
    if n_random:
        rows = sample_uniform_directions(stream, 4 * n_random).reshape(n_random, 4, 3)
        candidates.extend(SettingQuad(*(UnitVector.from_array(d) for d in r)) for r in rows)
        remaining -= n_random

    stats = _evaluate(db, candidates, mode, base_key, 0)
    best_stat, best_quad, best_index = max(
        ((s, q, i) for i, (s, q) in enumerate(zip(stats, candidates))),
        key=lambda c: (c[0], c[1].sort_key()),
    )

    offset = len(candidates)
    round_no = 0
    while remaining > 0:
        size = min(32, remaining)
        radius = 0.4 * (0.8**round_no)
        batch = perturbed_round(best_quad, stream, radius, size)
        for i, (s, q) in enumerate(zip(_evaluate(db, batch, mode, base_key, offset), batch)):
            if (s, q.sort_key()) > (best_stat, best_quad.sort_key()):
                best_stat, best_quad, best_index = s, q, offset + i
        offset += size
        remaining -= size
        round_no += 1

    if mode == "fresh":
        best = chsh_statistic(db, best_quad, "fresh", CounterStream(base_key).derive(best_index))
    else:
        best = chsh_statistic(db, best_quad, "reuse")
    return best, best_quad


# ---------------------------------------------------------------------------
# trial generation, row by row with whole-array temporaries


def uniform_column(keys: np.ndarray, position: int) -> np.ndarray:
    """Draw ``position`` of each key's stream, as a float in (0, 1]."""
    raw = mix64_array(keys + np.uint64(((position + 1) * _GOLDEN) & _MASK))
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def gaussian_triples(keys: np.ndarray, offset: int):
    """Box-Muller on draws offset .. offset + 3 of each key's stream."""
    u1, u2, u3, u4 = (uniform_column(keys, offset + j) for j in range(4))
    r1 = np.sqrt(-2.0 * np.log(u1))
    r2 = np.sqrt(-2.0 * np.log(u3))
    return (
        r1 * np.cos(2.0 * math.pi * u2),
        r1 * np.sin(2.0 * math.pi * u2),
        r2 * np.cos(2.0 * math.pi * u4),
    )


def unit_rows_for_keys(keys, offset: int = 0) -> np.ndarray:
    """Uniform directions; rows whose gaussian triple is shorter than
    ``geometry._REJECT_NORM`` are redrawn from the next four draws, attempt by attempt."""
    keys = np.asarray(keys, dtype=np.uint64)
    out = np.empty((keys.shape[0], 3))
    todo = np.arange(keys.shape[0])
    attempt = 0
    while todo.size:
        gx, gy, gz = gaussian_triples(keys[todo], offset + 4 * attempt)
        norm = np.sqrt(gx * gx + gy * gy + gz * gz)
        ok = norm >= geometry._REJECT_NORM
        rows = todo[ok]
        out[rows, 0] = gx[ok] / norm[ok]
        out[rows, 1] = gy[ok] / norm[ok]
        out[rows, 2] = gz[ok] / norm[ok]
        todo = todo[~ok]
        attempt += 1
    return out


def kernel_rows(spec, keys: np.ndarray, offset: int = 0) -> np.ndarray:
    """The implementation's rows of the uint64 ``keys``, drawn from ``offset`` on: one
    ``_visit_columns`` pass put in key order, as ``GeneratedTrials.rows`` puts a block."""
    m = keys.shape[0]
    return _put_columns(m, lambda put: spec._visit_columns(keys, offset, put, _Scratch.of(m, spec)))


def sample_rows(spec, keys, offset: int = 0) -> np.ndarray:
    """``kernel_rows(spec, keys, offset)``, computed with (n, 3) temporaries."""
    keys = np.asarray(keys, dtype=np.uint64)
    if isinstance(spec, UniformSphere):
        return unit_rows_for_keys(keys, offset)
    if isinstance(spec, FixedAxis):
        return np.tile(spec.axis.as_array(), (keys.shape[0], 1))
    if isinstance(spec, Cap):
        u0 = uniform_column(keys, offset)
        u1 = uniform_column(keys, offset + 1)
        cos_a = 1.0 - u0 * (1.0 - math.cos(spec.half_angle))
        sin_a = np.sqrt(np.maximum(0.0, 1.0 - cos_a * cos_a))
        beta = 2.0 * math.pi * u1
        axis = spec.axis.as_array()
        e1, e2 = orthonormal_basis(axis)
        rows = (
            (sin_a * np.cos(beta))[:, None] * e1
            + (sin_a * np.sin(beta))[:, None] * e2
            + cos_a[:, None] * axis
        )
        norm = np.sqrt(rows[:, 0] ** 2 + rows[:, 1] ** 2 + rows[:, 2] ** 2)
        return rows / norm[:, None]
    assert isinstance(spec, Mixture)
    u = uniform_column(keys, offset)
    cum = np.cumsum([w for w, _ in spec.components])
    idx = np.minimum(np.searchsorted(cum, u, side="right"), len(spec.components) - 1)
    rows = np.empty((keys.shape[0], 3))
    for i, (_, component) in enumerate(spec.components):
        mask = idx == i
        if mask.any():
            rows[mask] = sample_rows(component, keys[mask], offset + 1)
    return rows
