"""Independent oracles the tests check the fast paths against.

Everything here is deliberately written the slow, obvious way (per
trial loops over measure_sign, 1-D quadrature) and shares no code with
the vectorized implementation.
"""

import math

import numpy as np
from scipy import integrate

from bellsim import UnitVector, measure_sign


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


def random_unit(rng: np.random.Generator) -> UnitVector:
    """A uniform direction from numpy's own generator (not the package's)."""
    while True:
        v = rng.normal(size=3)
        norm = math.sqrt(float(v @ v))
        if norm > 1e-6:
            return UnitVector(v[0] / norm, v[1] / norm, v[2] / norm)


def write_database_per_row(db, fileobj) -> None:
    """The database text format written one row, and one float, at a time."""
    fileobj.write(f"bellsim-db v1 seed={db.seed} dist={db.distribution.tag()} n={db.n}\n")
    for k in range(db.n):
        x, y, z = db.spins[k]
        fx, fy, fz = (format(float(v), ".17g") for v in (x, y, z))
        fileobj.write(f"{k} {fx} {fy} {fz}\n")
