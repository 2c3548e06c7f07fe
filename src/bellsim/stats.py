"""Finite-sample uncertainty for means of plus-minus-one variables.

Two complementary quantifications are reported side by side: the
plug-in standard error sqrt((1 - E^2)/n), tight in the bulk, and the
two-sided Hoeffding bound, which is distribution-free and backs hard
claims at small n. Neither is trusted alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def standard_error(value: float, n: int) -> float:
    """Plug-in standard error of a mean of n variables in {-1, +1}."""
    if n < 1:
        raise ValueError("n must be positive")
    return math.sqrt(max(0.0, 1.0 - value * value) / n)


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


@dataclass(frozen=True)
class DeviationBound:
    """P(|mean - expectation| >= t) <= bound, for n samples in {-1, +1}."""

    n: int
    t: float
    bound: float


def hoeffding_bound(n: int, t: float) -> DeviationBound:
    """Two-sided Hoeffding tail bound min(1, 2*exp(-n*t^2/2))."""
    if n < 1:
        raise ValueError("n must be positive")
    if not t > 0.0:
        raise ValueError("t must be positive")
    return DeviationBound(n=n, t=t, bound=min(1.0, 2.0 * math.exp(-n * t * t / 2.0)))


@dataclass(frozen=True)
class WithinReport:
    """Verdict of a k-sigma agreement check, with the margin that decided it."""

    ok: bool
    z: float  # |difference| in units of the standard error
    difference: float
    k_sigma: float
    reference: float


def check_within(estimate, reference: float, k_sigma: float) -> WithinReport:
    """Is the estimate within k_sigma standard errors of the reference?

    A zero standard error degenerates to an exact-equality check; the
    reported z is 0 on agreement and infinite otherwise.
    """
    if not k_sigma > 0.0:
        raise ValueError("k_sigma must be positive")
    diff = estimate.value - reference
    se = estimate.standard_error
    if se == 0.0:
        z = 0.0 if diff == 0.0 else math.inf
        return WithinReport(ok=diff == 0.0, z=z, difference=diff, k_sigma=k_sigma, reference=reference)
    z = abs(diff) / se
    return WithinReport(ok=z <= k_sigma, z=z, difference=diff, k_sigma=k_sigma, reference=reference)
