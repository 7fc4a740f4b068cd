"""Estimating the k-position of a value by repeated sampling.

A query of y answers LEQ with probability ``model.leq_probability``, the
one forward law: K_y / k in the noiseless case, where K_y is the number
of hidden elements <= y, so K_y can be read off a sufficiently long run
of queries by rounding the empirical LEQ fraction to the nearest multiple
of 1/k. ``queries_for_confidence`` gives the sample budget for a target
failure probability; with comparison noise the budget scales by
(2*rho - 1)^-2 and the raw fraction is de-biased through the exact
inverse of ``leq_probability`` before rounding. An estimate is its
k-position alone. ``estimate_k_position`` states the forced ends y = 0 and
y = n; the oracle range-checks every other y.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass

from .model import DomainError, Oracle


@dataclass(frozen=True)
class KPosEstimate:
    """An estimated k-position, kept a record: the benchmark's tracer reads ``.k_pos``."""

    k_pos: int


def _check_domain(k: int, rho: float, m: int = 1) -> None:
    """TypeError for a bool or float k or m, DomainError off k, m >= 1, 1/2 < rho <= 1."""
    if type(k) is bool or type(m) is bool:
        raise TypeError(f"k and m must be integers, got k={k!r}, m={m!r}")
    if operator.index(k) < 1 or operator.index(m) < 1:
        raise DomainError(f"k and m must be >= 1, got k={k}, m={m}")
    if not 0.5 < rho <= 1.0:
        raise DomainError(f"rho must be in (1/2, 1], got {rho}")


def queries_for_confidence(k: int, delta: float, rho: float = 1.0) -> int:
    """Sample budget m = ceil(2 k^2 log2(2/delta) / (2 rho - 1)^2).

    Guarantees failure probability <= delta for a single k-position
    estimate (Hoeffding, half-grid-spacing accuracy).
    """
    _check_domain(k, rho)
    if not (0.0 < delta < 1.0):
        raise DomainError(f"delta must be in (0, 1), got {delta}")
    return _queries_for_exponent(k, -math.log2(delta), rho)


def _queries_for_exponent(k: int, log2_inv_delta: float, rho: float) -> int:
    """The budget of ``queries_for_confidence`` for delta = 2^-log2_inv_delta.

    Callers that derive a per-estimate delta pass its exponent, so a delta
    too small for a double still gets its finite budget.
    """
    m = 2.0 * k * k * (1.0 + log2_inv_delta) / (2.0 * rho - 1.0) ** 2
    if not math.isfinite(m):
        raise DomainError("no finite query budget for a per-estimate failure "
                          f"probability of 2^-{log2_inv_delta}")
    return math.ceil(m)


def round_to_grid(p: float, k: int) -> int:
    """Nearest i/k grid point for p in [0,1]; ties go to the smaller i."""
    i = math.ceil(p * k - 0.5)
    return min(max(i, 0), k)


def estimate_from_counts(x: int, m: int, k: int, rho: float = 1.0) -> int:
    """The k-position read off x LEQ answers out of m queries.

    The de-biased fraction is rounded to the 1/k grid, whose clamp takes a
    fraction outside [0, 1] to 0 or k. This single rounding pipeline is
    shared by the live estimator and the exact success-probability oracle
    in ``analysis``, so the two can never disagree.
    """
    _check_domain(k, rho, m)
    return round_to_grid((x / m - (1.0 - rho)) / (2.0 * rho - 1.0), k)


def count_threshold(t: int, m: int, k: int, rho: float = 1.0) -> int:
    """Least LEQ count x out of m whose estimate is >= t, or m + 1 if none.

    The estimate is monotone in the count, so for one (t, m, k, rho) the
    checks k_pos <= t - 1 and k_pos >= t become x < X_t and x >= X_t.
    The threshold is found by bisection on ``estimate_from_counts``, so
    the rounding is still stated only there.
    """
    _check_domain(k, rho, m)
    return bisect_left(range(m + 1), t, key=lambda x: estimate_from_counts(x, m, k, rho))


def estimate_k_position(oracle: Oracle, y: int, m: int) -> KPosEstimate:
    """Estimate the k-position of y with m queries.

    y = 0 and y = n are analytically forced (0 and k) and cost zero
    queries. Only what they need is checked here: a bool or float y or m
    raises TypeError, m < 1 DomainError. Any other y goes to
    ``Oracle.query_batch``, which rejects one outside [1, n] uncharged.
    """
    if type(y) is bool:
        raise TypeError(f"y must be an integer, got {y!r}")
    y = operator.index(y)
    _check_domain(oracle.k, oracle.noise.rho, m)
    if y == 0:
        return KPosEstimate(0)
    if y == oracle.n:
        return KPosEstimate(oracle.k)
    x = oracle.query_batch(y, m)
    return KPosEstimate(estimate_from_counts(x, m, oracle.k, oracle.noise.rho))
