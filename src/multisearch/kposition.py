"""Estimating the k-position of a value by repeated sampling.

A query of y answers LEQ with probability ``model.leq_probability``, the
one forward law: K_y / k in the noiseless case, where K_y is the number
of hidden elements <= y, so K_y can be read off a sufficiently long run
of queries by rounding the empirical LEQ fraction to the nearest multiple
of 1/k. ``queries_for_confidence`` gives the sample budget for a target
failure probability; with comparison noise the budget scales by
(2*rho - 1)^-2 and the raw fraction is de-biased through the exact
inverse of ``leq_probability``. The rounding is stated once, as integer
thresholds: the estimate is >= t exactly when the count x out of m
exceeds m q_t, q_t the LEQ probability at k-position t - 1/2, so
``_threshold`` gives X_t = floor(m q_t) + 1 in closed form, and
``count_threshold`` and ``_estimate`` read it. Thresholds and budgets are
computed in integers on rho's binary value (``model.check_rho``), so no
double rounds a tie or a ceiling. An estimate is its k-position alone.
``estimate_k_position`` states the forced ends y = 0 and y = n; the
oracle range-checks every other y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import DomainError, Oracle, as_int, check_delta, check_rho, least


@dataclass(frozen=True)
class KPosEstimate:
    """An estimated k-position, kept a record: the benchmark's tracer reads ``.k_pos``."""

    k_pos: int


def queries_for_confidence(k: int, delta: float, rho: float = 1.0) -> int:
    """Sample budget m = ceil(2 k^2 log2(2/delta) / (2 rho - 1)^2).

    Guarantees failure probability <= delta for a single k-position
    estimate (Hoeffding, half-grid-spacing accuracy).
    """
    k, rho = as_int(k, "k", 1), check_rho(rho)
    return _queries_for_exponent(k, -math.log2(check_delta(delta)), rho)


def _queries_for_exponent(k: int, log2_inv_delta: float, rho: float) -> int:
    """The budget of ``queries_for_confidence`` for delta = 2^-log2_inv_delta.

    Callers that derive a per-estimate delta pass its exponent, so a delta
    too small for a double still gets its finite budget. The ceiling is
    taken exactly, in integers, on the binary values of the exponent and
    of rho, so a budget is never below the Hoeffding bound it states.
    """
    try:
        u, v = log2_inv_delta.as_integer_ratio()
    except (OverflowError, ValueError):
        raise DomainError("no finite query budget for a per-estimate failure "
                          f"probability of 2^-{log2_inv_delta}") from None
    a, d = rho.as_integer_ratio()
    # 2 k^2 (1 + u/v) / ((2a - d)/d)^2
    return -(-2 * k * k * (v + u) * d * d // (v * (2 * a - d) ** 2))


def _threshold(t: int, m: int, k: int, a: int, d: int) -> int:
    """X_t for rho = a/d, in integers: the least count x with x > m q_t,
    where q_t = (1 - rho) + (2 rho - 1)(2t - 1)/(2k) is ``leq_probability``
    at k-position t - 1/2. q_t < 1 for t <= k, so X_t <= m; past k it is m + 1."""
    if t > k:
        return m + 1
    return m * (2 * k * (d - a) + (2 * a - d) * (2 * t - 1)) // (2 * k * d) + 1


def _estimate(x: int, m: int, k: int, rho: float) -> int:
    """The rounding pipeline, for arguments already checked.

    The de-biased fraction (x/m - (1 - rho))/(2 rho - 1) is rounded to the
    nearest point i/k of the grid, a tie to the smaller i, and clamped, so
    a fraction outside [0, 1] reads as 0 or k. That is the number of
    t <= k whose threshold x reaches, read off ``_threshold``, the one
    statement of the rounding: the live estimator, ``count_threshold`` and
    the exact laws in ``analysis`` all read counts through it, so they can
    never disagree.
    """
    a, d = rho.as_integer_ratio()
    return least(1, k + 1, lambda t: x < _threshold(t, m, k, a, d)) - 1


def count_threshold(t: int, m: int, k: int, rho: float = 1.0) -> int:
    """Least LEQ count x out of m whose estimate is >= t, or m + 1 if none.

    The estimate is monotone in the count, so for one (t, m, k, rho) the
    checks k_pos <= t - 1 and k_pos >= t become x < X_t and x >= X_t.
    The arguments are checked once; X_t is then ``_threshold``'s closed
    form, exact for any budget m.
    """
    t, k, m, rho = as_int(t, "t", 1), as_int(k, "k", 1), as_int(m, "m", 1), check_rho(rho)
    return _threshold(t, m, k, *rho.as_integer_ratio())


def estimate_k_position(oracle: Oracle, y: int, m: int) -> KPosEstimate:
    """Estimate the k-position of y with m queries.

    y = 0 and y = n are analytically forced (0 and k) and cost zero
    queries. Only y and m are checked here, by ``model.as_int``; any other
    y goes to ``Oracle.query_batch``, which rejects one above n uncharged.
    The oracle's k and rho were checked when it was built, and its count
    lies in [0, m], so the count is read by ``_estimate`` unchecked.
    """
    y, m = as_int(y, "y"), as_int(m, "m", 1)
    if y == 0:
        return KPosEstimate(0)
    if y == oracle.n:
        return KPosEstimate(oracle.k)
    x = oracle.query_batch(y, m)
    return KPosEstimate(_estimate(x, m, oracle.k, oracle.noise.rho))
