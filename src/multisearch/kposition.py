"""Estimating the k-position of a value by repeated sampling.

A query of y answers LEQ with probability ``model.leq_probability``, the
one forward law: K_y / k in the noiseless case, where K_y is the number
of hidden elements <= y, so K_y can be read off a sufficiently long run
of queries by rounding the empirical LEQ fraction to the nearest multiple
of 1/k. ``queries_for_confidence`` gives the sample budget for a target
failure probability; with comparison noise the budget scales by
(2*rho - 1)^-2 and the raw fraction is de-biased through the exact
inverse of ``leq_probability``; ``_estimate`` states the de-biasing and the
grid rounding. An estimate is its k-position alone. ``estimate_k_position``
states the forced ends y = 0 and y = n; the oracle range-checks every other y.
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
    too small for a double still gets its finite budget.
    """
    m = 2.0 * k * k * (1.0 + log2_inv_delta) / (2.0 * rho - 1.0) ** 2
    if not math.isfinite(m):
        raise DomainError("no finite query budget for a per-estimate failure "
                          f"probability of 2^-{log2_inv_delta}")
    return math.ceil(m)


def _estimate(x: int, m: int, k: int, rho: float) -> int:
    """The rounding pipeline, for arguments already checked.

    The de-biased fraction is rounded to the nearest point i/k of the grid,
    a tie to the smaller i, and clamped, so a fraction outside [0, 1] reads
    as 0 or k. This is the one statement of the rounding: the live
    estimator, ``count_threshold`` and the exact success-probability oracle
    in ``analysis`` all read counts through it, so they can never disagree.
    """
    i = math.ceil((x / m - (1.0 - rho)) / (2.0 * rho - 1.0) * k - 0.5)
    return min(max(i, 0), k)


def count_threshold(t: int, m: int, k: int, rho: float = 1.0) -> int:
    """Least LEQ count x out of m whose estimate is >= t, or m + 1 if none.

    The estimate is monotone in the count, so for one (t, m, k, rho) the
    checks k_pos <= t - 1 and k_pos >= t become x < X_t and x >= X_t.
    The arguments are checked once; the threshold is then found by
    ``model.least`` on ``_estimate``, so the rounding is still stated only
    there.
    """
    t, k, m, rho = as_int(t, "t", 1), as_int(k, "k", 1), as_int(m, "m", 1), check_rho(rho)
    return least(0, m + 1, lambda x: _estimate(x, m, k, rho) >= t)


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
