"""Estimating the k-position of a value by repeated sampling.

A query of y answers LEQ with probability ``model.leq_probability``, the
one forward law: K_y / k in the noiseless case, where K_y is the number
of hidden elements <= y, so K_y can be read off a sufficiently long run
of queries by rounding the empirical LEQ fraction to the nearest multiple
of 1/k. ``queries_for_confidence`` gives the sample budget for a target
failure probability; with comparison noise the budget scales by
(2*rho - 1)^-2 and the raw fraction is de-biased through the exact
inverse of ``leq_probability`` before rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import DomainError, Oracle


@dataclass(frozen=True)
class KPosEstimate:
    """An estimated k-position with its query cost and raw LEQ fraction."""

    k_pos: int
    m_used: int
    p_hat: float


def queries_for_confidence(k: int, delta: float, rho: float = 1.0) -> int:
    """Sample budget m = ceil(2 k^2 log2(2/delta) / (2 rho - 1)^2).

    Guarantees failure probability <= delta for a single k-position
    estimate (Hoeffding, half-grid-spacing accuracy).
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if not (0.0 < delta < 1.0):
        raise DomainError(f"delta must be in (0, 1), got {delta}")
    if not (0.5 < rho <= 1.0):
        raise DomainError(f"rho must be in (1/2, 1], got {rho}")
    return _queries_for_exponent(k, -math.log2(delta), rho)


def _queries_for_exponent(k: int, log2_inv_delta: float, rho: float) -> int:
    """The budget of ``queries_for_confidence`` for delta = 2^-log2_inv_delta.

    Callers that derive a per-estimate delta pass its exponent, so a delta
    too small for a double still gets its finite budget.
    """
    m = 2.0 * k * k * (1.0 + log2_inv_delta) / (2.0 * rho - 1.0) ** 2
    if not math.isfinite(m):
        raise DomainError(f"query budget is not finite for log2(1/delta) = {log2_inv_delta}")
    return math.ceil(m)


def round_to_grid(p: float, k: int) -> int:
    """Nearest i/k grid point for p in [0,1]; ties go to the smaller i."""
    i = math.ceil(p * k - 0.5)
    return min(max(i, 0), k)


def estimate_from_counts(x: int, m: int, k: int, rho: float = 1.0) -> tuple[int, float, float]:
    """Map a LEQ count out of m queries to (k_pos, p_hat, p_corrected).

    This is the single rounding pipeline shared by the live estimator and
    the exact success-probability oracle in ``analysis``, so the two can
    never disagree.
    """
    p_hat = x / m
    denom = 2.0 * rho - 1.0
    p_corr = (p_hat - (1.0 - rho)) / denom
    p_corr = min(max(p_corr, 0.0), 1.0)
    return round_to_grid(p_corr, k), p_hat, p_corr


def estimate_k_position(oracle: Oracle, y: int, m: int) -> KPosEstimate:
    """Estimate the k-position of y with m queries.

    The oracle returns the LEQ count of the m answers, drawn in chunks of
    ``model.CHUNK``, so an estimate's memory is O(CHUNK) whatever m is.
    y = 0 and y = n are analytically forced (0 and k) and cost zero
    queries.
    """
    n, k = oracle.n, oracle.k
    if not (0 <= y <= n):
        raise DomainError(f"y must be in [0, {n}], got {y}")
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    if y == 0:
        return KPosEstimate(k_pos=0, m_used=0, p_hat=0.0)
    if y == n:
        return KPosEstimate(k_pos=k, m_used=0, p_hat=1.0)
    x = oracle.query_batch(y, m)
    k_pos, p_hat, _ = estimate_from_counts(x, m, k, oracle.noise.rho)
    return KPosEstimate(k_pos=k_pos, m_used=m, p_hat=p_hat)
