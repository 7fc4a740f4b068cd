"""Dense and naive solvers.

``solve_dense`` is the k >= n approach: estimate the k-position of every
value in [1, n] at per-point confidence n^-(c+1), repair the profile to
be monotone, and read the t-th smallest element off as the least y with
K_y >= t; t = 1 reads the whole profile and is charged all its queries.
``solve_naive`` is the repeated-binary-search baseline whose extra
log(2 k log n) factor the walker removes; kept for benchmark comparison.
Its probes read LEQ counts against a threshold, as the walker's steps do,
each target one ``model.least`` search of ``model.ceil_log2(n)`` probes at most.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import accumulate

import numpy as np

from .kposition import _queries_for_exponent, count_threshold, estimate_k_position
from .model import (DomainError, Oracle, ceil_log2, check_delta, check_oracle_shape,
                    check_plan, least)
from .reports import SolverReport


def repair_monotone(values: list[int]) -> list[int]:
    """Running maximum: the cheapest monotone repair, identity on monotone input."""
    return list(accumulate(values, max))


def multiset_from_profile(profile: list[int]) -> list[int]:
    """Sorted multiset from a monotone k-position profile (y = 1..n): the
    t-th smallest element is the least y with K_y >= t."""
    return [bisect_left(profile, t) + 1 for t in range(1, profile[-1] + 1)]


def dense_point_budget(n: int, k: int, c: float, rho: float) -> int:
    """Queries ``solve_dense`` spends on each y < n: per-point confidence
    n^-(c+1). TypeError for a bool c; DomainError unless c > 0 gives a
    finite budget. ``analysis.dense_law`` reads it too."""
    if isinstance(c, (bool, np.bool_)):
        raise TypeError(f"c must be a positive number, got {c!r}")
    if not c > 0:
        raise DomainError(f"c must be positive, got {c}")
    # passed as its exponent: n^-(c+1) can underflow
    try:
        return _queries_for_exponent(k, (c + 1.0) * math.log2(n), rho)
    except DomainError:
        raise DomainError(f"c={c} gives no finite query budget at n={n}, k={k}") from None


def solve_dense(oracle: Oracle, n: int, k: int, c: float = 1.0) -> SolverReport:
    """Recover the multiset from a full k-position profile over [1, n]."""
    n, k = check_oracle_shape(oracle, n, k)
    m_pt = dense_point_budget(n, k, c, oracle.noise.rho)
    check_plan((n - 1) * m_pt, "dense", n=n, k=k, rho=oracle.noise.rho, c=c)

    def values():
        estimates = [estimate_k_position(oracle, y, m_pt).k_pos for y in range(1, n + 1)]
        yield from multiset_from_profile(repair_monotone(estimates))

    return SolverReport.of_values(oracle, values())


def solve_naive(oracle: Oracle, n: int, k: int, delta: float) -> SolverReport:
    """Repeated binary search: for each t, find the least v with K(v) >= t.

    A probe of v draws m_per queries, enough to estimate K(v) at confidence
    delta / (k * ceil(log2 n)), so a union bound over all probes keeps the
    overall error below delta. Its estimate is >= t exactly when its LEQ
    count reaches ``count_threshold(t, m_per, k, rho)``, computed once per
    t. A probe lies in [1, n - 1], never at a forced end.
    """
    n, k = check_oracle_shape(oracle, n, k)
    if k > n:
        raise DomainError(f"naive solver needs 1 <= k <= n, got k={k}, n={n}")
    delta = check_delta(delta)
    bits = max(1, ceil_log2(n))
    # per-probe delta / (k * bits), passed as its exponent: it can underflow
    m_per = _queries_for_exponent(k, math.log2(k * bits) - math.log2(delta),
                                  oracle.noise.rho)
    check_plan(k * bits * m_per, "naive", n=n, k=k, rho=oracle.noise.rho, delta=delta)

    def values():
        for t in range(1, k + 1):
            x_t = count_threshold(t, m_per, k, oracle.noise.rho)
            yield least(1, n, lambda v: oracle.query_batch(v, m_per) >= x_t)

    return SolverReport.of_values(oracle, values())
