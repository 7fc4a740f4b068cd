"""Dense and naive solvers.

``solve_dense`` is the k >= n approach: estimate the k-position of every
value in [1, n] at per-point confidence n^-(c+1), repair the profile to
be monotone, and read the t-th smallest element off as the least y with
K_y >= t; t = 1 reads the whole profile and is charged all its queries.
``solve_naive`` is the repeated-binary-search baseline whose extra
log(2 k log n) factor the walker removes; kept for benchmark comparison.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import accumulate

from .kposition import _queries_for_exponent, estimate_k_position
from .model import DomainError, Oracle, check_oracle_shape
from .reports import SolverReport
from .walker import ceil_log2


def repair_monotone(values: list[int]) -> list[int]:
    """Running maximum: the cheapest monotone repair, identity on monotone input."""
    return list(accumulate(values, max))


def multiset_from_profile(profile: list[int]) -> list[int]:
    """Sorted multiset from a monotone k-position profile (y = 1..n): the
    t-th smallest element is the least y with K_y >= t."""
    return [bisect_left(profile, t) + 1 for t in range(1, profile[-1] + 1)]


def solve_dense(oracle: Oracle, n: int, k: int, c: float = 1.0) -> SolverReport:
    """Recover the multiset from a full k-position profile over [1, n]."""
    check_oracle_shape(oracle, n, k)
    if not c > 0:
        raise DomainError(f"c must be positive, got {c}")
    # per-point delta n^-(c+1), passed as its exponent: it can underflow
    m_pt = _queries_for_exponent(k, (c + 1.0) * math.log2(n), oracle.noise.rho)

    def values():
        estimates = [estimate_k_position(oracle, y, m_pt).k_pos for y in range(1, n + 1)]
        yield from multiset_from_profile(repair_monotone(estimates))

    return SolverReport.of_values(oracle, values())


def solve_naive(oracle: Oracle, n: int, k: int, delta: float) -> SolverReport:
    """Repeated binary search: for each t, find the least v with K(v) >= t.

    Each probe estimates a k-position at confidence delta / (k * ceil(log2 n)),
    so a union bound over all probes keeps the overall error below delta.
    """
    check_oracle_shape(oracle, n, k)
    if k > n:
        raise DomainError(f"naive solver needs 1 <= k <= n, got k={k}, n={n}")
    if not (0.0 < delta < 1.0):
        raise DomainError(f"delta must be in (0, 1), got {delta}")
    bits = max(1, ceil_log2(n))
    # per-probe delta / (k * bits), passed as its exponent: it can underflow
    m_per = _queries_for_exponent(k, math.log2(k * bits) - math.log2(delta),
                                  oracle.noise.rho)

    def values():
        # explicit bisection: C bisect takes Py_ssize_t bounds, and n may not fit
        for t in range(1, k + 1):
            lo, hi = 1, n
            while lo < hi:
                mid = (lo + hi) // 2
                if estimate_k_position(oracle, mid, m_per).k_pos >= t:
                    hi = mid
                else:
                    lo = mid + 1
            yield lo

    return SolverReport.of_values(oracle, values())
