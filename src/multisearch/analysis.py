"""Independent verification oracles.

Everything here is exact or brute-force and deliberately shares no code
path with the solvers it checks, except the rounding pipeline and the
query law ``model.leq_probability``, shared on purpose so that neither
can drift apart from what it checks:

- ``kl_bernoulli`` / ``berndiv_bound_check``: closed-form KL divergence
  in bits, and the numeric check that KL(B_{p +- eps} || B_p) stays below
  32 eps^2 / (3 ln 2) on its stated domain.
- ``estimator_success_prob``: exact binomial probability that the
  k-position estimate pipeline returns the truth.
- ``ml_decode``: brute-force maximum-likelihood recovery of the hidden
  multiset from (y, m, x) batches, each one ``Oracle.query_batch(y, m)``
  call and its LEQ count x, for desk-scale instances only.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import combinations_with_replacement

from .kposition import _estimate
from .model import (CapacityError, DomainError, as_int, check_n_k, check_rho,
                    leq_probability)

_NEG_INF = float("-inf")

ML_DECODE_MAX_CANDIDATES = 10_000_000


def kl_bernoulli(p: float, q: float) -> float:
    """KL(B_p || B_q) in bits; 0-terms dropped, +inf on support violation."""
    if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0):
        raise DomainError(f"p, q must be in [0, 1], got p={p}, q={q}")
    total = 0.0
    for pi, qi in ((p, q), (1.0 - p, 1.0 - q)):
        if pi == 0.0:
            continue
        if qi == 0.0:
            return math.inf
        total += pi * math.log2(pi / qi)
    return total


def berndiv_bound_check(p: float, eps: float) -> bool:
    """True iff KL(B_{p +- eps} || B_p) <= 32 eps^2 / (3 ln 2) in both directions."""
    if not (0.25 <= p <= 0.75):
        raise DomainError(f"p must be in [1/4, 3/4], got {p}")
    if not (0.0 <= eps <= 0.125):
        raise DomainError(f"eps must be in [0, 1/8], got {eps}")
    if not (0.0 <= p - eps and p + eps <= 1.0):
        raise DomainError(f"p +- eps leaves [0, 1]: p={p}, eps={eps}")
    bound = 32.0 * eps * eps / (3.0 * math.log(2.0))
    return (kl_bernoulli(p + eps, p) <= bound
            and kl_bernoulli(p - eps, p) <= bound)


def binom_pmf(x: int, m: int, p: float) -> float:
    """Pr[Binomial(m, p) = x], computed in log space; exact at p in {0, 1}."""
    if p == 0.0:
        return float(x == 0)
    if p == 1.0:
        return float(x == m)
    log_pmf = (math.lgamma(m + 1) - math.lgamma(x + 1) - math.lgamma(m - x + 1)
               + x * math.log(p) + (m - x) * math.log1p(-p))
    return math.exp(log_pmf)


def estimator_success_prob(k: int, m: int, k_true: int, rho: float = 1.0) -> float:
    """Exact probability that the m-query estimate returns k_true.

    Sums the binomial law of the LEQ count over exactly those counts the
    shared rounding pipeline maps back to k_true; the arguments are
    checked once, before the sum.
    """
    k, m, rho = as_int(k, "k", 1), as_int(m, "m", 1), check_rho(rho)
    k_true = as_int(k_true, "k_true")
    if k_true > k:
        raise DomainError(f"k_true must be in [0, {k}], got {k_true}")
    p = leq_probability(k_true, k, rho)
    return math.fsum(binom_pmf(x, m, p) for x in range(m + 1)
                     if _estimate(x, m, k, rho) == k_true)


def ml_decode(batches, n: int, k: int, rho: float = 1.0) -> tuple[int, ...]:
    """Brute-force maximum-likelihood multiset given (y, m, x) batches.

    A batch is m queries of y, x of them answered LEQ: y in [1, n] and
    0 <= x <= m, each checked by ``as_int``. Enumerates all C(n+k-1, k)
    multisets; ties break to the lexicographically smallest sorted tuple.
    Guarded to desk scale.
    """
    n, k = check_n_k(n, k)
    rho = check_rho(rho)
    n_candidates = math.comb(n + k - 1, k)
    if n_candidates > ML_DECODE_MAX_CANDIDATES:
        raise CapacityError(
            f"{n_candidates} candidate multisets exceed the "
            f"{ML_DECODE_MAX_CANDIDATES} enumeration guard")
    # likelihood depends only on per-y (LEQ, GT) answer counts
    per_y: dict[int, list[int]] = {}
    for y, m, x in batches:
        y, m, x = as_int(y, "y", 1), as_int(m, "m"), as_int(x, "x")
        if y > n:
            raise DomainError(f"y must be in [1, {n}], got {y}")
        if x > m:
            raise DomainError(f"x must be in [0, {m}], got {x}")
        counts = per_y.setdefault(y, [0, 0])
        counts[0] += x
        counts[1] += m - x

    best = None
    best_ll = _NEG_INF
    for cand in combinations_with_replacement(range(1, n + 1), k):
        ll = 0.0
        for y, (cl, cg) in per_y.items():
            p = leq_probability(bisect_right(cand, y), k, rho)
            if cl:
                if p == 0.0:
                    ll = _NEG_INF
                    break
                ll += cl * math.log(p)
            if cg:
                if p == 1.0:
                    ll = _NEG_INF
                    break
                ll += cg * math.log(1.0 - p)
        if best is None or ll > best_ll:
            best, best_ll = cand, ll
    return best
