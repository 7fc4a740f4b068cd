"""Independent verification oracles.

Everything here is exact or brute-force and deliberately shares no code
path with the solvers it checks, except the rounding pipeline, read as
``kposition.count_threshold``'s integer thresholds, and the query law
``model.leq_probability``, shared on purpose so that neither can drift
apart from what it checks. A law sums the binomial mass of the counts
between two thresholds (``_binom_mass``, in arrays of bounded size):

- ``kl_bernoulli`` / ``berndiv_bound_check``: closed-form KL divergence
  in bits, and the numeric check that KL(B_{p +- eps} || B_p) stays below
  32 eps^2 / (3 ln 2) on its stated domain.
- ``estimator_success_prob``: exact binomial probability that the
  k-position estimate pipeline returns the truth, the mass of the counts
  from X_t to X_{t+1} for t the true k-position.
- ``ml_decode``: brute-force maximum-likelihood recovery of the hidden
  multiset from (y, m, x) batches, each one ``Oracle.query_batch(y, m)``
  call and its LEQ count x, for desk-scale instances only.
- ``dense_law``: the exact failure probability of ``solve_dense``, at
  the per-point budget the solver reads, shared on purpose for the same
  reason.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import combinations_with_replacement

import numpy as np

from .dense import dense_point_budget
from .kposition import count_threshold
from .model import (CapacityError, DomainError, Instance, as_int, check_n_k, check_plan,
                    check_rho, k_position_true, leq_probability)

_NEG_INF = float("-inf")

ML_DECODE_MAX_CANDIDATES = 10_000_000

# the most counts ``_binom_mass`` holds in one array (512 KiB of doubles),
# so a law's memory does not grow with the budget it sums over
MASS_CHUNK = 1 << 16


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
    return math.exp(_log_binom_pmf(x, m, p))


def _log_binom_pmf(x: int, m: int, p: float) -> float:
    """log Pr[Binomial(m, p) = x] for 0 < p < 1."""
    return (math.lgamma(m + 1) - math.lgamma(x + 1) - math.lgamma(m - x + 1)
            + x * math.log(p) + (m - x) * math.log1p(-p))


def estimator_success_prob(k: int, m: int, k_true: int, rho: float = 1.0) -> float:
    """Exact probability that the m-query estimate returns k_true.

    The estimate is k_true exactly for the counts in [X_k_true, X_k_true+1)
    of the shared thresholds ``count_threshold`` (X_0 = 0), so this is the
    binomial mass of that window; the arguments are checked once, first.
    """
    k, m, rho = as_int(k, "k", 1), as_int(m, "m", 1), check_rho(rho)
    k_true = as_int(k_true, "k_true")
    if k_true > k:
        raise DomainError(f"k_true must be in [0, {k}], got {k_true}")
    lo = count_threshold(k_true, m, k, rho) if k_true else 0
    return _binom_mass(lo, count_threshold(k_true + 1, m, k, rho), m,
                       leq_probability(k_true, k, rho))


def _binom_mass(lo: int, hi: int, m: int, p: float) -> float:
    """Pr[lo <= Binomial(m, p) < hi], summed over the counts within
    20 sqrt(m) of the mean (and a few more for rounding): by Hoeffding,
    the mass beyond them is below 2 e^-800, under the least double.

    The window is summed in arrays of at most ``MASS_CHUNK`` counts: the
    log pmf at a chunk's low end by ``math.lgamma``, then a running sum of
    log pmf(x+1)/pmf(x) = log((m-x)/(x+1) p/(1-p)).
    """
    if p == 0.0 or p == 1.0:
        certain = 0 if p == 0.0 else m
        return float(lo <= certain < hi)
    reach = 20 * math.isqrt(m) + 21
    lo, hi = max(lo, math.floor(m * p) - reach), min(hi, math.ceil(m * p) + reach)
    log_odds, total = math.log(p) - math.log1p(-p), 0.0
    for start in range(lo, hi, MASS_CHUNK):
        x = np.arange(start, min(start + MASS_CHUNK, hi) - 1, dtype=np.float64)
        steps = np.cumsum(np.log((m - x) / (x + 1.0)) + log_odds)
        log_pmf = _log_binom_pmf(start, m, p) + np.concatenate(([0.0], steps))
        total += float(np.exp(log_pmf).sum())
    return total


def dense_law(instance: Instance, c: float, rho: float = 1.0) -> float:
    """Exact probability that ``solve_dense`` at ``c`` and ``rho`` fails on ``instance``.

    The repair is a running maximum and y = n is forced, so a solve
    succeeds exactly when the estimate of each y < n equals K_y where
    K_y > K_{y-1}, and is at most K_y at every other y < n. The estimates
    of distinct y are independent, so the success is a product over y;
    it is carried as the sum of log1p(-f_y), f_y the binomial mass of the
    counts that fail at y, and the failure is returned as -expm1 of that
    sum, never as 1 - success. A plan ``solve_dense`` refuses
    (``model.check_plan``) raises the same DomainError here.
    """
    if not isinstance(instance, Instance):
        raise TypeError(f"instance must be an Instance, got {instance!r}")
    n, k, rho = instance.n, instance.k, check_rho(rho)
    m = dense_point_budget(n, k, c, rho)
    check_plan((n - 1) * m, "dense", n=n, k=k, rho=rho, c=c)
    log_success, below = 0.0, 0
    for y in range(1, n):
        ky = k_position_true(instance, y)
        p = leq_probability(ky, k, rho)
        # the counts whose estimate is right at y: [lo, hi)
        lo = count_threshold(ky, m, k, rho) if ky > below else 0
        hi = count_threshold(ky + 1, m, k, rho) if ky < k else m + 1
        log_success += math.log1p(-(_binom_mass(0, lo, m, p) + _binom_mass(hi, m + 1, m, p)))
        below = ky
    return -math.expm1(log_success)


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
