"""Workload definitions and the checks made on every trial.

This module does not import the package: the query budgets are derived
here from the paper's formulas, so the checks share no code with the
solvers they check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Workload:
    name: str
    algo: str          # "walker" or "dense"
    n: int
    k: int
    instance: str      # "cluster", "bins" or "uniform"
    delta: float
    rho: str           # decimal string, so the budget formulas stay exact
    dense_c: int = 1


WORKLOADS = {w.name: w for w in (
    # top point of the k^3 sweep: walk control and estimator overhead show
    Workload("walker_small_k", "walker", 4096, 8, "cluster", 0.1, "1"),
    # rho < 1: flip branch, de-biasing, budgets scaled by (2 rho - 1)^-2,
    # half the targets at the edge values 1 and n
    Workload("walker_noisy", "walker", 1024, 16, "bins", 0.1, "0.9"),
    # k >> n: full-profile solver, oracle-bound, no walker code runs
    Workload("dense_large_k", "dense", 8, 1024, "uniform", 0.1, "1", dense_c=2),
)}


def _log2(x: Fraction) -> Fraction:
    """log2 of x, exact when x is a power of two."""
    if x.denominator == 1 and x.numerator & (x.numerator - 1) == 0:
        return Fraction(x.numerator.bit_length() - 1)
    return Fraction(math.log2(x))


def estimate_budget(k: int, delta: Fraction, rho: Fraction) -> int:
    """Queries of one k-position estimate: ceil(2 k^2 log2(2/delta) / (2 rho - 1)^2)."""
    return math.ceil(2 * k * k * _log2(2 / delta) / (2 * rho - 1) ** 2)


def walk_length(n: int, delta: Fraction) -> int:
    """Steps of one walk: 70 ceil(log2 max(n, 1/delta))."""
    return 70 * max(1, math.ceil(_log2(max(Fraction(n), 1 / delta))))


def walker_query_bound(w: Workload) -> int:
    """k walks of m steps, each step at most two endpoint and one midpoint estimate."""
    rho = Fraction(w.rho)
    step1 = estimate_budget(w.k, Fraction(1, 8), rho)
    step2 = estimate_budget(w.k, Fraction(1, 16), rho)
    return w.k * walk_length(w.n, Fraction(w.delta)) * (2 * step1 + step2)


def dense_queries(w: Workload) -> int:
    """n - 1 estimates, each at per-point confidence n^-(c+1)."""
    per_point = estimate_budget(w.k, Fraction(1, w.n ** (w.dense_c + 1)), Fraction(w.rho))
    return (w.n - 1) * per_point


def check_trial(w: Workload, items, report, query_count: int) -> list[str]:
    """What is wrong with one trial's output; empty when the trial is right.

    ``items`` is the generated instance's multiset; ``report.success`` is
    not consulted.
    """
    errors = []
    if sorted(report.recovered) != sorted(items):
        errors.append("recovered multiset differs from the instance")
    per_target = sum(q for _, _, q in report.per_target)
    if not query_count == report.total_queries == per_target:
        errors.append(f"query accounting: oracle {query_count}, total "
                      f"{report.total_queries}, per-target sum {per_target}")
    if w.algo == "walker" and query_count > walker_query_bound(w):
        errors.append(f"{query_count} queries exceed the walk budget "
                      f"{walker_query_bound(w)}")
    if w.algo == "dense" and query_count != dense_queries(w):
        errors.append(f"{query_count} queries, expected {dense_queries(w)}")
    return errors
