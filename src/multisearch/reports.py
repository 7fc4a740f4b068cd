"""Solver output record shared by the walker, dense, and naive solvers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .model import Oracle


@dataclass
class SolverReport:
    """Recovered multiset with per-target query accounting.

    ``recovered`` is sorted ascending. ``per_target`` holds one
    (t, value-or-None, queries) triple per hidden element, charged the
    queries made while its value was found; None marks a failed target, left
    out of ``recovered``. The caller that holds the instance
    (``bench.run_experiment``) judges the recovery, never the solver.
    """

    recovered: list[int]
    per_target: list[tuple[int, Optional[int], int]]

    @classmethod
    def of_values(cls, oracle: Oracle, values: Iterable[Optional[int]]) -> SolverReport:
        """The report of ``values``, which yields the value for t = 1, 2, ..."""
        per_target, before = [], oracle.query_count
        for t, value in enumerate(values, start=1):
            per_target.append((t, value, oracle.query_count - before))
            before = oracle.query_count
        return cls(sorted(v for _, v, _ in per_target if v is not None), per_target)

    @property
    def total_queries(self) -> int:
        """The queries of ``per_target``, summed."""
        return sum(q for _, _, q in self.per_target)
