"""Solver output record shared by the walker, dense, and naive solvers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class SolverReport:
    """Recovered multiset with per-target query accounting.

    ``recovered`` is sorted ascending. ``per_target`` holds one
    (t, value-or-None, queries) triple per hidden element; a None value
    marks a failed target and is left out of ``recovered``. Whether the
    recovery is right is judged by the caller that holds the instance
    (``bench.run_experiment``), never by the solver.
    """

    recovered: list[int]
    per_target: list[tuple[int, Optional[int], int]]

    @property
    def total_queries(self) -> int:
        """The queries of ``per_target``, summed."""
        return sum(q for _, _, q in self.per_target)
