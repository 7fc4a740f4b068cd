"""Per-target accounting: ``SolverReport.of_values`` charges each target
the oracle's queries made while its value was found."""

import pytest

from multisearch.dense import solve_dense, solve_naive
from multisearch.model import NoiseModel, Oracle, make_instance
from multisearch.reports import SolverReport
from multisearch.walker import solve_walker


def test_of_values_charges_the_queries_before_each_value():
    o = Oracle(make_instance(8, 3, [2, 5, 5]), seed=1)
    o.query_batch(4, 7)  # made before the report: charged to no target

    def values():
        o.query_batch(3, 5)
        yield 5
        yield None
        o.query_batch(6, 2)
        o.query_batch(2, 1)
        yield 2

    r = SolverReport.of_values(o, values())
    assert r.per_target == [(1, 5, 5), (2, None, 0), (3, 2, 3)]
    assert r.recovered == [2, 5]
    assert r.total_queries == o.query_count - 7


SOLVE = {
    "walker": lambda o: solve_walker(o, 16, 4, 0.1),
    "naive": lambda o: solve_naive(o, 16, 4, 0.1),
    "dense": lambda o: solve_dense(o, 16, 4, 1.0),
}


@pytest.mark.parametrize("algo", SOLVE)
def test_per_target_is_the_query_count_between_values(monkeypatch, algo):
    # watch the count each solver's oracle stands at as each value is
    # yielded, independently of of_values's own bookkeeping
    of_values, seen = SolverReport.of_values.__func__, []

    def watched(cls, oracle, values):
        def counted():
            for value in values:
                seen.append((value, oracle.query_count))
                yield value
        return of_values(cls, oracle, counted())

    monkeypatch.setattr(SolverReport, "of_values", classmethod(watched))
    o = Oracle(make_instance(16, 4, [2, 7, 7, 13]), NoiseModel(0.9), seed=5)
    r = SOLVE[algo](o)
    counts = [0] + [c for _, c in seen]
    assert r.per_target == [(t, v, counts[t] - counts[t - 1])
                            for t, (v, _) in enumerate(seen, start=1)]
    assert r.total_queries == o.query_count > 0
    if algo == "dense":
        # the whole profile is read when t = 1 is asked for
        assert [q for _, _, q in r.per_target] == [o.query_count, 0, 0, 0]
    elif algo == "naive":
        assert all(q > 0 for _, _, q in r.per_target)
    else:
        # the walks share a count pool: target 1 draws, and a later target,
        # such as the repeated 7, may read only what earlier walks drew
        assert r.per_target[0][2] > 0
