"""Boundaries of the package: what the solvers may see, what the CLI imports,
and the names the benchmark's tracer wraps."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

from multisearch import dense, model, walker
from multisearch.dense import solve_dense, solve_naive
from multisearch.model import NoiseModel, Oracle, make_instance
from multisearch.walker import solve_walker

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


class QueryOnlyOracle:
    """Forwards a real oracle's query interface and nothing else (no ``instance``)."""

    def __init__(self, oracle: Oracle):
        self._oracle = oracle
        self.n, self.k, self.noise = oracle.n, oracle.k, oracle.noise

    @property
    def query_count(self) -> int:
        return self._oracle.query_count

    def query_batch(self, y, m):
        return self._oracle.query_batch(y, m)

    def query_rows(self, ys, m, rows):
        return self._oracle.query_rows(ys, m, rows)

    def query(self, y):
        return self._oracle.query(y)


@pytest.mark.parametrize("solve", [
    lambda o: solve_walker(o, 8, 4, 0.1),
    lambda o: solve_dense(o, 8, 4, 1.0),
    lambda o: solve_naive(o, 8, 4, 0.1),
], ids=["walker", "dense", "naive"])
def test_solvers_need_only_the_query_interface(solve):
    inst = make_instance(8, 4, [1, 3, 3, 8])
    proxy = QueryOnlyOracle(Oracle(inst, NoiseModel(0.9), seed=13))
    assert not hasattr(proxy, "instance")
    got = solve(proxy)
    want = solve(Oracle(inst, NoiseModel(0.9), seed=13))
    assert (got.recovered, got.per_target, got.total_queries) == \
        (want.recovered, want.per_target, want.total_queries)
    assert got.total_queries == proxy.query_count > 0


def test_cli_import_leaves_out_scipy():
    code = ("import sys, multisearch.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_perfbench_tracer_wraps_the_package(monkeypatch):
    # perfbench/tracing.py wraps these names as the package's callers resolve
    # them; a rename must fail here, not only in the benchmark
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read perfbench/, write nothing
    tracing = importlib.import_module("tracing")
    wrapped = [(model.Oracle, "query_batch"), (walker, "estimate_k_position"),
               (dense, "estimate_k_position"), (walker, "walk_step"),
               (walker, "parent_of"), (dense, "repair_monotone")]
    originals = [getattr(owner, attr) for owner, attr in wrapped]
    # the tracer counts queries through query_batch only; a walk's chain
    # blocks ask theirs through query_rows, counted here
    query_rows, rows_queries = Oracle.query_rows, []

    def counted_query_rows(self, ys, m, rows):
        rows_queries.append(rows * len(ys) * m)
        return query_rows(self, ys, m, rows)

    monkeypatch.setattr(Oracle, "query_rows", counted_query_rows)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert all(getattr(owner, attr) is not original
                   for (owner, attr), original in zip(wrapped, originals))
        dense_oracle = Oracle(make_instance(4, 8, [1, 2, 2, 2, 3, 4, 4, 4]), seed=3)
        solve_dense(dense_oracle, 4, 8, 1.0)
        walker_oracle = Oracle(make_instance(8, 2, [3, 6]), seed=3)
        solve_walker(walker_oracle, 8, 2, 0.1)
    assert [getattr(owner, attr) for owner, attr in wrapped] == originals
    # parent_of runs only on a backtrack, which a trial this small may not take
    assert {"model.query_batch", "kposition.estimate", "walker.walk_step",
            "dense.repair"} <= set(tracer.calls)
    assert tracer.counts["queries"] + sum(rows_queries) == \
        dense_oracle.query_count + walker_oracle.query_count > 0
    assert sum(rows_queries) > 0
