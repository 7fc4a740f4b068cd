"""Boundaries of the package: what the solvers may see, and what the CLI imports."""

import subprocess
import sys

import pytest

from multisearch.dense import solve_dense, solve_naive
from multisearch.model import NoiseModel, Oracle, make_instance
from multisearch.walker import solve_walker


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
