"""Boundaries of the package: what the solvers may see, what the CLI imports,
the names the benchmark's tracer wraps, and the domains of public functions."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

from multisearch import dense, model, walker
from multisearch.analysis import estimator_success_prob, ml_decode
from multisearch.bench import fit_scaling
from multisearch.dense import solve_dense, solve_naive
from multisearch.kposition import count_threshold, estimate_from_counts, queries_for_confidence
from multisearch.model import DomainError, NoiseModel, Oracle, Response, make_instance
from multisearch.walker import WalkConfig, choose_walk_length, solve_walker

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


def _modules_after(statement: str) -> set:
    """The modules a fresh interpreter holds after ``statement``."""
    code = f"import sys; {statement}; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_cli_import_leaves_out_scipy():
    # the CLI pulls in numpy and the standard library, nothing else: a new
    # third-party import would show in every command's start-up time
    cli = _modules_after("import multisearch.cli")
    assert not any(m.split(".")[0] == "scipy" for m in cli)
    extra = cli - _modules_after("import numpy")
    assert {m for m in extra if m.split(".")[0] not in
            {"multisearch", *sys.stdlib_module_names}} == set()


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


def test_perfbench_selftest_passes():
    # the benchmark runs the package as it stands: a change that breaks it,
    # such as an estimate without .k_pos, must fail here and not only there
    proc = subprocess.run([sys.executable, "-B", "perfbench/selftest.py"],
                          cwd=PERFBENCH.parent, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "selftest passed" in proc.stdout


@pytest.mark.parametrize("call, named", [
    (lambda: choose_walk_length(0, 0.1), "got 0"),
    (lambda: WalkConfig.for_problem(0, 2, 0.1), "got 0"),
    (lambda: estimator_success_prob(0, 4, 0), "k=0"),
    (lambda: estimator_success_prob(2, 4, 1, rho=0.5), "got 0.5"),
    (lambda: ml_decode([(1, Response.LEQ)], 3, 0), "k=0"),
    (lambda: ml_decode([], 0, 1), "n=0"),
    (lambda: ml_decode([(1, Response.LEQ)], 2, 1, rho=1.5), "got 1.5"),
    (lambda: fit_scaling([(1, 1), (2, 2), (float("nan"), 3)]), "got nan"),
    (lambda: count_threshold(1, 4, 2, 0.5), "got 0.5"),
    (lambda: count_threshold(1, 4, 0), "k=0"),
    (lambda: estimate_from_counts(3, 4, 2, 0.5), "got 0.5"),
    (lambda: estimate_from_counts(3, 0, 2), "m=0"),
    (lambda: queries_for_confidence(2, 0.1, rho=0.5), "got 0.5"),
    (lambda: ml_decode([(1, "leq")], 3, 1), "not a Response"),
], ids=["walk_length-n=0", "for_problem-n=0", "success_prob-k=0", "success_prob-rho=0.5",
        "ml_decode-k=0", "ml_decode-n=0", "ml_decode-rho=1.5", "fit_scaling-x=nan",
        "count_threshold-rho=0.5", "count_threshold-k=0", "estimate_from_counts-rho=0.5",
        "estimate_from_counts-m=0", "queries_for_confidence-rho=0.5", "ml_decode-answer=str"])
def test_out_of_domain_arguments_raise_domain_error(call, named):
    with pytest.raises(DomainError, match=named):
        call()


@pytest.mark.parametrize("call", [
    lambda: queries_for_confidence(2.5, 0.1),
    lambda: queries_for_confidence(True, 0.1),
    lambda: estimator_success_prob(2.5, 4, 1),
    lambda: estimator_success_prob(2, 2.5, 1),
    lambda: estimator_success_prob(2, True, 1),
    lambda: count_threshold(1, 4.0, 2),
    lambda: estimate_from_counts(3, 4, 2.0),
], ids=["queries_for_confidence-k=2.5", "queries_for_confidence-k=True",
        "success_prob-k=2.5", "success_prob-m=2.5", "success_prob-m=True",
        "count_threshold-m=4.0", "estimate_from_counts-k=2.0"])
def test_non_integer_k_or_m_raises_type_error(call):
    # k and m count hidden elements and queries: a float or a bool is
    # rejected, not rounded, truncated or read as 0 or 1
    with pytest.raises(TypeError):
        call()
