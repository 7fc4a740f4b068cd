"""Boundaries of the package: what the solvers may see, what the CLI imports,
the names the benchmark's tracer wraps, and the domains of public functions."""

import importlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import multisearch
from multisearch import dense, model, walker
from multisearch.analysis import estimator_success_prob, ml_decode
from multisearch.bench import ExperimentConfig, fit_scaling
from multisearch.dense import solve_dense, solve_naive
from multisearch.instances import bin_instance, cluster_instance, sample_instance
from multisearch.kposition import count_threshold, queries_for_confidence
from multisearch.model import (DomainError, Instance, NoiseModel, Oracle, k_position_true,
                               make_instance)
from multisearch.walker import (WalkConfig, WalkNode, choose_walk_length, find_tth,
                                parent_of, solve_walker)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "multisearch"
INST = make_instance(8, 2, [3, 6])

# each seeded constructor, as a function of its seed alone
SEEDED = {
    "Oracle": lambda seed: Oracle(INST, seed=seed),
    "sample_instance": lambda seed: sample_instance(8, 2, "distinct", seed),
    "cluster": lambda seed: cluster_instance(8, 2, seed),
    "bins": lambda seed: bin_instance(16, 4, seed),
}


class QueryOnlyOracle:
    """Forwards a real oracle's query interface, ``query_rows`` and its view
    ``query_batch``, and nothing else (no ``instance``)."""

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


def test_one_place_builds_a_generator():
    # the seed rule is checked where the generator is built: a second
    # PCG64 constructor would bypass it
    found = [(path.name, line) for path in sorted(PACKAGE.glob("*.py"))
             for line in path.read_text(encoding="utf-8").splitlines()
             if "PCG64(" in line]
    assert len(found) == 1, found
    assert found[0][0] == "model.py"


def test_each_rule_has_one_home():
    # the least-index bisection, the int64 rule and the generators that use
    # it, and ceil_log2 each live in one module; the reference-only walk
    # node and estimate record stay out of the top level
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    bisections = [name for name, text in sources.items()
                  for line in text.splitlines() if "while lo < hi" in line]
    assert bisections == ["model.py"]
    for definition in ("def check_int64_range", "def sample_instance"):
        assert [name for name, text in sources.items() if definition in text] == \
            ["instances.py"], definition
    assert [name for name in ("dense.py", "cli.py") if "from .walker" in sources[name]] == []
    assert {"WalkNode", "KPosEstimate", "estimate_k_position"} & set(multisearch.__all__) == set()


def test_numpy_integer_seed_is_the_int_seed():
    oracle, want = Oracle(INST, seed=np.uint64(5)), Oracle(INST, seed=5)
    assert type(oracle.seed) is int and oracle.seed == 5
    assert [oracle.query_batch(y, 50) for y in (2, 3, 5, 6, 8)] == \
        [want.query_batch(y, 50) for y in (2, 3, 5, 6, 8)]


def test_numpy_integer_walk_config_keeps_ints():
    cfg = WalkConfig(np.int64(3), np.int32(2), np.uint8(2))
    assert cfg == WalkConfig(3, 2, 2)
    assert all(type(v) is int for v in (cfg.m, cfg.step1_m, cfg.step2_m))


@pytest.mark.parametrize("rho", [1.0, 0.75])
def test_solves_take_no_estimate_based_step(monkeypatch, rho):
    # the walker and the naive bisection read counts against thresholds:
    # they reach neither the reference step nor the estimate pipeline, and
    # build no WalkNode, yet give the same reports from the same stream
    inst = make_instance(64, 4, [5, 20, 20, 61])
    solves = [lambda o: solve_walker(o, 64, 4, 0.1), lambda o: solve_naive(o, 64, 4, 0.1)]
    want = []
    for solve in solves:
        oracle = Oracle(inst, NoiseModel(rho), seed=11)
        want.append((solve(oracle), oracle.query_batch(1, 64)))

    def unreachable(*args, **kwargs):
        raise AssertionError("a solve reached an estimate-based step")

    for owner, attr in [(walker, "walk_step"), (walker, "parent_of"), (walker, "WalkNode"),
                        (walker, "estimate_k_position"), (dense, "estimate_k_position")]:
        monkeypatch.setattr(owner, attr, unreachable)
    for solve, (report, after) in zip(solves, want):
        oracle = Oracle(inst, NoiseModel(rho), seed=11)
        got = solve(oracle)
        assert (got.recovered, got.per_target, got.total_queries) == \
            (report.recovered, report.per_target, report.total_queries)
        assert oracle.query_batch(1, 64) == after


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
    # every query goes through query_rows, counted here; the tracer counts
    # only those asked through query_batch, a view of query_rows
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
    # the walker takes its steps itself: walk_step and parent_of are only
    # the reference, and the tracer's spans around them stay empty
    assert {"model.query_batch", "kposition.estimate", "dense.repair"} <= set(tracer.calls)
    assert tracer.calls["walker.walk_step"] == tracer.calls["walker.parent_of"] == 0
    assert sum(rows_queries) == dense_oracle.query_count + walker_oracle.query_count
    assert 0 < tracer.counts["queries"] <= sum(rows_queries)


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
    (lambda: ml_decode([(1, 1, 1)], 3, 0), "k=0"),
    (lambda: ml_decode([], 0, 1), "n=0"),
    (lambda: ml_decode([(1, 1, 1)], 2, 1, rho=1.5), "got 1.5"),
    (lambda: fit_scaling([(1, 1), (2, 2), (float("nan"), 3)]), "got nan"),
    (lambda: count_threshold(1, 4, 2, 0.5), "got 0.5"),
    (lambda: count_threshold(1, 4, 0), "k=0"),
    (lambda: queries_for_confidence(2, 0.1, rho=0.5), "got 0.5"),
    (lambda: ml_decode([(0, 1, 1)], 3, 1), "y=0"),
    (lambda: ml_decode([(4, 1, 1)], 3, 1), r"y must be in \[1, 3\], got 4"),
    (lambda: ml_decode([(2, 4, 5)], 3, 1), r"x must be in \[0, 4\], got 5"),
    (lambda: ml_decode([(2, 4, -3)], 3, 1), "x=-3"),
    (lambda: ml_decode([(2, -1, 0)], 3, 1), "m=-1"),
    (lambda: Instance(8, 3, (2, 5)), "expected 3 items"),
    (lambda: Instance(8, 2, (0, 12)), "item=0"),
    (lambda: Instance(8, 2, (3, 12)), r"\[1, 8\]"),
    (lambda: count_threshold(0, 8, 2), "t=0"),
    (lambda: solve_dense(Oracle(INST), 8, 2, 1e308), r"c=1e\+308"),
    (lambda: solve_dense(Oracle(make_instance(1, 2, [1, 1])), 1, 2, float("inf")), "c=inf"),
    (lambda: WalkNode(5, 2), r"\[5, 2\]"),
    (lambda: WalkNode(0, 2), "a=0"),
    (lambda: WalkNode(3, 3, -1), "chain_depth=-1"),
    (lambda: parent_of(WalkNode(1, 8), 8), "no parent"),
    (lambda: parent_of(WalkNode(20, 30), 16), r"\[20, 30\] is not a node of the tree over \[1, 16\]"),
    (lambda: parent_of(WalkNode(2, 5), 16), r"\[2, 5\] is not a node of the tree over \[1, 16\]"),
    (lambda: parent_of(WalkNode(2, 3), 16), r"\[2, 3\] is not a node of the tree over \[1, 16\]"),
    (lambda: sample_instance(8, 2**64, "with-replacement", 0), r"k below 2\^63"),
    (lambda: cluster_instance(2**70, 2**64, 0), r"k below 2\^63"),
    (lambda: bin_instance(2**70, 2**66, 0), r"k below 2\^63"),
    (lambda: solve_walker(Oracle(INST, NoiseModel(0.5000000001)), 8, 2, 0.1),
     r"walker plans .*rho=0\.5000000001, delta=0\.1"),
    (lambda: solve_naive(Oracle(INST, NoiseModel(0.5000000001)), 8, 2, 0.1),
     r"naive plans .*rho=0\.5000000001, delta=0\.1"),
    (lambda: solve_dense(Oracle(INST, NoiseModel(0.5000000001)), 8, 2, 1.0),
     r"dense plans .*rho=0\.5000000001, c=1\.0"),
    *[(lambda make=make, seed=seed: make(seed), "seed")
      for make in SEEDED.values() for seed in (-1, 2**64)],
], ids=["walk_length-n=0", "for_problem-n=0", "success_prob-k=0", "success_prob-rho=0.5",
        "ml_decode-k=0", "ml_decode-n=0", "ml_decode-rho=1.5", "fit_scaling-x=nan",
        "count_threshold-rho=0.5", "count_threshold-k=0", "queries_for_confidence-rho=0.5",
        "ml_decode-y=0", "ml_decode-y>n", "ml_decode-x>m", "ml_decode-x<0", "ml_decode-m<0",
        "Instance-2_of_3_items", "Instance-item=0", "Instance-item=12", "count_threshold-t=0",
        "dense-c=1e308", "dense-n=1-c=inf", "WalkNode-a>b", "WalkNode-a=0",
        "WalkNode-chain_depth=-1", "parent_of-root", "parent_of-[20,30]-outside",
        "parent_of-[2,5]-straddles", "parent_of-[2,3]-straddles",
        "sample_instance-k=2^64", "cluster-k=2^64", "bins-k=2^66",
        "walker-plan>cap", "naive-plan>cap", "dense-plan>cap",
        *[f"{name}-seed={seed}" for name in SEEDED for seed in ("-1", "2^64")]])
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
    lambda: choose_walk_length(8.0, 0.1),
    lambda: WalkConfig.for_problem(8.0, 2, 0.1),
    lambda: choose_walk_length(True, 0.1),
    lambda: sample_instance(8.5, 2, "distinct", 1),
    lambda: NoiseModel(True),
    lambda: cluster_instance(8.0, 2, 1),
    lambda: bin_instance(16.0, 4, 1),
    lambda: bin_instance(16, 4.0, 1),
    lambda: ml_decode([], 4, 2, rho=True),
    lambda: ml_decode([], 4.0, 2),
    lambda: estimator_success_prob(2, 4, True),
    lambda: solve_dense(Oracle(INST), 8, 2, True),
    lambda: k_position_true(INST, 2.5),
    lambda: k_position_true(INST, True),
    lambda: make_instance(4.0, 2, [1, 2]),
    lambda: make_instance(4, 2, [2.0, 1.0]),
    lambda: Instance(8, 2, (2.5, 3)),
    lambda: ml_decode([(2.5, 1, 1)], 4, 1),
    lambda: ml_decode([(True, 1, 1)], 4, 1),
    lambda: ml_decode([(2, 1, True)], 4, 1),
    lambda: count_threshold(1.5, 8, 2),
    lambda: count_threshold(True, 8, 2),
    lambda: Oracle(INST, 0.9),
    lambda: Oracle((8, 2, (3, 6))),
    lambda: find_tth(Oracle(INST), 1, None),
    lambda: WalkNode(2.0, 3),
    lambda: WalkNode(1, 1, True),
    lambda: ExperimentConfig(8, 2, instance=None).validate(),
    lambda: ExperimentConfig(8, 2, algo=["walker"]).validate(),
    *[lambda make=make, seed=seed: make(seed) for make in SEEDED.values() for seed in (True, 1.5)],
], ids=["queries_for_confidence-k=2.5", "queries_for_confidence-k=True",
        "success_prob-k=2.5", "success_prob-m=2.5", "success_prob-m=True",
        "count_threshold-m=4.0", "walk_length-n=8.0",
        "for_problem-n=8.0", "walk_length-n=True", "sample_instance-n=8.5",
        "NoiseModel-rho=True", "cluster-n=8.0", "bins-n=16.0", "bins-k=4.0",
        "ml_decode-rho=True", "ml_decode-n=4.0", "success_prob-k_true=True", "dense-c=True",
        "k_position_true-y=2.5", "k_position_true-y=True",
        "make_instance-n=4.0", "make_instance-items=2.0", "Instance-item=2.5",
        "ml_decode-y=2.5", "ml_decode-y=True", "ml_decode-x=True", "count_threshold-t=1.5",
        "count_threshold-t=True", "Oracle-noise=0.9", "Oracle-instance=tuple",
        "find_tth-cfg=None", "WalkNode-a=2.0", "WalkNode-chain_depth=True",
        "ExperimentConfig-instance=None", "ExperimentConfig-algo=list",
        *[f"{name}-seed={seed}" for name in SEEDED for seed in ("True", "1.5")]])
def test_non_integer_k_or_m_raises_type_error(call):
    # n, k, items, m, y, t, k_true and seeds count values, hidden elements,
    # queries and streams: a float or a bool is rejected, not rounded,
    # truncated or read as 0 or 1; a bool is neither a probability rho nor a
    # constant c; and an oracle takes only an Instance and a NoiseModel
    with pytest.raises(TypeError):
        call()
