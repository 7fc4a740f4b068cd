"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Everything is deterministic under the pinned seeds.
"""

import subprocess
import sys

import numpy as np
import pytest

from multisearch.analysis import (berndiv_bound_check, estimator_success_prob,
                                  kl_bernoulli, ml_decode)
from multisearch.bench import ExperimentConfig, fit_scaling, run_experiment
from multisearch.dense import solve_dense, solve_naive
from multisearch.instances import bin_instance, cluster_instance
from multisearch.kposition import estimate_k_position, queries_for_confidence
from multisearch.model import (NoiseModel, Oracle, collect_transcript,
                               make_instance, sample_instance)
from multisearch.seeds import derive_seed
from multisearch.walker import ceil_log2, solve_walker


def _report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_c01_estimator_guarantee_exact():
    worst = 1.0
    for k in (2, 3, 4, 8):
        for delta in (1 / 8, 1 / 16):
            m = queries_for_confidence(k, delta)
            for k_true in range(k + 1):
                p = estimator_success_prob(k, m, k_true)
                worst = min(worst, p - (1 - delta))
                assert p >= 1 - delta, (k, delta, k_true, p)
    _report("C1 estimator guarantee (exact binomial)", True,
            f"worst margin {worst:.4f}")


def test_c02_estimator_monte_carlo_vs_oracle():
    exact = estimator_success_prob(2, 32, 1)
    inst = make_instance(16, 2, [3, 10])  # true K(8) = 1
    trials = 100_000
    hits = 0
    for i in range(trials):
        o = Oracle(inst, seed=derive_seed(2020, i))
        hits += estimate_k_position(o, 8, 32).k_pos == 1
    gap = abs(hits / trials - exact)
    _report("C2 estimator Monte Carlo vs exact oracle", gap < 0.01,
            f"exact {exact:.5f}, empirical {hits / trials:.5f}")


def test_c03_paper_worked_example():
    inst = make_instance(16, 2, [3, 10])
    w = sum(solve_walker(Oracle(inst, seed=derive_seed(301, i)), 16, 2, 0.1).recovered
            == [3, 10] for i in range(200))
    n = sum(solve_naive(Oracle(inst, seed=derive_seed(302, i)), 16, 2, 0.1).recovered
            == [3, 10] for i in range(200))
    _report("C3 worked example n=16, k=2, S={3,10}", w >= 180 and n >= 180,
            f"walker {w}/200, naive {n}/200")


def test_c04_walker_guarantee_and_budget():
    budget = 4 * (70 * 8) * 26 * 16
    hits = 0
    max_q = 0
    for i in range(200):
        ts = derive_seed(404, i)
        inst = cluster_instance(256, 4, seed=derive_seed(ts, 1))
        r = solve_walker(Oracle(inst, seed=derive_seed(ts, 2)), 256, 4, 0.1)
        hits += tuple(r.recovered) == inst.items
        max_q = max(max_q, r.total_queries)
        assert r.total_queries <= budget
    _report("C4 walker success and query budget (n=256, k=4, cluster)",
            hits >= 180, f"success {hits}/200, max queries {max_q} <= {budget}")


def test_c05_k_cubed_scaling():
    points = []
    for k in (2, 3, 4, 6, 8):
        cfg = ExperimentConfig(n=4096, k=k, algo="walker", instance="uniform",
                               delta=0.1, trials=50, master_seed=505)
        points.extend((k, q) for q in run_experiment(cfg).queries)
    slope = fit_scaling(points)
    _report("C5 k^3 scaling at n=4096", 2.9 <= slope <= 3.1,
            f"slope {slope:.4f}")


def test_c06_log_n_scaling():
    ratios = []
    for n in (2**8, 2**10, 2**12, 2**14):
        cfg = ExperimentConfig(n=n, k=4, algo="walker", instance="uniform",
                               delta=0.1, trials=20, master_seed=606)
        med = float(np.median(run_experiment(cfg).queries))
        ratios.append(med / ceil_log2(n))
    mean = sum(ratios) / len(ratios)
    spread = max(abs(r - mean) / mean for r in ratios)
    _report("C6 queries linear in log2(n) at k=4", spread <= 0.05,
            f"ratios {[round(r) for r in ratios]}, spread {spread:.4f}")


def test_c07_dense_solver():
    n, k, c = 8, 12, 1.0
    budget = (n - 1) * queries_for_confidence(k, float(n) ** -(c + 1))
    hits = 0
    for i in range(400):
        ts = derive_seed(707, i)
        inst = sample_instance(n, k, "with-replacement", derive_seed(ts, 1))
        r = solve_dense(Oracle(inst, seed=derive_seed(ts, 2)), n, k, c)
        hits += tuple(r.recovered) == inst.items
        assert r.total_queries == budget
    _report("C7 dense solver (n=8, k=12, c=1)", hits >= 0.85 * 400,
            f"success {hits}/400, per-run budget {budget}")


def test_c13_dense_k_squared_scaling():
    # k >= n: solve_dense's budget grows as k^2 at fixed n
    points = []
    for k in (8, 16, 32, 64):
        cfg = ExperimentConfig(n=8, k=k, algo="dense", instance="uniform",
                               trials=1, master_seed=1313)
        points.extend((k, q) for q in run_experiment(cfg).queries)
    slope = fit_scaling(points)
    _report("C13 dense k^2 scaling at n=8", 1.9 <= slope <= 2.1, f"slope {slope:.4f}")


def test_c08_noise_robustness():
    hits = 0
    for i in range(200):
        ts = derive_seed(808, i)
        inst = sample_instance(64, 2, "with-replacement", derive_seed(ts, 1))
        o = Oracle(inst, NoiseModel(0.75), seed=derive_seed(ts, 2))
        hits += tuple(solve_walker(o, 64, 2, 0.1).recovered) == inst.items
    _report("C8 noisy comparisons rho=0.75 (n=64, k=2)", hits >= 180,
            f"success {hits}/200")


def test_c09_kl_bound_grid():
    for p in np.arange(0.25, 0.7501, 0.05):
        p = float(round(p, 10))
        assert kl_bernoulli(p, p) == 0.0
        for eps in np.arange(0.01, 0.1251, 0.01):
            assert berndiv_bound_check(p, float(min(eps, 0.125)))
    _report("C9 Bernoulli KL quadratic bound on the full grid", True)


def test_c10_ml_oracle():
    hits = 0
    for i in range(100):
        ts = derive_seed(1010, i)
        inst = sample_instance(5, 2, "with-replacement", derive_seed(ts, 1))
        o = Oracle(inst, seed=derive_seed(ts, 2))
        rng = np.random.Generator(np.random.PCG64(derive_seed(ts, 3)))
        ys = rng.integers(1, 6, size=2000).tolist()
        hits += ml_decode(collect_transcript(o, ys), 5, 2) == inst.items
    _report("C10 brute-force ML decoder (n=5, k=2)", hits >= 95,
            f"recovered {hits}/100")


def test_c11_hard_instance_structure():
    for s in range(10_000):
        inst = cluster_instance(16, 4, seed=s)
        for i in range(4):
            assert sum(4 * i + 1 <= v <= 4 * (i + 1) for v in inst.items) == 1
        items = list(bin_instance(16, 8, seed=s).items)
        assert items.count(1) == 2 and items.count(16) == 2
        for i in range(1, 5):
            assert sum(v in (2 * i, 2 * i + 1) for v in items) == 1
    _report("C11 hard-instance structural invariants (10^4 seeds each)", True)


def test_c12_bench_reproducibility(tmp_path):
    args = [sys.executable, "-m", "multisearch.cli", "bench", "--n", "16",
            "--k", "2", "--trials", "20", "--seed", "99"]
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        proc = subprocess.run(args + ["--out", str(path)],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        rows = [line.rsplit(",", 1)[0]  # drop elapsed_ms
                for line in path.read_text().splitlines()]
        outs.append(rows)
    _report("C12 bench reproducibility (identical CSV minus elapsed_ms)",
            outs[0] == outs[1])
