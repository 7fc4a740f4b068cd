import itertools
import math
import random

import numpy as np
import pytest

from multisearch.dense import (multiset_from_profile, repair_monotone,
                               solve_dense, solve_naive)
from multisearch.kposition import (_queries_for_exponent, estimate_k_position,
                                   queries_for_confidence)
from multisearch.model import (DomainError, NoiseModel, Oracle, ceil_log2, k_position_true,
                               make_instance)
from multisearch.seeds import derive_seed
from multisearch.walker import WalkConfig, find_tth, solve_walker


def test_ground_truth_profile_recovers_instance():
    # oracle-free unit path: exact k-positions decoded back to the multiset
    inst = make_instance(4, 4, [1, 2, 2, 4])
    truth = [k_position_true(inst, y) for y in range(1, 5)]
    assert truth == [1, 3, 3, 4]
    profile = repair_monotone(truth)
    assert profile == truth  # identity on monotone input
    assert multiset_from_profile(profile) == [1, 2, 2, 4]


def test_repair_monotone_properties():
    # every list of length <= 6 over 0..3, plus seeded long lists over 0..12
    rng = random.Random(12)
    cases = [list(v) for length in range(1, 7)
             for v in itertools.product(range(4), repeat=length)]
    cases += [[rng.randint(0, 12) for _ in range(rng.randint(7, 30))] for _ in range(200)]
    for values in cases:
        repaired = repair_monotone(values)
        assert len(repaired) == len(values)
        assert all(a <= b for a, b in zip(repaired, repaired[1:]))
        assert all(r >= v for r, v in zip(repaired, values))
        if all(a <= b for a, b in zip(values, values[1:])):
            assert repaired == values


def test_solve_dense_examples():
    inst = make_instance(4, 4, [1, 2, 2, 4])
    r = solve_dense(Oracle(inst, seed=3), 4, 4, c=2.0)
    assert r.recovered == [1, 2, 2, 4]
    assert r.total_queries == 3 * queries_for_confidence(4, 4.0 ** -3)

    trivial = solve_dense(Oracle(make_instance(1, 5, [1] * 5), seed=0), 1, 5)
    assert trivial.recovered == [1] * 5
    assert trivial.total_queries == 0


def test_solve_dense_budget_closed_form():
    n, k, c = 8, 12, 1.0
    m_pt = queries_for_confidence(k, float(n) ** -(c + 1))
    inst = make_instance(n, k, [1, 2, 2, 3, 4, 4, 5, 6, 7, 7, 8, 8])
    for i in range(3):
        r = solve_dense(Oracle(inst, seed=derive_seed(5, i)), n, k, c)
        assert r.total_queries == (n - 1) * m_pt
        assert len(r.per_target) == k
        assert sum(q for _, _, q in r.per_target) == r.total_queries


def test_solve_naive_worked_example():
    inst = make_instance(16, 2, [3, 10])
    hits = 0
    for i in range(200):
        r = solve_naive(Oracle(inst, seed=derive_seed(19, i)), 16, 2, 0.1)
        hits += r.recovered == [3, 10]
    assert hits >= 180


def test_solve_naive_trivial():
    for seed in range(5):
        r = solve_naive(Oracle(make_instance(2, 1, [2]), seed=seed), 2, 1, 0.1)
        assert r.recovered == [2]


def test_solve_naive_probe_count():
    # per-target probes: at most ceil(log2 n) + 1, each m_per queries
    n, k, delta = 16, 2, 0.1
    m_per = queries_for_confidence(k, delta / (k * ceil_log2(n)))
    inst = make_instance(n, k, [3, 10])
    r = solve_naive(Oracle(inst, seed=2), n, k, delta)
    for _, _, q in r.per_target:
        assert q % m_per == 0
        assert q // m_per <= ceil_log2(n) + 1


def test_solve_naive_beyond_machine_integers():
    # the bisection runs on Python ints: n = 10^400 is far past Py_ssize_t
    n = 10**400
    inst = make_instance(n, 2, [5, n - 3])
    r = solve_naive(Oracle(inst, seed=4), n, 2, 0.1)
    assert r.recovered == [5, n - 3]


def _reference_naive(oracle, n, k, delta):
    """solve_naive's bisection on k-position estimates: its values and the
    queries each one cost."""
    m_per = _queries_for_exponent(k, math.log2(k * max(1, ceil_log2(n))) - math.log2(delta),
                                  oracle.noise.rho)
    out = []
    for t in range(1, k + 1):
        before, lo, hi = oracle.query_count, 1, n
        while lo < hi:
            mid = (lo + hi) // 2
            if estimate_k_position(oracle, mid, m_per).k_pos >= t:
                hi = mid
            else:
                lo = mid + 1
        out.append((t, lo, oracle.query_count - before))
    return out


@pytest.mark.parametrize("rho", [1.0, 0.75])
@pytest.mark.parametrize("n, items", [(16, [3, 10]), (64, [1, 20, 20, 64]),
                                      (10**400, [5, 10**399, 10**400 - 3])],
                         ids=["n=16", "n=64", "n=10^400"])
def test_solve_naive_matches_estimate_bisection(rho, n, items):
    # a probe's count against the threshold is the estimate's rank check:
    # same values, same queries per target and the same stream after
    inst = make_instance(n, len(items), items)
    for seed in range(3):
        fast = Oracle(inst, NoiseModel(rho), seed=derive_seed(23, seed))
        ref = Oracle(inst, NoiseModel(rho), seed=derive_seed(23, seed))
        got = solve_naive(fast, n, len(items), 0.1)
        assert got.per_target == _reference_naive(ref, n, len(items), 0.1)
        assert fast.query_batch(1, 64) == ref.query_batch(1, 64)


def test_naive_costs_more_than_walker():
    # the naive baseline pays the extra log(2 k log n) factor
    n, k = 2**16, 8
    inst = make_instance(n, k, [500 * (i + 1) for i in range(k)])
    naive = solve_naive(Oracle(inst, seed=7), n, k, 0.1)
    walker = solve_walker(Oracle(inst, seed=7), n, k, 0.1)
    assert tuple(walker.recovered) == tuple(naive.recovered) == inst.items
    # report-only comparison in the benchmark harness; here just sanity
    assert naive.total_queries > 0 and walker.total_queries > 0


def test_preconditions():
    o = Oracle(make_instance(4, 2, [1, 3]), seed=0)
    with pytest.raises(DomainError):
        solve_naive(o, 4, 5, 0.1)  # k > n
    with pytest.raises(DomainError):
        solve_naive(Oracle(make_instance(2, 3, [1, 1, 2])), 2, 3, 0.1)  # k > n
    with pytest.raises(DomainError):
        solve_naive(o, 4, 2, 1.5)
    with pytest.raises(DomainError):
        solve_dense(o, 4, 2, c=0.0)


@pytest.mark.parametrize("solve", [
    lambda o: solve_naive(o, 8, 2, 0.1),
    lambda o: solve_dense(o, 16, 1, 1.0),
    lambda o: solve_walker(o, 16, 3, 0.1),
], ids=["naive-n", "dense-k", "walker-k"])
def test_solvers_reject_n_k_unlike_the_oracle(solve):
    # a solver runs only on the (n, k) of the oracle it is given
    o = Oracle(make_instance(16, 2, [3, 10]), seed=0)
    with pytest.raises(DomainError):
        solve(o)
    assert o.query_count == 0


_CFG = WalkConfig.for_problem(8, 2, 0.1)


@pytest.mark.parametrize("k, solve", [
    (2, lambda o: solve_naive(o, 8.0, 2, 0.1)),
    (2, lambda o: solve_dense(o, 8.0, 2, 1.0)),
    (2, lambda o: solve_walker(o, 8, 2.0, 0.1)),
    (1, lambda o: solve_dense(o, 8, True, 1.0)),
    (2, lambda o: find_tth(o, True, _CFG)),
    (2, lambda o: find_tth(o, 1.0, _CFG)),
], ids=["naive-n=8.0", "dense-n=8.0", "walker-k=2.0", "dense-k=True", "find_tth-t=True",
        "find_tth-t=1.0"])
def test_solvers_reject_non_integer_n_k_t(k, solve):
    # 8.0 == 8 and True == 1, but neither is an integer: no solve starts
    o = Oracle(make_instance(8, k, [5] * k), seed=0)
    with pytest.raises(TypeError):
        solve(o)
    assert o.query_count == 0


@pytest.mark.parametrize("solve", [solve_walker, solve_naive], ids=["walker", "naive"])
def test_solvers_take_numpy_integer_n_k(solve):
    # a numpy integer is an integer: the solve goes on with it as an int
    inst = make_instance(8, 2, [3, 6])
    got = solve(Oracle(inst, seed=4), np.int64(8), np.int64(2), 0.1)
    want = solve(Oracle(inst, seed=4), 8, 2, 0.1)
    assert (got.recovered, got.per_target) == (want.recovered, want.per_target)
