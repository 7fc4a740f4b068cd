import math
import random

import numpy as np
import pytest

from multisearch.analysis import (MASS_CHUNK, _binom_mass, berndiv_bound_check, binom_pmf,
                                  dense_law, estimator_success_prob, kl_bernoulli,
                                  ml_decode)
from multisearch.dense import (dense_point_budget, multiset_from_profile, repair_monotone,
                               solve_dense)
from multisearch.instances import sample_instance
from multisearch.kposition import _estimate
from multisearch.model import (CapacityError, DomainError, NoiseModel, Oracle,
                               k_position_true, leq_probability, make_instance)
from multisearch.seeds import derive_seed


def test_kl_conventions():
    assert kl_bernoulli(0.3, 0.3) == 0.0
    assert kl_bernoulli(1.0, 0.0) == math.inf
    assert kl_bernoulli(0.0, 1.0) == math.inf
    assert kl_bernoulli(0.0, 0.0) == 0.0
    assert kl_bernoulli(1.0, 1.0) == 0.0


def test_kl_closed_form_value():
    # KL(B_1/2 || B_1/4) = 1 - log2(3)/2 bits
    expected = 1.0 - 0.5 * math.log2(3.0)
    assert kl_bernoulli(0.5, 0.25) == pytest.approx(expected, abs=1e-12)


def test_kl_domain_errors():
    with pytest.raises(DomainError):
        kl_bernoulli(-0.1, 0.5)
    with pytest.raises(DomainError):
        kl_bernoulli(0.5, 1.2)


def test_kl_gibbs_inequality():
    grid = [i / 100 for i in range(1, 100)]
    for p in grid:
        for q in grid:
            v = kl_bernoulli(p, q)
            assert v >= -1e-15
            if p != q:
                assert v > 0.0, (p, q)


def test_berndiv_bound_examples():
    assert berndiv_bound_check(0.5, 0.0)
    assert berndiv_bound_check(0.5, 0.125)
    assert berndiv_bound_check(0.75, 0.125)
    bound = 32.0 * 0.125**2 / (3.0 * math.log(2.0))
    assert bound == pytest.approx(0.2404, abs=5e-4)


def test_berndiv_bound_full_grid():
    for p in np.arange(0.25, 0.7501, 0.05):
        for eps in np.arange(0.01, 0.1251, 0.01):
            assert berndiv_bound_check(float(p), float(min(eps, 0.125)))


def test_berndiv_domain_errors():
    with pytest.raises(DomainError):
        berndiv_bound_check(0.2, 0.05)
    with pytest.raises(DomainError):
        berndiv_bound_check(0.5, 0.2)


def test_success_prob_degenerate():
    assert estimator_success_prob(1, 5, 0) == pytest.approx(1.0)
    assert estimator_success_prob(1, 5, 1) == pytest.approx(1.0)


def test_binom_pmf_matches_scipy():
    from scipy.stats import binom

    for m in (1, 7, 640, 20_000):
        xs = np.unique(np.linspace(0, m, 41).astype(int))
        for p in (1e-3, 0.25, 0.5, 0.9, 1 - 1e-3):
            ours = [binom_pmf(int(x), m, p) for x in xs]
            np.testing.assert_allclose(ours, binom.pmf(xs, m, p), rtol=1e-9, atol=1e-300)
        # exact, not rounded, at the ends of the noiseless channel
        assert [binom_pmf(x, m, 0.0) for x in (0, m)] == [1.0, 0.0]
        assert [binom_pmf(x, m, 1.0) for x in (0, m)] == [0.0, 1.0]


def test_success_prob_frozen_values():
    # independent oracle: direct binomial sums over the LEQ-count law
    from scipy.stats import binom

    # k=2, m=32, K=1: pipeline succeeds exactly when 9 <= x <= 24
    # (x=24 gives p_hat=0.75, a grid tie broken down to k_pos=1)
    good = [x for x in range(33) if _estimate(x, 32, 2, 1.0) == 1]
    assert good == list(range(9, 25))
    expected = binom.pmf(good, 32, 0.5).sum()
    assert estimator_success_prob(2, 32, 1) == pytest.approx(expected)
    assert expected >= 7 / 8
    assert estimator_success_prob(2, 40, 1) >= 15 / 16


def test_success_prob_distribution_sums_to_one():
    for k, m, k_true, rho in [(3, 25, 2, 1.0), (4, 50, 1, 0.8)]:
        from scipy.stats import binom

        p = rho * k_true / k + (1 - rho) * (1 - k_true / k)
        total = 0.0
        for est in range(k + 1):
            xs = [x for x in range(m + 1)
                  if _estimate(x, m, k, rho) == est]
            total += binom.pmf(xs, m, p).sum()
        assert total == pytest.approx(1.0, abs=1e-12)


def test_ml_decode_zero_likelihood_elimination():
    assert ml_decode([(1, 1, 0)] * 10, 2, 1) == (2,)


def test_ml_decode_no_batches_tie_break():
    assert ml_decode([], 3, 1) == (1,)
    assert ml_decode([], 3, 2) == (1, 1)


def test_ml_decode_permutation_invariant():
    # a (y, m, x) record decodes like its split into m (y, 1, .) records,
    # in any order
    inst = make_instance(5, 2, [2, 4])
    for rho in (1.0, 0.9):
        o = Oracle(inst, NoiseModel(rho), seed=9)
        rng = np.random.Generator(np.random.PCG64(10))
        batches = [(y, m, o.query_batch(y, m))
                   for y, m in zip(rng.integers(1, 6, size=12).tolist(),
                                   rng.integers(0, 60, size=12).tolist())]
        split = [(y, 1, int(i < x)) for y, m, x in batches for i in range(m)]
        random.Random(0).shuffle(split)
        assert ml_decode(batches, 5, 2, rho) == ml_decode(split, 5, 2, rho)


def test_ml_decode_capacity_guard():
    with pytest.raises(CapacityError):
        ml_decode([], 10**6, 4)


@pytest.mark.parametrize("items, c, rho", [([1, 2, 3], 0.01, 0.75), ([2, 2, 3], 0.5, 0.8),
                                           ([1, 1, 1], 0.01, 1.0)])
def test_dense_law_is_the_repaired_profile_law(items, c, rho):
    # n = 3: every pair of counts at y = 1, 2 through the solver's own
    # repair and read-off, weighed by its binomial probability
    inst = make_instance(3, len(items), items)
    k, m = inst.k, dense_point_budget(3, inst.k, c, rho)
    pmfs = [[binom_pmf(x, m, leq_probability(k_position_true(inst, y), k, rho))
             for x in range(m + 1)] for y in (1, 2)]
    fail = math.fsum(pmfs[0][x1] * pmfs[1][x2] for x1 in range(m + 1) for x2 in range(m + 1)
                     if multiset_from_profile(repair_monotone(
                         [_estimate(x1, m, k, rho), _estimate(x2, m, k, rho), k])) != list(items))
    assert dense_law(inst, c, rho) == pytest.approx(fail, rel=1e-9, abs=1e-300)


@pytest.mark.parametrize("n, k, items, c, rho, master", [
    (4, 8, [1, 2, 2, 2, 3, 3, 3, 4], 0.01, 1.0, 301),
    (6, 6, [1, 1, 2, 4, 4, 5], 0.01, 0.8, 302)])
def test_dense_law_against_monte_carlo(n, k, items, c, rho, master):
    # 4,000 solves at oracle seeds derive_seed(master, i); the failure rate is
    # within |z| <= 4 of the exact law, and each solve draws (n - 1) times the
    # per-point budget the law reads
    inst = make_instance(n, k, items)
    exact, trials = dense_law(inst, c, rho), 4000
    fails = 0
    for i in range(trials):
        o = Oracle(inst, NoiseModel(rho), seed=derive_seed(master, i))
        fails += sorted(solve_dense(o, n, k, c).recovered) != items
        assert o.query_count == (n - 1) * dense_point_budget(n, k, c, rho)
    z = (fails / trials - exact) / math.sqrt(exact * (1 - exact) / trials)
    assert abs(z) <= 4, (exact, fails / trials, z)


@pytest.mark.parametrize("m, p", [(512, 0.125), (640, 0.9), (3200, 0.3375), (4000, 0.5)])
def test_binom_mass_is_the_pmf_sum(m, p):
    # the running-sum window against pmf by pmf, in the tails, at the mode
    # and over every count
    mu, root = round(m * p), math.isqrt(m)
    for lo, hi in ((0, mu - 3 * root), (mu + 2 * root, m + 1), (mu - 10, mu + 10), (0, m + 1)):
        expected = math.fsum(binom_pmf(x, m, p) for x in range(lo, hi))
        assert _binom_mass(lo, hi, m, p) == pytest.approx(expected, rel=1e-10, abs=0.0)
    assert _binom_mass(5, 5, m, p) == 0.0
    assert [_binom_mass(0, 1, m, 0.0), _binom_mass(0, m, m, 1.0)] == [1.0, 0.0]


def test_binom_mass_across_chunks():
    # at dense_large_k's budget a window spans several chunks; each side's
    # log pmf carries lgamma(m + 1) ~ 3.3e8 times the double's 2.2e-16
    m, p = 20_971_520, 0.5
    mu = m // 2
    for lo, hi in ((mu - 10, mu + 10), (mu - 5_000, mu - 4_999 + MASS_CHUNK)):
        expected = math.fsum(binom_pmf(x, m, p) for x in range(lo, hi))
        assert _binom_mass(lo, hi, m, p) == pytest.approx(expected, rel=2e-7, abs=0.0)


def test_dense_law_refuses_the_plans_solve_dense_refuses():
    inst = make_instance(8, 2, [3, 6])
    for c, rho in ((1e307, 1.0), (1.0, 0.5000000001)):
        with pytest.raises(DomainError, match="dense plans"):
            solve_dense(Oracle(inst, NoiseModel(rho)), 8, 2, c)
        with pytest.raises(DomainError, match="dense plans"):
            dense_law(inst, c, rho)


def test_dense_law_at_the_dense_large_k_config():
    # n^-c holds at the dense_large_k workload's own config: a uniform
    # instance with n = 8, k = 1024, per-point budget 20,971,520, c = 2
    inst = sample_instance(8, 1024, "with-replacement", derive_seed(derive_seed(7, 0), 1))
    assert dense_point_budget(8, 1024, 2.0, 1.0) == 20_971_520
    assert 0 < dense_law(inst, 2.0) <= 8.0 ** -2


def test_dense_law_edges():
    # forced and certain answers: one point, or rho = 1 with every item at n
    assert dense_law(make_instance(1, 3, [1, 1, 1]), 1.0) == 0.0
    assert dense_law(make_instance(8, 4, [8] * 4), 1.0) == 0.0
    # k >> n at c = 2: the failure stays below n^-c
    inst = make_instance(8, 64, [1 + i % 8 for i in range(64)])
    assert 0 < dense_law(inst, 2.0) < 8.0 ** -2
    with pytest.raises(TypeError):
        dense_law(inst, True)
    with pytest.raises(DomainError):
        dense_law(inst, 0.0)
    with pytest.raises(TypeError):
        dense_law([1, 2], 1.0)
