import math
import random

import numpy as np
import pytest

from multisearch.analysis import (berndiv_bound_check, binom_pmf,
                                  estimator_success_prob, kl_bernoulli,
                                  ml_decode)
from multisearch.kposition import estimate_from_counts
from multisearch.model import (CapacityError, DomainError, Oracle, Response,
                               collect_transcript, make_instance)


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
    good = [x for x in range(33) if estimate_from_counts(x, 32, 2) == 1]
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
                  if estimate_from_counts(x, m, k, rho) == est]
            total += binom.pmf(xs, m, p).sum()
        assert total == pytest.approx(1.0, abs=1e-12)


def test_ml_decode_zero_likelihood_elimination():
    transcript = [(1, Response.GT)] * 10
    assert ml_decode(transcript, 2, 1) == (2,)


def test_ml_decode_empty_transcript_tie_break():
    assert ml_decode([], 3, 1) == (1,)
    assert ml_decode([], 3, 2) == (1, 1)


def test_ml_decode_permutation_invariant():
    inst = make_instance(5, 2, [2, 4])
    o = Oracle(inst, seed=9)
    rng = np.random.Generator(np.random.PCG64(10))
    ys = rng.integers(1, 6, size=400).tolist()
    transcript = collect_transcript(o, ys)
    shuffled = list(transcript)
    random.Random(0).shuffle(shuffled)
    assert ml_decode(transcript, 5, 2) == ml_decode(shuffled, 5, 2)


def test_ml_decode_capacity_guard():
    with pytest.raises(CapacityError):
        ml_decode([], 10**6, 4)
