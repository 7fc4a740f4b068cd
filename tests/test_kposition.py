import math
from fractions import Fraction

import numpy as np
import pytest

from multisearch.analysis import estimator_success_prob
from multisearch.kposition import (_estimate, count_threshold, estimate_k_position,
                                   queries_for_confidence)
from multisearch.model import DomainError, NoiseModel, Oracle, make_instance
from multisearch.seeds import derive_seed
from multisearch.walker import WalkConfig


def test_budget_examples():
    assert queries_for_confidence(2, 1 / 8) == 32
    assert queries_for_confidence(2, 1 / 16) == 40
    assert queries_for_confidence(1, 1 / 2) == 4
    # subnormal delta: 2 / delta overflows, log2(delta) does not
    assert queries_for_confidence(2, 1e-320) == 8513  # ceil(8 * (1 + 1063.017))


def test_budget_noise_scaling():
    # rho = 0.75 quadruples the budget: (2*0.75 - 1)^-2 = 4
    assert queries_for_confidence(2, 1 / 8, rho=0.75) == 4 * 32


def test_budget_rejects_bad_delta():
    with pytest.raises(DomainError):
        queries_for_confidence(2, 0.0)
    with pytest.raises(DomainError):
        queries_for_confidence(2, 1.0)


def test_round_to_grid_projection_and_ties():
    # exact grid points are fixed points
    for k in (1, 2, 3, 5, 8):
        for i in range(k + 1):
            assert _estimate(i, k, k, 1.0) == i
    # midpoint ties break toward the smaller index
    assert _estimate(1, 4, 2, 1.0) == 0
    assert _estimate(3, 4, 2, 1.0) == 1
    assert _estimate(1, 2, 1, 1.0) == 0


def test_boundary_shortcuts_cost_nothing():
    o = Oracle(make_instance(16, 2, [3, 10]), seed=0)
    lo = estimate_k_position(o, 0, 32)
    hi = estimate_k_position(o, 16, 32)
    assert (lo.k_pos, hi.k_pos) == (0, 2)
    assert o.query_count == 0


def test_m_used_exact_interior():
    o = Oracle(make_instance(16, 2, [3, 10]), seed=0)
    estimate_k_position(o, 8, 32)
    assert o.query_count == 32


def test_extreme_truth_is_exact_noiseless():
    # all items on one side of y: p_hat is exactly 0 or 1 for any m >= 1
    inst = make_instance(16, 2, [3, 10])
    o = Oracle(inst, seed=5)
    assert estimate_k_position(o, 2, 1).k_pos == 0
    assert estimate_k_position(o, 12, 1).k_pos == 2


def test_lemma_guarantee_exact_grid():
    # budget m = queries_for_confidence(k, delta) really achieves 1 - delta,
    # checked by exact binomial summation for every reachable truth
    for k in range(1, 9):
        for delta in (1 / 8, 1 / 16):
            m = queries_for_confidence(k, delta)
            for k_true in range(k + 1):
                assert estimator_success_prob(k, m, k_true) >= 1 - delta


def test_denoising_pipeline():
    # de-biasing inverts the flip channel exactly: at rho = 0.75 the LEQ
    # fractions 1/4, 1/2, 3/4 are k-positions 0, 1, 2, and the ties between
    # them (x = 12 and 20 of 32) fall to the smaller index; without the
    # de-bias all four counts would round to 1
    assert _estimate(24, 32, 2, 0.75) == 2
    assert [_estimate(x, 32, 2, 0.75) for x in (12, 13, 20, 21)] == [0, 1, 1, 2]


def test_count_threshold_exhaustive():
    # estimate >= t exactly for counts >= X_t, so one threshold decides
    # both of a walk step's endpoint checks
    for rho in (1.0, 0.9, 0.6):
        for k in range(1, 10):
            for m in range(1, 65):
                ests = [_estimate(x, m, k, rho) for x in range(m + 1)]
                for t in range(1, k + 1):
                    x_t = count_threshold(t, m, k, rho)
                    assert 0 <= x_t <= m + 1
                    assert [e >= t for e in ests] == [x >= x_t for x in range(m + 1)]


@pytest.mark.parametrize("m", [2**63 - 1, 2**70], ids=["2^63-1", "2^70"])
def test_count_threshold_past_ssize_t(m):
    # a budget need not fit a C index: m = 2^70 is a walk at rho just above 1/2
    x_t = count_threshold(1, m, 2, 1.0)
    assert _estimate(x_t - 1, m, 2, 1.0) < 1 <= _estimate(x_t, m, 2, 1.0)
    if m == 2**70:
        # the least count above m/4, exactly: no double rounds x / m
        assert x_t == 2**68 + 1


def _reference_estimates(m, k, rho):
    # the stated rule in exact rationals on rho's binary value: the de-biased
    # fraction (x/m - (1 - rho)) / (2 rho - 1) times k, rounded to the nearest
    # integer, a tie to the smaller, and clamped to [0, k]; that is
    # ceil(x * step - start), taken over the common denominator d
    r = Fraction(rho)
    step, start = k / ((2 * r - 1) * m), (1 - r) * k / (2 * r - 1) + Fraction(1, 2)
    d = math.lcm(step.denominator, start.denominator)
    a, b = int(step * d), int(start * d)
    return [min(max(-((b - a * x) // d), 0), k) for x in range(m + 1)]


def _reference_thresholds(ests, k):
    # X_t, t = 1..k+1: the least count whose estimate is >= t, or m + 1
    return [next((x for x, e in enumerate(ests) if e >= t), len(ests)) for t in range(1, k + 2)]


def test_thresholds_and_estimates_match_the_exact_rule():
    for rho in (1.0, 0.9, 0.75, 0.6):
        for k in range(1, 17):
            for m in range(1, 65):
                ests = _reference_estimates(m, k, rho)
                assert [_estimate(x, m, k, rho) for x in range(m + 1)] == ests, (rho, k, m)
                assert ([count_threshold(t, m, k, rho) for t in range(1, k + 2)]
                        == _reference_thresholds(ests, k)), (rho, k, m)


def test_thresholds_at_the_walker_budgets():
    # every t at both step budgets of the walker_small_k (k = 8, rho = 1) and
    # walker_noisy (k = 16, rho = 0.9) configs; at rho = 0.9 thresholds 5-8
    # sit one below 0.9's decimal value, since its double is slightly above
    for n, k, rho in ((4096, 8, 1.0), (1024, 16, 0.9)):
        cfg = WalkConfig.for_problem(n, k, 0.1, rho)
        for m in (cfg.step1_m, cfg.step2_m):
            ref = _reference_thresholds(_reference_estimates(m, k, rho), k)
            assert [count_threshold(t, m, k, rho) for t in range(1, k + 2)] == ref, (k, m)
    assert [count_threshold(t, 3200, 16, 0.9) for t in range(5, 9)] == [1040, 1200, 1360, 1520]
    assert [count_threshold(t, 4000, 16, 0.9) for t in range(5, 9)] == [1300, 1500, 1700, 1900]


def test_ties_go_to_the_smaller_index():
    # 21/38 of k = 19 is 10.5 exactly, a tie, which doubles round up to 11
    assert _estimate(21, 38, 19, 1.0) == 10
    assert _estimate(22, 38, 19, 1.0) == 11
    # 2888 * 21/38 = 1596 is the tie, so an estimate of 11 needs 1597
    assert count_threshold(11, 2888, 19, 1.0) == 1597


def test_rho_is_read_as_its_double():
    # 9/10 passed exactly still means the double 0.9, slightly above 9/10,
    # whose fifth threshold at m = 3200 is 1040 where 9/10's is 1041
    assert count_threshold(5, 3200, 16, Fraction(9, 10)) == count_threshold(5, 3200, 16, 0.9) == 1040
    assert count_threshold(1, 4, 2, np.int64(1)) == count_threshold(1, 4, 2, 1.0) == 2
    assert type(NoiseModel(np.int64(1)).rho) is float


def test_budgets_are_the_exact_ceiling():
    # ceil(2 k^2 (1 + log2(1/delta)) / (2 rho - 1)^2) on rho's binary value;
    # at rho = 0.62, k = 3, delta = 1/8 a ceiling in doubles gives 1250, one short
    assert queries_for_confidence(3, 1 / 8, rho=0.62) == 1251
    for i in range(51, 101):
        rho = i / 100
        r = Fraction(rho)
        for delta, exponent in ((1 / 8, 3), (1 / 16, 4)):
            for k in range(1, 200, 6):
                exact = math.ceil(2 * k * k * (1 + exponent) / (2 * r - 1) ** 2)
                assert queries_for_confidence(k, delta, rho) == exact, (rho, delta, k)


def test_count_threshold_rejects_empty_budget():
    with pytest.raises(DomainError):
        count_threshold(1, 0, 2)


def test_noisy_estimate_recovers_truth():
    inst = make_instance(16, 2, [3, 10])
    m = queries_for_confidence(2, 1 / 16, rho=0.75)
    hits = 0
    trials = 300
    for i in range(trials):
        o = Oracle(inst, NoiseModel(0.75), seed=derive_seed(13, i))
        hits += estimate_k_position(o, 8, m).k_pos == 1
    assert hits / trials >= 1 - 1 / 16 - 0.03


def test_rejects_bad_y_and_m():
    o = Oracle(make_instance(16, 2, [3, 10]), seed=0)
    with pytest.raises(DomainError):
        estimate_k_position(o, 17, 4)
    with pytest.raises(DomainError):
        estimate_k_position(o, 8, 0)
    assert o.query_count == 0
