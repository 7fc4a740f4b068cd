import pytest

from multisearch.analysis import estimator_success_prob
from multisearch.kposition import (_estimate, count_threshold, estimate_k_position,
                                   queries_for_confidence)
from multisearch.model import DomainError, NoiseModel, Oracle, make_instance
from multisearch.seeds import derive_seed


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
        # x / m first rounds above 1/4 past half an ulp of 1/4, 2^15 counts
        assert x_t == 2**68 + 32_769


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
