import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multisearch.analysis import binom_pmf
from multisearch.model import (CHUNK, DomainError, Instance, NoiseModel, Oracle,
                               Response, k_position_true, leq_probability,
                               make_instance, sample_instance)


def test_make_instance_canonical():
    inst = make_instance(16, 2, [10, 3])
    assert inst.items == (3, 10)
    assert (inst.n, inst.k) == (16, 2)


def test_make_instance_trivial():
    assert make_instance(1, 1, [1]).items == (1,)


def test_make_instance_errors():
    with pytest.raises(DomainError):
        make_instance(4, 3, [2, 2, 5])  # 5 > n
    with pytest.raises(DomainError):
        make_instance(4, 3, [1, 2])  # wrong cardinality
    with pytest.raises(DomainError):
        make_instance(4, 2, [0, 1])  # below range
    with pytest.raises(DomainError):
        make_instance(0, 1, [1])
    with pytest.raises(DomainError):
        make_instance(4, 2, [2.9, 1.5])  # not truncated to (1, 2)
    assert make_instance(4, 2, [2.0, 1.0]).items == (1, 2)


def test_sample_instance_forced_cases():
    assert sample_instance(1, 3, "with-replacement", 42).items == (1, 1, 1)
    assert sample_instance(5, 5, "distinct", 42).items == (1, 2, 3, 4, 5)


def test_sample_instance_deterministic():
    a = sample_instance(16, 2, "distinct", 7)
    b = sample_instance(16, 2, "distinct", 7)
    assert a == b
    assert len(set(a.items)) == 2


def test_sample_instance_distinct_requires_k_le_n():
    with pytest.raises(DomainError):
        sample_instance(3, 4, "distinct", 0)


@pytest.mark.parametrize("mode", ["with-replacement", "distinct"])
def test_sample_instance_int64_range(mode):
    # numpy draws int64 values: n = 2^63 - 1 is the largest range it covers
    assert max(sample_instance(2**63 - 1, 2, mode, 0).items) < 2**63
    with pytest.raises(DomainError):
        sample_instance(2**63, 2, mode, 0)


def test_noise_model_bounds():
    NoiseModel(1.0)
    NoiseModel(0.75)
    with pytest.raises(DomainError):
        NoiseModel(0.5)
    with pytest.raises(DomainError):
        NoiseModel(1.1)


def test_k_position_true_examples():
    inst = make_instance(16, 2, [3, 10])
    assert k_position_true(inst, 2) == 0
    assert k_position_true(inst, 4) == 1
    assert k_position_true(inst, 0) == 0
    assert k_position_true(inst, 16) == 2
    multi = make_instance(8, 3, [2, 2, 5])
    assert k_position_true(multi, 2) == 2
    with pytest.raises(DomainError):
        k_position_true(inst, 17)
    with pytest.raises(DomainError):
        k_position_true(inst, -1)


@given(st.integers(2, 64), st.data())
@settings(max_examples=50, deadline=None)
def test_k_position_true_monotone(n, data):
    k = data.draw(st.integers(1, 6))
    items = data.draw(st.lists(st.integers(1, n), min_size=k, max_size=k))
    inst = make_instance(n, k, items)
    positions = [k_position_true(inst, y) for y in range(0, n + 1)]
    assert positions[0] == 0
    assert positions[-1] == k
    assert all(a <= b for a, b in zip(positions, positions[1:]))


def test_query_deterministic_noiseless_extremes():
    inst = make_instance(16, 2, [3, 10])
    o = Oracle(inst, seed=1)
    assert o.query(16) is Response.LEQ  # every element <= n
    assert o.query(1) is Response.GT   # below min(S)


def test_query_rejects_out_of_range():
    o = Oracle(make_instance(4, 1, [2]), seed=0)
    with pytest.raises(DomainError):
        o.query(0)
    with pytest.raises(DomainError):
        o.query(5)


def test_query_count_accounting():
    o = Oracle(make_instance(16, 2, [3, 10]), seed=0)
    o.query(8)
    o.query_batch(4, 10)
    o.query(2)
    assert o.query_count == 12
    # m is checked before it is counted; m = 0 is an empty batch
    with pytest.raises(DomainError):
        o.query_batch(8, -5)
    with pytest.raises(TypeError):
        o.query_batch(8, 2.5)
    assert o.query_batch(8, 0) == 0
    assert o.query_count == 12


@pytest.mark.parametrize("rho", [1.0, 0.9])
@pytest.mark.parametrize("m", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
def test_query_batch_is_the_query_stream(rho, m):
    # counting in chunks reads the same answers as m single queries
    inst = make_instance(16, 2, [3, 10])
    a = Oracle(inst, NoiseModel(rho), seed=5)
    b = Oracle(inst, NoiseModel(rho), seed=5)
    assert a.query_batch(8, m) == sum(b.query(8) is Response.LEQ for _ in range(m))
    assert a.query_count == b.query_count == m
    # both oracles stand at the same point of the stream afterwards
    assert a.query_batch(8, 64) == b.query_batch(8, 64)


def test_query_batch_memory_is_bounded():
    o = Oracle(make_instance(16, 2, [3, 10]), NoiseModel(0.9), seed=0)
    tracemalloc.start()
    try:
        o.query_batch(8, 2**24)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


@pytest.mark.parametrize("rho", [1.0, 0.75])
def test_oracle_determinism(rho):
    inst = make_instance(16, 2, [3, 10])
    ys = [8, 4, 2, 3, 10, 16, 1] * 20
    a = Oracle(inst, NoiseModel(rho), seed=99)
    b = Oracle(inst, NoiseModel(rho), seed=99)
    assert [a.query(y) for y in ys] == [b.query(y) for y in ys]


@pytest.mark.parametrize("rho,y", [(1.0, 8), (0.75, 8), (0.8, 4)])
def test_query_distribution(rho, y):
    # empirical LEQ frequency within 4 sigma of rho*K_y/k + (1-rho)*(1-K_y/k)
    inst = make_instance(16, 2, [3, 10])
    o = Oracle(inst, NoiseModel(rho), seed=2024)
    big_n = 10**6
    freq = o.query_batch(y, big_n) / big_n
    ky = k_position_true(inst, y)
    expected = rho * ky / inst.k + (1 - rho) * (1 - ky / inst.k)
    assert abs(freq - expected) < 4 * math.sqrt(0.25 / big_n)


@pytest.mark.parametrize("rho", [1.0, 0.8])
@pytest.mark.parametrize("y", [1, 3, 9])  # K_y = 0, 1, 3
def test_query_count_distribution(rho, y):
    # counts of 12 consecutive answers must follow Binomial(12, p) as a whole
    # law, not only in the mean: chi-square over bins whose expected count is
    # at least 5 (tails pooled), below its 0.999 quantile
    from scipy.stats import chi2

    inst = make_instance(9, 3, [2, 5, 5])
    m, trials = 12, 50_000
    o = Oracle(inst, NoiseModel(rho), seed=2024)
    counts = np.array([o.query_batch(y, m) for _ in range(trials)])
    observed = np.bincount(counts, minlength=m + 1)
    p = leq_probability(k_position_true(inst, y), inst.k, rho)
    if p in (0.0, 1.0):
        assert observed[round(p * m)] == trials
        return
    expected = trials * np.array([binom_pmf(x, m, p) for x in range(m + 1)])
    lo = int(np.argmax(np.cumsum(expected) >= 5))
    hi = m - int(np.argmax(np.cumsum(expected[::-1]) >= 5))
    pool = lambda a: np.concatenate(([a[:lo + 1].sum()], a[lo + 1:hi], [a[hi:].sum()]))
    obs, exp = pool(observed), pool(expected)
    stat = float(((obs - exp) ** 2 / exp).sum())
    assert stat < chi2.ppf(0.999, len(obs) - 1), (stat, obs, exp)


def test_instance_json_roundtrip():
    inst = make_instance(16, 2, [3, 10])
    assert Instance.from_json(inst.to_json()) == inst
