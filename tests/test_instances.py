import numpy as np
import pytest
from scipy.stats import chisquare

from multisearch.instances import bin_instance, cluster_instance
from multisearch.model import DomainError


def test_cluster_width_one_forced():
    assert cluster_instance(4, 4, seed=99).items == (1, 2, 3, 4)


def test_cluster_divisibility_error():
    with pytest.raises(DomainError):
        cluster_instance(16, 3, seed=0)


def test_cluster_rejects_n_k_below_one():
    # the generator owns its n and k: a DomainError, not numpy's ValueError
    for n, k in [(0, 4), (4, 0), (-4, 4), (4, -2)]:
        with pytest.raises(DomainError):
            cluster_instance(n, k, seed=0)


def test_cluster_int64_range():
    # the cluster width goes to numpy as an int64 bound: below 2^63 only
    assert cluster_instance(2 * (2**63 - 1), 2, seed=0).items[1] > 2**63
    with pytest.raises(DomainError):
        cluster_instance(2**64, 2, seed=0)


def test_cluster_deterministic():
    assert cluster_instance(64, 8, seed=5) == cluster_instance(64, 8, seed=5)


def test_bin_smallest_legal():
    # bins must fit inside [2, n-1], so the smallest case is k=4, n=6
    inst = bin_instance(6, 4, seed=0)
    items = list(inst.items)
    assert items.count(1) == 1 and items.count(6) == 1
    assert sum(v in (2, 3) for v in items) == 1
    assert sum(v in (4, 5) for v in items) == 1


def test_bin_errors():
    with pytest.raises(DomainError):
        bin_instance(16, 6, seed=0)  # 4 does not divide 6
    with pytest.raises(DomainError):
        bin_instance(4, 4, seed=0)  # bins would spill past n-1


def test_bin_deterministic():
    assert bin_instance(32, 12, seed=2) == bin_instance(32, 12, seed=2)


def test_cluster_uniformity_chi_square():
    n, k, seeds = 16, 4, 100_000
    width = n // k
    counts = np.zeros((k, width), dtype=int)
    for s in range(seeds):
        inst = cluster_instance(n, k, seed=s)
        for i, v in enumerate(inst.items):
            counts[i, (v - 1) % width] += 1
    for i in range(k):
        assert chisquare(counts[i]).pvalue > 0.001


def test_bin_uniformity_chi_square():
    n, k, seeds = 16, 8, 100_000
    lows = np.zeros(k // 2, dtype=int)
    for s in range(seeds):
        items = set(bin_instance(n, k, seed=s).items)
        for i in range(1, k // 2 + 1):
            lows[i - 1] += 2 * i in items
    for c in lows:
        assert chisquare([c, seeds - c]).pvalue > 0.001
