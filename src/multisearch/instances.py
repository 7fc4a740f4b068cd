"""Every instance generator: uniform ones and adversarial benchmark inputs.

``sample_instance`` draws k uniform values, with or without replacement.
``cluster_instance`` places one hidden element uniformly in each of k
equal-width clusters of [1, n]; it forces any solver to pin each element
down separately. ``bin_instance`` pads the multiset with k/4 ones and k/4
n's, then hides one element per two-value bin {2i, 2i+1}; distinguishing
within a bin is a 1/k-biased coin question. ``check_int64_range`` is their
rule for the ranges and sizes numpy draws as int64.
"""

from __future__ import annotations

from .model import DomainError, Instance, check_n_k, generator, make_instance


def check_int64_range(value: int, name: str) -> None:
    """Reject value >= 2^63: numpy takes a random instance's ranges and sizes as int64."""
    if value >= 2**63:
        raise DomainError(f"random instances need {name} below 2^63, got {value}")


def sample_instance(n: int, k: int, mode: str, seed: int) -> Instance:
    """Sample a random instance: k i.i.d. uniform values, or a uniform k-subset."""
    n, k = check_n_k(n, k)
    check_int64_range(n, "n")
    check_int64_range(k, "k")
    rng = generator(seed)
    if mode == "with-replacement":
        items = rng.integers(1, n + 1, size=k)
    elif mode == "distinct":
        if k > n:
            raise DomainError(f"distinct sampling needs k <= n, got k={k}, n={n}")
        items = rng.choice(n, size=k, replace=False) + 1
    else:
        raise DomainError(f"unknown sampling mode {mode!r}")
    return make_instance(n, k, items.tolist())


def cluster_instance(n: int, k: int, seed: int) -> Instance:
    """One uniform element per cluster [(i-1)n/k + 1, i*n/k]; requires k | n."""
    n, k = check_n_k(n, k)
    if n % k != 0:
        raise DomainError(f"cluster instance needs k | n, got n={n}, k={k}")
    width = n // k
    check_int64_range(width, "a cluster width")
    check_int64_range(k, "k")
    rng = generator(seed)
    offsets = rng.integers(0, width, size=k)
    items = [i * width + 1 + int(off) for i, off in enumerate(offsets)]
    return make_instance(n, k, items)


def bin_instance(n: int, k: int, seed: int) -> Instance:
    """k/4 ones, k/4 n's, one uniform element of each bin {2i, 2i+1}.

    Requires 4 | k and k <= n - 2 so all bins lie inside [2, n-1].
    """
    n, k = check_n_k(n, k)
    if k < 4 or k % 4 != 0:
        raise DomainError(f"bin instance needs 4 | k, got k={k}")
    if k > n - 2:
        raise DomainError(f"bin instance needs k <= n - 2, got k={k}, n={n}")
    check_int64_range(k, "k")
    rng = generator(seed)
    picks = rng.integers(0, 2, size=k // 2)
    items = [1] * (k // 4) + [n] * (k // 4)
    items += [2 * i + int(p) for i, p in enumerate(picks, start=1)]
    return make_instance(n, k, items)
