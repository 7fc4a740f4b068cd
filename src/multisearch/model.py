"""Hidden instance and the comparison-query oracle.

An ``Instance`` is a multiset of k integers in [1, n]. The ``Oracle``
simulates one round of the query protocol: the caller names a value y,
one hidden element is drawn uniformly at random (independently of all
previous queries), and the oracle reports whether that element is <= y.
With comparison noise enabled the report is flipped with probability
1 - rho. ``leq_probability`` is the one statement of that law, the forward
noise channel: the oracle samples it, the exact oracles in ``analysis``
evaluate it, and ``kposition`` de-biases through its inverse.

The oracle never reveals which element was drawn. Solvers see only its
query interface: ``n``, ``k``, ``noise.rho``, ``query_count``,
``query_batch`` (m queries of one value, returned as the number of LEQ
answers) and ``query``. ``Oracle.instance`` and the ground-truth helper
``k_position_true`` are for the harness and tests only.
"""

from __future__ import annotations

import json
import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class DomainError(ValueError):
    """An argument violated a documented precondition."""


class CapacityError(RuntimeError):
    """A brute-force oracle was asked for more work than its guard allows."""


class Response(Enum):
    """Answer alphabet: the drawn hidden element is <= y, or > y."""

    LEQ = "leq"
    GT = "gt"


# A transcript is an ordered list of (queried value, response) pairs.
Transcript = list[tuple[int, Response]]

# answers are drawn this many doubles (128 KiB) at a time, so an estimate's
# memory stays in cache and does not grow with its query budget
CHUNK = 1 << 14


@dataclass(frozen=True)
class Instance:
    """Hidden multiset of ``k`` integers in [1, n], stored sorted."""

    n: int
    k: int
    items: tuple[int, ...]

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "k": self.k, "items": list(self.items)})

    @classmethod
    def from_json(cls, text: str) -> "Instance":
        obj = json.loads(text)
        return make_instance(obj["n"], obj["k"], obj["items"])


@dataclass(frozen=True)
class NoiseModel:
    """Per-query comparison correctness rho = 1/2 + gamma; rho=1 is noiseless."""

    rho: float = 1.0

    def __post_init__(self):
        if not (0.5 < self.rho <= 1.0):
            raise DomainError(f"rho must be in (1/2, 1], got {self.rho}")


def make_instance(n: int, k: int, items) -> Instance:
    """Build a canonical (sorted) instance, validating range and cardinality."""
    if n < 1 or k < 1:
        raise DomainError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    items = list(items)
    if any(int(v) != v for v in items):
        raise DomainError(f"items must be integers, got {items}")
    items = sorted(int(v) for v in items)
    if len(items) != k:
        raise DomainError(f"expected {k} items, got {len(items)}")
    if items[0] < 1 or items[-1] > n:
        raise DomainError(f"items must lie in [1, {n}]: {items}")
    return Instance(n=n, k=k, items=tuple(items))


def check_int64_range(n: int) -> None:
    """Reject n >= 2^63: numpy draws instance values as int64."""
    if n >= 2**63:
        raise DomainError(f"random instances need a range below 2^63, got {n}")


def sample_instance(n: int, k: int, mode: str, seed: int) -> Instance:
    """Sample a random instance: k i.i.d. uniform values, or a uniform k-subset."""
    check_int64_range(n)
    rng = np.random.Generator(np.random.PCG64(seed))
    if mode == "with-replacement":
        items = rng.integers(1, n + 1, size=k)
    elif mode == "distinct":
        if k > n:
            raise DomainError(f"distinct sampling needs k <= n, got k={k}, n={n}")
        items = rng.choice(n, size=k, replace=False) + 1
    else:
        raise DomainError(f"unknown sampling mode {mode!r}")
    return make_instance(n, k, items.tolist())


def leq_probability(k_pos: int, k: int, rho: float = 1.0) -> float:
    """Pr[LEQ response] for a value with true k-position k_pos under noise rho."""
    p = k_pos / k
    return rho * p + (1.0 - rho) * (1.0 - p)


def k_position_true(instance: Instance, y: int) -> int:
    """Number of hidden elements <= y, counted with multiplicity. y in [0, n]."""
    if not (0 <= y <= instance.n):
        raise DomainError(f"y must be in [0, {instance.n}], got {y}")
    return bisect_right(instance.items, y)


@dataclass
class Oracle:
    """Seeded, query-counting simulator of the comparison protocol.

    Single-owner mutable state: one oracle per walk/trial, never shared
    across threads. Identical (instance, noise, seed) reproduce identical
    responses for an identical query sequence.
    """

    instance: Instance
    noise: NoiseModel = field(default_factory=NoiseModel)
    seed: int = 0

    def __post_init__(self):
        self._rng = np.random.Generator(np.random.PCG64(self.seed))
        self.query_count = 0
        self.n, self.k = self.instance.n, self.instance.k

    def query_batch(self, y: int, m: int) -> int:
        """Perform m independent queries of y; returns the number of LEQ answers.

        The answers are the same stream as m calls of ``query(y)``, counted
        CHUNK at a time in O(CHUNK) memory.
        """
        m = operator.index(m)
        if m < 0:
            raise DomainError(f"m must be >= 0, got {m}")
        if not (1 <= y <= self.n):
            raise DomainError(f"y must be in [1, {self.n}], got {y}")
        p = leq_probability(k_position_true(self.instance, y), self.k, self.noise.rho)
        self.query_count += m
        x = 0
        for start in range(0, m, CHUNK):
            x += int(np.count_nonzero(self._rng.random(min(CHUNK, m - start)) < p))
        return x

    def query(self, y: int) -> Response:
        return Response.LEQ if self.query_batch(y, 1) else Response.GT


def check_oracle_shape(oracle: Oracle, n: int, k: int) -> None:
    """Raise DomainError unless a solver's (n, k) is the oracle's own."""
    if (n, k) != (oracle.n, oracle.k):
        raise DomainError(f"(n, k) = ({n}, {k}) disagrees with the oracle's "
                          f"({oracle.n}, {oracle.k})")


def collect_transcript(oracle: Oracle, ys) -> Transcript:
    """Query each y in order and return the (y, response) transcript."""
    return [(y, oracle.query(y)) for y in ys]
