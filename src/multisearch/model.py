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
answers), ``query_rows`` (rows of such batches for a few values, drawn
row after row: a walker's block of leaf-chain steps it is sure to take)
and ``query``. Each answer is the next double of the oracle's generator,
drawn in place in chunks of at most ``DRAW_BUFFER``, so the generator stands
exactly ``query_count`` doubles past its seed. ``Oracle.instance`` and the
ground-truth helper ``k_position_true`` are for the harness and tests only.
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

# an oracle draws its answers in place into one buffer of this many doubles
# (64 KiB), so an estimate's memory stays in cache whatever its query budget
DRAW_BUFFER = 1 << 13

# query_rows draws and counts whole segments with one 2-D compare when at
# least this many fit in the buffer: the 2-D count costs about 3x per double what
# the 1-D count does, but saves a Python call per segment; measured on a
# 2-core x86-64 box, the two meet near 1,700 doubles a segment
ROWS_2D = 5


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


def _integral(values: list, what: str) -> list[int]:
    """The values as ints; DomainError unless each is integral (2.0 is, 2.5 is not).

    Booleans are not integers here, although ``True == 1``.
    """
    if any(isinstance(v, (bool, np.bool_)) for v in values):
        raise DomainError(f"{what} must be integers, got {values}")
    try:
        ints = [int(v) for v in values]
    except (OverflowError, ValueError) as exc:  # inf, nan
        raise DomainError(f"{what} must be integers, got {values}") from exc
    if ints != values:
        raise DomainError(f"{what} must be integers, got {values}")
    return ints


def make_instance(n: int, k: int, items) -> Instance:
    """Build a canonical (sorted) instance, validating range and cardinality."""
    n, k = _integral([n, k], "n and k")
    check_n_k(n, k)
    items = sorted(_integral(list(items), "items"))
    if len(items) != k:
        raise DomainError(f"expected {k} items, got {len(items)}")
    if items[0] < 1 or items[-1] > n:
        raise DomainError(f"items must lie in [1, {n}]: {items}")
    return Instance(n=n, k=k, items=tuple(items))


def check_n_k(n: int, k: int) -> None:
    """Reject n < 1 or k < 1: an instance is k >= 1 values in [1, n]."""
    if n < 1 or k < 1:
        raise DomainError(f"need n >= 1 and k >= 1, got n={n}, k={k}")


def check_int64_range(n: int) -> None:
    """Reject n >= 2^63: numpy draws instance values as int64."""
    if n >= 2**63:
        raise DomainError(f"random instances need a range below 2^63, got {n}")


def sample_instance(n: int, k: int, mode: str, seed: int) -> Instance:
    """Sample a random instance: k i.i.d. uniform values, or a uniform k-subset."""
    check_n_k(n, k)
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
        # scratch for drawn doubles; nothing in it outlives a call
        self._buf = np.empty(DRAW_BUFFER)

    def query_batch(self, y: int, m: int) -> int:
        """Perform m independent queries of y; returns the number of LEQ answers.

        The answers are the same stream as m calls of ``query(y)``. They are
        drawn in place into a buffer of DRAW_BUFFER doubles, a chunk at a
        time, and counted, so the memory is O(DRAW_BUFFER) whatever m is.
        y and m are checked before anything is drawn; a bool is not taken
        as an integer.
        """
        (y,), m, _ = self._charge([y], m, 1)
        return self._count(self._leq_probability(y), m)

    def query_rows(self, ys, m: int, rows: int) -> np.ndarray:
        """``rows`` rows of ``query_batch(y, m)`` for each y in ``ys``.

        Returns the LEQ counts as an int64 array of shape (rows, len(ys)).
        The answers are the same stream as those query_batch calls made
        row after row, and ``rows * len(ys) * m`` queries are charged.
        Every y, m and rows is checked before anything is drawn; a bool
        is not taken as an integer. Where ROWS_2D batches fit in the buffer,
        as many whole batches as fit are drawn and counted at a time. The
        memory is O(DRAW_BUFFER + rows * len(ys)).
        """
        ys, m, rows = self._charge(list(ys), m, rows)
        # segment i of the stream is m answers at probability ps[i]
        ps = np.tile([self._leq_probability(y) for y in ys], rows)
        if not 0 < m * ROWS_2D <= DRAW_BUFFER:
            return np.array([self._count(p, m) for p in ps], dtype=np.int64).reshape(rows, len(ys))
        counts = np.empty(len(ps), dtype=np.int64)
        per_draw = DRAW_BUFFER // m
        for i in range(0, len(ps), per_draw):
            seg = ps[i:i + per_draw]
            drawn = self._buf[:len(seg) * m]
            self._rng.random(out=drawn)
            counts[i:i + len(seg)] = (drawn.reshape(len(seg), m) < seg[:, None]).sum(axis=1)
        return counts.reshape(rows, len(ys))

    def _charge(self, ys: list, m: int, rows: int) -> tuple[list[int], int, int]:
        """ys, m and rows as ints, once checked; then charges their queries.

        A bool or float raises TypeError, a y outside [1, n] or a negative
        m or rows DomainError, and a rejected call charges nothing."""
        if any(type(v) is bool for v in (*ys, m, rows)):
            raise TypeError(f"y, m and rows must be integers, got {ys!r}, {m!r}, {rows!r}")
        ys = [operator.index(y) for y in ys]
        m, rows = operator.index(m), operator.index(rows)
        if m < 0 or rows < 0:
            raise DomainError(f"m and rows must be >= 0, got {m}, {rows}")
        if not all(1 <= y <= self.n for y in ys):
            raise DomainError(f"y must be in [1, {self.n}], got {ys}")
        self.query_count += rows * len(ys) * m
        return ys, m, rows

    def _leq_probability(self, y: int) -> float:
        return leq_probability(bisect_right(self.instance.items, y), self.k, self.noise.rho)

    def _count(self, p: float, m: int) -> int:
        """LEQ answers among the next m draws at probability p; uncharged."""
        x = 0
        while m:
            drawn = self._buf[:min(m, DRAW_BUFFER)]
            self._rng.random(out=drawn)
            x += int(np.count_nonzero(drawn < p))
            m -= len(drawn)
        return x

    def query(self, y: int) -> Response:
        return Response.LEQ if self.query_batch(y, 1) else Response.GT


def check_oracle_shape(oracle: Oracle, n: int, k: int) -> None:
    """TypeError unless a solver's n and k are ints, DomainError unless the oracle's."""
    if type(n) is bool or type(k) is bool:
        raise TypeError(f"n and k must be integers, got {n!r}, {k!r}")
    if (operator.index(n), operator.index(k)) != (oracle.n, oracle.k):
        raise DomainError(f"(n, k) = ({n}, {k}) disagrees with the oracle's "
                          f"({oracle.n}, {oracle.k})")


def collect_transcript(oracle: Oracle, ys) -> Transcript:
    """Query each y in order and return the (y, response) transcript."""
    return [(y, oracle.query(y)) for y in ys]
