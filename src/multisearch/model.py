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
query interface: ``n``, ``k``, ``noise.rho``, ``query_count`` and
``query_rows`` (rows of m-query batches for a few values, drawn row after
row: a walk step's endpoint checks, or a block of leaf-chain steps the
walk is sure to take), the one path that checks, charges, draws and
counts, and its view ``query_batch`` (m queries of one value). An answer
is read only as a count: the number of LEQ answers in a batch. Every
query is charged. A batch whose LEQ probability is 0 or 1 (at rho = 1, y
below the least item or at or above the greatest) is certain: it is
counted 0 or m and draws nothing. Every other answer is the next double
of the oracle's generator, so the generator stands exactly as many
doubles past its seed as the uncertain queries it has answered. Doubles
are drawn in place into one scratch of ``DRAW_BUFFER`` doubles per
thread, however many oracles are alive. A call of more than one batch of
at most ``MAX_2D_BATCH`` queries draws as many whole batches at a time
as fit and counts them with one 2-D compare; every other batch is drawn
alone and counted with one ``count_nonzero``, a scratch at a time if it
is larger than the scratch. ``Oracle.instance`` and the
ground-truth helper ``k_position_true`` are for the harness and tests only.
Each argument rule is stated once, here, and returns the value it
accepted: ``as_int`` (every integer), ``check_seed``, ``check_n_k``,
``check_rho`` and ``check_delta``; beside them, ``ceil_log2``, the one
least-index search ``least``, and ``check_plan`` on a solve's plan. The
generators' int64 rule is in ``instances``. ``generator`` is the one place
a seed becomes a PCG64 generator.
"""

from __future__ import annotations

import json
import math
import operator
import threading
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .seeds import MASK64


class DomainError(ValueError):
    """An argument violated a documented precondition."""


class CapacityError(RuntimeError):
    """A brute-force oracle was asked for more work than its guard allows."""


# each thread draws its oracles' answers in place into one scratch of this
# many doubles (512 KiB), however many oracles are alive; nothing in it
# outlives a call
DRAW_BUFFER = 1 << 16

# a call of more than one batch of at most this many queries is drawn as
# many whole batches at a time as fit and counted with one 2-D compare,
# any other batch is drawn and counted alone: the 2-D count costs more per
# double but saves a Python call per batch. On a 2-core x86-64 box, over
# full draws, 2-D took 0.72-0.95x the time of batch-alone from 1,200 to
# 3,200 doubles a batch and 0.97-1.06x from 4,000 to 8,192, each reading
# spread widely, so the crossover is not resolved; no benchmark workload's
# batch size lies between 640 and 3,200, so none depends on where in that
# span the bound sits
MAX_2D_BATCH = 2000


class _Scratch(threading.local):
    """A thread's draw scratch: the importing thread's is made at import, any
    other's on its first draw."""

    def __init__(self):
        self.buf = np.empty(DRAW_BUFFER)


_scratch = _Scratch()

# the most queries a solve may plan: 2^40 doubles take about 48 minutes at
# 2.6 ns each, over 7,000x the largest plan the tests or the benchmark run
MAX_QUERIES = 1 << 40


@dataclass(frozen=True)
class Instance:
    """Hidden multiset of ``k`` integers in [1, n], stored sorted as ints.

    It checks itself: n and k by ``check_n_k``, each item by ``as_int``."""

    n: int
    k: int
    items: tuple[int, ...]

    def __post_init__(self):
        n, k = check_n_k(self.n, self.k)
        items = sorted(as_int(v, "item", 1) for v in self.items)
        if len(items) != k:
            raise DomainError(f"expected {k} items, got {len(items)}")
        if items[-1] > n:
            raise DomainError(f"items must lie in [1, {n}]: {items}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "items", tuple(items))

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "k": self.k, "items": list(self.items)})

    @classmethod
    def from_json(cls, text: str) -> "Instance":
        """The instance of a ``to_json`` text; an integral float such as 12.0 reads as 12."""
        obj = json.loads(text, parse_float=lambda s: int(x) if (x := float(s)).is_integer() else x)
        return cls(obj["n"], obj["k"], obj["items"])


# the generators' name for the record, which checks itself
make_instance = Instance


@dataclass(frozen=True)
class NoiseModel:
    """Per-query comparison correctness rho = 1/2 + gamma; rho=1 is noiseless."""

    rho: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "rho", check_rho(self.rho))


def as_int(value, name: str, low: int = 0) -> int:
    """value as an int; TypeError for a bool or non-integer (2.0 too), DomainError below low."""
    if type(value) is bool or not hasattr(value, "__index__"):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    value = operator.index(value)
    if value < low:
        raise DomainError(f"{name} must be >= {low}, got {value} ({name}={value})")
    return value


def ceil_log2(n: int) -> int:
    """ceil(log2 n) via bit length; 0 for n = 1."""
    return (as_int(n, "n", 1) - 1).bit_length()


def least(lo: int, hi: int, holds) -> int:
    """The least v in [lo, hi) where the monotone ``holds(v)`` is true, or hi.

    An explicit bisection: C bisect takes Py_ssize_t bounds, and m or n may not fit."""
    while lo < hi:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def check_plan(queries: int, solver: str, **params) -> None:
    """DomainError, naming the solver and its parameters, when its
    worst-case plan of ``queries`` exceeds MAX_QUERIES."""
    if queries > MAX_QUERIES:
        named = ", ".join(f"{name}={value}" for name, value in params.items())
        raise DomainError(f"{solver} plans up to 2^{math.log2(queries):.1f} queries at "
                          f"{named}, more than the cap of 2^{MAX_QUERIES.bit_length() - 1}")


def check_seed(seed) -> int:
    """seed as an int by ``as_int``; DomainError unless it lies in [0, 2^64)."""
    seed = as_int(seed, "seed")
    if seed > MASK64:
        raise DomainError(f"seed must be in [0, 2^64), got {seed}")
    return seed


def generator(seed) -> np.random.Generator:
    """The PCG64 generator of a seed checked by ``check_seed``; the only one built."""
    return np.random.Generator(np.random.PCG64(check_seed(seed)))


def check_rho(rho: float) -> float:
    """rho once checked, as a double: a comparison is right with probability
    in (1/2, 1].

    rho means the binary value of that double, a/d = ``rho.as_integer_ratio()``,
    not the decimal it was written as: 0.9 is 0.90000000000000002220... The
    thresholds and budgets of ``kposition`` are exact on it, in integers."""
    if isinstance(rho, (bool, np.bool_)):
        raise TypeError(f"rho must be a probability, got {rho!r}")
    if not 0.5 < rho <= 1.0:
        raise DomainError(f"rho must be in (1/2, 1], got {rho}")
    return float(rho)


def check_delta(delta: float) -> float:
    """delta once checked: a failure target lies in (0, 1)."""
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must be in (0, 1), got {delta}")
    return delta


def check_n_k(n: int, k: int) -> tuple[int, int]:
    """(n, k) as ints: an instance is k >= 1 values in [1, n]."""
    return as_int(n, "n", 1), as_int(k, "k", 1)


def leq_probability(k_pos: int, k: int, rho: float = 1.0) -> float:
    """Pr[LEQ response] for a value with true k-position k_pos under noise rho."""
    p = k_pos / k
    return rho * p + (1.0 - rho) * (1.0 - p)


def k_position_true(instance: Instance, y: int) -> int:
    """Number of hidden elements <= y, counted with multiplicity. y in [0, n]."""
    y = as_int(y, "y")
    if y > instance.n:
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
        if not isinstance(self.instance, Instance):
            raise TypeError(f"instance must be an Instance, got {self.instance!r}")
        if not isinstance(self.noise, NoiseModel):
            raise TypeError(f"noise must be a NoiseModel, got {self.noise!r}")
        self.seed = check_seed(self.seed)
        self._rng = generator(self.seed)
        self.query_count = 0
        self.n, self.k = self.instance.n, self.instance.k

    def query_batch(self, y: int, m: int) -> int:
        """Perform m independent queries of y; returns the number of LEQ answers.

        ``query_rows([y], m, 1)`` read as an int: the same checks, charge
        and stream.
        """
        return self.query_rows([y], m, 1).item()

    def query_rows(self, ys, m: int, rows: int) -> np.ndarray:
        """``rows`` rows of m queries of each y in ``ys``: the one query path.

        Returns the LEQ counts as an int64 array of shape (rows, len(ys)).
        Every y, m and rows is checked before anything is drawn: a bool or
        float raises TypeError, a y outside [1, n] or a negative m or rows
        DomainError, and a rejected call charges nothing. Then
        ``rows * len(ys) * m`` queries are charged, and the batches whose
        answers are not certain are drawn, batch after batch and row after
        row, as the module docstring states. Beyond the thread's scratch
        the memory is O(DRAW_BUFFER + rows * len(ys)).
        """
        ys = [as_int(y, "y", 1) for y in ys]
        m, rows = as_int(m, "m"), as_int(rows, "rows")
        if any(y > self.n for y in ys):
            raise DomainError(f"y must be in [1, {self.n}], got {ys}")
        self.query_count += rows * len(ys) * m
        items, k, rho = self.instance.items, self.k, self.noise.rho
        ps = [leq_probability(bisect_right(items, y), k, rho) for y in ys]
        # a batch of probability 0 or 1 is certain: it is counted 0 or m, not drawn;
        # drawn batch i of the stream is m answers at probability drawn_ps[i]
        drawn_ps = [p for p in ps if 0.0 < p < 1.0] * rows
        xs, buf = np.empty(len(drawn_ps), dtype=np.int64), _scratch.buf
        if m <= MAX_2D_BATCH and len(drawn_ps) > 1:
            drawn_ps, per_draw = np.array(drawn_ps), DRAW_BUFFER // max(m, 1)
            for i in range(0, len(drawn_ps), per_draw):
                seg = drawn_ps[i:i + per_draw]
                drawn = buf[:len(seg) * m].reshape(len(seg), m)
                self._rng.random(out=drawn)
                (drawn < seg[:, None]).sum(axis=1, out=xs[i:i + len(seg)])
        else:
            for i, p in enumerate(drawn_ps):
                x, left = 0, m
                while left:
                    drawn = buf[:min(left, DRAW_BUFFER)]
                    self._rng.random(out=drawn)
                    x += int(np.count_nonzero(drawn < p))
                    left -= len(drawn)
                xs[i] = x
        if len(drawn_ps) == rows * len(ys):
            return xs.reshape(rows, len(ys))
        counts = np.empty((rows, len(ys)), dtype=np.int64)
        counts[:] = [m if p == 1.0 else 0 for p in ps]
        counts[:, [j for j, p in enumerate(ps) if 0.0 < p < 1.0]] = xs.reshape(rows, -1)
        return counts


def check_oracle_shape(oracle: Oracle, n: int, k: int) -> tuple[int, int]:
    """A solver's (n, k) by ``check_n_k``; DomainError unless they are the oracle's own."""
    if check_n_k(n, k) != (oracle.n, oracle.k):
        raise DomainError(f"(n, k) = ({n}, {k}) disagrees with the oracle's "
                          f"({oracle.n}, {oracle.k})")
    return oracle.n, oracle.k
