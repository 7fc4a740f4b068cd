"""Random-walk solver: finds the t-th smallest hidden element for each t.

The search space is an implicit binary tree over [1, n] (children of
[a, b] are [a, u] and [u+1, b] with u = floor((a+b)/2)) extended with a
chain of length m' = m + 1 below every leaf, where m is the walk length.
Each step first checks, via endpoint k-position estimates, whether the
t-th element lies in the current interval; on failure it backtracks one
edge, and on success it descends using a midpoint estimate (or moves one
node further down a leaf chain). After m steps the walk either sits on a
leaf/chain node (output its value) or has failed. The walk stops as soon
as its value is decided: once its chain depth is at least the number of
steps left, it cannot climb off its leaf, so the remaining steps are not
taken.

``find_tth`` takes every step itself, as LEQ counts against two per-walk
thresholds (``kposition.count_threshold``): X1 at the endpoint budget and
X2 at the midpoint budget. A node's membership holds when the count of
a - 1 is below X1 and the count of b is at least X1; a forced end (a = 1
or b = n) holds its check and costs no queries, so the root always holds.
A tree node that holds descends right when the midpoint's count is below
X2; one that fails pops the walk's path of tree nodes. Chain steps are
taken in guaranteed-step blocks (``chain_block``): steps that can neither
bring the walk back to its tree node nor meet the stop, whatever their
answers, so a step-by-step walk takes every one of them. One
``query_rows`` call draws a node's endpoint counts, a block's rows at a
time, and none past it. ``walk_step`` states one step on k-position
estimates; it is the reference: a walk asks its queries in its order, so
they are a prefix of those of m ``walk_step`` calls on the same oracle,
and its value is theirs. The walk length reads ``model.ceil_log2``.

``solve_walker`` runs its k walks over one count pool, each reading it
through its own ``PoolView``; README's "Notes on accounting" states the
pool's rule, its law and its memory bound.

Because single estimates err with probability < 0.3 per step while the
correct direction is taken with probability > 0.7, the walk drifts toward
the correct leaf chain and its endpoint failure probability decays as
exp(-m/35).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kposition import count_threshold, estimate_k_position, queries_for_confidence
from .model import (DomainError, Oracle, as_int, ceil_log2, check_delta, check_oracle_shape,
                    check_plan)
from .reports import SolverReport

# Per-step endpoint checks use budget for failure prob 1/8 each (8k^2 at
# rho=1); the midpoint descent uses failure prob 1/16 (10k^2 at rho=1).
STEP1_DELTA = 1.0 / 8.0
STEP2_DELTA = 1.0 / 16.0


@dataclass(frozen=True)
class WalkNode:
    """Interval [a, b], 1 <= a <= b; chain_depth > 0 means this many steps
    down a leaf chain. It checks itself, by ``as_int``, and stores ints."""

    a: int
    b: int
    chain_depth: int = 0

    def __post_init__(self):
        a, b = as_int(self.a, "a", 1), as_int(self.b, "b", 1)
        if a > b:
            raise DomainError(f"a node needs a <= b, got [{a}, {b}]")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "chain_depth", as_int(self.chain_depth, "chain_depth"))

    @property
    def is_leaf(self) -> bool:
        return self.a == self.b


@dataclass(frozen=True)
class WalkConfig:
    """Walk length m >= 0 plus per-step query budgets >= 1, stored as ints."""

    m: int
    step1_m: int
    step2_m: int

    def __post_init__(self):
        object.__setattr__(self, "m", as_int(self.m, "m"))
        object.__setattr__(self, "step1_m", as_int(self.step1_m, "step1_m", 1))
        object.__setattr__(self, "step2_m", as_int(self.step2_m, "step2_m", 1))

    @classmethod
    def for_problem(cls, n: int, k: int, delta: float, rho: float = 1.0) -> "WalkConfig":
        return cls(
            m=choose_walk_length(n, delta),
            step1_m=queries_for_confidence(k, STEP1_DELTA, rho),
            step2_m=queries_for_confidence(k, STEP2_DELTA, rho),
        )


def choose_walk_length(n: int, delta: float) -> int:
    """Walk length 70*ceil(log2 n), or 70*ceil(log2(1/delta)) when delta < 1/n."""
    delta = check_delta(delta)
    bits = max(1, ceil_log2(n))  # TypeError or DomainError unless n is an int >= 1
    # 1 / n is correctly rounded for any int n (no float(n) overflow)
    if delta >= 1 / n:
        return 70 * bits
    return 70 * max(1, math.ceil(-math.log2(delta)))


def midpoint(node: WalkNode) -> int:
    return (node.a + node.b) // 2


def children(node: WalkNode) -> tuple[WalkNode, WalkNode]:
    """Left/right child intervals of an internal node (a < b required)."""
    if node.a >= node.b:
        raise DomainError(f"children() called on leaf [{node.a}, {node.b}]")
    u = midpoint(node)
    return WalkNode(node.a, u), WalkNode(u + 1, node.b)


def parent_of(node: WalkNode, n: int) -> WalkNode:
    """Tree parent of a non-root tree node, found by descent from the root.

    DomainError for the root, and for an interval that is not a node of
    the tree over [1, n]: the descent reaches a leaf without meeting it."""
    if (node.a, node.b) == (1, n):
        raise DomainError(f"the root [1, {n}] has no parent")
    cur = WalkNode(1, n)
    while not cur.is_leaf:
        left, right = children(cur)
        nxt = left if node.b <= left.b else right
        if nxt.a == node.a and nxt.b == node.b:
            return cur
        cur = nxt
    raise DomainError(f"[{node.a}, {node.b}] is not a node of the tree over [1, {n}]")


def walk_step(oracle: Oracle, node: WalkNode, t: int, cfg: WalkConfig) -> WalkNode:
    """One walk step for t in [1, k]: membership check, then backtrack or descend.

    At the root both ends are forced and the check holds."""
    ka = estimate_k_position(oracle, node.a - 1, cfg.step1_m).k_pos
    kb = estimate_k_position(oracle, node.b, cfg.step1_m).k_pos
    if not (ka <= t - 1 and kb >= t):
        # backtrack one edge
        if node.chain_depth > 0:
            return WalkNode(node.a, node.b, node.chain_depth - 1)
        return parent_of(node, oracle.n)
    if node.a < node.b:
        ku = estimate_k_position(oracle, midpoint(node), cfg.step2_m).k_pos
        left, right = children(node)
        return right if ku <= t - 1 else left
    # leaf or chain node: there is no midpoint to estimate, so the step
    # costs only its two endpoint checks and moves one node down the chain
    return WalkNode(node.a, node.b, node.chain_depth + 1)


def chain_block(depth: int, left: int) -> int:
    """Chain steps a walk at chain depth ``depth`` >= 1, with ``left`` > depth
    steps to go, is sure to take whatever their answers.

    Each step moves the depth by one. Within the block no step starts at
    depth 0, where the next step is a tree step, or at a depth of at least
    the steps left, where the walk stops.
    """
    return min(depth, (left - depth + 1) // 2)


def find_tth(oracle: Oracle, t: int, cfg: WalkConfig) -> Optional[int]:
    """Walk cfg.m steps from the root, or until the value is decided;
    return the leaf value, or None on failure. Of ``oracle`` it reads
    ``n``, ``k``, ``noise`` and ``query_rows``."""
    if not isinstance(cfg, WalkConfig):
        raise TypeError(f"cfg must be a WalkConfig, got {cfg!r}")
    n, k, rho = oracle.n, oracle.k, oracle.noise.rho
    t = as_int(t, "t", 1)
    if t > k:
        raise DomainError(f"t must be in [1, {k}], got {t}")
    # walk_step's checks k_pos <= t - 1 and k_pos >= t, as counts
    m1, x1 = cfg.step1_m, count_threshold(t, cfg.step1_m, k, rho)
    m2, x2 = cfg.step2_m, count_threshold(t, cfg.step2_m, k, rho)
    # tree nodes from the root; depth > 0 means that many steps down the
    # last one's chain; left counts the steps still to take
    path, depth, left = [(1, n)], 0, cfg.m
    # at depth >= left, leaving the leaf takes depth + 1 backtracks, more
    # than the steps left: the full walk ends on this leaf's chain
    while left > depth:
        a, b = path[-1]
        # a chain draws a block of steps it is sure to take, row by row
        rows = chain_block(depth, left) if depth else 1
        ys = [y for y in (a - 1, b) if 0 < y < n]
        holds = ((oracle.query_rows(ys, m1, rows) >= x1) == [y == b for y in ys]).all(axis=1)
        left -= rows
        if not (depth or holds[0]):
            # backtrack; the root never gets here, both its ends are forced
            path.pop()
        elif a == b:
            depth += 2 * int(holds.sum()) - rows
        else:
            u = (a + b) // 2
            path.append((u + 1, b) if oracle.query_rows([u], m2, 1).item() < x2 else (a, u))
    a, b = path[-1]
    return a if a == b else None


class PoolView:
    """One walk's reader of the count pool that the walks of a solve share.

    Open it when its walk starts: it reads only what was pooled before.
    The arrays it returns may be pooled: read them, never write them.
    """

    def __init__(self, oracle: Oracle, pool: dict):
        self.oracle, self.pool = oracle, pool
        self.n, self.k, self.noise = oracle.n, oracle.k, oracle.noise
        # the read cursor of each key that holds counts this view has not read
        self.unread = dict.fromkeys(pool, 0)

    def _draw(self, ys, m: int, rows: int) -> np.ndarray:
        counts = self.oracle.query_rows(ys, m, rows)
        for j, y in enumerate(ys):
            self.pool.setdefault((y, m), []).append(counts[:, j])
        return counts

    def query_rows(self, ys, m: int, rows: int) -> np.ndarray:
        keys, unread = [(y, m) for y in ys], self.unread
        if unread.keys().isdisjoint(keys):
            return self._draw(ys, m, rows)
        counts, shortfalls = np.empty((rows, len(ys)), dtype=np.int64), {}
        for j, key in enumerate(keys):
            took = 0
            if key in unread:
                columns, r = self.pool[key], unread.pop(key)
                if len(columns) > 1:
                    columns[:] = [np.concatenate(columns)]
                column = columns[0]
                took = min(rows, len(column) - r)
                counts[:took, j] = column[r:r + took]
                if r + took < len(column):
                    unread[key] = r + took
            if took < rows:
                shortfalls.setdefault(rows - took, []).append(j)
        for short, cols in shortfalls.items():
            counts[rows - short:, cols] = self._draw([ys[j] for j in cols], m, short)
        return counts


def solve_walker(oracle: Oracle, n: int, k: int, delta: float) -> SolverReport:
    """Recover all k hidden elements by k random walks over one count pool.

    A target is charged the fresh draws its walk caused. The
    query-complexity guarantee is stated for k <= n; the walk itself runs
    for any k >= 1 (for n = 1 it trivially parks on the only leaf).
    """
    n, k = check_oracle_shape(oracle, n, k)
    cfg = WalkConfig.for_problem(n, k, delta, oracle.noise.rho)
    check_plan(k * cfg.m * (2 * cfg.step1_m + cfg.step2_m), "walker",
               n=n, k=k, rho=oracle.noise.rho, delta=delta)
    pool = {}
    return SolverReport.of_values(
        oracle, (find_tth(PoolView(oracle, pool), t, cfg) for t in range(1, k + 1)))
