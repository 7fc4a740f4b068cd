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

``walk_step`` states one step for every node. ``find_tth`` calls it for
tree nodes and takes the chain steps, nearly all of a walk's steps, itself:
there both endpoint checks read one LEQ count against one threshold
(``kposition.count_threshold``), with the same queries in the same order
as ``walk_step``. It takes them in guaranteed-step blocks
(``chain_block``): steps that can neither bring the walk back to its tree
node nor meet the stop, whatever their answers, so a step-by-step walk
takes every one of them. One ``Oracle.query_rows`` call draws a block's
answers, and none past it. So a walk's queries are a prefix of those of
m ``walk_step`` calls on the same oracle, and its value is theirs.

Because single estimates err with probability < 0.3 per step while the
correct direction is taken with probability > 0.7, the walk drifts toward
the correct leaf chain and its endpoint failure probability decays as
exp(-m/35).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional

from .kposition import count_threshold, estimate_k_position, queries_for_confidence
from .model import DomainError, Oracle, check_oracle_shape
from .reports import SolverReport

# Per-step endpoint checks use budget for failure prob 1/8 each (8k^2 at
# rho=1); the midpoint descent uses failure prob 1/16 (10k^2 at rho=1).
STEP1_DELTA = 1.0 / 8.0
STEP2_DELTA = 1.0 / 16.0


@dataclass(frozen=True)
class WalkNode:
    """Interval [a, b]; chain_depth > 0 means this many steps down a leaf chain."""

    a: int
    b: int
    chain_depth: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.a == self.b


@dataclass(frozen=True)
class WalkConfig:
    """Walk length m >= 0 plus per-step query budgets >= 1, all integers."""

    m: int
    step1_m: int
    step2_m: int

    def __post_init__(self):
        if any(type(v) is bool for v in (self.m, self.step1_m, self.step2_m)):
            raise TypeError(f"walk length and budgets must be integers, got {self}")
        m, step1_m, step2_m = map(operator.index, (self.m, self.step1_m, self.step2_m))
        if m < 0 or min(step1_m, step2_m) < 1:
            raise DomainError(f"need m >= 0 and step budgets >= 1, got {self}")

    @classmethod
    def for_problem(cls, n: int, k: int, delta: float, rho: float = 1.0) -> "WalkConfig":
        return cls(
            m=choose_walk_length(n, delta),
            step1_m=queries_for_confidence(k, STEP1_DELTA, rho),
            step2_m=queries_for_confidence(k, STEP2_DELTA, rho),
        )


def ceil_log2(n: int) -> int:
    """ceil(log2 n) via bit length; 0 for n = 1."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return (n - 1).bit_length()


def choose_walk_length(n: int, delta: float) -> int:
    """Walk length 70*ceil(log2 n), or 70*ceil(log2(1/delta)) when delta < 1/n."""
    if not (0.0 < delta < 1.0):
        raise DomainError(f"delta must be in (0, 1), got {delta}")
    bits = max(1, ceil_log2(n))  # DomainError for n < 1
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
    """Tree parent of a non-root tree node, found by descent from the root."""
    cur = WalkNode(1, n)
    while True:
        left, right = children(cur)
        nxt = left if node.b <= left.b else right
        if nxt.a == node.a and nxt.b == node.b:
            return cur
        cur = nxt


def walk_step(oracle: Oracle, node: WalkNode, t: int, cfg: WalkConfig) -> WalkNode:
    """One walk step: membership check, then backtrack or descend."""
    n = oracle.n
    ka = estimate_k_position(oracle, node.a - 1, cfg.step1_m).k_pos
    kb = estimate_k_position(oracle, node.b, cfg.step1_m).k_pos
    if not (ka <= t - 1 and kb >= t):
        # backtrack one edge; the root self-loops (consumes the step)
        if node.chain_depth > 0:
            return WalkNode(node.a, node.b, node.chain_depth - 1)
        if node.a == 1 and node.b == n:
            return node
        return parent_of(node, n)
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
    return the leaf value, or None on failure."""
    n, k = oracle.n, oracle.k
    if type(t) is bool:
        raise TypeError(f"t must be an integer, got {t!r}")
    if not (1 <= operator.index(t) <= k):
        raise DomainError(f"t must be in [1, {k}], got {t}")
    # on a chain node [a, a] walk_step's checks ka <= t - 1 and kb >= t
    # are x_a < x_t and x_b >= x_t, drawn in that order; a forced end
    # (a = 1 or a = n) holds its check and costs no queries
    m1, x_t = cfg.step1_m, count_threshold(t, cfg.step1_m, k, oracle.noise.rho)
    # node is a tree node; depth > 0 means that many steps down its chain
    node, depth = WalkNode(1, n), 0
    # left counts the steps still to take
    left = cfg.m
    while left:
        if not depth:
            node = walk_step(oracle, node, t, cfg)
            node, depth = WalkNode(node.a, node.b), node.chain_depth
            left -= 1
            continue
        if depth >= left:
            # leaving the leaf takes depth + 1 backtracks, more than the
            # steps left: the full walk ends on this leaf's chain
            break
        # the next b chain steps are all taken: one call draws their
        # unforced checks, row by row; a step goes down when both hold
        a, b = node.a, chain_block(depth, left)
        ys = [y for y in (a - 1, a) if 0 < y < n]
        down = ((oracle.query_rows(ys, m1, b) >= x_t) == [y == a for y in ys]).all(axis=1)
        depth += 2 * int(down.sum()) - b
        left -= b
    return node.a if node.is_leaf else None


def solve_walker(oracle: Oracle, n: int, k: int, delta: float) -> SolverReport:
    """Recover all k hidden elements by k independent random walks.

    The query-complexity guarantee is stated for k <= n; the walk itself
    runs for any k >= 1 (for n = 1 it trivially parks on the only leaf).
    """
    check_oracle_shape(oracle, n, k)
    cfg = WalkConfig.for_problem(n, k, delta, oracle.noise.rho)
    return SolverReport.of_values(oracle, (find_tth(oracle, t, cfg) for t in range(1, k + 1)))
