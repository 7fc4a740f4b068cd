"""Outside-in layer tracing: spans around the names the package's callers resolve.

``Tracer.installed()`` replaces, for the duration of a ``with`` block, the
module attributes through which one layer calls the next (for example
``multisearch.walker.estimate_k_position``). Each replacement records a
span: its self time is its duration minus the time of the spans opened
inside it. Counts gathered at the same boundaries are kept next to the
times. The tracer's own bookkeeping is charged to no span, so what it
costs shows only as the overhead of a traced run against an untraced one.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from collections import Counter
from contextlib import contextmanager

import multisearch.dense
import multisearch.model
import multisearch.walker


class Tracer:
    def __init__(self):
        self.calls = Counter()       # span name -> calls
        self.self_s = Counter()      # span name -> self time in seconds
        self.counts = Counter()      # counter name -> total
        self.max_batch = 0           # largest m passed to query_batch
        self._open = []              # child time of each open span

    def wrap(self, name, fn, after=None):
        """``fn`` inside a span; ``after(args, result)`` updates counters."""
        perf_counter = time.perf_counter
        open_spans = self._open

        def traced(*args, **kwargs):
            entered = perf_counter()
            open_spans.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                self.self_s[name] += elapsed - open_spans.pop()
                self.calls[name] += 1
            if after is not None:
                after(args, result)
            if open_spans:
                open_spans[-1] += perf_counter() - entered
            return result
        return traced

    def _after_query_batch(self, args, _result):
        m = args[2]
        self.counts["queries"] += m
        self.max_batch = max(self.max_batch, m)

    def _after_estimate(self, args, est):
        oracle, y, _m = args
        if y == 0 or y == oracle.instance.n:
            self.counts["forced"] += 1
        else:
            self.counts["sampled"] += 1
            self.counts["sampled_correct"] += est.k_pos == bisect_right(oracle.instance.items, y)

    def _after_walk_step(self, args, out):
        node = args[1]
        if out.chain_depth > node.chain_depth:
            self.counts["chain"] += 1
        elif out.chain_depth == node.chain_depth == 0 and out.b - out.a < node.b - node.a:
            self.counts["descend"] += 1
        else:
            self.counts["backtrack"] += 1

    def _after_repair(self, args, out):
        self.counts["repair_changed"] += sum(a != b for a, b in zip(args[0], out))

    @contextmanager
    def installed(self):
        """Trace the package's layer boundaries inside the block."""
        walker, dense, model = multisearch.walker, multisearch.dense, multisearch.model
        targets = [
            (model.Oracle, "query_batch", "model.query_batch", self._after_query_batch),
            (walker, "estimate_k_position", "kposition.estimate", self._after_estimate),
            (dense, "estimate_k_position", "kposition.estimate", self._after_estimate),
            (walker, "walk_step", "walker.walk_step", self._after_walk_step),
            (walker, "parent_of", "walker.parent_of", None),
            (dense, "repair_monotone", "dense.repair", self._after_repair),
        ]
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in targets]
        try:
            for (owner, attr, name, after), (_, _, original) in zip(targets, saved):
                setattr(owner, attr, self.wrap(name, original, after))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)
