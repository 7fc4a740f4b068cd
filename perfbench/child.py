"""One workload in a fresh interpreter: set-up, timed trials, checks, tracing.

run.py starts this script with the package's source directory on
PYTHONPATH and reads the JSON object it prints. Trial ``i`` of master
seed ``s`` follows the package's published scheme: trial seed
``s_i = derive_seed(s, i)``, instance seed ``derive_seed(s_i, 1)``,
oracle seed ``derive_seed(s_i, 2)``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import time
from dataclasses import dataclass

from multisearch import (Instance, NoiseModel, Oracle, bin_instance,
                         cluster_instance, derive_seed, sample_instance,
                         solve_dense, solve_walker)

from tracing import Tracer
from workloads import Workload, check_trial

# trial inputs are generated this many at a time; set-up makes the first block
BLOCK = 8

GENERATORS = {
    "cluster": cluster_instance,
    "bins": bin_instance,
    "uniform": lambda n, k, seed: sample_instance(n, k, "with-replacement", seed),
}


@dataclass
class TrialInput:
    index: int
    seed: int
    instance: Instance
    oracle: Oracle
    generate_s: float     # seed derivation plus instance generation
    oracle_init_s: float


def trial_inputs(w: Workload, seed: int, start: int = 0):
    """Inputs of trials start, start+1, ... generated BLOCK at a time."""
    for first in itertools.count(start, BLOCK):
        block = []
        for i in range(first, first + BLOCK):
            t0 = time.perf_counter()
            trial_seed = derive_seed(seed, i)
            instance = GENERATORS[w.instance](w.n, w.k, derive_seed(trial_seed, 1))
            t1 = time.perf_counter()
            oracle = Oracle(instance, NoiseModel(float(w.rho)),
                            seed=derive_seed(trial_seed, 2))
            t2 = time.perf_counter()
            block.append(TrialInput(i, trial_seed, instance, oracle, t1 - t0, t2 - t1))
        yield from block


def solve(w: Workload, oracle: Oracle):
    if w.algo == "walker":
        return solve_walker(oracle, w.n, w.k, w.delta)
    return solve_dense(oracle, w.n, w.k, float(w.dense_c))


def run_trials(w: Workload, source, seconds=None, count=None, solver=solve):
    """Solve trials from ``source`` until ``seconds`` have passed or ``count`` ran.

    At least one trial runs. Only the solver call is timed.
    """
    rows = []
    deadline = None if seconds is None else time.perf_counter() + seconds
    for trial in source:
        t0 = time.perf_counter()
        report = solver(w, trial.oracle)
        elapsed = time.perf_counter() - t0
        queries = trial.oracle.query_count
        rows.append({
            "trial": trial.index,
            "seed": trial.seed,
            "queries": queries,
            "ms": elapsed * 1000.0,
            "errors": check_trial(w, trial.instance.items, report, queries),
            "output": [sorted(report.recovered), report.per_target, report.total_queries],
            "generate_us": trial.generate_s * 1e6,
            "oracle_init_us": trial.oracle_init_s * 1e6,
        })
        if len(rows) == count or (deadline is not None and time.perf_counter() >= deadline):
            return rows
    return rows


def rerun_matches(w: Workload, seed: int, row: dict) -> bool:
    """Trial ``row`` solved again from fresh inputs gives the same output."""
    again = run_trials(w, trial_inputs(w, seed, start=row["trial"]), count=1)[0]
    return (again["output"], again["queries"]) == (row["output"], row["queries"])


def layer_metrics(tracer: Tracer, rows: list) -> dict:
    """Per-layer figures of a traced run, per trial where they are totals."""
    trials = len(rows)
    per_trial = {name: tracer.calls[name] / trials for name in tracer.calls}
    self_ms = {name: tracer.self_s[name] * 1000.0 / trials for name in tracer.self_s}
    counts = tracer.counts
    queries = counts["queries"]
    steps = tracer.calls["walker.walk_step"]
    return {
        "model.query_batch.calls": per_trial.get("model.query_batch", 0.0),
        "model.query_batch.queries": queries / trials,
        "model.query_batch.self_ms": self_ms.get("model.query_batch", 0.0),
        "model.query_batch.ns_per_query":
            tracer.self_s["model.query_batch"] * 1e9 / queries if queries else 0.0,
        # one 8-byte value per query of the largest batch
        "model.query_batch.max_batch_mb": tracer.max_batch * 8 / 2**20,
        "model.oracle_init_us": statistics.median(r["oracle_init_us"] for r in rows),
        "kposition.estimate.calls": per_trial.get("kposition.estimate", 0.0),
        "kposition.estimate.forced": counts["forced"] / trials,
        "kposition.estimate.self_ms": self_ms.get("kposition.estimate", 0.0),
        "kposition.estimate.correct_ratio":
            counts["sampled_correct"] / counts["sampled"] if counts["sampled"] else 1.0,
        "walker.walk_step.calls": per_trial.get("walker.walk_step", 0.0),
        "walker.walk_step.self_ms": self_ms.get("walker.walk_step", 0.0),
        "walker.parent_of.calls": per_trial.get("walker.parent_of", 0.0),
        "walker.parent_of.self_ms": self_ms.get("walker.parent_of", 0.0),
        "walker.moves.descend": counts["descend"] / trials,
        "walker.moves.chain": counts["chain"] / trials,
        "walker.moves.backtrack": counts["backtrack"] / trials,
        "walker.queries_per_step": queries / steps if steps else 0.0,
        "dense.solve.self_ms": self_ms.get("dense.solve", 0.0),
        "dense.repair.changed": counts["repair_changed"] / trials,
        "instances.generate_us": statistics.median(r["generate_us"] for r in rows),
    }


def traced_run(w: Workload, seed: int, seconds: float) -> dict:
    """Untraced trials for half the time, then the same trials traced."""
    plain = run_trials(w, trial_inputs(w, seed), seconds=seconds / 2)
    tracer = Tracer()
    traced_solve = tracer.wrap(f"{w.algo}.solve", solve)
    with tracer.installed():
        traced = run_trials(w, trial_inputs(w, seed), count=len(plain), solver=traced_solve)
    layers = layer_metrics(tracer, traced)
    plain_ms = statistics.median(r["ms"] for r in plain)
    layers["trace.overhead_pct"] = (statistics.median(r["ms"] for r in traced)
                                    / plain_ms - 1.0) * 100.0
    return {"rows": plain + traced, "layers": layers}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, help="workload as JSON")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and report its time")
    args = parser.parse_args(argv)
    w = Workload(**json.loads(args.workload))

    if args.trace:
        out = traced_run(w, args.seed, args.seconds)
    else:
        source = trial_inputs(w, args.seed)
        first = next(source)
        setup_s = time.monotonic() - args.started
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return
        rows = run_trials(w, itertools.chain([first], source), seconds=args.seconds)
        out = {"setup_s": setup_s, "rows": rows,
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    out["rerun_identical"] = rerun_matches(w, args.seed, out["rows"][0])
    for row in out["rows"]:
        del row["output"]
    print(json.dumps(out))


if __name__ == "__main__":
    main()
