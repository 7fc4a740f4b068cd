"""Self-test of the benchmark on tiny inputs; takes seconds.

    python3 perfbench/selftest.py

Checks the result line's schema, that every printed metric is declared
in BENCHMARK.json (and every declared one printed), and that a trial
whose solver returns a wrong multiset is counted as failed.
Exits with 1 on the first check that does not hold.
"""

from __future__ import annotations

import json
import numbers
import sys

import run

sys.path.insert(0, str(run.SRC))
import child  # noqa: E402  (needs the package's source on the path)
from workloads import Workload  # noqa: E402

TINY_WALKER = Workload("tiny_walker", "walker", 64, 4, "cluster", 0.1, "1")
TINY_DENSE = Workload("tiny_dense", "dense", 4, 16, "uniform", 0.1, "0.9", dense_c=2)


def expect(condition: bool, what: str):
    if not condition:
        print(f"selftest failed: {what}", file=sys.stderr)
        sys.exit(1)


def check_result(result: dict, declared: dict, label: str):
    """The result line's keys and types, and its metrics against ``declared``."""
    line = json.loads(json.dumps(result))
    expect(set(line) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {set(line)}")
    expect(line["correct"] is True, f"{label}: correct is {line['correct']}")
    expect(isinstance(line["attempted"], int) and line["attempted"] >= 1,
           f"{label}: attempted {line['attempted']}")
    expect(line["failed"] == 0, f"{label}: {line['failed']} trials failed")
    printed, wanted = set(line["metrics"]), set(declared)
    expect(printed <= wanted, f"{label}: undeclared metrics {sorted(printed - wanted)}")
    expect(wanted <= printed, f"{label}: missing metrics {sorted(wanted - printed)}")
    for name, metric in line["metrics"].items():
        expect(set(metric) == {"value", "unit"}, f"{label}: {name} keys {set(metric)}")
        expect(isinstance(metric["value"], numbers.Real) and not isinstance(metric["value"], bool),
               f"{label}: {name} value {metric['value']!r}")
        expect(metric["unit"] == declared[name],
               f"{label}: {name} unit {metric['unit']}, declared {declared[name]}")


def wrong_multiset(w, oracle):
    report = child.solve(w, oracle)
    report.recovered[-1] = report.recovered[-1] % w.n + 1
    return report


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    result, _ = run.benchmark(TINY_WALKER, seed=5, seconds=0.3, trace=0, setup_probes=0)
    check_result(result, e2e, "--trace 0")
    result, _ = run.benchmark(TINY_DENSE, seed=5, seconds=0.3, trace=1)
    check_result(result, layers, "--trace 1")

    rows = child.run_trials(TINY_WALKER, child.trial_inputs(TINY_WALKER, 5), count=4,
                            solver=wrong_multiset)
    expect(run.tally(rows) == (4, 4), f"wrong multisets tallied as {run.tally(rows)}")
    expect(all("recovered multiset" in r["errors"][0] for r in rows), "wrong error message")
    rows = child.run_trials(TINY_WALKER, child.trial_inputs(TINY_WALKER, 5), count=4)
    expect(run.tally(rows) == (4, 0), f"correct trials tallied as {run.tally(rows)}")
    print("selftest passed")


if __name__ == "__main__":
    main()
