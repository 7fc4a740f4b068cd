"""Monte Carlo benchmark harness and scaling fits.

A benchmark run is fully determined by its config and master seed: trial
i derives seed_i = derive_seed(master_seed, i), the instance (when
sampled) uses derive_seed(seed_i, 1) and the oracle derive_seed(seed_i, 2).
Result rows render as CSV (fixed header) or JSON; ``elapsed_ms`` is
informational and excluded from any reproducibility contract.
"""

from __future__ import annotations

import csv
import io
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dense import solve_dense, solve_naive
from .instances import bin_instance, cluster_instance, sample_instance
from .model import DomainError, Instance, NoiseModel, Oracle, as_int, check_seed
from .seeds import derive_seed
from .walker import solve_walker

CSV_HEADER = ["trial", "seed", "n", "k", "algo", "instance",
              "queries", "success", "elapsed_ms"]

# each solver and each instance generator is named once, here
SOLVERS = {
    "walker": lambda oracle, inst, cfg: solve_walker(oracle, inst.n, inst.k, cfg.delta),
    "dense": lambda oracle, inst, cfg: solve_dense(oracle, inst.n, inst.k, cfg.dense_c),
    "naive": lambda oracle, inst, cfg: solve_naive(oracle, inst.n, inst.k, cfg.delta),
}
GENERATORS = {
    "uniform": lambda n, k, seed: sample_instance(n, k, "with-replacement", seed),
    "distinct": lambda n, k, seed: sample_instance(n, k, "distinct", seed),
    "cluster": cluster_instance,
    "bins": bin_instance,
}


class DataError(Exception):
    """An input file was missing or malformed."""


@dataclass
class ExperimentConfig:
    n: Optional[int]
    k: Optional[int]
    algo: str = "walker"
    instance: str = "uniform"
    delta: float = 0.1
    rho: float = 1.0
    trials: int = 1
    master_seed: int = 0
    dense_c: float = 1.0

    def validate(self):
        # only what the harness reads itself: each solver and generator
        # checks its own parameters (rho in NoiseModel, delta, c, n and k)
        for name, value in (("instance", self.instance), ("algo", self.algo)):
            if not isinstance(value, str):
                raise TypeError(f"{name} must be a str, got {value!r}")
        if self.instance in GENERATORS:
            if self.n is None or self.k is None:
                raise DomainError("a generated instance needs both n and k")
        elif not self.instance.startswith("file:"):
            raise DomainError(f"unknown instance kind {self.instance!r}")
        self.trials = as_int(self.trials, "trials", 1)
        self.master_seed = check_seed(self.master_seed)
        if self.algo not in SOLVERS:
            raise DomainError(f"unknown algo {self.algo!r}")


@dataclass
class ExperimentResult:
    rows: list[dict] = field(default_factory=list)
    # each trial's recovered multiset, kept beside the fixed-schema rows
    recovered: list[list[int]] = field(default_factory=list)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, CSV_HEADER, lineterminator="\n")
        writer.writeheader()
        writer.writerows({**row, "success": "true" if row["success"] else "false"}
                         for row in self.rows)
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps(self.rows, indent=2)

    @property
    def success_rate(self) -> float:
        return sum(r["success"] for r in self.rows) / len(self.rows)

    @property
    def queries(self) -> list[int]:
        return [r["queries"] for r in self.rows]


def load_instance_file(path: str) -> Instance:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read instance file {path}: {exc}") from exc
    try:
        return Instance.from_json(text)
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise DataError(f"malformed instance file {path}: {exc}") from exc


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run config.trials seeded trials; deterministic except elapsed_ms.

    A ``file:`` instance fixes n and k; config.n and config.k are unused.
    """
    config.validate()
    noise = NoiseModel(config.rho)
    if config.instance.startswith("file:"):
        fixed = load_instance_file(config.instance[len("file:"):])
        generate = lambda n, k, seed: fixed
    else:
        generate = GENERATORS[config.instance]
    solve = SOLVERS[config.algo]
    result = ExperimentResult()
    for i in range(config.trials):
        trial_seed = derive_seed(config.master_seed, i)
        inst = generate(config.n, config.k, derive_seed(trial_seed, 1))
        oracle = Oracle(inst, noise, seed=derive_seed(trial_seed, 2))
        t0 = time.perf_counter()
        report = solve(oracle, inst, config)
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        result.rows.append({
            "trial": i,
            "seed": trial_seed,
            "n": inst.n,
            "k": inst.k,
            "algo": config.algo,
            "instance": config.instance,
            "queries": oracle.query_count,
            "success": tuple(report.recovered) == inst.items,
            "elapsed_ms": round(elapsed_ms, 3),
        })
        result.recovered.append(report.recovered)
    return result


def fit_scaling(points) -> float:
    """Least-squares slope of log2(median queries per x) against log2(x)."""
    groups = defaultdict(list)
    for x, q in points:
        if not 0 < x < np.inf:  # NaN fails too
            raise DomainError(f"x values must be positive and finite, got {x}")
        if not 0 < q < np.inf:
            raise DomainError(f"query counts must be positive and finite, got {q}")
        groups[float(x)].append(q)
    if len(groups) < 3:
        raise DomainError(f"need >= 3 distinct x values, got {len(groups)}")
    xs = sorted(groups)
    log_x = np.log2(xs)
    log_q = np.log2([np.median(groups[x]) for x in xs])
    return float(np.polyfit(log_x, log_q, 1)[0])
