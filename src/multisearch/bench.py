"""Monte Carlo benchmark harness and scaling fits.

A benchmark run is fully determined by its config and master seed: trial
i derives seed_i = derive_seed(master_seed, i), the instance (when
sampled) uses derive_seed(seed_i, 1) and the oracle derive_seed(seed_i, 2).
Result rows are written as CSV (fixed header) or JSON; ``elapsed_ms`` is
informational and excluded from any reproducibility contract.
"""

from __future__ import annotations

import csv
import io
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .dense import solve_dense, solve_naive
from .instances import bin_instance, cluster_instance
from .model import DomainError, Instance, NoiseModel, Oracle, sample_instance
from .seeds import MASK64, derive_seed
from .walker import solve_walker

CSV_HEADER = ["trial", "seed", "n", "k", "algo", "instance",
              "queries", "success", "elapsed_ms"]

ALGOS = ("walker", "dense", "naive")
INSTANCE_KINDS = ("uniform", "distinct", "cluster", "bins")


class DataError(Exception):
    """An input file was missing or malformed."""


@dataclass
class ExperimentConfig:
    n: int
    k: int
    algo: str = "walker"
    instance: str = "uniform"
    delta: float = 0.1
    rho: float = 1.0
    trials: int = 1
    master_seed: int = 0
    dense_c: float = 1.0
    faithful_chain_queries: bool = False
    out_path: str | None = None
    out_format: str = "csv"

    def validate(self):
        if self.n < 1 or self.k < 1:
            raise DomainError(f"need n >= 1 and k >= 1, got n={self.n}, k={self.k}")
        if self.trials < 1:
            raise DomainError(f"trials must be >= 1, got {self.trials}")
        if not (0 <= self.master_seed <= MASK64):
            raise DomainError(f"seed must be in [0, 2^64), got {self.master_seed}")
        if self.algo not in ALGOS:
            raise DomainError(f"unknown algo {self.algo!r}")
        if not (self.instance in INSTANCE_KINDS or self.instance.startswith("file:")):
            raise DomainError(f"unknown instance kind {self.instance!r}")
        if not (0.0 < self.delta < 1.0):
            raise DomainError(f"delta must be in (0, 1), got {self.delta}")
        if not (0.5 < self.rho <= 1.0):
            raise DomainError(f"rho must be in (1/2, 1], got {self.rho}")
        if self.dense_c <= 0:
            raise DomainError(f"dense-c must be positive, got {self.dense_c}")
        if self.out_format not in ("csv", "json"):
            raise DomainError(f"format must be csv or json, got {self.out_format!r}")


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    rows: list[dict] = field(default_factory=list)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in self.rows:
            writer.writerow([row["trial"], row["seed"], row["n"], row["k"],
                             row["algo"], row["instance"], row["queries"],
                             "true" if row["success"] else "false",
                             row["elapsed_ms"]])
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps(self.rows, indent=2)

    def render(self) -> str:
        return self.to_json() if self.config.out_format == "json" else self.to_csv()

    @property
    def success_rate(self) -> float:
        return sum(r["success"] for r in self.rows) / len(self.rows)

    @property
    def queries(self) -> list[int]:
        return [r["queries"] for r in self.rows]


def load_instance_file(path: str) -> Instance:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read instance file {path}: {exc}") from exc
    try:
        return Instance.from_json(text)
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise DataError(f"malformed instance file {path}: {exc}") from exc


def _trial_instance(config: ExperimentConfig, seed: int,
                    fixed: Instance | None) -> Instance:
    if fixed is not None:
        return fixed
    if config.instance == "uniform":
        return sample_instance(config.n, config.k, "with-replacement", seed)
    if config.instance == "distinct":
        return sample_instance(config.n, config.k, "distinct", seed)
    if config.instance == "cluster":
        return cluster_instance(config.n, config.k, seed)
    return bin_instance(config.n, config.k, seed)


def _run_solver(config: ExperimentConfig, oracle: Oracle, inst: Instance):
    if config.algo == "walker":
        return solve_walker(oracle, inst.n, inst.k, config.delta,
                            config.faithful_chain_queries)
    if config.algo == "naive":
        return solve_naive(oracle, inst.n, inst.k, config.delta)
    return solve_dense(oracle, inst.n, inst.k, config.dense_c)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run config.trials seeded trials; deterministic except elapsed_ms."""
    config.validate()
    fixed = None
    if config.instance.startswith("file:"):
        fixed = load_instance_file(config.instance[len("file:"):])
        if fixed.n != config.n or fixed.k != config.k:
            config = ExperimentConfig(**{**config.__dict__,
                                         "n": fixed.n, "k": fixed.k})
    result = ExperimentResult(config=config)
    for i in range(config.trials):
        trial_seed = derive_seed(config.master_seed, i)
        inst = _trial_instance(config, derive_seed(trial_seed, 1), fixed)
        oracle = Oracle(inst, NoiseModel(config.rho), seed=derive_seed(trial_seed, 2))
        t0 = time.perf_counter()
        report = _run_solver(config, oracle, inst)
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
    return result


def fit_scaling(points) -> float:
    """Least-squares slope of log2(median queries per x) against log2(x)."""
    groups = defaultdict(list)
    for x, q in points:
        if x <= 0:
            raise DomainError(f"x values must be positive, got {x}")
        if q <= 0:
            raise DomainError(f"query counts must be positive, got {q}")
        groups[float(x)].append(q)
    if len(groups) < 3:
        raise DomainError(f"need >= 3 distinct x values, got {len(groups)}")
    xs = sorted(groups)
    log_x = np.log2(xs)
    log_q = np.log2([np.median(groups[x]) for x in xs])
    return float(np.polyfit(log_x, log_q, 1)[0])
