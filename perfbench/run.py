"""Benchmark of the multisearch package: one workload per invocation.

    python3 perfbench/run.py --workload walker_small_k --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The workload runs in its own fresh interpreter (child.py). With
``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a traced run. Metric names and units are declared in BENCHMARK.json.
Details of each run are written to ``perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"

# fresh interpreters that only set up, next to the measuring one; set-up
# time scatters widely from one interpreter start to the next
SETUP_PROBES = 3
IMPORTTIME_RUNS = 3
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


class Runner:
    """Starts the package's interpreters within one overall deadline."""

    def __init__(self):
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}

    def run(self, args: list) -> subprocess.CompletedProcess:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time")
        try:
            proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=self.env,
                                  capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"timed out: {args[:2]}") from exc
        if proc.returncode != 0:
            raise BenchError(f"{args[:2]} exited with {proc.returncode}:\n{proc.stderr}")
        return proc

    def child(self, w: Workload, seed: int, seconds: float, trace: int,
              setup_only: bool = False) -> dict:
        args = [str(HERE / "child.py"), "--workload", json.dumps(asdict(w)),
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        if setup_only:
            args.append("--setup-only")
        # the child measures set-up from this instant
        args += ["--started", repr(time.monotonic())]
        return json.loads(self.run(args).stdout.splitlines()[-1])

    def cli_trial0(self, w: Workload, seed: int) -> dict:
        """Trial 0 of ``multisearch bench`` for the same workload and seed."""
        proc = self.run(["-m", "multisearch.cli", "bench", "--n", str(w.n), "--k", str(w.k),
                         "--algo", w.algo, "--instance", w.instance, "--delta", str(w.delta),
                         "--rho", w.rho, "--dense-c", str(w.dense_c), "--trials", "1",
                         "--seed", str(seed), "--format", "json"])
        return json.loads(proc.stdout)[0]

    def import_ms(self) -> dict:
        """Cumulative import times of the CLI and of ``analysis``, from -X importtime."""
        samples = {"multisearch.cli": [], "multisearch.analysis": []}
        for _ in range(IMPORTTIME_RUNS):
            proc = self.run(["-X", "importtime", "-c", "import multisearch.cli"])
            for line in proc.stderr.splitlines():
                fields = [f.strip() for f in line.split("|")]
                if len(fields) == 3 and fields[2] in samples:
                    samples[fields[2]].append(int(fields[1]) / 1000.0)
        if any(len(v) != IMPORTTIME_RUNS for v in samples.values()):
            raise BenchError("-X importtime did not list the package's modules")
        return {name: statistics.median(v) for name, v in samples.items()}


def end_to_end(rows: list, setup_samples: list, peak_rss_mb: float) -> dict:
    solver_s = sum(r["ms"] for r in rows) / 1000.0
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "trial_ms_p50": (statistics.median(r["ms"] for r in rows), "ms"),
        "queries_per_s": (sum(r["queries"] for r in rows) / solver_s, "queries/s"),
        "queries_per_trial": (statistics.median(r["queries"] for r in rows), "queries"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def tally(rows: list) -> tuple[int, int]:
    """(attempted, failed) trials; a trial fails when any of its checks does."""
    return len(rows), sum(1 for r in rows if r["errors"])


def benchmark(w: Workload, seed: int, seconds: float, trace: int,
              setup_probes: int = SETUP_PROBES) -> tuple[dict, dict]:
    """(result line, run details) of one workload run."""
    if not (SRC / "multisearch" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'multisearch'}")
    # byte-compile once here, so that no timed interpreter start pays for it
    compileall.compile_dir(SRC, quiet=1)
    runner = Runner()
    if trace:
        out = runner.child(w, seed, seconds, trace=1)
        imports = runner.import_ms()
        units = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        values = {**out["layers"], "cli.import_ms": imports["multisearch.cli"],
                  "analysis.import_ms": imports["multisearch.analysis"]}
        metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in units}
    else:
        setup = [runner.child(w, seed, seconds, trace=0, setup_only=True)["setup_s"]
                 for _ in range(setup_probes)]
        out = runner.child(w, seed, seconds, trace=0)
        setup.append(out["setup_s"])
        out["setup_samples_s"] = setup
        metrics = end_to_end(out["rows"], setup, out["peak_rss_mb"])
    first = out["rows"][0]
    cli = runner.cli_trial0(w, seed)
    out["cli_trial0"] = cli
    cli_agrees = (cli["seed"], cli["queries"]) == (first["seed"], first["queries"])
    attempted, failed = tally(out["rows"])
    result = {
        "correct": bool(out["rerun_identical"] and cli_agrees),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="master seed in [0, 2^64)")
    parser.add_argument("--seconds", type=float, required=True, help="measured time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must lie in [0, 2^64)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    w = WORKLOADS[args.workload]
    try:
        result, details = benchmark(w, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    RUNS.mkdir(exist_ok=True)
    record = RUNS / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"workload": asdict(w), "result": result, **details}, indent=1))
    for row in details["rows"]:
        if row["errors"]:
            print(f"trial {row['trial']} failed: {'; '.join(row['errors'])}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
