"""Command-line benchmark harness.

Subcommands:
  solve    run one solver on one instance and print a JSON report:
           the bench row plus the recovered multiset
  bench    run seeded Monte Carlo trials and write CSV/JSON rows
  scaling  sweep k or n and print the fitted query-count exponent

Exit codes: 0 success, 2 usage error, 3 data error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bench import (GENERATORS, SOLVERS, DataError, ExperimentConfig,
                    fit_scaling, run_experiment)
from .model import DomainError, ceil_log2

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3


def _add_common(parser: argparse.ArgumentParser):
    # a file: instance fixes n and k, and a scaling sweep sets one of them
    parser.add_argument("--n", type=int, help="range upper bound (generated instances)")
    parser.add_argument("--k", type=int, help="hidden multiset size (generated instances)")
    parser.add_argument("--delta", type=float, default=0.1,
                        help="target failure probability (walker/naive)")
    parser.add_argument("--rho", type=float, default=1.0,
                        help="per-query comparison correctness, in (1/2, 1]")
    parser.add_argument("--seed", type=int, default=0, help="64-bit master seed")
    parser.add_argument("--algo", choices=list(SOLVERS), default="walker")
    parser.add_argument("--instance", default="uniform",
                        help=" | ".join([*GENERATORS, "file:PATH"]))
    parser.add_argument("--dense-c", type=float, default=1.0,
                        help="error exponent for the dense solver (error n^-c)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multisearch",
        description="Recover a hidden multiset via anonymous comparison "
                    "queries; benchmark the solvers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance, print report")
    _add_common(p_solve)

    p_bench = sub.add_parser("bench", help="Monte Carlo benchmark")
    _add_common(p_bench)
    p_bench.add_argument("--trials", type=int, default=100)
    p_bench.add_argument("--out", default=None, help="output path (default stdout)")
    p_bench.add_argument("--format", choices=("csv", "json"), default="csv")

    p_scaling = sub.add_parser("scaling", help="sweep k or n, fit the exponent")
    _add_common(p_scaling)
    p_scaling.add_argument("--trials", type=int, default=20)
    p_scaling.add_argument("--sweep", choices=("k", "n"), required=True)
    p_scaling.add_argument("--values", required=True,
                           help="comma-separated sweep values, e.g. 2,3,4,6,8")
    return parser


def _config_from_args(args, trials: int = 1) -> ExperimentConfig:
    return ExperimentConfig(
        n=args.n, k=args.k, algo=args.algo, instance=args.instance,
        delta=args.delta, rho=args.rho, trials=trials, master_seed=args.seed,
        dense_c=args.dense_c)


def _cmd_solve(args) -> int:
    result = run_experiment(_config_from_args(args, trials=1))
    print(json.dumps({**result.rows[0], "recovered": result.recovered[0]}, indent=2))
    return EXIT_OK


def _cmd_bench(args) -> int:
    result = run_experiment(_config_from_args(args, trials=args.trials))
    payload = result.to_json() if args.format == "json" else result.to_csv()
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            raise DataError(f"cannot write {args.out}: {exc}") from exc
        print(f"wrote {len(result.rows)} rows to {args.out} "
              f"(success rate {result.success_rate:.3f})", file=sys.stderr)
    else:
        sys.stdout.write(payload)
    return EXIT_OK


def _cmd_scaling(args) -> int:
    if args.instance.startswith("file:"):
        raise DomainError("scaling sweeps n or k, which a file: instance fixes; "
                          "use a generated instance")
    try:
        values = [int(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise DomainError(f"bad --values list: {exc}") from exc
    # the fit's x is k, or ceil(log2 n): each value needs a positive x of its own
    label = "k" if args.sweep == "k" else "log2(n)"
    xs = values if args.sweep == "k" else [ceil_log2(n) if n >= 1 else 0 for n in values]
    if len(xs) < 3 or min(xs) < 1 or len(set(xs)) < len(xs):
        raise DomainError(f"--values needs >= 3 values with distinct positive "
                          f"ceil({label}), got {args.values}")
    points = []
    for value, x in zip(values, xs):
        config = _config_from_args(args, trials=args.trials)
        setattr(config, args.sweep, value)
        points.extend((x, q) for q in run_experiment(config).queries)
    slope = fit_scaling(points)
    print(f"fitted slope of log2(median queries) vs log2({label}): {slope:.4f}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"solve": _cmd_solve, "bench": _cmd_bench, "scaling": _cmd_scaling}
    try:
        return handlers[args.command](args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
