import argparse
import contextlib
import io
import json
import math
import re
import time
from pathlib import Path
from typing import NamedTuple

import pytest

import multisearch.bench
import multisearch.cli
from multisearch import model
from multisearch.bench import (CSV_HEADER, SOLVERS, DataError, ExperimentConfig,
                               fit_scaling, run_experiment)
from multisearch.cli import build_parser, main
from multisearch.kposition import _queries_for_exponent
from multisearch.model import DomainError, ceil_log2, make_instance
from multisearch.seeds import derive_seed
from multisearch.walker import WalkConfig


def test_fit_scaling_synthetic_cube():
    points = [(k, 17 * k**3) for k in (2, 4, 8)]
    assert fit_scaling(points) == pytest.approx(3.0, abs=1e-9)


def test_fit_scaling_walker_n_sweep():
    # walk length is 70 * ceil(log2 n), so queries are linear in log2 n
    points = []
    for n in (2**8, 2**10, 2**12, 2**14):
        res = run_experiment(_config(n=n, k=4, trials=5, master_seed=71))
        points.extend((ceil_log2(n), q) for q in res.queries)
    assert 0.95 <= fit_scaling(points) <= 1.05


def test_fit_scaling_needs_three_points():
    with pytest.raises(DomainError):
        fit_scaling([(2, 10), (4, 20)])


def test_fit_scaling_rejects_nonpositive():
    with pytest.raises(DomainError):
        fit_scaling([(2, 0), (4, 20), (8, 30)])


def test_derive_seed_stable():
    # pinned: the mix function is an external contract
    assert derive_seed(0, 0) == 0xE220A8397B1DCDAF
    assert derive_seed(0, 1) != derive_seed(0, 2)
    assert derive_seed(1, 0) != derive_seed(0, 0)


def _config(**kw):
    base = dict(n=16, k=2, algo="walker", instance="uniform",
                delta=0.1, trials=5, master_seed=42)
    base.update(kw)
    return ExperimentConfig(**base)


def test_run_experiment_deterministic():
    a = run_experiment(_config())
    b = run_experiment(_config())
    strip = lambda rows: [{k: v for k, v in r.items() if k != "elapsed_ms"}
                          for r in rows]
    assert strip(a.rows) == strip(b.rows)


def test_run_experiment_row_schema():
    res = run_experiment(_config(trials=3))
    assert len(res.rows) == 3
    assert list(res.rows[0]) == CSV_HEADER
    csv_lines = res.to_csv().splitlines()
    assert csv_lines[0] == "trial,seed,n,k,algo,instance,queries,success,elapsed_ms"
    assert len(csv_lines) == 4
    assert csv_lines[1].split(",")[7] in ("true", "false")
    parsed = json.loads(res.to_json())
    assert [r["trial"] for r in parsed] == [0, 1, 2]


def test_run_experiment_success_is_multiset_equality(tmp_path, monkeypatch):
    path = tmp_path / "inst.json"
    path.write_text(make_instance(16, 2, [3, 10]).to_json())
    config = _config(instance=f"file:{path}", trials=30)
    assert run_experiment(config).success_rate >= 0.9

    # the harness judges the recovered multiset, whatever the solver returns
    solve_walker = multisearch.bench.solve_walker

    def off_by_one(*args):
        report = solve_walker(*args)
        report.recovered[-1] += 1
        return report

    monkeypatch.setattr(multisearch.bench, "solve_walker", off_by_one)
    assert run_experiment(config).success_rate == 0.0


def test_run_experiment_all_algos():
    for algo, kw in [("walker", {}), ("naive", {}),
                     ("dense", dict(n=4, k=6, instance="uniform"))]:
        res = run_experiment(_config(algo=algo, trials=2, **kw))
        assert all(r["queries"] > 0 for r in res.rows)


def test_config_validation():
    with pytest.raises(DomainError):
        run_experiment(_config(algo="nope"))
    with pytest.raises(DomainError):
        run_experiment(_config(trials=0))
    with pytest.raises(DomainError):
        run_experiment(_config(instance="weird"))
    with pytest.raises(DomainError):
        run_experiment(_config(rho=0.4))
    # trials and the seed are integers: a bool or a float is not one
    for bad in ({"trials": True}, {"trials": 2.5}, {"master_seed": 1.5}):
        with pytest.raises(TypeError):
            run_experiment(_config(**bad))


def test_malformed_instance_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(DataError):
        run_experiment(_config(instance=f"file:{path}"))


class CliRun(NamedTuple):
    returncode: int
    stdout: str
    stderr: str


def _cli(*args):
    """Run the CLI in this process and capture its exit code and output.

    argparse's SystemExit gives the exit code; any other exception
    propagates, so an input that would end in a traceback fails the test.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = exc.code
    return CliRun(code, out.getvalue(), err.getvalue())


def test_cli_solve():
    proc = _cli("solve", "--n", "16", "--k", "2", "--seed", "7")
    assert proc.returncode == 0
    row = json.loads(proc.stdout)
    assert row["n"] == 16 and row["algo"] == "walker"


def test_cli_solve_prints_recovered(tmp_path):
    # solve reports the recovered multiset next to the row; bench rows keep
    # the fixed header
    path = tmp_path / "inst.json"
    path.write_text(make_instance(12, 3, [2, 7, 7]).to_json())
    for algo in SOLVERS:
        proc = _cli("solve", "--algo", algo, "--seed", "3", "--instance", f"file:{path}")
        assert proc.returncode == 0, (algo, proc.stderr)
        row = json.loads(proc.stdout)
        assert list(row) == [*CSV_HEADER, "recovered"], algo
        assert row["recovered"] == [2, 7, 7] and row["success"] is True, algo


def test_cli_file_instance_ignores_n_and_k(tmp_path):
    # a file: instance fixes n and k; the flags' values are not read
    path = tmp_path / "inst.json"
    path.write_text(make_instance(12, 3, [2, 7, 7]).to_json())
    zero = ("--n", "0", "--k", "0")
    proc = _cli("bench", *zero, "--trials", "1", "--instance", f"file:{path}")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1].split(",")[2:4] == ["12", "3"]
    proc = _cli("solve", *zero, "--instance", f"file:{path}")
    assert proc.returncode == 0, proc.stderr
    row = json.loads(proc.stdout)
    assert (row["n"], row["k"]) == (12, 3)
    # nor are they needed; integral floats in the file are read as ints
    path.write_text('{"n": 12.0, "k": 3.0, "items": [2, 7, 7]}')
    for algo in SOLVERS:
        proc = _cli("solve", "--algo", algo, "--instance", f"file:{path}")
        assert proc.returncode == 0, (algo, proc.stderr)
        row = json.loads(proc.stdout)
        assert (row["n"], row["k"]) == (12, 3), algo
    # a generated instance still needs them
    proc = _cli("bench", *zero, "--trials", "1")
    assert proc.returncode == 2 and "Traceback" not in proc.stderr


def test_cli_file_instance_beyond_double_range(tmp_path):
    # n = 10^400 overflows a double; the walk length rule must not convert it
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 10**400, "k": 1, "items": [5]}))
    proc = _cli("solve", "--n", "1", "--k", "1", "--instance", f"file:{path}")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["success"] is True


def test_cli_bench_csv(tmp_path):
    out = tmp_path / "rows.csv"
    proc = _cli("bench", "--n", "16", "--k", "2", "--trials", "4",
                "--seed", "1", "--out", str(out))
    assert proc.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "trial,seed,n,k,algo,instance,queries,success,elapsed_ms"
    assert len(lines) == 5


def test_cli_scaling():
    proc = _cli("scaling", "--n", "64", "--k", "2", "--sweep", "k",
                "--values", "1,2,3", "--trials", "2", "--seed", "3")
    assert proc.returncode == 0
    assert "fitted slope" in proc.stdout
    # the sweep sets the swept value, so its flag is not needed
    for args in (("--n", "64", "--sweep", "k", "--values", "1,2,3"),
                 ("--k", "2", "--sweep", "n", "--values", "16,64,256")):
        proc = _cli("scaling", *args, "--trials", "2", "--seed", "3")
        assert proc.returncode == 0, proc.stderr
        assert "fitted slope" in proc.stdout


def test_cli_scaling_n_values_need_their_own_log2(monkeypatch):
    # an n sweep fits against ceil(log2 n): an n < 2, or two n sharing
    # that x, is rejected before any trial, naming the values given
    def no_trials(config):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(multisearch.cli, "run_experiment", no_trials)
    for values in ("3,4,8,16", "5,6,7,8", "1,2,4,8", "0,4,8,16", "4,16,16,64"):
        proc = _cli("scaling", "--k", "2", "--instance", "distinct", "--sweep", "n",
                    f"--values={values}", "--trials", "3")
        assert proc.returncode == 2 and values in proc.stderr, (values, proc.stderr)


def test_cli_scaling_values_checked_before_any_trial(monkeypatch):
    # either sweep's fitted x values are found first: fewer than three
    # values, or two sharing an x, exit 2 naming --values before any trial
    def no_trials(config):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(multisearch.cli, "run_experiment", no_trials)
    for sweep, values in (("k", "2,2,4"), ("k", "3,3,3"), ("k", "2,4"), ("k", "0,1,2"),
                          ("n", "4,8")):
        proc = _cli("scaling", "--n", "64", "--k", "2", "--sweep", sweep,
                    f"--values={values}", "--trials", "2")
        assert proc.returncode == 2, (sweep, values, proc.stderr)
        assert "--values" in proc.stderr and values in proc.stderr, proc.stderr


def test_cli_usage_error_exit_2(tmp_path):
    assert _cli("bench", "--n", "16", "--k", "2", "--algo", "bogus").returncode == 2
    assert _cli("bench", "--k", "2").returncode == 2  # missing --n
    assert _cli("bench", "--n", "16", "--k", "2", "--rho", "0.3").returncode == 2
    # leaf-chain steps have one query policy, with no flag to change it
    proc = _cli("bench", "--n", "16", "--k", "2", "--faithful-chain-queries")
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    # seeds are 64-bit: 2^64 + 5 must not alias --seed 5
    for seed in ("-1", str(2**64 + 5)):
        proc = _cli("bench", "--n", "16", "--k", "2", "--trials", "1", "--seed", seed)
        assert proc.returncode == 2 and "Traceback" not in proc.stderr
    # generated instances draw through numpy's int64 range
    for kind in ("uniform", "cluster", "distinct"):
        proc = _cli("bench", "--n", str(10**20), "--k", "2", "--trials", "1",
                    "--instance", kind)
        assert proc.returncode == 2 and "Traceback" not in proc.stderr, kind
    # and so do the sizes k they draw
    for n, k, flags in ((8, 2**64, ("--algo", "dense")),
                        (2**70, 2**64, ("--instance", "cluster")),
                        (2**70, 2**66, ("--instance", "bins"))):
        proc = _cli("solve", "--n", str(n), "--k", str(k), *flags)
        assert proc.returncode == 2, (k, flags, proc.stderr)
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    # a file: instance fixes n and k, so a scaling sweep would vary nothing
    path = tmp_path / "inst.json"
    path.write_text(make_instance(16, 2, [3, 10]).to_json())
    for sweep, values in (("k", "1,2,3"), ("n", "16,64,256")):
        proc = _cli("scaling", "--n", "16", "--k", "2", "--instance", f"file:{path}",
                    "--sweep", sweep, "--values", values, "--trials", "2")
        assert proc.returncode == 2 and "Traceback" not in proc.stderr, sweep
    # a dense exponent with no finite query budget; dense reads no delta,
    # so its message names none
    for c in ("nan", "1e308"):
        proc = _cli("bench", "--algo", "dense", "--n", "8", "--k", "12",
                    "--trials", "1", "--dense-c", c)
        assert proc.returncode == 2 and "Traceback" not in proc.stderr, c
        assert "delta" not in proc.stderr, (c, proc.stderr)


@pytest.mark.parametrize("algo", list(SOLVERS))
def test_cli_plan_above_the_cap_exits_2(algo):
    # at rho = 1/2 + 1e-10 the budgets scale by 1e20: walker, naive and dense
    # plan about 1.5e24, 8.3e21 and 9.8e21 queries, and each refuses the
    # plan before its first draw instead of drawing for millennia
    start = time.perf_counter()
    proc = _cli("solve", "--n", "8", "--k", "2", "--rho", "0.5000000001", "--algo", algo)
    assert time.perf_counter() - start < 5
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert proc.stderr.startswith(f"error: {algo} plans") and "rho=0.5000000001" in proc.stderr
    assert "Traceback" not in proc.stderr


# (flag, bad value, the algos that read the flag): each is checked by its
# reader, so it exits 2 under those algos and is not read under the others
FLAG_OWNERS = [("--rho", "0.5", tuple(SOLVERS)), ("--rho", "nan", tuple(SOLVERS)),
               ("--delta", "5", ("walker", "naive")), ("--delta", "0", ("walker", "naive")),
               ("--dense-c", "-1", ("dense",)), ("--dense-c", "nan", ("dense",))]


@pytest.mark.parametrize("algo", list(SOLVERS))
@pytest.mark.parametrize("flag, value, readers", FLAG_OWNERS,
                         ids=[f"{flag}={value}" for flag, value, _ in FLAG_OWNERS])
def test_cli_flag_checked_by_the_algo_that_reads_it(flag, value, readers, algo):
    proc = _cli("bench", "--n", "8", "--k", "4", "--trials", "1", "--algo", algo,
                flag, value)
    if algo in readers:
        assert proc.returncode == 2 and proc.stdout == "", proc.stderr
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    else:
        assert proc.returncode == 0, proc.stderr
        assert len(proc.stdout.splitlines()) == 2


@pytest.mark.parametrize("kind", ["uniform", "distinct", "cluster", "bins"])
def test_cli_generator_rejects_n_or_k_below_one(kind):
    for n, k in [("0", "4"), ("8", "0")]:
        proc = _cli("bench", "--n", n, "--k", k, "--trials", "1", "--instance", kind)
        assert proc.returncode == 2 and proc.stdout == "", (n, k, proc.stderr)
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_readme_lists_every_cli_flag():
    # the README's "Flags:" line names each long option of every subcommand
    readme = Path(__file__).resolve().parents[1] / "README.md"
    listed = re.search(r"^Flags: `([^`]*)`", readme.read_text(), re.M).group(1).split()
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    flags = {opt for sub in subparsers.choices.values() for action in sub._actions
             for opt in action.option_strings if opt.startswith("--")} - {"--help"}
    assert sorted(listed) == sorted(flags)


def test_cli_per_estimate_delta_below_double_range():
    # delta / (k * ceil(log2 n)) and n^-(c+1) underflow to 0.0 as doubles;
    # the budgets are computed from their exponents and stay finite
    for args, queries in [(("--algo", "naive", "--n", "16", "--k", "2", "--delta", "5e-324"),
                           8 * 8624),
                          (("--algo", "dense", "--n", "8", "--k", "12", "--dense-c", "400"),
                           7 * 346752)]:
        proc = _cli("bench", "--trials", "1", *args)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout.splitlines()[1].split(",")[6]) == queries


def test_cli_data_error_exit_3(tmp_path):
    for name, text in [("bad.json", "[1,2,3]"),
                       ("float.json", '{"n": 4, "k": 2, "items": [2.9, 1.5]}'),
                       ("inf.json", '{"n": 4, "k": 1, "items": [Infinity]}'),
                       ("frac_n.json", '{"n": 2.5, "k": 1, "items": [1]}'),
                       ("frac_k.json", '{"n": 4, "k": 1.5, "items": [1]}'),
                       ("inf_n.json", '{"n": Infinity, "k": 1, "items": [1]}'),
                       ("nan_k.json", '{"n": 4, "k": NaN, "items": [1]}'),
                       ("bool_k.json", '{"n": 16, "k": true, "items": [1]}'),
                       ("bool_item.json", '{"n": 16, "k": 1, "items": [true]}'),
                       ("bool_all.json", '{"n": 16, "k": true, "items": [true]}'),
                       ("utf16.json", b"\xff\xfe{\x00}\x00"),
                       ("deep.json", "[" * 200_000)]:
        path = tmp_path / name
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        proc = _cli("bench", "--n", "16", "--k", "2",
                    "--instance", f"file:{path}")
        assert proc.returncode == 3 and "Traceback" not in proc.stderr, name
    proc = _cli("bench", "--n", "16", "--k", "2", "--trials", "1",
                "--out", str(tmp_path / "missing" / "rows.csv"))
    assert proc.returncode == 3 and "Traceback" not in proc.stderr


def test_rng_stream_pinned():
    # literal outputs of fixed seeds: a change to the RNG stream fails here
    # and must be declared, with law-level tests, not re-seeded away
    from multisearch.model import NoiseModel, Oracle

    inst = make_instance(16, 2, [3, 10])
    o = Oracle(inst, NoiseModel(0.9), seed=7)
    bits = "".join("1" if o.query_batch(8, 1) else "0" for _ in range(32))
    assert bits == "00011010011111000000110110100011"
    assert Oracle(inst, NoiseModel(0.9), seed=7).query_batch(8, 32) == 15


# columns 1-8 (all but elapsed_ms) of two trials at master seed 7; every
# solver, every generator and a file: instance whose n, k differ from the
# config's (its rows report the file's n and k)
SEED7_ROWS = [
    (dict(instance="uniform"), [
        "0,7191089600892374487,16,4,walker,uniform,71968,true",
        "1,309689372594955804,16,4,walker,uniform,108960,true"]),
    (dict(instance="distinct"), [
        "0,7191089600892374487,16,4,walker,distinct,72960,true",
        "1,309689372594955804,16,4,walker,distinct,144704,true"]),
    (dict(instance="cluster"), [
        "0,7191089600892374487,16,4,walker,cluster,126816,true",
        "1,309689372594955804,16,4,walker,cluster,126944,true"]),
    (dict(instance="bins"), [
        "0,7191089600892374487,16,4,walker,bins,90368,true",
        "1,309689372594955804,16,4,walker,bins,91040,true"]),
    (dict(algo="naive"), [
        "0,7191089600892374487,16,4,naive,uniform,4272,true",
        "1,309689372594955804,16,4,naive,uniform,4272,true"]),
    (dict(algo="dense", n=4, k=8), [
        "0,7191089600892374487,4,8,dense,uniform,1920,true",
        "1,309689372594955804,4,8,dense,uniform,1920,true"]),
    (dict(instance="file", n=99, k=5), [
        "0,7191089600892374487,12,3,walker,{file},41022,true",
        "1,309689372594955804,12,3,walker,{file},40878,true"]),
]


@pytest.mark.parametrize("kw, expected", SEED7_ROWS,
                         ids=[f"{kw.get('algo', 'walker')}-{kw.get('instance', 'uniform')}"
                              for kw, _ in SEED7_ROWS])
def test_rows_pinned(tmp_path, kw, expected):
    kw = {"n": 16, "k": 4, "trials": 2, "master_seed": 7, **kw}
    file_kind = ""
    if kw.get("instance") == "file":
        path = tmp_path / "inst.json"
        path.write_text(make_instance(12, 3, [2, 7, 7]).to_json())
        kw["instance"] = file_kind = f"file:{path}"
    csv_text = run_experiment(_config(**kw)).to_csv()
    rows = [",".join(line.split(",")[:8]) for line in csv_text.splitlines()[1:]]
    assert rows == [r.format(file=file_kind) for r in expected]


def test_cli_rows_pinned_csv_equals_json():
    args = ("bench", "--n", "64", "--k", "4", "--trials", "3", "--seed", "7")
    by_format = {}
    for fmt in ("csv", "json"):
        proc = _cli(*args, "--format", fmt)
        assert proc.returncode == 0, proc.stderr
        by_format[fmt] = proc.stdout
    lines = by_format["csv"].splitlines()
    assert lines[0].split(",") == CSV_HEADER
    csv_rows = [dict(zip(CSV_HEADER, line.split(","))) for line in lines[1:]]
    assert [",".join(r[h] for h in CSV_HEADER[:8]) for r in csv_rows] == [
        "0,7191089600892374487,64,4,walker,uniform,189312,true",
        "1,309689372594955804,64,4,walker,uniform,191744,true",
        "2,16616101746815609346,64,4,walker,uniform,191296,true"]
    as_csv = lambda v: ("true" if v else "false") if isinstance(v, bool) else str(v)
    json_rows = [{h: as_csv(v) for h, v in row.items()}
                 for row in json.loads(by_format["json"])]
    assert [list(r) for r in json_rows] == [CSV_HEADER] * 3
    strip = lambda rows: [{h: v for h, v in r.items() if h != "elapsed_ms"} for r in rows]
    assert strip(json_rows) == strip(csv_rows)


def _plan(algo, n, k, delta=0.1, rho=1.0, c=1.0):
    """A solver's worst-case query plan, stated apart from the solver."""
    if algo == "walker":
        cfg = WalkConfig.for_problem(n, k, delta, rho)
        return k * cfg.m * (2 * cfg.step1_m + cfg.step2_m)
    if algo == "naive":
        bits = max(1, ceil_log2(n))
        return k * bits * _queries_for_exponent(k, math.log2(k * bits) - math.log2(delta), rho)
    return (n - 1) * _queries_for_exponent(k, (c + 1.0) * math.log2(n), rho)


@pytest.mark.parametrize("kw, expected", SEED7_ROWS,
                         ids=[f"{kw.get('algo', 'walker')}-{kw.get('instance', 'uniform')}"
                              for kw, _ in SEED7_ROWS])
def test_pinned_rows_draw_within_their_plan(tmp_path, monkeypatch, kw, expected):
    # the plan each solver checks against MAX_QUERIES is _plan's: a cap one
    # below it refuses the solve, and at it the pinned rows run; each draws
    # no more than its plan, and dense draws exactly its plan
    kw = {"n": 16, "k": 4, "trials": 2, "master_seed": 7, **kw}
    n, k, algo = kw["n"], kw["k"], kw.get("algo", "walker")
    if kw.get("instance") == "file":
        path = tmp_path / "inst.json"
        path.write_text(make_instance(12, 3, [2, 7, 7]).to_json())
        kw["instance"], n, k = f"file:{path}", 12, 3
    plan = _plan(algo, n, k)
    monkeypatch.setattr(model, "MAX_QUERIES", plan - 1)
    with pytest.raises(DomainError, match=f"{algo} plans"):
        run_experiment(_config(**kw))
    monkeypatch.setattr(model, "MAX_QUERIES", plan)
    queries = run_experiment(_config(**kw)).queries
    assert [int(row.split(",")[6]) for row in expected] == queries
    assert max(queries) <= plan
    if algo == "dense":
        assert queries == [plan, plan]
