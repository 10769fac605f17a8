import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import nswmatch
from nswmatch.cli import CSV_HEADER, SOLVERS, build_parser, generate_instance, main, run_algo
from nswmatch.core import Instance
from conftest import crossing_example


def write_crossing(tmp_path):
    path = tmp_path / "crossing.json"
    path.write_text(json.dumps(crossing_example().to_json()))
    return str(path)


def src_env() -> dict:
    """The environment for a child Python that imports this nswmatch."""
    src = str(Path(nswmatch.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_cli_import_loads_no_networkx():
    """networkx is only the test reference for the matcher: importing the
    CLI, and with it every solver module, must not load it."""
    code = "import nswmatch.cli, sys; assert 'networkx' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, env=src_env(), timeout=60)


def test_generate_partition(tmp_path, capsys):
    out = tmp_path / "part.json"
    assert main(["generate", "--kind", "partition", "--a", "1,2,3,4",
                 "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["n"] == 2 and obj["capacities"] == [2, 2]
    assert obj["meta"]["theta"] == {"base": 600, "num": 1, "den": 6}


def test_generate_random_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["generate", "--kind", "random", "--m", "6", "--n", "3",
                     "--seed", "7", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


# sha256 of `generate`'s output file, pinned so that no change to the
# generators or to the option defaults alters an instance, its metadata or
# its bytes
GENERATE_DIGESTS = {
    "--kind rainbow --r 2 --seed 0":
        "4d53b2265c604769310fd64f0a7ee17c5abdd6b14b078666bec8482c8bfdc758",
    "--kind rainbow --r 2 --seed 1":
        "8a6ab440d03866fadd290a9f11f5c9867985523d7064b385c4334e0fce6e669e",
    "--kind rainbow --r 2 --seed 5":
        "7e75ae1762ad936a3fa1d047ad71a1e243f0a438da4d45a8ef09729a4ed29ff8",
    "--kind rainbow --r 3 --seed 0":
        "644ca98b3c3d2e9305f09b6e639d05d0fc22a860a22344a55b386db939950899",
    "--kind rainbow --r 3 --seed 1":
        "3a494d8c8d245c68b0749ea198e67ec18fa21e74ba6531f02d8478c5551773bc",
    "--kind rainbow --r 3 --seed 5":
        "ac63dcf0c15aaef9476e4d4d26b2e5b7db800c0fa583f4632a960a84bc8bd05a",
    "--kind rainbow --r 4 --seed 0":
        "274fd05d05ae093bde78df2f58eb90aa4847fa3258dd2b010cecbcdf20587341",
    "--kind rainbow --r 4 --seed 1":
        "d0e280084a645ff2345e54578463715286ab175c6e7da961b9cd9f536465a541",
    "--kind rainbow --r 4 --seed 5":
        "6a8fedd9b8b691a52a6661dc9acd3025e26dc07bce33bc2535bb2226a96bb527",
    "--kind rainbow --r 7 --seed 0":
        "7d56da56f089cd8d8483abcc189c1d48d44bcbfdcf2d900ef4b1c14d68fb4cd7",
    "--kind rainbow --r 7 --seed 1":
        "c2f6bf52a1a1ea3d604aee5e8a637530404b120bc09fffcafad6b4b07bed7c1d",
    "--kind rainbow --r 7 --seed 5":
        "7563e0e0ac3de0076a62bc28fc586c75de89419a2600a6ba478c0a2ec9d18183",
    "--kind random --m 7 --n 3 --seed 2":
        "3e52fb32c872a875f26c1ed34daa57b6ba006806a1cc89f1e2d44103b2824dd0",
    "--kind partition --a 1,2,3,4,5,7":
        "523445683630f9154fec1b907ac754a623118559537f55071d3e025aa542a0e9",
}


@pytest.mark.parametrize("args", GENERATE_DIGESTS)
def test_generate_output_is_pinned(tmp_path, args):
    out = tmp_path / "inst.json"
    assert main(["generate", *args.split(), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GENERATE_DIGESTS[args]


def test_generate_bad_kind(tmp_path):
    assert main(["generate", "--kind", "nonsense"]) == 2


@pytest.mark.parametrize("args", [
    ["--kind", "random", "--m", "3", "--n", "0"],
    ["--kind", "random", "--m", "3", "--n", "2", "--capacities", "a,b"],
    ["--kind", "random", "--m", "-1", "--n", "2"],
    ["--kind", "random", "--m", "3", "--n", "2", "--v-max", "0"],
    ["--kind", "random", "--m", "3", "--n", "2", "--density", "2"],
    ["--kind", "rainbow", "--r", "0"],
    ["--kind", "rainbow", "--r", "-1"],
    ["--kind", "rainbow", "--r", "1"],
])
def test_generate_malformed_arguments_exit_2(tmp_path, capsys, args):
    out = tmp_path / "inst.json"
    assert main(["generate", *args, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert len(captured.err.strip().splitlines()) == 1, captured.err


def test_solve_dp_crossing(tmp_path, capsys):
    path = write_crossing(tmp_path)
    assert main(["solve", path, "--algo", "dp"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["nash_product"] == "16"
    assert record["status"] == "ok"


def test_solve_feasible_pigeonhole(tmp_path, capsys):
    inst = Instance.create((1,), [[1], [1]], [[1, 1]])
    path = tmp_path / "pigeon.json"
    path.write_text(json.dumps(inst.to_json()))
    assert main(["solve", str(path), "--algo", "feasible"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["feasible"] is False


def test_solve_fptas_within_bounds(tmp_path, capsys):
    path = write_crossing(tmp_path)
    assert main(["solve", path, "--algo", "fptas", "--eps", "1/1"]) == 0
    record = json.loads(capsys.readouterr().out)
    got = int(record["nash_product"])
    assert 16 // 2 ** 3 <= got <= 16


def test_solve_domain_and_budget_exit_codes(tmp_path, capsys):
    path = write_crossing(tmp_path)
    # the crossing example has capacity-1 firms, so cap1 is fine; greedy needs positive values
    assert main(["solve", path, "--algo", "greedy"]) == 3
    record = json.loads(capsys.readouterr().out)
    assert record["status"] == "infeasible-domain"
    big = Instance.create((25,), [[1]] * 25, [[1] * 25])
    bigpath = tmp_path / "big.json"
    bigpath.write_text(json.dumps(big.to_json()))
    assert main(["solve", str(bigpath), "--algo", "dp"]) == 4
    record = json.loads(capsys.readouterr().out)
    assert record["status"] == "budget-exceeded"
    # log1p rounds this eps to 0, so the ladder has no usable size
    assert main(["solve", path, "--algo", "qptas", "--eps", f"1/{10 ** 400}"]) == 4
    record = json.loads(capsys.readouterr().out)
    assert record["status"] == "budget-exceeded"


def test_solve_oracle_deep_instance(tmp_path):
    """The oracle's first descent is 1 500 workers deep, past Python's
    recursion limit: the CLI still exits 0 with no traceback."""
    m = 1500
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(Instance.create((m,), [[1]] * m, [[1] * m]).to_json()))
    proc = subprocess.run(
        [sys.executable, "-m", "nswmatch.cli", "solve", str(path), "--algo", "oracle"],
        capture_output=True, text=True, env=src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    record = json.loads(proc.stdout)
    assert record["status"] == "ok"
    assert record["nash_product"] == "1500"


def test_solve_qptas_many_signature_groups(tmp_path):
    """600 workers of pairwise distinct values at one firm of capacity 600
    form 600 signature groups, one worker each: the oracle's search places
    them one by one on an explicit stack, so its depth is no matter of
    Python's recursion limit, and the CLI exits 0 with the product."""
    m = 600
    path = tmp_path / "distinct.json"
    path.write_text(json.dumps(Instance.create(
        (m,), [[2 ** w] for w in range(m)], [[1] * m]).to_json()))
    proc = subprocess.run(
        [sys.executable, "-m", "nswmatch.cli", "solve", str(path), "--algo", "qptas",
         "--eps", "1/1"],
        capture_output=True, text=True, env=src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["status"] == "ok"
    assert record["nash_product"] == str(2 ** (m * (m - 1) // 2) * m)


@pytest.mark.parametrize("m", [300, 450])
def test_qptas_single_firm_distinct_values(m):
    """m workers of values 1..m at one firm: at eps 1/1000 each value has
    its own bucket, so m signature groups of one worker."""
    inst = Instance.create((m,), [[w + 1] for w in range(m)], [[1] * m])
    record = run_algo("qptas", inst, "1/1000")
    assert record["status"] == "ok"
    assert record["nash_product"] == str(math.factorial(m) * m)


@pytest.mark.parametrize("algo", ["feasible", "symbin"])
def test_solve_long_augmenting_path(tmp_path, algo):
    """A 1 000-firm chain, capacities 1: firm f values, and is valued by,
    the workers at chain positions f and f + 1, and the worker at position p
    has index n - 1 - p.  The flow's augmenting paths run the chain's
    length, past Python's recursion limit: the CLI still exits 0."""
    n = 1000
    rows = [[0] * n for _ in range(n)]
    for f in range(n):
        for p in (f, f + 1):
            if p < n:
                rows[n - 1 - p][f] = 1
    inst = Instance.create([1] * n, rows, [list(col) for col in zip(*rows)])
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(inst.to_json()))
    proc = subprocess.run(
        [sys.executable, "-m", "nswmatch.cli", "solve", str(path), "--algo", algo],
        capture_output=True, text=True, env=src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["status"] == "ok"
    assert record["nash_product"] == "1"


def test_solve_bad_eps(tmp_path, capsys):
    path = write_crossing(tmp_path)
    for eps in ("0/1", "1/0", ""):
        assert main(["solve", path, "--algo", "qptas", "--eps", eps]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.strip().splitlines()) == 1


def test_verify_round_trip(tmp_path, capsys):
    path = write_crossing(tmp_path)
    mpath = tmp_path / "mu.json"
    mpath.write_text(json.dumps({"assignment": [1, 0]}))
    assert main(["verify", path, str(mpath)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] and report["nash_product"] == "16"
    assert report["utilities"] == [2, 2, 2, 2]
    assert report["utilitarian_welfare"] == 8


def test_verify_capacity_violation(tmp_path, capsys):
    path = write_crossing(tmp_path)
    mpath = tmp_path / "mu.json"
    mpath.write_text(json.dumps({"assignment": [0, 0]}))
    assert main(["verify", path, str(mpath)]) == 3
    report = json.loads(capsys.readouterr().out)
    assert not report["ok"] and report["violation"]["kind"] == "capacity"


def test_verify_shape_mismatch(tmp_path, capsys):
    path = write_crossing(tmp_path)
    mpath = tmp_path / "mu.json"
    mpath.write_text(json.dumps({"assignment": [0]}))
    assert main(["verify", path, str(mpath)]) == 3


SUITE = {
    "instances": [
        {"id": f"p{i}", "kind": "random", "m": 5, "n": 2,
         "capacities": [3, 3], "seed": i} for i in range(5)
    ],
    "algos": [{"name": "oracle"}, {"name": "dp"},
              {"name": "fptas", "eps": "1/1"}],
}


def test_bench_csv(tmp_path):
    spec = tmp_path / "suite.json"
    spec.write_text(json.dumps(SUITE))
    out = tmp_path / "out.csv"
    assert main(["bench", str(spec), "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 5 * 3
    dp_rows = [l for l in lines[1:] if l.split(",")[1] == "dp"]
    assert all(row.split(",")[7] == "1.0" for row in dp_rows)
    # round-trip: every product re-verifies against the matching (dp rows)
    for row in dp_rows:
        assert row.split(",")[3] in ("ok", "zero-optimum")


def test_bench_without_oracle_has_empty_ratio(tmp_path):
    spec_obj = {"instances": SUITE["instances"][:2], "algos": [{"name": "dp"}]}
    spec = tmp_path / "suite.json"
    spec.write_text(json.dumps(spec_obj))
    out = tmp_path / "out.csv"
    assert main(["bench", str(spec), "--out", str(out)]) == 0
    for line in out.read_text().strip().split("\n")[1:]:
        assert line.split(",")[7] == ""


@pytest.mark.parametrize("change", [
    {"algos": [{"name": "fptas", "eps": "1/0"}]},
    {"algos": [{"name": "fptas", "eps": 1}]},
    {"algos": [{"name": "fptas", "eps": True}]},
    {"algos": [{"name": "qptas", "eps": ""}]},
    {"instances": [{**SUITE["instances"][0], "id": 7}]},
    # two instances under one id would share one oracle row
    {"instances": [{**entry, "id": "p"} for entry in SUITE["instances"][:2]]},
    # generator fields take exact types: a null seed would seed from the OS,
    # and a bool or a float would pass as some other number
    *({"instances": [{**SUITE["instances"][0], key: value}]} for key, value in [
        ("seed", None), ("seed", True), ("seed", "abc"), ("seed", 1.5),
        ("m", True), ("density", True), ("v_max", True)]),
    {"instances": [{"id": "r", "kind": "rainbow", "r": True, "seed": 1}]},
    {"instances": [{"id": "q", "kind": "partition", "a": [1, 2, 3, 4], "strict": 1}]},
])
def test_bench_suite_field_errors_exit_2(tmp_path, capsys, change):
    suite = {"instances": SUITE["instances"][:2], "algos": [{"name": "oracle"}], **change}
    assert main(["bench", _write(tmp_path / "suite.json", suite)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("path", [0, 1, 2, True])
def test_bench_file_path_must_be_a_string(tmp_path, path):
    """A file entry's path is read only as a string: an int or bool would
    reach open() as a file descriptor (stdin, stdout or stderr)."""
    suite = {"instances": [{"id": "fd", "kind": "file", "path": path}],
             "algos": [{"name": "oracle"}]}
    proc = subprocess.run(
        [sys.executable, "-m", "nswmatch.cli", "bench", _write(tmp_path / "suite.json", suite)],
        stdin=subprocess.DEVNULL, capture_output=True, text=True, env=src_env(), timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "malformed suite spec" in proc.stderr


def test_integer_density_is_valid():
    entry = SUITE["instances"][0]
    assert (generate_instance({**entry, "density": 1}).instance
            == generate_instance(entry).instance)


def test_partition_search_over_budget_exits_4(tmp_path, capsys):
    """40 values have C(40, 20) balanced-split candidates: with an even
    total the search is refused before it starts; an odd total has no
    split, so the instance is built without a certificate."""
    values = list(range(1, 40))
    even, odd = values + [1000], values + [1001]
    suite = {"instances": [{"id": "big", "kind": "partition", "a": even}],
             "algos": [{"name": "dp"}]}
    start = time.perf_counter()
    for argv in (["generate", "--kind", "partition", "--a", ",".join(map(str, even))],
                 ["bench", _write(tmp_path / "suite.json", suite)]):
        assert main(argv) == 4, argv
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.strip().splitlines()) == 1
    assert time.perf_counter() - start < 1
    out = tmp_path / "odd.json"
    assert main(["generate", "--kind", "partition", "--a", ",".join(map(str, odd)),
                 "--out", str(out)]) == 0
    meta = json.loads(out.read_text())["meta"]
    assert meta["certificate"] is None and meta["theta"] is None


def test_bench_entry_and_generate_give_one_instance(tmp_path):
    """A random or rainbow suite entry and `generate` with the same
    parameters build the same instance: the generated file benches row for
    row alike."""
    cases = [
        (["--kind", "random", "--m", "6", "--n", "3", "--capacities", "2,3,2",
          "--v-max", "7", "--density", "0.6", "--seed", "5"],
         {"id": "entry", "kind": "random", "m": 6, "n": 3, "capacities": [2, 3, 2],
          "v_max": 7, "density": 0.6, "seed": 5}),
        (["--kind", "rainbow", "--r", "3", "--seed", "1"],
         {"id": "entry", "kind": "rainbow", "r": 3, "seed": 1}),
    ]
    for argv, entry in cases:
        out = tmp_path / "gen.json"
        assert main(["generate", *argv, "--out", str(out)]) == 0
        assert generate_instance(entry).to_json() == json.loads(out.read_text())
        suite = {"instances": [entry, {"id": "file", "kind": "file", "path": str(out)}],
                 "algos": [{"name": "oracle"}, {"name": "dp"}]}
        csv = tmp_path / "out.csv"
        assert main(["bench", _write(tmp_path / "suite.json", suite), "--out", str(csv)]) == 0
        rows = [line.split(",", 1) for line in csv.read_text().splitlines()[1:]]
        assert [rest for inst_id, rest in rows if inst_id == "entry"] == \
            [rest for inst_id, rest in rows if inst_id == "file"]


def test_bench_malformed_suite(tmp_path):
    spec = tmp_path / "suite.json"
    spec.write_text(json.dumps({"instances": [{"kind": "wat", "id": "x"}],
                                "algos": []}))
    assert main(["bench", str(spec)]) == 2


def test_run_algo_record_reverifies():
    from nswmatch.core import Matching, nash_value
    inst = crossing_example()
    record = run_algo("dp", inst)
    mu = Matching.of(record["matching"])
    assert str(nash_value(inst, mu).product) == record["nash_product"]


BASE_KEYS = {"algo", "eps", "status", "matching", "nash_product", "nash_welfare"}


def _solve_algo_choices():
    parser = build_parser()
    commands = next(a for a in parser._actions if a.dest == "command")
    return next(a.choices for a in commands.choices["solve"]._actions if a.dest == "algo")


def test_solver_table(tmp_path):
    assert list(_solve_algo_choices()) == list(SOLVERS)
    assert len(SOLVERS) == 13
    # every solver's domain holds for one worker and one firm valuing each other
    one = Instance.create((1,), [[1]], [[1]])
    extra = {"feasible": {"feasible"}}
    for name in SOLVERS:
        record = run_algo(name, one, "1/1")
        assert record["status"] in ("ok", "zero-optimum"), name
        assert set(record) == BASE_KEYS | extra.get(name, set()), name
        # a domain or budget failure adds only the error text
        record = run_algo(name, crossing_example())
        if record["status"] in ("infeasible-domain", "budget-exceeded"):
            assert set(record) == BASE_KEYS | {"error"}, name
    spec = tmp_path / "suite.json"
    spec.write_text(json.dumps({"instances": SUITE["instances"][:1],
                                "algos": [{"name": "dp"}, {"name": "nonsense"}]}))
    assert main(["bench", str(spec)]) == 2


def test_product_over_4300_digits():
    # 1200 workers each valuing the one firm 10**4: a product of 4800+ digits
    m = 1200
    inst = Instance.create((m,), [[10 ** 4]] * m, [[1] * m])
    record = run_algo("singlefirm", inst)
    assert record["status"] == "ok"
    assert len(record["nash_product"]) > 4300
    assert int(record["nash_product"]) == 10 ** (4 * m) * m


def _write(path, obj):
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    return str(path)


@pytest.mark.parametrize("case", [
    "missing_instance", "invalid_json", "deeply_nested", "missing_keys", "not_an_object",
    "string_capacity", "float_capacity", "bool_valuation", "bool_worker_count",
    "matching_without_assignment", "string_assignment", "object_assignment",
    "digit_string_assignment",
    "missing_suite", "missing_suite_file_instance", "bad_suite_eps",
])
def test_malformed_input_exits_2(tmp_path, capsys, case):
    good = write_crossing(tmp_path)
    mu = _write(tmp_path / "mu.json", {"assignment": [1, 0]})
    crossing = crossing_example().to_json()
    bad_instances = {
        "invalid_json": "{not json",
        "deeply_nested": "[" * 100_000 + "]" * 100_000,
        "missing_keys": {"m": 1},
        "not_an_object": [1, 2],
        "string_capacity": {**crossing, "capacities": ["1", "1"]},
        "float_capacity": {**crossing, "capacities": [1.5, 1]},
        "bool_valuation": {**crossing, "worker_vals": [[0, True], [2, 0]]},
        "bool_worker_count": {"m": True, "n": 1, "capacities": [1],
                              "worker_vals": [[1]], "firm_vals": [[1]]},
    }
    # a matching's assignment must be an array, not read element-wise
    bad_matchings = {
        "string_assignment": {"assignment": "ab"},
        "object_assignment": {"assignment": {"0": 1, "1": 0}},
        "digit_string_assignment": {"assignment": "0"},
    }
    if case == "missing_instance" or case in bad_instances:
        path = str(tmp_path / "absent.json")
        if case in bad_instances:
            path = _write(tmp_path / "bad.json", bad_instances[case])
        commands = [["solve", path, "--algo", "dp"], ["verify", path, mu]]
    elif case == "matching_without_assignment":
        commands = [["verify", good, _write(tmp_path / "bad.json", {"match": [1, 0]})]]
    elif case in bad_matchings:
        commands = [["verify", good, _write(tmp_path / "bad.json", bad_matchings[case])]]
    else:
        instance = {"id": "a", "kind": "file", "path": str(tmp_path / "absent.json")}
        algo = {"name": "fptas", "eps": "0/1" if case == "bad_suite_eps" else "1/1"}
        suite = {"instances": [instance if case == "missing_suite_file_instance"
                               else SUITE["instances"][0]], "algos": [algo]}
        path = (str(tmp_path / "absent_suite.json") if case == "missing_suite"
                else _write(tmp_path / "suite.json", suite))
        commands = [["bench", path]]
    for argv in commands:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1, captured.err


def test_verify_rejects_bool_firm(tmp_path, capsys):
    inst = Instance.create((1, 1), [[1, 1]], [[1], [1]])
    path = _write(tmp_path / "inst.json", inst.to_json())
    mu = _write(tmp_path / "mu.json", {"assignment": [True]})
    assert main(["verify", path, mu]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["violation"]["kind"] == "range"


def test_solve_greedy_with_zero_capacity_firm(tmp_path, capsys):
    """A capacity-0 firm never counts as an empty firm greedy must fill;
    it keeps the optimum at 0, so any feasible matching is correct."""
    path = tmp_path / "zero_cap.json"
    path.write_text(json.dumps({"m": 2, "n": 2, "capacities": [2, 0],
                                "worker_vals": [[5, 4], [5, 4]],
                                "firm_vals": [[3, 4], [5, 2]]}))
    assert main(["solve", str(path), "--algo", "greedy"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["status"] == "zero-optimum"
    assert record["matching"] == [0, 0]


HUGE = 10 ** 400


def _strict_json(text: str):
    """json.loads that rejects NaN and Infinity, which are not JSON."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("algo", ["oracle", "dp", "cap1", "greedy"])
def test_solve_welfare_past_float_range_is_null(tmp_path, capsys, algo):
    """One worker and one firm that value each other 10^400: the welfare,
    10^400, exceeds the float range, so it is null and solve exits 0."""
    path = _write(tmp_path / "huge.json", Instance.create((1,), [[HUGE]], [[HUGE]]).to_json())
    assert main(["solve", path, "--algo", algo]) == 0
    record = _strict_json(capsys.readouterr().out)
    assert record["status"] == "ok" and record["nash_product"] == str(HUGE ** 2)
    assert record["nash_welfare"] is None


def test_verify_and_bench_welfare_past_float_range(tmp_path, capsys):
    """verify reports the 10^400 welfare as null, and bench as an empty
    CSV field beside an exact ratio of 1.0; both exit 0."""
    path = _write(tmp_path / "huge.json", Instance.create((1,), [[HUGE]], [[HUGE]]).to_json())
    assert main(["verify", path, _write(tmp_path / "mu.json", {"assignment": [0]})]) == 0
    report = _strict_json(capsys.readouterr().out)
    assert report["ok"] and report["nash_product"] == str(HUGE ** 2)
    assert report["nash_welfare"] is None
    suite = {"instances": [{"id": "huge", "kind": "file", "path": path}],
             "algos": [{"name": name} for name in ("oracle", "dp", "cap1", "greedy")]}
    assert main(["bench", _write(tmp_path / "suite.json", suite)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == CSV_HEADER and len(rows) == 5
    for row in rows[1:]:
        fields = row.split(",")
        assert fields[3] == "ok" and fields[5] == str(HUGE ** 2)
        assert fields[6] == "" and fields[7] == "1.0"


def test_equal_products_report_equal_welfare(tmp_path, capsys):
    """Both perfect matchings here have product 10, from the utilities
    (2, 5, 1, 1) and (10, 1, 1, 1); the welfare is a function of the
    product alone, so they report the same one, as does the oracle."""
    inst = Instance.create((1, 1), [[2, 10], [1, 5]], [[1, 1], [1, 1]])
    path = _write(tmp_path / "inst.json", inst.to_json())
    welfare = set()
    for assignment in ([0, 1], [1, 0]):
        assert main(["verify", path, _write(tmp_path / "mu.json",
                                            {"assignment": assignment})]) == 0
        report = _strict_json(capsys.readouterr().out)
        assert report["nash_product"] == "10"
        welfare.add(report["nash_welfare"])
    welfare.add(run_algo("oracle", inst)["nash_welfare"])
    assert len(welfare) == 1 and math.isclose(welfare.pop(), 10 ** 0.25)
