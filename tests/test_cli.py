import json

import pytest

from nswmatch.cli import CSV_HEADER, SOLVERS, build_parser, main, run_algo
from nswmatch.core import Instance
from conftest import crossing_example


def write_crossing(tmp_path):
    path = tmp_path / "crossing.json"
    path.write_text(json.dumps(crossing_example().to_json()))
    return str(path)


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


def test_generate_bad_kind(tmp_path):
    assert main(["generate", "--kind", "nonsense"]) == 2


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


def test_solve_bad_eps(tmp_path):
    path = write_crossing(tmp_path)
    assert main(["solve", path, "--algo", "qptas", "--eps", "0/1"]) == 2


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
    extra = {"fptas": {"level"}, "feasible": {"feasible"}}
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
    "string_capacity", "float_capacity", "bool_valuation", "matching_without_assignment",
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
    }
    if case == "missing_instance" or case in bad_instances:
        path = str(tmp_path / "absent.json")
        if case in bad_instances:
            path = _write(tmp_path / "bad.json", bad_instances[case])
        commands = [["solve", path, "--algo", "dp"], ["verify", path, mu]]
    elif case == "matching_without_assignment":
        commands = [["verify", good, _write(tmp_path / "bad.json", {"match": [1, 0]})]]
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
