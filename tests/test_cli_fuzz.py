"""The CLI's exit-code contract under malformed input: `bench` on a suite
file and `solve` on an instance file with one field set to an arbitrary
JSON value (or removed) exit 0, 2, 3 or 4 and never raise."""

import json

from hypothesis import HealthCheck, given, settings, strategies as st

from nswmatch.cli import SOLVERS, main
from conftest import crossing_example

EXIT_CODES = (0, 2, 3, 4)
REMOVED = object()

# small ints only: a valid size field must not build a large instance
scalars = (st.none() | st.booleans() | st.integers(-2, 6)
           | st.floats(-10, 10, allow_nan=False)
           | st.sampled_from([*SOLVERS, "1/2", "1/0", "0", "", "random",
                              "partition", "file", "p"])
           | st.text(max_size=4))
json_values = st.recursive(
    scalars,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=3), kids,
                                                              max_size=3),
    max_leaves=8)
new_values = json_values | st.just(REMOVED)


def _suite(instance_path: str) -> dict:
    return {
        "instances": [
            {"id": "r", "kind": "random", "m": 3, "n": 2, "capacities": [2, 2],
             "v_max": 4, "density": 0.8, "seed": 1},
            {"id": "p", "kind": "partition", "a": [1, 2, 3, 4], "strict": False},
            {"id": "f", "kind": "file", "path": instance_path},
        ],
        "algos": [{"name": "oracle"}, {"name": "dp"}, {"name": "fptas", "eps": "1/2"}],
    }


def _set(obj: dict, key, value) -> None:
    if value is REMOVED:
        obj.pop(key, None)
    else:
        obj[key] = value


def _field(spec: dict, data):
    """A dict inside spec and one key of it, or a new key."""
    holders = [spec, *spec["instances"], *spec["algos"]]
    holder = data.draw(st.sampled_from(holders))
    return holder, data.draw(st.sampled_from([*holder, "extra"]))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data(), new_values)
def test_bench_mutated_suite_exit_code(tmp_path, data, value):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(crossing_example().to_json()))
    spec = _suite(str(inst_path))
    holder, key = _field(spec, data)
    _set(holder, key, value)
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps(spec))
    assert main(["bench", str(suite), "--out", str(tmp_path / "out.csv")]) in EXIT_CODES


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(list(SOLVERS)), st.sampled_from([None, "1/2", "1/0", "0", "x"]),
       st.sampled_from(["m", "n", "capacities", "worker_vals", "firm_vals", "extra"]),
       new_values)
def test_solve_mutated_instance_exit_code(tmp_path, algo, eps, key, value):
    obj = crossing_example().to_json()
    _set(obj, key, value)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(obj))
    argv = ["solve", str(path), "--algo", algo] + ([] if eps is None else ["--eps", eps])
    assert main(argv) in EXIT_CODES
