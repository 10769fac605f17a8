import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nswmatch.cli import nash_welfare
from nswmatch.core import (
    Instance,
    Matching,
    UNMATCHED,
    all_utilities,
    firm_bundle_value,
    nash_value,
    utilitarian_welfare,
    validate,
)
from conftest import binarize, crossing_example, random_instance

CROSS = Matching.of([1, 0])      # w1 -> f2, w2 -> f1 (the optimum)
STRAIGHT = Matching.of([0, 1])   # w1 -> f1, w2 -> f2


def test_instance_validation():
    with pytest.raises(ValueError):
        Instance.create((1,), [[1], [1]], [[1]])  # firm_vals wrong shape
    with pytest.raises(ValueError):
        Instance.create((1, 1), [[1, -1]], [[1], [1]])  # negative value
    with pytest.raises(ValueError):
        Instance.create((1,), [], [[]])  # no workers
    with pytest.raises(ValueError):
        Instance.create((1, 1), [[1, 0.5]], [[1], [1]])  # non-integer


def test_worker_utility_crossing():
    inst = crossing_example()
    assert all_utilities(inst, CROSS)[:2] == [2, 2]
    assert all_utilities(inst, Matching.of([UNMATCHED, 0]))[:2] == [0, 2]
    assert all_utilities(inst, STRAIGHT)[:2] == [0, 0]


def test_firm_utility():
    inst = crossing_example()
    assert all_utilities(inst, CROSS)[2:] == [2, 2]
    assert all_utilities(inst, Matching.of([UNMATCHED, UNMATCHED]))[2:] == [0, 0]
    two = Instance.create((2,), [[1], [1]], [[3, 5]])
    assert all_utilities(two, Matching.of([0, 0])) == [1, 1, 8]


def test_nash_value_crossing():
    inst = crossing_example()
    value = nash_value(inst, CROSS)
    assert value.product == 16
    assert math.isclose(nash_welfare(value.product, inst.m + inst.n), 2.0, rel_tol=1e-9)
    assert nash_value(inst, Matching.of([UNMATCHED, 0])).is_zero
    assert nash_welfare(0, inst.m + inst.n) == 0.0
    tiny = Instance.create((1,), [[1]], [[1]])
    tv = nash_value(tiny, Matching.of([0]))
    assert tv.product == 1 and nash_welfare(tv.product, 2) == 1.0


def test_utilitarian_welfare():
    inst = crossing_example()
    assert utilitarian_welfare(inst, CROSS) == 8
    assert utilitarian_welfare(inst, Matching.of([UNMATCHED, UNMATCHED])) == 0


def test_firm_bundle_value():
    assert firm_bundle_value(crossing_example(), 0, []) == 0
    one = Instance.create((1,), [[2]], [[3]])
    assert firm_bundle_value(one, 0, [0]) == 6
    two = Instance.create((2,), [[2], [2]], [[1, 2]])
    assert firm_bundle_value(two, 0, [0, 1]) == 12


def test_validate():
    inst = crossing_example()
    assert validate(inst, CROSS) is None
    over = Matching.of([0, 0])
    violation = validate(inst, over)
    assert violation is not None and violation.kind == "capacity"
    bad = Matching.of([7, 0])
    assert validate(inst, bad).kind == "range"
    assert validate(inst, Matching.of([0])).kind == "shape"


def test_binarize():
    inst = Instance.create((1, 1), [[0, 2], [1, 0]], [[3, 0], [0, 2]])
    b = binarize(inst)
    assert b.worker_vals == ((0, 1), (1, 0))
    assert b.firm_vals == ((1, 0), (0, 1))
    assert binarize(b) == b


def test_binarize_preserves_zero_status():
    rng = random.Random(11)
    for _ in range(50):
        inst = random_instance(rng, m=4, n=2, density=0.6)
        b = binarize(inst)
        for assignment in _some_matchings(inst, rng):
            mu = Matching.of(assignment)
            if validate(inst, mu) is not None:
                continue
            assert nash_value(inst, mu).is_zero == nash_value(b, mu).is_zero


def _some_matchings(inst, rng):
    out = []
    for _ in range(10):
        out.append([rng.choice([UNMATCHED] + list(range(inst.n)))
                    for _ in range(inst.m)])
    return out


def test_json_round_trip(tmp_path):
    inst = crossing_example()
    obj = inst.to_json()
    assert Instance.from_json(json.loads(json.dumps(obj))) == inst
    mu = CROSS
    assert Matching.from_json(json.loads(json.dumps(mu.to_json()))) == mu
    bad = dict(obj)
    bad["m"] = 3
    with pytest.raises(ValueError):
        Instance.from_json(bad)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.data())
def test_permutation_invariance(seed, data):
    rng = random.Random(seed)
    inst = random_instance(rng, m=rng.randint(1, 5), n=rng.randint(1, 3),
                           density=0.7)
    perm = list(range(inst.m))
    rng.shuffle(perm)
    relabeled = Instance.create(
        inst.capacities,
        [inst.worker_vals[perm[w]] for w in range(inst.m)],
        [[inst.firm_vals[f][perm[w]] for w in range(inst.m)] for f in range(inst.n)],
    )
    assignment = [rng.choice([UNMATCHED] + list(range(inst.n)))
                  for _ in range(inst.m)]
    mu = Matching.of(assignment)
    mu_rel = Matching.of([assignment[perm[w]] for w in range(inst.m)])
    assert nash_value(inst, mu).product == nash_value(relabeled, mu_rel).product


def test_positive_product_implies_all_matched():
    rng = random.Random(3)
    for _ in range(80):
        inst = random_instance(rng, m=4, n=2, density=0.7)
        for assignment in _some_matchings(inst, rng):
            mu = Matching.of(assignment)
            if validate(inst, mu) is not None:
                continue
            value = nash_value(inst, mu)
            utils = all_utilities(inst, mu)
            assert value.product == math.prod(utils)
            if value.product > 0:
                assert all(a is not UNMATCHED for a in mu.assignment)
                assert all(u >= 1 for u in utils)
                # AM-GM: arithmetic mean dominates the geometric mean
                mean = sum(utils) / len(utils)
                assert mean >= nash_welfare(value.product, len(utils)) - 1e-9
