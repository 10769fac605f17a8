import dataclasses
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nswmatch import core
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


# zero, small and past 2^53, where a float would lose the value
_VALUES = st.one_of(st.just(0), st.integers(1, 3), st.integers(2 ** 53, 2 ** 64))


@st.composite
def _instances(draw):
    """m = 1..5 workers, n = 1..4 firms, capacities from 0 and rows that
    may be all zero."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 4))

    def rows(count, width):
        row = st.one_of(st.just([0] * width), st.lists(_VALUES, min_size=width,
                                                         max_size=width))
        return draw(st.lists(row, min_size=count, max_size=count))

    caps = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return Instance.create(caps, rows(m, n), rows(n, m))


@settings(max_examples=100, deadline=None)
@given(_instances())
def test_valued_views_match_the_dense_rows(inst):
    fresh = Instance.create(inst.capacities, inst.worker_vals, inst.firm_vals)
    assert inst.valued_firms == tuple(
        tuple(f for f in range(inst.n) if inst.worker_vals[w][f] > 0) for w in range(inst.m))
    assert inst.valued_workers == tuple(
        tuple(w for w in range(inst.m) if inst.firm_vals[f][w] > 0) for f in range(inst.n))
    # the cached views are no fields: equality, hash and JSON are unchanged
    assert inst == fresh and hash(inst) == hash(fresh)
    assert inst.to_json() == fresh.to_json()
    assert [field.name for field in dataclasses.fields(Instance)] == [
        "capacities", "worker_vals", "firm_vals"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        inst.valued_firms = ()


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


# --- the product tree and the all-matched utilities ------------------------

# lengths 0..3000, drawn often at the tree's base-case boundary and its doubles
_LEAF = core._PRODUCT_LEAF
_LENGTHS = st.one_of(st.integers(0, 3000),
                     st.sampled_from([0, 1, 2, _LEAF - 1, _LEAF, _LEAF + 1,
                                      2 * _LEAF, 2 * _LEAF + 1, 4 * _LEAF + 3]))


@settings(max_examples=150, deadline=None)
@given(_LENGTHS, st.integers(0, 2 ** 32), st.sampled_from(["ones", "small", "big", "zeros"]))
def test_product_tree_equals_math_prod(length, seed, kind):
    rng = random.Random(seed)
    top = 10 ** 30 if kind == "big" else 5
    factors = [1 if kind == "ones" else rng.randint(1, top) for _ in range(length)]
    if kind == "zeros" and factors:
        for _ in range(rng.randint(1, 3)):
            factors[rng.randrange(length)] = 0
    assert core._product_tree(factors) == math.prod(factors)
    assert core._product_tree(tuple(factors)) == math.prod(factors)


def _utilities_by_loop(inst, mu):
    """all_utilities as one loop over every worker, matched or not."""
    firm_sums = [0] * inst.n
    worker_utils = [0] * inst.m
    for w, f in enumerate(mu.assignment):
        if f is not UNMATCHED:
            worker_utils[w] = inst.worker_vals[w][f]
            firm_sums[f] += inst.firm_vals[f][w]
    return worker_utils + firm_sums


@settings(max_examples=200, deadline=None)
@given(_instances(), st.data())
def test_all_utilities_equals_the_loop(inst, data):
    """With or without UNMATCHED entries, and whatever the loads."""
    firm = st.integers(0, inst.n - 1)
    if data.draw(st.booleans()):
        firm = st.one_of(st.none(), firm)
    assignment = data.draw(st.lists(firm, min_size=inst.m, max_size=inst.m))
    mu = Matching.of(assignment)
    utils = all_utilities(inst, mu)
    assert utils == _utilities_by_loop(inst, mu)
    assert nash_value(inst, mu).product == math.prod(utils)
