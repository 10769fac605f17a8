"""Metamorphic relabelling tests: renumbering the workers and the firms of
an instance changes no exact solver's status or Nash product, nor the
feasibility verdict.  Neither side needs an oracle, so the relation holds
at any size."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from nswmatch.cli import run_algo
from nswmatch.core import Instance
from conftest import (
    random_degree3_cap2,
    random_degree_two,
    random_instance,
    random_single_positive_firm,
    random_symmetric_binary,
)


def _capacity_one(rng: random.Random) -> Instance:
    k = rng.randint(1, 6)
    return random_instance(rng, m=k, n=k, density=rng.choice([1.0, 0.6]), cap_hi=1)


# each registry entry that answers exactly, with a generator of its domain
DOMAINS = {
    "oracle": random_instance,
    "dp": random_instance,
    "dp2": random_instance,
    "fptas": random_instance,
    "buckets": random_instance,
    "cap1": _capacity_one,
    "symbin": random_symmetric_binary,
    "deg2": random_degree_two,
    "deg3cap2": random_degree3_cap2,
    "singlefirm": random_single_positive_firm,
    "feasible": lambda rng: random_instance(rng, density=0.5),
}


def relabel(inst: Instance, rng: random.Random) -> Instance:
    """inst with its workers and its firms renumbered at random."""
    workers = rng.sample(range(inst.m), inst.m)
    firms = rng.sample(range(inst.n), inst.n)
    return Instance.create([inst.capacities[f] for f in firms],
                           [[inst.worker_vals[w][f] for f in firms] for w in workers],
                           [[inst.firm_vals[f][w] for w in workers] for f in firms])


def _answer(algo: str, inst: Instance) -> dict:
    """The record's status and product; for feasible, whose witness is any
    nonzero matching, its status and verdict."""
    record = run_algo(algo, inst, "1/2")
    keys = ("status", "feasible") if algo == "feasible" else ("status", "nash_product")
    return {key: record[key] for key in keys}


@pytest.mark.parametrize("algo", DOMAINS)
@settings(max_examples=40, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_relabelling_keeps_status_and_product(algo, rng):
    inst = DOMAINS[algo](rng)
    assert _answer(algo, relabel(inst, rng)) == _answer(algo, inst)


@pytest.mark.xfail(strict=True, reason="cap1's matcher compares logs rounded to "
                   "2^-52, which cannot tell 10^18 from 10^18 + 1")
def test_cap1_relabelling_on_dense_near_ties():
    """Dense capacity-one instances with every value in 10^18..10^18 + 3:
    the exact optimum does not depend on the numbering."""
    rng = random.Random(16)
    for _ in range(20):
        k = rng.randint(5, 40)
        inst = Instance.create(
            [1] * k,
            [[rng.randint(10 ** 18, 10 ** 18 + 3) for _ in range(k)] for _ in range(k)],
            [[rng.randint(10 ** 18, 10 ** 18 + 3) for _ in range(k)] for _ in range(k)])
        assert _answer("cap1", relabel(inst, rng)) == _answer("cap1", inst)
