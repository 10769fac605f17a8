"""Metamorphic tests: renumbering the workers and the firms of an instance
changes no exact solver's status or Nash product, nor the feasibility
verdict, multiplying one agent's values by c multiplies a positive optimum
by exactly c, and raising one value never lowers the optimum.  Neither
side needs an oracle, so the relations hold at any size."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from nswmatch.cli import run_algo
from nswmatch.core import Instance
from conftest import (
    planted_degree_two,
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


def scale_row(inst: Instance, side: str, i: int, c: int) -> Instance:
    """inst with worker i's values (side "worker") or firm i's values (side
    "firm") multiplied by c."""
    worker_vals = [list(row) for row in inst.worker_vals]
    firm_vals = [list(row) for row in inst.firm_vals]
    rows = worker_vals if side == "worker" else firm_vals
    rows[i] = [c * v for v in rows[i]]
    return Instance.create(inst.capacities, worker_vals, firm_vals)


# symbin's domain is 0/1 values, and feasible's verdict is checked below
SCALED = [algo for algo in DOMAINS if algo not in ("symbin", "feasible")]


@pytest.mark.parametrize("algo", SCALED)
@settings(max_examples=25, deadline=None)
@given(rng=st.randoms(use_true_random=False), c=st.sampled_from((2, 3, 2 ** 61 + 1)),
       side=st.sampled_from(("worker", "firm")))
def test_scaling_a_row_scales_the_optimum(algo, rng, c, side):
    """A positive matching gives the scaled agent c times its utility, so
    the optimum is multiplied by exactly c, and a zero optimum stays zero.
    A pair is skipped when scaling leaves the domain (buckets' distinct
    values) or a budget.  Values stay small before scaling, clear of the
    near-ties that cap1's and deg3cap2's rounded logs cannot decide."""
    inst = DOMAINS[algo](rng)
    i = rng.randrange(inst.m if side == "worker" else inst.n)
    scaled = scale_row(inst, side, i, c)
    before, after = run_algo(algo, inst, "1/2"), run_algo(algo, scaled, "1/2")
    if {before["status"], after["status"]} & {"infeasible-domain", "budget-exceeded"}:
        return
    assert int(after["nash_product"]) == c * int(before["nash_product"])
    assert run_algo("feasible", scaled)["feasible"] == run_algo("feasible", inst)["feasible"]


# the exact solvers with a domain of their own, and oracle and dp on any
# instance; deg2 on planted draws, as random_degree_two's optimum is
# mostly zero
RAISED = {
    "oracle": random_instance,
    "dp": random_instance,
    "buckets": random_instance,
    "cap1": _capacity_one,
    "deg2": planted_degree_two,
    "deg3cap2": random_degree3_cap2,
    "singlefirm": random_single_positive_firm,
}


@pytest.mark.parametrize("algo", RAISED)
@settings(max_examples=40, deadline=None)
@given(rng=st.randoms(use_true_random=False), raise_by=st.sampled_from((1, 3, 2 ** 61)),
       side=st.sampled_from(("worker", "firm")))
def test_raising_a_value_never_lowers_the_optimum(algo, rng, raise_by, side):
    """Each matching's product is a product of sums of nonnegative values,
    so raising one value, zero or not, lowers none of them, and the optimum
    cannot fall.  A pair is skipped when the raised instance leaves the
    solver's domain (a new edge past a degree bound, a second positive
    firm) or a budget."""
    inst = RAISED[algo](rng)
    worker_vals = [list(row) for row in inst.worker_vals]
    firm_vals = [list(row) for row in inst.firm_vals]
    rows = worker_vals if side == "worker" else firm_vals
    row = rng.choice(rows)
    row[rng.randrange(len(row))] += raise_by
    raised = Instance.create(inst.capacities, worker_vals, firm_vals)
    before, after = run_algo(algo, inst), run_algo(algo, raised)
    if {before["status"], after["status"]} & {"infeasible-domain", "budget-exceeded"}:
        return
    assert int(after["nash_product"]) >= int(before["nash_product"])
