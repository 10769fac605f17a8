import math
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from nswmatch.core import (
    BudgetExceededError,
    Instance,
    Matching,
    UNMATCHED,
    nash_value,
    validate,
)
from nswmatch.exact import solve_dp
from nswmatch.generators import gen_random
from nswmatch.oracle import FIRMS_PER_UNIT, solve_bruteforce
from conftest import crossing_example, random_instance
import reference_oracle
from reference_oracle import exists_nonzero_bruteforce, solve_bruteforce_exact_loads


def exhaustive_best_product(inst: Instance) -> int:
    """Independent reference: try every assignment vector outright."""
    best = 0
    for assignment in product([UNMATCHED] + list(range(inst.n)), repeat=inst.m):
        mu = Matching.of(assignment)
        if validate(inst, mu) is None:
            best = max(best, nash_value(inst, mu).product)
    return best


def test_crossing_product():
    result = solve_bruteforce(crossing_example())
    assert result.value.product == 16
    assert result.best == Matching.of([1, 0])


def test_zero_forced():
    inst = Instance.create((1,), [[0]], [[5]])
    result = solve_bruteforce(inst)
    assert result.value.is_zero
    assert validate(inst, result.best) is None


def test_partition_example_product():
    from nswmatch.generators import gen_from_partition
    inst = gen_from_partition((1, 2, 3, 4)).instance
    assert solve_bruteforce(inst).value.product == 600


def test_matches_exhaustive_enumeration():
    rng = random.Random(5)
    for _ in range(60):
        inst = random_instance(rng, m=rng.randint(1, 5), n=rng.randint(1, 3),
                               density=0.7)
        assert solve_bruteforce(inst).value.product == exhaustive_best_product(inst)


def test_result_is_feasible_and_deterministic():
    rng = random.Random(9)
    for _ in range(30):
        inst = random_instance(rng, m=5, n=3, density=0.8)
        a = solve_bruteforce(inst)
        b = solve_bruteforce(inst)
        assert validate(inst, a.best) is None
        assert a.best == b.best and a.value.product == b.value.product


def test_budget():
    # ample capacity and all-positive values: 4^8 complete matchings
    inst = Instance.create((8,) * 4, [[1] * 4] * 8, [[1] * 8] * 4)
    with pytest.raises(BudgetExceededError):
        solve_bruteforce(inst, limit=3)


def test_stats_and_amgm_cut():
    """A symmetric 0/1 instance with slack capacities: 2.6 million complete
    matchings, no cut by the per-firm bound (a), and few enough nodes after
    the AM-GM bound (b)'s cuts to stay far under the default budget."""
    rows = [(1, 1, 0, 0), (0, 1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1),
            (1, 1, 1, 1), (1, 1, 1, 0), (1, 1, 1, 1), (1, 1, 0, 1), (1, 1, 1, 1),
            (1, 1, 1, 1), (0, 1, 1, 1)]
    inst = Instance.create((7, 7, 11, 12), rows, list(zip(*rows)))
    stats = {}
    result = solve_bruteforce(inst, stats=stats)
    assert result.value.product == solve_dp(inst)[1].product == 81
    assert stats["nodes"] == result.num_enumerated < 20_000
    assert stats["firm_cuts"] == 0 and stats["amgm_cuts"] > 0 and stats["empty_cuts"] > 0
    assert 0 < stats["leaves"] < stats["nodes"]
    # stats are filled when the budget is exceeded too
    stats = {}
    with pytest.raises(BudgetExceededError):
        solve_bruteforce(inst, limit=100, stats=stats)
    assert stats["nodes"] == 101


def test_budget_charges_wide_nodes():
    """With n firms a node costs 1 + n // FIRMS_PER_UNIT budget units:
    num_enumerated is the nodes entered times that, and the budget admits
    exactly num_enumerated.  Worker w values firms w and w + 1 (mod n), each
    of capacity 1, and is valued back, so the two rotations are the only
    positive matchings."""
    rng = random.Random(13)
    for n in (FIRMS_PER_UNIT, 2 * FIRMS_PER_UNIT + 1):
        ring = [(w, f) for w in range(n) for f in (w, (w + 1) % n)]
        worker_vals = [[0] * n for _ in range(n)]
        firm_vals = [[0] * n for _ in range(n)]
        for w, f in ring:
            worker_vals[w][f], firm_vals[f][w] = rng.randint(1, 5), rng.randint(1, 5)
        inst = Instance.create((1,) * n, worker_vals, firm_vals)
        stats = {}
        result = solve_bruteforce(inst, stats=stats)
        ref = reference_oracle.solve_bruteforce(inst)
        assert (result.best, result.value.product) == (ref.best, ref.value.product)
        assert result.value.product > 0
        units = result.num_enumerated
        assert units == (1 + n // FIRMS_PER_UNIT) * stats["nodes"]
        assert _outcome(inst, units) == (result.best, result.value.product, units)
        for limit in (units - 1, n // FIRMS_PER_UNIT):
            assert _outcome(inst, limit) == f"oracle enumeration budget {limit} exceeded"


def test_capacities_up_to_huge():
    """A firm's bound table holds at most one entry per worker that values
    the firm, whatever its capacity, and a slack past its end reads its
    last entry: capacities from that count of workers up to 10^12 and 2^70
    give the results of exhaustive search, and of dp at m = 17."""
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 3)
        inst = random_instance(rng, m=rng.randint(2, 8), n=n, density=0.8)
        valuing = [sum(row[f] > 0 for row in inst.worker_vals) for f in range(n)]
        caps = [rng.choice([k + rng.randint(0, 2), 10 ** 12, 2 ** 70]) for k in valuing]
        inst = Instance.create(caps, inst.worker_vals, inst.firm_vals)
        ref = reference_oracle.solve_bruteforce(inst)
        result = solve_bruteforce(inst)
        assert (result.best, result.value.product) == (ref.best, ref.value.product)
    m = 17
    inst = random_instance(rng, m=m, n=2, density=0.8)
    inst = Instance.create((m, m + 2), inst.worker_vals, inst.firm_vals)
    assert solve_bruteforce(inst).value.product == solve_dp(inst)[1].product


def test_empty_firm_cut():
    """Dense m = n = 8: a node with more empty firms than workers left has
    product zero.  Without that cut the search entered 399 862 nodes here,
    316 265 of them leaves."""
    inst = random_instance(random.Random(13), m=8, n=8, density=1.0)
    stats = {}
    result = solve_bruteforce(inst, stats=stats)
    assert result.value.product == solve_dp(inst)[1].product > 0
    assert stats["empty_cuts"] > 0
    assert stats["nodes"] < 40_000


@pytest.mark.parametrize("m", [16, 18])
def test_matches_dp_past_exhaustive_reach(m):
    """Dense n = 3 instances with capacities ceil(m/3), where enumerating
    every complete matching exceeds the default budget: the oracle agrees
    with dp.  (Seed 0 is left out only for dp's time, about 5 s at
    m = 18.)"""
    for seed in (1, 2):
        inst = gen_random(m, 3, [-(-m // 3)] * 3, 5, 1.0, seed).instance
        result = solve_bruteforce(inst)
        assert validate(inst, result.best) is None
        assert result.value.product == solve_dp(inst)[1].product


def test_exists_nonzero():
    pigeon = Instance.create((1,), [[1], [1]], [[1, 1]])
    assert exists_nonzero_bruteforce(pigeon) == (False, None)
    ok, witness = exists_nonzero_bruteforce(crossing_example())
    assert ok and nash_value(crossing_example(), witness).product > 0
    allzero = Instance.create((1,), [[0]], [[0]])
    assert exists_nonzero_bruteforce(allzero)[0] is False


def test_exact_loads_reference():
    inst = crossing_example()
    res = solve_bruteforce_exact_loads(inst, (1, 1))
    assert res is not None and res[1].product == 16
    # both workers at f1 zeroes w1's utility; no positive candidate
    assert solve_bruteforce_exact_loads(inst, (2, 0)) is None
    # load total differs from m
    assert solve_bruteforce_exact_loads(inst, (1, 2)) is None


@st.composite
def oracle_instances(draw):
    """Small instances for the oracle and its recursive reference: m = 1,
    m < n, zero capacities, total capacity below m, all-zero worker and
    firm rows, exact ties and values up to 10^30.  The twins shape copies
    most workers' value rows and firm-value columns from earlier workers,
    so twin classes, and ties between twins, are common."""
    n = draw(st.integers(1, 4))
    shape = draw(st.sampled_from(["any", "m_below_n", "one_worker", "twins"]))
    m = {"m_below_n": max(1, n - 1), "one_worker": 1}.get(shape, draw(st.integers(1, 7)))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    base = rng.choice([1, 2, rng.randint(2 ** 53, 10 ** 30)])
    pool = draw(st.sampled_from([
        [0, base, base, 2 * base],          # exact ties
        [0, base, base + 1, base + 2],      # near-ties
        [0] + [rng.randint(1, 10 ** 30) for _ in range(3)],
        [1, 2, 3],
    ]))
    caps = [rng.randint(0, 3) for _ in range(n)]
    worker_vals = [[rng.choice(pool) for _ in range(n)] for _ in range(m)]
    firm_vals = [[rng.choice(pool) for _ in range(m)] for _ in range(n)]
    if rng.random() < 0.2:
        worker_vals[rng.randrange(m)] = [0] * n
    if rng.random() < 0.2:
        firm_vals[rng.randrange(n)] = [0] * m
    if rng.random() < 0.2:
        caps[rng.randrange(n)] = 0
    if shape == "twins":
        for w in range(1, m):
            if rng.random() < 0.7:
                twin = rng.randrange(w)
                worker_vals[w] = list(worker_vals[twin])
                for col in firm_vals:
                    col[w] = col[twin]
    return Instance.create(caps, worker_vals, firm_vals)


def _outcome(inst, limit):
    try:
        result = solve_bruteforce(inst, limit=limit)
    except BudgetExceededError as exc:
        return str(exc)
    return result.best, result.value.product, result.num_enumerated


@settings(max_examples=400, deadline=None)
@given(oracle_instances())
def test_matches_recursive_reference(inst):
    """The branch and bound returns the exhaustive recursive form's matching
    and product; its budget admits exactly the units it reports spending."""
    ref = reference_oracle.solve_bruteforce(inst)
    result = solve_bruteforce(inst)
    assert (result.best, result.value.product) == (ref.best, ref.value.product)
    nodes = result.num_enumerated
    assert _outcome(inst, nodes) == (ref.best, ref.value.product, nodes)
    for limit in (nodes - 1, 0):
        assert _outcome(inst, limit) == f"oracle enumeration budget {limit} exceeded"


@pytest.mark.parametrize("signatures", [1, 2])
def test_twins_search_each_count_vector_once(signatures):
    """m = 14 workers of one or two signatures, n = 3, capacities 5: twins
    take their firms in non-decreasing order, so the leaves are at most
    the count vectors, C(14 / signatures + 2, 2) per signature, where the
    assignments number 3^14."""
    m, n = 14, 3
    rng = random.Random(f"twins-{signatures}-(5, 5, 5)")
    rows = [[rng.randint(1, 5) for _ in range(n)] for _ in range(signatures)]
    cols = [[rng.randint(1, 5) for _ in range(n)] for _ in range(signatures)]
    inst = Instance.create((5,) * n, [rows[w % signatures] for w in range(m)],
                           [[cols[w % signatures][f] for w in range(m)] for f in range(n)])
    stats = {}
    result = solve_bruteforce(inst, stats=stats)
    assert 0 < stats["leaves"] <= math.comb(m // signatures + n - 1, n - 1) ** signatures
    assert result.value.product == solve_dp(inst)[1].product > 0
