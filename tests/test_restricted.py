import random

import pytest

from nswmatch.core import DomainError, Instance, nash_value, validate
from nswmatch.oracle import solve_bruteforce
from reference_oracle import solve_bruteforce_exact_loads
from nswmatch.restricted import (
    ExchangeGraph,
    solve_degree3_capacity2,
    solve_degree_two,
    solve_single_positive_firm,
    solve_symmetric_binary,
    symmetric_binary_iteration_cap,
)
from conftest import (
    random_degree3_cap2,
    random_degree_two,
    random_single_positive_firm,
    random_symmetric_binary,
)


# --- symmetric binary ------------------------------------------------------

def sym(caps, rows):
    m, n = len(rows), len(caps)
    return Instance.create(caps, rows, [[rows[w][f] for w in range(m)] for f in range(n)])


def test_symbin_example():
    # f1 adjacent to w1, w2, w3; f2 adjacent to w3 only; c = (2, 1)
    inst = sym((2, 1), [[1, 0], [1, 0], [1, 1]])
    mu, value = solve_symmetric_binary(inst)
    assert value.product == 2
    assert mu.assignment[2] == 1 and mu.assignment[0] == mu.assignment[1] == 0


def test_symbin_rejects_asymmetric():
    inst = Instance.create((1,), [[1]], [[0]])
    with pytest.raises(DomainError):
        solve_symmetric_binary(inst)
    nonbinary = Instance.create((1,), [[2]], [[2]])
    with pytest.raises(DomainError):
        solve_symmetric_binary(nonbinary)


def test_symbin_already_optimal_zero_iterations():
    inst = sym((1, 1), [[1, 0], [0, 1]])
    stats = {}
    _mu, value = solve_symmetric_binary(inst, stats=stats)
    assert value.product == 1
    assert stats["iterations"] == 0


def test_symbin_oracle_agreement_and_cap():
    rng = random.Random(61)
    for _ in range(200):
        inst = random_symmetric_binary(rng)
        stats = {}
        mu, value = solve_symmetric_binary(inst, stats=stats)
        assert validate(inst, mu) is None
        assert value.product == solve_bruteforce(inst).value.product
        cap = symmetric_binary_iteration_cap(inst.m, inst.n)
        assert stats["iterations"] <= cap


def test_exchange_graph_arcs():
    inst = sym((2, 1), [[1, 1], [1, 0]])
    from nswmatch.core import Matching
    mu = Matching.of([0, 0])
    g = ExchangeGraph.build(inst, mu)
    assert g.arcs[0][1] == (0,)   # only w0 is valued by f1
    assert g.arcs[1][0] == ()


# --- degree two ------------------------------------------------------------

def test_deg2_forced_edge():
    inst = Instance.create((1,), [[2]], [[3]])
    _mu, value = solve_degree_two(inst)
    assert value.product == 6


def test_deg2_doubled_firm():
    # path w1 - f1 - w2, all values 1, capacity 2: f1 takes both
    inst = Instance.create((2,), [[1], [1]], [[1, 1]])
    mu, value = solve_degree_two(inst)
    assert value.product == 2
    assert mu.assignment == (0, 0)
    # capacity 1 makes it infeasible to cover both workers
    tight = Instance.create((1,), [[1], [1]], [[1, 1]])
    assert solve_degree_two(tight)[1].is_zero


def test_deg2_four_cycle():
    inst = Instance.create(
        (1, 1),
        [[2, 3], [4, 5]],
        [[1, 6], [7, 2]],
    )
    _mu, value = solve_degree_two(inst)
    assert value.product == solve_bruteforce(inst).value.product


def test_deg2_rejects_high_degree():
    inst = Instance.create((1, 1, 1), [[1, 1, 1]], [[1], [1], [1]])
    with pytest.raises(DomainError):
        solve_degree_two(inst)


def test_deg2_oracle_agreement():
    rng = random.Random(67)
    for _ in range(200):
        inst = random_degree_two(rng)
        mu, value = solve_degree_two(inst)
        assert validate(inst, mu) is None
        assert value.product == solve_bruteforce(inst).value.product


# --- degree 3, exactly two workers per firm --------------------------------

def best_exact_two(inst):
    res = solve_bruteforce_exact_loads(inst, (2,) * inst.n)
    return 0 if res is None else res[1].product


def test_deg3cap2_forced_disjoint_pairs():
    inst = Instance.create(
        (2, 2),
        [[1, 0], [2, 0], [0, 3], [0, 1]],
        [[2, 1, 0, 0], [0, 0, 1, 2]],
    )
    res = solve_degree3_capacity2(inst)
    assert res is not None
    assert res[1].product == best_exact_two(inst)


def test_deg3cap2_reduction_rule():
    # f0 and f1 share neighbors w0, w1; privates w2 (f0) and w3 (f1)
    inst = Instance.create(
        (2, 2),
        [[1, 2], [3, 1], [2, 0], [0, 2]],
        [[1, 2, 3, 0], [2, 1, 0, 1]],
    )
    res = solve_degree3_capacity2(inst)
    ref = best_exact_two(inst)
    assert res is not None and res[1].product == ref


def test_deg3cap2_no_instance_on_shared_three():
    # two firms with an identical 3-neighborhood cannot both get 2 workers
    inst = Instance.create(
        (2, 2),
        [[1, 1], [1, 1], [1, 1], [0, 0]],
        [[1, 1, 1, 0], [1, 1, 1, 0]],
    )
    assert solve_degree3_capacity2(inst) is None
    assert best_exact_two(inst) == 0


def test_deg3cap2_rejects_high_degree():
    inst = Instance.create(
        (2,), [[1], [1], [1], [1]], [[1, 1, 1, 1]])
    with pytest.raises(DomainError):
        solve_degree3_capacity2(inst)


def test_deg3cap2_odd_worker_count_is_no_instance():
    inst = Instance.create((2,), [[1], [1], [1]], [[1, 1, 1]])
    assert solve_degree3_capacity2(inst) is None


def test_deg3cap2_oracle_agreement():
    rng = random.Random(71)
    for _ in range(150):
        inst = random_degree3_cap2(rng)
        res = solve_degree3_capacity2(inst)
        ref = best_exact_two(inst)
        if ref == 0:
            assert res is None
        else:
            assert res is not None
            assert res[1].product == ref
            assert validate(inst, res[0]) is None
            loads = [0] * inst.n
            for f in res[0].assignment:
                loads[f] += 1
            assert all(x == 2 for x in loads)


# --- single positive firm --------------------------------------------------

def test_singlefirm_forced():
    inst = Instance.create((1, 1), [[2, 0], [0, 3]], [[4, 0], [0, 5]])
    mu, value = solve_single_positive_firm(inst)
    assert mu.assignment == (0, 1)
    assert value.product == 2 * 3 * 4 * 5


def test_singlefirm_capacity_exceeded_is_zero():
    inst = Instance.create((1,), [[1], [1]], [[1, 1]])
    _mu, value = solve_single_positive_firm(inst)
    assert value.is_zero


def test_singlefirm_zero_firm_side():
    # the firm does not value its forced worker: product is zero but the
    # forced matching is still feasible and reported
    inst = Instance.create((2,), [[2], [2]], [[0, 0]])
    mu, value = solve_single_positive_firm(inst)
    assert value.is_zero
    assert validate(inst, mu) is None


def test_singlefirm_rejects_multi_positive():
    inst = Instance.create((1, 1), [[1, 1]], [[1], [1]])
    with pytest.raises(DomainError):
        solve_single_positive_firm(inst)


def test_singlefirm_oracle_agreement():
    rng = random.Random(73)
    for _ in range(150):
        inst = random_single_positive_firm(rng)
        _mu, value = solve_single_positive_firm(inst)
        assert value.product == solve_bruteforce(inst).value.product
