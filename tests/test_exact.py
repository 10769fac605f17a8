import random

import pytest

from nswmatch.core import (
    BudgetExceededError,
    DomainError,
    Instance,
    nash_value,
    validate,
)
from nswmatch.exact import (
    solve_capacity_one,
    solve_dp,
    solve_dp_bounded_capacity,
    solve_exact_bucketing,
)
from nswmatch.oracle import solve_bruteforce
from conftest import crossing_example, random_instance


def check_optimal(inst, solver, **kw):
    mu, value = solver(inst, **kw)
    assert validate(inst, mu) is None
    assert nash_value(inst, mu).product == value.product
    assert value.product == solve_bruteforce(inst).value.product
    return value


def test_capacity_one_crossing():
    value = check_optimal(crossing_example(), solve_capacity_one)
    assert value.product == 16


def test_capacity_one_rejects_other_capacities():
    inst = Instance.create((2,), [[1]], [[1]])
    with pytest.raises(DomainError):
        solve_capacity_one(inst)


def test_capacity_one_zero_optimum():
    # two workers both need the single unit of the only valued firm
    inst = Instance.create((1, 1), [[1, 0], [1, 0]], [[1, 1], [0, 0]])
    mu, value = solve_capacity_one(inst)
    assert value.is_zero and validate(inst, mu) is None


def test_capacity_one_random_agreement():
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(1, 4)
        inst = random_instance(rng, m=rng.randint(1, 6), n=n, cap_hi=1,
                               density=0.7)
        check_optimal(inst, solve_capacity_one)


def test_dp_crossing():
    assert check_optimal(crossing_example(), solve_dp).product == 16


def test_dp_budget():
    inst = random_instance(random.Random(0), m=21, n=2)
    with pytest.raises(BudgetExceededError):
        solve_dp(inst)


def test_dp_oracle_agreement_suite():
    rng = random.Random(37)
    for _ in range(200):
        inst = random_instance(rng, density=rng.choice([0.4, 0.7, 1.0]))
        check_optimal(inst, solve_dp)


def test_dp_bounded_capacity_matches_dp():
    rng = random.Random(41)
    for _ in range(120):
        inst = random_instance(rng, cap_hi=3, density=0.7)
        a = solve_dp(inst)
        b = solve_dp_bounded_capacity(inst)
        assert a[1].product == b[1].product


def test_dp_bounded_capacity_rejects_large_capacity():
    inst = Instance.create((9,), [[1]], [[1]])
    with pytest.raises(DomainError):
        solve_dp_bounded_capacity(inst)


def test_dp_bounded_agrees_with_capacity_one():
    rng = random.Random(43)
    for _ in range(40):
        inst = random_instance(rng, m=rng.randint(1, 5), n=rng.randint(1, 4),
                               cap_hi=1, density=0.8)
        a = solve_dp_bounded_capacity(inst)
        b = solve_capacity_one(inst)
        assert a[1].product == b[1].product


def test_exact_bucketing_single_firm_equals_dp():
    rng = random.Random(47)
    for _ in range(40):
        inst = random_instance(rng, n=1, m=rng.randint(1, 6), density=0.8)
        assert solve_exact_bucketing(inst)[1].product == solve_dp(inst)[1].product


def test_exact_bucketing_oracle_agreement():
    rng = random.Random(53)
    for _ in range(120):
        inst = random_instance(rng, n=rng.randint(1, 3),
                               density=rng.choice([0.5, 1.0]))
        check_optimal(inst, solve_exact_bucketing)


def test_exact_bucketing_domain_checks():
    rng = random.Random(59)
    wide = random_instance(rng, m=3, n=4)
    with pytest.raises(DomainError):
        solve_exact_bucketing(wide, max_firms=3)
    many_values = Instance.create(
        (3,), [[1], [2], [3]], [[4, 5, 6]])
    with pytest.raises(DomainError):
        solve_exact_bucketing(many_values, max_distinct_values=3)


def test_solvers_zero_optimum_return_feasible_matching():
    inst = Instance.create((1, 1), [[0, 0]], [[1], [1]])
    for solver in (solve_dp, solve_dp_bounded_capacity, solve_exact_bucketing,
                   solve_capacity_one):
        mu, value = solver(inst)
        assert value.is_zero
        assert validate(inst, mu) is None
