import random

import pytest

from nswmatch.core import (
    BudgetExceededError,
    DomainError,
    Instance,
    Matching,
    nash_value,
    validate,
)
from nswmatch import exact
from nswmatch.approx import qptas_bucketing
from nswmatch.cli import run_algo
from nswmatch.exact import solve_capacity_one, solve_dp, solve_exact_bucketing
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


def test_capacity_one_unequal_sides_skip_the_matching(monkeypatch):
    # m != n has no perfect matching: zero before any edge is built
    def no_matching(*_args):
        raise AssertionError("the matching ran")

    monkeypatch.setattr(exact, "max_weight_perfect_matching_general", no_matching)
    inst = Instance.create((1, 1), [[2, 3]], [[1], [4]])
    mu, value = solve_capacity_one(inst)
    assert value.is_zero and validate(inst, mu) is None


def test_capacity_one_random_agreement():
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(1, 4)
        inst = random_instance(rng, m=rng.randint(1, 6), n=n, cap_hi=1,
                               density=0.7)
        check_optimal(inst, solve_capacity_one)


def block_diagonal_capacity_one(rng):
    """Capacity 1 with two or three blocks of 1-3 workers and as many
    firms; workers and firms are shuffled, so blocks interleave.  Inside a
    block a pair may be valued by both sides, by one side only, or by
    neither; across blocks every value is 0."""
    sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 3))]
    k = sum(sizes)
    workers = rng.sample(range(k), k)
    firms = rng.sample(range(k), k)
    worker_vals = [[0] * k for _ in range(k)]
    firm_vals = [[0] * k for _ in range(k)]
    start = 0
    for size in sizes:
        for w in workers[start:start + size]:
            for f in firms[start:start + size]:
                kind = rng.choice("bbbbbbwwff.")  # both, worker, firm, none
                if kind in "bw":
                    worker_vals[w][f] = rng.randint(1, 5)
                if kind in "bf":
                    firm_vals[f][w] = rng.randint(1, 5)
        start += size
    return Instance.create([1] * k, worker_vals, firm_vals)


def test_capacity_one_block_diagonal():
    """cap1 against oracle where the graph splits into components and
    one-sided values give zero products, which must not become edges."""
    rng = random.Random(23)
    positive = 0
    for _ in range(300):
        value = check_optimal(block_diagonal_capacity_one(rng), solve_capacity_one)
        positive += value.product > 0
    assert positive > 50


@pytest.mark.xfail(strict=True, reason="the blossom compares logs rounded to "
                   "2^-52, which cannot tell 10^18 from 10^18 + 1")
def test_capacity_one_near_tie():
    inst = Instance.create((1, 1), [[10 ** 18, 10 ** 18 + 1], [1, 1]], [[1, 1], [1, 1]])
    assert check_optimal(inst, solve_capacity_one).product == 10 ** 18 + 1


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


def dp2_product(inst) -> int:
    record = run_algo("dp2", inst)
    assert record["status"] in ("ok", "zero-optimum"), record
    return int(record["nash_product"])


def test_dp_bounded_capacity_matches_dp():
    rng = random.Random(41)
    for _ in range(120):
        inst = random_instance(rng, cap_hi=3, density=0.7)
        assert dp2_product(inst) == solve_dp(inst)[1].product


def test_dp_bounded_capacity_rejects_large_capacity():
    inst = Instance.create((9,), [[1]], [[1]])
    record = run_algo("dp2", inst)
    assert record["status"] == "infeasible-domain"
    assert record["error"] == "capacity 9 exceeds constant bound 4"


def test_dp_bounded_agrees_with_capacity_one():
    rng = random.Random(43)
    for _ in range(40):
        inst = random_instance(rng, m=rng.randint(1, 5), n=rng.randint(1, 4),
                               cap_hi=1, density=0.8)
        assert dp2_product(inst) == solve_capacity_one(inst)[1].product


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
    assert exact.DEFAULT_BUCKET_FIRM_BOUND == 5 and exact.DEFAULT_BUCKET_VALUE_BOUND == 8
    check_optimal(random_instance(rng, m=3, n=5), solve_exact_bucketing)
    wide = random_instance(rng, m=3, n=6)
    # qptas shares the firm bound
    for solver, args in ((solve_exact_bucketing, ()), (qptas_bucketing, ("1/2",))):
        with pytest.raises(DomainError, match="n=6 exceeds firm bound 5"):
            solver(wide, *args)
    # eight distinct values pass, nine do not
    eight = Instance.create((4,), [[1], [2], [3], [4]], [[5, 6, 7, 8]])
    check_optimal(eight, solve_exact_bucketing)
    nine = Instance.create((5,), [[1], [2], [3], [4], [5]], [[6, 7, 8, 9, 1]])
    with pytest.raises(DomainError, match="9 distinct valuation levels exceed bound 8"):
        solve_exact_bucketing(nine)


def test_solvers_zero_optimum_return_feasible_matching():
    inst = Instance.create((1, 1), [[0, 0]], [[1], [1]])
    for solver in (solve_dp, solve_exact_bucketing, solve_capacity_one):
        mu, value = solver(inst)
        assert value.is_zero
        assert validate(inst, mu) is None
    record = run_algo("dp2", inst)
    assert record["status"] == "zero-optimum"
    assert validate(inst, Matching.of(record["matching"])) is None
