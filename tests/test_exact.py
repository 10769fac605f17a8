import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

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
from nswmatch.generators import gen_random
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


@pytest.mark.xfail(strict=True, reason="the matcher compares logs rounded to "
                   "2^-52, which cannot tell 10^18 from 10^18 + 1")
def test_capacity_one_near_tie():
    """Worker 0 values the firms 10^18 and 10^18 + 1, and the firm-swapped
    mirror: both have the same rounded logs, so a matcher that decides by
    them returns the same mate on both and is wrong on one, whichever way
    it breaks the tie."""
    near = [10 ** 18, 10 ** 18 + 1]
    for row in (near, near[::-1]):
        inst = Instance.create((1, 1), [row, [1, 1]], [[1, 1], [1, 1]])
        assert check_optimal(inst, solve_capacity_one).product == 10 ** 18 + 1


# values: zero, small and up to 10^30
_EDGE_VALUES = st.one_of(st.just(0), st.integers(1, 3), st.integers(1, 10 ** 30))


@st.composite
def _capacity_one_rows(draw):
    """Workers whose rows value no firm, one firm, some or all of them, and
    firm rows that may be 0 where the worker's value is not."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    positive = st.integers(1, 10 ** 30)
    worker_vals = []
    for _w in range(m):
        kind = draw(st.sampled_from(["none", "one", "some", "all"]))
        if kind == "none":
            row = [0] * n
        elif kind == "one":
            row = [0] * n
            row[draw(st.integers(0, n - 1))] = draw(positive)
        else:
            values = positive if kind == "all" else _EDGE_VALUES
            row = draw(st.lists(values, min_size=n, max_size=n))
        worker_vals.append(row)
    firm_vals = draw(st.lists(st.lists(_EDGE_VALUES, min_size=m, max_size=m),
                              min_size=n, max_size=n))
    return Instance.create([1] * n, worker_vals, firm_vals)


@settings(max_examples=200, deadline=None)
@given(_capacity_one_rows())
def test_positive_products_equal_the_double_loop(inst):
    assert _edge_rows(inst) == _double_loop(inst)


def _edge_rows(inst):
    """_positive_products as (firm, product) lists per worker; its product
    rows are lazy maps, read here once, and each has as many items as the
    row's firm ids."""
    ids, weights = exact._positive_products(inst)
    weights = [list(ws) for ws in weights]
    assert all(len(near) == len(ws) for near, ws in zip(ids, weights))
    return [list(zip(near, ws)) for near, ws in zip(ids, weights)]


def _double_loop(inst):
    return [[(c, inst.worker_vals[r][c] * inst.firm_vals[c][r]) for c in range(inst.n)
             if inst.worker_vals[r][c] * inst.firm_vals[c][r] > 0] for r in range(inst.m)]


def test_positive_products_rows_by_kind():
    """Three workers: one valued back by only some of the firms it values,
    one that values exactly one firm, and one that values none, so cap1,
    which needs a perfect matching, returns zero."""
    big = 10 ** 30
    worker_vals = [[3, big, 2], [0, 7, 0], [0, 0, 0]]
    firm_vals = [[0, 1, 1], [5, 2, 1], [4, 0, 1]]
    inst = Instance.create([1, 1, 1], worker_vals, firm_vals)
    assert _edge_rows(inst) == _double_loop(inst) == [[(1, 5 * big), (2, 8)], [(1, 14)], []]
    mu, value = solve_capacity_one(inst)
    assert value.is_zero and validate(inst, mu) is None


def _degree3_cap2(seed: int, n: int, v_max: int) -> Instance:
    """m = 2n workers, capacities 2: each firm values a planted pair of
    workers plus one random worker, and they it, with values 1..v_max."""
    rng = random.Random(seed)
    m = 2 * n
    perm = list(range(m))
    rng.shuffle(perm)
    worker_vals = [[0] * n for _ in range(m)]
    firm_vals = [[0] * m for _ in range(n)]
    for f in range(n):
        for w in {perm[2 * f], perm[2 * f + 1], rng.randrange(m)}:
            worker_vals[w][f] = rng.randint(1, v_max)
            firm_vals[f][w] = rng.randint(1, v_max)
    return Instance.create([2] * n, worker_vals, firm_vals)


# sha256 of each record's [matching, nash_product] as JSON; values 1..3 and
# 1..2 tie often, so a changed tie-break in the matcher moves a mate here
_PINNED = [
    ("cap1", lambda: gen_random(200, 200, [1] * 200, 3, 1.0, 1).instance,
     "2ed04c461e5f95a6f425c18a5c053a7f57bae447c8467f7e309d3a15cd1ea5a4"),
    ("cap1", lambda: gen_random(250, 250, [1] * 250, 10 ** 6, 0.9, 2).instance,
     "8e0b8c71166697bd965a8e7e3880d95a3a0b96d70894a5f95738b218398d9f7a"),
    # dense, values 1..5: the seed leaves vertices single whose searches
    # settle 116 vertices, over rows that list every firm in order
    ("cap1", lambda: gen_random(300, 300, [1] * 300, 5, 1.0, 3).instance,
     "d2a80b488d67503ed55724fb078cc0fed2ff3149128471ef0e39468750ac8111"),
    ("deg3cap2", lambda: _degree3_cap2(3, 100, 2),
     "0356024bde5790ca7dd62e1c0bc25783026a76b009d1cff20aa5a248c345abd2"),
    ("deg3cap2", lambda: _degree3_cap2(4, 150, 5),
     "b3d778f9bbf9bee277eba26aa63cfaac2a8b0ab97e8b35d05643c30b2bb9e888"),
]


@pytest.mark.parametrize("algo, build, digest", _PINNED,
                         ids=["cap1-200-tied", "cap1-250", "cap1-300-searched",
                              "deg3cap2-300-tied", "deg3cap2-450"])
def test_matcher_records_are_pinned(algo, build, digest):
    """cap1 and deg3cap2 at 200 to 600 agents return pinned matchings and
    products, so a speed-up of the edge builder, the log mapping, the
    matcher's seed or its searches that moves a single mate fails here."""
    record = run_algo(algo, build())
    assert record["status"] == "ok"
    got = json.dumps([record["matching"], record["nash_product"]]).encode()
    assert hashlib.sha256(got).hexdigest() == digest


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
