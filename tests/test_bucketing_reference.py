"""buckets and qptas against the plain searches in reference_bucketing.py.

Both solvers run the oracle's branch and bound (oracle.solve_bruteforce):
buckets with its default twin classes, so its answer is the oracle's,
and qptas with its bucket-signature groups as the classes.  The plain
copies score every guess of how many workers of each group go to each
firm, so they are the independent check of both: the same domain errors,
and the same product with a feasible matching that re-scores to it.  The
matching may differ among equal products, as the oracle breaks ties by
its own search order.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import reference_bucketing
from conftest import crossing_example
from nswmatch import oracle
from nswmatch.cli import run_algo
from nswmatch.approx import qptas_bucketing
from nswmatch.core import (BudgetExceededError, DomainError, Instance, Matching, NashValue,
                           nash_value, validate)
from nswmatch.exact import solve_dp, solve_exact_bucketing
from nswmatch.generators import gen_random
from nswmatch.oracle import solve_bruteforce
from reference_bucketing import plain_buckets, plain_qptas

BIG = 2 ** 53


def make_instance(rng: random.Random, shape: str) -> Instance:
    m = rng.randint(1, 8)
    n = rng.randint(1, 4)
    caps = [rng.randint(1, 4) for _ in range(n)]
    # few distinct values, so buckets' domain check passes most of the time
    pool = [0] + rng.sample(range(1, 6), 3)
    if shape == "big_values":
        pool = [0] + [BIG * rng.randint(2, 2 ** 10) + rng.randint(0, 9) for _ in range(3)]
    elif shape == "ties":
        pool = [0, 1, 1, 2]
    elif shape == "m_below_n":
        n = rng.randint(2, 5)
        m = rng.randint(1, n - 1)
        caps = [rng.randint(1, 3) for _ in range(n)]
    elif shape == "zero_capacity":
        caps = [rng.randint(0, 3) for _ in range(n)]
        caps[rng.randrange(n)] = 0
    elif shape == "five_firms":
        n = 5
        m = rng.randint(5, 7)
        caps = [rng.randint(1, 3) for _ in range(n)]
    worker_vals = [[rng.choice(pool) for _ in range(n)] for _ in range(m)]
    firm_vals = [[rng.choice(pool) for _ in range(m)] for _ in range(n)]
    return Instance.create(caps, worker_vals, firm_vals)


SHAPES = ["ties", "big_values", "m_below_n", "zero_capacity", "five_firms"]


def _outcome(solver, *args):
    try:
        mu, value = solver(*args)
    except (DomainError, BudgetExceededError) as exc:
        return type(exc).__name__, str(exc)
    return mu, value.product


def _oracle(inst):
    result = solve_bruteforce(inst)
    return result.best, result.value


def assert_agrees(inst, got, plain):
    """got, a solver's outcome, agrees with the plain search's: the same
    error, or the same product and a feasible matching re-scoring to it."""
    if not isinstance(plain[0], Matching):
        assert got == plain, inst
        return
    mu, product = got
    assert isinstance(mu, Matching) and product == plain[1], (inst, got, plain)
    assert validate(inst, mu) is None, inst
    assert nash_value(inst, mu).product == product, inst


def check_buckets(inst):
    """buckets agrees with plain_buckets, and in its domain its answer is
    the oracle's, matching and product."""
    got = _outcome(solve_exact_bucketing, inst)
    assert_agrees(inst, got, _outcome(plain_buckets, inst))
    if isinstance(got[0], Matching):
        assert got == _outcome(_oracle, inst), inst


def check_qptas(inst, eps):
    assert_agrees(inst, _outcome(qptas_bucketing, inst, eps), _outcome(plain_qptas, inst, eps))


@pytest.mark.parametrize("shape", SHAPES)
def test_buckets_matches_reference(shape):
    rng = random.Random(f"buckets-{shape}")
    for _ in range(60):
        check_buckets(make_instance(rng, shape))


@pytest.mark.parametrize("shape", SHAPES)
def test_qptas_matches_reference(shape):
    rng = random.Random(f"qptas-{shape}")
    for _ in range(60):
        inst = make_instance(rng, shape)
        check_qptas(inst, rng.choice(["1/7", "1/2", "1/1", "3/1"]))


@pytest.mark.parametrize("m, n, draws", [(12, 2, 40), (10, 3, 20)])
def test_search_order_across_many_groups(m, n, draws):
    """Past the m <= 8 of the draws above: values from [0, 1, 1, 2] form
    groups of one to four workers, so many workers have twins of earlier
    ones, and capacities from m // n to m leave room to split."""
    rng = random.Random(f"many-groups-{m}-{n}")
    pool = [0, 1, 1, 2]
    for _ in range(draws):
        inst = Instance.create([rng.randint(m // n, m) for _ in range(n)],
                               [[rng.choice(pool) for _ in range(n)] for _ in range(m)],
                               [[rng.choice(pool) for _ in range(m)] for _ in range(n)])
        check_buckets(inst)
        check_qptas(inst, "1/2")


def test_node_budget_shared(monkeypatch):
    """buckets, qptas and oracle run one search under the oracle's
    DEFAULT_NODE_BUDGET, read at call time, so they raise at the same
    budgets and solve at the others."""
    inst = Instance.create([6, 6], [[1, 2]] * 6 + [[2, 1]] * 6, [[1] * 12, [2] * 12])
    nodes = solve_bruteforce(inst).num_enumerated
    product = plain_buckets(inst)[1].product
    for budget in (1, nodes - 1, nodes, 10 ** 6):
        monkeypatch.setattr(oracle, "DEFAULT_NODE_BUDGET", budget)
        outcomes = [_outcome(solve_exact_bucketing, inst),
                    _outcome(qptas_bucketing, inst, "1/2"),
                    _outcome(_oracle, inst)]
        if budget < nodes:
            error = ("BudgetExceededError", f"oracle enumeration budget {budget} exceeded")
            assert outcomes == [error] * 3, budget
        else:
            assert [out[1] for out in outcomes] == [product] * 3, budget


@st.composite
def split_instances(draw):
    """Instances for the search over twin classes: exact ties, near-ties (values
    one apart), values from 2^53 to 10^30, all-zero rows, zero capacities,
    total capacity below m, m < n, m = 1 and n = 5.  m stays small enough
    for the plain searches, which score every guess."""
    n = draw(st.integers(1, 5))
    shape = draw(st.sampled_from(["any", "short", "m_below_n", "one_worker"]))
    m = {"m_below_n": max(1, n - 1), "one_worker": 1}.get(
        shape, draw(st.integers(1, 6 if n >= 4 else 8)))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    base = rng.choice([1, 2, rng.randint(BIG, 10 ** 30)])
    pool = draw(st.sampled_from([
        [0, base, base, 2 * base],          # exact ties
        [0, base, base + 1, base + 2],      # near-ties
        [0] + [rng.randint(BIG, 10 ** 30) for _ in range(3)],
        [1, 2, 3],
    ]))
    caps = [rng.randint(0, 3) for _ in range(n)]
    if shape == "short":
        caps = [0] * n
        for _ in range(rng.randrange(m)):
            caps[rng.randrange(n)] += 1
    worker_vals = [[rng.choice(pool) for _ in range(n)] for _ in range(m)]
    firm_vals = [[rng.choice(pool) for _ in range(m)] for _ in range(n)]
    if rng.random() < 0.2:
        worker_vals[rng.randrange(m)] = [0] * n
    if rng.random() < 0.2:
        firm_vals[rng.randrange(n)] = [0] * m
    if rng.random() < 0.2:
        caps[rng.randrange(n)] = 0
    return Instance.create(caps, worker_vals, firm_vals)


@settings(max_examples=300, deadline=None)
@given(split_instances(), st.sampled_from(["1/7", "1/2", "1/1", "3/1"]))
def test_branch_and_bound_matches_plain_search(inst, eps):
    check_buckets(inst)
    check_qptas(inst, eps)


def test_buckets_matches_dp_where_plain_search_is_slow():
    # eleven singleton groups: the plain search scores 4^11 guesses here
    inst = gen_random(11, 4, [3] * 4, v_max=2, density=1, seed=7).instance
    _, value = solve_exact_bucketing(inst)
    assert value.product == solve_dp(inst)[1].product > 0


@pytest.mark.parametrize("m", [13, 14])
def test_buckets_agrees_with_dp_past_the_oracle(m):
    """buckets and dp are both exact, so where their domains overlap they
    return the same product.  n = 3 and values 1..2 give m = 13 and 14
    workers at most 64 signatures, so twins are common, past the sizes the
    plain searches reach."""
    for seed in range(3):
        for caps in ([-(-m // 3)] * 3, [m // 3 + (f < m % 3) for f in range(3)]):
            inst = gen_random(m, 3, caps, v_max=2, density=1, seed=seed).instance
            mu_b, value_b = solve_exact_bucketing(inst)
            mu_d, value_d = solve_dp(inst)
            assert value_b.product == value_d.product > 0, (m, seed, caps)
            assert validate(inst, mu_b) is None and validate(inst, mu_d) is None


def _off_by_one(inst, mu):
    """nash_value with a product one too large."""
    return NashValue(nash_value(inst, mu).product + 1)


def test_branch_and_bound_rescore_check_raises(monkeypatch):
    """The search re-scores its best leaf with nash_value and raises
    AssertionError, also under python -O, when the two disagree; oracle,
    buckets and qptas all run it."""
    monkeypatch.setattr(oracle, "nash_value", _off_by_one)
    for solver, args in ((_oracle, ()), (solve_exact_bucketing, ()), (qptas_bucketing, ("1/2",))):
        with pytest.raises(AssertionError, match="re-scores"):
            solver(crossing_example(), *args)


@pytest.mark.parametrize("m, n, caps, density", [
    (12, 4, [3] * 4, 0.7), (10, 5, [2] * 5, 1.0), (12, 4, [3] * 4, 1.0)])
def test_buckets_solves_past_the_guess_space(m, n, caps, density):
    """Random shapes with more than 5 * 10^6 guesses of count vectors,
    which the search solves in milliseconds: buckets and qptas return the
    oracle's product."""
    inst = gen_random(m, n, caps, 2, density, 7).instance
    product = solve_bruteforce(inst).value.product
    assert product > 0
    for name, eps in (("buckets", None), ("qptas", "1/1000")):
        record = run_algo(name, inst, eps)
        assert (record["status"], record["nash_product"]) == ("ok", str(product)), record


def test_reference_asserts_run(monkeypatch):
    """The plain search's own re-score check is a bare assert in a helper
    module; conftest registers that module for pytest's assert rewriting,
    so the check still runs under python -O."""
    monkeypatch.setattr(reference_bucketing, "nash_value", _off_by_one)
    with pytest.raises(AssertionError):
        plain_buckets(crossing_example())
