"""buckets and qptas against the plain searches in reference_bucketing.py.

Both solvers now run one count-split search (exact._best_group_split), a
branch and bound, so they must agree with the plain copies, which score
every guess, exactly: the same assignment (the same tie-break), the same
product, and the same domain and budget errors.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import reference_bucketing
from conftest import crossing_example
from nswmatch import exact
from nswmatch.approx import qptas_bucketing
from nswmatch.core import BudgetExceededError, DomainError, Instance, NashValue, nash_value
from nswmatch.exact import solve_dp, solve_exact_bucketing
from nswmatch.generators import gen_random
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


@pytest.mark.parametrize("shape", SHAPES)
def test_buckets_matches_reference(shape):
    rng = random.Random(f"buckets-{shape}")
    for _ in range(60):
        inst = make_instance(rng, shape)
        assert _outcome(solve_exact_bucketing, inst) == _outcome(plain_buckets, inst), inst


@pytest.mark.parametrize("shape", SHAPES)
def test_qptas_matches_reference(shape):
    rng = random.Random(f"qptas-{shape}")
    for _ in range(60):
        inst = make_instance(rng, shape)
        eps = rng.choice(["1/7", "1/2", "1/1", "3/1"])
        assert _outcome(qptas_bucketing, inst, eps) == _outcome(plain_qptas, inst, eps), inst


def test_guess_budget_matches_reference(monkeypatch):
    inst = Instance.create([6, 6], [[1, 2]] * 6 + [[2, 1]] * 6, [[1] * 12, [2] * 12])
    for budget in (1, 6, 48, 49, 10 ** 6):
        # both solvers read the one search budget at call time
        monkeypatch.setattr(exact, "DEFAULT_GUESS_BUDGET", budget)
        assert (_outcome(solve_exact_bucketing, inst)
                == _outcome(plain_buckets, inst, 5, 8, budget))
        assert (_outcome(qptas_bucketing, inst, "1/2")
                == _outcome(plain_qptas, inst, "1/2", 5, budget))


@st.composite
def split_instances(draw):
    """Instances for the count-split search: exact ties, near-ties (values
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
    assert _outcome(solve_exact_bucketing, inst) == _outcome(plain_buckets, inst)
    assert _outcome(qptas_bucketing, inst, eps) == _outcome(plain_qptas, inst, eps)


def test_buckets_matches_dp_where_plain_search_is_slow():
    # eleven singleton groups: the plain search scores 4^11 guesses here
    inst = gen_random(11, 4, [3] * 4, v_max=2, density=1, seed=7).instance
    _, value = solve_exact_bucketing(inst)
    assert value.product == solve_dp(inst)[1].product > 0


def _off_by_one(inst, mu):
    """nash_value with a product one too large."""
    return NashValue(nash_value(inst, mu).product + 1)


def test_branch_and_bound_rescore_check_raises(monkeypatch):
    """The branch and bound re-scores its best guess with nash_value and
    raises AssertionError, also under python -O, when the two disagree."""
    monkeypatch.setattr(exact, "nash_value", _off_by_one)
    with pytest.raises(AssertionError, match="re-scores"):
        solve_exact_bucketing(crossing_example())


def test_reference_asserts_run(monkeypatch):
    """The plain search's own re-score check is a bare assert in a helper
    module; conftest registers that module for pytest's assert rewriting,
    so the check still runs under python -O."""
    monkeypatch.setattr(reference_bucketing, "nash_value", _off_by_one)
    with pytest.raises(AssertionError):
        plain_buckets(crossing_example())
