"""buckets and qptas against the plain searches in reference_bucketing.py.

Both solvers now run one count-split search (exact._best_group_split), so
they must agree with the plain copies exactly: the same assignment (the same
tie-break), the same product, and the same domain and budget errors.
"""

import random

import pytest

from nswmatch.approx import qptas_bucketing
from nswmatch.core import BudgetExceededError, DomainError, Instance
from nswmatch.exact import solve_exact_bucketing
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


def test_guess_budget_matches_reference():
    inst = Instance.create([6, 6], [[1, 2]] * 6 + [[2, 1]] * 6, [[1] * 12, [2] * 12])
    for budget in (1, 6, 48, 49, 10 ** 6):
        assert (_outcome(solve_exact_bucketing, inst, 5, 8, budget)
                == _outcome(plain_buckets, inst, 5, 8, budget))
        assert (_outcome(qptas_bucketing, inst, "1/2", 5, budget)
                == _outcome(plain_qptas, inst, "1/2", 5, budget))
