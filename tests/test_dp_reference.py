"""dp, dp2 and fptas against the plain recurrences in reference_dp.py.

The solvers skip every bundle that cannot score, so they must agree with the
reference exactly: the same assignment (the same tie-break), product and
ladder level, not just the same optimum.
"""

import random
from fractions import Fraction

import pytest

from nswmatch.approx import fptas_polymul
from nswmatch.core import Instance
from nswmatch.exact import solve_dp, solve_dp_bounded_capacity
from reference_dp import naive_dp, naive_fptas

BIG = 2 ** 53


def _value(rng: random.Random, hi: int, density: float) -> int:
    return rng.randint(1, hi) if rng.random() < density else 0


def make_instance(rng: random.Random, shape: str) -> Instance:
    m = rng.randint(1, 7)
    n = rng.randint(1, 4)
    hi = 3
    density = rng.choice([0.4, 0.7, 1.0])
    caps = [rng.randint(1, 4) for _ in range(n)]
    if shape == "big_values":
        hi = BIG * rng.randint(2, 2 ** 10)
    elif shape == "m_below_n":
        n = rng.randint(2, 5)
        m = rng.randint(1, n - 1)
        caps = [rng.randint(1, 3) for _ in range(n)]
    elif shape == "zero_capacity":
        caps = [rng.randint(0, 3) for _ in range(n)]
        caps[rng.randrange(n)] = 0
    elif shape == "single_worker":
        m = 1
    worker_vals = [[_value(rng, hi, density) for _ in range(n)] for _ in range(m)]
    firm_vals = [[_value(rng, hi, density) for _ in range(m)] for _ in range(n)]
    if shape == "unvalued_firm":
        f = rng.randrange(n)
        for row in worker_vals:
            row[f] = 0
    elif shape == "zero_rows":
        worker_vals[rng.randrange(m)] = [0] * n
        if rng.random() < 0.5:
            firm_vals[rng.randrange(n)] = [0] * m
    return Instance.create(caps, worker_vals, firm_vals)


SHAPES = ["ties", "big_values", "m_below_n", "zero_capacity", "unvalued_firm",
          "zero_rows", "single_worker"]


@pytest.mark.parametrize("shape", SHAPES)
def test_dp_matches_reference(shape):
    rng = random.Random(f"dp-{shape}")
    for _ in range(60):
        inst = make_instance(rng, shape)
        mu_ref, product_ref = naive_dp(inst)
        # every capacity drawn is within dp2's default bound of 4
        for solver in (solve_dp, solve_dp_bounded_capacity):
            mu, value = solver(inst)
            assert mu == mu_ref, (solver.__name__, inst)
            assert value.product == product_ref


@pytest.mark.parametrize("shape", SHAPES)
def test_fptas_matches_reference(shape):
    rng = random.Random(f"fptas-{shape}")
    for _ in range(40):
        inst = make_instance(rng, shape)
        eps = rng.choice(["1/1", "1/2", "3/1", "1/5"])
        mu_ref, product_ref, level_ref = naive_fptas(inst, Fraction(eps))
        mu, value, level = fptas_polymul(inst, eps)
        assert (mu, value.product, level) == (mu_ref, product_ref, level_ref), inst
