"""dp, dp2 and fptas against the plain recurrences in reference_dp.py.

The solvers skip every bundle that cannot score and every mask whose size no
full partition passes through, so they must agree with the reference
exactly: the same assignment (the same tie-break), product and ladder level,
not just the same optimum.
"""

import random
from fractions import Fraction

import pytest

from nswmatch import exact, generators
from nswmatch.approx import fptas_polymul
from nswmatch.cli import run_algo
from nswmatch.core import BudgetExceededError, Instance, Matching, validate, zero_fallback
from nswmatch.exact import _sized_submasks, solve_dp
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
    elif shape in WINDOW_SLACK:
        # total capacity m + slack, at most 4 per firm; dense enough that
        # most optima with enough capacity are positive
        m = rng.randint(5, 8)
        n = rng.randint(3, 4)
        density = rng.choice([0.7, 1.0])
        caps = [0] * n
        for _ in range(m + WINDOW_SLACK[shape](rng)):
            caps[rng.choice([f for f in range(n) if caps[f] < 4])] += 1
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


# shapes where the capacity window prunes, by total capacity minus m
WINDOW_SLACK = {
    "tight_capacity": lambda rng: 0,
    "slack_one": lambda rng: 1,
    "short_capacity": lambda rng: -rng.randint(1, 2),
}
SHAPES = ["ties", "big_values", "m_below_n", "zero_capacity", "unvalued_firm",
          "zero_rows", "single_worker", *WINDOW_SLACK]


def _count(shape: str, plain: int) -> int:
    # the reference costs 4^m, and window shapes run up to m = 8
    return 30 if shape in WINDOW_SLACK else plain


@pytest.mark.parametrize("shape", SHAPES)
def test_dp_matches_reference(shape):
    rng = random.Random(f"dp-{shape}")
    for _ in range(_count(shape, 60)):
        inst = make_instance(rng, shape)
        mu_ref, product_ref = naive_dp(inst)
        if shape == "short_capacity":
            assert product_ref == 0 and mu_ref == zero_fallback(inst)
        mu, value = solve_dp(inst)
        assert mu == mu_ref, inst
        assert value.product == product_ref
        # every capacity drawn is within dp2's default bound of 4
        record = run_algo("dp2", inst)
        assert Matching.of(record["matching"]) == mu_ref, inst
        assert record["nash_product"] == str(product_ref)


@pytest.mark.parametrize("shape", SHAPES)
def test_fptas_matches_reference(shape):
    rng = random.Random(f"fptas-{shape}")
    for _ in range(_count(shape, 40)):
        inst = make_instance(rng, shape)
        eps = rng.choice(["1/1", "1/2", "3/1", "1/5"])
        mu_ref, product_ref, level_ref = naive_fptas(inst, Fraction(eps))
        mu, value, level = fptas_polymul(inst, eps)
        assert (mu, value.product, level) == (mu_ref, product_ref, level_ref), inst


def assert_dp2_zero_fallback(inst):
    record = run_algo("dp2", inst)
    assert record["status"] == "zero-optimum" and record["nash_product"] == "0"
    assert Matching.of(record["matching"]) == zero_fallback(inst)


def test_short_capacity_at_m16_returns_zero():
    """Total capacity 15 < m = 16: the window is empty at every layer, so the
    solvers return the zero fallback without a subset DP pass."""
    inst = generators.gen_random(16, 5, [3] * 5, 5, 1.0, 7).instance
    results = [solve_dp(inst), fptas_polymul(inst, "1/2")]
    for mu, value, *level in results:
        assert value.product == 0 and level in ([], [-1])
        assert validate(inst, mu) is None and mu == zero_fallback(inst)
    assert_dp2_zero_fallback(inst)


def test_short_capacity_builds_no_tables(monkeypatch):
    """Total capacity below m: dp, dp2 and fptas return the zero fallback
    without building a bundle table, after their budget checks."""
    def no_tables(*args):
        raise AssertionError("bundle table built for a capacity-short instance")

    monkeypatch.setattr(exact, "_bundle_tables", no_tables)
    short16 = generators.gen_random(16, 5, [3] * 5, 5, 1.0, 7).instance
    short18 = generators.gen_random(18, 5, [3] * 5, 5, 1.0, 7).instance
    results = [solve_dp(short16), fptas_polymul(short16, "1/2"), solve_dp(short18)]
    for inst, (mu, value, *level) in zip([short16] * 2 + [short18], results):
        assert value.product == 0 and level in ([], [-1])
        assert mu == zero_fallback(inst)
    assert_dp2_zero_fallback(short16)
    assert_dp2_zero_fallback(short18)
    # m = 18 is past the fptas budget of 16, which is still checked first
    with pytest.raises(BudgetExceededError):
        fptas_polymul(short18, "1/2")
    # the dp budget of 20 and dp2's capacity bound as well
    over = generators.gen_random(21, 5, [3] * 5, 5, 1.0, 7).instance
    with pytest.raises(BudgetExceededError):
        solve_dp(over)
    assert run_algo("dp2", over)["status"] == "budget-exceeded"
    wide = generators.gen_random(18, 3, [5] * 3, 5, 1.0, 7).instance
    assert run_algo("dp2", wide)["status"] == "infeasible-domain"


def test_sized_submasks_match_brute_force():
    popcount = [s.bit_count() for s in range(1 << 7)]
    for t in range(1 << 7):
        submasks = [s for s in range(t + 1) if s & t == s]
        for lo in range(-1, 9):
            for hi in range(-1, 9):
                got = _sized_submasks(t, lo, hi, popcount)
                assert got == [s for s in submasks if lo <= popcount[s] <= hi]
                assert all(a < b for a, b in zip(got, got[1:]))
                assert (0 in got) == (lo <= 0 <= hi)
                if lo > popcount[t] or hi < max(lo, 1):
                    # nothing but the empty mask, and that only when lo <= 0 <= hi
                    assert got == ([0] if lo <= 0 <= hi else []), (t, lo, hi)
