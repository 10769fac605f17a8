import hashlib
import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nswmatch.cli import run_algo
from nswmatch.core import BudgetExceededError, DomainError, Instance, Matching, validate
from nswmatch.approx import _level, greedy_submodular, parse_eps, qptas_bucketing
from nswmatch.generators import gen_random
from nswmatch.oracle import solve_bruteforce
from conftest import random_instance
import reference_approx
from reference_approx import ModifiedValuationView
import reference_dp


def all_positive_instance(rng, m=None, n=None):
    m = m if m is not None else rng.randint(1, 7)
    n = n if n is not None else rng.randint(1, 3)
    caps = [rng.randint(1, 4) for _ in range(n)]
    while sum(caps) < m:
        caps[rng.randrange(n)] += 1
    return Instance.create(
        caps,
        [[rng.randint(1, 5) for _ in range(n)] for _ in range(m)],
        [[rng.randint(1, 5) for _ in range(m)] for _ in range(n)],
    )


# --- ladder levels ---------------------------------------------------------

def test_parse_eps():
    assert parse_eps("1/2") == Fraction(1, 2)
    assert parse_eps(1) == Fraction(1)
    with pytest.raises(ValueError):
        parse_eps("0/5")
    with pytest.raises(ValueError):
        parse_eps(0.5)


def _ladder(eps: Fraction) -> tuple[int, int, float]:
    """num, den and log(1+eps) of the (1+eps) grid, as qptas computes them."""
    num, den = eps.numerator + eps.denominator, eps.denominator
    return num, den, math.log1p(eps) if eps < 1 else math.log(num) - math.log(den)


def test_ladder_exact_boundaries():
    num, den, log_ratio = _ladder(Fraction(1))
    # (1+1)^k = 2^k: exact power comparisons, no float drift; log2 of
    # 2^60 - 1 rounds to 60.0, so an integer test must step it down
    assert _level(8, num, den, log_ratio) == 3
    assert _level(7, num, den, log_ratio) == 2
    assert _level(1, num, den, log_ratio) == 0
    assert _level(2 ** 60, num, den, log_ratio) == 60
    assert _level(2 ** 60 - 1, num, den, log_ratio) == 59
    assert _level(10 ** 9, num, den, log_ratio) == 29


@pytest.mark.parametrize("eps, m, n, v_max", [
    ("1/1", 4, 2, 4), ("1/2", 3, 2, 10 ** 20), ("3/1", 5, 3, 7),
    ("7/3", 1, 1, 1), ("1/100", 2, 1, 2 ** 20),
])
def test_ladder_matches_reference(eps, m, n, v_max):
    eps = Fraction(eps)
    num, den, log_ratio = _ladder(eps)
    # levels up to that of eta = (m*v_max)^(m+n), the paper's bound on a
    # Nash product: for eps 1/2 and 1/100 the upper ks are powers past 2^53
    top = reference_dp.level(max(1, m * v_max) ** (m + n), eps) + 1
    # the smallest integers at or above (1+eps)^k, and their neighbours
    ks = {0, 1, 2, top // 3, top // 2, top - 2, top - 1, top, top + 1, 2 * top}
    ceilings = [-(-num ** k // den ** k) for k in ks if k >= 0]
    values = {v + d for v in ceilings for d in (-1, 0, 1)} | {2 ** 53 + 1}
    for v in sorted(values - {0}):
        assert _level(v, num, den, log_ratio) == reference_dp.level(v, eps), v


def test_ladder_builds_no_power_table():
    # about 1 389 levels below 10^6 at eps 1/100: a table of the powers of
    # 101 and 100 up to there would take about 1.8 MB
    rng = random.Random(3)
    inst = Instance.create(
        (2, 2),
        [[rng.randint(1, 10 ** 6) for _ in range(2)] for _ in range(4)],
        [[rng.randint(1, 10 ** 6) for _ in range(4)] for _ in range(2)],
    )
    tracemalloc.start()
    try:
        qptas_bucketing(inst, "1/100")
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 18


# --- modified valuations ---------------------------------------------------

def test_modified_valuation_submodular_nonempty():
    # decreasing marginals hold among nonempty bundles (the empty bundle is
    # pinned to 0 by convention and is exempt, see the test below)
    rng = random.Random(10)
    checks = 0
    while checks < 1000:
        inst = all_positive_instance(rng, m=6, n=2)
        view = ModifiedValuationView(inst)
        f = rng.randrange(inst.n)
        workers = list(range(inst.m))
        rng.shuffle(workers)
        t_size = rng.randint(2, 5)
        T = workers[:t_size]
        S = T[:rng.randint(1, t_size - 1)]
        j = workers[t_size]
        gain_t = view.marginal(f, T, j)
        gain_s = view.marginal(f, S, j)
        assert gain_t <= gain_s + 1e-9
        # monotone
        assert gain_s >= -1e-9
        checks += 1


def test_modified_valuation_empty_bundle_marginal_can_shrink():
    # with the empty bundle pinned to value 0, the first worker's marginal
    # ln(v_wf * v_fw) can be *smaller* than a later marginal when v_fw = 1;
    # this is why the greedy solver must explicitly seed every firm
    inst = Instance.create((2,), [[4], [4]], [[1, 4]])
    view = ModifiedValuationView(inst)
    assert view.marginal(0, [], 0) < view.marginal(0, [1], 0)


# --- greedy ----------------------------------------------------------------

def test_greedy_balanced_ones():
    inst = Instance.create((2, 2), [[1, 1]] * 4, [[1, 1, 1, 1]] * 2)
    mu, value = greedy_submodular(inst)
    assert value.product == 4
    assert value.product == solve_bruteforce(inst).value.product


def test_greedy_single_firm_forced():
    rng = random.Random(14)
    inst = all_positive_instance(rng, m=5, n=1)
    mu, value = greedy_submodular(inst)
    assert value.product == solve_bruteforce(inst).value.product


def test_greedy_requires_positive_values():
    inst = Instance.create((1,), [[0]], [[1]])
    with pytest.raises(DomainError):
        greedy_submodular(inst)


def test_greedy_sqrt_bound():
    rng = random.Random(18)
    for _ in range(200):
        inst = all_positive_instance(rng)
        mu, value = greedy_submodular(inst)
        assert validate(inst, mu) is None
        opt = solve_bruteforce(inst).value.product
        # welfare >= sqrt(opt welfare) <=> product^2 >= opt product
        assert value.product ** 2 >= opt, (inst, value.product, opt)


@st.composite
def _greedy_instances(draw):
    """All-positive instances of the shapes greedy's steps branch on: values
    that tie everywhere ({1}), often (1..2, 1..5) or hardly ever (up to
    10^18); capacity-0 firms; fewer workers than firms; and must-fill
    shapes, where the empty firms that can take a worker are as many as
    the workers left from the first step on ("fill") or only later on
    ("late")."""
    n = draw(st.integers(1, 5))
    shape = draw(st.sampled_from(["slack", "fewer", "fill", "late"]))
    if shape == "fewer":
        m = draw(st.integers(1, max(1, n - 1)))  # m < n once n > 1
    elif shape == "fill":
        m = n
    elif shape == "late":
        m = draw(st.integers(n + 1, n + 3))
    else:
        m = draw(st.integers(1, 10))
    caps = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    if shape == "fill":
        caps = [max(1, c) for c in caps]
    short = m - sum(caps)
    if short > 0:
        caps[draw(st.integers(0, n - 1))] += short
    values = draw(st.sampled_from([st.just(1), st.integers(1, 2), st.integers(1, 5),
                                   st.integers(1, 10 ** 18)]))
    worker_vals = draw(st.lists(st.lists(values, min_size=n, max_size=n),
                                min_size=m, max_size=m))
    firm_vals = draw(st.lists(st.lists(values, min_size=m, max_size=m),
                              min_size=n, max_size=n))
    return Instance.create(caps, worker_vals, firm_vals)


@settings(max_examples=2000, deadline=None)
@given(_greedy_instances())
def test_greedy_equals_the_pair_scan(inst):
    """greedy keeps one maximum per firm; the pair scan it replaced compares
    every (worker, firm) pair at every step.  Both break ties by (worker,
    firm), so they return the same matching and product."""
    assert greedy_submodular(inst) == reference_approx.greedy_submodular(inst)


@pytest.mark.parametrize("m, n, v_max, digest", [
    (150, 10, 5, "cdc1b366af2f8c6ff7c458761d13ab3985bd2ae167376f6f2b7e76110936b532"),
    (300, 20, 2, "82f2d2c1bc0faf8231fff2f6424242343952f99d129998fdafcb1aa817f13744"),
], ids=["150x10", "300x20-tied"])
def test_greedy_records_are_pinned(m, n, v_max, digest):
    """greedy at 150 and 300 workers, capacities 15, returns a pinned
    matching and product: values 1..2 tie at nearly every step, so a
    tie-break that moves one worker fails here."""
    inst = gen_random(m, n, [15] * n, v_max, 1.0, 0).instance
    record = run_algo("greedy", inst)
    assert record["status"] == "ok"
    got = json.dumps([record["matching"], record["nash_product"]]).encode()
    assert hashlib.sha256(got).hexdigest() == digest


# --- qptas -----------------------------------------------------------------

def qptas_bound_holds(inst, eps: Fraction, got: int, opt: int) -> bool:
    # welfare(got) >= welfare(opt) / (1+eps), compared exactly on products
    na = inst.m + inst.n
    num, den = eps.numerator + eps.denominator, eps.denominator
    return got * num ** na >= opt * den ** na


def test_qptas_bound_random():
    rng = random.Random(22)
    for _ in range(100):
        inst = random_instance(rng, n=rng.randint(1, 3), density=0.8)
        opt = solve_bruteforce(inst).value.product
        mu, value = qptas_bucketing(inst, "1/2")
        assert validate(inst, mu) is None
        assert value.product <= opt
        assert qptas_bound_holds(inst, Fraction(1, 2), value.product, opt)


def test_qptas_single_value_exact():
    rng = random.Random(26)
    for _ in range(30):
        m, n = rng.randint(1, 6), rng.randint(1, 3)
        caps = [rng.randint(1, 3) for _ in range(n)]
        inst = Instance.create(caps, [[3] * n] * m, [[3] * m] * n)
        opt = solve_bruteforce(inst).value.product
        for eps in ("1/2", "2/1"):
            assert qptas_bucketing(inst, eps)[1].product == opt


def test_qptas_huge_eps_still_valid():
    rng = random.Random(30)
    inst = random_instance(rng, m=5, n=2, density=1.0)
    mu, value = qptas_bucketing(inst, "1000000/1")
    assert validate(inst, mu) is None
    assert value.product > 0


# --- fptas -----------------------------------------------------------------

def fptas_product(inst, eps) -> int:
    record = run_algo("fptas", inst, eps)
    assert record["status"] in ("ok", "zero-optimum"), record
    assert validate(inst, Matching.of(record["matching"])) is None
    return int(record["nash_product"])


def test_fptas_bounds_random():
    rng = random.Random(38)
    for _ in range(100):
        inst = random_instance(rng, n=rng.randint(1, 3), density=0.8)
        opt = solve_bruteforce(inst).value.product
        got = fptas_product(inst, "1/1")
        assert got <= opt
        assert got * 2 ** (inst.n + 1) >= opt


def test_fptas_single_firm_tight():
    rng = random.Random(42)
    for _ in range(30):
        inst = random_instance(rng, n=1, density=1.0)
        opt = solve_bruteforce(inst).value.product
        got = fptas_product(inst, "1/1")
        assert got * 4 >= opt >= got


def test_fptas_budget():
    # fptas runs under dp's bitmask budget of 20
    inst = random_instance(random.Random(2), m=21, n=2)
    assert run_algo("fptas", inst, "1/1")["status"] == "budget-exceeded"
    assert run_algo("fptas", inst)["status"] == "infeasible-domain"


def test_ladder_budget():
    # v_max = 2 takes ln 2 / ln(1 + eps) levels: about 69 315 at eps
    # 1/100000 and 693 147 at eps 1/1000000, against a budget of 100 000
    inst = Instance.create((2,), [[2], [2]], [[2, 2]])
    assert qptas_bucketing(inst, "1/100000")[1].product == 16
    with pytest.raises(BudgetExceededError):
        qptas_bucketing(inst, "1/1000000")
    # with no value above 1 no power of 1+eps is taken, so any eps solves
    tiny = Fraction(1, 10 ** 9)
    zeros = Instance.create((2,), [[0], [0]], [[0, 0]])
    ones = Instance.create((2,), [[1], [1]], [[1, 1]])
    assert qptas_bucketing(zeros, tiny)[1].product == 0
    assert qptas_bucketing(ones, tiny)[1].product == 2
    # fptas builds no ladder, so any eps is solved exactly
    assert fptas_product(inst, "1/1000000") == 16
