import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nswmatch.core import DomainError, Instance, nash_value, validate
from nswmatch.approx import (
    LevelLadder,
    fptas_polymul,
    greedy_submodular,
    parse_eps,
    qptas_bucketing,
    _level_dp,
)
from nswmatch.oracle import solve_bruteforce
from conftest import random_instance
from reference_approx import (
    ModifiedValuationView,
    SetPolynomial,
    build_single_firm_poly,
    fptas_tables,
    multiply_naive,
)


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


# --- SetPolynomial ---------------------------------------------------------

def test_hamming_identity_small():
    # weight of chi(S1) + chi(S2) equals |S1| + |S2| exactly when disjoint
    m = 6
    for e1 in range(1 << m):
        for e2 in range(1 << m):
            disjoint = (e1 & e2) == 0
            assert ((e1 + e2).bit_count() == e1.bit_count() + e2.bit_count()) == disjoint


def test_multiply_carry_killed_by_projection():
    p = SetPolynomial.from_monomials(2, [0b01])
    q = SetPolynomial.from_monomials(2, [0b10])
    assert p.multiply(q).hamming_projection(2).monomials() == [0b11]
    same = SetPolynomial.from_monomials(2, [0b01])
    carry = same.multiply(same)
    assert carry.monomials() == [0b10]
    assert carry.hamming_projection(2).is_zero


def test_projections_idempotent():
    rng = random.Random(2)
    for _ in range(30):
        m = rng.randint(1, 6)
        p = SetPolynomial(m, rng.getrandbits(1 << m))
        h = p.hamming_projection(2)
        assert h.hamming_projection(2).bits == h.bits
        assert p.representative_projection().bits == p.bits


def test_multiply_matches_naive():
    rng = random.Random(6)
    for _ in range(60):
        m = rng.randint(1, 8)
        a = SetPolynomial(m, rng.getrandbits(1 << m))
        b = SetPolynomial(m, rng.getrandbits(1 << m))
        assert a.multiply(b).bits == multiply_naive(a, b).bits


# --- LevelLadder -----------------------------------------------------------

def test_parse_eps():
    assert parse_eps("1/2") == Fraction(1, 2)
    assert parse_eps(1) == Fraction(1)
    with pytest.raises(ValueError):
        parse_eps("0/5")
    with pytest.raises(ValueError):
        parse_eps(0.5)


def test_ladder_exact_boundaries():
    ladder = LevelLadder(Fraction(1), m=4, n=2, v_max=4)
    # (1+1)^k = 2^k: exact power comparisons, no float drift
    assert ladder.level_of(8) == 3
    assert ladder.level_of(7) == 2
    assert ladder.value_at_least(8, 3)
    assert not ladder.value_at_least(7, 3)
    assert ladder.power_equals(8, 3)
    assert ladder.eta == 16 ** 6
    assert ladder.q == 24


def test_ladder_caps_level():
    ladder = LevelLadder(Fraction(1), m=2, n=1, v_max=2)
    assert ladder.level_of(10 ** 9) == ladder.q + 1


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

def test_single_firm_poly_examples():
    inst = Instance.create((2,), [[1], [1]], [[1, 1]])
    ladder = LevelLadder(Fraction(1), 2, 1, 1)
    p = build_single_firm_poly(inst, 0, 2, 1, ladder)
    assert p.monomials() == [0b11]  # bundle value 2 >= (1+eps)^1
    assert build_single_firm_poly(inst, 0, 0, 1, ladder).is_zero
    assert build_single_firm_poly(inst, 0, 0, 0, ladder).is_zero
    huge = ladder.q + 1
    assert build_single_firm_poly(inst, 0, 2, huge, ladder).is_zero
    with pytest.raises(ValueError):
        build_single_firm_poly(inst, 0, 3, 0, ladder)


def test_combined_tables_match_assignment_enumeration():
    rng = random.Random(34)
    for _ in range(10):
        m, n = 3, 2
        caps = [rng.randint(1, 3) for _ in range(n)]
        inst = Instance.create(
            caps,
            [[rng.randint(0, 3) for _ in range(n)] for _ in range(m)],
            [[rng.randint(0, 3) for _ in range(m)] for _ in range(n)])
        tables, ladder = fptas_tables(inst, "1/1")
        layers, _levels = _level_dp(inst, ladder)
        full = (1 << m) - 1
        for level in range(ladder.q + 2):
            poly = tables[-1].get((m, level))
            present = poly is not None and bool(poly.bits >> full & 1)
            assert present == (layers[-1][full] >= level)


def test_fptas_bounds_random():
    rng = random.Random(38)
    for _ in range(100):
        inst = random_instance(rng, n=rng.randint(1, 3), density=0.8)
        opt = solve_bruteforce(inst).value.product
        mu, value, level = fptas_polymul(inst, "1/1")
        assert validate(inst, mu) is None
        assert value.product <= opt
        assert value.product * 2 ** (inst.n + 1) >= opt
        if opt == 0:
            assert level == -1 and value.is_zero


def test_fptas_single_firm_tight():
    rng = random.Random(42)
    for _ in range(30):
        inst = random_instance(rng, n=1, density=1.0)
        opt = solve_bruteforce(inst).value.product
        _mu, value, _level = fptas_polymul(inst, "1/1")
        assert value.product * 4 >= opt >= value.product


def test_fptas_budget():
    inst = random_instance(random.Random(2), m=5, n=2)
    with pytest.raises(Exception):
        fptas_polymul(inst, "1/1", budget=4)
