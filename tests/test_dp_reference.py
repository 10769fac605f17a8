"""dp, dp2 and fptas against the plain recurrence in reference_dp.py.

The solvers skip every bundle that cannot score, every mask whose size no
full partition passes through and every state the bound shows cannot beat
the incumbent, so they must agree with the reference exactly: the same
assignment (the same tie-break) and product, not just the same optimum.
"""

import hashlib
import json
import random
from functools import reduce
from operator import or_

import pytest
from hypothesis import example, given, settings, strategies as st

from nswmatch import exact, generators
from nswmatch.approx import greedy_submodular
from nswmatch.cli import run_algo
from nswmatch.core import (BudgetExceededError, Instance, Matching, UNMATCHED, nash_value,
                           validate, zero_fallback)
from nswmatch.exact import _sized_submasks, solve_dp
from nswmatch.oracle import solve_bruteforce
from reference_dp import bundle_values, naive_dp

BIG = 2 ** 53


def _value(rng: random.Random, lo: int, hi: int, density: float) -> int:
    return rng.randint(lo, hi) if rng.random() < density else 0


def make_instance(rng: random.Random, shape: str) -> Instance:
    m = rng.randint(1, 7)
    n = rng.randint(1, 4)
    lo, hi = 1, 3
    density = rng.choice([0.4, 0.7, 1.0])
    caps = [rng.randint(1, 4) for _ in range(n)]
    if shape == "big_values":
        hi = BIG * rng.randint(2, 2 ** 10)
    elif shape == "near_ties":
        # every value positive, so greedy's product is the incumbent, and
        # products a float could not tell apart
        lo, hi, density = 10 ** 18, 10 ** 18 + 3, 1.0
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
    worker_vals = [[_value(rng, lo, hi, density) for _ in range(n)] for _ in range(m)]
    firm_vals = [[_value(rng, lo, hi, density) for _ in range(m)] for _ in range(n)]
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
SHAPES = ["ties", "big_values", "near_ties", "m_below_n", "zero_capacity",
          "unvalued_firm", "zero_rows", "single_worker", *WINDOW_SLACK]


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
    """fptas is dp behind its eps check, for every eps: the same status,
    matching and product as dp and the reference."""
    rng = random.Random(f"fptas-{shape}")
    for _ in range(_count(shape, 40)):
        inst = make_instance(rng, shape)
        eps = rng.choice(["1/5", "1/2", "1/1", "3/1", f"1/{10 ** 400}"])
        record = run_algo("fptas", inst, eps)
        assert record == {**run_algo("dp", inst), "algo": "fptas", "eps": eps}
        mu_ref, product_ref = naive_dp(inst)
        assert Matching.of(record["matching"]) == mu_ref, inst
        assert record["nash_product"] == str(product_ref)


def assert_zero_fallback(inst, algo, eps=None):
    record = run_algo(algo, inst, eps)
    assert record["status"] == "zero-optimum" and record["nash_product"] == "0"
    assert Matching.of(record["matching"]) == zero_fallback(inst)


def test_short_capacity_at_m16_returns_zero():
    """Total capacity 15 < m = 16: the window is empty at every layer, so the
    solvers return the zero fallback without a subset DP pass."""
    inst = generators.gen_random(16, 5, [3] * 5, 5, 1.0, 7).instance
    mu, value = solve_dp(inst)
    assert value.product == 0
    assert validate(inst, mu) is None and mu == zero_fallback(inst)
    assert_zero_fallback(inst, "dp2")
    assert_zero_fallback(inst, "fptas", "1/2")


def test_short_capacity_builds_no_tables(monkeypatch):
    """Total capacity below m: dp, dp2 and fptas return the zero fallback
    without building a firm's half tables, after their budget checks."""
    def no_tables(*args):
        raise AssertionError("half tables built for a capacity-short instance")

    monkeypatch.setattr(exact, "_half_tables", no_tables)
    short16 = generators.gen_random(16, 5, [3] * 5, 5, 1.0, 7).instance
    short18 = generators.gen_random(18, 5, [3] * 5, 5, 1.0, 7).instance
    for inst in (short16, short18):
        mu, value = solve_dp(inst)
        assert value.product == 0 and mu == zero_fallback(inst)
        assert validate(inst, mu) is None
        assert_zero_fallback(inst, "dp2")
        assert_zero_fallback(inst, "fptas", "1/2")
    # the dp budget of 20 and dp2's capacity bound come before the short check
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


def _dense(m: int, n: int, slack: int, v_max: int, seed: int) -> Instance:
    """gen_random at density 1 with capacities summing to m + slack, as
    even as they go."""
    caps = [(m + slack) // n + (f < (m + slack) % n) for f in range(n)]
    return generators.gen_random(m, n, caps, v_max, 1.0, seed).instance


# (m, n, slack, v_max): dense shapes past the reference's reach, tight and
# slack-1 capacities, values 1..2 (many ties) and 1..5
BOUND_SHAPES = [(12, 3, 0, 2), (12, 4, 1, 5), (13, 3, 1, 5), (13, 4, 0, 2), (14, 3, 0, 5),
                (14, 4, 1, 2), (15, 3, 0, 2), (15, 4, 0, 5), (16, 4, 0, 5)]


def test_bound_changes_no_record(monkeypatch):
    """The branch and bound drops only states that cannot reach the optimum:
    with the incumbent forced to 0 nothing is dropped, and dp's record is
    byte-identical.  On all ones at tight capacities every full partition
    is optimal and greedy finds one, so the optimal path's bound equals the
    incumbent; the drop must stay strictly below it."""
    ones = Instance.create([4, 4, 4], [[1] * 3] * 12, [[1] * 12] * 3)
    instances = [ones] + [_dense(*shape, seed=k) for k, shape in enumerate(BOUND_SHAPES)]
    assert all(exact._dp_incumbent(inst)[0] > 0 for inst in instances)
    bounded = [json.dumps(run_algo("dp", inst)) for inst in instances]
    assert json.loads(bounded[0])["nash_product"] == str(4 ** 3)
    monkeypatch.setattr(exact, "_dp_incumbent", lambda inst, stats=None: (0, None))
    for inst, record in zip(instances, bounded):
        assert json.dumps(run_algo("dp", inst)) == record, inst


def test_dp_stats_count_the_work():
    """stats holds greedy's product, the local search's moves, the
    incumbent and, per layer, the states pushed, dropped (of them, those
    the tangent bound dropped after the product bound kept them) and the
    bundles tried; the counts are the same on every run, and on dense
    m = 13 both bounds drop states."""
    inst = _dense(13, 3, 0, 5, seed=7)
    first, second = {}, {}
    mu, value = solve_dp(inst, first)
    assert solve_dp(inst, second) == (mu, value)
    assert first == second
    assert 0 < first["greedy"] <= first["incumbent"] <= value.product
    assert (first["moves"] > 0) == (first["incumbent"] > first["greedy"])
    layers = first["layers"]
    assert len(layers) == 3
    assert layers[0] == {"live": 1, "dropped": 0, "tangent": 0,
                         "transitions": layers[0]["transitions"]}
    assert all(layer["dropped"] >= layer["tangent"] for layer in layers)
    assert sum(layer["tangent"] for layer in layers) > 0
    assert sum(layer["dropped"] - layer["tangent"] for layer in layers) > 0
    # the last firm takes every worker left: one bundle per live state
    assert layers[-1]["transitions"] == layers[-1]["live"]
    # short capacity returns before the DP, and leaves stats empty
    short = {}
    solve_dp(generators.gen_random(16, 5, [3] * 5, 5, 1.0, 7).instance, short)
    assert short == {}


def test_dense_m18_is_pruned_to_the_pinned_record():
    """Dense m = 18, n = 3, c = 7, values 1..5, seed 0, where the product
    bound alone left dp 14 944 457 bundles to try: with the tangent bound
    it tries fewer than 200 000 and returns the pinned matching and
    product."""
    inst = generators.gen_random(18, 3, [7] * 3, 5, 1.0, 0).instance
    stats = {}
    solve_dp(inst, stats)
    assert sum(layer["transitions"] for layer in stats["layers"]) < 200_000
    # layer 0 bounds its bundles as it scores them, and counts what a
    # separate bounding pass would: every bundle scores, one survives both
    assert stats["layers"] == [_layer(1, 0, 0, 62016), _layer(1, 62015, 6777, 2508),
                               _layer(1, 2507, 6, 1)]
    _assert_pinned_record(inst, "8aa413af808e90a10e653b069419ea13c3d097312e0ab2cbf634f024276db61b")


def test_dense_m20_is_pruned_to_the_pinned_record():
    """Dense m = 20, n = 3, c = 8, seed 0, at the dp budget: layer 0 tries
    all 262 599 bundles of 4..8 workers and keeps one; the matching and
    product are pinned."""
    inst = generators.gen_random(20, 3, [8] * 3, 5, 1.0, 0).instance
    stats = {}
    solve_dp(inst, stats)
    assert stats["layers"] == [_layer(1, 0, 0, 262599), _layer(1, 262598, 6604, 6006),
                               _layer(1, 6005, 12, 1)]
    _assert_pinned_record(inst, "3f750ec9987f97f674250dd5f52789416d340e6164420f0c08886fb832f262e5")


def _layer(live: int, dropped: int, tangent: int, transitions: int) -> dict:
    return {"live": live, "dropped": dropped, "tangent": tangent, "transitions": transitions}


def _assert_pinned_record(inst: Instance, digest: str) -> None:
    record = run_algo("dp", inst)
    got = json.dumps([record["matching"], record["nash_product"]]).encode()
    assert hashlib.sha256(got).hexdigest() == digest


@st.composite
def _score_instances(draw):
    """m <= 9 (odd m splits unevenly; m = 1 leaves the low half empty), n <=
    3, values from 0 up to 1, 5, 10^18 or 10^30, and sometimes one firm
    that values none of its workers."""
    m = draw(st.integers(1, 9))
    n = draw(st.integers(1, 3))
    values = st.integers(0, draw(st.sampled_from([1, 5, 10 ** 18, 10 ** 30])))
    caps = draw(st.lists(st.integers(1, m), min_size=n, max_size=n))
    worker_vals = draw(st.lists(st.lists(values, min_size=n, max_size=n), min_size=m, max_size=m))
    firm_vals = draw(st.lists(st.lists(values, min_size=m, max_size=m), min_size=n, max_size=n))
    unvalued = draw(st.sampled_from([None, *range(n)]))
    if unvalued is not None:
        firm_vals[unvalued] = [0] * m
    return Instance.create(caps, worker_vals, firm_vals)


@settings(max_examples=200, deadline=None)
@example(Instance.create([1], [[10 ** 30]], [[10 ** 30]]))
@example(Instance.create([2, 3], [[10 ** 30, 1]] * 5, [[0] * 5, [10 ** 30 - 1] * 5]))
@given(_score_instances())
def test_half_tables_score_every_bundle(inst):
    """Every bundle of 1..c_f workers inside firm f's support scores
    bundle_values(inst, f)[S] from the half tables.  A firm that values
    none of its workers scores 0 on every bundle, and no state holding one
    of its bundles is ever live: no layer after it runs.  Layer 0's
    bundles are layer 1's states, and layer 1 counts as pushed or dropped
    exactly those that score."""
    m, n, full, h = inst.m, inst.n, (1 << inst.m) - 1, inst.m // 2
    support = [sum(1 << w for w in range(m) if inst.worker_vals[w][f]) for f in range(n)]
    for f in range(n):
        sums_lo, sums_hi, prods_lo, prods_hi = exact._half_tables(inst, f, h)
        values = bundle_values(inst, f)
        for s in range(1, full + 1):
            if s & support[f] == s and s.bit_count() <= inst.capacities[f]:
                lo, hi = s & ((1 << h) - 1), s >> h
                assert (sums_lo[lo] + sums_hi[hi]) * prods_lo[lo] * prods_hi[hi] == values[s], (f, s)
    stats = {}
    _, value = solve_dp(inst, stats)
    unvalued = [f for f in range(n) if not any(inst.firm_vals[f])]
    if unvalued:
        assert value.product == 0
        assert len(stats.get("layers", [])) <= unvalued[0] + 1
    if len(stats.get("layers", [])) > 1:
        # firm 0's bundles: inside its support, holding every worker no later
        # firm values, of as many workers as the later capacities leave
        later = reduce(or_, support[1:], 0)
        least = max(1, m - sum(inst.capacities[1:]))
        bundles = [s for s in range(1, full + 1)
                   if s & support[0] == s and s | later == full
                   and least <= s.bit_count() <= inst.capacities[0]]
        values = bundle_values(inst, 0)
        layer0, layer1 = stats["layers"][:2]
        assert layer0["transitions"] == len(bundles)
        assert layer1["live"] + layer1["dropped"] == sum(values[s] > 0 for s in bundles)


# (lo, hi) value pools of the bounds' validity test: all ones, where every
# completion lies on the tangent, values with many ties, near-ties a float
# could not tell apart, and values past any float's precision
BOUND_POOLS = [(1, 1), (1, 2), (1, 5), (10 ** 18, 10 ** 18 + 3), (1, 10 ** 30)]


@st.composite
def _bound_instances(draw):
    """Every value positive, so the incumbent is positive; m <= 9, n <= 4
    and total capacity m (tight) or up to 3 more (slack)."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(n, 9))
    caps = [1] * n
    for _ in range(m - n + draw(st.sampled_from([0, 0, 1, 3]))):
        caps[draw(st.integers(0, n - 1))] += 1
    lo, hi = draw(st.sampled_from(BOUND_POOLS))
    values = st.integers(lo, hi)
    return Instance.create(caps, draw(st.lists(st.lists(values, min_size=n, max_size=n),
                                                min_size=m, max_size=m)),
                           draw(st.lists(st.lists(values, min_size=m, max_size=m),
                                         min_size=n, max_size=n)))


def _best_by_firms(inst: Instance, firms, start: list[int]) -> list[int]:
    """From start[x], the best product of x's workers over no firm yet, the
    best product of x's workers over firms, in order, each taking a bundle
    of 1..c_f workers it and every member value, for every mask x."""
    table = start
    for f in firms:
        values = bundle_values(inst, f)
        new = [0] * len(table)
        for x in range(len(table)):
            sub = x
            while sub:
                if sub.bit_count() <= inst.capacities[f]:
                    new[x] = max(new[x], values[sub] * table[x ^ sub])
                sub = (sub - 1) & x
        table = new
    return table


@settings(max_examples=300, deadline=None)
@given(_bound_instances())
def test_bounds_hold_at_every_reachable_state(inst):
    """Before each layer i >= 1, at every state t the full DP reaches and
    that some completion by firms i.. extends, both bounds of
    _bound_tables are at least T[i-1, t] times the best such completion,
    found by brute force; and the tables are defined at t's size."""
    m, n, full = inst.m, inst.n, (1 << inst.m) - 1
    incumbent, mu = exact._dp_incumbent(inst)
    assert incumbent > 0
    bounds = exact._bound_tables(inst, mu, incumbent, m // 2)
    mask = (1 << (m // 2)) - 1
    for i in range(1, n):
        # T[i-1, t] over firms 0..i-1, and each best completion by firms i..
        # of the workers r outside t, from the empty mask's empty product
        empty = [1] + [0] * full
        before = _best_by_firms(inst, range(i), empty)
        completion = _best_by_firms(inst, range(i, n), empty)
        lows, highs, s_lows, s_highs, y_lows, y_highs, exps, cuts = bounds[i]
        for t in range(full + 1):
            value = before[t] * completion[full ^ t]
            if not value:
                continue
            lo, hi, p = t & mask, t >> (m // 2), t.bit_count()
            assert before[t] * lows[lo] * highs[hi] >= value, (i, t)
            tangent = (before[t] * s_lows[lo] * s_highs[hi]
                       * (y_lows[lo] + y_highs[hi]) ** exps[p])
            # the bound is incumbent * tangent / cuts[p]
            assert incumbent * tangent >= value * cuts[p], (i, t)


# (lo, hi) value pools of the incumbent tests: small values with many ties,
# near-ties a float could not tell apart, and values past any float's
# precision
INCUMBENT_POOLS = {"small": (1, 5), "near_ties": (10 ** 18, 10 ** 18 + 3),
                   "huge": (1, 10 ** 30)}


@pytest.mark.parametrize("pool", INCUMBENT_POOLS)
def test_incumbent_is_a_scored_matching(pool):
    """On dense instances, tight and slack, the local search from greedy's
    matching ends at a feasible matching of every worker whose product is
    the incumbent, between greedy's product and the optimum."""
    lo, hi = INCUMBENT_POOLS[pool]
    rng = random.Random(f"incumbent-{pool}")
    moved = 0
    for k in range(60):
        n = rng.randint(1, 4)
        m = rng.randint(n, 9)
        caps = [1] * n
        # k even: total capacity exactly m; odd: up to 3 more
        for _ in range(m - n + (k % 2) * rng.randint(1, 3)):
            caps[rng.randrange(n)] += 1
        inst = Instance.create(caps, [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)],
                               [[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)])
        start, greedy = greedy_submodular(inst)
        mu, moves = exact._local_search(inst, start)
        assert validate(inst, mu) is None and UNMATCHED not in mu.assignment, inst
        incumbent = exact._dp_incumbent(inst)[0]
        assert nash_value(inst, mu).product == incumbent
        assert (moves == 0) == (mu == start)
        assert 0 < greedy.product <= incumbent <= solve_bruteforce(inst).value.product
        stats = {}
        solve_dp(inst, stats)
        assert (stats["greedy"], stats["moves"], stats["incumbent"]) == (
            greedy.product, moves, incumbent)
        moved += moves > 0
    # the pools leave greedy short of a local optimum often enough to test
    assert moved >= 5


@pytest.mark.parametrize("seed", [1, 4, 7])
def test_local_search_raises_the_incumbent(monkeypatch, seed):
    """Dense m = 12 draws where greedy is below the optimum: the search
    reaches the optimum, and with it the bound does less work than with
    greedy's product as the incumbent, for the same record."""
    inst = generators.gen_random(12, 3, [4] * 3, 5, 1.0, seed).instance
    stats = {}
    result = solve_dp(inst, stats)
    optimum = result[1].product
    assert stats["greedy"] < stats["incumbent"] == optimum
    monkeypatch.setattr(exact, "_local_search", lambda inst, mu: (mu, 0))
    greedy_stats = {}
    assert solve_dp(inst, greedy_stats) == result
    assert greedy_stats["incumbent"] == stats["greedy"]

    def transitions(st):
        return sum(layer["transitions"] for layer in st["layers"])
    assert transitions(stats) < transitions(greedy_stats)
