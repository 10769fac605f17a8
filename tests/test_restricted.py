import random

import pytest
from hypothesis import given, settings, strategies as st

import reference_symbin
from nswmatch import restricted
from nswmatch.cli import run_algo
from nswmatch.core import DomainError, Instance, NashValue, validate
from nswmatch.exact import solve_capacity_one
from nswmatch.oracle import solve_bruteforce
from reference_oracle import solve_bruteforce_exact_loads
from nswmatch.restricted import (
    _best_good_path,
    solve_degree3_capacity2,
    solve_degree_two,
    solve_single_positive_firm,
    solve_symmetric_binary,
    symmetric_binary_iteration_cap,
)
from conftest import (
    random_degree3_cap2,
    random_degree_two,
    random_single_positive_firm,
    random_symmetric_binary,
)


# --- symmetric binary ------------------------------------------------------

def sym(caps, rows):
    m, n = len(rows), len(caps)
    return Instance.create(caps, rows, [[rows[w][f] for w in range(m)] for f in range(n)])


def test_symbin_example():
    # f1 adjacent to w1, w2, w3; f2 adjacent to w3 only; c = (2, 1)
    inst = sym((2, 1), [[1, 0], [1, 0], [1, 1]])
    mu, value = solve_symmetric_binary(inst)
    assert value.product == 2
    assert mu.assignment[2] == 1 and mu.assignment[0] == mu.assignment[1] == 0


def test_symbin_rejects_asymmetric():
    for inst in [
        Instance.create((1,), [[1]], [[0]]),
        Instance.create((1,), [[0]], [[1]]),
        Instance.create((1,), [[2]], [[2]]),
        # one positive entry a side, at (w0, f1) and (f1, w2): the counts
        # balance and only the zero patterns differ
        Instance.create((2, 2), [[0, 1], [0, 0], [0, 0]], [[0, 0, 0], [0, 0, 1]]),
    ]:
        with pytest.raises(DomainError, match="^valuations must be symmetric and binary$"):
            solve_symmetric_binary(inst)


def test_symbin_already_optimal_zero_iterations():
    inst = sym((1, 1), [[1, 0], [0, 1]])
    stats = {}
    _mu, value = solve_symmetric_binary(inst, stats=stats)
    assert value.product == 1
    assert stats["iterations"] == 0


def unbalanced_symbin(rng, m, n, p):
    """Firm w % n values worker w and other pairs value each other w.p. p,
    capacities 1..m: most optima are positive, and generous capacities
    leave the flow's first matching unbalanced, so the search applies
    paths."""
    rows = [[int(rng.random() < p) for _ in range(n)] for _ in range(m)]
    for w, row in enumerate(rows):
        row[w % n] = 1
    return sym([rng.randint(1, m) for _ in range(n)], rows)


def test_symbin_rejects_a_non_improving_path(monkeypatch):
    """The check after each applied good path raises, also under python -O,
    when the path does not raise the product: the start matching puts one
    worker at each firm, and the patched path moves firm 0's to firm 1."""
    monkeypatch.setattr(restricted, "_best_good_path", lambda reach, loads, caps: [0, 1])
    with pytest.raises(AssertionError, match="failed to increase the product"):
        solve_symmetric_binary(sym((2, 2), [[1, 1], [1, 1]]))


def test_symbin_oracle_agreement_and_cap():
    """200 small inputs and 150 unbalanced ones, some of which apply paths;
    one of those (m = 12, n = 4) takes some 2.6 million oracle leaves, past
    the default budget of 2 million."""
    rng = random.Random(61)
    instances = [random_symmetric_binary(rng) for _ in range(200)]
    instances += [unbalanced_symbin(rng, rng.randint(4, 12), rng.randint(2, 4),
                                    rng.choice((0.3, 0.5, 0.8)))
                  for _ in range(150)]
    searched = 0
    for inst in instances:
        stats = {}
        mu, value = solve_symmetric_binary(inst, stats=stats)
        assert validate(inst, mu) is None
        oracle = solve_bruteforce(inst, limit=10 ** 7)
        assert value.product == oracle.value.product
        cap = symmetric_binary_iteration_cap(inst.m, inst.n)
        assert stats["iterations"] <= cap
        searched += stats["iterations"] > 0
    assert searched >= 20


def pair_scan_firms(reach, loads, caps):
    """reference_symbin's choice on a (reach, loads, caps) state: the firms
    of best_path's path, with one arc f -> g for each bit g != f of
    reach[f]."""
    n = len(loads)
    arcs = [[[f] if g != f and reach[f] >> g & 1 else [] for g in range(n)]
            for f in range(n)]
    path = reference_symbin.best_path(arcs, loads, caps)
    return None if path is None else [path[0][0]] + [g for _f, g, _w in path]


def arcs_mask(n, *arcs):
    """reach bitmasks with bit f set in reach[f] and bit g for each (f, g)."""
    reach = [1 << f for f in range(n)]
    for f, g in arcs:
        reach[f] |= 1 << g
    return reach


@pytest.mark.parametrize("reach, loads, caps, firms", [
    # (3, 1) and (9, 2) both gain 4/3: the lesser start wins, although
    # the load-9 firm is searched first in the second state
    (arcs_mask(4, (0, 1), (2, 3)), [9, 2, 3, 1], [9, 3, 3, 2], [0, 1]),
    (arcs_mask(4, (0, 1), (2, 3)), [3, 1, 9, 2], [3, 2, 9, 3], [0, 1]),
    # the least-load firm 1 has no slack
    (arcs_mask(3, (0, 1), (0, 2)), [5, 1, 2], [5, 1, 4], [0, 2]),
    (arcs_mask(3, (0, 1), (0, 2)), [3, 1, 2], [3, 1, 4], None),
    # the load-10 firm reaches nothing
    (arcs_mask(3, (1, 2), (2, 0)), [10, 4, 1], [10, 4, 2], [1, 2]),
    # equal-load roots 0 and 1: 0 reaches 3 only through 2, 1 directly
    (arcs_mask(4, (0, 2), (2, 3), (1, 3)), [5, 5, 3, 1], [5, 5, 3, 2],
     [0, 2, 3]),
    # firm 2, reached from root 0, leads on to 3 for root 0, not root 1
    (arcs_mask(4, (1, 2), (0, 2), (2, 3), (1, 3)), [6, 6, 2, 1], [6, 6, 2, 5],
     [0, 2, 3]),
])
def test_best_good_path_matches_pair_scan(reach, loads, caps, firms):
    assert pair_scan_firms(reach, loads, caps) == firms
    assert _best_good_path(reach, loads, caps) == firms


def test_best_good_path_matches_pair_scan_random():
    rng = random.Random(18)
    found = 0
    for _ in range(3000):
        n = rng.randint(1, 8)
        p = rng.random()
        reach = arcs_mask(n, *((f, g) for f in range(n) for g in range(n)
                               if rng.random() < p))
        loads = [rng.randint(1, rng.choice((3, 6, 12))) for _ in range(n)]
        caps = [load + rng.choice((0, 0, 1, 3)) for load in loads]
        firms = _best_good_path(reach, loads, caps)
        assert firms == pair_scan_firms(reach, loads, caps)
        found += firms is not None
    assert found > 1000


@st.composite
def symbin_instances(draw):
    """unbalanced_symbin instances up to m = 40, n = 8."""
    m = draw(st.integers(1, 40))
    n = draw(st.integers(1, min(8, m)))
    p = draw(st.sampled_from([0.2, 0.5, 0.8, 1.0]))
    return unbalanced_symbin(random.Random(draw(st.integers(0, 2 ** 32 - 1))), m, n, p)


def assert_matches_rebuild_reference(inst) -> int:
    """solve_symmetric_binary agrees with reference_symbin, which rebuilds
    its arcs every iteration; returns the iteration count."""
    stats, ref_stats = {}, {}
    mu, value = solve_symmetric_binary(inst, stats=stats)
    mu_ref, value_ref = reference_symbin.solve_symmetric_binary(inst, ref_stats)
    assert mu == mu_ref
    assert value.product == value_ref.product
    assert stats["iterations"] == ref_stats["iterations"]
    return stats["iterations"]


@settings(max_examples=500, deadline=None)
@given(symbin_instances())
def test_symbin_matches_rebuild_reference(inst):
    assert_matches_rebuild_reference(inst)


def test_symbin_matches_rebuild_reference_past_one_word():
    """80 firms, past the strategy's 8: the firm bitmasks span more than
    one 64-bit word, and the search runs some 60 paths."""
    rng = random.Random(24)
    m, n = 320, 80
    rows = [[int(rng.random() < 0.05) for _ in range(n)] for _ in range(m)]
    for w, row in enumerate(rows):
        row[w % n] = 1
    inst = sym([rng.randint(1, 12) for _ in range(n)], rows)
    assert assert_matches_rebuild_reference(inst) > 0


# --- degree two ------------------------------------------------------------

def test_deg2_forced_edge():
    inst = Instance.create((1,), [[2]], [[3]])
    _mu, value = solve_degree_two(inst)
    assert value.product == 6


def test_deg2_doubled_firm():
    # path w1 - f1 - w2, all values 1, capacity 2: f1 takes both
    inst = Instance.create((2,), [[1], [1]], [[1, 1]])
    mu, value = solve_degree_two(inst)
    assert value.product == 2
    assert mu.assignment == (0, 0)
    # capacity 1 makes it infeasible to cover both workers
    tight = Instance.create((1,), [[1], [1]], [[1, 1]])
    assert solve_degree_two(tight)[1].is_zero


def test_deg2_four_cycle():
    inst = Instance.create(
        (1, 1),
        [[2, 3], [4, 5]],
        [[1, 6], [7, 2]],
    )
    _mu, value = solve_degree_two(inst)
    assert value.product == solve_bruteforce(inst).value.product


def test_deg2_rejects_high_degree():
    inst = Instance.create((1, 1, 1), [[1, 1, 1]], [[1], [1], [1]])
    with pytest.raises(DomainError):
        solve_degree_two(inst)


def from_edges(caps, m, edges):
    """The instance whose pair (w, f) has values edges[w, f] = (v_wf, v_fw),
    and 0 on every other pair."""
    n = len(caps)
    worker_vals = [[0] * n for _ in range(m)]
    firm_vals = [[0] * m for _ in range(n)]
    for (w, f), (v_wf, v_fw) in edges.items():
        worker_vals[w][f], firm_vals[f][w] = v_wf, v_fw
    return Instance.create(caps, worker_vals, firm_vals)


@pytest.mark.parametrize("at_bound, extra", [
    # w0 values f0 only; f1 and f2 value w0 one-sidedly
    ({(0, 0): (1, 1), (0, 1): (0, 1), (1, 1): (1, 1), (2, 2): (1, 1)}, {(0, 2): (0, 1)}),
    # f0 values w0 only; w1 and w2 value f0 one-sidedly
    ({(0, 0): (1, 1), (1, 0): (1, 0), (1, 1): (1, 1), (2, 2): (1, 1)}, {(2, 0): (1, 0)}),
])
def test_deg2_one_sided_edges_count_toward_degree(at_bound, extra):
    """An edge survives when either side is positive, so a one-sided edge
    pushes an agent past degree 2 although its own row has one positive."""
    caps = (1, 1, 1)
    assert run_algo("deg2", from_edges(caps, 3, at_bound))["status"] == "ok"
    over = run_algo("deg2", from_edges(caps, 3, {**at_bound, **extra}))
    assert over["status"] == "infeasible-domain"
    assert over["error"] == "an agent has degree above 2"


def test_deg2_oracle_agreement():
    rng = random.Random(67)
    for _ in range(200):
        inst = random_degree_two(rng)
        mu, value = solve_degree_two(inst)
        assert validate(inst, mu) is None
        assert value.product == solve_bruteforce(inst).value.product


# --- cap1 and deg2 on their common domain ---------------------------------

def capacity_one_cycle(rng, k, values):
    """Capacity 1 with positive entries on one 2k-cycle: worker i and firms
    i and i + 1 (mod k) value each other, each value drawn from values."""
    worker_vals = [[0] * k for _ in range(k)]
    firm_vals = [[0] * k for _ in range(k)]
    for w in range(k):
        for f in (w, (w + 1) % k):
            worker_vals[w][f] = rng.choice(values)
            firm_vals[f][w] = rng.choice(values)
    return Instance.create([1] * k, worker_vals, firm_vals)


def test_cap1_agrees_with_deg2_on_cycles():
    """Both exact solvers on instances in both domains, k = 3..50 with
    values 1..5: equal products and valid matchings."""
    for k in range(3, 51):
        for seed in range(3):
            inst = capacity_one_cycle(random.Random(f"cycle/{k}/{seed}"), k, range(1, 6))
            mu1, value1 = solve_capacity_one(inst)
            mu2, value2 = solve_degree_two(inst)
            assert validate(inst, mu1) is None and validate(inst, mu2) is None
            assert value1.product == value2.product > 0, (k, seed)


@pytest.mark.xfail(reason="cap1 compares logs rounded to 2^-52, "
                   "which cannot tell 10^18 from 10^18 + 1")
def test_cap1_and_deg2_match_oracle_on_near_tie_cycles():
    """The same cycles with values 10^18..10^18+3, k = 3..7, against
    oracle; deg2 compares exact products and is right on every one."""
    values = range(10 ** 18, 10 ** 18 + 4)
    for k in range(3, 8):
        for seed in range(60):
            inst = capacity_one_cycle(random.Random(f"near-tie/{k}/{seed}"), k, values)
            want = solve_bruteforce(inst).value.product
            assert solve_degree_two(inst)[1].product == want, (k, seed)
            assert solve_capacity_one(inst)[1].product == want, (k, seed)


# --- degree 3, exactly two workers per firm --------------------------------

def best_exact_two(inst):
    res = solve_bruteforce_exact_loads(inst, (2,) * inst.n)
    return 0 if res is None else res[1].product


# what solve_degree3_capacity2 returns when no firm can take two workers
# with a positive product
NO_INSTANCE = (None, NashValue.zero())


def test_deg3cap2_forced_disjoint_pairs():
    inst = Instance.create(
        (2, 2),
        [[1, 0], [2, 0], [0, 3], [0, 1]],
        [[2, 1, 0, 0], [0, 0, 1, 2]],
    )
    res = solve_degree3_capacity2(inst)
    assert res[0] is not None
    assert res[1].product == best_exact_two(inst)


def test_deg3cap2_reduction_rule():
    # f0 and f1 share neighbors w0, w1; privates w2 (f0) and w3 (f1)
    inst = Instance.create(
        (2, 2),
        [[1, 2], [3, 1], [2, 0], [0, 2]],
        [[1, 2, 3, 0], [2, 1, 0, 1]],
    )
    res = solve_degree3_capacity2(inst)
    ref = best_exact_two(inst)
    assert res[0] is not None and res[1].product == ref


def test_deg3cap2_no_instance_on_shared_three():
    # two firms with an identical 3-neighborhood cannot both get 2 workers
    inst = Instance.create(
        (2, 2),
        [[1, 1], [1, 1], [1, 1], [0, 0]],
        [[1, 1, 1, 0], [1, 1, 1, 0]],
    )
    assert solve_degree3_capacity2(inst) == NO_INSTANCE
    assert best_exact_two(inst) == 0


def test_deg3cap2_rejects_high_degree():
    inst = Instance.create(
        (2,), [[1], [1], [1], [1]], [[1, 1, 1, 1]])
    with pytest.raises(DomainError):
        solve_degree3_capacity2(inst)


@pytest.mark.parametrize("third, fourth", [
    ((1, 0), (1, 0)),  # worker-only pairs: f0's row has two positives
    ((1, 0), (0, 1)),  # the fourth from a firm-only pair: three positives
    ((0, 1), (1, 0)),  # the third firm-only, the fourth worker-only
])
def test_deg3cap2_one_sided_edges_count_toward_degree(third, fourth):
    """f0 has w0 and w1 on both sides, w2 on one side and, past the bound,
    w3 on one side."""
    edges = {(0, 0): (1, 1), (1, 0): (1, 1), (2, 0): third, (2, 1): (1, 1), (3, 1): (1, 1)}
    assert run_algo("deg3cap2", from_edges((2, 2), 4, edges))["status"] == "ok"
    over = run_algo("deg3cap2", from_edges((2, 2), 4, {**edges, (3, 0): fourth}))
    assert over["status"] == "infeasible-domain"
    assert over["error"] == "a firm has degree above 3"


def test_deg3cap2_odd_worker_count_is_no_instance():
    inst = Instance.create((2,), [[1], [1], [1]], [[1, 1, 1]])
    assert solve_degree3_capacity2(inst) == NO_INSTANCE


def test_deg3cap2_oracle_agreement():
    rng = random.Random(71)
    for _ in range(150):
        inst = random_degree3_cap2(rng)
        res = solve_degree3_capacity2(inst)
        ref = best_exact_two(inst)
        if ref == 0:
            assert res == NO_INSTANCE
        else:
            assert res[0] is not None
            assert res[1].product == ref
            assert validate(inst, res[0]) is None
            loads = [0] * inst.n
            for f in res[0].assignment:
                loads[f] += 1
            assert all(x == 2 for x in loads)


def _agrees_with_exact_loads(inst):
    """solve_degree3_capacity2 against the exact-loads brute force: no
    matching and a zero product iff no matching with two workers per firm
    has a positive product, else the same product from a valid matching
    with two workers per firm.  Returns the product."""
    res = solve_degree3_capacity2(inst)
    ref = best_exact_two(inst)
    if ref == 0:
        assert res == NO_INSTANCE
        return 0
    assert res[0] is not None and res[1].product == ref
    assert validate(inst, res[0]) is None
    assert sorted(res[0].assignment) == sorted(2 * list(range(inst.n)))
    return ref


def _pools_instance(rng, n, pools, unvalued=()):
    """m = 2n workers, capacities 2; the workers of pools[f] and firm f
    value each other 1..5, except that f values the (f, w) in unvalued 0."""
    m = 2 * n
    worker_vals = [[0] * n for _ in range(m)]
    firm_vals = [[0] * m for _ in range(n)]
    for f, pool in enumerate(pools):
        for w in pool:
            worker_vals[w][f] = rng.randint(1, 5)
            firm_vals[f][w] = 0 if (f, w) in unvalued else rng.randint(1, 5)
    return Instance.create([2] * n, worker_vals, firm_vals)


def _planted_pools(rng, n):
    """Each firm's planted pair, from a random permutation of the 2n
    workers."""
    perm = rng.sample(range(2 * n), 2 * n)
    return [{perm[2 * f], perm[2 * f + 1]} for f in range(n)]


def test_deg3cap2_worker_left_out_by_several_firms():
    """A hub worker valued by 4-6 firms (3-5 right copies) besides planted
    pairs, m <= 12."""
    rng = random.Random(401)
    positive = 0
    for _ in range(120):
        n = rng.randint(4, 6)
        pools = _planted_pools(rng, n)
        hub = rng.randrange(2 * n)
        for f in rng.sample([f for f in range(n) if hub not in pools[f]],
                            rng.randint(3, n - 1)):
            pools[f].add(hub)
        assert sum(hub in pool for pool in pools) >= 4
        positive += _agrees_with_exact_loads(_pools_instance(rng, n, pools)) > 0
    assert positive > 60


def test_deg3cap2_gadgets_among_plain_firms():
    """One or two gadget pairs (two firms sharing two workers, each with
    one more) mixed with plain firms of degree 2 or 3, m <= 12."""
    rng = random.Random(402)
    positive = 0
    for _ in range(120):
        n = rng.randint(3, 6)
        perm = rng.sample(range(2 * n), 2 * n)
        pools = []
        for _ in range(rng.randint(1, n // 2)):
            a, b, c, d = perm[:4]
            perm = perm[4:]
            pools += [{a, b, c}, {a, b, d}]
        while len(pools) < n:
            pools.append({perm.pop(), perm.pop()})
            if rng.random() < 0.6:
                pools[-1].add(rng.randrange(2 * n))
        rng.shuffle(pools)
        positive += _agrees_with_exact_loads(_pools_instance(rng, n, pools)) > 0
    assert positive > 60


def test_deg3cap2_zero_pairs_and_exclusions():
    """Firm-side zeros, m <= 12: a degree-2 firm that values neither of
    its workers makes every answer zero, and a degree-3 firm that values
    only some of its workers has exclusions worth 0, which are no edges."""
    rng = random.Random(403)
    for _ in range(150):
        n = rng.randint(2, 6)
        pools = _planted_pools(rng, n)
        for pool in pools:
            if rng.random() < 0.7:
                pool.add(rng.randrange(2 * n))
        unvalued = {(f, w) for f, pool in enumerate(pools) for w in pool
                    if rng.random() < 0.3}
        _agrees_with_exact_loads(_pools_instance(rng, n, pools, unvalued))
    # firm 0's only pair is worth 0; firm 1 must leave out worker 1
    inst = _pools_instance(rng, 2, [{0, 1}, {1, 2, 3}], {(0, 0), (0, 1)})
    assert _agrees_with_exact_loads(inst) == 0
    # firm 0 values only worker 0, so leaving 0 out is worth 0 and firm 0
    # leaves out worker 1, which firm 2 takes; firm 1 leaves out worker 0
    inst = _pools_instance(rng, 3, [{0, 1, 2}, {0, 3, 4}, {1, 5}], {(0, 1), (0, 2)})
    assert _agrees_with_exact_loads(inst) > 0
    assert solve_degree3_capacity2(inst)[0].assignment == (0, 2, 0, 1, 1, 2)


def test_deg3cap2_worker_no_firm_can_take():
    """A worker that values no firm cannot be placed: no matching, also
    when a firm values that worker."""
    inst = Instance.create((2, 2), [[1, 1], [1, 1], [1, 0], [0, 0]],
                           [[1, 1, 1, 0], [1, 1, 0, 0]])
    assert _agrees_with_exact_loads(inst) == 0
    inst = Instance.create((2, 2), [[1, 1], [1, 1], [1, 0], [0, 0]],
                           [[1, 1, 1, 0], [1, 1, 0, 5]])
    assert _agrees_with_exact_loads(inst) == 0


# --- single positive firm --------------------------------------------------

def test_singlefirm_forced():
    inst = Instance.create((1, 1), [[2, 0], [0, 3]], [[4, 0], [0, 5]])
    mu, value = solve_single_positive_firm(inst)
    assert mu.assignment == (0, 1)
    assert value.product == 2 * 3 * 4 * 5


def test_singlefirm_capacity_exceeded_is_zero():
    inst = Instance.create((1,), [[1], [1]], [[1, 1]])
    _mu, value = solve_single_positive_firm(inst)
    assert value.is_zero


def test_singlefirm_zero_firm_side():
    # the firm does not value its forced worker: product is zero but the
    # forced matching is still feasible and reported
    inst = Instance.create((2,), [[2], [2]], [[0, 0]])
    mu, value = solve_single_positive_firm(inst)
    assert value.is_zero
    assert validate(inst, mu) is None


def test_singlefirm_rejects_multi_positive():
    inst = Instance.create((1, 1), [[1, 1]], [[1], [1]])
    with pytest.raises(DomainError):
        solve_single_positive_firm(inst)


def test_singlefirm_oracle_agreement():
    rng = random.Random(73)
    for _ in range(150):
        inst = random_single_positive_firm(rng)
        _mu, value = solve_single_positive_firm(inst)
        assert value.product == solve_bruteforce(inst).value.product
