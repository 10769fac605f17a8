"""The positive-entry scans of the polynomial solvers against their dense
forms (reference_support), the solvers on edge-shaped instances, a count of
the value reads the scans make, and cap1 and deg3cap2 at mid size against
networkx's blossom on the dense cap1 graph and on deg3cap2's worker-pair
graph."""

import json
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import reference_support
import reference_symbin
from nswmatch import cli
from nswmatch.cli import SOLVERS, main, run_algo
from nswmatch.core import Instance, Matching, firm_bundle_value, nash_value
from nswmatch.restricted import _pairs_within

# cli looks each solver up by name at call time, so patching these names
# makes run_algo record what the dense forms return
REFERENCE_SOLVERS = {
    "solve_capacity_one": reference_support.solve_capacity_one,
    "greedy_submodular": reference_support.greedy_submodular,
    "solve_symmetric_binary":
        lambda inst: reference_symbin.solve_symmetric_binary(inst, {}),
    "solve_degree_two": reference_support.solve_degree_two,
    "solve_degree3_capacity2": reference_support.solve_degree3_capacity2,
    "solve_single_positive_firm": reference_support.solve_single_positive_firm,
    "exists_nonzero_nash": reference_support.exists_nonzero_nash,
}
COMPARED = ("deg2", "deg3cap2", "singlefirm", "feasible", "cap1", "symbin", "greedy")
BIG = 2 ** 53


def _value(rng: random.Random, big: bool) -> int:
    return rng.randint(BIG + 1, 2 ** 64) if big and rng.random() < 0.5 else rng.randint(1, 5)


def _edge(rng, worker_vals, firm_vals, w, f, big, one_sided=0.15):
    """A surviving pair (w, f); with probability one_sided only one side
    values the other, either side equally often."""
    wv, fv = _value(rng, big), _value(rng, big)
    r = rng.random()
    if r < one_sided / 2:
        fv = 0
    elif r < one_sided:
        wv = 0
    worker_vals[w][f] = wv
    firm_vals[f][w] = fv


def _family_instance(rng: random.Random, family: str, m: int, n: int, big: bool):
    """(capacities, worker_vals, firm_vals) of one family, most of them
    inside the domain of the solver the family is named after.  Some
    families fix m from n."""
    if family == "degree-three-cap-two":
        m = 2 * n
    elif family == "capacity-one" and rng.random() < 0.8:
        m = n
    worker_vals = [[0] * n for _ in range(m)]
    firm_vals = [[0] * m for _ in range(n)]
    caps = [rng.randint(1, 3) for _ in range(n)]
    if family == "sparse":
        for w in range(m):
            for f in range(n):
                if rng.random() < 0.5:
                    _edge(rng, worker_vals, firm_vals, w, f, big)
    elif family == "degree-two":
        wd, fd = [0] * m, [0] * n
        pairs = [(w, f) for w in range(m) for f in range(n)]
        rng.shuffle(pairs)
        for w, f in pairs:
            if wd[w] < 2 and fd[f] < 2 and rng.random() < 0.8:
                wd[w] += 1
                fd[f] += 1
                _edge(rng, worker_vals, firm_vals, w, f, big)
    elif family == "degree-three-cap-two":
        # a planted pair per firm plus up to one more worker
        caps = [2] * n
        perm = rng.sample(range(m), m)
        for f in range(n):
            for w in {perm[2 * f], perm[2 * f + 1], rng.randrange(m)}:
                _edge(rng, worker_vals, firm_vals, w, f, big, one_sided=0.1)
    elif family == "single-firm":
        for w in range(m):
            worker_vals[w][w % n if rng.random() < 0.7 else rng.randrange(n)] = _value(rng, big)
        if rng.random() < 0.2:  # a worker with two positive firms
            worker_vals[rng.randrange(m)][rng.randrange(n)] = _value(rng, big)
        firm_vals = [[_value(rng, big) if rng.random() < 0.8 else 0 for _ in range(m)]
                     for _ in range(n)]
        caps = [rng.randint(1, m) for _ in range(n)]
    elif family == "symmetric-binary":
        worker_vals = [[int(rng.random() < 0.5) for _ in range(n)] for _ in range(m)]
        for w in range(m):
            worker_vals[w][w % n] = 1
        firm_vals = [[worker_vals[w][f] for w in range(m)] for f in range(n)]
        caps = [rng.randint(1, m) for _ in range(n)]
        if rng.random() < 0.2:  # one asymmetric pair
            w, f = rng.randrange(m), rng.randrange(n)
            firm_vals[f][w] = 1 - firm_vals[f][w]
    elif family == "positive":
        worker_vals = [[_value(rng, big) for _ in range(n)] for _ in range(m)]
        firm_vals = [[_value(rng, big) for _ in range(m)] for _ in range(n)]
        caps = [rng.randint(1, m) for _ in range(n)]
    elif family == "capacity-one":
        caps = [1] * n
        for w in range(m):
            for f in range(n):
                if rng.random() < 0.6:
                    _edge(rng, worker_vals, firm_vals, w, f, big)
    return caps, worker_vals, firm_vals


FAMILIES = ("sparse", "degree-two", "degree-three-cap-two", "single-firm",
            "symmetric-binary", "positive", "capacity-one")


@st.composite
def edge_instances(draw):
    """Small instances of every family, with m < n, m = 1, one-sided pairs
    and values above 2^53 common, and a zero capacity, an all-zero worker
    row or an all-zero firm row in a fifth of them each."""
    family = draw(st.sampled_from(FAMILIES))
    n = draw(st.integers(1, 5))
    m = draw(st.sampled_from([1, max(1, n - 1), n, n + 2, 2 * n, 9]))
    big = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    caps, worker_vals, firm_vals = _family_instance(rng, family, m, n, big)
    m = len(worker_vals)
    if rng.random() < 0.2:
        caps[rng.randrange(n)] = 0
    if rng.random() < 0.2:
        worker_vals[rng.randrange(m)] = [0] * n
    if rng.random() < 0.2:
        firm_vals[rng.randrange(n)] = [0] * m
    return Instance.create(caps, worker_vals, firm_vals)


@settings(max_examples=500, deadline=None)
@given(edge_instances())
def test_positive_entry_scans_match_dense_reference(inst):
    got = [run_algo(name, inst) for name in COMPARED]
    with mock.patch.multiple(cli, **REFERENCE_SOLVERS):
        want = [run_algo(name, inst) for name in COMPARED]
    assert got == want


EDGE_SHAPES = {
    "one-sided": Instance.create((1, 2), [[3, 0], [0, 4], [2, 5]],
                                 [[0, 1, 2], [6, 0, 0]]),
    "zero-rows": Instance.create((2, 2), [[0, 0], [1, 2], [3, 0]],
                                 [[0, 0, 0], [1, 4, 2]]),
    "fewer-workers": Instance.create((1, 1, 1, 2), [[1, 2, 0, 3], [0, 1, 1, 1]],
                                     [[1, 1], [2, 0], [0, 3], [4, 4]]),
    "one-worker": Instance.create((1, 1, 1), [[2, 0, 1]], [[1], [0], [3]]),
    "zero-capacity": Instance.create((2, 0), [[5, 4], [5, 4]], [[3, 4], [5, 2]]),
    "big-values": Instance.create((1, 1), [[BIG + 1, BIG], [1, BIG + 3]],
                                  [[BIG, 2 ** 64], [BIG + 7, 1]]),
    "all-zero": Instance.create((1, 1), [[0, 0], [0, 0]], [[0, 0], [0, 0]]),
}


@pytest.mark.parametrize("algo", sorted(SOLVERS))
@pytest.mark.parametrize("shape", sorted(EDGE_SHAPES))
def test_every_solver_handles_edge_shapes(shape, algo, tmp_path, capsys):
    inst = EDGE_SHAPES[shape]
    record = run_algo(algo, inst, "1/2")
    assert record["status"] in ("ok", "zero-optimum", "infeasible-domain",
                                "budget-exceeded")
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst.to_json()))
    assert main(["solve", str(path), "--algo", algo, "--eps", "1/2"]) in (0, 3, 4)
    assert json.loads(capsys.readouterr().out)["status"] == record["status"]


# --- work count ---------------------------------------------------------------

class CountingRow(tuple):
    """A value row that counts its index reads; iterating it does not read
    through __getitem__."""

    reads = 0

    def __getitem__(self, key):
        CountingRow.reads += 1
        return tuple.__getitem__(self, key)


def _counting_instance(caps, worker_vals, firm_vals) -> Instance:
    return Instance(tuple(caps), tuple(CountingRow(r) for r in worker_vals),
                    tuple(CountingRow(r) for r in firm_vals))


def _sparse_degree_two(rng, k):
    """Alternating worker/firm cycles of 4 to 14 agents.  Worker j of a
    cycle and firm j value each other; some pairs of worker j and firm
    j + 1 are valued on one side only, so the optimum stays positive."""
    worker_vals = [[0] * k for _ in range(k)]
    firm_vals = [[0] * k for _ in range(k)]
    start = 0
    while start < k:
        length = min(rng.randint(2, 6), k - start)
        if k - start - length == 1:
            length += 1
        for j in range(length):
            w = start + j
            _edge(rng, worker_vals, firm_vals, w, w, False, one_sided=0)
            _edge(rng, worker_vals, firm_vals, w, start + (j + 1) % length, False)
        start += length
    return [rng.randint(1, 2) for _ in range(k)], worker_vals, firm_vals


def _sparse_degree3_cap2(rng, n):
    m = 2 * n
    perm = rng.sample(range(m), m)
    worker_vals = [[0] * n for _ in range(m)]
    firm_vals = [[0] * m for _ in range(n)]
    for f in range(n):
        for w in {perm[2 * f], perm[2 * f + 1], rng.randrange(m)}:
            worker_vals[w][f] = rng.randint(1, 5)
            firm_vals[f][w] = rng.randint(1, 5)
    return [2] * n, worker_vals, firm_vals


def _sparse_single_firm(rng, k):
    """k workers spread evenly over k // 4 firms, each valuing only its own;
    every firm also values two workers of other firms."""
    n = k // 4
    planted = rng.sample([w % n for w in range(k)], k)
    worker_vals = [[0] * n for _ in range(k)]
    firm_vals = [[0] * k for _ in range(n)]
    for w, f in enumerate(planted):
        worker_vals[w][f] = rng.randint(1, 5)
        firm_vals[f][w] = rng.randint(1, 5)
    for f in range(n):
        for w in rng.sample(range(k), 2):
            firm_vals[f][w] = rng.randint(1, 5)
    return [planted.count(f) + 1 for f in range(n)], worker_vals, firm_vals


def _sparse_symmetric_binary(rng, k):
    worker_vals = [[0] * k for _ in range(k)]
    for w in range(k):
        for f in {w, rng.randrange(k), rng.randrange(k)}:
            worker_vals[w][f] = 1
    firm_vals = [[worker_vals[w][f] for w in range(k)] for f in range(k)]
    return [rng.randint(1, 3) for _ in range(k)], worker_vals, firm_vals


@pytest.mark.parametrize("algo, build, size", [
    ("deg2", _sparse_degree_two, 400),
    ("deg3cap2", _sparse_degree3_cap2, 200),
    ("singlefirm", _sparse_single_firm, 400),
    ("feasible", _sparse_single_firm, 400),
    ("symbin", _sparse_symmetric_binary, 400),
])
def test_sparse_solves_read_values_in_linear_work(algo, build, size):
    """No m * n index loop: a solve reads the value rows at most
    8 * (nnz + m + n) times on a sparse instance of 400 workers."""
    caps, worker_vals, firm_vals = build(random.Random(size), size)
    inst = _counting_instance(caps, worker_vals, firm_vals)
    nnz = sum(v > 0 for row in worker_vals + firm_vals for v in row)
    CountingRow.reads = 0
    record = run_algo(algo, inst)
    assert record["status"] == "ok"
    assert 0 < CountingRow.reads <= 8 * (nnz + inst.m + inst.n)


def _gadgets_after_plain_firms(rng, n):
    """Firms 0 .. n/2 - 1 each own two workers; the other firms come in
    pairs that share two workers and own one more each, so every gadget
    pair comes after n/2 plain firms in the peel's (f, g) order."""
    m = 2 * n
    worker_vals = [[0] * n for _ in range(m)]
    firm_vals = [[0] * m for _ in range(n)]
    owners = [(f,) for f in range(n // 2) for _ in range(2)]
    for f in range(n // 2, n, 2):
        owners += [(f, f + 1), (f, f + 1), (f,), (f + 1,)]
    for w, firms in enumerate(owners):
        for f in firms:
            worker_vals[w][f] = rng.randint(1, 5)
            firm_vals[f][w] = rng.randint(1, 5)
    return [2] * n, worker_vals, firm_vals


def test_deg3cap2_gadgets_after_plain_firms_match_reference():
    inst = Instance.create(*_gadgets_after_plain_firms(random.Random(3), 200))
    record = run_algo("deg3cap2", inst)
    assert record["status"] == "ok"
    with mock.patch.multiple(cli, **REFERENCE_SOLVERS):
        assert run_algo("deg3cap2", inst) == record


def _networkx_perfect_matching(num_left, num_right, edges):
    """matching_on_edges's contract from networkx's blossom on float logs:
    mate, or None when not perfect.  Right vertex r is node num_left + r."""
    import networkx as nx  # the test extra's reference implementation

    graph = nx.Graph()
    graph.add_nodes_from(range(num_left + num_right))
    graph.add_weighted_edges_from((l, num_left + r, math.log(w)) for l, r, w in edges)
    pairs = nx.max_weight_matching(graph, maxcardinality=True)
    if 2 * len(pairs) < num_left + num_right:
        return None
    mate = [None] * num_left
    for a, b in map(sorted, pairs):
        mate[a] = b - num_left
    return mate


def _networkx_cap1_product(inst):
    """cap1's dense form with networkx's blossom as its matcher."""
    with mock.patch.multiple(cli, **REFERENCE_SOLVERS), mock.patch.object(
            reference_support, "matching_on_edges", _networkx_perfect_matching):
        record = run_algo("cap1", inst)
    assert record["status"] == "ok"
    return record["nash_product"]


def _networkx_pair_graph_product(inst):
    """deg3cap2's optimum by the older worker-pair reduction, matched by
    networkx's blossom: after the gadget peel any two live firms share at
    most one worker, so each edge (a, b) of the live workers has one firm
    f, weighted by f's bundle value of (a, b), and a perfect matching of
    the live workers gives each live firm one pair."""
    import networkx as nx  # the test extra's reference implementation

    nbrs, assignment, live_firms, live_workers = reference_support.peel_shared_pairs(inst)
    firm_of = {}
    graph = nx.Graph()
    graph.add_nodes_from(live_workers)
    for f in live_firms:
        for a, b in _pairs_within(nbrs[f] & live_workers):
            val = firm_bundle_value(inst, f, (a, b))
            if val > 0:
                assert (a, b) not in firm_of
                firm_of[a, b] = f
                graph.add_edge(a, b, weight=math.log(val))
    pairs = nx.max_weight_matching(graph, maxcardinality=True)
    assert 2 * len(pairs) == len(live_workers)
    for a, b in map(sorted, pairs):
        assignment[a] = assignment[b] = firm_of[a, b]
    return str(nash_value(inst, Matching.of(assignment)).product)


def _dense_capacity_one(rng, k):
    worker_vals = [[rng.randint(1, 5) for _ in range(k)] for _ in range(k)]
    firm_vals = [[rng.randint(1, 5) for _ in range(k)] for _ in range(k)]
    return [1] * k, worker_vals, firm_vals


NETWORKX_PRODUCT = {"cap1": _networkx_cap1_product, "deg3cap2": _networkx_pair_graph_product}


@pytest.mark.parametrize("algo, build", [
    ("cap1", _dense_capacity_one),
    ("deg3cap2", _sparse_degree3_cap2),
])
def test_blossom_solves_match_networkx_at_mid_size(algo, build):
    """cap1 at k = 150 and deg3cap2 at n = 150 reach the Nash product that
    networkx's blossom finds, an independent check of the in-tree matcher's
    seeded search: for cap1 on the dense form's bipartite graph, for
    deg3cap2 on the worker-pair graph the leave-one-out view replaced."""
    inst = Instance.create(*build(random.Random(150), 150))
    record = run_algo(algo, inst)
    assert record["status"] == "ok"
    assert record["nash_product"] == NETWORKX_PRODUCT[algo](inst)
