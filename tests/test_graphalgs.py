import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from nswmatch.graphalgs import (
    _Dinic,
    max_weight_perfect_matching,
    max_weight_perfect_matching_general,
)


def _product(weights, pairs):
    return math.prod(weights[p] for p in pairs)


def test_bipartite_crossing_weights():
    # positive-product edges of the motivating example, weight v*v
    pairs = max_weight_perfect_matching_general(4, [(0, 3, 4), (1, 2, 4)])
    assert pairs == [(0, 3), (1, 2)]


def test_bipartite_single_edge():
    assert max_weight_perfect_matching_general(2, [(0, 1, 5)]) == [(0, 1)]


def test_bipartite_matches_permutation_enumeration():
    rng = random.Random(4)
    for _ in range(100):
        k = 3
        weights = {(i, k + j): rng.randint(1, 50) for i in range(k) for j in range(k)}
        pairs = max_weight_perfect_matching_general(
            2 * k, [(u, v, x) for (u, v), x in weights.items()])
        best = max(math.prod(weights[(i, k + p[i])] for i in range(k))
                   for p in itertools.permutations(range(k)))
        assert _product(weights, pairs) == best


def test_bipartite_saturation_infeasible():
    # a star on an even vertex count: 0, 1 and 3 all need vertex 2
    edges = [(0, 2, 1), (1, 2, 1), (2, 3, 1)]
    assert max_weight_perfect_matching_general(4, edges) is None


def test_perfect_matching_four_cycle():
    weights = {(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 2}
    pairs = max_weight_perfect_matching_general(
        4, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 0, 2)])
    assert pairs == [(0, 3), (1, 2)]
    assert _product(weights, pairs) == 4


def test_perfect_matching_odd_infeasible():
    edges = [(0, 1, 1), (1, 2, 1), (0, 2, 1)]
    assert max_weight_perfect_matching_general(3, edges) is None


def test_perfect_matching_k4_enumeration():
    rng = random.Random(8)
    for _ in range(100):
        w = {(i, j): rng.randint(1, 50) for i in range(4) for j in range(i + 1, 4)}
        pairs = max_weight_perfect_matching_general(
            4, [(i, j, x) for (i, j), x in w.items()])
        best = max(w[(0, 1)] * w[(2, 3)], w[(0, 2)] * w[(1, 3)],
                   w[(0, 3)] * w[(1, 2)])
        assert _product(w, pairs) == best


def test_no_stage_without_a_perfect_matching_shape():
    # an odd vertex count or an isolated vertex returns before any stage
    assert max_weight_perfect_matching(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)]) == (None, None)
    assert max_weight_perfect_matching(4, [(0, 1, 1), (1, 2, 1), (0, 2, 1)]) == (None, None)
    mate, check = max_weight_perfect_matching(0, [])
    assert mate == []
    check()


def test_perfect_matching_cardinality():
    # unweighted path of 6 vertices has exactly one perfect matching
    pairs = max_weight_perfect_matching_general(6, [(i, i + 1, 1) for i in range(5)])
    assert pairs == [(0, 1), (2, 3), (4, 5)]


# Edge weights for the differential test against networkx, all ints.  The
# int kinds go to the blossom itself, and its optimality check runs on every
# perfect result.  The log kinds go to max_weight_perfect_matching_general,
# which maximises the product, while networkx maximises the sum of float
# logs (log(10**18) == log(10**18 + 1) as floats, so ties are common).
BLOSSOM_WEIGHTS = {
    "log_small": lambda rng: rng.randint(1, 5),
    "log_big": lambda rng: rng.choice([1, 7, 10**18, 10**18 + 1]),
    "int_small": lambda rng: rng.randint(1, 5),
    "int_big": lambda rng: rng.choice([1, 2, 10**18, 10**18 + 1]),
}


def _random_graph(rng):
    """1-24 vertices, density 0.1-1, some vertices isolated; many have no
    perfect matching (odd counts, isolated or sparse parts)."""
    nv = rng.randint(1, 24)
    density = rng.uniform(0.1, 1.0)
    isolated = set(rng.sample(range(nv), rng.randint(0, nv // 4)))
    pairs = [(u, v) for u in range(nv) for v in range(u + 1, nv)
             if u not in isolated and v not in isolated and rng.random() < density]
    rng.shuffle(pairs)
    return nv, [(u, v) if rng.random() < 0.5 else (v, u) for u, v in pairs]


@pytest.mark.parametrize("kind", sorted(BLOSSOM_WEIGHTS))
def test_blossom_matches_networkx(kind):
    """None exactly when networkx's maximum-cardinality matching is not
    perfect, else the same total weight: equal for ints, within 1e-9 in log
    for products.  The mates may differ among equal-weight perfect
    matchings, since the search starts from a seeded matching."""
    import networkx as nx  # the test extra's reference implementation

    logs = kind.startswith("log")
    rng = random.Random(f"blossom-{kind}")
    for _ in range(600):
        nv, pairs = _random_graph(rng)
        edges = [(u, v, BLOSSOM_WEIGHTS[kind](rng)) for u, v in pairs]
        weight = {frozenset((u, v)): math.log(x) if logs else x for u, v, x in edges}
        graph = nx.Graph()
        graph.add_nodes_from(range(nv))
        graph.add_weighted_edges_from((u, v, weight[frozenset((u, v))]) for u, v, _ in edges)
        expect = nx.max_weight_matching(graph, maxcardinality=True)
        if logs:
            got = max_weight_perfect_matching_general(nv, edges)
        else:
            mate, check = max_weight_perfect_matching(nv, edges)
            got = None
            if mate is not None:
                check()
                got = [(v, w) for v, w in enumerate(mate) if v < w]
        if 2 * len(expect) < nv:
            assert got is None, edges
            continue
        assert got is not None and sorted(v for p in got for v in p) == list(range(nv)), edges
        got_weight = sum(weight[frozenset(p)] for p in got)
        want = sum(weight[frozenset(e)] for e in expect)
        if logs:
            assert abs(got_weight - want) <= 1e-9, edges
        else:
            assert got_weight == want, edges


def _perfect_matching_weights(nv, edges):
    """The edge weights of each perfect matching, by enumeration."""
    weight = {}
    for u, v, x in edges:
        weight[u, v] = weight[v, u] = x

    def matchings(rest):
        if not rest:
            yield []
            return
        v, others = rest[0], rest[1:]
        for i, w in enumerate(others):
            if (v, w) in weight:
                for sub in matchings(others[:i] + others[i + 1:]):
                    yield [weight[v, w], *sub]

    return matchings(tuple(range(nv)))


# near-ties of 10**18 against 10**18 + 1, small values and values to 10**30
INT_WEIGHTS = st.one_of(st.integers(1, 5), st.sampled_from([10**18, 10**18 + 1]),
                        st.integers(1, 10**30))


@st.composite
def int_graphs(draw, weights=INT_WEIGHTS):
    """0-10 vertices, a quarter of them odd counts, in one to three
    components (vertex v is in part (v // 2) % parts, and parts share no
    edge); a fifth have one isolated vertex."""
    nv = 2 * draw(st.integers(0, 5))
    if nv and draw(st.integers(0, 3)) == 0:
        nv -= 1
    parts = draw(st.integers(1, 3))
    isolated = draw(st.integers(0, nv - 1)) if nv and draw(st.integers(0, 4)) == 0 else -1
    density = draw(st.integers(1, 4))
    edges = []
    for u in range(nv):
        for v in range(u + 1, nv):
            if ((u // 2 - v // 2) % parts == 0 and isolated not in (u, v)
                    and draw(st.integers(0, 3)) < density):
                x = draw(weights)
                edges.append((u, v, x) if draw(st.booleans()) else (v, u, x))
    return nv, edges


@settings(max_examples=400, deadline=None)
@given(int_graphs())
def test_int_blossom_matches_enumeration(graph):
    """The blossom against every perfect matching: the same optimum weight
    and None-ness.  Each perfect result passes the returned check of the
    final duals, and no half_slack parity assertion fires."""
    nv, edges = graph
    mate, check = max_weight_perfect_matching(nv, edges)
    want = max(map(sum, _perfect_matching_weights(nv, edges)), default=None)
    assert (mate is None) == (want is None)
    if mate is not None:
        check()
        weight = {frozenset((u, v)): x for u, v, x in edges}
        assert all(mate[w] == v for v, w in enumerate(mate))
        assert sum(weight[frozenset((v, w))] for v, w in enumerate(mate) if v < w) == want


@settings(max_examples=400, deadline=None)
@given(int_graphs(st.integers(1, 25)))
def test_product_matching_matches_enumeration(graph):
    """max_weight_perfect_matching_general against every perfect matching:
    the same None-ness and the same largest product.  Weights 1..25 repeat
    and tie often (2 * 6 == 3 * 4); at these sizes distinct products differ
    in log by far more than 2^-52 rounding can swap."""
    nv, edges = graph
    pairs = max_weight_perfect_matching_general(nv, edges)
    want = max(map(math.prod, _perfect_matching_weights(nv, edges)), default=None)
    assert (pairs is None) == (want is None)
    if pairs is not None:
        weight = {frozenset((u, v)): x for u, v, x in edges}
        assert sorted(v for p in pairs for v in p) == list(range(nv))
        assert math.prod(weight[frozenset(p)] for p in pairs) == want


def test_check_fails_on_a_corrupted_mate():
    """The returned check reads the returned mate list: swapping the
    partners of two matched pairs for a lighter perfect matching leaves a
    matched edge that is not tight, and check() must raise, also under
    python -O."""
    rng = random.Random(31)
    fired = 0
    for _ in range(200):
        nv = 2 * rng.randint(2, 5)
        weight = {(u, v): rng.randint(1, 20) for u in range(nv) for v in range(u + 1, nv)}
        mate, check = max_weight_perfect_matching(nv, [(u, v, x) for (u, v), x in weight.items()])
        check()
        (a, b), (c, d) = rng.sample([(v, w) for v, w in enumerate(mate) if v < w], 2)
        mate[a], mate[d], mate[c], mate[b] = d, a, b, c
        lost = (weight[a, b] + weight[c, d]
                - weight[min(a, d), max(a, d)] - weight[min(b, c), max(b, c)])
        if lost > 0:
            fired += 1
            with pytest.raises(AssertionError):
                check()
    assert fired > 100


def _flow_on(dinic, arcs, caps):
    return [c - dinic.cap[idx] for idx, c in zip(arcs, caps)]


def test_dinic_matches_networkx_and_resumes():
    """_Dinic.max_flow against networkx on random small digraphs, then
    resumed: after raising some capacities a second run adds exactly the
    difference to networkx's value on the raised network, and no arc into
    the sink carries less flow than after the first run."""
    import networkx as nx  # the test extra's reference implementation

    def nx_value(nodes, arcs, caps):
        graph = nx.DiGraph()
        graph.add_nodes_from(range(nodes))
        for (u, v), c in zip(arcs, caps):
            old = graph.edges[u, v]["capacity"] if graph.has_edge(u, v) else 0
            graph.add_edge(u, v, capacity=old + c)
        return nx.maximum_flow_value(graph, 0, nodes - 1)

    rng = random.Random(20)
    for _ in range(300):
        nodes = rng.randint(2, 8)
        sink = nodes - 1
        arcs = [tuple(rng.sample(range(nodes), 2)) for _ in range(rng.randint(1, 16))]
        caps = [rng.randint(0, 3) for _ in arcs]
        dinic = _Dinic(nodes)
        idxs = [dinic.add_edge(u, v, c) for (u, v), c in zip(arcs, caps)]
        first = dinic.max_flow(0, sink)
        assert first == nx_value(nodes, arcs, caps)
        before = _flow_on(dinic, idxs, caps)
        raised = [c + (rng.randint(1, 3) if rng.random() < 0.4 else 0) for c in caps]
        for idx, c, r in zip(idxs, caps, raised):
            dinic.cap[idx] += r - c
        second = dinic.max_flow(0, sink)
        assert first + second == nx_value(nodes, arcs, raised)
        after = _flow_on(dinic, idxs, raised)
        for (_u, v), x, y in zip(arcs, before, after):
            if v == sink:
                assert y >= x
