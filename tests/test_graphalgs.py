import itertools
import math
import random
from operator import getitem

import pytest
from hypothesis import given, settings, strategies as st

from nswmatch.graphalgs import max_weight_perfect_matching
from reference_support import _Dinic, left_adjacency, matching_on_edges


def matcher_on_edges(num_left, num_right, edges):
    """max_weight_perfect_matching on a bipartite edge list [(l, r, w)] of
    int weights: (mate, check)."""
    return max_weight_perfect_matching(*left_adjacency(num_left, edges), num_right)


def _product(weights, mate):
    return math.prod(weights[l, r] for l, r in enumerate(mate))


def test_bipartite_crossing_weights():
    # positive-product edges of the motivating example, weight v*v
    assert matching_on_edges(2, 2, [(0, 1, 4), (1, 0, 4)]) == [1, 0]


def test_bipartite_single_edge():
    assert matching_on_edges(1, 1, [(0, 0, 5)]) == [0]


def test_bipartite_matches_permutation_enumeration():
    rng = random.Random(4)
    for _ in range(100):
        k = 3
        weights = {(i, j): rng.randint(1, 50) for i in range(k) for j in range(k)}
        mate = matching_on_edges(k, k, [(l, r, x) for (l, r), x in weights.items()])
        best = max(math.prod(weights[i, p[i]] for i in range(k))
                   for p in itertools.permutations(range(k)))
        assert _product(weights, mate) == best


def test_bipartite_saturation_infeasible():
    # left 0, 1 and 2 all need right vertex 0
    edges = [(0, 0, 1), (1, 0, 1), (2, 0, 1), (2, 1, 1), (2, 2, 1)]
    assert matching_on_edges(3, 3, edges) is None


def test_perfect_matching_four_cycle():
    # the cycle 0-1-2-3-0 with left 0, 2 and right 1, 3 as left 0, 1 and
    # right 0, 1: weights 1 on 0-1 and 2-3, 2 on 1-2 and 3-0
    weights = {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 1}
    mate = matching_on_edges(2, 2, [(l, r, x) for (l, r), x in weights.items()])
    assert mate == [1, 0]
    assert _product(weights, mate) == 4


def test_perfect_matching_odd_infeasible():
    # an odd vertex count splits into sides of unequal size
    assert matching_on_edges(2, 1, [(0, 0, 1), (1, 0, 1)]) is None
    assert matching_on_edges(1, 2, [(0, 0, 1), (0, 1, 1)]) is None


def test_no_stage_without_a_perfect_matching_shape():
    # unequal sides or a left vertex without an edge return before any
    # search; the empty graph has the empty perfect matching
    assert matcher_on_edges(2, 1, [(0, 0, 1), (1, 0, 1)]) == (None, None)
    assert matcher_on_edges(2, 2, [(0, 0, 1), (0, 1, 1)]) == (None, None)
    mate, check = matcher_on_edges(0, 0, [])
    assert mate == []
    check()


def test_perfect_matching_cardinality():
    # unweighted path of 6 vertices 0-1-...-5, left 0, 2, 4 and right 1, 3,
    # 5, has exactly one perfect matching
    edges = [(0, 0, 1), (1, 0, 1), (1, 1, 1), (2, 1, 1), (2, 2, 1)]
    assert matching_on_edges(3, 3, edges) == [0, 1, 2]


def test_dense_rows_out_of_order_match_the_sorted_graph():
    """The search relaxes a row against its arrays directly only when the
    row lists every right vertex in increasing order; a full-length row in
    another order must take the indexed path.  On complete graphs with
    each row listed in its own shuffled order, the matcher gives the
    optimum weight of the sorted graph and a check that passes."""
    rng = random.Random(61)
    # every left vertex weighs right 0 most: the seed matches left 0 only,
    # and both searches relax left 0's row, listed in reverse below
    cases = [[[3, 1, 1], [3, 2, 1], [3, 1, 2]]]
    cases += [[[rng.randint(1, 3) for _ in range(k)] for _ in range(k)]
              for k in rng.choices(range(2, 8), k=300)]
    assert max_weight_perfect_matching([(0, 1, 2)] * 3, cases[0], 3)[0] == [0, 1, 2]
    for w in cases:
        k = len(w)
        mate, check = max_weight_perfect_matching([tuple(range(k))] * k, w, k)
        check()
        orders = [rng.sample(range(k), k) for _ in range(k)]
        orders[0] = list(range(k))[::-1]
        shuffled = [[w[l][r] for r in order] for l, order in enumerate(orders)]
        got, got_check = max_weight_perfect_matching(orders, shuffled, k)
        got_check()
        assert sorted(got) == list(range(k))
        assert sum(map(getitem, w, got)) == sum(map(getitem, w, mate))


# Edge weights for the differential test against networkx, all ints.  The
# int kinds go to the matcher itself, and its optimality check runs on every
# perfect result.  The log kinds go to max_weight_perfect_matching_general,
# which maximises the product, while networkx maximises the sum of float
# logs (log(10**18) == log(10**18 + 1) as floats, so ties are common).
MATCHER_WEIGHTS = {
    "log_small": lambda rng: rng.randint(1, 5),
    "log_big": lambda rng: rng.choice([1, 7, 10**18, 10**18 + 1]),
    "int_small": lambda rng: rng.randint(1, 5),
    "int_big": lambda rng: rng.choice([1, 2, 10**18, 10**18 + 1]),
}


def _random_bipartite(rng):
    """0-12 left vertices and as many right ones, or one fewer or more in a
    fifth of the graphs; density 0.1-1, some vertices on either side
    isolated, so many graphs have no perfect matching."""
    nl = rng.randint(0, 12)
    nr = nl + rng.choice([0, 0, 0, 0, -1, 1]) if nl else 0
    density = rng.uniform(0.1, 1.0)
    isolated_left = set(rng.sample(range(nl), rng.randint(0, nl // 6)))
    isolated_right = set(rng.sample(range(nr), rng.randint(0, nr // 6)))
    pairs = [(l, r) for l in range(nl) for r in range(nr)
             if l not in isolated_left and r not in isolated_right
             and rng.random() < density]
    rng.shuffle(pairs)
    return nl, nr, pairs


@pytest.mark.parametrize("kind", sorted(MATCHER_WEIGHTS))
def test_blossom_matches_networkx(kind):
    """The bipartite matcher against networkx's blossom on 600 random
    bipartite graphs per kind: None exactly when networkx's
    maximum-cardinality matching is not perfect, else the same total
    weight, equal for ints and within 1e-9 in log for products.  Every
    perfect int result passes check().  The mates may differ among
    equal-weight perfect matchings."""
    import networkx as nx  # the test extra's reference implementation

    logs = kind.startswith("log")
    rng = random.Random(f"bipartite-{kind}")
    for _ in range(600):
        nl, nr, pairs = _random_bipartite(rng)
        edges = [(l, r, MATCHER_WEIGHTS[kind](rng)) for l, r in pairs]
        weight = {(l, r): math.log(x) if logs else x for l, r, x in edges}
        graph = nx.Graph()
        graph.add_nodes_from(range(nl + nr))
        graph.add_weighted_edges_from((l, nl + r, weight[l, r]) for l, r, _ in edges)
        expect = nx.max_weight_matching(graph, maxcardinality=True)
        if logs:
            got = matching_on_edges(nl, nr, edges)
        else:
            got, check = matcher_on_edges(nl, nr, edges)
            if got is not None:
                check()
        if 2 * len(expect) < nl + nr:
            assert got is None, edges
            continue
        assert got is not None and sorted(got) == list(range(nr)), edges
        got_weight = sum(weight[l, r] for l, r in enumerate(got))
        want = sum(weight[min(e), max(e) - nl] for e in expect)
        if logs:
            assert abs(got_weight - want) <= 1e-9, edges
        else:
            assert got_weight == want, edges


def _perfect_matching_weights(nl, nr, edges):
    """The edge weights of each perfect matching, by enumeration."""
    weight = {(l, r): x for l, r, x in edges}
    if nl != nr:
        return
    for perm in itertools.permutations(range(nr)):
        if all(pair in weight for pair in enumerate(perm)):
            yield [weight[pair] for pair in enumerate(perm)]


# near-ties of 10**18 against 10**18 + 1, small values and values to 10**30
INT_WEIGHTS = st.one_of(st.integers(1, 5), st.sampled_from([10**18, 10**18 + 1]),
                        st.integers(1, 10**30))


@st.composite
def int_graphs(draw, weights=INT_WEIGHTS):
    """0-6 left vertices and as many right ones, or one fewer or more in a
    fifth of them; a fifth have one left or right vertex isolated."""
    nl = draw(st.integers(0, 6))
    nr = nl
    if nl and draw(st.integers(0, 4)) == 0:
        nr += draw(st.sampled_from([-1, 1]))
    isolated = (draw(st.sampled_from(["l", "r"])), draw(st.integers(0, max(nl, nr)))) \
        if draw(st.integers(0, 4)) == 0 else None
    density = draw(st.integers(1, 4))
    edges = []
    for l in range(nl):
        for r in range(nr):
            if (isolated not in (("l", l), ("r", r))
                    and draw(st.integers(0, 3)) < density):
                edges.append((l, r, draw(weights)))
    return nl, nr, edges


@settings(max_examples=400, deadline=None)
@given(int_graphs())
def test_int_blossom_matches_enumeration(graph):
    """The matcher against every perfect matching: the same optimum weight
    and None-ness.  Each perfect result passes the returned check of the
    final potentials."""
    nl, nr, edges = graph
    mate, check = matcher_on_edges(nl, nr, edges)
    want = max(map(sum, _perfect_matching_weights(nl, nr, edges)), default=None)
    assert (mate is None) == (want is None)
    if mate is not None:
        check()
        weight = {(l, r): x for l, r, x in edges}
        assert sorted(mate) == list(range(nr))
        assert sum(weight[pair] for pair in enumerate(mate)) == want


@settings(max_examples=400, deadline=None)
@given(int_graphs(st.integers(1, 25)))
def test_product_matching_matches_enumeration(graph):
    """max_weight_perfect_matching_general against every perfect matching:
    the same None-ness and the same largest product.  Weights 1..25 repeat
    and tie often (2 * 6 == 3 * 4); at these sizes distinct products differ
    in log by far more than 2^-52 rounding can swap."""
    nl, nr, edges = graph
    mate = matching_on_edges(nl, nr, edges)
    want = max(map(math.prod, _perfect_matching_weights(nl, nr, edges)), default=None)
    assert (mate is None) == (want is None)
    if mate is not None:
        weight = {(l, r): x for l, r, x in edges}
        assert sorted(mate) == list(range(nr))
        assert _product(weight, mate) == want


def _disjoint_union(rng, graphs):
    """The disjoint union of bipartite edge-list graphs [(nl, nr, edges),
    ...] with the vertices of each side interleaved at random; returns nl,
    nr, edges and each graph's (left map, right map)."""
    left = list(range(sum(nl for nl, _, _ in graphs)))
    right = list(range(sum(nr for _, nr, _ in graphs)))
    rng.shuffle(left)
    rng.shuffle(right)
    nl, nr = len(left), len(right)
    maps, edges = [], []
    for part_nl, part_nr, part in graphs:
        lmap, left = left[:part_nl], left[part_nl:]
        rmap, right = right[:part_nr], right[part_nr:]
        maps.append((lmap, rmap))
        edges += [(lmap[l], rmap[r], x) for l, r, x in part]
    return nl, nr, edges, maps


def test_components_matched_separately():
    """A disjoint union of two bipartite graphs with their vertices
    interleaved: None iff either part has no perfect matching, else the
    product of the two parts' products, from pairs that stay inside each
    part."""
    rng = random.Random(44)
    matched = 0
    for _ in range(300):
        parts = []
        for _ in range(2):
            nl = rng.randint(1, 4)
            nr = nl - (rng.random() < 0.1)
            parts.append((nl, nr, [(l, r, rng.randint(1, 25)) for l in range(nl)
                                   for r in range(nr) if rng.random() < 0.75]))
        nl, nr, edges, maps = _disjoint_union(rng, parts)
        got = matching_on_edges(nl, nr, edges)
        want = [matching_on_edges(*part) for part in parts]
        if None in want:
            assert got is None
            continue
        matched += 1
        assert sorted(got) == list(range(nr))
        assert all(any(l in lmap and r in rmap for lmap, rmap in maps)
                   for l, r in enumerate(got))
        part_products = [_product({(l, r): x for l, r, x in part}, mate)
                         for (_nl, _nr, part), mate in zip(parts, want)]
        weight = {(l, r): x for l, r, x in edges}
        assert _product(weight, got) == math.prod(part_products)
    assert matched > 100


def test_check_fails_on_a_corrupted_mate():
    """The returned check reads the returned mate list: swapping the
    partners of two left vertices for a lighter perfect matching leaves a
    matched edge that is not tight, and mapping two left vertices to one
    right vertex is no perfect matching; check() must raise on both, also
    under python -O."""
    rng = random.Random(31)
    fired = 0
    for _ in range(200):
        k = rng.randint(2, 5)
        weight = {(l, r): rng.randint(1, 20) for l in range(k) for r in range(k)}
        mate, check = matcher_on_edges(k, k, [(l, r, x) for (l, r), x in weight.items()])
        check()
        a, b = rng.sample(range(k), 2)
        ra, rb = mate[a], mate[b]
        mate[a], mate[b] = rb, ra
        lost = weight[a, ra] + weight[b, rb] - weight[a, rb] - weight[b, ra]
        if lost > 0:
            fired += 1
            with pytest.raises(AssertionError):
                check()
        mate[a] = mate[b]
        with pytest.raises(AssertionError):
            check()
    assert fired > 50


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
