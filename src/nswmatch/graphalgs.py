"""Supporting graph algorithms.

Matching is delegated to networkx's blossom implementation; flow with lower
bounds uses the standard excess/deficit transformation on top of a small
Dinic max-flow.  Matching weights arrive as positive integers and blossom
maximises the sum of their float logs, so a near-tie between two matchings
can be decided by rounding; max_weight_perfect_matching_general is the one
place where floats meet the matching reductions.
"""

from __future__ import annotations

import math
from collections import deque

import networkx as nx


def max_weight_perfect_matching_general(
    num_vertices: int, edges
) -> list[tuple[int, int]] | None:
    """Perfect matching of vertices 0..num_vertices-1 that maximises the
    product of its edge weights, via blossom on their logs.

    edges are (u, v, weight) with positive integer weights, no pair given
    twice.  Returns the matched pairs as sorted (min, max) tuples, or None
    when no perfect matching exists.
    """
    graph = nx.Graph()
    graph.add_nodes_from(range(num_vertices))
    graph.add_weighted_edges_from((u, v, math.log(w)) for u, v, w in edges)
    mate = nx.max_weight_matching(graph, maxcardinality=True)
    if 2 * len(mate) != num_vertices:
        return None
    return sorted((min(u, v), max(u, v)) for u, v in mate)


class FlowNetwork:
    """Directed network with integral lower/upper bounds per arc."""

    def __init__(self, num_nodes: int, source: int, sink: int):
        self.num_nodes = num_nodes
        self.source = source
        self.sink = sink
        self.arcs: list[tuple[int, int, int, int]] = []

    def add_arc(self, u: int, v: int, lower: int, upper: int) -> int:
        if lower < 0 or lower > upper:
            raise ValueError(f"invalid bounds [{lower}, {upper}] on arc ({u}, {v})")
        self.arcs.append((u, v, lower, upper))
        return len(self.arcs) - 1


class _Dinic:
    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, cap: int) -> int:
        idx = len(self.to)
        self.head[u].append(idx)
        self.to.append(v)
        self.cap.append(cap)
        self.head[v].append(idx + 1)
        self.to.append(u)
        self.cap.append(0)
        return idx

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for idx in self.head[u]:
                    v = self.to[idx]
                    if self.cap[idx] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                return flow
            it = [0] * self.n

            def dfs(u: int, pushed: int) -> int:
                if u == t:
                    return pushed
                while it[u] < len(self.head[u]):
                    idx = self.head[u][it[u]]
                    v = self.to[idx]
                    if self.cap[idx] > 0 and level[v] == level[u] + 1:
                        got = dfs(v, min(pushed, self.cap[idx]))
                        if got > 0:
                            self.cap[idx] -= got
                            self.cap[idx ^ 1] += got
                            return got
                    it[u] += 1
                return 0

            while True:
                pushed = dfs(s, 1 << 60)
                if pushed == 0:
                    break
                flow += pushed


def feasible_flow_with_lower_bounds(net: FlowNetwork) -> list[int] | None:
    """Integral flow meeting every arc's [lower, upper] bounds, or None.

    Standard reduction: send each arc's lower bound unconditionally, route
    the resulting node imbalances through a super source/sink, and allow
    sink -> source circulation.
    """
    n = net.num_nodes
    super_s, super_t = n, n + 1
    dinic = _Dinic(n + 2)
    arc_idx = []
    for u, v, lower, upper in net.arcs:
        arc_idx.append(dinic.add_edge(u, v, upper - lower))
    excess = [0] * n
    for u, v, lower, _upper in net.arcs:
        excess[u] -= lower
        excess[v] += lower
    need = 0
    for node in range(n):
        if excess[node] > 0:
            dinic.add_edge(super_s, node, excess[node])
            need += excess[node]
        elif excess[node] < 0:
            dinic.add_edge(node, super_t, -excess[node])
    dinic.add_edge(net.sink, net.source, 1 << 60)
    if dinic.max_flow(super_s, super_t) < need:
        return None
    flows = []
    for (u, v, lower, upper), idx in zip(net.arcs, arc_idx):
        used = (upper - lower) - dinic.cap[idx]
        flows.append(lower + used)
    return flows
