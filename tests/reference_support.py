"""Dense-scan reference forms of the polynomial solvers and greedy.

Each function visits every (worker, firm) pair of the value matrices, where
the solvers in `nswmatch` scan only the positive entries of each row, and
greedy builds a Fraction for every candidate gain, where
`nswmatch.approx.greedy_submodular` compares integer ratios.  Only the
scans differ: the case analysis after them is the same, and the solvers
must return the same matchings and products.  Symmetric binary instances
use `reference_symbin.solve_symmetric_binary`, which takes its domain check
and its feasibility flow from here.  The dense forms build edge lists,
which matching_on_edges turns into the adjacency lists that
`nswmatch.graphalgs` takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from nswmatch.core import (
    DomainError,
    Instance,
    Matching,
    NashValue,
    UNMATCHED,
    firm_bundle_value,
    nash_value,
)
from nswmatch.exact import _zero_result
from nswmatch.graphalgs import _Dinic, max_weight_perfect_matching_general
from nswmatch.restricted import (
    _best_component_matching,
    _component_order,
    _pairs_within,
)


@dataclass(frozen=True)
class DegreeProfile:
    """Degrees in the graph with 0--0 pairs removed: an edge (w, f)
    survives iff either side values the other positively."""

    worker_degrees: tuple[int, ...]
    firm_degrees: tuple[int, ...]

    @property
    def max_degree(self) -> int:
        return max(max(self.worker_degrees), max(self.firm_degrees))


def adjacency(num_vertices: int, edges) -> tuple[list, list]:
    """The edge list [(u, v, weight), ...] as adjacency lists (ids,
    weights): each edge at both ends, in edge order."""
    ids: list[list[int]] = [[] for _ in range(num_vertices)]
    weights: list[list[int]] = [[] for _ in range(num_vertices)]
    for u, v, x in edges:
        ids[u].append(v)
        weights[u].append(x)
        ids[v].append(u)
        weights[v].append(x)
    return ids, weights


def matched_pairs(mate) -> list[tuple[int, int]] | None:
    """A mate list as its sorted (min, max) pairs; None stays None."""
    if mate is None:
        return None
    return [(v, w) for v, w in enumerate(mate) if v < w]


def matching_on_edges(num_vertices: int, edges) -> list[tuple[int, int]] | None:
    """max_weight_perfect_matching_general on an edge list, as sorted
    pairs, or None when no perfect matching exists."""
    return matched_pairs(max_weight_perfect_matching_general(*adjacency(num_vertices, edges)))


def degree_profile(inst: Instance) -> DegreeProfile:
    wdeg = [0] * inst.m
    fdeg = [0] * inst.n
    for w in range(inst.m):
        for f in range(inst.n):
            if inst.worker_vals[w][f] > 0 or inst.firm_vals[f][w] > 0:
                wdeg[w] += 1
                fdeg[f] += 1
    return DegreeProfile(tuple(wdeg), tuple(fdeg))


def check_symmetric_binary(inst: Instance) -> None:
    for w in range(inst.m):
        for f in range(inst.n):
            a = inst.worker_vals[w][f]
            b = inst.firm_vals[f][w]
            if a != b or a not in (0, 1):
                raise DomainError("valuations must be symmetric and binary")


def exists_nonzero_nash(inst: Instance) -> tuple[bool, Matching | None]:
    m, n = inst.m, inst.n
    source, sink = 0, 1
    def w_node(w): return 2 + w
    def f_own(f): return 2 + m + 2 * f
    def f_open(f): return 2 + m + 2 * f + 1

    dinic = _Dinic(2 + m + 2 * n)
    open_arcs = []
    for f in range(n):
        c = inst.capacities[f]
        dinic.add_edge(f_own(f), sink, min(1, c))
        open_arcs.append(dinic.add_edge(f_open(f), sink, 0))
        dinic.add_edge(f_own(f), f_open(f), m)
    pair_arcs = []
    for w in range(m):
        dinic.add_edge(source, w_node(w), 1)
        for f in range(n):
            if inst.worker_vals[w][f] > 0:
                node = f_own(f) if inst.firm_vals[f][w] > 0 else f_open(f)
                pair_arcs.append((dinic.add_edge(w_node(w), node, 1), w, f))

    if dinic.max_flow(source, sink) < n:
        return False, None
    for f in range(n):
        dinic.cap[open_arcs[f]] = inst.capacities[f] - 1
    if n + dinic.max_flow(source, sink) < m:
        return False, None
    assignment: list = [UNMATCHED] * m
    for idx, w, f in pair_arcs:
        if dinic.cap[idx] == 0:
            assignment[w] = f
    return True, Matching.of(assignment)


def solve_capacity_one(inst: Instance) -> tuple[Matching, NashValue]:
    if any(c != 1 for c in inst.capacities):
        raise DomainError("solve_capacity_one requires every capacity to be 1")
    m, n = inst.m, inst.n
    edges = []
    for w in range(m):
        for f in range(n):
            prod = inst.worker_vals[w][f] * inst.firm_vals[f][w]
            if prod > 0:
                edges.append((w, m + f, prod))
    pairs = matching_on_edges(m + n, edges)
    if pairs is None:
        return _zero_result(inst)
    assignment: list = [UNMATCHED] * m
    for u, v in pairs:
        assignment[u] = v - m
    mu = Matching.of(assignment)
    return mu, nash_value(inst, mu)


def solve_degree_two(inst: Instance) -> tuple[Matching, NashValue]:
    if degree_profile(inst).max_degree > 2:
        raise DomainError("an agent has degree above 2")
    m, n = inst.m, inst.n
    adj = [[] for _ in range(m + n)]
    for w in range(m):
        for f in range(n):
            if inst.worker_vals[w][f] > 0 or inst.firm_vals[f][w] > 0:
                adj[w].append(m + f)
                adj[m + f].append(w)
    seen = [False] * (m + n)
    assignment: list = [UNMATCHED] * m
    for start in range(m + n):
        if seen[start]:
            continue
        best = _best_component_matching(inst, *_component_order(adj, seen, start))
        if best is None:
            return _zero_result(inst)
        for w, f in best.items():
            assignment[w] = f
    mu = Matching.of(assignment)
    return mu, nash_value(inst, mu)


def solve_degree3_capacity2(inst: Instance) -> Optional[tuple[Matching, NashValue]]:
    if max(degree_profile(inst).firm_degrees) > 3:
        raise DomainError("a firm has degree above 3")
    m, n = inst.m, inst.n
    if m != 2 * n or any(c < 2 for c in inst.capacities):
        return None
    nbrs = [frozenset(w for w in range(m) if inst.worker_vals[w][f] > 0) for f in range(n)]
    live_firms = set(range(n))
    live_workers = set(range(m))
    assignment: list = [UNMATCHED] * m

    changed = True
    while changed:
        changed = False
        for f in sorted(live_firms):
            if len(nbrs[f] & live_workers) < 2:
                return None
        firms = sorted(live_firms)
        for i, f in enumerate(firms):
            nf = nbrs[f] & live_workers
            for g in firms[i + 1:]:
                ng = nbrs[g] & live_workers
                shared = nf & ng
                if len(shared) < 2:
                    continue
                if len(nf | ng) < 4:
                    return None
                pool = nf | ng
                best_prod = 0
                best_split = None
                for bundle_f in _pairs_within(nf):
                    rest = pool - set(bundle_f)
                    if not rest <= ng or len(rest) != 2:
                        continue
                    prod = firm_bundle_value(inst, f, bundle_f) * \
                        firm_bundle_value(inst, g, sorted(rest))
                    if prod > best_prod:
                        best_prod = prod
                        best_split = (bundle_f, sorted(rest))
                if best_prod == 0:
                    return None
                for w in best_split[0]:
                    assignment[w] = f
                for w in best_split[1]:
                    assignment[w] = g
                live_firms -= {f, g}
                live_workers -= pool
                changed = True
                break
            if changed:
                break

    firms = sorted(live_firms)
    workers = sorted(live_workers)
    if firms:
        index = {w: i for i, w in enumerate(workers)}
        edges = []
        edge_firm = {}
        for f in firms:
            pool = sorted(nbrs[f] & live_workers)
            for a, b in _pairs_within(pool):
                val = firm_bundle_value(inst, f, (a, b))
                if val > 0:
                    key = (index[a], index[b])
                    assert key not in edge_firm
                    edge_firm[key] = f
                    edges.append((key[0], key[1], val))
        pairs = matching_on_edges(len(workers), edges)
        if pairs is None:
            return None
        for a, b in pairs:
            f = edge_firm[(a, b)]
            assignment[workers[a]] = f
            assignment[workers[b]] = f
    mu = Matching.of(assignment)
    value = nash_value(inst, mu)
    if value.is_zero:
        return None
    return mu, value


def solve_single_positive_firm(inst: Instance) -> tuple[Matching, NashValue]:
    targets = []
    for w in range(inst.m):
        positive = [f for f in range(inst.n) if inst.worker_vals[w][f] > 0]
        if len(positive) != 1:
            raise DomainError(f"worker {w} does not value exactly one firm")
        targets.append(positive[0])
    loads = [0] * inst.n
    for f in targets:
        loads[f] += 1
    if any(load > c for load, c in zip(loads, inst.capacities)):
        return _zero_result(inst)
    mu = Matching.of(targets)
    return mu, nash_value(inst, mu)


def greedy_submodular(inst: Instance) -> tuple[Matching, NashValue]:
    """Fraction gains; an empty firm counts toward the firms that must be
    filled only when its capacity is positive."""
    m, n = inst.m, inst.n
    for row in list(inst.worker_vals) + list(inst.firm_vals):
        if any(v <= 0 for v in row):
            raise DomainError("greedy_submodular requires strictly positive valuations")
    if sum(inst.capacities) < m:
        raise DomainError("total capacity below worker count")
    loads = [0] * n
    sums = [0] * n
    assignment: list = [UNMATCHED] * m
    unplaced = set(range(m))
    while unplaced:
        empty = [f for f in range(n) if loads[f] == 0 and inst.capacities[f] > 0]
        must_fill = m >= n and 0 < len(empty) >= len(unplaced)
        best_gain = None
        best_pair = None
        for w in sorted(unplaced):
            for f in range(n):
                if loads[f] >= inst.capacities[f]:
                    continue
                if must_fill and loads[f] > 0:
                    continue
                wv = inst.worker_vals[w][f]
                fv = inst.firm_vals[f][w]
                if sums[f] == 0:
                    gain = Fraction(wv * fv)
                else:
                    gain = Fraction(wv * (sums[f] + fv), sums[f])
                if best_gain is None or gain > best_gain:
                    best_gain = gain
                    best_pair = (w, f)
        w, f = best_pair
        assignment[w] = f
        loads[f] += 1
        sums[f] += inst.firm_vals[f][w]
        unplaced.discard(w)
    mu = Matching.of(assignment)
    return mu, nash_value(inst, mu)
