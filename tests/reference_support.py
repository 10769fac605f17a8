"""Dense-scan reference forms of the polynomial solvers and greedy.

Each function visits every (worker, firm) pair of the value matrices, where
the solvers in `nswmatch` scan only the positive entries of each row, and
greedy builds a Fraction for every candidate gain, where
`nswmatch.approx.greedy_submodular` compares integer ratios.  Only the
scans differ: the case analysis after them is the same, and the solvers
must return the same matchings and products.  Symmetric binary instances
use `reference_symbin.solve_symmetric_binary`, which takes its domain check
and its feasibility search from here.  nonzero_nash_by_flow answers the
feasibility question independently, by two max flows (_Dinic) on the
network whose residual graph the search walks.  The dense forms of `cap1`
and `deg3cap2` build bipartite edge lists in the order the solvers list
their edges, which matching_on_edges turns into the adjacency lists that
`nswmatch.graphalgs` takes, so both reach the same matching.
"""

from __future__ import annotations

from collections import deque
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
    zero_result,
)
from nswmatch.graphalgs import max_weight_perfect_matching_general
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


def left_adjacency(num_left: int, edges) -> tuple[list, list]:
    """The bipartite edge list [(l, r, weight), ...] as the left side's
    adjacency lists (ids, weights), in edge order."""
    ids: list[list[int]] = [[] for _ in range(num_left)]
    weights: list[list[int]] = [[] for _ in range(num_left)]
    for l, r, x in edges:
        ids[l].append(r)
        weights[l].append(x)
    return ids, weights


def matching_on_edges(num_left: int, num_right: int, edges) -> list[int] | None:
    """max_weight_perfect_matching_general on a bipartite edge list: mate,
    where mate[l] is left vertex l's right partner, or None when no perfect
    matching exists."""
    return max_weight_perfect_matching_general(*left_adjacency(num_left, edges), num_right)


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
    """nswmatch.feasibility's greedy seats, seat paths, greedy placement and
    displacement paths, in the same order and with the same tie-breaks, but
    scanning every firm of a worker's row and reading a firm's values for
    its members each time a step asks."""
    m, n = inst.m, inst.n
    caps = inst.capacities
    if m < n or 0 in caps:
        return False, None

    def valued(w):
        return [f for f in range(n) if inst.worker_vals[w][f] > 0]

    def values(f, w):
        return inst.firm_vals[f][w] > 0

    seat = [-1] * n
    place = [-1] * m
    for w in range(m):
        if -1 not in seat:
            break
        for f in valued(w):
            if values(f, w) and seat[f] == -1:
                seat[f], place[w] = w, f
                break
    for root in range(n):
        if seat[root] != -1:
            continue
        path = seat_path(inst, root, seat, place)
        if path is None:
            return False, None
        for w, f in path:
            seat[f], place[w] = w, f

    members = [[w] for w in seat]
    unplaced = []
    for w in range(m):
        if place[w] != -1:
            continue
        room = [f for f in valued(w) if len(members[f]) < caps[f]]
        if room:
            place[w] = room[0]
            members[room[0]].append(w)
        else:
            unplaced.append(w)
    for root in unplaced:
        path = displacement_path(inst, root, place, members)
        if path is None:
            return False, None
        for w, f in path:
            if place[w] != -1:
                members[place[w]].remove(w)
            place[w] = f
            members[f].append(w)
    return True, Matching.of(place)


def seat_path(inst: Instance, root: int, seat, place):
    """BFS from the empty seat of firm root over firm -> a worker that
    values it and that it values -> that worker's seat firm, to a seatless
    worker: the moves [(worker, firm), ...] that shift the seats, or None."""
    moves_to = {}
    queue = [root]
    for f in queue:
        for w in range(inst.m):
            if w in moves_to or inst.worker_vals[w][f] == 0 or inst.firm_vals[f][w] == 0:
                continue
            moves_to[w] = f
            if place[w] == -1:
                path = []
                while w != -1:
                    path.append((w, moves_to[w]))
                    w = seat[moves_to[w]]
                return path
            queue.append(place[w])
    return None


def displacement_path(inst: Instance, root: int, place, members):
    """BFS from the unplaced worker root to a firm with room, where the
    worker x arriving at firm f may displace any member of f when f values
    x or holds two members it values, and else any member f does not
    value: the moves [(worker, firm), ...], from the last arrival back to
    root, or None."""
    via = {root: None}  # via[y]: the worker that takes y's place
    whole = {}
    queue = [root]
    for x in queue:
        for f in range(inst.n):
            if inst.worker_vals[x][f] == 0 or f == place[x]:
                continue
            if len(members[f]) < inst.capacities[f]:
                path = [(x, f)]
                while via[x] is not None:
                    path.append((via[x], place[x]))
                    x = via[x]
                return path
            kept = [y for y in members[f] if inst.firm_vals[f][y] > 0]
            every = inst.firm_vals[f][x] > 0 or len(kept) > 1
            if whole.get(f) or (f in whole and not every):
                continue
            whole[f] = every
            for y in members[f]:
                if y not in via and (every or y not in kept):
                    via[y] = x
                    queue.append(y)
    return None


def nonzero_nash_by_flow(inst: Instance) -> bool:
    """The verdict of two max flows on one network: first a seat per firm,
    held by a worker that values it and that it values, then every worker,
    each at a firm it values (see nswmatch.feasibility)."""
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
    for w in range(m):
        dinic.add_edge(source, w_node(w), 1)
        for f in range(n):
            if inst.worker_vals[w][f] > 0:
                dinic.add_edge(w_node(w), f_own(f) if inst.firm_vals[f][w] > 0 else f_open(f), 1)

    if dinic.max_flow(source, sink) < n:
        return False
    for f in range(n):
        dinic.cap[open_arcs[f]] = inst.capacities[f] - 1
    return n + dinic.max_flow(source, sink) == m


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
        head, to, cap = self.head, self.to, self.cap
        flow = 0
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for idx in head[u]:
                    v = to[idx]
                    if cap[idx] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                return flow
            # blocking flow: walk from s along level-increasing arcs with
            # a stack of the arcs taken; a dead end retreats one arc and
            # moves the parent's it pointer on, reaching t pushes the
            # path's bottleneck and restarts from s
            it = [0] * self.n
            path: list[int] = []
            u = s
            while True:
                if u == t:
                    pushed = min(1 << 60, *(cap[idx] for idx in path))
                    for idx in path:
                        cap[idx] -= pushed
                        cap[idx ^ 1] += pushed
                    flow += pushed
                    path.clear()
                    u = s
                arcs = head[u]
                while it[u] < len(arcs):
                    idx = arcs[it[u]]
                    if cap[idx] > 0 and level[to[idx]] == level[u] + 1:
                        path.append(idx)
                        u = to[idx]
                        break
                    it[u] += 1
                else:
                    if not path:
                        break
                    u = to[path.pop() ^ 1]
                    it[u] += 1


def solve_capacity_one(inst: Instance) -> tuple[Matching, NashValue]:
    if any(c != 1 for c in inst.capacities):
        raise DomainError("solve_capacity_one requires every capacity to be 1")
    m, n = inst.m, inst.n
    edges = []
    for w in range(m):
        for f in range(n):
            prod = inst.worker_vals[w][f] * inst.firm_vals[f][w]
            if prod > 0:
                edges.append((w, f, prod))
    mate = matching_on_edges(m, n, edges)
    if mate is None:
        return zero_result(inst)
    mu = Matching.of(mate)
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
            return zero_result(inst)
        for w, f in best.items():
            assignment[w] = f
    mu = Matching.of(assignment)
    return mu, nash_value(inst, mu)


def peel_shared_pairs(inst: Instance):
    """deg3cap2's gadget peel, restarting the scan after every peel: each
    pair of live firms sharing two live workers gets its best split of
    their 4-worker pool.  Returns (nbrs, assignment, live_firms,
    live_workers), nbrs[f] being the workers that value f, or None on a
    no-instance."""
    m, n = inst.m, inst.n
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
    return nbrs, assignment, live_firms, live_workers


def solve_degree3_capacity2(inst: Instance) -> tuple[Optional[Matching], NashValue]:
    """After the peel, each firm with three live workers is a left vertex,
    worker w is deg(w) - 1 right vertices, and edge (f, copy of w) weighs
    f's bundle value without w."""
    if max(degree_profile(inst).firm_degrees) > 3:
        raise DomainError("a firm has degree above 3")
    m, n = inst.m, inst.n
    if m != 2 * n or any(c < 2 for c in inst.capacities):
        return None, NashValue.zero()
    peeled = peel_shared_pairs(inst)
    if peeled is None:
        return None, NashValue.zero()
    nbrs, assignment, live_firms, live_workers = peeled
    firms = sorted(live_firms)
    copies = []
    for w in sorted(live_workers):
        degree = sum(w in nbrs[f] for f in firms)
        if degree == 0:
            return None, NashValue.zero()
        copies += [w] * (degree - 1)
    threes = []
    edges = []
    for f in firms:
        pool = sorted(nbrs[f] & live_workers)
        if len(pool) == 3:
            for w in pool:
                val = firm_bundle_value(inst, f, [x for x in pool if x != w])
                if val > 0:
                    edges += [(len(threes), c, val) for c, x in enumerate(copies) if x == w]
            threes.append(f)
    mate = matching_on_edges(len(threes), len(copies), edges)
    if mate is None:
        return None, NashValue.zero()
    left_out = {f: copies[c] for f, c in zip(threes, mate)}
    for f in firms:
        for w in nbrs[f] & live_workers:
            if w != left_out.get(f):
                assignment[w] = f
    mu = Matching.of(assignment)
    value = nash_value(inst, mu)
    if value.is_zero:
        return None, NashValue.zero()
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
        return zero_result(inst)
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
