"""Exact polynomial-time solvers for restricted instance families.

- solve_symmetric_binary: good-path local search for symmetric 0/1
  valuations, on per-firm bitmasks of the firms a worker can move to; one
  BFS pass, rooted in decreasing load order, finds each best-gain path.
- solve_degree_two: path/cycle casework when every agent has degree <= 2.
- solve_degree3_capacity2: firms of degree <= 3 that must each receive
  exactly two workers; a firm of degree 3 is the worker it leaves out, so
  this reduces to a max-product bipartite perfect matching of those firms
  with copies of the workers.
- solve_single_positive_firm: workers valuing exactly one firm.

The solvers read the graph of positive valuations from the instance's
valued_firms and valued_workers and index the values only at those
entries, so the work is linear in the positive entries, not in m * n.
The degree-bounded solvers check their bound on the graph they build: an
edge (w, f) survives when either side values the other.  The
symmetric-binary check compares the two sides' counts of positive
entries and then both sides' values at each worker's positive entries.
"""

from __future__ import annotations

import math
from bisect import insort
from functools import reduce
from operator import or_
from typing import Optional

from .core import (
    DomainError,
    Instance,
    Matching,
    NashValue,
    UNMATCHED,
    firm_bundle_value,
    nash_value,
    zero_result,
)
from .feasibility import exists_nonzero_nash
from .graphalgs import max_weight_perfect_matching_general


def _check_symmetric_binary(inst: Instance) -> tuple[tuple[int, ...], ...]:
    """Raises DomainError unless worker_vals[w][f] == firm_vals[f][w] in
    {0, 1} for every pair; returns each worker's positive firms, which are
    then also the firms that value it.  The two sides have as many positive
    entries, and each one on the worker side reads 1 on both sides, so the
    zero patterns agree and every positive entry is 1."""
    error = "valuations must be symmetric and binary"
    worker_pos = inst.valued_firms
    if sum(map(len, worker_pos)) != sum(map(len, inst.valued_workers)):
        raise DomainError(error)
    firm_vals = inst.firm_vals
    for w, (row, firms) in enumerate(zip(inst.worker_vals, worker_pos)):
        if any(row[f] != 1 or firm_vals[f][w] != 1 for f in firms):
            raise DomainError(error)
    return worker_pos


def symmetric_binary_iteration_cap(m: int, n: int) -> int:
    return math.ceil(2 * m * (n + 1) * math.log(n * m)) if n * m > 1 else 0


def solve_symmetric_binary(
    inst: Instance, stats: Optional[dict] = None
) -> tuple[Matching, NashValue]:
    """Nash-optimal matching under symmetric binary valuations.

    Starts from any all-positive matching and repeatedly applies the best
    good path: a firm path whose rematching moves, at each step f -> g, a
    worker at f that g values to g, so the start firm's utility falls by 1
    and the end firm's rises by 1.  That improves the Nash product iff
    u_start >= u_end + 2 and the end firm has slack.  The gain grows with
    u_start and falls with u_end, so one BFS pass from the firms in
    decreasing load order finds each end's best start and path, and the
    pick is the first reachable (start, end) in (-gain, start, end) order.
    Firm sets are int bitmasks: liked_by[w], the firms that value w, and
    reach[f], the OR of liked_by over the workers at f.  A step's worker,
    the least at f that g values, is found only on the applied path.
    """
    likes = _check_symmetric_binary(inst)
    m, n = inst.m, inst.n
    cap = symmetric_binary_iteration_cap(m, n)
    if stats is not None:
        stats["cap"] = cap
        stats["iterations"] = 0
    mu = exists_nonzero_nash(inst)
    if mu is None:
        return zero_result(inst)
    assignment = list(mu.assignment)
    liked_by = [sum(1 << f for f in firms) for firms in likes]
    members: list[set[int]] = [set() for _ in range(n)]
    for w, f in enumerate(assignment):
        members[f].add(w)
    reach = [_union(liked_by, workers) for workers in members]
    iterations = 0
    while True:
        loads = list(map(len, members))
        firms = _best_good_path(reach, loads, inst.capacities)
        if firms is None:
            break
        path = [(f, g, min(w for w in members[f] if liked_by[w] >> g & 1))
                for f, g in zip(firms, firms[1:])]
        # apply tail-first so intermediate loads never exceed capacity
        for f, g, w in reversed(path):
            if assignment[w] != f or inst.firm_vals[g][w] == 0:
                raise AssertionError(f"good-path step {f} -> {g}: worker {w} "
                                     f"is not at {f} or {g} does not value it")
            assignment[w] = g
            members[f].remove(w)
            members[g].add(w)
            reach[f] = _union(liked_by, members[f])
            reach[g] |= liked_by[w]
        # only the path's firms changed members: the start lost a worker,
        # the end gained one and each firm between kept its load, so the
        # product grew iff (a - 1)(b + 1) > ab
        start, end = firms[0], firms[-1]
        a, b = loads[start], loads[end]
        if (len(members[start]) != a - 1 or len(members[end]) != b + 1
                or any(len(members[f]) != loads[f] for f in firms[1:-1])
                or (a - 1) * (b + 1) <= a * b):
            raise AssertionError("good path failed to increase the product")
        iterations += 1
        if stats is not None:
            stats["iterations"] = iterations
        if iterations > cap + 10:
            raise RuntimeError("good-path iteration cap exceeded")
    mu = Matching.of(assignment)
    return mu, nash_value(inst, mu)


def _union(liked_by: list[int], workers) -> int:
    """The OR of liked_by[w] over workers."""
    return reduce(or_, map(liked_by.__getitem__, workers), 0)


def _best_good_path(reach: list[int], loads, caps) -> Optional[list[int]]:
    """The firms u, ..., v of the good path of largest gain (a-1)(b+1)/(ab),
    a = loads[u] >= b + 2, b = loads[v] < caps[v], ties by (u, v); or None.

    One BFS pass over the arcs f -> g for each bit g of reach[f]: roots in
    order of decreasing load, ties by index, each label the firms that no
    earlier root reached, level by level and each firm's new targets in
    increasing order.  A firm an earlier root reached leads only to firms
    it reached too, so root[v] is the least-index firm of largest load that
    reaches v, and its tree path to v is the one a BFS from it alone takes."""
    n = len(loads)
    slack = [v for v in range(n) if loads[v] < caps[v]]
    root, parent = [-1] * n, [-1] * n
    seen = 0
    for r in sorted(range(n), key=loads.__getitem__, reverse=True):
        if seen >> r & 1:
            continue
        seen |= 1 << r
        root[r] = r
        queue = [r]
        while queue:
            nxt = []
            for f in queue:
                new = reach[f] & ~seen
                seen |= new
                while new:
                    low = new & -new
                    g = low.bit_length() - 1
                    root[g], parent[g] = r, f
                    nxt.append(g)
                    new ^= low
            queue = nxt
    # exact gains num/den by cross-multiplying; equal (gain, u) keep least v
    best = None
    for v in slack:
        u = root[v]
        if u < 0 or loads[u] < loads[v] + 2:
            continue
        a, b = loads[u], loads[v]
        num, den = (a - 1) * (b + 1), a * b
        if best is None or (num * best[1], -u) > (best[0] * den, -best[2]):
            best = (num, den, u, v)
    if best is None:
        return None
    firms = [best[3]]
    while firms[-1] != best[2]:
        firms.append(parent[firms[-1]])
    return firms[::-1]


def solve_degree_two(inst: Instance) -> tuple[Matching, NashValue]:
    """Nash-optimal matching when every agent has degree at most 2.

    The surviving-edge graph decomposes into paths and cycles.  Each
    component admits only a handful of candidate matchings: a path with
    equal worker and firm counts has a unique perfect matching; a path with
    one extra worker needs exactly one doubled firm, chosen by one scan of
    its firms (_best_doubled_firm); a cycle has two alternating perfect
    matchings; components that cannot give every member positive utility
    force a zero optimum.  Candidates are scored exactly and per-component
    optima multiply.
    """
    error = "an agent has degree above 2"
    # firm rows first: there are only n of them, and on a dense instance
    # they already break the bound
    if max(map(len, inst.valued_workers)) > 2 or max(map(len, inst.valued_firms)) > 2:
        raise DomainError(error)
    m, n = inst.m, inst.n
    # vertices: workers 0..m-1, firms m..m+n-1; each list is increasing.
    # An edge survives when either side values the other.
    adj = [[] for _ in range(m + n)]
    for w, firms in enumerate(inst.valued_firms):
        for f in firms:
            adj[w].append(m + f)
            adj[m + f].append(w)
    worker_vals = inst.worker_vals
    for f, workers in enumerate(inst.valued_workers):
        for w in workers:
            if not worker_vals[w][f]:
                insort(adj[w], m + f)
                insort(adj[m + f], w)
    if max(map(len, adj)) > 2:
        raise DomainError(error)
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


def _component_order(adj, seen, start) -> tuple[list[int], bool]:
    """The unseen path or cycle whose least vertex is start: marks it seen
    and returns (its vertices in walk order, whether it is a cycle).  A
    cycle starts at start and goes first to its lesser neighbour; a path
    starts at its lesser end."""
    seen[start] = True
    runs = []
    for cur in adj[start]:
        run, last = [], start
        while not seen[cur]:
            seen[cur] = True
            run.append(cur)
            # on to the neighbour not just left; at a path end, stay put
            last, cur = cur, next((x for x in adj[cur] if x != last), cur)
        runs.append(run)
    if len(runs) == 2 and not runs[1]:  # the first run came back round
        return [start, *runs[0]], True
    ahead = runs[0] if runs else []
    behind = runs[1] if len(runs) == 2 else []
    order = [*reversed(behind), start, *ahead]
    return (order if order[0] < order[-1] else order[::-1]), False


def _pair_up(seq, m) -> list[tuple[int, int]]:
    """(worker, firm-vertex) for each consecutive pair seq[0:2], seq[2:4], ..."""
    return [(a, b) if a < m else (b, a) for a, b in zip(seq[::2], seq[1::2])]


def _component_candidates(order, cycle, m) -> list[list[tuple[int, int]]]:
    """Candidate assignments for a cycle or a path that is not worker-led,
    in walk order, each a list of (worker, firm-vertex) pairs covering
    every component member.  An empty candidate list means no assignment
    can give every member positive utility, as for an isolated firm or a
    path with more firms than workers."""
    if cycle:  # two alternating perfect matchings
        return [_pair_up(order, m), _pair_up(order[1:] + order[:1], m)]
    if len(order) % 2 == 0:
        # as many workers as firms, so a unique perfect matching:
        # consecutive disjoint pairs along the path
        return [_pair_up(order, m)]
    return []


def _best_doubled_firm(inst, order) -> Optional[dict[int, int]]:
    """The best matching of a worker-led path w_0 f_0 w_1 ... f_{k-1} w_k
    as {worker: firm}, or None when none has a positive product.

    Firm f_j takes w_j and w_{j+1}; the firms before it take their left
    worker and those after it their right one, so the product is a prefix
    of left pairs, the doubled firm and a suffix of right pairs.  The scan
    keeps the first strict maximiser in firm order: candidate j beats the
    best b < j when the left pairs of b..j-1 times j's doubled product
    exceed b's doubled product times the right pairs of b+1..j, both
    running products, in exact integers.  A pair, or the doubled firm, at a
    firm short of capacity scores 0, and a zero left pair at i rules out
    every j > i, a zero right pair every j < i."""
    m, wv, fv, caps = inst.m, inst.worker_vals, inst.firm_vals, inst.capacities
    workers, firms = order[::2], [v - m for v in order[1::2]]
    left, right, both = [], [], []
    for f, a, b in zip(firms, workers, workers[1:]):
        va, vb, ua, ub = wv[a][f], wv[b][f], fv[f][a], fv[f][b]
        left.append(va * ua if caps[f] else 0)
        right.append(vb * ub if caps[f] else 0)
        both.append(va * vb * (ua + ub) if caps[f] >= 2 else 0)
    k = len(firms)
    lo = max((i for i in range(k) if not right[i]), default=0)
    hi = next((i for i in range(k) if not left[i]), k - 1)
    best = None
    for j in range(lo, hi + 1):
        if best is not None:
            ahead *= left[j - 1]
            behind *= right[j]
        if both[j] and (best is None or ahead * both[j] > behind * both[best]):
            best, ahead, behind = j, 1, 1
    if best is None:
        return None
    matching = dict(zip(workers, firms[:best + 1]))
    matching.update(zip(workers[best + 1:], firms[best:]))
    return matching


def _best_component_matching(inst, order, cycle) -> Optional[dict[int, int]]:
    """The best-scoring candidate as {worker: firm}; None when no candidate
    fits the capacities with a positive product."""
    m = inst.m
    # a path alternates workers and firms: one that starts and ends at a
    # worker has one worker more
    if not cycle and order[0] < m and order[-1] < m:
        return _best_doubled_firm(inst, order)
    best_prod = 0
    best = None
    for pairs in _component_candidates(order, cycle, m):
        # each firm of a candidate takes one worker
        if not all(inst.capacities[fv - m] for _w, fv in pairs):
            continue
        prod = 1
        for w, fv in pairs:
            f = fv - m
            prod *= inst.worker_vals[w][f] * inst.firm_vals[f][w]
        if prod > best_prod:
            best_prod = prod
            best = {w: fv - m for w, fv in pairs}
    return best


_NO_INSTANCE: tuple[Optional[Matching], NashValue] = (None, NashValue.zero())


def solve_degree3_capacity2(inst: Instance) -> tuple[Optional[Matching], NashValue]:
    """Firms of degree at most 3, each required to take exactly 2 workers.

    Returns (None, NashValue.zero()) ("no-instance") when no such matching
    has positive Nash product.  A firm takes two of its at most three
    workers, so a firm with two takes both and a firm with three is fully
    described by the one worker it leaves out; worker w must be left out
    by exactly deg(w) - 1 of the firms it values.  That is a bipartite
    assignment: the firms with three workers on one side, deg(w) - 1
    copies of each worker w on the other, and edge (f, copy of w) weighted
    by f's bundle value without w when that is positive.  A max-product perfect matching
    of it finds the optimum.  Firm pairs that share two workers are peeled
    off first and decided by enumeration (see below).
    """
    error = "a firm has degree above 3"
    firm_pos = inst.valued_workers
    if max(map(len, firm_pos)) > 3:
        raise DomainError(error)
    m, n = inst.m, inst.n
    # workers usable by a firm: the worker must value the firm, or its own
    # utility would be zero
    columns = [[] for _ in range(n)]
    for w, firms in enumerate(inst.valued_firms):
        for f in firms:
            columns[f].append(w)
    nbrs = [frozenset(workers) for workers in columns]
    # a firm's edges join the workers it values or that value it
    if any(len(nb.union(pos)) > 3 for nb, pos in zip(nbrs, firm_pos)):
        raise DomainError(error)
    if m != 2 * n or any(c < 2 for c in inst.capacities):
        return _NO_INSTANCE
    live_firms = set(range(n))
    live_workers = set(range(m))
    assignment: list = [UNMATCHED] * m
    # Two firms that share two workers draw 2 each from a 4-worker pool, a
    # 6-agent gadget decided here by enumeration in exact integers.  The
    # matching below would handle these firms too, but it compares logs
    # rounded to 2^-52 and decided 2 073 of 3 000 gadget-only near-tie
    # instances wrong.  The firm pairs that share two workers, in (f, g)
    # order: peeling only removes workers, so a pair ineligible once stays
    # so, and one pass in this order peels what restarting the scan after
    # every peel would.
    sharing: dict[tuple[int, int], list[int]] = {}
    for f in range(n):
        for pair in _pairs_within(nbrs[f]):
            sharing.setdefault(pair, []).append(f)
    candidates = sorted({(f, g) for firms in sharing.values()
                         for i, f in enumerate(firms) for g in firms[i + 1:]})

    if any(len(nbrs[f]) < 2 for f in live_firms):
        return _NO_INSTANCE
    for f, g in candidates:
        if f not in live_firms or g not in live_firms:
            continue
        nf = nbrs[f] & live_workers
        ng = nbrs[g] & live_workers
        if len(nf & ng) < 2:
            continue
        if len(nf | ng) < 4:
            return _NO_INSTANCE
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
            return _NO_INSTANCE
        for w in best_split[0]:
            assignment[w] = f
        for w in best_split[1]:
            assignment[w] = g
        live_firms -= {f, g}
        live_workers -= pool

    pools = [(f, sorted(nbrs[f] & live_workers)) for f in sorted(live_firms)]
    if any(len(pool) < 2 for _f, pool in pools):
        return _NO_INSTANCE
    degree = [0] * m
    for _f, pool in pools:
        for w in pool:
            degree[w] += 1
    # worker w is right vertices first[w] .. first[w] + degree[w] - 2.  As
    # every live firm takes two, they number the firms with three workers
    # unless some worker has no firm, which leaves the sides unequal and
    # the matching without a perfect answer.
    copies: list[int] = []  # copies[c]: the worker right vertex c stands for
    first = [0] * m
    for w in sorted(live_workers):
        first[w] = len(copies)
        copies += [w] * (degree[w] - 1)
    threes = []
    ids: list[list[int]] = []
    weights: list[list[int]] = []
    for f, pool in pools:
        if len(pool) == 3:
            near: list[int] = []
            vals: list[int] = []
            for w in pool:
                val = firm_bundle_value(inst, f, [x for x in pool if x != w])
                if val > 0:
                    near += range(first[w], first[w] + degree[w] - 1)
                    vals += [val] * (degree[w] - 1)
            threes.append(f)
            ids.append(near)
            weights.append(vals)
    mate = max_weight_perfect_matching_general(ids, weights, len(copies))
    if mate is None:
        return _NO_INSTANCE
    left_out = dict(zip(threes, map(copies.__getitem__, mate)))
    for f, pool in pools:
        for w in pool:
            if w != left_out.get(f):
                assignment[w] = f
    mu = Matching.of(assignment)
    value = nash_value(inst, mu)
    if value.is_zero:
        return _NO_INSTANCE
    return mu, value


def _pairs_within(workers) -> list[tuple[int, int]]:
    ws = sorted(workers)
    return [(ws[i], ws[j]) for i in range(len(ws)) for j in range(i + 1, len(ws))]


def solve_single_positive_firm(inst: Instance) -> tuple[Matching, NashValue]:
    """Each worker values exactly one firm positively; the only candidate
    for a nonzero product is the forced assignment.  If it breaks a
    capacity the optimum is zero; if it is feasible its (possibly zero)
    value is optimal."""
    targets = []
    for w, positive in enumerate(inst.valued_firms):
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
