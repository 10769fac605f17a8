"""Reference form of the symmetric-binary exchange-graph local search.

Every iteration rebuilds the exchange graph from the current assignment,
scores every endpoint pair with its own Fraction gain, sorts all pairs by
(-gain, u, v) and runs a fresh early-exit BFS for each pair in turn.
`nswmatch.restricted.solve_symmetric_binary` must return the same
assignment, product and iteration count.  The domain check and the
feasibility flow are the dense-scan forms of reference_support.
"""

from __future__ import annotations

import math
from fractions import Fraction

from nswmatch.core import Instance, Matching, NashValue, UNMATCHED, nash_value, zero_result
from reference_support import check_symmetric_binary, exists_nonzero_nash


def build_arcs(inst: Instance, assignment) -> list[list[list[int]]]:
    """arcs[f][g]: the workers at f that firm g != f values, increasing."""
    n = inst.n
    arcs = [[[] for _ in range(n)] for _ in range(n)]
    for w, f in enumerate(assignment):
        if f is UNMATCHED:
            continue
        for g in range(n):
            if g != f and inst.firm_vals[g][w] > 0:
                arcs[f][g].append(w)
    return arcs


def solve_symmetric_binary(inst: Instance, stats: dict) -> tuple[Matching, NashValue]:
    check_symmetric_binary(inst)
    n = inst.n
    stats["iterations"] = 0
    ok, mu = exists_nonzero_nash(inst)
    if not ok:
        return zero_result(inst)
    assignment = list(mu.assignment)
    while True:
        loads = [0] * n
        for f in assignment:
            loads[f] += 1
        path = best_path(build_arcs(inst, assignment), loads, inst.capacities)
        if path is None:
            break
        before = math.prod(loads)
        for f, g, w in reversed(path):
            assert assignment[w] == f and inst.firm_vals[g][w] > 0
            assignment[w] = g
        loads[path[0][0]] -= 1
        loads[path[-1][1]] += 1
        assert math.prod(loads) > before
        stats["iterations"] += 1
    mu = Matching.of(assignment)
    return mu, nash_value(inst, mu)


def best_path(arcs, loads, caps):
    """The path of the first reachable endpoint pair (u, v), scoring every
    pair with its own Fraction gain and sorting all of them by
    (-gain, u, v), then one early-exit BFS per pair in that order;
    [(f, g, witness_worker), ...] or None."""
    n = len(loads)
    pairs = []
    for u in range(n):
        for v in range(n):
            if u == v or loads[u] < loads[v] + 2 or loads[v] >= caps[v]:
                continue
            gain = Fraction((loads[u] - 1) * (loads[v] + 1), loads[u] * loads[v])
            pairs.append((gain, u, v))
    pairs.sort(key=lambda t: (-t[0], t[1], t[2]))
    for _gain, u, v in pairs:
        path = find_path(arcs, u, v)
        if path is not None:
            return path
    return None


def find_path(arcs, u: int, v: int):
    """BFS from u to v, stopping at v; [(f, g, witness_worker), ...] or None."""
    parent: dict[int, tuple[int, int]] = {u: (-1, -1)}
    queue = [u]
    while queue:
        nxt = []
        for f in queue:
            for g in range(len(arcs)):
                if g in parent or not arcs[f][g]:
                    continue
                parent[g] = (f, arcs[f][g][0])
                if g == v:
                    path = []
                    node = v
                    while node != u:
                        pf, w = parent[node]
                        path.append((pf, node, w))
                        node = pf
                    path.reverse()
                    return path
                nxt.append(g)
        queue = nxt
    return None
