"""Polynomial-time test for existence of a nonzero-Nash matching.

The binarized instance admits a matching with all-positive utilities iff an
integral flow exists in the network below.  Each worker must be matched along
an arc it values; each firm needs at least one matched worker it values, but
may absorb further workers it does not value (those leave its utility
untouched and keep the workers' utilities positive).

    source -> firm_cap          [0, c_f]
    firm_cap -> firm_valued     [1, c_f]   workers the firm values
    firm_cap -> firm_unvalued   [0, c_f]   workers the firm does not value
    firm_* -> worker            [0, 1]     only where the worker values the firm
    worker -> sink              [1, 1]
"""

from __future__ import annotations

from itertools import compress

from .core import Instance, Matching, UNMATCHED
from .graphalgs import feasible_flow_with_lower_bounds


def exists_nonzero_nash(inst: Instance) -> tuple[bool, Matching | None]:
    """True iff some matching gives every agent positive utility; on True a
    witness matching is returned."""
    m, n = inst.m, inst.n
    # nodes: 0 = source, 1 = sink, firms at 2 + 3f (cap/valued/unvalued),
    # workers at 2 + 3n + w
    source, sink = 0, 1
    def f_cap(f): return 2 + 3 * f
    def f_val(f): return 2 + 3 * f + 1
    def f_unval(f): return 2 + 3 * f + 2
    def w_node(w): return 2 + 3 * n + w

    arcs = []
    for f in range(n):
        c = inst.capacities[f]
        arcs.append((source, f_cap(f), 0, c))
        arcs.append((f_cap(f), f_val(f), 1, max(1, c)))
        arcs.append((f_cap(f), f_unval(f), 0, c))
    pair_arcs: dict[int, tuple[int, int]] = {}
    firms = tuple(range(n))
    for w, row in enumerate(inst.worker_vals):
        # the firms w values: one C-level scan of the row
        for f in compress(firms, row):
            src = f_val(f) if inst.firm_vals[f][w] > 0 else f_unval(f)
            pair_arcs[len(arcs)] = (w, f)
            arcs.append((src, w_node(w), 0, 1))
    for w in range(m):
        arcs.append((w_node(w), sink, 1, 1))

    flows = feasible_flow_with_lower_bounds(2 + 3 * n + m, source, sink, arcs)
    if flows is None:
        return False, None
    assignment: list = [UNMATCHED] * m
    for idx, (w, f) in pair_arcs.items():
        if flows[idx] > 0:
            assignment[w] = f
    return True, Matching.of(assignment)
