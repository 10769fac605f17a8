"""Polynomial-time test for existence of a nonzero-Nash matching.

The binarized instance admits a matching with all-positive utilities iff
every worker can be placed along an arc it values while every firm holds at
least one worker it values; a firm may absorb further workers it does not
value (those leave its utility untouched and keep the workers' utilities
positive).  Both conditions are met by two max flows on one network:

    source -> worker       1
    worker -> own_f        1        the worker and firm f value each other
    worker -> open_f       1        only the worker values f
    own_f  -> sink         min(1, c_f)   f's seat for a worker it values
    own_f  -> open_f       m
    open_f -> sink         0, then c_f - 1

The first run must fill every firm's seat (flow n).  Then the open_f arcs
are raised and the run resumes from that flow; the answer is yes iff the
two runs total m.  An augmenting path ends at the sink and never leaves it,
so it never takes flow off an arc into the sink and the seats stay filled
(Mendelsohn and Dulmage 1958).
"""

from __future__ import annotations

from itertools import compress

from .core import Instance, Matching, UNMATCHED
from .graphalgs import _Dinic


def exists_nonzero_nash(inst: Instance) -> tuple[bool, Matching | None]:
    """True iff some matching gives every agent positive utility; on True a
    witness matching is returned."""
    m, n = inst.m, inst.n
    # nodes: 0 = source, 1 = sink, workers at 2 + w, firm f's own node at
    # 2 + m + 2f and its open node one above
    source, sink = 0, 1
    dinic = _Dinic(2 + m + 2 * n)
    open_arcs = []
    for f, c in enumerate(inst.capacities):
        own = 2 + m + 2 * f
        dinic.add_edge(own, sink, min(1, c))
        open_arcs.append(dinic.add_edge(own + 1, sink, 0))
        dinic.add_edge(own, own + 1, m)
    pair_arcs = []
    firms = tuple(range(n))
    for w, row in enumerate(inst.worker_vals):
        dinic.add_edge(source, 2 + w, 1)
        # the firms w values: one C-level scan of the row
        for f in compress(firms, row):
            own = 2 + m + 2 * f
            node = own if inst.firm_vals[f][w] > 0 else own + 1
            pair_arcs.append((dinic.add_edge(2 + w, node, 1), w, f))

    if dinic.max_flow(source, sink) < n:
        return False, None
    for idx, c in zip(open_arcs, inst.capacities):
        dinic.cap[idx] = c - 1
    if n + dinic.max_flow(source, sink) < m:
        return False, None
    assignment: list = [UNMATCHED] * m
    for idx, w, f in pair_arcs:
        if dinic.cap[idx] == 0:
            assignment[w] = f
    return True, Matching.of(assignment)
