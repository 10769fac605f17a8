"""Supporting graph algorithms.

Matching is a maximum-weight perfect matching of a bipartite graph
(max_weight_perfect_matching) by shortest augmenting paths on integer
weights (Tomizawa 1971; Edmonds and Karp 1972), so every potential and
reduced cost is an exact int.  It returns the matching, or None, together
with a check of the optimum against the final vertex potentials.  Its seed
follows Jonker and Volgenant (1987): each left vertex's potential is its
largest weight, a greedy matching takes tight edges, and one pass of tight
augmenting paths of three edges extends it, so only the left vertices the
seed leaves single start a search.  Both seed passes find tight edges by
C-level list.index scans, and the second lists a vertex's tight neighbours
at most once.  A search keeps each right vertex's distance less its
potential, which an edge sets to the same value whichever right vertex it
reaches, so a settled row is relaxed by one subtraction and one
comparison per edge at C level; a row that lists every right vertex in
increasing order is compared with that array directly, and any other row
through its ids.

A graph is the left side's adjacency lists: ids[l] lists l's right
neighbours and weights[l] the weights of those edges in the same order, so
the seed's per-vertex max runs at C level and no edge list is built.
Matching weights arrive as positive integers, and
max_weight_perfect_matching_general maximises the sum of their logs
rounded to multiples of 2^-52, so a near-tie between two products can
still be decided by rounding; it is the one place where logs meet the
matching reductions.  Its weight rows may be lazy iterables, read once
by the one C-level pass that maps them to logs.
"""

from __future__ import annotations

import math
from math import inf
from heapq import heapify, heappop, heappush
from itertools import compress
from operator import add, lt


class _RoundedLogs(dict):
    """Maps a positive int w to round(log(w) * 2^52), computing each
    distinct w's log once, the first time it is looked up."""

    def __missing__(self, w):
        self[w] = log = round(math.log(w) * 2**52)
        return log


def max_weight_perfect_matching_general(ids, weights, num_right) -> list[int] | None:
    """Perfect matching that maximises the product of its edge weights, as
    mate, where mate[l] is left vertex l's right partner, or None when no
    perfect matching exists.  It runs max_weight_perfect_matching on their
    logs as integer multiples of 2^-52, each distinct weight's taken the
    first time the one mapping pass meets it, so two products whose
    rounded logs sum alike can come out in either order.
    The optimum check is not run: it would certify the rounded logs, not
    the product.

    ids[l] lists l's right neighbours, in 0..num_right-1, and weights[l]
    the positive int weights of those edges, in the same order, as any
    iterable; each is read once.
    """
    to_log = _RoundedLogs().__getitem__
    mate, _check = max_weight_perfect_matching(
        ids, [list(map(to_log, ws)) for ws in weights], num_right)
    return mate


def max_weight_perfect_matching(ids, weights, num_right) -> tuple:
    """Maximum-weight perfect matching of left vertices 0..len(ids)-1 with
    right vertices 0..num_right-1, as (mate, check): mate[l] is l's right
    partner, and check() raises AssertionError, under python -O too, unless
    u[l] + v[r] >= w on every edge with equality on the matched ones, a
    certificate that no perfect matching weighs more.  (None, None) when no
    perfect matching exists, at once when the sides differ in size or a
    left vertex has no edge.

    ids[l] lists l's right neighbours, each once and in any order, and
    weights[l] the int weights of those edges, in the same order; each
    ids[l] and weights[l] is a list or tuple.  The seed sets u[l] to l's
    largest weight and v to 0; then each left vertex, in order, takes its
    first single neighbour on a tight edge, one of weight u[l], in ids
    order; then each one still single takes a tight path l-r=l2-r2 to a
    single r2, where there is one, from tight-neighbour lists each built
    once, on first need.  Each left vertex still single then roots one
    Dijkstra search over the reduced costs u + v - w >= 0 to the nearest
    single right vertex; the potentials move by the distances the search
    settled, which keeps every reduced cost >= 0 and makes the path tight,
    and the path is augmented.  A search holds each right vertex's
    distance less its potential, and relaxes a row that is
    range(num_right) in order against that array directly, any other row
    through its ids.  A search that reaches no single right vertex proves,
    by Berge's lemma, that no perfect matching exists.
    """
    nl = len(ids)
    if nl != num_right or not all(ids):
        return None, None
    u = list(map(max, weights))
    v = [0] * nl
    v_of = v.__getitem__
    mate = [-1] * nl  # mate[l]: l's right partner, or -1
    owner = [-1] * nl  # owner[r]: r's left partner, or -1
    # while v is 0 an edge is tight iff its weight is u[l], so C-level
    # index scans find l's tight neighbours in ids order
    for l, (near, ws, top) in enumerate(zip(ids, weights, u)):
        j = ws.index(top)
        try:
            while owner[near[j]] != -1:
                j = ws.index(top, j + 1)
        except ValueError:
            continue  # every tight neighbour is taken
        mate[l] = near[j]
        owner[near[j]] = l
    # tight[l]: l's tight neighbours in ids order, listed on first need
    tight = [None] * nl

    def tight_of(l):
        near, ws, top = ids[l], weights[l], u[l]
        j = -1
        tl = tight[l] = []
        for _ in range(ws.count(top)):
            j = ws.index(top, j + 1)
            tl.append(near[j])
        return tl

    for l in range(nl):
        if mate[l] != -1:
            continue
        # every tight neighbour of l is matched, or the greedy took it
        for r in tight[l] or tight_of(l):
            l2 = owner[r]
            for r2 in tight[l2] or tight_of(l2):
                if owner[r2] == -1:
                    mate[l], owner[r], mate[l2], owner[r2] = r, l, r2, l2
                    break
            else:
                continue
            break

    every = tuple(range(nl))  # the ids of a dense row, in order
    for root in range(nl):
        if mate[root] != -1:
            continue
        # gap[r]: dist[r] - v[r], where dist[r] is the least reduced cost of
        # an alternating path root ~> r so far; v holds during a search, so
        # an edge (l, r) from l at distance d gives r the gap d + u[l] - w,
        # whatever r is; pred[r]: the left vertex before r on that path
        gap = [inf] * nl
        gap_of = gap.__getitem__
        pred = [root] * nl
        near = ids[root]
        gaps = list(map(u[root].__sub__, weights[root]))
        for r, g in zip(near, gaps):
            gap[r] = g
        heap = list(zip(map(add, gaps, map(v_of, near)), near))
        heapify(heap)
        settled = []  # (r, dist[r]) of the matched right vertices settled
        while True:
            if not heap:
                return None, None
            d, r = heappop(heap)
            if d - v[r] > gap[r]:
                continue  # a stale entry
            l = owner[r]
            if l == -1:
                break
            settled.append((r, d))
            # the matched edge (l, r) is tight, so l is at distance d too;
            # a single right vertex at distance d ends the search at once
            near = ids[l]
            gaps = list(map((d + u[l]).__sub__, weights[l]))
            if len(near) == nl and tuple(near) == every:
                closer = map(lt, gaps, gap)  # a dense row, in order
            else:
                closer = map(lt, gaps, map(gap_of, near))
            for r2, g2 in compress(zip(near, gaps), closer):
                gap[r2] = g2
                pred[r2] = l
                d2 = g2 + v[r2]
                if d2 == d and owner[r2] == -1:
                    break
                heappush(heap, (d2, r2))
            else:
                continue
            r = r2
            break
        # a vertex settled at distance d' < d moves by d - d': the path's
        # edges become tight and no reduced cost goes negative
        u[root] -= d
        for r2, d2 in settled:
            v[r2] += d - d2
            u[owner[r2]] -= d - d2
        while True:
            l = pred[r]
            mate[l], r = r, mate[l]
            owner[mate[l]] = l
            if l == root:
                break

    def check():
        if sorted(mate) != list(range(nl)):
            raise AssertionError("mate is not a perfect matching")
        for l, r0 in enumerate(mate):
            slack = None
            ul = u[l]
            for r, w in zip(ids[l], weights[l]):
                s = ul + v[r] - w
                if s < 0:
                    raise AssertionError(f"edge ({l}, {r}) has negative slack")
                if r == r0:
                    slack = s
            if slack != 0:
                raise AssertionError(f"matched edge ({l}, {r0}) is not tight")

    return mate, check
