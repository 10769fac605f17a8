"""Supporting graph algorithms.

Matching is Edmonds' weighted blossom algorithm
(max_weight_perfect_matching), run in-tree on integer vertices and integer
weights, so every dual and slack is an exact int.  It returns a
maximum-weight perfect matching, or None, together with a check of the
optimum against the final duals, and starts from a greedy matching on the
tight edges of seeded duals, as Blossom V does, so only the vertices that
seed leaves single root alternating trees.  Among equal-weight perfect
matchings it need not return the one networkx would.

A graph is two adjacency lists, the one form the matching takes: ids[v]
lists v's neighbours and weights[v] the weights of those edges in the same
order, so the seed's per-vertex max and min run at C level and no edge list
is built.  Matching weights arrive as positive integers, and
max_weight_perfect_matching_general maximises the sum of their logs
rounded to multiples of 2^-52, so a near-tie between two products can
still be decided by rounding; it is the one place where logs meet the
matching reductions.  It splits the graph into connected components with
C-level set intersections, answers None at once when one has an odd vertex
count, and matches each component on its own.

_Dinic is a small max-flow.  A run resumes from the flow the last one left,
so raising some capacities and running again reaches the larger maximum.
Its blocking-flow search is iterative, with an explicit stack of path arcs,
so an augmenting path may be longer than Python's recursion limit.

The stages of max_weight_perfect_matching are ported from networkx 3.6
(networkx/algorithms/matching.py), which carries this notice:

    Copyright (c) 2004-2025, NetworkX Developers
    Aric Hagberg <hagberg@lanl.gov>
    Dan Schult <dschult@colgate.edu>
    Pieter Swart <swart@lanl.gov>
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions are
    met:

      * Redistributions of source code must retain the above copyright
        notice, this list of conditions and the following disclaimer.

      * Redistributions in binary form must reproduce the above
        copyright notice, this list of conditions and the following
        disclaimer in the documentation and/or other materials provided
        with the distribution.

      * Neither the name of the NetworkX Developers nor the names of its
        contributors may be used to endorse or promote products derived
        from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import math
from collections import deque
from operator import sub


def max_weight_perfect_matching_general(ids, weights) -> list[int] | None:
    """Perfect matching that maximises the product of its edge weights, as
    mate, where mate[v] is v's partner, or None when no perfect matching
    exists.  It runs max_weight_perfect_matching on their logs as integer
    multiples of 2^-52, so two products whose rounded logs sum alike can
    come out in either order.  The optimum check is not run: it would
    certify the rounded logs, not the product.

    ids[v] lists v's neighbours and weights[v] the positive int weights of
    those edges, in the same order; each edge appears at both ends with the
    same weight.  Each connected component is matched on its own, in its
    vertices' increasing order; a graph of one component is passed on as it
    is.  An odd component returns None before any matching runs.
    """
    nv = len(ids)
    unseen = set(range(nv))
    components = []
    for root in range(nv):
        if not unseen:
            break
        if root not in unseen:
            continue
        unseen.remove(root)
        component = [root]
        # the list grows while it is walked: a breadth-first search whose
        # frontier steps are C-level set intersections
        for v in component:
            if not unseen:
                break
            found = unseen.intersection(ids[v])
            if found:
                unseen -= found
                component += found
        if len(component) & 1:
            return None
        components.append(component)
    # each distinct weight's log in units of 2^-52, rounded once and
    # doubled for the blossom
    logs = {w: 2 * round(math.log(w) * 2**52) for w in set().union(*weights)}
    to_log = logs.__getitem__
    if len(components) == 1:
        mate, _check = max_weight_perfect_matching(
            ids, [list(map(to_log, ws)) for ws in weights])
        return mate
    mate = [-1] * nv
    local = [0] * nv
    for component in components:
        component.sort()
        for i, v in enumerate(component):
            local[v] = i
        to_local = local.__getitem__
        part, _check = max_weight_perfect_matching(
            [list(map(to_local, ids[v])) for v in component],
            [list(map(to_log, weights[v])) for v in component])
        if part is None:
            return None
        for v, i in zip(component, part):
            mate[v] = component[i]
    return mate


def max_weight_perfect_matching(ids, weights) -> tuple:
    """Maximum-weight perfect matching of vertices 0..len(ids)-1, as
    (mate, check): mate[v] is v's partner, and check() raises
    AssertionError unless the complementary slackness conditions hold on
    the final duals, a certificate that no perfect matching weighs more.
    (None, None) when no perfect matching exists, at once when the vertex
    count is odd or a vertex has no edge.

    ids[v] lists v's neighbours and weights[v] the weights of those edges,
    in the same order; each edge appears at both ends with the same weight.
    Weights are even ints, twice the edge weights: the duals are doubled
    too, so every dual and slack is an exact int.  The stages are
    networkx's max_weight_matching(G, maxcardinality=True), started from a
    seeded state as in Blossom V's greedy initialisation (Kolmogorov 2009,
    "Blossom V: a new implementation of a minimum cost perfect matching
    algorithm"): each vertex's dual is half its largest incident weight;
    then each vertex still single, in vertex order, lowers its dual by its
    least slack and takes the first single neighbour on a least-slack edge;
    then each vertex still single takes a tight alternating path of three
    edges to another single vertex, where there is one.  Only the vertices
    left single root alternating trees.  A perfect matching's LP leaves
    vertex duals free in sign, so any feasible seed is valid; a search that
    ends short of perfect has found a maximum-cardinality matching, so None
    is the answer then.  Among equal-weight perfect matchings the one
    returned need not be networkx's.  Blossoms get integer ids from the
    vertex count up, reused once a blossom is expanded; live blossoms are
    kept in blossomdual in creation order, the order networkx iterates
    them in.

    The stages are taken from "Efficient Algorithms for Finding Maximum
    Matching in Graphs" by Zvi Galil, ACM Computing Surveys, 1986.  Many
    terms used in the comments are explained in that paper.
    """
    nv = len(ids)
    if nv & 1 or not all(ids):
        return None, None  # an odd count or an isolated vertex

    # Ids below nv are vertices, ids nv..2nv-1 blossoms.  For a vertex or
    # blossom id b:
    # mate[v]: v's partner vertex, or -1 while v is single.
    mate = [-1] * nv
    # dualvar[v] = 2 * u(v), so duals stay ints.  The seed u(v) = half v's
    # largest incident weight leaves every slack >= 0.
    dualvar = [w2 // 2 for w2 in map(max, weights)]
    dual_of = dualvar.__getitem__
    for v in range(nv):
        if mate[v] != -1:
            continue
        dv = dualvar[v]
        least = dv + min(map(sub, map(dual_of, ids[v]), weights[v]))
        # the least-slack edges become exactly tight
        for w, w2 in zip(ids[v], weights[v]):
            if mate[w] == -1 and dv + dualvar[w] - w2 == least:
                mate[v] = w
                mate[w] = v
                break
        dv -= least
        if mate[v] == -1:
            # a vertex left single gets an even dual: tight edges join
            # vertices of equal dual parity, so the S-vertices of a stage
            # share its single vertices' parity and S-S slacks stay even
            # for half_slack
            dv += dv & 1
        dualvar[v] = dv
    # then each vertex still single takes an alternating path v-x=y-z of
    # tight edges to another single vertex z, where there is one
    for v in range(nv):
        if mate[v] != -1:
            continue
        for x, w2 in zip(ids[v], weights[v]):
            y = mate[x]
            if y == -1 or dualvar[v] + dualvar[x] - w2 > 0:
                continue
            for z, w3 in zip(ids[y], weights[y]):
                if z != v and mate[z] == -1 and dualvar[y] + dualvar[z] - w3 == 0:
                    mate[v], mate[x], mate[y], mate[z] = x, v, z, y
                    break
            else:
                continue
            break

    # label[b] of a top-level blossom: 0 free, 1 S, 2 T (5 is a breadcrumb
    # of scan_blossom).  label[v] of a vertex inside a T-blossom is 2 iff v
    # is reachable from an S-vertex outside the blossom.  Reset every stage.
    # labeledge[b]: the edge (v, w), w in b, through which b got its label,
    # or None if b's base is single; for a reached vertex w inside a
    # T-blossom, the edge through which w is reached.
    # inblossom[v]: v's top-level blossom (v itself if it is trivial).
    inblossom = list(range(nv))
    # blossomparent[b]: b's immediate parent blossom, or -1 at top level.
    blossomparent = [-1] * (2 * nv)
    # blossombase[b]: b's base vertex.
    blossombase = list(range(nv)) + [-1] * nv
    # bestedge[w] of a free vertex (or unreached vertex in a T-blossom):
    # least-slack edge (v, w, 2 * weight) from an S-vertex, or None;
    # bestedge[b] of a top-level S-blossom: least-slack edge to a different
    # S-blossom.  Gives delta2 and delta3.
    # blossomdual[b] = z(b) of each live blossom, in creation order.
    blossomdual: dict[int, object] = {}
    # childs[b]: sub-blossoms from the base round the blossom; bedges[b][i]
    # = (v, w) with v in childs[b][i] and w in the next child.
    childs: list = [None] * (2 * nv)
    bedges: list = [None] * (2 * nv)
    # mybestedges[b] of a top-level S-blossom: least-slack edges to
    # neighbouring S-blossoms, or None if not computed yet (for delta3).
    mybestedges: list = [None] * (2 * nv)
    unusedblossoms = list(range(nv, 2 * nv))
    singles = list(range(nv))  # a superset of the single vertices, sorted
    # allowed holds v * nv + w for both directions of each edge known to
    # have zero slack in this stage.
    allowed: set = set()
    queue: list = []  # S-vertices to scan
    label: list = []
    labeledge: list = []
    bestedge: list = []
    is_labeled: list = []
    labeled_vertices: list = []

    def slack(e):
        """2 * slack of edge e = (v, w, 2 * weight); not valid inside blossoms."""
        return dualvar[e[0]] + dualvar[e[1]] - e[2]

    def half_slack(e):
        """delta3's candidate: the slack of edge e between S-blossoms."""
        kslack = dualvar[e[0]] + dualvar[e[1]] - e[2]
        if kslack & 1:
            raise AssertionError(f"odd slack on edge {e[:2]} between S-blossoms")
        return kslack // 2

    def leaves(b):
        """The vertices of blossom b, in networkx's stack order."""
        out = []
        stack = [*childs[b]]
        while stack:
            t = stack.pop()
            if t >= nv:
                stack.extend(childs[t])
            else:
                out.append(t)
        return out

    def assign_label(w, t, v):
        """Give w's top-level blossom label t (1 S, 2 T), reached through an
        edge from v (-1 for none), and note its vertices as labelled."""
        b = inblossom[w]
        assert label[w] == 0 and label[b] == 0
        label[w] = label[b] = t
        labeledge[w] = labeledge[b] = None if v < 0 else (v, w)
        bestedge[w] = bestedge[b] = None
        vertices = leaves(b) if b >= nv else (b,)
        for x in vertices:
            if not is_labeled[x]:
                is_labeled[x] = True
                labeled_vertices.append(x)
        if t == 1:
            # b became an S-vertex/blossom; queue its vertices
            queue.extend(vertices)
        elif t == 2:
            # b became a T-blossom; its base is the only vertex with an
            # external mate, which becomes S
            base = blossombase[b]
            assign_label(mate[base], 1, base)

    def scan_blossom(v, w):
        """Trace back from v and w; return the base of a new blossom, or -1
        when an augmenting path was found."""
        path = []
        base = -1
        while v != -1:
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            assert label[b] == 1
            path.append(b)
            label[b] = 5
            if labeledge[b] is None:
                # the base of b is single; stop tracing this path
                assert mate[blossombase[b]] == -1
                v = -1
            else:
                assert labeledge[b][0] == mate[blossombase[b]]
                v = labeledge[b][0]
                b = inblossom[v]
                assert label[b] == 2
                # b is a T-blossom; trace one more step back
                v = labeledge[b][0]
            # alternate between both paths
            if w != -1:
                v, w = w, v
        for b in path:
            label[b] = 1
        return base

    def add_blossom(base, v, w):
        """New S-blossom with the given base through S-vertices v and w,
        dual 0; its T-vertices become S and are queued."""
        bb = inblossom[base]
        bv = inblossom[v]
        bw = inblossom[w]
        b = unusedblossoms.pop()
        blossombase[b] = base
        blossomparent[b] = -1
        blossomparent[bb] = b
        childs[b] = path = []
        bedges[b] = edgs = [(v, w)]
        # trace back from v to base
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            edgs.append(labeledge[bv])
            assert label[bv] == 2 or (
                label[bv] == 1 and labeledge[bv][0] == mate[blossombase[bv]])
            v = labeledge[bv][0]
            bv = inblossom[v]
        path.append(bb)
        path.reverse()
        edgs.reverse()
        # trace back from w to base
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            edgs.append((labeledge[bw][1], labeledge[bw][0]))
            assert label[bw] == 2 or (
                label[bw] == 1 and labeledge[bw][0] == mate[blossombase[bw]])
            w = labeledge[bw][0]
            bw = inblossom[w]
        assert label[bb] == 1
        label[b] = 1
        labeledge[b] = labeledge[bb]
        blossomdual[b] = 0
        for v in leaves(b):
            if label[inblossom[v]] == 2:
                # a T-vertex turns S inside the new S-blossom
                queue.append(v)
            inblossom[v] = b
        # least-slack edge from b to each neighbouring S-blossom
        bestedgeto: dict = {}
        for bv in path:
            if bv >= nv:
                if mybestedges[bv] is not None:
                    nblist = mybestedges[bv]
                    # the sub-blossom won't need this data again
                    mybestedges[bv] = None
                else:
                    nblist = [(v, w, w2) for v in leaves(bv)
                              for w, w2 in zip(ids[v], weights[v])]
            else:
                nblist = [(bv, w, w2) for w, w2 in zip(ids[bv], weights[bv])]
            for k in nblist:
                j = k[0] if inblossom[k[1]] == b else k[1]
                bj = inblossom[j]
                if (bj != b and label[bj] == 1
                        and (bj not in bestedgeto or slack(k) < slack(bestedgeto[bj]))):
                    bestedgeto[bj] = k
            bestedge[bv] = None
        mybestedges[b] = list(bestedgeto.values())
        mybestedge = None
        for k in mybestedges[b]:
            kslack = slack(k)
            if mybestedge is None or kslack < mybestslack:
                mybestedge = k
                mybestslack = kslack
        bestedge[b] = mybestedge

    def expand_blossom(b, endstage):
        """Turn the sub-blossoms of top-level blossom b into top-level
        blossoms; the recursion is kept flat by a trampoline of generators."""

        def recurse(b, endstage):
            for s in childs[b]:
                blossomparent[s] = -1
                if s >= nv:
                    if endstage and blossomdual[s] == 0:
                        # recursively expand this sub-blossom
                        yield s
                    else:
                        for v in leaves(s):
                            inblossom[v] = s
                else:
                    inblossom[s] = s
            # a T-blossom expanded during a stage relabels its sub-blossoms
            if not endstage and label[b] == 2:
                bchilds = childs[b]
                bedge = bedges[b]
                # start at the sub-blossom through which b got its label and
                # relabel sub-blossoms until we reach the base
                entrychild = inblossom[labeledge[b][1]]
                j = bchilds.index(entrychild)
                if j & 1:
                    # odd start index: go forward and wrap
                    j -= len(bchilds)
                    jstep = 1
                else:
                    # even start index: go backward
                    jstep = -1
                v, w = labeledge[b]
                while j != 0:
                    # relabel the T-sub-blossom
                    if jstep == 1:
                        p, q = bedge[j]
                    else:
                        q, p = bedge[j - 1]
                    label[w] = 0
                    label[q] = 0
                    assign_label(w, 2, v)
                    # step to the next S-sub-blossom and note its forward edge
                    allowed.add(p * nv + q)
                    allowed.add(q * nv + p)
                    j += jstep
                    if jstep == 1:
                        v, w = bedge[j]
                    else:
                        w, v = bedge[j - 1]
                    # step to the next T-sub-blossom
                    allowed.add(v * nv + w)
                    allowed.add(w * nv + v)
                    j += jstep
                # relabel the base T-sub-blossom without stepping through to
                # its mate
                bw = bchilds[j]
                label[w] = label[bw] = 2
                labeledge[w] = labeledge[bw] = (v, w)
                bestedge[bw] = None
                # continue along the blossom until we get back to entrychild
                j += jstep
                while bchilds[j] != entrychild:
                    # a sub-blossom reachable from a neighbouring S-vertex
                    # outside the expanding blossom gets label T
                    bv = bchilds[j]
                    if label[bv] == 1:
                        # it just got label S through one of its neighbours
                        j += jstep
                        continue
                    if bv >= nv:
                        for v in leaves(bv):
                            if label[v]:
                                break
                    else:
                        v = bv
                    if label[v]:
                        assert label[v] == 2
                        assert inblossom[v] == bv
                        label[v] = 0
                        label[mate[blossombase[bv]]] = 0
                        assign_label(v, 2, labeledge[v][0])
                    j += jstep
            # remove the expanded blossom entirely
            label[b] = 0
            labeledge[b] = None
            bestedge[b] = None
            blossomparent[b] = -1
            blossombase[b] = -1
            childs[b] = bedges[b] = None
            del blossomdual[b]
            unusedblossoms.append(b)

        stack = [recurse(b, endstage)]
        while stack:
            for s in stack[-1]:
                stack.append(recurse(s, endstage))
                break
            else:
                stack.pop()

    def augment_blossom(b, v):
        """Swap matched and unmatched edges along the alternating path
        through blossom b between vertex v and the base, which becomes v."""

        def recurse(b, v):
            # bubble up from v to an immediate sub-blossom of b
            t = v
            while blossomparent[t] != b:
                t = blossomparent[t]
            if t >= nv:
                yield (t, v)
            bchilds = childs[b]
            bedge = bedges[b]
            i = j = bchilds.index(t)
            if i & 1:
                j -= len(bchilds)
                jstep = 1
            else:
                jstep = -1
            # move along the blossom until we get to the base
            while j != 0:
                j += jstep
                t = bchilds[j]
                if jstep == 1:
                    w, x = bedge[j]
                else:
                    x, w = bedge[j - 1]
                if t >= nv:
                    yield (t, w)
                j += jstep
                t = bchilds[j]
                if t >= nv:
                    yield (t, x)
                mate[w] = x
                mate[x] = w
            # rotate the sub-blossoms to put the new base at the front
            childs[b] = bchilds[i:] + bchilds[:i]
            bedges[b] = bedge[i:] + bedge[:i]
            blossombase[b] = blossombase[childs[b][0]]
            assert blossombase[b] == v

        stack = [recurse(b, v)]
        while stack:
            for args in stack[-1]:
                stack.append(recurse(*args))
                break
            else:
                stack.pop()

    def augment_matching(v, w):
        """Swap matched and unmatched edges along the augmenting path
        through S-vertices v and w between two single vertices."""
        for s, j in ((v, w), (w, v)):
            # match s to j, then trace back from s to a single vertex
            while True:
                bs = inblossom[s]
                assert label[bs] == 1
                assert (labeledge[bs] is None and mate[blossombase[bs]] == -1) or (
                    labeledge[bs][0] == mate[blossombase[bs]])
                if bs >= nv:
                    augment_blossom(bs, s)
                mate[s] = j
                if labeledge[bs] is None:
                    break
                t = labeledge[bs][0]
                bt = inblossom[t]
                assert label[bt] == 2
                s, j = labeledge[bt]
                assert blossombase[bt] == t
                if bt >= nv:
                    augment_blossom(bt, j)
                mate[j] = s

    def verify_optimum():
        """Check the complementary slackness conditions of a perfect
        matching on the final duals (vertex duals are free in sign); raise
        AssertionError, under python -O too, when one fails."""
        if blossomdual and min(blossomdual.values()) < 0:
            raise AssertionError("a blossom dual is negative")
        # every edge has non-negative slack and every matched edge zero
        for i in range(nv):
            for j, w2 in zip(ids[i], weights[i]):
                if j < i:
                    continue
                s = dualvar[i] + dualvar[j] - w2
                iblossoms = [i]
                jblossoms = [j]
                while blossomparent[iblossoms[-1]] != -1:
                    iblossoms.append(blossomparent[iblossoms[-1]])
                while blossomparent[jblossoms[-1]] != -1:
                    jblossoms.append(blossomparent[jblossoms[-1]])
                iblossoms.reverse()
                jblossoms.reverse()
                for bi, bj in zip(iblossoms, jblossoms):
                    if bi != bj:
                        break
                    s += 2 * blossomdual[bi]
                if s < 0:
                    raise AssertionError(f"edge ({i}, {j}) has negative slack")
                if (mate[i] == j or mate[j] == i) and (s, mate[i], mate[j]) != (0, j, i):
                    raise AssertionError(f"matched edge ({i}, {j}) is not tight")
        # every blossom with positive dual is full
        for b, z in blossomdual.items():
            if z > 0 and (len(bedges[b]) % 2 == 0 or any(
                    mate[i] != j or mate[j] != i for i, j in bedges[b][1::2])):
                raise AssertionError(f"blossom {b} has a positive dual but is not full")

    # Each stage finds an augmenting path and improves the matching.
    while True:
        singles = [v for v in singles if mate[v] == -1]
        if not singles:
            break
        label = [0] * (2 * nv)
        labeledge = [None] * (2 * nv)
        bestedge = [None] * (2 * nv)
        for b in blossomdual:
            mybestedges[b] = None
        # edges allowable so far need not stay allowable once labels go
        allowed.clear()
        queue.clear()
        # the vertices ever labelled, or given a bestedge, in this stage
        is_labeled = [False] * nv
        labeled_vertices = []
        has_bestedge = [False] * nv
        bestedge_vertices = []
        # label single blossoms/vertices S
        for v in singles:
            if label[inblossom[v]] == 0:
                assign_label(v, 1, -1)

        augmented = False
        while True:
            # Each substage labels what alternating paths reach; without an
            # augmenting path, the duals absorb some slack.
            while queue and not augmented:
                v = queue.pop()
                assert label[inblossom[v]] == 1
                bv = inblossom[v]
                dv = dualvar[v]
                vkey = v * nv
                # the slack of bestedge[bv]; duals are fixed while scanning
                e = bestedge[bv]
                bv_slack = None if e is None else slack(e)
                for w, w2 in zip(ids[v], weights[v]):
                    bw = inblossom[w]
                    if bv == bw:
                        # internal to a blossom
                        continue
                    if vkey + w not in allowed:
                        kslack = dv + dualvar[w] - w2
                        if kslack > 0:
                            if label[bw] == 1:
                                # least-slack non-allowable edge to another
                                # S-blossom
                                if bv_slack is None or kslack < bv_slack:
                                    bestedge[bv] = (v, w, w2)
                                    bv_slack = kslack
                                    if bv == v and not has_bestedge[v]:
                                        has_bestedge[v] = True
                                        bestedge_vertices.append(v)
                            elif label[w] == 0:
                                # least-slack edge to a free vertex (or an
                                # unreached vertex inside a T-blossom)
                                e = bestedge[w]
                                if e is None or kslack < dualvar[e[0]] + dualvar[e[1]] - e[2]:
                                    bestedge[w] = (v, w, w2)
                                    if not has_bestedge[w]:
                                        has_bestedge[w] = True
                                        bestedge_vertices.append(w)
                            continue
                        # zero slack: allowable
                        allowed.add(vkey + w)
                        allowed.add(w * nv + v)
                    if label[bw] == 0:
                        # (C1) w is free: w gets T, its mate S (R12)
                        assign_label(w, 2, v)
                    elif label[bw] == 1:
                        # (C2) w is an S-vertex in another blossom: a new
                        # blossom or an augmenting path
                        base = scan_blossom(v, w)
                        if base != -1:
                            add_blossom(base, v, w)
                            bv = inblossom[v]
                            e = bestedge[bv]
                            bv_slack = None if e is None else slack(e)
                        else:
                            augment_matching(v, w)
                            augmented = True
                            break
                    elif label[w] == 0:
                        # w is inside a T-blossom and not yet reached from
                        # outside it: mark it reached, for relabelling when
                        # the blossom expands
                        assert label[bw] == 2
                        label[w] = 2
                        labeledge[w] = (v, w)

            if augmented:
                break

            # No augmenting path under these constraints: compute delta
            # (duals and slacks are doubled) and reduce the slack.
            deltatype = -1
            delta = deltaedge = deltablossom = None

            # networkx scans for each delta the vertices in increasing order,
            # then the blossoms in creation order, and keeps the first strict
            # minimum; only vertices with a bestedge can count, so one pass
            # over them takes the least (d, v) of delta2 and of delta3.
            best2 = best3 = None
            for v in bestedge_vertices:
                e = bestedge[v]
                if e is None:
                    continue
                if label[inblossom[v]] == 0:
                    # delta2: an edge from an S-vertex to free vertex v
                    d = slack(e)
                    if best2 is None or d < d2 or (d == d2 and v < v2):
                        best2, d2, v2 = e, d, v
                elif blossomparent[v] == -1 and label[v] == 1:
                    # delta3: half the slack of an edge between S-blossoms
                    d = half_slack(e)
                    if best3 is None or d < d3 or (d == d3 and v < v3):
                        best3, d3, v3 = e, d, v
            if best2 is not None:
                delta = d2
                deltatype = 2
                deltaedge = best2
            if best3 is not None and (deltatype == -1 or d3 < delta):
                delta = d3
                deltatype = 3
                deltaedge = best3
            for b in blossomdual:
                if (blossomparent[b] == -1 and label[b] == 1
                        and bestedge[b] is not None):
                    d = half_slack(bestedge[b])
                    if deltatype == -1 or d < delta:
                        delta = d
                        deltatype = 3
                        deltaedge = bestedge[b]

            # delta4: least z of a T-blossom
            for b, z in blossomdual.items():
                if (blossomparent[b] == -1 and label[b] == 2
                        and (deltatype == -1 or z < delta)):
                    delta = z
                    deltatype = 4
                    deltablossom = b

            if deltatype == -1:
                # no augmenting path: the matching has maximum cardinality
                # and leaves a vertex single
                return None, None

            for v in labeled_vertices:
                lab = label[inblossom[v]]
                if lab == 1:
                    dualvar[v] -= delta
                elif lab == 2:
                    dualvar[v] += delta
            for b in blossomdual:
                if blossomparent[b] == -1:
                    if label[b] == 1:
                        blossomdual[b] += delta
                    elif label[b] == 2:
                        blossomdual[b] -= delta

            if deltatype in (2, 3):
                # continue the search from the least-slack edge
                v, w, _w2 = deltaedge
                assert label[inblossom[v]] == 1
                allowed.add(v * nv + w)
                allowed.add(w * nv + v)
                queue.append(v)
            else:
                expand_blossom(deltablossom, False)

        for v in range(nv):
            assert mate[v] == -1 or mate[mate[v]] == v

        # end of a stage: expand every S-blossom with zero dual
        for b in list(blossomdual):
            if b not in blossomdual:
                continue  # already expanded
            if blossomparent[b] == -1 and label[b] == 1 and blossomdual[b] == 0:
                expand_blossom(b, True)

    return mate, verify_optimum


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
