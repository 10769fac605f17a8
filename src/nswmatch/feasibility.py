"""Polynomial-time test for existence of a nonzero-Nash matching.

The binarized instance admits a matching with all-positive utilities iff
every worker can be placed at a firm it values while every firm holds at
least one worker it values; a firm may absorb further workers it does not
value (those leave its utility untouched and keep the workers' utilities
positive).  The test grows a bipartite b-matching greedily and finishes it
by augmenting paths (Hopcroft and Karp 1973), in two stages.

Seats.  Each firm needs a seat holder: a worker that values the firm and
that the firm values back.  Each worker, in increasing order, takes the
first free seat among the firms that value it back; then each empty seat
roots one BFS over firm -> a worker of that kind -> the firm whose seat
the worker holds, to a worker without a seat, and the seats shift along
the path.  A seat no path reaches stays empty whatever the others do
(Berge), so the answer is no.

Placement.  Each worker left without a seat takes the first firm it values
that has room; each worker still unplaced roots one BFS for a chain of
displacements that ends at a firm with room.  The BFS reads its arcs from
the per-worker lists of valued firms and the per-firm member lists.  A
firm has two states: *own*, where a worker it values back arrives and from
which any member it values back may be displaced, and *open*, where any
other worker arrives and from which a member it does not value may be
displaced, or one it does value while it holds two such members.  *own*
also reaches *open*.  So no path takes a firm's last worker it values, and
the seats stay filled (Mendelsohn and Dulmage 1958).  These are the arcs
of the residual graph of the flow network

    source -> worker       1
    worker -> own_f        1        the worker and firm f value each other
    worker -> open_f       1        only the worker values f
    own_f  -> sink         min(1, c_f)   f's seat
    own_f  -> open_f       m
    open_f -> sink         c_f - 1

with the seats' flow in place.  A worker no path places proves the
maximum flow short of m, and the answer is no: the source, the workers
and the firm states the failed search reached are the source side of a
cut of capacity below m.
"""

from __future__ import annotations

from itertools import compress

from .core import Instance, Matching


def exists_nonzero_nash(inst: Instance) -> tuple[bool, Matching | None]:
    """True iff some matching gives every agent positive utility; on True a
    witness matching is returned."""
    m, n = inst.m, inst.n
    caps = inst.capacities
    if m < n or not all(caps):
        return False, None
    firm_vals = inst.firm_vals
    # valued[w]: the firms w values, increasing; back[w]: whether each one
    # values w back, in the same order, the only reads of firm_vals
    valued = inst.valued_firms
    back = [[firm_vals[f][w] > 0 for f in fs] for w, fs in enumerate(valued)]

    seat = [-1] * n  # seat[f]: the worker in f's seat
    place = [-1] * m  # place[w]: w's firm
    empty = n
    for w in range(m):
        for f in compress(valued[w], back[w]):
            if seat[f] == -1:
                seat[f], place[w] = w, f
                empty -= 1
                break
        if not empty:
            break
    if empty and not _fill_seats(valued, back, seat, place):
        return False, None

    members = [[w] for w in seat]
    at_mutual = [False] * m  # at_mutual[w]: w's firm values w
    for w in seat:
        at_mutual[w] = True
    unplaced = []
    for w in range(m):
        if place[w] != -1:
            continue
        for f, b in zip(valued[w], back[w]):
            if len(members[f]) < caps[f]:
                place[w] = f
                members[f].append(w)
                at_mutual[w] = b
                break
        else:
            unplaced.append(w)

    for root in unplaced:
        end = _displacement_path(root, valued, back, caps, place, members, at_mutual)
        if end is None:
            return False, None
        via, x, f, b = end
        while x != -1:
            g = place[x]
            if g != -1:
                members[g].remove(x)
            place[x], at_mutual[x] = f, b
            members[f].append(x)
            (x, b), f = via[x], g
    return True, Matching.of(place)


def _fill_seats(valued, back, seat, place) -> bool:
    """Fills each empty seat, in firm order, by one BFS for an augmenting
    path of mutually valued pairs; False when one stays empty."""
    # takers[f]: the workers that value f and that f values, increasing
    takers: list[list[int]] = [[] for _ in seat]
    for w, (fs, bs) in enumerate(zip(valued, back)):
        for f in compress(fs, bs):
            takers[f].append(w)
    for root in range(len(seat)):
        if seat[root] != -1:
            continue
        moves_to: dict[int, int] = {}  # moves_to[w]: the firm whose seat w takes
        queue = [root]
        for f in queue:
            for w in takers[f]:
                if w in moves_to:
                    continue
                moves_to[w] = f
                if place[w] == -1:
                    break
                queue.append(place[w])
            else:
                continue
            break
        else:
            return False
        while w != -1:
            f = moves_to[w]
            seat[f], place[w], w = w, f, seat[f]
    return True


def _displacement_path(root, valued, back, caps, place, members, at_mutual):
    """BFS from the unplaced worker root: (via, x, f, b) when worker x can
    move to firm f, which has room, b telling whether f values x; via[y] is
    (x', b') for the worker x' that takes y's place on the path and
    whether y's firm values x'.  None when no path exists.

    A firm is reached either whole, when a worker it values arrives or it
    holds two members it values, or all but its one valued member; the
    second can later turn into the first."""
    via = {root: (-1, False)}
    whole: dict[int, bool] = {}  # whole[f]: every member of f is displaceable
    queue = [root]
    for x in queue:
        here = place[x]
        for f, b in zip(valued[x], back[x]):
            if f == here:
                continue
            if len(members[f]) < caps[f]:
                return via, x, f, b
            seen = whole.get(f)
            if seen or (seen is False and not b):
                continue
            every = b or sum(map(at_mutual.__getitem__, members[f])) > 1
            whole[f] = every
            arrival = (x, b)
            for y in members[f]:
                if y not in via and (every or not at_mutual[y]):
                    via[y] = arrival
                    queue.append(y)
    return None
