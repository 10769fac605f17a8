"""Polynomial-time test for existence of a nonzero-Nash matching.

The binarized instance admits a matching with all-positive utilities iff
every worker can be placed at a firm it values while every firm holds at
least one worker it values; a firm may absorb further workers it does not
value (those leave its utility untouched and keep the workers' utilities
positive).  That is a flow with lower bounds on the network

    source -> worker       1
    worker -> seat_f       1        the worker and firm f value each other
    worker -> rest_f       1        the worker values f
    seat_f -> sink         1        f's seat, which must be full
    rest_f -> sink         c_f - 1

(a worker in a mutual pair reaches rest_f directly, where a network with
an arc seat_f -> rest_f would route it through the seat; both have the
same flows).  The test finds it as a bipartite b-matching between workers
and the 2n slots: seat f (slot f) with room 1 and rest f (slot n + f) with
room c_f - 1.  A nonzero-Nash matching is exactly one that covers every
worker and every seat; worker w then sits at firm (slot mod n).  The
matching grows greedily and is finished by augmenting paths (Hopcroft and
Karp 1973), all found by one BFS, `_augment`, in two stages.

Seats.  Each worker, in increasing order, takes the first empty seat
among the firms it values that value it back.  Each seat still empty then
roots one search on the transposed graph, seats on the left and workers
with room 1 on the right.  A seat no path reaches stays empty whatever the
others do (Berge), so the answer is no.

Workers.  Each worker left without a seat takes the first rest slot with
room among the firms it values, and each worker still unplaced roots one
search.  A path from a worker only moves holders from slot to slot, so no
seat empties (Mendelsohn and Dulmage 1958).  A worker no path places
proves the maximum flow short of m, and the answer is no: the source, the
workers and the slots the failed search reached are the source side of a
cut of capacity below m.
"""

from __future__ import annotations

from .core import Instance, Matching


def exists_nonzero_nash(inst: Instance) -> Matching | None:
    """A matching that gives every agent positive utility, or None when
    none exists."""
    m, n = inst.m, inst.n
    caps = inst.capacities
    if m < n or not all(caps):
        return None
    firm_vals = inst.firm_vals
    valued = inst.valued_firms
    holder = [-1] * n  # holder[f]: the worker in f's seat
    at = [-1] * m  # at[w]: w's slot
    empty = n
    for w in range(m):
        for f in valued[w]:
            if holder[f] == -1 and firm_vals[f][w]:
                holder[f], at[w] = w, f
                empty -= 1
                break
        if not empty:
            break
    if empty:
        takers: list[list[int]] = [[] for _ in range(n)]
        for w, fs in enumerate(valued):
            for f in fs:
                if firm_vals[f][w]:
                    takers[f].append(w)
        held = [[] if f == -1 else [f] for f in at]  # held[w]: w's seat, if any
        room = [1] * m
        for f in range(n):
            if holder[f] == -1 and not _augment(f, takers.__getitem__, room, held, holder):
                return None
        at = [-1] * m
        for f, w in enumerate(holder):
            at[w] = f

    # built on each visit, not for every worker up front: the searches
    # visit few workers, and listing all m costs more than they do
    def slots(w):
        """w's slots in firm order, each seat just before its rest."""
        return [s for f in valued[w] for s in ((f, n + f) if firm_vals[f][w] else (n + f,))]

    members = [[w] for w in holder] + [[] for _ in range(n)]
    room = [1] * n + [c - 1 for c in caps]
    unplaced = []
    for w in range(m):
        if at[w] != -1:
            continue
        for s in map(n.__add__, valued[w]):
            if len(members[s]) < room[s]:
                at[w] = s
                members[s].append(w)
                break
        else:
            unplaced.append(w)
    for w in unplaced:
        if not _augment(w, slots, room, members, at):
            return None
    return Matching.of([s % n for s in at])


def _augment(root, adj, room, members, at) -> bool:
    """BFS from the unplaced left vertex root, over adj(x) (x's right
    vertices), members[s] (the left vertices at s, at most room[s]) and
    at[x] (x's right vertex, or -1), to a right vertex with room; moves
    each left vertex on the path one step along.  False when no path
    exists."""
    via = {root: -1}  # via[y]: the left vertex that takes y's place
    seen = set()
    queue = [root]
    for x in queue:
        for s in adj(x):
            if s in seen:
                continue
            seen.add(s)
            if len(members[s]) < room[s]:
                while x != -1:
                    t = at[x]
                    if t != -1:
                        members[t].remove(x)
                    at[x] = s
                    members[s].append(x)
                    x, s = via[x], t
                return True
            for y in members[s]:
                if y not in via:
                    via[y] = x
                    queue.append(y)
    return False
