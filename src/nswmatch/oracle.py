"""Exact reference solver: a depth-first branch and bound.

This is the ground truth for the test suite, not a scalable solver, and it
takes no incumbent from another solver.  The search assigns workers in
index order, each to its positively valued firms in index order.  Its first
node closes a zero-product completion, every worker unmatched: any branch
whose partial product is zero scores zero, so expanding it cannot change
the optimum.  A complete matching replaces the best so far only when its
product is strictly larger, so the matching returned is the first maximiser
in this order, as in exhaustive enumeration.

At a node whose workers 0..u-1 are placed, with worker product P, firm sums
s_f and free places slack_f, two exact integer upper bounds on every
completion are checked, and the subtree is cut when one is at most the
best product so far (Land and Doig 1960).  A cut subtree holds no strictly
better leaf, so cutting never changes the matching or product returned.

- (a) per firm: P * W_u * prod_f (s_f + the sum of the slack_f largest
  values f gives to workers u.. that value f), where W_u is the product of
  each worker u..'s largest value.  The sums come from per-firm suffix
  tables built once per solve; for a slack of EXACT_SLACK or more they
  hold the sum of all such values (at most capacity many), which keeps
  each table to EXACT_SLACK + 1 entries.
- (b) AM-GM over integers: let F' be the firms with room that some worker
  u.. values and that value such a worker positively, k = |F'| and S their
  sum of s_f.  Each worker u.. adds to its firm's sum at most the largest
  value a firm it values gives it, so F' gains at most R_u, the sum of
  those.  The k final sums of F' are integers summing to at most
  T = S + R_u, so their product is at most the balanced split
  (q + 1)^r * q^(k - r), q, r = divmod(T, k), and the bound is
  P * W_u * prod_{f not in F'} s_f times that.  It cuts on 0/1 instances
  with slack capacities, where (a) cuts almost nothing, and is only
  evaluated where (a) does not cut.

Both bounds are recomputed over all n firms at each node, and the last
worker's options are scored in one loop without a bound.  The search is an
explicit-stack loop, so its depth is not bounded by Python's recursion
limit, and each firm's sum is kept up to date as the search goes down and
undone on backtrack.  The budget is charged for the nodes the search
enters (the zero completion, then every partial or complete assignment,
cut or not), 1 + n // FIRMS_PER_UNIT units each, since each costs O(n).
tests/reference_oracle.py holds the earlier exhaustive
recursive form; the two must agree on matching and product.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional

from .core import (
    BudgetExceededError,
    Instance,
    Matching,
    NashValue,
    UNMATCHED,
    nash_value,
    zero_fallback,
)


# bound (a) sums a firm's largest values to come exactly for slacks below
# this, and by their total at or above it, to keep its tables small
EXACT_SLACK = 16

# bounding or scoring a node walks all n firms, so a node is charged one
# budget unit plus one per this many firms, which keeps the time the budget
# takes to run out about the same as n grows
FIRMS_PER_UNIT = 8


@dataclass(frozen=True)
class OracleResult:
    best: Matching
    value: NashValue
    num_enumerated: int


def solve_bruteforce(inst: Instance, limit: int = 2_000_000,
                     stats: Optional[dict] = None) -> OracleResult:
    """Exact maximizer of the Nash product over capacity-feasible matchings;
    ties go to the first complete matching in the search order.

    Each node the search enters costs 1 + n // FIRMS_PER_UNIT budget units,
    and num_enumerated is the units spent.  Raises BudgetExceededError when
    they would exceed `limit`.  stats, when given, is filled with the nodes
    entered ("nodes"), the complete matchings scored ("leaves") and the subtrees
    cut by bound (a) ("firm_cuts") and by bound (b) ("amgm_cuts"), also
    when the budget is exceeded.
    """
    if stats is not None:
        stats.update(nodes=1, leaves=0, firm_cuts=0, amgm_cuts=0)
    unit = 1 + inst.n // FIRMS_PER_UNIT
    # the zero-product completion at the root is the first node
    nodes, best = 1, None
    if unit > limit:
        raise BudgetExceededError(f"oracle enumeration budget {limit} exceeded")
    # a complete matching needs room for every worker and a positive option
    # for each; without them the zero completion is the only node
    if sum(inst.capacities) >= inst.m and all(inst.valued_firms):
        nodes, best = _search(inst, limit, limit // unit, {} if stats is None else stats)
    best = zero_fallback(inst) if best is None else Matching.of(best)
    return OracleResult(best, nash_value(inst, best), nodes * unit)


def _bound_tables(inst: Instance, options: list) -> tuple[list, list, list]:
    """Suffix tables for the bounds at a node whose next worker is u:
    worker_bound[u], the product of each worker u..'s largest value;
    rest[u], the sum over workers u.. of the largest value a firm the
    worker values gives it; tops[u][f], None when f has no room or gives
    no worker u.. that values it a positive value, else indexed by f's slack s clamped
    to EXACT_SLACK: the sum of f's s largest such values, at most
    capacities[f] of them, and at EXACT_SLACK the sum of all of those,
    which is at least that of any larger slack's.  So a table has at most
    EXACT_SLACK + 1 entries whatever the capacities.  The search bounds
    nodes with u >= 1 only, so u = 0 is left out."""
    m, n = inst.m, inst.n
    room = inst.capacities
    width = [min(c, EXACT_SLACK) + 1 for c in room]
    worker_bound, rest = [1] * (m + 1), [0] * (m + 1)
    tops: list = [None] * m
    pools: list = [[] for _ in range(n)]
    totals = [0] * n
    row = [None] * n
    for w in range(m - 1, 0, -1):
        top_v = top_fv = 0
        fresh = False
        for f, v, fv in options[w]:
            if v > top_v:
                top_v = v
            if fv:
                if fv > top_fv:
                    top_fv = fv
                pool = pools[f]
                # f's table changes only where fv enters its largest values;
                # the row of w + 1 is copied on w's first change and shared
                # where there is none
                if len(pool) < room[f] or pool and fv > pool[0]:
                    if not fresh:
                        row, fresh = row.copy(), True
                    insort(pool, fv)
                    totals[f] += fv
                    if len(pool) > room[f]:
                        totals[f] -= pool.pop(0)
                    table = list(accumulate(reversed(pool[-EXACT_SLACK:]), initial=0))
                    del table[width[f] - 1:]
                    row[f] = table + [totals[f]] * (width[f] - len(table))
        worker_bound[w] = worker_bound[w + 1] * top_v
        rest[w] = rest[w + 1] + top_fv
        tops[w] = row
    return worker_bound, rest, tops


def _search(inst: Instance, limit: int, node_limit: int,
            stats: dict) -> tuple[int, list | None]:
    """The search below the root: the nodes entered, the zero completion
    included, and the first assignment of largest positive product (None
    when no leaf is positive).  Raises BudgetExceededError, naming limit,
    past node_limit nodes, and fills stats as it returns or raises."""
    m, n = inst.m, inst.n
    firm_vals = inst.firm_vals
    # each worker's positive options (firm, worker value, firm value), read
    # at the firms it values
    options = [[(f, row[f], firm_vals[f][w]) for f in firms]
               for w, (row, firms) in enumerate(zip(inst.worker_vals, inst.valued_firms))]
    worker_bound, rest, tops = _bound_tables(inst, options)
    slack = list(inst.capacities)
    sums = [0] * n
    assignment: list = [UNMATCHED] * m
    last = m - 1
    last_options = options[last]
    nodes, partial, firm_cuts, amgm_cuts = 1, 0, 0, 0
    best_product, best = 0, None

    def score(worker_prod: int):
        # workers 0..last-1 are assigned: each option of the last one is a leaf
        nonlocal nodes, best_product, best
        for f, v, fv in last_options:
            if slack[f]:
                nodes += 1
                if nodes > node_limit:
                    raise BudgetExceededError(f"oracle enumeration budget {limit} exceeded")
                sums[f] += fv
                product = worker_prod * v
                for s in sums:
                    product *= s
                sums[f] -= fv
                if product > best_product:
                    best_product = product
                    best = assignment[:last] + [f]

    try:
        if last == 0:
            score(1)
            return nodes, best
        # the node being expanded: its next worker w, the iterator over w's
        # options and the product of the values of workers 0..w-1
        w, it, worker_prod = 0, iter(options[0]), 1
        # per depth below w, the same for that depth's node
        stack: list = [None] * last
        while True:
            for f, v, fv in it:
                if slack[f]:
                    break
            else:
                w -= 1
                if w < 0:
                    return nodes, best
                f = assignment[w]
                slack[f] += 1
                sums[f] -= firm_vals[f][w]
                it, worker_prod = stack[w]
                continue
            nodes += 1
            partial += 1
            if nodes > node_limit:
                raise BudgetExceededError(f"oracle enumeration budget {limit} exceeded")
            slack[f] -= 1
            sums[f] += fv
            u = w + 1
            child_prod = worker_prod * v
            if u == last:
                assignment[w] = f
                score(child_prod)
            else:
                # (a)'s product of firm terms; (b)'s count k and sum S of the
                # growable firms and product of the others' sums
                firm_prod = fixed_prod = 1
                k = total = 0
                for t, s, x in zip(tops[u], slack, sums):
                    if s and t:
                        firm_prod *= x + t[s if s < EXACT_SLACK else EXACT_SLACK]
                        k += 1
                        total += x
                    else:
                        firm_prod *= x
                        fixed_prod *= x
                base = child_prod * worker_bound[u]
                # (a): each firm at its sum plus its slack largest values to come
                if base * firm_prod <= best_product:
                    firm_cuts += 1
                else:
                    # (b): the growable firms' balanced split of all they can gain
                    q, r = divmod(total + rest[u], k) if k else (1, 0)
                    if base * fixed_prod * (q + 1) ** r * q ** (k - r) <= best_product:
                        amgm_cuts += 1
                    else:
                        assignment[w] = f
                        stack[w] = (it, worker_prod)
                        w, it, worker_prod = u, iter(options[u]), child_prod
                        continue
            slack[f] += 1
            sums[f] -= fv
    finally:
        stats.update(nodes=nodes, leaves=nodes - 1 - partial,
                     firm_cuts=firm_cuts, amgm_cuts=amgm_cuts)
