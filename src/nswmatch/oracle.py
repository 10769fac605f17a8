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
s_f and free places slack_f, the subtree is cut when every completion has
product zero or an exact integer upper bound on every completion is at most
the best product so far (Land and Doig 1960).  A cut subtree holds no
strictly better leaf, so cutting never changes the matching or product
returned.  A firm is growable when it has room and some worker u.. values
it and is valued by it in return, that is, when its last such worker is u
or later.

- Empty firms: a growable firm whose sum is 0 needs one of the m - u
  workers left, so the node is cut when there are more such firms.
- (a) per firm: P * W_u * prod_f (s_f + the sum of the slack_f largest
  positive values f gives to workers that value it, for a growable f),
  where W_u is the product of each worker u..'s largest value.  The sums
  come from one table of prefix sums per firm, built once per solve over
  all workers, placed ones included, so the bound is looser by the values
  of workers already placed.  A table has one entry more than the smaller
  of f's capacity and its number of such workers, and a slack past its end
  reads its last entry.
- (b) AM-GM over integers: let F' be the growable firms, k = |F'| and S
  their sum of s_f.  Each worker u.. adds to its firm's sum at most the
  largest value a firm it values gives it, so F' gains at most R_u, the sum
  of those.  The k final sums of F' are integers summing to at most
  T = S + R_u, so their product is at most the balanced split
  (q + 1)^r * q^(k - r), q, r = divmod(T, k), and the bound is
  P * W_u * prod_{f not in F'} s_f times that.  It cuts on 0/1 instances
  with slack capacities, where (a) cuts almost nothing, and is only
  evaluated where (a) does not cut.

All three are recomputed over all n firms at each node but a leaf, and a
complete matching is scored in the same loop.  The search is an
explicit-stack loop, so its depth is not bounded by Python's recursion
limit, and each firm's sum is kept up to date as the search goes down and
undone on backtrack.  The budget is charged for the nodes the search
enters (the zero completion, then every partial or complete assignment,
cut or not), 1 + n // FIRMS_PER_UNIT units each, since each costs O(n).
The budget is DEFAULT_NODE_BUDGET units, read at call time, unless the
caller passes its own.

Twins (symmetry breaking, Margot 2010): the workers fall into classes of
interchangeable workers, by default those with equal lists of options
(the same valued firms, with the same worker and firm value at each).  A
worker's twin is the latest earlier worker of its class, and a worker
whose twin sits at firm g tries only its options at firms g and later.
The first maximiser in the full order is the lexicographically least
maximising assignment; swapping the firms of two twins keeps a matching
feasible and its product unchanged, so that assignment already has each
class's firms non-decreasing and stays in the search, and the result is
the one the search without twins returns.  The bounds and the empty-firm
cut bound every completion, so they hold on the smaller tree as well.

exact.solve_exact_bucketing is this search with the default classes.
approx.qptas_bucketing passes its bucket-signature groups as the classes:
a group's workers share their valued firms, as bucket 0 is exactly value
0, and with their firms non-decreasing in index order each count vector of
a group (how many of its workers go to each firm) is searched once, in one
canonical realisation, and scored exactly.  Both run under the same
budget.  tests/reference_oracle.py holds the earlier exhaustive recursive
form, and tests/reference_bucketing.py plain searches over count vectors;
the solvers must agree with them.
"""

from __future__ import annotations

from bisect import bisect_left
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


# bounding or scoring a node walks all n firms, so a node is charged one
# budget unit plus one per this many firms, which keeps the time the budget
# takes to run out about the same as n grows
FIRMS_PER_UNIT = 8
DEFAULT_NODE_BUDGET = 2_000_000


@dataclass(frozen=True)
class OracleResult:
    best: Matching
    value: NashValue
    num_enumerated: int


def solve_bruteforce(inst: Instance, limit: Optional[int] = None,
                     stats: Optional[dict] = None,
                     groups: Optional[list] = None) -> OracleResult:
    """Exact maximizer of the Nash product over capacity-feasible matchings;
    ties go to the first complete matching in the search order.

    Each node the search enters costs 1 + n // FIRMS_PER_UNIT budget units,
    and num_enumerated is the units spent.  Raises BudgetExceededError when
    they would exceed `limit`, DEFAULT_NODE_BUDGET when None.  stats, when
    given, is filled with the nodes entered ("nodes"), the complete
    matchings scored ("leaves") and the subtrees cut for more empty firms
    than workers left ("empty_cuts"), by bound (a) ("firm_cuts") and by
    bound (b) ("amgm_cuts"), also when the budget is exceeded.

    groups, when given, partitions the workers into the twin classes, in
    place of the default classes of equal options, and the result is the
    best matching in which each class's firms are non-decreasing in worker
    order.  The workers of a group must value the same firms, so that each
    way of splitting a group's workers over the firms is searched.

    The best leaf's product is re-scored with nash_value, and a mismatch
    raises AssertionError, also under python -O.
    """
    if limit is None:
        limit = DEFAULT_NODE_BUDGET
    if stats is not None:
        stats.update(nodes=1, leaves=0, firm_cuts=0, amgm_cuts=0, empty_cuts=0)
    unit = 1 + inst.n // FIRMS_PER_UNIT
    # the zero-product completion at the root is the first node
    nodes, best_product, best = 1, 0, None
    if unit > limit:
        raise BudgetExceededError(f"oracle enumeration budget {limit} exceeded")
    # a complete matching needs room for every worker and a positive option
    # for each; without them the zero completion is the only node
    if sum(inst.capacities) >= inst.m and all(inst.valued_firms):
        nodes, best_product, best = _search(inst, limit, limit // unit, groups,
                                            {} if stats is None else stats)
    best = zero_fallback(inst) if best is None else Matching.of(best)
    value = nash_value(inst, best)
    if value.product != best_product:
        raise AssertionError(f"the best leaf re-scores to {value.product}, not {best_product}")
    return OracleResult(best, value, nodes * unit)


def _twins(options: list, groups: Optional[list]) -> list:
    """twins[w]: the latest earlier worker of w's class, -1 when none; the
    classes are groups, or else the workers with equal options."""
    if groups is None:
        keys: list = list(map(tuple, options))
    else:
        keys = [0] * len(options)
        for i, workers in enumerate(groups):
            for w in workers:
                keys[w] = i
    last: dict = {}
    twins = []
    for w, key in enumerate(keys):
        twins.append(last.get(key, -1))
        last[key] = w
    return twins


def _bound_tables(inst: Instance, options: list) -> tuple[list, list, list, list]:
    """The bounds' tables, built once per solve: worker_bound[u], the
    product of each worker u..'s largest value; rest[u], the sum over
    workers u.. of the largest value a firm the worker values gives it;
    tables[f], the prefix sums of the positive values f gives to workers
    that value it, largest first and at most capacities[f] of them; and
    lasts[f], the last such worker, -1 when there is none.  A table runs
    over all workers, so it has at most m + 1 entries whatever the
    capacities."""
    m, n = inst.m, inst.n
    worker_bound, rest = [1] * (m + 1), [0] * (m + 1)
    values: list = [[] for _ in range(n)]
    lasts = [-1] * n
    for w in range(m - 1, -1, -1):
        top_v = top_fv = 0
        for f, v, fv in options[w]:
            if v > top_v:
                top_v = v
            if fv:
                if fv > top_fv:
                    top_fv = fv
                values[f].append(fv)
                if lasts[f] < 0:
                    lasts[f] = w
        worker_bound[w] = worker_bound[w + 1] * top_v
        rest[w] = rest[w + 1] + top_fv
    tables = [list(accumulate(sorted(vals, reverse=True)[:c], initial=0))
              for vals, c in zip(values, inst.capacities)]
    return worker_bound, rest, tables, lasts


def _search(inst: Instance, limit: int, node_limit: int, groups: Optional[list],
            stats: dict) -> tuple[int, int, list | None]:
    """The search below the root: the nodes entered, the zero completion
    included, the largest positive product of a leaf (0 when none is
    positive) and the first assignment of it (None when none).  Raises
    BudgetExceededError, naming limit, past node_limit nodes, and fills
    stats as it returns or raises."""
    m = inst.m
    firm_vals = inst.firm_vals
    # each worker's positive options (firm, worker value, firm value), read
    # at the firms it values
    options = [[(f, row[f], firm_vals[f][w]) for f in firms]
               for w, (row, firms) in enumerate(zip(inst.worker_vals, inst.valued_firms))]
    worker_bound, rest, tables, lasts = _bound_tables(inst, options)
    twins = _twins(options, groups)
    valued_firms = inst.valued_firms
    slack = list(inst.capacities)
    sums = [0] * inst.n
    assignment: list = [UNMATCHED] * m
    nodes, best_product, best = 1, 0, None
    leaves = firm_cuts = amgm_cuts = empty_cuts = 0
    try:
        # the node being expanded: its next worker w, the iterator over w's
        # options and the product of the values of workers 0..w-1
        w, it, worker_prod = 0, iter(options[0]), 1
        # per depth below w, the same for that depth's node
        stack: list = [None] * m
        while True:
            for f, v, fv in it:
                if slack[f]:
                    break
            else:
                w -= 1
                if w < 0:
                    return nodes, best_product, best
                f = assignment[w]
                slack[f] += 1
                sums[f] -= firm_vals[f][w]
                it, worker_prod = stack[w]
                continue
            nodes += 1
            if nodes > node_limit:
                raise BudgetExceededError(f"oracle enumeration budget {limit} exceeded")
            slack[f] -= 1
            sums[f] += fv
            u = w + 1
            child_prod = worker_prod * v
            if u == m:
                # a complete matching, scored in place
                leaves += 1
                for x in sums:
                    child_prod *= x
                if child_prod > best_product:
                    best_product, best = child_prod, assignment[:w] + [f]
            else:
                # (a)'s product of firm terms; (b)'s count k and sum S of the
                # growable firms and product of the others' sums; the
                # growable firms still empty
                firm_prod = fixed_prod = 1
                k = total = empty = 0
                for t, last, s, x in zip(tables, lasts, slack, sums):
                    if s and last >= u:
                        firm_prod *= x + t[s if s < len(t) else -1]
                        k += 1
                        total += x
                        empty += not x
                    else:
                        firm_prod *= x
                        fixed_prod *= x
                base = child_prod * worker_bound[u]
                # each empty firm needs one of the m - u workers left
                if empty > m - u:
                    empty_cuts += 1
                # (a): each firm at its sum plus its slack largest values
                elif base * firm_prod <= best_product:
                    firm_cuts += 1
                else:
                    # (b): the growable firms' balanced split of all they can gain
                    q, r = divmod(total + rest[u], k) if k else (1, 0)
                    if base * fixed_prod * (q + 1) ** r * q ** (k - r) <= best_product:
                        amgm_cuts += 1
                    else:
                        assignment[w] = f
                        stack[w] = (it, worker_prod)
                        opts = options[u]
                        t = twins[u]
                        if t >= 0:
                            # only the options at the twin's firm and later
                            opts = opts[bisect_left(valued_firms[u], assignment[t]):]
                        w, it, worker_prod = u, iter(opts), child_prod
                        continue
            slack[f] += 1
            sums[f] -= fv
    finally:
        stats.update(nodes=nodes, leaves=leaves, firm_cuts=firm_cuts,
                     amgm_cuts=amgm_cuts, empty_cuts=empty_cuts)
