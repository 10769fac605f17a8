"""Brute-force reference solver.

This is the ground truth for the test suite, not a scalable solver.  The
search assigns workers in index order, each to its positively valued firms
in index order.  Its first node closes a zero-product completion, every
worker unmatched: any branch whose partial product is zero scores zero, so
expanding it cannot change the optimum.  Every matching with positive
worker product is then enumerated explicitly.

The search is an explicit-stack loop, so its depth is not bounded by
Python's recursion limit.  Each firm's sum of its workers' values is kept
up to date as the search goes down and undone on backtrack, so a leaf costs
O(n), not an O(m) rescan of the assignment; the last worker's options are
scored in one loop without a further descent.  The budget counts the zero
completion and every complete matching with positive worker product, the
leaves of the recursive form in tests/reference_oracle.py, which rebuilds
the firm sums at each leaf; the two must agree on matching, product and
leaf count.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    BudgetExceededError,
    Instance,
    Matching,
    NashValue,
    UNMATCHED,
    nash_value,
    zero_fallback,
)


@dataclass(frozen=True)
class OracleResult:
    best: Matching
    value: NashValue
    num_enumerated: int


def solve_bruteforce(inst: Instance, limit: int = 2_000_000) -> OracleResult:
    """Exact maximizer of the Nash product over capacity-feasible matchings;
    ties go to the first complete matching enumerated.

    Raises BudgetExceededError when more than `limit` complete matchings
    would be examined.
    """
    # the zero-product completion at the root is the first leaf
    count, best = 1, None
    if count > limit:
        raise BudgetExceededError(f"oracle enumeration budget {limit} exceeded")
    # a complete matching needs room for every worker and a positive option
    # for each; without them the zero completion is the only leaf
    if sum(inst.capacities) >= inst.m and all(inst.valued_firms):
        count, best = _enumerate(inst, limit)
    best = zero_fallback(inst) if best is None else Matching.of(best)
    return OracleResult(best, nash_value(inst, best), count)


def _enumerate(inst: Instance, limit: int) -> tuple[int, list | None]:
    """The search below the root: the leaf count, the zero completion
    included, and the first assignment of largest positive product (None
    when no leaf is positive)."""
    m, n = inst.m, inst.n
    firm_vals = inst.firm_vals
    # each worker's positive options (firm, worker value, firm value), read
    # at the firms it values
    options = [[(f, row[f], firm_vals[f][w]) for f in firms]
               for w, (row, firms) in enumerate(zip(inst.worker_vals, inst.valued_firms))]
    slack = list(inst.capacities)
    sums = [0] * n
    assignment: list = [UNMATCHED] * m
    last = m - 1
    last_options = options[last]
    count, best_product, best = 1, 0, None

    def score(worker_prod: int):
        # workers 0..last-1 are assigned: each option of the last one is a leaf
        nonlocal count, best_product, best
        for f, v, fv in last_options:
            if slack[f]:
                count += 1
                if count > limit:
                    raise BudgetExceededError(f"oracle enumeration budget {limit} exceeded")
                sums[f] += fv
                product = worker_prod * v
                for s in sums:
                    product *= s
                sums[f] -= fv
                if product > best_product:
                    best_product = product
                    best = assignment[:last] + [f]

    if last == 0:
        score(1)
        return count, best
    # per depth below w: the option iterator and the worker product before
    # that depth's choice; assignment[w] is the choice itself
    iters: list = [None] * last
    prods = [1] * last
    w, it, worker_prod = 0, iter(options[0]), 1
    while True:
        for f, v, fv in it:
            if slack[f]:
                break
        else:
            w -= 1
            if w < 0:
                return count, best
            f = assignment[w]
            slack[f] += 1
            sums[f] -= firm_vals[f][w]
            it, worker_prod = iters[w], prods[w]
            continue
        slack[f] -= 1
        sums[f] += fv
        assignment[w] = f
        if w + 1 == last:
            score(worker_prod * v)
            slack[f] += 1
            sums[f] -= fv
        else:
            iters[w], prods[w] = it, worker_prod
            w += 1
            it, worker_prod = iter(options[w]), worker_prod * v
