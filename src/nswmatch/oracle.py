"""Brute-force reference solver.

This is the ground truth for the test suite, not a scalable solver.  The
search assigns workers in index order.  Branches whose partial product is
already zero are closed immediately with a zero-product completion: any
completion of such a branch scores zero, so expanding it cannot change the
optimum.  Every matching with positive Nash product is enumerated explicitly.
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
    """Exact maximizer of the Nash product over capacity-feasible matchings.

    Raises BudgetExceededError when more than `limit` complete matchings
    would be examined.
    """
    m, n = inst.m, inst.n
    slack = list(inst.capacities)
    assignment: list = [UNMATCHED] * m
    state = {"best_product": -1, "best": None, "count": 0}

    def close_leaf(product: int):
        state["count"] += 1
        if state["count"] > limit:
            raise BudgetExceededError(f"oracle enumeration budget {limit} exceeded")
        if product > state["best_product"]:
            state["best_product"] = product
            state["best"] = list(assignment)

    def search(w: int, worker_prod: int):
        if w == m:
            # workers all matched positively; add firm utilities
            firm_sums = [0] * n
            for wi, f in enumerate(assignment):
                firm_sums[f] += inst.firm_vals[f][wi]
            product = worker_prod
            for s in firm_sums:
                product *= s
            close_leaf(product)
            return
        # zero-product completion (worker unmatched or matched at value 0)
        if state["best_product"] < 0:
            close_leaf(0)
        for f in range(n):
            v = inst.worker_vals[w][f]
            if v > 0 and slack[f] > 0:
                slack[f] -= 1
                assignment[w] = f
                search(w + 1, worker_prod * v)
                assignment[w] = UNMATCHED
                slack[f] += 1

    search(0, 1)
    if state["best_product"] <= 0:
        best = zero_fallback(inst)
        return OracleResult(best, nash_value(inst, best), state["count"])
    best = Matching.of(state["best"])
    return OracleResult(best, nash_value(inst, best), state["count"])

