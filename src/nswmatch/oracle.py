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


def solve_bruteforce_exact_loads(
    inst: Instance, loads: tuple[int, ...]
) -> tuple[Matching, NashValue] | None:
    """Best matching among those assigning exactly loads[f] workers to each
    firm, every worker matched; None when no such matching has a positive
    Nash product.  Reference for the fixed-demand solvers."""
    m, n = inst.m, inst.n
    if sum(loads) != m:
        return None
    remaining = list(loads)
    assignment: list = [UNMATCHED] * m
    state = {"best_product": 0, "best": None}

    def search(w: int, worker_prod: int):
        if w == m:
            product = worker_prod
            for f in range(n):
                s = sum(inst.firm_vals[f][wi] for wi, g in enumerate(assignment) if g == f)
                product *= s
            if product > state["best_product"]:
                state["best_product"] = product
                state["best"] = list(assignment)
            return
        for f in range(n):
            v = inst.worker_vals[w][f]
            if v > 0 and remaining[f] > 0:
                remaining[f] -= 1
                assignment[w] = f
                search(w + 1, worker_prod * v)
                assignment[w] = UNMATCHED
                remaining[f] += 1

    search(0, 1)
    if state["best"] is None:
        return None
    best = Matching.of(state["best"])
    return best, nash_value(inst, best)


def exists_nonzero_bruteforce(inst: Instance) -> tuple[bool, Matching | None]:
    """True iff some feasible matching has positive Nash product, with a
    witness.  Stops at the first positive leaf."""
    m, n = inst.m, inst.n
    slack = list(inst.capacities)
    assignment: list = [UNMATCHED] * m

    def search(w: int) -> bool:
        if w == m:
            for f in range(n):
                if not any(inst.firm_vals[f][wi] > 0 for wi, g in enumerate(assignment) if g == f):
                    return False
            return True
        for f in range(n):
            if inst.worker_vals[w][f] > 0 and slack[f] > 0:
                slack[f] -= 1
                assignment[w] = f
                if search(w + 1):
                    return True
                assignment[w] = UNMATCHED
                slack[f] += 1
        return False

    if search(0):
        return True, Matching.of(assignment)
    return False, None
