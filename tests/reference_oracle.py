"""Brute-force references for the oracle, the fixed-demand and feasibility
solvers and the rainbow generator.

solve_bruteforce is the oracle's earlier recursive form, kept unchanged: it
rebuilds every firm's sum at each leaf, and the iterative oracle must return
its matching, product and leaf count.  The others enumerate assignments
worker by worker, like the oracle; they answer narrower questions than the
oracle does (fixed per-firm loads, existence of a positive product) and are
only used to check solvers in the test suite.  find_rainbow_pm enumerates
one edge per color of a rainbow graph given as its colored edges.
"""

from __future__ import annotations

from itertools import product
from typing import Optional

from nswmatch.core import (
    BudgetExceededError,
    Instance,
    Matching,
    NashValue,
    UNMATCHED,
    nash_value,
    zero_fallback,
)
from nswmatch.oracle import OracleResult


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


def find_rainbow_pm(edges, r: int) -> Optional[tuple[int, ...]]:
    """Exhaustive search for a rainbow perfect matching among the colored
    edges (x, y, color) on r vertices a side and r colors: one edge per
    color, jointly a perfect matching of X against Y.  Returns edge indices."""
    by_color: list[list[int]] = [[] for _ in range(r)]
    for k, (_x, _y, c) in enumerate(edges):
        by_color[c].append(k)
    if any(not lst for lst in by_color):
        return None
    for choice in product(*by_color):
        xs = {edges[k][0] for k in choice}
        ys = {edges[k][1] for k in choice}
        if len(xs) == r and len(ys) == r:
            return tuple(choice)
    return None
