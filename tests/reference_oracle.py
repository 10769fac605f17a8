"""Brute-force references for the fixed-demand and feasibility solvers.

Like the oracle, these enumerate assignments worker by worker; they answer
narrower questions than the oracle does (fixed per-firm loads, existence of a
positive product) and are only used to check solvers in the test suite.
"""

from __future__ import annotations

from nswmatch.core import Instance, Matching, NashValue, UNMATCHED, nash_value


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
