"""Exact Nash-optimal solvers.

- solve_capacity_one: reduction to max-weight bipartite matching.
- solve_dp / solve_dp_bounded_capacity: subset dynamic programming over
  worker bitmasks, with exact big-integer products.
- solve_exact_bucketing: constant-firms / few-distinct-values regime;
  enumerates assignments of worker-type counts to firms with
  _best_group_split, the count-split search approx.qptas_bucketing shares.
"""

from __future__ import annotations

import math

from .core import (
    BudgetExceededError,
    DomainError,
    Instance,
    Matching,
    NashValue,
    UNMATCHED,
    nash_value,
    zero_fallback,
)
from .graphalgs import InfeasibleError, WeightedGraph, max_weight_bipartite_matching

DEFAULT_DP_BUDGET = 20
DEFAULT_CAPACITY_BOUND = 4
DEFAULT_BUCKET_GUESS_BUDGET = 5_000_000


def _zero_result(inst: Instance) -> tuple[Matching, NashValue]:
    mu = zero_fallback(inst)
    return mu, NashValue.zero()


def solve_capacity_one(inst: Instance) -> tuple[Matching, NashValue]:
    """Nash-optimal matching when every firm has capacity 1.

    Max-weight bipartite matching on edges with positive mutual product,
    weight ln(v_wf * v_fw), saturating all workers.  If no saturating
    matching exists on positive edges, the optimum is zero.
    """
    if any(c != 1 for c in inst.capacities):
        raise DomainError("solve_capacity_one requires every capacity to be 1")
    m, n = inst.m, inst.n
    edges = []
    for w in range(m):
        for f in range(n):
            prod = inst.worker_vals[w][f] * inst.firm_vals[f][w]
            if prod > 0:
                edges.append((w, m + f, math.log(prod)))
    g = WeightedGraph.of(m + n, edges)
    try:
        pairs, _total = max_weight_bipartite_matching(g, m, n, require_left_saturated=True)
    except InfeasibleError:
        return _zero_result(inst)
    assignment: list = [UNMATCHED] * m
    for u, v in pairs:
        assignment[u] = v - m
    mu = Matching.of(assignment)
    return mu, nash_value(inst, mu)


def _bundle_tables(inst: Instance, f: int, full: int) -> list[int]:
    """W_f(S) for every bitmask S, via low-bit recurrences over the submasks
    of f's support; every other S is worth 0."""
    support = _support(inst, f)
    fv = inst.firm_vals[f]
    sums = [0] * (full + 1)
    prods = [1] * (full + 1)
    values = [0] * (full + 1)
    s = 0
    while s := (s - support) & support:
        low = (s & -s).bit_length() - 1
        rest = s & (s - 1)
        sums[s] = sums[rest] + fv[low]
        prods[s] = prods[rest] * inst.worker_vals[low][f]
        values[s] = sums[s] * prods[s]
    return values


def _support(inst: Instance, f: int) -> int:
    """Bitmask of the workers who value firm f positively."""
    return sum(1 << w for w in range(inst.m) if inst.worker_vals[w][f] > 0)


def _fitting_bundles(t: int, cap: int, popcount) -> list[int]:
    """Nonempty submasks of t with at most cap bits, in increasing order."""
    subs = []
    sub = 0
    # below cap, sub - t is sub + 1 counted on the bits of t; at cap, adding
    # sub's lowest bit skips the submasks in between, which all exceed cap
    while sub := (sub - t if popcount[sub] < cap else (sub | ~t) + (sub & -sub)) & t:
        subs.append(sub)
    return subs


def _layer_groups(inst: Instance, f: int, full: int, popcount):
    """The DP layer of firm f: yields (subs, masks) for each t inside f's
    support, where subs = _fitting_bundles(t), the only bundles of each mask
    S in masks (S & support == t) that f can value positively.  Every mask
    holds all workers whom no later firm values, as no other mask can be
    completed with a positive product; the last firm keeps only full."""
    support = _support(inst, f)
    later = sum(1 << w for w in range(inst.m) if any(inst.worker_vals[w][f + 1:]))
    fixed = full ^ later
    # a cap of m bits passes every submask
    tails = [(fixed & ~support) | r
             for r in [0] + _fitting_bundles(later & ~support, inst.m, popcount)]
    for x in [0] + _fitting_bundles(later & support, inst.m, popcount):
        t = (fixed & support) | x
        subs = _fitting_bundles(t, inst.capacities[f], popcount)
        if subs:
            yield subs, [t | r for r in tails]


def _dp_solve(inst: Instance) -> tuple[Matching, NashValue]:
    """The DP of solve_dp; ties go to the first S' in increasing order."""
    m, n = inst.m, inst.n
    full = (1 << m) - 1
    values = _bundle_tables(inst, 0, full)
    popcount = [s.bit_count() for s in range(full + 1)]
    c0 = inst.capacities[0]
    table = [values[s] if popcount[s] <= c0 else 0 for s in range(full + 1)]
    back: list[list[int]] = [[s if popcount[s] <= c0 else 0 for s in range(full + 1)]]
    for i in range(1, n):
        values = _bundle_tables(inst, i, full)
        new = [0] * (full + 1)
        ptr = [0] * (full + 1)
        for subs, masks in _layer_groups(inst, i, full, popcount):
            for s in masks:
                best = 0
                best_sub = 0
                for sub in subs:
                    cand = values[sub] * table[s ^ sub]
                    if cand > best:
                        best = cand
                        best_sub = sub
                new[s] = best
                ptr[s] = best_sub
        table = new
        back.append(ptr)
    if table[full] == 0:
        return _zero_result(inst)
    assignment: list = [UNMATCHED] * m
    s = full
    for i in range(n - 1, -1, -1):
        sub = back[i][s]
        for w in range(m):
            if sub >> w & 1:
                assignment[w] = i
        s ^= sub
    mu = Matching.of(assignment)
    return mu, nash_value(inst, mu)


def solve_dp(inst: Instance, budget: int = DEFAULT_DP_BUDGET) -> tuple[Matching, NashValue]:
    """Subset DP over worker bitmasks: T[i, S] = max over S' of
    W_{f_i}(S') * T[i-1, S \\ S'], enumerating only the bundles S' that
    fit c_i and that every member values positively."""
    if inst.m > budget:
        raise BudgetExceededError(f"m={inst.m} exceeds DP bitmask budget {budget}")
    return _dp_solve(inst)


def solve_dp_bounded_capacity(
    inst: Instance,
    capacity_bound: int = DEFAULT_CAPACITY_BOUND,
    budget: int = DEFAULT_DP_BUDGET,
) -> tuple[Matching, NashValue]:
    """solve_dp restricted to instances whose capacities are at most a
    constant bound."""
    if max(inst.capacities) > capacity_bound:
        raise DomainError(
            f"capacity {max(inst.capacities)} exceeds constant bound {capacity_bound}")
    if inst.m > budget:
        raise BudgetExceededError(f"m={inst.m} exceeds DP bitmask budget {budget}")
    return _dp_solve(inst)


def _best_group_split(
    inst: Instance, groups: list[list[int]], guess_budget: int
) -> tuple[Matching, NashValue]:
    """Best matching over all guesses of how many workers of each group go
    to each firm, with every worker matched.

    Per group, count vectors are tried in increasing lexicographic order,
    and firm f takes the group's next k workers; a firm stops taking at a
    worker who values it at 0.  Guesses are scored exactly and the first
    strict maximiser wins.
    """
    n = inst.n
    # distributions of each group across firms
    space = 1
    for workers in groups:
        space *= math.comb(len(workers) + n - 1, n - 1)
        if space > guess_budget:
            raise BudgetExceededError("bucket guess space exceeds budget")

    caps, worker_vals, firm_vals = inst.capacities, inst.worker_vals, inst.firm_vals
    loads = [0] * n
    firm_sums = [0] * n
    assignment: list = [UNMATCHED] * inst.m
    best_product = 0
    best = None

    def place(t: int, prod: int):
        nonlocal best_product, best
        if t == len(groups):
            for s in firm_sums:
                prod *= s
            if prod > best_product:
                best_product = prod
                best = list(assignment)
            return
        workers = groups[t]

        def split(f: int, pos: int, prod: int):
            left = len(workers) - pos
            free = min(left, caps[f] - loads[f])
            # the last firm takes every worker left, or the guess fails
            if f == n - 1 and free < left:
                return
            k = 0
            while True:
                if f < n - 1:
                    split(f + 1, pos + k, prod)
                elif k == left:
                    place(t + 1, prod)
                if k == free or worker_vals[workers[pos + k]][f] == 0:
                    break
                w = workers[pos + k]
                prod *= worker_vals[w][f]
                assignment[w] = f
                loads[f] += 1
                firm_sums[f] += firm_vals[f][w]
                k += 1
            for w in workers[pos:pos + k]:
                assignment[w] = UNMATCHED
                loads[f] -= 1
                firm_sums[f] -= firm_vals[f][w]

        split(0, 0, prod)

    place(0, 1)
    if best is None:
        return _zero_result(inst)
    mu = Matching.of(best)
    value = nash_value(inst, mu)
    assert value.product == best_product
    return mu, value


def solve_exact_bucketing(
    inst: Instance,
    max_firms: int = 5,
    max_distinct_values: int = 8,
    guess_budget: int = DEFAULT_BUCKET_GUESS_BUDGET,
) -> tuple[Matching, NashValue]:
    """Nash-optimal matching for constant firms and few distinct values.

    Workers are grouped by their exact (worker-value, firm-value) signature
    across all firms, and _best_group_split guesses how many workers of each
    group go to each firm.  Guessing per signature group (a refinement of
    per-firm value buckets) makes every guess realizable by construction and
    loses no optima, since same-signature workers are interchangeable.
    """
    if inst.n > max_firms:
        raise DomainError(f"n={inst.n} exceeds firm bound {max_firms}")
    distinct = {v for row in inst.worker_vals for v in row}
    distinct |= {v for row in inst.firm_vals for v in row}
    if len(distinct) > max_distinct_values:
        raise DomainError(
            f"{len(distinct)} distinct valuation levels exceed bound {max_distinct_values}")
    groups: dict[tuple, list[int]] = {}
    for w in range(inst.m):
        sig = tuple((inst.worker_vals[w][f], inst.firm_vals[f][w]) for f in range(inst.n))
        groups.setdefault(sig, []).append(w)
    return _best_group_split(inst, list(groups.values()), guess_budget)
