"""Plain searches over the count vectors of signature groups.

`plain_buckets` groups workers by exact signature in first-seen order and
splits count vectors per group; `plain_qptas` groups them by bucket
signature in sorted order and walks each group's workers.  Each scores
every guess, so they are the independent check of `buckets` and `qptas`,
whose answers must have the same products and domain errors.  Among tied
guesses they return the first in increasing lexicographic order of the
count vectors, which the solvers need not match.
"""

from __future__ import annotations

import math

from nswmatch.approx import parse_eps
from nswmatch.core import (
    BudgetExceededError,
    DomainError,
    Instance,
    Matching,
    NashValue,
    UNMATCHED,
    nash_value,
    zero_result,
)
from reference_dp import level


def _worker_types(inst: Instance) -> tuple[list[tuple], dict[tuple, list[int]]]:
    """Group workers by their full valuation signature; workers with the
    same signature are interchangeable in any matching."""
    groups: dict[tuple, list[int]] = {}
    for w in range(inst.m):
        sig = tuple((inst.worker_vals[w][f], inst.firm_vals[f][w]) for f in range(inst.n))
        groups.setdefault(sig, []).append(w)
    return list(groups.keys()), groups


def plain_buckets(
    inst: Instance,
    max_firms: int = 5,
    max_distinct_values: int = 8,
    guess_budget: int = 5_000_000,
) -> tuple[Matching, NashValue]:
    """Nash-optimal matching for constant firms and few distinct values.

    Workers are grouped per firm by their exact (worker-value, firm-value)
    pair; the algorithm guesses how many workers of each group go to each
    firm.  Guessing per signature group (a refinement of per-firm value
    buckets) makes every guess realizable by construction and loses no
    optima, since same-signature workers are interchangeable.
    """
    if inst.n > max_firms:
        raise DomainError(f"n={inst.n} exceeds firm bound {max_firms}")
    distinct = {v for row in inst.worker_vals for v in row}
    distinct |= {v for row in inst.firm_vals for v in row}
    if len(distinct) > max_distinct_values:
        raise DomainError(
            f"{len(distinct)} distinct valuation levels exceed bound {max_distinct_values}")

    sigs, groups = _worker_types(inst)
    counts = [len(groups[sig]) for sig in sigs]
    # rough guess-space bound: distributions of each group across firms
    space = 1
    for c in counts:
        space *= math.comb(c + inst.n - 1, inst.n - 1)
        if space > guess_budget:
            raise BudgetExceededError("bucket guess space exceeds budget")

    n = inst.n
    caps = inst.capacities
    best = {"product": 0, "alloc": None}

    def place(t: int, loads: list[int], firm_sums: list[int], worker_prod: int,
              alloc: list[tuple[int, ...]]):
        if worker_prod == 0:
            return
        if t == len(sigs):
            product = worker_prod
            for s in firm_sums:
                product *= s
            if product > best["product"]:
                best["product"] = product
                best["alloc"] = [row for row in alloc]
            return
        sig = sigs[t]
        total = counts[t]

        def split(f: int, remaining: int, vec: list[int], prod: int):
            if prod == 0:
                return
            if f == n - 1:
                if loads[f] + remaining > caps[f]:
                    return
                wv, fv = sig[f]
                p = prod * (wv ** remaining)
                if p == 0 and remaining > 0:
                    return
                vec.append(remaining)
                loads[f] += remaining
                firm_sums[f] += fv * remaining
                alloc.append(tuple(vec))
                place(t + 1, loads, firm_sums, worker_prod * p, alloc)
                alloc.pop()
                firm_sums[f] -= fv * remaining
                loads[f] -= remaining
                vec.pop()
                return
            wv, fv = sig[f]
            for k in range(min(remaining, caps[f] - loads[f]) + 1):
                if k > 0 and wv == 0:
                    break
                vec.append(k)
                loads[f] += k
                firm_sums[f] += fv * k
                split(f + 1, remaining - k, vec, prod * (wv ** k))
                firm_sums[f] -= fv * k
                loads[f] -= k
                vec.pop()

        split(0, total, [], 1)

    place(0, [0] * n, [0] * n, 1, [])
    if best["alloc"] is None:
        return zero_result(inst)
    assignment: list = [UNMATCHED] * inst.m
    for sig, row in zip(sigs, best["alloc"]):
        workers = groups[sig]
        pos = 0
        for f, k in enumerate(row):
            for _ in range(k):
                assignment[workers[pos]] = f
                pos += 1
    mu = Matching.of(assignment)
    value = nash_value(inst, mu)
    assert value.product == best["product"]
    return mu, value


def plain_qptas(
    inst: Instance,
    eps,
    max_firms: int = 5,
    guess_budget: int = 5_000_000,
) -> tuple[Matching, NashValue]:
    """Bucketed guessing scheme; Nash welfare at least opt / (1 + eps).

    Workers are grouped by their per-firm bucket signature (worker-side and
    firm-side buckets of both valuations).  The search guesses how many
    workers of each group go to each firm.  Guessing per signature group is
    a refinement of guessing raw per-bucket count vectors and every guess is
    realizable by construction, so no flow check is needed.  Realized
    matchings are scored exactly and the best exact score wins; the
    optimum's own guess realizes within one bucket factor per agent, which
    gives the welfare guarantee.
    """
    eps = parse_eps(eps)
    if inst.n > max_firms:
        raise DomainError(f"n={inst.n} exceeds firm bound {max_firms}")
    m, n = inst.m, inst.n
    v_max = max(max(row, default=0) for row in inst.worker_vals + inst.firm_vals)
    num, den = eps.numerator + eps.denominator, eps.denominator
    # at most 100 000 levels, log(v_max) / log(1+eps), below v_max
    if v_max > 1 and math.log(v_max) > 100_000 * (math.log(num) - math.log(den)):
        raise BudgetExceededError("ladder exceeds budget of 100000 levels")
    # tau = ceil(log_{1+eps} v_max), at least 1
    if v_max <= 1:
        tau = 1
    else:
        k = level(v_max, eps)
        tau = max(1, k if v_max * den ** k == num ** k else k + 1)

    def bucket(value: int) -> int:
        """0 for value 0, else the i in [1, tau] with
        (1+eps)^(i-1) <= value < (1+eps)^i; the top bucket also takes the
        upper boundary."""
        return 0 if value == 0 else min(tau, level(value, eps) + 1)

    groups: dict[tuple, list[int]] = {}
    for w in range(m):
        sig = tuple((bucket(inst.worker_vals[w][f]), bucket(inst.firm_vals[f][w]))
                    for f in range(n))
        groups.setdefault(sig, []).append(w)
    sigs = sorted(groups)
    counts = [len(groups[sig]) for sig in sigs]
    space = 1
    for c in counts:
        space *= math.comb(c + n - 1, n - 1)
        if space > guess_budget:
            raise BudgetExceededError("bucket guess space exceeds budget")

    caps = inst.capacities
    best = {"product": 0, "assignment": None}
    assignment: list = [UNMATCHED] * m

    def place(t: int, loads: list[int], firm_sums: list[int], worker_prod: int):
        if t == len(sigs):
            product = worker_prod
            for s in firm_sums:
                product *= s
            if product > best["product"]:
                best["product"] = product
                best["assignment"] = list(assignment)
            return
        workers = groups[sigs[t]]

        def split(f: int, pos: int, prod: int):
            if f == n:
                if pos == len(workers):
                    place(t + 1, loads, firm_sums, prod)
                return
            split(f + 1, pos, prod)
            free = min(len(workers) - pos, caps[f] - loads[f])
            taken = []
            cur = prod
            for k in range(1, free + 1):
                w = workers[pos + k - 1]
                if inst.worker_vals[w][f] == 0:
                    break
                cur *= inst.worker_vals[w][f]
                assignment[w] = f
                loads[f] += 1
                firm_sums[f] += inst.firm_vals[f][w]
                taken.append(w)
                split(f + 1, pos + k, cur)
            for w in taken:
                assignment[w] = UNMATCHED
                loads[f] -= 1
                firm_sums[f] -= inst.firm_vals[f][w]

        split(0, 0, worker_prod)

    place(0, [0] * n, [0] * n, 1)
    if best["assignment"] is None:
        return zero_result(inst)
    mu = Matching.of(best["assignment"])
    value = nash_value(inst, mu)
    assert value.product == best["product"]
    return mu, value
