"""Exact Nash-optimal solvers.

- solve_capacity_one: reduction to a max-product bipartite perfect
  matching of workers and firms, on adjacency lists gathered from one scan
  of each worker row.
- solve_dp: subset dynamic programming over worker bitmasks, with exact
  big-integer products.  Each layer visits only the mask and bundle sizes
  that a full partition can pass through, and the firms' supports come
  from one scan of each worker row.  Two registry entries in cli.SOLVERS
  are solve_dp behind a check: the constant-capacity variant dp2 behind
  DEFAULT_CAPACITY_BOUND, and fptas behind its eps alone, since the exact
  optimum meets the FPTAS's (1+eps)^(n+1) window for every eps; both run
  under DEFAULT_DP_BUDGET.
- solve_exact_bucketing: constant-firms / few-distinct-values regime;
  groups the workers by signature with _signature_groups and searches
  assignments of the groups' counts to firms with _best_group_split.
  approx.qptas_bucketing shares both and the firm bound, grouping by its
  buckets where this groups by the values themselves.
  That search is a branch and bound on an exact integer bound from suffix
  tables built once per solve in O(m*n); it drops only subtrees that cannot
  strictly beat the best guess so far, so it returns what scoring every
  guess returns.  Its bounds are DEFAULT_BUCKET_* and the search's
  DEFAULT_GUESS_BUDGET on the full guess space, checked before the search
  and read at call time.
"""

from __future__ import annotations

import math
from itertools import accumulate, compress
from operator import itemgetter, mul

from .core import (
    BudgetExceededError,
    DomainError,
    Instance,
    Matching,
    NashValue,
    UNMATCHED,
    nash_value,
    positive_entries,
    zero_result,
)
from .graphalgs import max_weight_perfect_matching_general

DEFAULT_DP_BUDGET = 20
DEFAULT_CAPACITY_BOUND = 4
DEFAULT_BUCKET_FIRM_BOUND = 5
DEFAULT_BUCKET_VALUE_BOUND = 8
DEFAULT_GUESS_BUDGET = 5_000_000


def solve_capacity_one(inst: Instance) -> tuple[Matching, NashValue]:
    """Nash-optimal matching when every firm has capacity 1.

    Max-product perfect matching of workers (left) and firms (right) on the
    edges with positive mutual product v_wf * v_fw.  With every capacity 1,
    a matching that is not perfect leaves some worker or firm at utility 0,
    so when none exists the optimum is zero; m != n returns that before any
    edge is built.
    """
    m, n = inst.m, inst.n
    if inst.capacities.count(1) != n:
        raise DomainError("solve_capacity_one requires every capacity to be 1")
    if m != n:
        return zero_result(inst)
    mate = max_weight_perfect_matching_general(
        *_positive_products(inst.worker_vals, inst.firm_vals), n)
    if mate is None:
        return zero_result(inst)
    mu = Matching.of(mate)
    return mu, nash_value(inst, mu)


def _positive_products(rows, cols) -> tuple[list, list]:
    """Adjacency lists of the rows' side of the capacity-one graph: for row
    r, the columns c with rows[r][c] * cols[c][r] > 0, and those products
    in the same order.  One C-level scan of the row finds its positive
    entries; one itemgetter then gathers the row's values and the columns'
    values at r."""
    index = tuple(range(len(cols)))
    ids = []
    weights = []
    for r, row in enumerate(rows):
        pos = tuple(compress(index, row))
        if len(pos) > 1:
            get = itemgetter(*pos)
            prods = list(map(mul, get(row), map(itemgetter(r), get(cols))))
        else:  # itemgetter of one index returns the item, not a tuple
            prods = [row[c] * cols[c][r] for c in pos]
        if 0 in prods:
            # the other side values this one 0: no edge
            ids.append(tuple(compress(pos, prods)))
            prods = list(filter(None, prods))
        else:
            ids.append(pos)
        weights.append(prods)
    return ids, weights


def _bundle_tables(inst: Instance, f: int, full: int, support: int) -> list[int]:
    """W_f(S) for every bitmask S, via low-bit recurrences over the submasks
    of support, the workers who value f; every other S is worth 0."""
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


def _sized_submasks(t: int, lo: int, hi: int, popcount) -> list[int]:
    """Submasks of t with lo..hi bits, in increasing order."""
    if hi < lo or hi < 0 or lo > popcount[t]:
        return []
    sub = 0
    # below lo, the least submask above sub with lo bits adds t's lowest free bits
    while popcount[sub] < lo:
        sub |= (free := t & ~sub) & -free
    subs = [sub]
    # below hi, sub - t is sub + 1 counted on the bits of t; at hi, adding sub's
    # lowest bit skips submasks that all exceed hi.  With lo <= 1 none needs filling.
    if lo <= 1:
        while sub := (sub - t if popcount[sub] < hi else (sub | ~t) + (sub & -sub)) & t:
            subs.append(sub)
        return subs
    while sub := (sub - t if popcount[sub] < hi else (sub | ~t) + (sub & -sub)) & t:
        while popcount[sub] < lo:
            sub |= (free := t & ~sub) & -free
        subs.append(sub)
    return subs


def _layer_groups(inst: Instance, f: int, full: int, popcount, support: int, later: int):
    """The DP layer of firm f: yields (subs, masks) for each t inside f's
    support and size k in the capacity window: the masks S of k bits with
    S & support == t, and the bundles of t that f can value and that leave
    the earlier firms at most their capacity.  Every mask holds all workers
    outside later, whom no later firm values, as no other can complete a
    positive product.  The sizes k <= before + 1 all take bundles of
    1..cap bits, so their masks form one group."""
    before, cap = sum(inst.capacities[:f]), inst.capacities[f]
    lo, hi = inst.m - sum(inst.capacities[f + 1:]), before + cap
    fixed = full ^ later
    rest = later & ~support
    # tails[j]: the masks outside the support with j bits of rest
    tails = [[] for _ in range(popcount[rest] + 1)]
    for r in _sized_submasks(rest, 0, inst.m, popcount):
        tails[popcount[r]].append((fixed & ~support) | r)
    for x in _sized_submasks(later & support, lo - popcount[fixed | rest],
                             hi - popcount[fixed], popcount):
        t = (fixed & support) | x
        k0 = popcount[fixed | x]
        k_lo, k_hi = max(lo, k0), min(hi, k0 + popcount[rest])
        if k_lo <= before:
            top = min(k_hi, before + 1)
            subs = _sized_submasks(t, 1, cap, popcount)
            if subs:
                yield subs, [t | r for k in range(k_lo, top + 1) for r in tails[k - k0]]
            k_lo = top + 1
        for k in range(k_lo, k_hi + 1):
            subs = _sized_submasks(t, k - before, cap, popcount)
            if subs:
                yield subs, [t | r for r in tails[k - k0]]


def solve_dp(inst: Instance) -> tuple[Matching, NashValue]:
    """Subset DP over worker bitmasks: T[i, S] = max over S' of
    W_{f_i}(S') * T[i-1, S \\ S'], over the bundles S' that every member
    values positively, at the sizes of S and S' a full partition can take;
    ties go to the first S' in increasing order.

    Layer i fills only masks of m - (c_{i+1} + ... + c_{n-1}) to c_0 + ...
    + c_i workers, the sizes a full partition passes through; a bundle it
    skips leads to a zero predecessor, so values and pointers are the same.
    With total capacity below m no full partition exists, and it returns
    the zero result before building any table."""
    if inst.m > DEFAULT_DP_BUDGET:
        raise BudgetExceededError(f"m={inst.m} exceeds DP bitmask budget {DEFAULT_DP_BUDGET}")
    m, n = inst.m, inst.n
    caps, slack = inst.capacities, sum(inst.capacities) - m
    if slack < 0:
        return zero_result(inst)
    full = (1 << m) - 1
    popcount = [s.bit_count() for s in range(full + 1)]
    # support[i]: the workers who value firm i; later[i]: those who value a
    # firm after i
    support = [0] * n
    for w, firms in enumerate(positive_entries(inst.worker_vals)):
        for f in firms:
            support[f] |= 1 << w
    later = [0] * n
    for i in range(n - 2, -1, -1):
        later[i] = later[i + 1] | support[i + 1]

    values = _bundle_tables(inst, 0, full, support[0])
    lo0, c0 = caps[0] - slack, caps[0]
    table = [values[s] if lo0 <= popcount[s] <= c0 else 0 for s in range(full + 1)]
    back: list[list[int]] = [[s if lo0 <= popcount[s] <= c0 else 0 for s in range(full + 1)]]
    for i in range(1, n):
        values = _bundle_tables(inst, i, full, support[i])
        new = [0] * (full + 1)
        ptr = [0] * (full + 1)
        for subs, masks in _layer_groups(inst, i, full, popcount, support[i], later[i]):
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
        return zero_result(inst)
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


def _best_group_split(inst: Instance, groups: list[list[int]]) -> tuple[Matching, NashValue]:
    """Best matching over all guesses of how many workers of each group go
    to each firm, with every worker matched; BudgetExceededError when the
    guesses outnumber DEFAULT_GUESS_BUDGET, read at call time.

    Per group, count vectors are tried in increasing lexicographic order,
    and firm f takes the group's next k workers; a firm stops taking at a
    worker who values it at 0.  Guesses are scored exactly and the first
    strict maximiser wins.

    The search is a branch and bound.  Before each group it bounds every
    completion in exact integers: the product so far, times each unplaced
    worker's largest value, times, per firm f, firm_sums[f] + free_f * (f's
    largest value of an unplaced worker), where free_f is the room f has
    left, capped at the number of unplaced workers.  A subtree is dropped
    when its bound is at most the best product so far, or when the free_f
    sum to fewer than the unplaced workers.  None of its guesses can then
    beat the best strictly, so the first strict maximiser, and with it the
    matching returned, is the one the full search finds.  The suffix tables
    behind the bound take O(m*n) per solve; bounding at each firm step as
    well costs more than it drops.
    """
    n = inst.n
    # distributions of each group across firms
    space = 1
    for workers in groups:
        space *= math.comb(len(workers) + n - 1, n - 1)
        if space > DEFAULT_GUESS_BUDGET:
            raise BudgetExceededError("bucket guess space exceeds budget")

    caps, worker_vals, firm_vals = inst.capacities, inst.worker_vals, inst.firm_vals
    # suffix tables over the workers in reverse search order: with j of
    # them left, the product of their largest values top[j], and each
    # firm's largest value of one of them fmax[f][j]
    order = [w for workers in reversed(groups) for w in workers]
    unplaced = list(accumulate(map(len, reversed(groups)), initial=0))[::-1]
    top = list(accumulate(map(max, map(worker_vals.__getitem__, order)), mul, initial=1))
    fmax = []
    for fv in firm_vals:
        # a plain loop: accumulate(..., max) calls max(a, b) per worker,
        # several times slower
        largest = 0
        col = [0]
        for w in order:
            if fv[w] > largest:
                largest = fv[w]
            col.append(largest)
        fmax.append(col)
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
        left = unplaced[t]
        room = 0
        bound = prod * top[left]
        for cap, load, s, largest in zip(caps, loads, firm_sums, fmax):
            free = min(left, cap - load)
            room += free
            bound *= s + free * largest[left]
        if room < left or bound <= best_product:
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
        return zero_result(inst)
    mu = Matching.of(best)
    value = nash_value(inst, mu)
    if value.product != best_product:
        raise AssertionError(f"the best guess re-scores to {value.product}, "
                             f"not {best_product}")
    return mu, value


def solve_exact_bucketing(inst: Instance) -> tuple[Matching, NashValue]:
    """Nash-optimal matching for constant firms and few distinct values.

    Workers are grouped by their exact (worker-value, firm-value) signature
    across all firms, and _best_group_split guesses how many workers of each
    group go to each firm.  Guessing per signature group (a refinement of
    per-firm value buckets) makes every guess realizable by construction and
    loses no optima, since same-signature workers are interchangeable.
    """
    _check_bucket_firms(inst)
    distinct = set().union(*inst.worker_vals, *inst.firm_vals)
    if len(distinct) > DEFAULT_BUCKET_VALUE_BOUND:
        raise DomainError(f"{len(distinct)} distinct valuation levels exceed bound "
                          f"{DEFAULT_BUCKET_VALUE_BOUND}")
    groups = _signature_groups(inst, {v: v for v in distinct})
    return _best_group_split(inst, list(groups.values()))


def _check_bucket_firms(inst: Instance) -> None:
    """DomainError past DEFAULT_BUCKET_FIRM_BOUND firms, the bound that
    buckets and qptas share."""
    if inst.n > DEFAULT_BUCKET_FIRM_BOUND:
        raise DomainError(f"n={inst.n} exceeds firm bound {DEFAULT_BUCKET_FIRM_BOUND}")


def _signature_groups(inst: Instance, level: dict[int, int]) -> dict[tuple, list[int]]:
    """The workers keyed by their signature, the pairs (level[worker_vals[w][f]],
    level[firm_vals[f][w]]) over the firms f, in the order each signature
    first occurs; level maps every value of the instance."""
    get = level.__getitem__
    groups: dict[tuple, list[int]] = {}
    for w, (row, col) in enumerate(zip(inst.worker_vals, zip(*inst.firm_vals))):
        groups.setdefault(tuple(zip(map(get, row), map(get, col))), []).append(w)
    return groups
