"""Exact Nash-optimal solvers.

- solve_capacity_one: reduction to a max-product bipartite perfect
  matching of workers and firms, on adjacency lists gathered from each
  worker's valued firms (Instance.valued_firms); each worker's products
  reach the matcher as a lazy row of C-level maps, read once.
- solve_dp: subset dynamic programming over worker bitmasks, with exact
  big-integer products.  Each layer pushes from the positive states of the
  last, by the bundles of the sizes a full partition can pass through, and
  the firms' supports come from the workers' valued firms.  A bundle is
  scored from its firm's sums and products over the low and the high half
  of the workers (Horowitz and Sahni 1974), so no table over all bundles
  is built; the last layer scores each live state's one bundle, its
  complement, directly.  A branch and bound drops every state whose exact
  upper bound is strictly below the incumbent: greedy_submodular's
  matching improved by exact single moves and pairwise swaps.  It tests a
  product bound, then, on the states that one keeps, the tangent (AM-GM)
  bound at the incumbent's utilities, in integers; firm 0's bundles, the
  states of the next layer, are bounded as they are scored.  The incumbent
  is the product of a feasible matching, at most the optimum, so the
  optimal path, its tie-break and so the matching returned stay those of
  the full DP.  Two registry entries in cli.SOLVERS are solve_dp behind a
  check: the constant-capacity variant dp2 behind DEFAULT_CAPACITY_BOUND,
  and fptas behind its eps alone, since the exact optimum meets the
  FPTAS's (1+eps)^(n+1) window for every eps; both run under
  DEFAULT_DP_BUDGET.
- solve_exact_bucketing: constant-firms / few-distinct-values regime;
  after its domain checks it is oracle.solve_bruteforce, whose twin
  classes search interchangeable workers once, under the oracle's
  DEFAULT_NODE_BUDGET.  It shares the firm bound
  approx.DEFAULT_BUCKET_FIRM_BOUND with approx.qptas_bucketing.
"""

from __future__ import annotations

import math
from itertools import compress
from operator import itemgetter, mul
from typing import Optional

from .approx import DEFAULT_BUCKET_FIRM_BOUND, _check_bucket_firms, greedy_submodular
from .core import (
    BudgetExceededError,
    DomainError,
    Instance,
    Matching,
    NashValue,
    UNMATCHED,
    nash_value,
    zero_result,
)
from .graphalgs import max_weight_perfect_matching_general
from .oracle import solve_bruteforce

DEFAULT_DP_BUDGET = 20
DEFAULT_CAPACITY_BOUND = 4
DEFAULT_BUCKET_VALUE_BOUND = 8


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
    mate = max_weight_perfect_matching_general(*_positive_products(inst), n)
    if mate is None:
        return zero_result(inst)
    mu = Matching.of(mate)
    return mu, nash_value(inst, mu)


def _positive_products(inst: Instance) -> tuple[list, list]:
    """Adjacency lists of the workers' side of the capacity-one graph: for
    worker r, the firms c with worker_vals[r][c] * firm_vals[c][r] > 0, and
    those products in the same order, as a lazy map(mul, ...) that the
    matcher reads once.  Values are read by index at the row's valued
    firms, so no value row is iterated and no product list is built: a row
    that values every firm is gathered by one shared itemgetter and reads
    the firm rows as they are, another row by an itemgetter of its valued
    firms; the firm side is read at r by one C-level map, and the zero test
    looks at the firm side only, since the worker side is positive there."""
    n, cols = inst.n, inst.firm_vals
    whole = itemgetter(*range(n)) if n > 1 else None
    ids = []
    weights = []
    for r, (row, pos) in enumerate(zip(inst.worker_vals, inst.valued_firms)):
        if len(pos) == n > 1:
            row, firms = whole(row), cols
        elif len(pos) > 1:
            get = itemgetter(*pos)
            row, firms = get(row), get(cols)
        else:  # itemgetter of one index returns the item, not a tuple
            row, firms = [row[c] for c in pos], [cols[c] for c in pos]
        col = [*map(itemgetter(r), firms)]
        if not all(col):
            # the other side values this one 0: no edge
            ids.append(tuple(compress(pos, col)))
            row, col = compress(row, col), filter(None, col)
        else:
            ids.append(pos)
        weights.append(map(mul, row, col))
    return ids, weights


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
    # lowest bit skips submasks that all exceed hi
    while sub := (sub - t if popcount[sub] < hi else (sub | ~t) + (sub & -sub)) & t:
        while popcount[sub] < lo:
            sub |= (free := t & ~sub) & -free
        subs.append(sub)
    return subs


def _bundles(t: int, sup: int, fixed: int, least: int, cap: int, popcount) -> list[int]:
    """The bundles that extend state t, in increasing order: the submasks
    of sup outside t that hold every worker of fixed outside t, of 1..cap
    workers and at least least - |t|; none when sup misses such a worker."""
    forced = fixed & ~t
    if forced & ~sup:
        return []
    extra = popcount[forced]
    subs = _sized_submasks((sup & ~t) ^ forced, max(1, least - popcount[t]) - extra,
                           cap - extra, popcount)
    return [forced | x for x in subs] if forced else subs


def _dp_incumbent(inst: Instance, stats: Optional[dict] = None) -> tuple[int, Optional[Matching]]:
    """A lower bound on the optimum and the matching that reaches it: the
    product of greedy_submodular's matching improved by _local_search,
    where greedy's domain holds (every value positive, total capacity at
    least m); otherwise (0, None).  It is the product of a feasible
    matching, so at most the optimum, which is all solve_dp's bounds need.
    stats, when given, gets greedy's product ("greedy") and the moves the
    search applied ("moves")."""
    try:
        mu, value = greedy_submodular(inst)
    except DomainError:
        mu, value = None, NashValue.zero()
    moves = 0
    if value.product:
        mu, moves = _local_search(inst, mu)
    if stats is not None:
        stats["greedy"], stats["moves"] = value.product, moves
    if not value.product:
        return 0, None
    return (nash_value(inst, mu).product if moves else value.product), mu


def _local_search(inst: Instance, mu: Matching) -> tuple[Matching, int]:
    """First-improvement local search from mu, a matching of every worker
    with a positive Nash product: the local optimum reached and the number
    of moves applied.

    Until neither raises the product, it moves one worker to another firm
    with room that keeps its old firm nonempty, or swaps the firms of two
    workers, trying workers in increasing order.  A move changes only the
    workers' values and the two firms' sums, so it is decided by those
    factors cross-multiplied on exact integers; every firm stays nonempty,
    so they stay positive.  Each move strictly raises an integer product
    over a finite set of matchings, so the search stops."""
    worker_vals, firm_vals, caps = inst.worker_vals, inst.firm_vals, inst.capacities
    firm = list(mu.assignment)
    loads = [0] * inst.n
    sums = [0] * inst.n
    for w, f in enumerate(firm):
        loads[f] += 1
        sums[f] += firm_vals[f][w]
    moves = 0
    while True:
        before = moves
        for w, row in enumerate(worker_vals):
            for g in range(inst.n):
                f = firm[w]
                if g == f or loads[f] == 1 or loads[g] == caps[g]:
                    continue
                sf, sg = sums[f] - firm_vals[f][w], sums[g] + firm_vals[g][w]
                if row[g] * sf * sg > row[f] * sums[f] * sums[g]:
                    firm[w] = g
                    loads[f] -= 1
                    loads[g] += 1
                    sums[f], sums[g] = sf, sg
                    moves += 1
            for u in range(w + 1, inst.m):
                f, g = firm[w], firm[u]
                if f == g:
                    continue
                fvf, fvg, other = firm_vals[f], firm_vals[g], worker_vals[u]
                sf, sg = sums[f] - fvf[w] + fvf[u], sums[g] - fvg[u] + fvg[w]
                if row[g] * other[f] * sf * sg > row[f] * other[g] * sums[f] * sums[g]:
                    firm[w], firm[u] = g, f
                    sums[f], sums[g] = sf, sg
                    moves += 1
        if moves == before:
            return Matching.of(firm), moves


def _subset_products(factors: list[int]) -> list[int]:
    """The product of factors[j] over the set bits j of x, for every x."""
    prods = [1]
    for v in factors:
        prods += [p * v for p in prods]
    return prods


def _subset_sums(terms: list[int]) -> list[int]:
    """The sum of terms[j] over the set bits j of x, for every x."""
    sums = [0]
    for v in terms:
        sums += [x + v for x in sums]
    return sums


def _half_tables(inst: Instance, f: int, h: int) -> tuple[list, list, list, list]:
    """Firm f's bundle values by halves: the sums of f's values for the
    workers of x over the low h workers and over the others, and the
    products of those workers' values for f likewise, for every x.  A
    bundle S scores W_f(S) = (sums_lo[lo] + sums_hi[hi]) * prods_lo[lo] *
    prods_hi[hi] at lo = S & (2^h - 1) and hi = S >> h."""
    fv, column = inst.firm_vals[f], [row[f] for row in inst.worker_vals]
    return (_subset_sums(fv[:h]), _subset_sums(fv[h:]),
            _subset_products(column[:h]), _subset_products(column[h:]))


def _bound_tables(inst: Instance, mu: Matching, incumbent: int, h: int) -> list:
    """Tables for solve_dp's two upper bounds on every completion by firms
    i..n-1 of a state t, one tuple per layer i >= 1 (entry 0 is None), built
    once per solve.  Each table is indexed by lo = t & (2^h - 1) or
    hi = t >> h and read at the complement's bits, so it covers the
    workers outside t; p is |t|.

    (lows, highs, ...): the product bound lows[lo] * highs[hi], the
    product over the outside workers of their largest value for a firm
    from i on, times, per firm j >= i, the sum of its c_j largest values.

    (..., s_lows, s_highs, y_lows, y_highs, exps, cuts): the tangent
    (AM-GM) bound at mu's utilities s.  A completion's N' = m - p + n - i
    utilities u have prod u <= prod s * (sum u/s / N')^N', and sum u/s is
    the sum over the outside workers w of v_wf/s_w + v_fw/s_f at w's firm
    f, at most 2^-k times the sum of Y_w = max over f >= i of
    ceil(2^k v_wf / s_w) + ceil(2^k v_fw / s_f).  s_lows[lo] * s_highs[hi]
    is the product of s over the outside workers and the firms from i on,
    y_lows[lo] + y_highs[hi] the sum of Y over the outside workers,
    exps[p] = N' and cuts[p] = incumbent * (2^k N')^N', so

        T * s_lows[lo] * s_highs[hi] * (y_lows[lo] + y_highs[hi]) ** exps[p] >= cuts[p]

    holds, in integers, for every state of value T = T[i-1, t] whose bound
    reaches the incumbent.  exps and cuts are None at the sizes no full
    partition passes through before firm i."""
    m, n, k = inst.m, inst.n, 32
    worker_vals, firm_vals, caps = inst.worker_vals, inst.firm_vals, inst.capacities
    s_w = [row[f] for row, f in zip(worker_vals, mu.assignment)]
    s_f = [0] * n
    for w, f in enumerate(mu.assignment):
        s_f[f] += firm_vals[f][w]
    s_lows = _subset_products(s_w[:h])[::-1]
    s_highs = _subset_products(s_w[h:])[::-1]
    layers = []
    # per firm from the last down: each worker's largest value and Y_w, the
    # product of the top-c_j sums and that of s over the firms so far
    best = [0] * m
    y = [0] * m
    tops = firms = 1
    after = 0
    for i in range(n - 1, 0, -1):
        fv, sf = firm_vals[i], s_f[i]
        best = [max(b, row[i]) for b, row in zip(best, worker_vals)]
        y = [max(yw, -(-(row[i] << k) // sw) - (-(fv[w] << k) // sf))
             for w, (yw, row, sw) in enumerate(zip(y, worker_vals, s_w))]
        # a zero never reaches a top-c_j sum, so only the valued workers'
        # values are read, by index, and no firm row is walked
        tops *= sum(sorted(map(fv.__getitem__, inst.valued_workers[i]), reverse=True)[:caps[i]])
        firms *= sf
        after += caps[i]
        exps: list = [None] * (m + 1)
        cuts: list = [None] * (m + 1)
        for p in range(max(0, m - after), min(m, sum(caps[:i])) + 1):
            e = exps[p] = m - p + n - i
            cuts[p] = incumbent * (e << k) ** e
        layers.append((_subset_products(best[:h])[::-1],
                       [x * tops for x in reversed(_subset_products(best[h:]))],
                       s_lows, [x * firms for x in s_highs],
                       _subset_sums(y[:h])[::-1], _subset_sums(y[h:])[::-1], exps, cuts))
    return [None, *reversed(layers)]


def solve_dp(inst: Instance, stats: Optional[dict] = None) -> tuple[Matching, NashValue]:
    """Subset DP over worker bitmasks: T[i, S] = max over S' of
    W_{f_i}(S') * T[i-1, S \\ S'], over the bundles S' that every member
    values positively, at the sizes of S and S' a full partition can take;
    ties go to the first S' in increasing order.

    The DP pushes.  Layer i starts from the live states t, the masks with
    T[i-1, t] > 0 in increasing order, and extends each by the bundles S'
    inside firm i's support and outside t that hold every worker of t's
    complement whom no later firm values, of as many workers as keep
    |t | S'| between m - (c_{i+1} + ... + c_{n-1}) and c_0 + ... + c_i.
    A candidate replaces T[i, t | S'] when it is larger, or equal with a
    smaller S', so each mask keeps the first maximiser in increasing S'
    order whichever t reaches it first.  A bundle S' of firm i < n - 1
    scores (sums_lo[lo] + sums_hi[hi]) * prods_lo[lo] * prods_hi[hi] at
    lo = S' & (2^h - 1) and hi = S' >> h, from _half_tables' 2^h + 2^(m-h)
    entries (the split of Horowitz and Sahni 1974).  Layer 0 starts from
    the empty mask alone, so each of its bundles is a state of layer 1
    reached once: it is bounded as it is scored, the survivors are layer
    1's live states, and it keeps no pointer, as each state is its own.
    The last layer takes each live t's one bundle left, its complement,
    scored by its sum and product, and the largest candidate, ties to the
    smaller complement, closes the DP.

    Branch and bound (Morin and Marsten 1976): at layer i >= 1, a state
    is dropped when either of two upper bounds on T[i-1, t] times its
    completions is strictly below the incumbent, _dp_incumbent's locally
    improved greedy matching.  The product bound multiplies each outside
    worker's largest value for a firm from i on by each such firm's sum of
    its c_j largest values.  The tangent bound, tested only on the states
    the product bound keeps, is AM-GM over the remaining utilities at the
    incumbent's, with each worker's best weight rounded up (_bound_tables).
    Both are exact integer tests and at least the product of any
    completion of t, and the incumbent is the product of a feasible
    matching, so at most the optimum; so every dropped candidate is
    strictly below T[i, S] at each S on an optimal path, and the values and
    pointers there, and with them the matching returned, are those of the
    full DP.

    With total capacity below m no full partition exists, and it returns
    the zero result before building any table or the incumbent.  stats,
    when given, is filled with greedy's product ("greedy"), the local
    search's moves ("moves"), the incumbent and, per layer run, the states
    pushed ("live"), those the bounds dropped ("dropped"), of them those
    the tangent bound dropped after the product bound kept them
    ("tangent"), and the bundles tried ("transitions"); a capacity-short
    solve leaves it empty.
    """
    if inst.m > DEFAULT_DP_BUDGET:
        raise BudgetExceededError(f"m={inst.m} exceeds DP bitmask budget {DEFAULT_DP_BUDGET}")
    m, n = inst.m, inst.n
    caps = inst.capacities
    if sum(caps) < m:
        return zero_result(inst)
    incumbent, incumbent_mu = _dp_incumbent(inst, stats)
    if stats is not None:
        stats["incumbent"] = incumbent
        stats["layers"] = []
    full = (1 << m) - 1
    popcount = list(map(int.bit_count, range(full + 1)))
    # the half tables and the bounds' tables are indexed by the low h and
    # the high m - h bits
    h = m // 2
    mask = (1 << h) - 1
    if incumbent and n > 1:
        # the bounds run before firms 1..n-1 only
        bounds = _bound_tables(inst, incumbent_mu, incumbent, h)
    # support[i]: the workers who value firm i; later[i]: those who value a
    # firm after i
    support = [0] * n
    for w, firms in enumerate(inst.valued_firms):
        for f in firms:
            support[f] |= 1 << w
    later = [0] * n
    for i in range(n - 2, -1, -1):
        later[i] = later[i + 1] | support[i + 1]

    # before firm 0 the one state is the empty mask, worth the empty product;
    # layer 0 makes and bounds layer 1's states, so only the layers from 2
    # on gather and bound theirs here
    live, table, reached, cut = [0], {0: 1}, 1, 0
    # back[i]: layer i's pointers for 0 < i < n - 1; layer 0 keeps none
    back: list[list[int]] = [[]]
    # after: the capacity of the firms after i
    after = sum(caps)
    for i in range(n):
        if i > 1:
            live = list(compress(range(full + 1), table))
            reached = len(live)
            cut = 0
            if incumbent:
                lows, highs, s_lows, s_highs, y_lows, y_highs, exps, cuts = bounds[i]
                live = [t for t in live if table[t] * lows[t & mask] * highs[t >> h] >= incumbent]
                kept = [t for t in live
                        if table[t] * s_lows[t & mask] * s_highs[t >> h]
                        * (y_lows[t & mask] + y_highs[t >> h]) ** exps[popcount[t]]
                        >= cuts[popcount[t]]]
                cut = len(live) - len(kept)
                live = kept
        if not live:
            # a positive optimum's path would be live here, as its states'
            # bounds are at least the optimum, so the optimum is zero
            return zero_result(inst)
        counts = {"live": len(live), "dropped": reached - len(live), "tangent": cut}
        after -= caps[i]
        cap, sup = caps[i], support[i]
        transitions = 0
        if i == n - 1:
            # the last firm takes each live state's complement whole: score
            # that one bundle by its sum and product, ties to the smaller
            fv, column = inst.firm_vals[i], [row[i] for row in inst.worker_vals]
            best = last = 0
            for t in live:
                sub = full ^ t
                if not sub or sub & ~sup or popcount[sub] > cap:
                    continue
                transitions += 1
                total, prod, x = 0, table[t], sub
                while x:
                    w = (x & -x).bit_length() - 1
                    total += fv[w]
                    prod *= column[w]
                    x &= x - 1
                c = total * prod
                if c > best or c == best and sub < last:
                    best, last = c, sub
        else:
            least, fixed = m - after, full ^ later[i]
            sums_lo, sums_hi, prods_lo, prods_hi = _half_tables(inst, i, h)
            if i == 0:
                # firm 0's bundles are layer 1's states, each reached once
                # from the empty mask: bound each as it is scored, and keep
                # no pointer, as each is its own
                subs = _bundles(0, sup, fixed, least, cap, popcount)
                transitions = len(subs)
                live, table = [], {}
                reached = cut = 0
                if incumbent:
                    lows, highs, s_lows, s_highs, y_lows, y_highs, exps, cuts = bounds[1]
                for s in subs:
                    lo, hi = s & mask, s >> h
                    c = (sums_lo[lo] + sums_hi[hi]) * prods_lo[lo] * prods_hi[hi]
                    if not c:
                        continue
                    reached += 1
                    if incumbent:
                        if c * lows[lo] * highs[hi] < incumbent:
                            continue
                        p = popcount[s]
                        if (c * s_lows[lo] * s_highs[hi] * (y_lows[lo] + y_highs[hi]) ** exps[p]
                                < cuts[p]):
                            cut += 1
                            continue
                    live.append(s)
                    table[s] = c
            else:
                new = [0] * (full + 1)
                ptr = [0] * (full + 1)
                for t in live:
                    subs = _bundles(t, sup, fixed, least, cap, popcount)
                    transitions += len(subs)
                    base = table[t]
                    for sub in subs:
                        lo, hi = sub & mask, sub >> h
                        c = (sums_lo[lo] + sums_hi[hi]) * prods_lo[lo] * prods_hi[hi] * base
                        s = t | sub
                        if c > new[s] or c == new[s] and sub < ptr[s]:
                            new[s] = c
                            ptr[s] = sub
                table = new
                back.append(ptr)
        counts["transitions"] = transitions
        if stats is not None:
            stats["layers"].append(counts)
    if best == 0:
        return zero_result(inst)
    assignment: list = [UNMATCHED] * m
    s, sub = full, last
    for i in range(n - 1, -1, -1):
        for w in range(m):
            if sub >> w & 1:
                assignment[w] = i
        s ^= sub
        # firm 0's bundle is layer 1's state itself
        sub = back[i - 1][s] if i > 1 else s
    mu = Matching.of(assignment)
    return mu, nash_value(inst, mu)


def solve_exact_bucketing(inst: Instance) -> tuple[Matching, NashValue]:
    """Nash-optimal matching for constant firms and few distinct values.

    Workers with the same values are interchangeable, so the oracle's
    search, which places each class of such twins in one order of firms
    only, takes the place of guessing how many workers of each signature
    group go to each firm; its matching and product are the oracle's.
    """
    _check_bucket_firms(inst)
    distinct = set().union(*inst.worker_vals, *inst.firm_vals)
    if len(distinct) > DEFAULT_BUCKET_VALUE_BOUND:
        raise DomainError(f"{len(distinct)} distinct valuation levels exceed bound "
                          f"{DEFAULT_BUCKET_VALUE_BOUND}")
    result = solve_bruteforce(inst)
    return result.best, result.value
