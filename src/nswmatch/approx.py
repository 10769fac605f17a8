"""Approximation algorithms.

- greedy_submodular: pairwise greedy on the log-modified firm valuations;
  the square-root-of-optimum Nash bound is checked empirically by the suite.
  Each firm keeps its best gain over the unplaced workers, so a step
  compares one head per open firm instead of every pair.
- qptas_bucketing: puts each distinct value on the (1+eps) grid that runs
  up to v_max, groups workers by their bucket signature, and runs the
  oracle's search (oracle.solve_bruteforce) with the groups as its twin
  classes: each guess of how many workers of each group go to each firm
  is realized once, canonically, and scored exactly, under the oracle's
  DEFAULT_NODE_BUDGET.  exact.solve_exact_bucketing shares its firm
  bound, DEFAULT_BUCKET_FIRM_BOUND, and DEFAULT_LADDER_BUDGET bounds the
  log(v_max) / log(1+eps) levels its exact tests raise 1+eps to.

The paper's set-polynomial FPTAS has no solver here: its product P must
satisfy P <= opt <= P * (1+eps)^(n+1), which the exact optimum meets for
every eps, so fptas in cli.SOLVERS is exact.solve_dp behind an eps check,
under dp's own budget.

All ladder comparisons are exact: eps is a Fraction and "value >= (1+eps)^k"
is decided on integers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, getitem

from .core import (
    BudgetExceededError,
    DomainError,
    Instance,
    Matching,
    NashValue,
    UNMATCHED,
    _product_tree,
)
from .oracle import solve_bruteforce

DEFAULT_BUCKET_FIRM_BOUND = 5
DEFAULT_LADDER_BUDGET = 100_000


def parse_eps(eps) -> Fraction:
    """Accept a Fraction, an int, or an exact rational string "p/q"."""
    if not isinstance(eps, (Fraction, int, str)):
        raise ValueError(f"eps must be rational, got {eps!r}")
    try:
        value = Fraction(eps)
    except ZeroDivisionError:
        raise ValueError(f"eps {eps!r} has a zero denominator") from None
    if value <= 0:
        raise ValueError("eps must be positive")
    return value


def greedy_submodular(inst: Instance) -> tuple[Matching, NashValue]:
    """Greedy one-pair-at-a-time maximization of the summed modified firm
    valuations.  Requires strictly positive valuations and enough total
    capacity to place every worker.  Gains are compared as exact integer
    ratios: adding w to a nonempty bundle at f multiplies the running
    product by v_wf * (sigma_f + v_fw) / sigma_f, and by v_wf * v_fw on an
    empty one; the first strict maximiser in (worker, firm) order wins.

    Each firm with room keeps every worker's gain numerator
    v_wf * (sigma_f + v_fw), 0 once the worker is placed, and their maximum
    and its first index, so a step compares one head per open firm.  The
    firm that takes a worker rebuilds its numerators by C-level maps;
    every other firm zeroes that worker's entry and rescans only when it
    held its maximum.  A step costs O(n) Python steps and O(m) C-level
    ones, where comparing every pair took O(m * n) Python steps; each
    firm's column of v_wf is listed once, at its first rebuild.
    """
    m, n = inst.m, inst.n
    caps, worker_vals, firm_vals = inst.capacities, inst.worker_vals, inst.firm_vals
    # values are nonnegative, so strictly positive means no 0 anywhere
    if any(0 in row for row in worker_vals) or any(0 in row for row in firm_vals):
        raise DomainError("greedy_submodular requires strictly positive valuations")
    if sum(caps) < m:
        raise DomainError("total capacity below worker count")
    # nums[f][w]: v_wf * (sums[f] + v_fw) while w is unplaced, 0 once it is
    # placed, over the denominator sums[f], or 1 while f is empty.  Values
    # are read by index, and no row is iterated.
    nums = [[row[f] * fv[w] for w, row in enumerate(worker_vals)]
            for f, fv in enumerate(firm_vals)]
    # cols[f][w]: v_wf while w is unplaced, 0 once it is placed, listed for
    # f's first rebuild
    cols = [None] * n
    heads = [*map(max, nums)]
    firsts = [*map(list.index, nums, heads)]
    sums = [0] * n
    room = list(caps)
    open_firms = [f for f in range(n) if caps[f]]
    # never strand a firm with an empty bundle: once the unplaced workers
    # are only as many as the empty firms that can take one, steps must
    # fill one
    empty = open_firms[:] if m >= n else []
    assignment: list = [UNMATCHED] * m
    for left in range(m, 0, -1):
        firms = empty if len(empty) >= left else open_firms
        f = firms[0]
        num, den, w = heads[f], sums[f] or 1, firsts[f]
        for g in firms[1:]:
            g_num, g_den = heads[g], sums[g] or 1
            lhs, rhs = g_num * den, num * g_den
            if lhs > rhs or lhs == rhs and firsts[g] < w:
                f, num, den, w = g, g_num, g_den, firsts[g]
        assignment[w] = f
        s = sums[f]
        gain = firm_vals[f][w]
        sums[f] = s + gain
        if left == 1:
            break
        if not s and empty:
            empty.remove(f)
        room[f] -= 1
        if not room[f]:
            open_firms.remove(f)
        for g in open_firms:
            row = nums[g]
            row[w] = 0
            if cols[g]:
                cols[g][w] = 0
            if firsts[g] == w and g != f:
                heads[g] = top = max(row)
                firsts[g] = row.index(top)
        if room[f]:
            col = cols[f]
            if col is None:
                col = cols[f] = [r[f] if x else 0 for r, x in zip(worker_vals, nums[f])]
            # v_wf * (s + gain + v_fw) is the old numerator plus v_wf * gain
            nums[f] = row = [*map(add, nums[f], map(gain.__mul__, col))]
            heads[f] = top = max(row)
            firsts[f] = row.index(top)
    # every worker is placed and sums holds each firm's utility
    product = _product_tree([*map(getitem, worker_vals, assignment), *sums])
    return Matching.of(assignment), NashValue(product)


def _level(value: int, num: int, den: int, log_ratio: float) -> int:
    """Largest k >= 0 with (num/den)^k <= value, for value >= 1: exact
    integer tests step from the estimate log(value) / log_ratio."""
    k = int(math.log(value) / log_ratio) if value > 1 else 0
    while value * den ** (k + 1) >= num ** (k + 1):
        k += 1
    while k > 0 and value * den ** k < num ** k:
        k -= 1
    return k


def _check_bucket_firms(inst: Instance) -> None:
    """DomainError past DEFAULT_BUCKET_FIRM_BOUND firms, the bound that
    buckets and qptas share."""
    if inst.n > DEFAULT_BUCKET_FIRM_BOUND:
        raise DomainError(f"n={inst.n} exceeds firm bound {DEFAULT_BUCKET_FIRM_BOUND}")


def qptas_bucketing(inst: Instance, eps) -> tuple[Matching, NashValue]:
    """Bucketed guessing scheme; Nash welfare at least opt / (1 + eps).

    Workers are grouped by their per-firm bucket signature (worker-side and
    firm-side buckets of both valuations), and the oracle's search runs
    with the groups as its twin classes, so it tries how many workers of
    each group go to each firm.  Guessing per signature group is a
    refinement of guessing raw per-bucket count vectors, and every guess is
    realizable by construction, since bucket 0 is exactly value 0 and a
    group's workers value the same firms; no flow check is needed.
    Realized matchings are scored exactly and the best exact score wins;
    the optimum's own guess realizes within one bucket factor per agent,
    which gives the welfare guarantee.
    """
    eps = parse_eps(eps)
    _check_bucket_firms(inst)
    values = set().union(*inst.worker_vals, *inst.firm_vals)
    v_max = max(values, default=0)
    num, den = eps.numerator + eps.denominator, eps.denominator
    # log(1+eps): log1p keeps a tiny eps accurate, int logs take a huge one
    log_ratio = math.log1p(eps) if eps < 1 else math.log(num) - math.log(den)
    # level tests raise 1+eps to powers up to log(v_max) / log(1+eps); a tiny
    # eps can round log(1+eps) to 0, which gives that count no usable size
    if v_max > 1 and (log_ratio == 0 or math.log(v_max) / log_ratio > DEFAULT_LADDER_BUDGET):
        raise BudgetExceededError(f"ladder exceeds budget of {DEFAULT_LADDER_BUDGET} levels")
    # tau = ceil(log_{1+eps} v_max), at least 1
    tau = 1
    if v_max > 1:
        k = _level(v_max, num, den, log_ratio)
        tau = k if v_max * den ** k == num ** k else k + 1
    # each distinct value is bucketed once: 0 for value 0, else the i in
    # [1, tau] with (1+eps)^(i-1) <= value < (1+eps)^i; the top bucket also
    # takes the upper boundary
    bucket = {v: min(tau, _level(v, num, den, log_ratio) + 1) if v else 0 for v in values}
    result = solve_bruteforce(inst, groups=_signature_groups(inst, bucket))
    return result.best, result.value


def _signature_groups(inst: Instance, level: dict[int, int]) -> list[list[int]]:
    """The workers grouped by their signature, the pairs (level[worker_vals[w][f]],
    level[firm_vals[f][w]]) over the firms f, each group in increasing
    order; level maps every value of the instance."""
    get = level.__getitem__
    groups: dict[tuple, list[int]] = {}
    for w, (row, col) in enumerate(zip(inst.worker_vals, zip(*inst.firm_vals))):
        groups.setdefault(tuple(zip(map(get, row), map(get, col))), []).append(w)
    return list(groups.values())
