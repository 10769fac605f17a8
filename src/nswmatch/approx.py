"""Approximation algorithms.

- greedy_submodular: pairwise greedy on the log-modified firm valuations;
  the square-root-of-optimum Nash bound is checked empirically by the suite.
- qptas_bucketing: puts each distinct value on the (1+eps) grid that runs
  up to v_max, groups workers by their bucket signature, and runs the
  count-split search of exact.solve_exact_bucketing on the groups: it
  guesses how many workers of each group go to each firm, realizes each
  guess canonically and scores it exactly, dropping the guesses an exact
  upper bound shows cannot win.  It shares that solver's firm bound,
  exact.DEFAULT_BUCKET_FIRM_BOUND, and DEFAULT_LADDER_BUDGET bounds the
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

from .core import (
    BudgetExceededError,
    DomainError,
    Instance,
    Matching,
    NashValue,
    UNMATCHED,
    nash_value,
)
from .exact import _best_group_split, _check_bucket_firms, _signature_groups

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
    """
    m, n = inst.m, inst.n
    caps, worker_vals, firm_vals = inst.capacities, inst.worker_vals, inst.firm_vals
    # values are nonnegative, so strictly positive means no 0 anywhere
    if any(0 in row for row in worker_vals) or any(0 in row for row in firm_vals):
        raise DomainError("greedy_submodular requires strictly positive valuations")
    if sum(caps) < m:
        raise DomainError("total capacity below worker count")
    loads = [0] * n
    sums = [0] * n
    assignment: list = [UNMATCHED] * m
    unplaced = set(range(m))
    while unplaced:
        # never strand a firm with an empty bundle: once the unplaced
        # workers are only as many as the empty firms that can take one,
        # steps must fill one
        empty = [f for f in range(n) if loads[f] == 0 < caps[f]]
        must_fill = m >= n and 0 < len(empty) >= len(unplaced)
        open_firms = empty if must_fill else [f for f in range(n) if loads[f] < caps[f]]
        best_num, best_den = -1, 1
        best_pair = None
        for w in sorted(unplaced):
            row = worker_vals[w]
            for f in open_firms:
                fv = firm_vals[f][w]
                den = sums[f]
                if den == 0:
                    num, den = row[f] * fv, 1
                else:
                    num = row[f] * (den + fv)
                if num * best_den > best_num * den:
                    best_num, best_den = num, den
                    best_pair = (w, f)
        w, f = best_pair
        assignment[w] = f
        loads[f] += 1
        sums[f] += inst.firm_vals[f][w]
        unplaced.discard(w)
    mu = Matching.of(assignment)
    return mu, nash_value(inst, mu)


def _level(value: int, num: int, den: int, log_ratio: float) -> int:
    """Largest k >= 0 with (num/den)^k <= value, for value >= 1: exact
    integer tests step from the estimate log(value) / log_ratio."""
    k = int(math.log(value) / log_ratio) if value > 1 else 0
    while value * den ** (k + 1) >= num ** (k + 1):
        k += 1
    while k > 0 and value * den ** k < num ** k:
        k -= 1
    return k


def qptas_bucketing(inst: Instance, eps) -> tuple[Matching, NashValue]:
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
    groups = _signature_groups(inst, bucket)
    return _best_group_split(inst, [groups[sig] for sig in sorted(groups)])
