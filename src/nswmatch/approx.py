"""Approximation algorithms.

- greedy_submodular: pairwise greedy on the log-modified firm valuations;
  the square-root-of-optimum Nash bound is checked empirically by the suite.
- qptas_bucketing: groups workers by geometric value-bucket signature,
  bucketing each distinct value once, and runs the count-split search of
  exact.solve_exact_bucketing on the groups: it guesses how many workers of
  each group go to each firm, realizes each guess canonically and scores
  it exactly, dropping the guesses an exact upper bound shows cannot win.

The paper's set-polynomial FPTAS has no solver here: its product P must
satisfy P <= opt <= P * (1+eps)^(n+1), which the exact optimum meets for
every eps, so fptas in cli.SOLVERS is exact.solve_dp behind an eps check.

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
from .exact import _best_group_split

DEFAULT_LADDER_BUDGET = 100_000
DEFAULT_QPTAS_FIRM_BOUND = 5


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


class LevelLadder:
    """Geometric grid {(1+eps)^k}, k = 0 .. q+1, with q the largest exponent
    whose power is at most eta = (m*v_max)^(m+n).  Levels are integer
    exponents; value-vs-level tests multiply out exactly, and a float only
    gives the first guess of a level.  Each test raises 1+eps to a power up
    to q, so a ladder whose estimated q exceeds DEFAULT_LADDER_BUDGET is
    rejected before any power is computed."""

    def __init__(self, eps: Fraction, m: int, n: int, v_max: int):
        self.eps = parse_eps(eps)
        self.num = self.eps.numerator + self.eps.denominator
        self.den = self.eps.denominator
        self.eta = max(1, (m * v_max)) ** (m + n)
        # log(1+eps): log1p keeps a tiny eps accurate, int logs take a huge one
        self.log_ratio = (math.log1p(self.eps) if self.eps < 1
                          else math.log(self.num) - math.log(self.den))
        # a tiny eps can round log(1+eps) to 0: that ladder has no usable size
        if self.log_ratio == 0 or math.log(self.eta) / self.log_ratio > DEFAULT_LADDER_BUDGET:
            raise BudgetExceededError(f"ladder exceeds budget of {DEFAULT_LADDER_BUDGET} levels")
        self.q = self._top_level(self.eta, math.inf)

    def value_at_least(self, value: int, k: int) -> bool:
        """Exact test: value >= (1+eps)^k, for k >= 0."""
        return value * self.den ** k >= self.num ** k

    def power_equals(self, value: int, k: int) -> bool:
        """Exact test: value == (1+eps)^k, for k >= 0."""
        return value * self.den ** k == self.num ** k

    def _top_level(self, value: int, hi) -> int:
        """Largest k in [0, hi] with (1+eps)^k <= value, for value >= 1:
        exact tests step from the estimate log(value) / log(1+eps)."""
        k = max(0, min(hi, int(math.log(value) / self.log_ratio))) if value > 1 else 0
        while k < hi and self.value_at_least(value, k + 1):
            k += 1
        while k > 0 and not self.value_at_least(value, k):
            k -= 1
        return k

    def level_of(self, value: int) -> int:
        """Largest k in [0, q+1] with (1+eps)^k <= value; -1 when value < 1."""
        if value < 1:
            return -1
        return self._top_level(value, self.q + 1)


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


def _bucket_index(ladder: LevelLadder, tau: int, value: int) -> int:
    """Geometric bucket of a valuation: 0 for value 0, else the i in [1, tau]
    with (1+eps)^(i-1) <= value < (1+eps)^i; the top bucket also takes the
    upper boundary."""
    if value == 0:
        return 0
    return min(tau, ladder.level_of(value) + 1)


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
    if inst.n > DEFAULT_QPTAS_FIRM_BOUND:
        raise DomainError(f"n={inst.n} exceeds firm bound {DEFAULT_QPTAS_FIRM_BOUND}")
    m, n = inst.m, inst.n
    ladder = LevelLadder(eps, m, n, inst.v_max)
    # tau = ceil(log_{1+eps} v_max), at least 1
    if inst.v_max <= 1:
        tau = 1
    else:
        k = ladder.level_of(inst.v_max)
        tau = max(1, k if ladder.power_equals(inst.v_max, k) else k + 1)
    # each distinct value is bucketed once
    bucket = {v: _bucket_index(ladder, tau, v)
              for rows in (inst.worker_vals, inst.firm_vals) for v in set().union(*rows)}
    groups: dict[tuple, list[int]] = {}
    for w in range(m):
        sig = tuple((bucket[inst.worker_vals[w][f]], bucket[inst.firm_vals[f][w]])
                    for f in range(n))
        groups.setdefault(sig, []).append(w)
    return _best_group_split(inst, [groups[sig] for sig in sorted(groups)])
