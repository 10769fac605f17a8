"""Approximation algorithms.

- greedy_submodular: pairwise greedy on the log-modified firm valuations;
  the square-root-of-optimum Nash bound is checked empirically by the suite.
- qptas_bucketing: guesses how many workers of each geometric value-bucket
  signature go to each firm, realizes each guess canonically and scores it
  exactly.
- fptas_polymul: set-polynomial scheme over a geometric level ladder; the
  production path stores, per worker subset, the best reachable ladder level
  (the polynomial tables are monotone in the level, so this loses nothing),
  while build_single_firm_poly / combine_polys implement the literal
  polynomial recurrences for cross-checking.

All ladder comparisons are exact: eps is a Fraction and "value >= (1+eps)^k"
is decided on integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
from .exact import _bundle_tables, _fitting_bundles, _layer_groups, _support, _zero_result

DEFAULT_FPTAS_BUDGET = 16
DEFAULT_QPTAS_FIRM_BOUND = 5
DEFAULT_QPTAS_GUESS_BUDGET = 5_000_000


def parse_eps(eps) -> Fraction:
    """Accept a Fraction, an int, or an exact rational string "p/q"."""
    if isinstance(eps, Fraction):
        value = eps
    elif isinstance(eps, int):
        value = Fraction(eps)
    elif isinstance(eps, str):
        value = Fraction(eps)
    else:
        raise ValueError(f"eps must be rational, got {eps!r}")
    if value <= 0:
        raise ValueError("eps must be positive")
    return value


@dataclass(frozen=True)
class SetPolynomial:
    """Boolean-coefficient polynomial over monomials y^e, e a bitmask of a
    worker subset.  Stored as a single big integer: bit e is the coefficient
    of y^e.  Multiplication adds exponents, so bits can transiently spill
    past 2^num_vars; the Hamming projection kills every such carry because a
    carry strictly lowers the popcount below the target weight.
    """

    num_vars: int
    bits: int

    def __post_init__(self):
        if self.bits < 0:
            raise ValueError("bitset must be nonnegative")

    @classmethod
    def empty(cls, num_vars: int) -> "SetPolynomial":
        return cls(num_vars, 0)

    @classmethod
    def from_monomials(cls, num_vars: int, exponents) -> "SetPolynomial":
        bits = 0
        for e in exponents:
            bits |= 1 << e
        return cls(num_vars, bits)

    @property
    def is_zero(self) -> bool:
        return self.bits == 0

    def monomials(self) -> list[int]:
        out = []
        bits = self.bits
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return out

    def multiply(self, other: "SetPolynomial") -> "SetPolynomial":
        if self.num_vars != other.num_vars:
            raise ValueError("operands must share num_vars")
        result = 0
        for e in self.monomials():
            result |= other.bits << e
        return SetPolynomial(self.num_vars, result)

    def hamming_projection(self, weight: int) -> "SetPolynomial":
        kept = 0
        for e in self.monomials():
            if e.bit_count() == weight:
                kept |= 1 << e
        return SetPolynomial(self.num_vars, kept)

    def representative_projection(self) -> "SetPolynomial":
        # coefficients are already boolean in this encoding
        return SetPolynomial(self.num_vars, self.bits)

    def union(self, other: "SetPolynomial") -> "SetPolynomial":
        if self.num_vars != other.num_vars:
            raise ValueError("operands must share num_vars")
        return SetPolynomial(self.num_vars, self.bits | other.bits)


def multiply_naive(a: SetPolynomial, b: SetPolynomial) -> SetPolynomial:
    """Exponent-pair double loop; reference for the shifted-OR multiply."""
    exps = {e1 + e2 for e1 in a.monomials() for e2 in b.monomials()}
    return SetPolynomial.from_monomials(a.num_vars, exps)


class LevelLadder:
    """Geometric grid {(1+eps)^k}, k = 0 .. q+1, with q the largest exponent
    whose power is at most eta = (m*v_max)^(m+n).  Levels are integer
    exponents; value-vs-level tests multiply out exactly."""

    def __init__(self, eps: Fraction, m: int, n: int, v_max: int):
        self.eps = parse_eps(eps)
        self.num = self.eps.numerator + self.eps.denominator
        self.den = self.eps.denominator
        self.eta = max(1, (m * v_max)) ** (m + n)
        # num_pows[k] = num**k and den_pows[k] = den**k for k = 0 .. q+1
        self.num_pows, self.den_pows = [1], [1]
        while self.eta * self.den_pows[-1] >= self.num_pows[-1]:
            self.num_pows.append(self.num_pows[-1] * self.num)
            self.den_pows.append(self.den_pows[-1] * self.den)
        self.q = len(self.num_pows) - 2

    def value_at_least(self, value: int, k: int) -> bool:
        """Exact test: value >= (1+eps)^k."""
        if k <= 0:
            return value >= 1
        return value * self.den ** k >= self.num ** k

    def power_equals(self, value: int, k: int) -> bool:
        """Exact test: value == (1+eps)^k."""
        if k <= 0:
            return value == 1
        return value * self.den ** k == self.num ** k

    def level_of(self, value: int) -> int:
        """Largest k in [0, q+1] with (1+eps)^k <= value; -1 when value < 1."""
        if value < 1:
            return -1
        num_pows, den_pows = self.num_pows, self.den_pows
        lo, hi = 0, self.q + 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if value * den_pows[mid] >= num_pows[mid]:
                lo = mid
            else:
                hi = mid - 1
        return lo


class ModifiedValuationView:
    """Per-firm evaluator of ln(v_f(X) * prod of worker values for f), with
    the empty bundle mapped to 0.  Monotone and submodular whenever every
    valuation is positive."""

    def __init__(self, inst: Instance):
        self.inst = inst

    def raw(self, f: int, bundle) -> int:
        total = 0
        prod = 1
        for w in bundle:
            total += self.inst.firm_vals[f][w]
            prod *= self.inst.worker_vals[w][f]
        return total * prod

    def value(self, f: int, bundle) -> float:
        bundle = list(bundle)
        if not bundle:
            return 0.0
        raw = self.raw(f, bundle)
        if raw == 0:
            return float("-inf")
        return math.log(raw)

    def marginal(self, f: int, bundle, w: int) -> float:
        return self.value(f, list(bundle) + [w]) - self.value(f, bundle)


def greedy_submodular(inst: Instance) -> tuple[Matching, NashValue]:
    """Greedy one-pair-at-a-time maximization of the summed modified firm
    valuations.  Requires strictly positive valuations and enough total
    capacity to place every worker.  Gains are compared as exact rationals:
    adding w to a nonempty bundle at f multiplies the running product by
    v_wf * (sigma_f + v_fw) / sigma_f, and by v_wf * v_fw on an empty one.
    """
    m, n = inst.m, inst.n
    for row in list(inst.worker_vals) + list(inst.firm_vals):
        if any(v <= 0 for v in row):
            raise DomainError("greedy_submodular requires strictly positive valuations")
    if sum(inst.capacities) < m:
        raise DomainError("total capacity below worker count")
    loads = [0] * n
    sums = [0] * n
    assignment: list = [UNMATCHED] * m
    unplaced = set(range(m))
    while unplaced:
        # never strand a firm with an empty bundle: once the unplaced
        # workers are only as many as the empty firms, steps must fill one
        empty = [f for f in range(n) if loads[f] == 0]
        must_fill = m >= n and 0 < len(empty) >= len(unplaced)
        best_gain = None
        best_pair = None
        for w in sorted(unplaced):
            for f in range(n):
                if loads[f] >= inst.capacities[f]:
                    continue
                if must_fill and loads[f] > 0:
                    continue
                wv = inst.worker_vals[w][f]
                fv = inst.firm_vals[f][w]
                if sums[f] == 0:
                    gain = Fraction(wv * fv)
                else:
                    gain = Fraction(wv * (sums[f] + fv), sums[f])
                if best_gain is None or gain > best_gain:
                    best_gain = gain
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


def qptas_bucketing(
    inst: Instance,
    eps,
    max_firms: int = DEFAULT_QPTAS_FIRM_BOUND,
    guess_budget: int = DEFAULT_QPTAS_GUESS_BUDGET,
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
    ladder = LevelLadder(eps, m, n, inst.v_max)
    # tau = ceil(log_{1+eps} v_max), at least 1
    if inst.v_max <= 1:
        tau = 1
    else:
        k = ladder.level_of(inst.v_max)
        tau = max(1, k if ladder.power_equals(inst.v_max, k) else k + 1)
    groups: dict[tuple, list[int]] = {}
    for w in range(m):
        sig = tuple(
            (_bucket_index(ladder, tau, inst.worker_vals[w][f]),
             _bucket_index(ladder, tau, inst.firm_vals[f][w]))
            for f in range(n)
        )
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
        return _zero_result(inst)
    mu = Matching.of(best["assignment"])
    value = nash_value(inst, mu)
    assert value.product == best["product"]
    return mu, value


def build_single_firm_poly(
    inst: Instance, j: int, s: int, level: int, ladder: LevelLadder
) -> SetPolynomial:
    """Monomial y^chi(X) present iff |X| = s, s <= c_j, and the firm-bundle
    value of X at firm j reaches ladder level `level`."""
    if s > inst.capacities[j]:
        raise ValueError(f"bundle size {s} exceeds capacity {inst.capacities[j]}")
    m = inst.m
    full = (1 << m) - 1
    values = _bundle_tables(inst, j, full)
    bits = 0
    # the empty bundle has value 0, below every ladder level, so s = 0
    # always yields the zero polynomial via the same test
    for mask in range(full + 1):
        if mask.bit_count() == s and ladder.value_at_least(values[mask], level):
            bits |= 1 << mask
    return SetPolynomial(m, bits)


def combine_polys(
    h_table: dict[tuple[int, int], SetPolynomial],
    p_prev: dict[tuple[int, int], SetPolynomial],
    s: int,
    level: int,
) -> SetPolynomial:
    """Literal layer recurrence: union over s = s' + s'' and level = l' + l''
    of the Hamming-s projection of h[s', l'] * p_prev[s'', l''], clamped to
    boolean coefficients."""
    num_vars = None
    acc = None
    for (s1, l1), h in h_table.items():
        s2 = s - s1
        l2 = level - l1
        if l2 < 0 or (s2, l2) not in p_prev:
            continue
        p = p_prev[(s2, l2)]
        if num_vars is None:
            num_vars = h.num_vars
            acc = SetPolynomial.empty(num_vars)
        acc = acc.union(h.multiply(p).hamming_projection(s))
    if acc is None:
        raise ValueError("no compatible (size, level) split")
    return acc.representative_projection()


def fptas_tables(inst: Instance, eps) -> tuple[list[dict], LevelLadder]:
    """Full literal polynomial tables p[j][(s, level)], small m only; used to
    cross-check the production level-DP path."""
    eps = parse_eps(eps)
    m, n = inst.m, inst.n
    ladder = LevelLadder(eps, m, n, inst.v_max)
    top = ladder.q + 1
    h_tables = []
    for j in range(n):
        h = {}
        for s in range(min(m, inst.capacities[j]) + 1):
            for level in range(top + 1):
                h[(s, level)] = build_single_firm_poly(inst, j, s, level, ladder)
        h_tables.append(h)
    tables = [h_tables[0]]
    for j in range(1, n):
        layer = {}
        for s in range(m + 1):
            for level in range(top + 1):
                try:
                    layer[(s, level)] = combine_polys(h_tables[j], tables[-1], s, level)
                except ValueError:
                    layer[(s, level)] = SetPolynomial.empty(m)
        tables.append(layer)
    return tables, ladder


def _level_dp(inst: Instance, ladder: LevelLadder) -> tuple[list[list[int]], list[dict]]:
    """Per-layer arrays L[j][mask] = best reachable ladder level when firms
    0..j partition exactly the workers in mask; -1 when impossible or not
    needed (see _layer_groups).  The literal p-tables are downward closed in
    the level, so these maxima carry the same information.  Also returns
    each firm's {bundle: ladder level} over its positive bundles that fit
    its capacity, in increasing bundle order."""
    m, n = inst.m, inst.n
    full = (1 << m) - 1
    top = ladder.q + 1
    popcount = [s.bit_count() for s in range(full + 1)]
    layers = []
    levels = []
    for j in range(n):
        values = _bundle_tables(inst, j, full)
        lvl = {
            sub: ladder.level_of(values[sub])
            for sub in _fitting_bundles(_support(inst, j), inst.capacities[j], popcount)
            if values[sub]
        }
        own = [-1] * (full + 1)
        for sub, level in lvl.items():
            own[sub] = level
        if j == 0:
            cur = own
        else:
            prev = layers[-1]
            cur = [-1] * (full + 1)
            for subs, masks in _layer_groups(inst, j, full, popcount):
                for mask in masks:
                    best = -1
                    for sub in subs:
                        rest = prev[mask ^ sub]
                        if rest >= 0 and own[sub] >= 0 and own[sub] + rest > best:
                            best = own[sub] + rest
                    cur[mask] = min(top, best)
        layers.append(cur)
        levels.append(lvl)
    return layers, levels


def fptas_polymul(
    inst: Instance, eps, budget: int = DEFAULT_FPTAS_BUDGET
) -> tuple[Matching, NashValue, int]:
    """Set-polynomial approximation scheme.

    Returns (matching, value, level): the largest ladder level reachable by
    any full partition of the workers among the firms, plus a matching
    recovered by backtracking.  The recovered product P satisfies
    P <= opt <= P * (1+eps)^(n+1).
    """
    eps = parse_eps(eps)
    if inst.m > budget:
        raise BudgetExceededError(f"m={inst.m} exceeds bitmask budget {budget}")
    m, n = inst.m, inst.n
    ladder = LevelLadder(eps, m, n, inst.v_max)
    layers, levels = _level_dp(inst, ladder)
    full = (1 << m) - 1
    target = layers[-1][full]
    if target < 0:
        mu, value = _zero_result(inst)
        return mu, value, -1
    top = ladder.q + 1
    assignment: list = [UNMATCHED] * m
    mask = full
    for j in range(n - 1, 0, -1):
        prev = layers[j - 1]
        need = layers[j][mask]
        # the first bundle of mask, in increasing order, that reaches need
        chosen = next(
            sub for sub, level in levels[j].items()
            if sub & mask == sub and prev[mask ^ sub] >= 0
            and min(top, level + prev[mask ^ sub]) == need)
        for w in range(m):
            if chosen >> w & 1:
                assignment[w] = j
        mask ^= chosen
    for w in range(m):
        if mask >> w & 1:
            assignment[w] = 0
    mu = Matching.of(assignment)
    value = nash_value(inst, mu)
    assert ladder.value_at_least(value.product, target)
    return mu, value, target
