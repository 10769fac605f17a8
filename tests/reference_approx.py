"""Literal set-polynomial forms of the fptas and the modified firm valuation
that the greedy's analysis rests on.

`fptas_polymul` stores only the best ladder level per worker subset; the
polynomial tables built here are the paper's recurrences, kept to check that
the level tables carry the same information (see tests/test_approx.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from nswmatch.approx import LevelLadder, parse_eps
from nswmatch.core import Instance
from nswmatch.exact import _bundle_tables


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
