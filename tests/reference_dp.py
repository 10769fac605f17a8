"""Plain reference forms of the subset DP and the ladder level.

`naive_dp` is the straightforward exact subset DP (`dp`, and `dp2` and
`fptas`, which run it behind their checks): every layer visits every mask
and every submask of it, bundle values are recomputed where they are
needed, and nothing is skipped.  `nswmatch.exact.solve_dp` must return the
same assignments and products, including which of several tied maximisers
it picks: the first in increasing submask order.  `level` is the plain
form of `nswmatch.approx._level`, by doubling and bisection on exact
integer tests.
"""

from __future__ import annotations

from fractions import Fraction

from nswmatch.core import Instance, Matching, UNMATCHED, nash_value, zero_fallback


def bundle_values(inst: Instance, f: int) -> list[int]:
    """W_f(S) = (sum of f's values for S) * (product of S's values for f)
    for every bitmask S."""
    values = []
    for s in range(1 << inst.m):
        members = [w for w in range(inst.m) if s >> w & 1]
        total = sum(inst.firm_vals[f][w] for w in members)
        prod = 1
        for w in members:
            prod *= inst.worker_vals[w][f]
        values.append(total * prod)
    return values


def _submasks_increasing(mask: int) -> list[int]:
    return [sub for sub in range(mask + 1) if sub & mask == sub]


def naive_dp(inst: Instance) -> tuple[Matching, int]:
    """T[i, S] = max over S' subset of S with |S'| <= c_i of
    W_i(S') * T[i-1, S minus S']; the first maximiser in increasing S' wins,
    and a mask whose maximum is 0 points at the empty bundle."""
    m, n = inst.m, inst.n
    full = (1 << m) - 1
    values = bundle_values(inst, 0)
    c0 = inst.capacities[0]
    table = [values[s] if s.bit_count() <= c0 else 0 for s in range(full + 1)]
    back = [[s if s.bit_count() <= c0 else 0 for s in range(full + 1)]]
    for i in range(1, n):
        values = bundle_values(inst, i)
        ci = inst.capacities[i]
        new = [0] * (full + 1)
        ptr = [0] * (full + 1)
        for s in range(full + 1):
            for sub in _submasks_increasing(s):
                if sub.bit_count() <= ci and values[sub] * table[s ^ sub] > new[s]:
                    new[s] = values[sub] * table[s ^ sub]
                    ptr[s] = sub
        table = new
        back.append(ptr)
    if table[full] == 0:
        return zero_fallback(inst), 0
    assignment: list = [UNMATCHED] * m
    s = full
    for i in range(n - 1, -1, -1):
        for w in range(m):
            if back[i][s] >> w & 1:
                assignment[w] = i
        s ^= back[i][s]
    mu = Matching.of(assignment)
    return mu, nash_value(inst, mu).product


def level(value: int, eps: Fraction) -> int:
    """Largest k with (1+eps)^k <= value; -1 when value < 1."""
    if value < 1:
        return -1
    num, den = eps.numerator + eps.denominator, eps.denominator
    # double hi until (1+eps)^hi > value, then bisect below it
    hi = 1
    while value * den ** hi >= num ** hi:
        hi *= 2
    lo, hi = 0, hi - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if value * den ** mid >= num ** mid:
            lo = mid
        else:
            hi = mid - 1
    return lo
