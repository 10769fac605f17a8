"""Reference forms for the greedy (see tests/test_approx.py).

ModifiedValuationView is the modified firm valuation that the greedy's
analysis rests on, in its literal logarithmic form.  greedy_submodular is
the pair scan that `nswmatch.approx.greedy_submodular` replaced: every step
compares the gain of every (unplaced worker, open firm) pair by exact
cross-multiplication, so it takes O(m^2 * n) steps where the solver keeps
one maximum per firm; both must return the same matching.
"""

from __future__ import annotations

import math

from nswmatch.core import DomainError, Instance, Matching, NashValue, UNMATCHED, nash_value


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
