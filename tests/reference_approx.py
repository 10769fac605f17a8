"""The modified firm valuation that the greedy's analysis rests on, in its
literal logarithmic form (see tests/test_approx.py)."""

from __future__ import annotations

import math

from nswmatch.core import Instance


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
