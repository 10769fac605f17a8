"""Instance/matching data model and welfare computation.

Workers and firms carry nonnegative integer valuations for each other.  A
matching assigns each worker to at most one firm, subject to firm capacities.
Every welfare comparison is on the exact integer Nash product, the one
thing a NashValue holds; the Nash welfare, the product's (m+n)-th root, is
a float the CLI reports and nothing compares.  An Instance holds its
capacities and value matrices, and m and n are their lengths.
positive_entries lists each value row's positive indices, from which the
polynomial solvers build their graphs and check their own degree bounds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import compress, repeat
from typing import Optional, Sequence

UNMATCHED = None


class DomainError(ValueError):
    """A solver's structural precondition does not hold for the instance."""


class BudgetExceededError(RuntimeError):
    """An enumeration or bitmask budget was exceeded."""


@dataclass(frozen=True)
class Instance:
    """A two-sided many-to-one matching instance.

    worker_vals[w][f] is worker w's value for firm f; firm_vals[f][w] is firm
    f's value for worker w.  All values and capacities are nonnegative
    ints (bool is rejected).  There are m = len(worker_vals) workers and
    n = len(capacities) firms.
    """

    capacities: tuple[int, ...]
    worker_vals: tuple[tuple[int, ...], ...]
    firm_vals: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        m, n = self.m, self.n
        if m <= 0 or n <= 0:
            raise ValueError("need at least one worker and one firm")
        # plain ints only: bool is an int subclass, and a float is no count
        if any(type(c) is not int or c < 0 for c in self.capacities):
            raise ValueError("capacities must be nonnegative integers")
        if any(len(r) != n for r in self.worker_vals):
            raise ValueError("worker_vals must be an m x n matrix")
        if len(self.firm_vals) != n or any(len(r) != m for r in self.firm_vals):
            raise ValueError("firm_vals must be an n x m matrix")
        for row in list(self.worker_vals) + list(self.firm_vals):
            for v in row:
                if type(v) is not int or v < 0:
                    raise ValueError("valuations must be nonnegative integers")

    @classmethod
    def create(cls, capacities: Sequence[int],
               worker_vals: Sequence[Sequence[int]],
               firm_vals: Sequence[Sequence[int]]) -> "Instance":
        return cls(tuple(capacities), tuple(tuple(r) for r in worker_vals),
                   tuple(tuple(r) for r in firm_vals))

    @property
    def m(self) -> int:
        return len(self.worker_vals)

    @property
    def n(self) -> int:
        return len(self.capacities)

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "capacities": list(self.capacities),
            "worker_vals": [list(r) for r in self.worker_vals],
            "firm_vals": [list(r) for r in self.firm_vals],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Instance":
        inst = cls.create(obj["capacities"], obj["worker_vals"], obj["firm_vals"])
        m, n = obj["m"], obj["n"]
        # plain ints only, as for valuations: True == 1 and 1.0 == 1
        if type(m) is not int or type(n) is not int or (m, n) != (inst.m, inst.n):
            raise ValueError("m/n fields must be ints that match the matrix shapes")
        return inst


@dataclass(frozen=True)
class Matching:
    """Per-worker firm assignment; entry is a firm index or UNMATCHED."""

    assignment: tuple[Optional[int], ...]

    @classmethod
    def of(cls, assignment: Sequence[Optional[int]]) -> "Matching":
        return cls(tuple(assignment))

    def to_json(self) -> dict:
        return {"assignment": [a for a in self.assignment]}

    @classmethod
    def from_json(cls, obj: dict) -> "Matching":
        return cls.of(obj["assignment"])


@dataclass(frozen=True)
class NashValue:
    """The exact Nash product: the product of every worker's and every
    firm's utility.  Solutions are compared by it alone."""

    product: int

    @property
    def is_zero(self) -> bool:
        return self.product == 0

    @classmethod
    def zero(cls) -> "NashValue":
        return cls(0)


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str


def all_utilities(inst: Instance, mu: Matching) -> list[int]:
    """Worker utilities followed by firm utilities."""
    firm_sums = [0] * inst.n
    worker_utils = [0] * inst.m
    for w, f in enumerate(mu.assignment):
        if f is not UNMATCHED:
            worker_utils[w] = inst.worker_vals[w][f]
            firm_sums[f] += inst.firm_vals[f][w]
    return worker_utils + firm_sums


def nash_value(inst: Instance, mu: Matching) -> NashValue:
    return NashValue(math.prod(all_utilities(inst, mu)))


def utilitarian_welfare(inst: Instance, mu: Matching) -> int:
    return sum(all_utilities(inst, mu))


def firm_bundle_value(inst: Instance, f: int, workers: Sequence[int]) -> int:
    """Firm-side contribution of a bundle: v_f(S) * prod of the workers'
    values for f.  Empty bundle is 0 (additive value of nothing)."""
    total = 0
    prod = 1
    for w in workers:
        total += inst.firm_vals[f][w]
        prod *= inst.worker_vals[w][f]
    return total * prod


def zero_fallback(inst: Instance) -> Matching:
    """Any capacity-feasible matching, returned when the optimum is zero."""
    slack = list(inst.capacities)
    assignment = []
    for _w in range(inst.m):
        for f in range(inst.n):
            if slack[f] > 0:
                slack[f] -= 1
                assignment.append(f)
                break
        else:
            assignment.append(UNMATCHED)
    return Matching.of(assignment)


def zero_result(inst: Instance) -> tuple[Matching, NashValue]:
    """A solver's answer when the optimum is zero: zero_fallback's matching."""
    return zero_fallback(inst), NashValue.zero()


def validate(inst: Instance, mu: Matching) -> Optional[Violation]:
    """None when the matching is feasible; otherwise the first violation."""
    if len(mu.assignment) != inst.m:
        return Violation("shape", f"assignment length {len(mu.assignment)} != m={inst.m}")
    loads = [0] * inst.n
    for w, f in enumerate(mu.assignment):
        if f is UNMATCHED:
            continue
        if type(f) is not int or not 0 <= f < inst.n:
            return Violation("range", f"worker {w} assigned to invalid firm {f!r}")
        loads[f] += 1
    for f, load in enumerate(loads):
        if load > inst.capacities[f]:
            return Violation("capacity",
                             f"firm {f} has {load} workers, capacity {inst.capacities[f]}")
    return None


def positive_entries(rows) -> list[tuple[int, ...]]:
    """For each row, the increasing indices of its positive entries.

    Values are nonnegative, so positive means truthy and compress finds
    them in one C-level scan per row, without indexing the row.  The
    indices come from a tuple, which compress walks without making an int
    per entry as a range would."""
    return list(map(tuple, map(compress, repeat(tuple(range(len(rows[0])))), rows)))


def load_instance(path: str) -> Instance:
    with open(path) as fh:
        return Instance.from_json(json.load(fh))


def load_matching(path: str) -> Matching:
    with open(path) as fh:
        return Matching.from_json(json.load(fh))
