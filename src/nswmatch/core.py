"""Instance/matching data model and welfare computation.

Workers and firms carry nonnegative integer valuations for each other.  A
matching assigns each worker to at most one firm, subject to firm capacities.
All welfare comparisons are done on the exact integer Nash product; the
log-domain welfare is reporting-only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
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
    ints (bool is rejected).
    """

    num_workers: int
    num_firms: int
    capacities: tuple[int, ...]
    worker_vals: tuple[tuple[int, ...], ...]
    firm_vals: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        m, n = self.num_workers, self.num_firms
        if m <= 0 or n <= 0:
            raise ValueError("need at least one worker and one firm")
        if len(self.capacities) != n:
            raise ValueError("capacities length must equal num_firms")
        # plain ints only: bool is an int subclass, and a float is no count
        if any(type(c) is not int or c < 0 for c in self.capacities):
            raise ValueError("capacities must be nonnegative integers")
        if len(self.worker_vals) != m or any(len(r) != n for r in self.worker_vals):
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
        m = len(worker_vals)
        n = len(capacities)
        return cls(
            num_workers=m,
            num_firms=n,
            capacities=tuple(capacities),
            worker_vals=tuple(tuple(r) for r in worker_vals),
            firm_vals=tuple(tuple(r) for r in firm_vals),
        )

    @property
    def m(self) -> int:
        return self.num_workers

    @property
    def n(self) -> int:
        return self.num_firms

    @property
    def v_max(self) -> int:
        cached = getattr(self, "_v_max", None)
        if cached is None:
            cached = max(max((max(r) for r in self.worker_vals), default=0),
                         max((max(r) for r in self.firm_vals), default=0))
            object.__setattr__(self, "_v_max", cached)
        return cached

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
        if inst.m != obj["m"] or inst.n != obj["n"]:
            raise ValueError("m/n fields disagree with matrix shapes")
        return inst


@dataclass(frozen=True)
class Matching:
    """Per-worker firm assignment; entry is a firm index or UNMATCHED."""

    assignment: tuple[Optional[int], ...]

    @classmethod
    def of(cls, assignment: Sequence[Optional[int]]) -> "Matching":
        return cls(tuple(assignment))

    def firm_bundle(self, f: int) -> list[int]:
        return [w for w, g in enumerate(self.assignment) if g == f]

    def to_json(self) -> dict:
        return {"assignment": [a for a in self.assignment]}

    @classmethod
    def from_json(cls, obj: dict) -> "Matching":
        return cls.of(obj["assignment"])


@dataclass(frozen=True)
class NashValue:
    """Exact Nash product paired with a reporting-only log welfare.

    Ordering is by the exact integer product; log_welfare is
    (1/(n+m)) * sum(ln u_i) and is None when the product is zero.
    """

    product: int
    log_welfare: Optional[float]

    @property
    def is_zero(self) -> bool:
        return self.product == 0

    @classmethod
    def from_utilities(cls, utilities: Sequence[int]) -> "NashValue":
        product = 1
        for u in utilities:
            product *= u
            if product == 0:
                return cls(0, None)
        num_agents = len(utilities)
        log_w = sum(math.log(u) for u in utilities) / num_agents
        return cls(product, log_w)

    @classmethod
    def zero(cls) -> "NashValue":
        return cls(0, None)

    def __lt__(self, other: "NashValue") -> bool:
        return self.product < other.product

    def __le__(self, other: "NashValue") -> bool:
        return self.product <= other.product


@dataclass(frozen=True)
class DegreeProfile:
    worker_degrees: tuple[int, ...]
    firm_degrees: tuple[int, ...]

    @property
    def max_degree(self) -> int:
        return max(max(self.worker_degrees), max(self.firm_degrees))


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str


def utility_of_worker(inst: Instance, mu: Matching, w: int) -> int:
    """Value the worker has for its matched firm; 0 if unmatched."""
    if not 0 <= w < inst.m:
        raise IndexError(f"worker index {w} out of range")
    f = mu.assignment[w]
    if f is UNMATCHED:
        return 0
    return inst.worker_vals[w][f]


def utility_of_firm(inst: Instance, mu: Matching, f: int) -> int:
    """Sum of the firm's values for its matched workers."""
    if not 0 <= f < inst.n:
        raise IndexError(f"firm index {f} out of range")
    return sum(inst.firm_vals[f][w] for w, g in enumerate(mu.assignment) if g == f)


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
    return NashValue.from_utilities(all_utilities(inst, mu))


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


def degree_profile(inst: Instance) -> DegreeProfile:
    """Degrees in the graph with 0--0 pairs removed: an edge (w, f) survives
    iff either side values the other positively."""
    wdeg = [0] * inst.m
    fdeg = [0] * inst.n
    for w in range(inst.m):
        for f in range(inst.n):
            if inst.worker_vals[w][f] > 0 or inst.firm_vals[f][w] > 0:
                wdeg[w] += 1
                fdeg[f] += 1
    return DegreeProfile(tuple(wdeg), tuple(fdeg))


def binarize(inst: Instance) -> Instance:
    """Replace every positive valuation by 1."""
    return Instance.create(
        inst.capacities,
        [[1 if v > 0 else 0 for v in row] for row in inst.worker_vals],
        [[1 if v > 0 else 0 for v in row] for row in inst.firm_vals],
    )


def load_instance(path: str) -> Instance:
    with open(path) as fh:
        return Instance.from_json(json.load(fh))


def load_matching(path: str) -> Matching:
    with open(path) as fh:
        return Matching.from_json(json.load(fh))
