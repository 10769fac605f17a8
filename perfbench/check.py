"""Untimed checker for the benchmark's solves.

A solve fails when it raises, returns a matching ``core.validate`` rejects,
reports a product ``core.nash_value`` does not reproduce, differs from an
independent exact reference, or misses its approximation bound.  Bounds are
the ones tests/test_acceptance.py states, decided on exact integers:
greedy product^2 >= opt, qptas got*(1+eps)^(m+n) >= opt, fptas
got*(1+eps)^(n+1) >= opt.

References never come from the solver under test: the oracle (limit raised)
for every exact solver, solve_dp for the oracle itself, the planted matching
for singlefirm and feasible at poly-large sizes, and
scipy.optimize.linear_sum_assignment for cap1 there.  symbin, deg2 and
deg3cap2 have no reference at poly-large sizes; there they are checked for
validity and re-scoring only, and small instances from the same generators
are compared with the oracle.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

from nswmatch import cli
from nswmatch.core import Instance, Matching, nash_value, validate
from nswmatch.exact import solve_dp
from nswmatch.oracle import solve_bruteforce

import workloads

REJECTED = ("infeasible-domain", "budget-exceeded")
ORACLE_LIMIT = 10 ** 9


def _survives(inst: Instance, w: int, f: int) -> bool:
    return inst.worker_vals[w][f] > 0 or inst.firm_vals[f][w] > 0


def in_domain(algo: str, inst: Instance) -> bool:
    """The benchmark's own statement of each solver's documented domain; a
    rejection outside it is an outcome, inside it a wrong answer."""
    m, n, caps = inst.m, inst.n, inst.capacities
    values = [v for row in inst.worker_vals for v in row]
    values += [v for row in inst.firm_vals for v in row]
    if algo == "dp2":
        return max(caps) <= 4
    if algo == "cap1":
        return all(c == 1 for c in caps)
    if algo == "buckets":
        return n <= 5 and len(set(values)) <= 8
    if algo == "greedy":
        return min(values) > 0 and sum(caps) >= m
    if algo == "qptas":
        return n <= 5
    if algo == "symbin":
        return all(inst.worker_vals[w][f] == inst.firm_vals[f][w] in (0, 1)
                   for w in range(m) for f in range(n))
    if algo == "deg2":
        return (all(sum(_survives(inst, w, f) for f in range(n)) <= 2 for w in range(m))
                and all(sum(_survives(inst, w, f) for w in range(m)) <= 2 for f in range(n)))
    if algo == "deg3cap2":
        return all(sum(_survives(inst, w, f) for w in range(m)) <= 3 for f in range(n))
    if algo == "singlefirm":
        return all(sum(v > 0 for v in row) == 1 for row in inst.worker_vals)
    return True


def _upper_bound(inst: Instance) -> int:
    """Nash product bound: every worker at its best firm, every firm with
    its c_f most valued workers."""
    bound = 1
    for row in inst.worker_vals:
        bound *= max(row)
    for f, row in enumerate(inst.firm_vals):
        bound *= sum(sorted(row, reverse=True)[:inst.capacities[f]])
    return bound


def _answer(rec):
    """What a record answers, for comparing two passes."""
    if isinstance(rec, Exception):
        return (type(rec), str(rec))
    matching = rec["matching"]
    return (rec["status"], rec["nash_product"], rec.get("feasible"),
            None if matching is None else tuple(matching))


def _ratio_below(a: tuple, b: tuple) -> bool:
    """(g/o)^(1/k) < (G/O)^(1/K) for a = (g, o, k), b = (G, O, K), exactly."""
    g, o, k = a
    big_g, big_o, big_k = b
    return g ** big_k * big_o ** k < big_g ** k * o ** big_k


class Checker:
    """Checks the records of each pass and tallies failures by cause."""

    def __init__(self, workload: str, batch: workloads.Batch):
        self.batch = batch
        self.workload = workload
        # at poly-large sizes the oracle is out of reach
        self.oracle_reachable = workload != "poly-large"
        # only small-batch runs solvers outside their domain on purpose
        self.rejections_allowed = workload == "small-batch"
        self._refs: dict = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.causes: Counter = Counter()
        self.worst_ratio = None  # (got, opt, agents)
        self._verdicts: dict = {}
        self._deferred: list = []  # (instance, cap1 product) for finish()

    # references, cached per instance
    def _ref(self, kind: str, i: int) -> int:
        key = (kind, i)
        if key not in self._refs:
            inst = self.batch.instances[i]
            if kind == "oracle":
                value = solve_bruteforce(inst, limit=ORACLE_LIMIT).value.product
            elif kind == "dp":
                value = solve_dp(inst)[1].product
            elif kind == "exact-loads":
                two = Instance.create([2] * inst.n, inst.worker_vals, inst.firm_vals)
                value = solve_bruteforce(two, limit=ORACLE_LIMIT).value.product
            elif kind == "planted":
                value = nash_value(inst, self.batch.planted[i]).product
            elif kind == "upper-bound":
                value = _upper_bound(inst)
            else:
                raise KeyError(kind)
            self._refs[key] = value
        return self._refs[key]

    def _optimum(self, i: int):
        """Exact optimum of instance i, or None where none is reachable."""
        if self.oracle_reachable:
            return self._ref("oracle", i)
        return None

    def check_pass(self, records: list) -> None:
        for k, (cell, rec) in enumerate(zip(self.batch.cells, records)):
            self.attempted += 1
            # an answer identical to one already checked gets its verdict
            answer = _answer(rec)
            seen = self._verdicts.get(k)
            if seen is not None and seen[0] == answer:
                cause, wrong = seen[1]
            else:
                cause, wrong = self._check(cell, rec)
                self._verdicts[k] = (answer, (cause, wrong))
            if cause is not None:
                self._fail(cell.algo, cause, wrong)
            elif cell.algo == "cap1" and not self.oracle_reachable:
                self._deferred.append((cell.inst, int(rec["nash_product"])))

    def _fail(self, algo: str, cause: str, wrong: bool) -> None:
        self.failed += 1
        self.wrong += wrong
        self.causes[(algo, cause)] += 1

    def _check(self, cell, rec):
        """(None, False) when the solve passes, else (cause, wrong answer)."""
        if isinstance(rec, Exception):
            text = str(rec).splitlines()[0] if str(rec) else ""
            return f"raised {type(rec).__name__}: {text[:60]}", False
        i, algo = cell.inst, cell.algo
        inst = self.batch.instances[i]
        status = rec["status"]
        if status in REJECTED:
            if self.rejections_allowed and not in_domain(algo, inst):
                return None, False
            return f"{status} inside the domain", True
        if status not in ("ok", "zero-optimum"):
            return f"unknown status {status!r}", True
        got = int(rec["nash_product"])
        if (status == "zero-optimum") != (got == 0):
            return "status disagrees with product", True
        if rec["matching"] is not None:
            mu = Matching.of(rec["matching"])
            violation = validate(inst, mu)
            if violation is not None:
                return f"invalid matching ({violation.kind})", True
            if nash_value(inst, mu).product != got:
                return "product not reproduced by nash_value", True
        elif got != 0 or algo not in ("feasible", "deg3cap2"):
            return "no matching returned", True

        if algo == "feasible":
            return self._check_feasible(i, rec, got)
        if algo == "deg3cap2":
            return self._check_deg3cap2(i, inst, got)
        if algo in workloads.APPROX_SOLVERS:
            return self._check_approx(cell, inst, got)
        ref = self._exact_reference(i, algo)
        if ref is not None and got != ref:
            return "product differs from reference", True
        return None, False

    def _exact_reference(self, i: int, algo: str):
        if algo == "oracle":
            return self._ref("dp", i)
        if self.oracle_reachable:
            return self._ref("oracle", i)
        if algo == "singlefirm" and self.batch.planted[i] is not None:
            return self._ref("planted", i)
        return None

    def _check_feasible(self, i: int, rec: dict, got: int):
        if self.batch.planted[i] is not None:
            positive = self._ref("planted", i) > 0
        else:
            positive = self._optimum(i) > 0
        if rec.get("feasible") is not positive:
            return "feasibility verdict differs from reference", True
        if positive and got == 0:
            return "witness has a zero utility", True
        return None, False

    def _check_deg3cap2(self, i: int, inst: Instance, got: int):
        # the solver's problem gives every firm exactly two workers
        if inst.m != 2 * inst.n or min(inst.capacities) < 2:
            return (None, False) if got == 0 else ("positive product off the domain", True)
        if not self.oracle_reachable:
            return None, False
        if got != self._ref("exact-loads", i):
            return "product differs from reference", True
        return None, False

    def _check_approx(self, cell, inst: Instance, got: int):
        opt = self._optimum(cell.inst)
        if opt is None:
            if cell.algo != "greedy":
                return None, False
            opt = self._ref("upper-bound", cell.inst)  # bound only, not exact
        elif got > opt:
            return "product above the optimum", True
        agents = inst.m + inst.n
        if cell.algo == "greedy":
            ok = got * got >= opt
        else:
            eps = Fraction(cell.eps)
            num, den = eps.numerator + eps.denominator, eps.denominator
            k = agents if cell.algo == "qptas" else inst.n + 1
            ok = got * num ** k >= opt * den ** k
        if opt > 0:
            candidate = (got, opt, agents)
            if self.worst_ratio is None or _ratio_below(candidate, self.worst_ratio):
                self.worst_ratio = candidate
        return (None, False) if ok else ("approximation bound missed", True)

    def finish(self) -> None:
        """Checks that import scipy; run them after peak memory is read."""
        if self._deferred:
            from scipy.optimize import linear_sum_assignment

            refs = {}
            for i, got in self._deferred:
                if i not in refs:
                    refs[i] = _assignment_product(self.batch.instances[i],
                                                  linear_sum_assignment)
                if got < refs[i]:
                    self._fail("cap1", "below the linear_sum_assignment product", True)
            self._deferred.clear()

    def check_small_families(self, instances: list) -> None:
        """Untimed: solve small instances of the poly-large families and
        compare them with the oracle.  A mismatch makes the run incorrect
        but is not one of the timed batch's solves."""
        for inst, algo in instances:
            try:
                rec = cli.run_algo(algo, inst)
            except Exception as exc:  # reported, like a failed batch solve
                self.wrong += 1
                self.causes[(algo, f"small instance raised {type(exc).__name__}")] += 1
                continue
            got = int(rec["nash_product"])
            if algo == "deg3cap2":
                two = Instance.create([2] * inst.n, inst.worker_vals, inst.firm_vals)
                opt = solve_bruteforce(two, limit=ORACLE_LIMIT).value.product
            else:
                opt = solve_bruteforce(inst, limit=ORACLE_LIMIT).value.product
            if rec["status"] in REJECTED or got != opt:
                self.wrong += 1
                self.causes[(algo, "small instance differs from oracle")] += 1

    @property
    def ratio(self) -> float:
        """Smallest per-agent ratio (got / opt)^(1/(m+n)) seen, 0 if none."""
        if self.worst_ratio is None:
            return 0.0
        got, opt, agents = self.worst_ratio
        if got == 0:
            return 0.0
        return math.exp((math.log(got) - math.log(opt)) / agents)


def _assignment_product(inst: Instance, linear_sum_assignment) -> int:
    """Exact Nash product of the float-optimal assignment on log weights."""
    import numpy as np

    cost = np.full((inst.m, inst.n), 1e9)
    for w in range(inst.m):
        for f in range(inst.n):
            prod = inst.worker_vals[w][f] * inst.firm_vals[f][w]
            if prod > 0:
                cost[w, f] = -math.log(prod)
    rows, cols = linear_sum_assignment(cost)
    assignment = [None] * inst.m
    for w, f in zip(rows.tolist(), cols.tolist()):
        assignment[w] = f
    return nash_value(inst, Matching.of(assignment)).product
