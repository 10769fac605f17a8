"""Span tracing of nswmatch from outside the program.

Each target, keyed by (module, name), is wrapped for the traced passes only.
A module-level function is rebound in every nswmatch module that imported it
by name, so calls through any of those names are recorded.  A target whose
name no longer exists is reported as absent instead of failing the run.

Every call records one span: name, start, end, parent span and solve id.
Spans stay in memory and are folded into per-name self times (the span minus
the part its child spans cover) and call counts after each traced pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

# (module, name) -> metric prefix "<module>.<name>" (leading underscores
# dropped).  Names with a dot are methods, looked up on the class.
TARGETS = (
    ("cli", "run_algo"),
    ("core", "Instance.create"),
    ("core", "nash_value"),
    ("core", "degree_profile"),
    ("generators", "gen_random"),
    ("oracle", "solve_bruteforce"),
    ("exact", "solve_dp"),
    ("exact", "solve_dp_bounded_capacity"),
    ("exact", "_bundle_tables"),
    ("exact", "solve_capacity_one"),
    ("exact", "solve_exact_bucketing"),
    ("approx", "_level_dp"),
    ("approx", "fptas_polymul"),
    ("approx", "LevelLadder.level_of"),
    ("approx", "qptas_bucketing"),
    ("approx", "greedy_submodular"),
    ("graphalgs", "max_weight_bipartite_matching"),
    ("graphalgs", "feasible_flow_with_lower_bounds"),
    ("graphalgs", "max_weight_perfect_matching_general"),
    ("feasibility", "exists_nonzero_nash"),
    ("restricted", "solve_symmetric_binary"),
    ("restricted", "solve_degree_two"),
    ("restricted", "solve_degree3_capacity2"),
    ("restricted", "solve_single_positive_firm"),
)
MODULES = ("cli", "core", "generators", "oracle", "exact", "approx",
           "graphalgs", "feasibility", "restricted")
# targets called while the workload is generated, reported for set-up
SETUP_TARGETS = ("core.Instance.create", "generators.gen_random")
# counts read from what a solver returns or fills in
COUNTERS = ("oracle.leaves", "restricted.symbin.iterations")

PACKAGE = "nswmatch"


def metric_name(module: str, name: str) -> str:
    return f"{module}." + ".".join(part.lstrip("_") for part in name.split("."))


class Tracer:
    """Installs span wrappers around TARGETS and aggregates their spans."""

    def __init__(self):
        self.names = [metric_name(m, n) for m, n in TARGETS]
        self.absent: set = set()
        self.solve_id = 0
        self._undo: list = []
        self._stack: list = []
        self._reset_spans()
        self.counters: Counter = Counter()

    def _reset_spans(self):
        self.span_name = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_solve = array("q")

    # ------------------------------------------------------------ install
    def install(self) -> None:
        for idx, (module, name) in enumerate(TARGETS):
            key = self.names[idx]
            try:
                mod = importlib.import_module(f"{PACKAGE}.{module}")
            except ImportError:
                self.absent.add(key)
                continue
            owner = mod
            *path, attr = name.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            raw = (owner.__dict__.get(attr) if isinstance(owner, type)
                   else getattr(owner, attr, None)) if owner is not None else None
            if raw is None:
                self.absent.add(key)
                continue
            func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            if not callable(func):
                self.absent.add(key)
                continue
            wrapper = self._wrap(idx, func, self._hook(key, func))
            new = type(raw)(wrapper) if isinstance(raw, (classmethod, staticmethod)) else wrapper
            self._set(owner, attr, raw, new)
            if owner is mod:
                # rebind every `from .module import name` copy as well
                for other in list(sys.modules.values()):
                    other_name = getattr(other, "__name__", "")
                    if other is mod or not other_name.startswith(PACKAGE):
                        continue
                    for gname, value in list(vars(other).items()):
                        if value is func:
                            self._set(other, gname, func, wrapper)

    def _set(self, owner, attr, old, new) -> None:
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def _hook(self, key: str, func):
        """(pre, post) callables for targets that carry a counter."""
        if key == "oracle.solve_bruteforce":
            def post(result, _kwargs):
                leaves = getattr(result, "num_enumerated", None)
                if leaves is None:
                    self.absent.add("oracle.leaves")
                else:
                    self.counters["oracle.leaves"] += leaves
            return None, post
        if key == "restricted.solve_symmetric_binary":
            try:
                has_stats = "stats" in inspect.signature(func).parameters
            except (TypeError, ValueError):
                has_stats = False
            if not has_stats:
                self.absent.add("restricted.symbin.iterations")
                return None, None

            def pre(args, kwargs):
                if len(args) < 2:
                    kwargs.setdefault("stats", {})

            def post(_result, kwargs):
                stats = kwargs.get("stats") or {}
                self.counters["restricted.symbin.iterations"] += stats.get("iterations", 0)
            return pre, post
        return None, None

    def _wrap(self, idx: int, func, hooks):
        pre, post = hooks
        clock = time.perf_counter_ns
        stack = self._stack
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            # arrays are looked up on the tracer: fold() replaces them
            span = len(tracer.span_name)
            tracer.span_name.append(idx)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_solve.append(tracer.solve_id)
            tracer.span_end.append(0)
            stack.append(span)
            if pre is not None:
                pre(args, kwargs)
            tracer.span_start.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.span_end[span] = clock()
                stack.pop()
            if post is not None:
                post(result, kwargs)
            return result

        return wrapper

    # --------------------------------------------------------- aggregate
    def fold(self) -> tuple[list, list, int]:
        """Self time and calls per target for the spans recorded since the
        last fold, plus the time covered by root spans; clears the spans."""
        count = len(self.span_start)
        self_ns = [0] * len(TARGETS)
        calls = [0] * len(TARGETS)
        child_ns = [0] * count
        covered = 0
        start, end, parent, name = (self.span_start, self.span_end,
                                    self.span_parent, self.span_name)
        # a child span always has a larger index than its parent
        for span in range(count - 1, -1, -1):
            dur = end[span] - start[span]
            self_ns[name[span]] += dur - child_ns[span]
            calls[name[span]] += 1
            if parent[span] >= 0:
                child_ns[parent[span]] += dur
            else:
                covered += dur
        self._reset_spans()
        return self_ns, calls, covered
