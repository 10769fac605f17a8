"""How fast the host ran Python during a run, measured alongside the solves.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by a
third or more over seconds to minutes.  A Meter runs a short fixed piece of
pure-Python work (a tick) between solves, one for each TICK_EVERY_S solved
(up to MAX_BURST at a time), so the ticks sample the host's speed evenly
over the run.  ``factor`` is (REFERENCE_TICK_S / median tick) ** EXPONENT:
times multiplied by it are what the same work would take on a host where a
tick takes REFERENCE_TICK_S, called seconds at reference speed.  The tick is
benchmark code, so a change to nswmatch moves the solve times and not the
ticks.

The solvers' speed follows the tick's only in part.  Over 22 passes of
poly-large and 29 of dp-dense on a 2-vCPU shared VM, with ticks and solves
interleaved, log pass time against log tick time had a slope of 0.52 and
0.56, a slope that noise in the ticks biases low.  Exponent 1
over-corrected in the periods when the tick ran fastest.  Across runs of
five to ten seeds, exponents 0.5 and 0.75 spread about equally (0, 0.25,
0.5, 0.75 and 1 were tried), and between two sets of runs made minutes
apart, when the host had slowed, 0.75 moved the medians of dp-dense and
dp-sparse-bigval least.  One factor for the whole run, rather than one per
solve from the ticks around it, also spread less: the solves follow the
ticks over a run, not from one solve to the next.  A tick mixed with random
reads over a large array did no better.
"""

from __future__ import annotations

import statistics
import time

# about the median tick on the 2-vCPU VM the workloads were sized on; it
# sets the scale of the reported times, not their spread
REFERENCE_TICK_S = 0.0012
EXPONENT = 0.75
TICK_EVERY_S = 0.02  # solving time per tick
MAX_BURST = 16  # ticks run at once after a long solve, at most


def tick_loop() -> int:
    """The fixed work of one tick, in the style of the solvers' inner
    loops: submask enumeration into fresh lists, bit tricks, products of
    multi-word integers, and dict stores."""
    weights = [3, 1, 4, 1, 5, 9, 2, 6, 5]
    full = (1 << len(weights)) - 1
    prods = [1] * (full + 1)
    for s in range(1, full + 1):
        low = (s & -s).bit_length() - 1
        prods[s] = prods[s & (s - 1)] * (weights[low] * 1_000_003 + 7)
    best = {}
    top = 0
    for s in range(0, full + 1, 3):
        subs = []
        sub = s
        while True:
            subs.append(sub)
            if sub == 0:
                break
            sub = (sub - 1) & s
        for sub in subs:
            cand = prods[sub] * prods[s ^ sub]
            if cand > top:
                top = cand
        best[s] = top
    return len(best)


class Meter:
    """The ticks of one run, in the order they ran."""

    def __init__(self):
        self.took: list = []  # ns each tick took
        self.last = time.perf_counter_ns()

    def tick(self, count: int = 1) -> None:
        clock = time.perf_counter_ns
        for _ in range(count):
            start = clock()
            tick_loop()
            self.took.append(clock() - start)
        self.last = clock()

    def catch_up(self) -> None:
        """One tick per TICK_EVERY_S since the last tick, up to MAX_BURST."""
        due = int((time.perf_counter_ns() - self.last) / (TICK_EVERY_S * 1e9))
        if due:
            self.tick(min(due, MAX_BURST))

    def median_tick_s(self, first: int = 0, stop=None) -> float:
        """Median of ticks first..stop-1."""
        return statistics.median(self.took[first:stop]) / 1e9

    def factor(self, first: int = 0, stop=None) -> float:
        """What times taken while ticks first..stop-1 ran are multiplied
        by to give them at reference speed."""
        return (REFERENCE_TICK_S / self.median_tick_s(first, stop)) ** EXPONENT
