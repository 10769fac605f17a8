"""Seeded workload generation for the benchmark.

Every workload is built from one ``random.Random`` seeded from the workload
name and the seed, so the same seed gives the same instances.  Only
``Instance`` objects, solver names and eps strings reach nswmatch; what the
generators planted is kept here, for the checker.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional

from nswmatch import generators
from nswmatch.core import Instance, Matching

ALL_SOLVERS = ("oracle", "cap1", "dp", "dp2", "buckets", "greedy", "qptas",
               "fptas", "symbin", "deg2", "deg3cap2", "singlefirm", "feasible")
EPS_SOLVERS = ("qptas", "fptas")
APPROX_SOLVERS = ("greedy", "qptas", "fptas")


@dataclass(frozen=True)
class Cell:
    """One solve of the batch: solver `algo` on instance `inst`."""

    inst: int
    algo: str
    eps: Optional[str]


@dataclass
class Batch:
    """A workload's fixed batch of solves plus what the checker needs.

    planted[i] is a matching the generator built into instances[i] (a
    witness of a positive optimum) or None.  warmup holds one small
    (instance, algo, eps) solve per solver.
    """

    instances: list = field(default_factory=list)
    planted: list = field(default_factory=list)
    cells: list = field(default_factory=list)
    warmup: list = field(default_factory=list)

    def add(self, inst: Instance, algos, eps=None, planted=None):
        self.instances.append(inst)
        self.planted.append(planted)
        idx = len(self.instances) - 1
        for algo in algos:
            self.cells.append(Cell(idx, algo, eps if algo in EPS_SOLVERS else None))


def _seed(rng: random.Random) -> int:
    return rng.randrange(2 ** 31)


def _top_up(rng: random.Random, caps: list, m: int) -> list:
    caps = list(caps)
    while sum(caps) < m:
        caps[rng.randrange(len(caps))] += 1
    return caps


# ---------------------------------------------------------------- dp-dense

def _dense(rng: random.Random, m: int, n: int = 3, caps=None) -> Instance:
    """gen_random at density 1 and values 1..5, so every bundle is positive.
    Capacities default to ceil(m/n), as `nswmatch generate` sets them."""
    caps = caps or [-(-m // n)] * n
    return generators.gen_random(m, n, caps, 5, 1.0, _seed(rng)).instance


def dp_dense(rng: random.Random) -> Batch:
    # Solve times group by (algo, m).  Over 3 passes the counts put the
    # median solve inside the dp m = 10 group, and the tail inside the
    # fifteen dp2 m = 12 and dp m = 13 solves, which cost about the same.
    # On dense instances the cost of dp and dp2 is set by m and the
    # capacities alone, so neither depends on which instances the seed
    # drew, as the oracle's pruning and the fptas ladder do.
    b = Batch()
    for k in range(30):
        b.add(_dense(rng, 10), ("dp", "oracle") if k < 4 else ("dp",))
    for _ in range(4):  # capacity 4: inside dp2's constant-capacity domain
        b.add(_dense(rng, 12), ("dp", "dp2", "fptas", "oracle"), "1/2")
    b.add(_dense(rng, 13), ("dp",))
    small = _dense(rng, 6)
    b.warmup = [(small, a, "1/2" if a in EPS_SOLVERS else None)
                for a in ("dp", "dp2", "fptas", "oracle")]
    return b


def calibration(rng: random.Random, shapes) -> Batch:
    """Three instances per size m of the (algo, m) shapes the ROADMAP
    baseline quotes: n = 3, values 1..5, capacities ceil(m/3)."""
    b = Batch()
    for m in sorted({m for _algo, m in shapes}):
        algos = [algo for algo, size in shapes if size == m]
        for _ in range(3):
            b.add(_dense(rng, m), algos, "1/2")
    return b


# -------------------------------------------------------- dp-sparse-bigval

_LN_VMAX = math.log(10 ** 18)


def _sparse_bigval(rng: random.Random, m: int, n: int = 4) -> tuple[Instance, Matching]:
    """Each worker values one planted firm and the firm values it back; any
    other pair is mutually positive with probability 0.3.  Values are
    log-uniform in [1, 10^18].  The planted loads are as even as m and n
    allow and every capacity is one above its planted load.  The planted
    matching covers every firm, so the optimum is positive."""
    def val() -> int:
        return max(1, int(math.exp(rng.random() * _LN_VMAX)))

    planted = [w % n for w in range(m)]
    rng.shuffle(planted)
    worker_vals = [[0] * n for _ in range(m)]
    firm_vals = [[0] * m for _ in range(n)]
    for w in range(m):
        for f in range(n):
            if f == planted[w] or rng.random() < 0.3:
                worker_vals[w][f] = val()
                firm_vals[f][w] = val()
    caps = [planted.count(f) + 1 for f in range(n)]
    return Instance.create(caps, worker_vals, firm_vals), Matching.of(planted)


def dp_sparse_bigval(rng: random.Random) -> Batch:
    # dp visits every submask within the capacities whatever the values,
    # so with the capacities fixed by m and n its cost is much the same on
    # every instance; fptas and oracle costs depend on the values, and
    # eight fptas instances average that out.  Over 3 passes the median
    # solve is in the middle of the fptas group and the tail a dp one.
    b = Batch()
    for k in range(8):
        inst, planted = _sparse_bigval(rng, 13)
        algos = ("dp", "fptas", "oracle") if k < 3 else ("dp", "fptas") if k < 5 else ("fptas",)
        b.add(inst, algos, "1/2", planted)
    small, _ = _sparse_bigval(rng, 6)
    b.warmup = [(small, a, "1/2" if a in EPS_SOLVERS else None)
                for a in ("dp", "fptas", "oracle")]
    return b


# -------------------------------------------------------------- poly-large

def _single_positive(rng: random.Random, m: int, n: int) -> tuple[Instance, Matching]:
    """Each worker values exactly one (planted) firm; firms value every
    worker.  Capacities cover the planted loads, so the planted matching is
    the singlefirm optimum and a nonzero-Nash witness."""
    planted = [w if w < n else rng.randrange(n) for w in range(m)]
    worker_vals = []
    for f in planted:
        row = [0] * n
        row[f] = rng.randint(1, 5)
        worker_vals.append(row)
    values = range(1, 6)
    firm_vals = [rng.choices(values, k=m) for _ in range(n)]
    loads = [0] * n
    for f in planted:
        loads[f] += 1
    caps = [load + rng.randint(0, 3) for load in loads]
    return Instance.create(caps, worker_vals, firm_vals), Matching.of(planted)


def _symbin(rng: random.Random, m: int, n: int, p: float, cap_lo: int, cap_hi: int) -> Instance:
    """Symmetric 0/1 values with edge probability p; firm f always values
    worker f, capacities are topped up to cover all workers."""
    worker_vals = [[1 if rng.random() < p else 0 for _ in range(n)] for _ in range(m)]
    for f in range(min(m, n)):
        worker_vals[f][f] = 1
    firm_vals = [[worker_vals[w][f] for w in range(m)] for f in range(n)]
    caps = _top_up(rng, [rng.randint(cap_lo, cap_hi) for _ in range(n)], m)
    return Instance.create(caps, worker_vals, firm_vals)


def _deg2_cycles(rng: random.Random, k: int) -> Instance:
    """m = n = k agents in disjoint alternating worker/firm cycles of 2 to
    10 workers each, values 1..5 on both sides of every cycle edge."""
    worker_vals = [[0] * k for _ in range(k)]
    firm_vals = [[0] * k for _ in range(k)]
    start = 0
    while start < k:
        length = min(rng.randint(2, 10), k - start)
        if k - start - length == 1:
            length += 1
        for j in range(length):
            w = start + j
            for f in (start + j, start + (j + 1) % length):
                worker_vals[w][f] = rng.randint(1, 5)
                firm_vals[f][w] = rng.randint(1, 5)
        start += length
    caps = [rng.randint(1, 2) for _ in range(k)]
    return Instance.create(caps, worker_vals, firm_vals)


def _deg3_cap2(rng: random.Random, n: int) -> Instance:
    """m = 2n, capacity 2: each firm gets a planted pair of workers plus one
    random extra neighbour, so firm degrees are at most 3."""
    m = 2 * n
    perm = list(range(m))
    rng.shuffle(perm)
    worker_vals = [[0] * n for _ in range(m)]
    firm_vals = [[0] * m for _ in range(n)]
    for f in range(n):
        for w in sorted({perm[2 * f], perm[2 * f + 1], rng.randrange(m)}):
            worker_vals[w][f] = rng.randint(1, 5)
            firm_vals[f][w] = rng.randint(1, 5)
    return Instance.create([2] * n, worker_vals, firm_vals)


def poly_large(rng: random.Random) -> Batch:
    # feasible/singlefirm at m = 12 000 are sized from the thousands-of-agents
    # target; their Nash products pass 4300 digits, which str() rejects.
    # Five solves under 0.3 s, then three cap1 solves at m = n = 300, whose
    # cost varies little from instance to instance, then five slower ones:
    # over 3 passes the median solve falls in the middle of the cap1 group
    # and the tail among the slower five.
    b = Batch()
    for m in (5000, 12000):
        inst, planted = _single_positive(rng, m, 100)
        b.add(inst, ("feasible", "singlefirm"), planted=planted)
    for k in (300, 300, 300, 450):
        b.add(_dense(rng, k, k, [1] * k), ("cap1",))
    b.add(_symbin(rng, 1000, 100, 0.2, 10, 12), ("symbin",))
    b.add(_deg2_cycles(rng, 2000), ("deg2",))
    for n in (300, 450):
        b.add(_deg3_cap2(rng, n), ("deg3cap2",))
    b.add(_dense(rng, 150, 10, [15] * 10), ("greedy",))
    b.warmup = [
        (_single_positive(rng, 50, 5)[0], "feasible", None),
        (_single_positive(rng, 50, 5)[0], "singlefirm", None),
        (_dense(rng, 10, 10, [1] * 10), "cap1", None),
        (_symbin(rng, 30, 5, 0.2, 5, 8), "symbin", None),
        (_deg2_cycles(rng, 20), "deg2", None),
        (_deg3_cap2(rng, 6), "deg3cap2", None),
        (_dense(rng, 15, 3, [5] * 3), "greedy", None),
    ]
    return b


def poly_small_checks(rng: random.Random) -> list[tuple[Instance, str]]:
    """Small instances from the poly-large generators of the solvers that
    have no independent reference at full size; the checker compares them
    with the oracle."""
    out = []
    for _ in range(5):
        out.append((_symbin(rng, 8, 3, 0.5, 1, 3), "symbin"))
        out.append((_deg2_cycles(rng, 6), "deg2"))
        out.append((_deg3_cap2(rng, 4), "deg3cap2"))
    return out


# ------------------------------------------------------------- small-batch
# The families follow the instance suite of tests/test_acceptance.py:
# m <= 8, n <= 4, and the i-th instance of a family takes the suite's
# minority variant (tight capacities, other value ranges) when i % 4 == 0
# (i % 5 == 0 for the general family).

def _random_general(rng, m=None, n=None, density=1.0, cap_hi=3) -> Instance:
    m = m if m is not None else rng.randint(1, 8)
    n = n if n is not None else rng.randint(1, 4)
    caps = [rng.randint(1, cap_hi) for _ in range(n)]

    def cell():
        v = rng.randint(1, 5)
        return v if rng.random() < density else 0

    worker_vals = [[cell() for _ in range(n)] for _ in range(m)]
    firm_vals = [[cell() for _ in range(m)] for _ in range(n)]
    return Instance.create(caps, worker_vals, firm_vals)


def _topped(rng, inst: Instance) -> Instance:
    return Instance.create(_top_up(rng, inst.capacities, inst.m),
                           inst.worker_vals, inst.firm_vals)


def _small_general(rng, i):
    inst = _random_general(rng, density=rng.choice([0.6, 0.8, 1.0]))
    return inst if i % 5 == 0 else _topped(rng, inst)


def _small_cap1(rng, i):
    n = rng.randint(1, 4)
    m = n if rng.random() < 0.75 else rng.randint(1, 6)
    return _random_general(rng, m=m, n=n, cap_hi=1, density=0.9)


def _small_symbin(rng, i):
    if i % 4 == 0:
        m, n = rng.randint(1, 8), rng.randint(1, 4)
        worker_vals = [[rng.randint(0, 1) for _ in range(n)] for _ in range(m)]
        caps = [rng.randint(1, 3) for _ in range(n)]
    else:
        n = rng.randint(1, 3)
        m = rng.randint(n, 8)
        worker_vals = [[int(rng.random() < 0.7) for _ in range(n)] for _ in range(m)]
        for f in range(n):
            worker_vals[f][f] = 1
        caps = _top_up(rng, [rng.randint(1, 3) for _ in range(n)], m)
    firm_vals = [[worker_vals[w][f] for w in range(m)] for f in range(n)]
    return Instance.create(caps, worker_vals, firm_vals)


def _small_deg2(rng, i):
    """Every agent of degree at most 2.  Three in four give each firm one or
    two workers of its own first and size capacities to the firm's degree;
    the rest are random degree-2 graphs with arbitrary capacities."""
    n = rng.randint(1, 4)
    if i % 4 == 0:
        m = rng.randint(1, 8)
        worker_vals = [[0] * n for _ in range(m)]
        firm_vals = [[0] * m for _ in range(n)]
        wdeg, fdeg = [0] * m, [0] * n
        pairs = [(w, f) for w in range(m) for f in range(n)]
        rng.shuffle(pairs)
        for w, f in pairs:
            if wdeg[w] < 2 and fdeg[f] < 2 and rng.random() < 0.7:
                wdeg[w] += 1
                fdeg[f] += 1
                worker_vals[w][f] = rng.randint(0, 4)
                firm_vals[f][w] = rng.randint(0, 4)
                if worker_vals[w][f] == 0 and firm_vals[f][w] == 0:
                    worker_vals[w][f] = 1
        caps = [rng.randint(1, 3) for _ in range(n)]
        return Instance.create(caps, worker_vals, firm_vals)
    m = rng.randint(n, 8)
    worker_vals = [[0] * n for _ in range(m)]
    firm_vals = [[0] * m for _ in range(n)]
    wdeg, fdeg = [0] * m, [0] * n

    def attach(w, f):
        wdeg[w] += 1
        fdeg[f] += 1
        worker_vals[w][f] = rng.randint(1, 4)
        firm_vals[f][w] = rng.randint(1, 4)

    for f in range(n):
        fresh = [w for w in range(m) if wdeg[w] == 0]
        free = fresh or [w for w in range(m) if wdeg[w] < 2]
        for w in rng.sample(free, min(rng.randint(1, 2), len(free))):
            attach(w, f)
    for w in range(m):
        if wdeg[w] == 0:
            open_firms = [f for f in range(n) if fdeg[f] < 2]
            if open_firms:
                attach(w, rng.choice(open_firms))
    return Instance.create([max(1, d) for d in fdeg], worker_vals, firm_vals)


def _small_deg3cap2(rng, i):
    n = rng.randint(1, 4)
    m = 2 * n
    worker_vals = [[0] * n for _ in range(m)]
    firm_vals = [[0] * m for _ in range(n)]
    for f in range(n):
        for w in rng.sample(range(m), rng.randint(2, min(3, m))):
            worker_vals[w][f] = rng.randint(1, 4)
            firm_vals[f][w] = rng.randint(0, 4)
    return Instance.create([2] * n, worker_vals, firm_vals)


def _small_singlefirm(rng, i):
    n = rng.randint(1, 4)
    m = rng.randint(n, 8)
    worker_vals = [[0] * n for _ in range(m)]
    for w in range(m):
        f = w if w < n and i % 4 else rng.randrange(n)
        worker_vals[w][f] = rng.randint(1, 5)
    firm_vals = [[rng.randint(0 if rng.random() < 0.2 else 1, 5) for _ in range(m)]
                 for _ in range(n)]
    caps = [rng.randint(1, 3) for _ in range(n)]
    if i % 4:
        caps = _top_up(rng, caps, m)
    return Instance.create(caps, worker_vals, firm_vals)


# family mix of the acceptance suite: per 30 instances, 12 general, 4 each
# of cap1, symbin and deg2, 3 each of deg3cap2 and singlefirm
_SMALL_MIX = ((12, _small_general), (4, _small_cap1), (4, _small_symbin),
              (4, _small_deg2), (3, _small_deg3cap2), (3, _small_singlefirm))
SMALL_BATCH_SIZE = 1200


def _relabel(rng: random.Random, inst: Instance) -> Instance:
    """The same instance with workers and firms renumbered at random."""
    workers = rng.sample(range(inst.m), inst.m)
    firms = rng.sample(range(inst.n), inst.n)
    return Instance.create(
        [inst.capacities[f] for f in firms],
        [[inst.worker_vals[w][f] for f in firms] for w in workers],
        [[inst.firm_vals[f][w] for w in workers] for f in firms])


def small_batch(rng: random.Random) -> Batch:
    # The pool is drawn once from a fixed seed; a run's seed renumbers the
    # agents of every instance and shuffles their order.  The smallest
    # approximation ratio over tiny instances is set by a few rare ones, so
    # drawing a fresh pool per seed would make it vary from seed to seed.
    pool_rng = random.Random("small-batch pool")
    pool = []
    while len(pool) < SMALL_BATCH_SIZE:
        for count, make in _SMALL_MIX:
            for _ in range(count):
                pool.append(make(pool_rng, len(pool)))
    rng.shuffle(pool)
    b = Batch()
    for inst in pool:
        b.add(_relabel(rng, inst), ALL_SOLVERS, "1/1")
    first = b.instances[0]
    b.warmup = [(first, a, "1/1" if a in EPS_SOLVERS else None) for a in ALL_SOLVERS]
    return b


WORKLOADS = {
    "dp-dense": dp_dense,
    "dp-sparse-bigval": dp_sparse_bigval,
    "poly-large": poly_large,
    "small-batch": small_batch,
}

# Passes a run makes at --seconds 15, the run length BENCHMARK.json sets:
# about 15 s of solving on the 2-vCPU VM the batches were sized on.  Other
# --seconds scale the count.  It is fixed rather than timed so that the
# solves sampled, and the solve each percentile lands on, do not depend on
# how fast the program is; the batch comments rely on these counts.
REFERENCE_SECONDS = 15
PASSES = {
    "dp-dense": 3,
    "dp-sparse-bigval": 3,
    "poly-large": 3,
    "small-batch": 5,
}


def passes(name: str, seconds: float) -> int:
    return max(1, round(PASSES[name] * seconds / REFERENCE_SECONDS))


def build(name: str, seed: int) -> Batch:
    return WORKLOADS[name](random.Random(f"{name}/{seed}"))
