"""Instance generators.

Random families for the test harness plus the analytic constructions whose
optimal Nash product hits a known threshold exactly when a planted
combinatorial object (balanced partition, rainbow perfect matching) exists.
Each generator emits metadata: the threshold as an exact (base, num, den)
triple meaning base^(num/den), and an optional certificate.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .core import BudgetExceededError, Instance

# subsets the balanced-partition search may try: C(22, 11) fits, C(24, 12) not
DEFAULT_PARTITION_BUDGET = 1_000_000


@dataclass(frozen=True)
class GeneratedInstance:
    instance: Instance
    kind: str
    theta: Optional[tuple[int, int, int]]  # (base, num, den): base^(num/den)
    seed: Optional[int]
    certificate: Optional[tuple]

    def to_json(self) -> dict:
        obj = self.instance.to_json()
        obj["meta"] = {
            "kind": self.kind,
            "theta": None if self.theta is None else {
                "base": self.theta[0], "num": self.theta[1], "den": self.theta[2]},
            "seed": self.seed,
            "certificate": None if self.certificate is None else list(self.certificate),
        }
        return obj


@dataclass(frozen=True)
class RainbowGraph:
    """Bipartite multigraph on X, Y (|X| = |Y| = r) with colored edges.

    edges[k] = (x, y, color).  At most one edge of a given color joins a
    vertex pair.  The restricted family additionally has every vertex of
    degree 3 and exactly three edges of each color.
    """

    r: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        seen = set()
        for x, y, c in self.edges:
            if not (0 <= x < self.r and 0 <= y < self.r and 0 <= c < self.r):
                raise ValueError("edge endpoint or color out of range")
            if (x, y, c) in seen:
                raise ValueError("duplicate edge of one color on a vertex pair")
            seen.add((x, y, c))
        if not self.edges:
            raise ValueError("edge set must be nonempty")

    def color_counts(self) -> list[int]:
        counts = [0] * self.r
        for _x, _y, c in self.edges:
            counts[c] += 1
        return counts

    def degrees(self) -> tuple[list[int], list[int]]:
        dx = [0] * self.r
        dy = [0] * self.r
        for x, y, _c in self.edges:
            dx[x] += 1
            dy[y] += 1
        return dx, dy

    def in_restricted_family(self) -> bool:
        dx, dy = self.degrees()
        return (all(d == 3 for d in dx + dy)
                and all(c == 3 for c in self.color_counts()))


def gen_random(m: int, n: int, capacities, v_max: int, density: float,
               seed: int) -> GeneratedInstance:
    """Uniform values in [1, v_max], independently zeroed with probability
    1 - density; density 1 keeps everything positive."""
    if v_max < 1:
        raise ValueError("v_max must be at least 1")
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    rng = random.Random(seed)
    # rng.randint(1, v_max) as CPython draws it: k random bits until they
    # fall below v_max, plus one
    getrandbits, uniform, k = rng.getrandbits, rng.random, v_max.bit_length()

    def cell() -> int:
        v = getrandbits(k)
        while v >= v_max:
            v = getrandbits(k)
        return v + 1 if uniform() < density else 0

    worker_vals = [[cell() for _ in range(n)] for _ in range(m)]
    firm_vals = [[cell() for _ in range(m)] for _ in range(n)]
    inst = Instance.create(tuple(capacities), worker_vals, firm_vals)
    return GeneratedInstance(inst, "random", None, seed, None)


def has_balanced_partition(a) -> Optional[tuple[int, ...]]:
    """Subset of size len(a)/2 summing to half the total, if one exists.
    An odd total has none; otherwise BudgetExceededError when there are
    more than DEFAULT_PARTITION_BUDGET subsets to try."""
    total = sum(a)
    if total % 2:
        return None
    half = len(a) // 2
    if math.comb(len(a), half) > DEFAULT_PARTITION_BUDGET:
        raise BudgetExceededError(f"{len(a)} values: C({len(a)}, {half}) subsets exceed "
                                  f"partition budget {DEFAULT_PARTITION_BUDGET}")
    for combo in combinations(range(len(a)), half):
        if sum(a[i] for i in combo) * 2 == total:
            return combo
    return None


def gen_from_partition(a, strict: bool = False) -> GeneratedInstance:
    """Two identical firms of capacity m/2; worker i and both firms value
    each other a_i.  The optimal Nash product equals T^2 * prod(a) with
    T = sum(a)/2 exactly when a balanced equal-sum split of `a` exists.

    The strict variant makes every agent's values pairwise distinct
    (workers prefer firm 2, firm 2 discounts workers); the discount
    a_i / 2^(m/2) is fractional, so every valuation is scaled by 2^(m/2)
    to stay integral, which preserves the optimal matchings.
    """
    a = tuple(a)
    m = len(a)
    if m == 0 or m % 2:
        raise ValueError("need an even, nonempty value list")
    if len(set(a)) != m:
        raise ValueError("elements must be distinct")
    if any(x <= 0 for x in a):
        raise ValueError("elements must be positive")
    cap = m // 2
    if strict:
        scale = 1 << cap
        worker_vals = [[a[i] * scale, 2 * a[i] * scale] for i in range(m)]
        firm_vals = [[a[i] * scale for i in range(m)],
                     [a[i] for i in range(m)]]
        theta = None
    else:
        worker_vals = [[a[i], a[i]] for i in range(m)]
        firm_vals = [list(a), list(a)]
        total = sum(a)
        # welfare threshold (T^2 * prod a)^(1/(m+2)) with T = total/2,
        # stored as base^(num/den); with an odd total T is fractional and
        # the threshold is unattainable, so no metadata is attached
        if total % 2 == 0:
            theta = ((total // 2) ** 2 * math.prod(a), 1, m + 2)
        else:
            theta = None
    inst = Instance.create((cap, cap), worker_vals, firm_vals)
    cert = has_balanced_partition(a)
    return GeneratedInstance(inst, "partition-strict" if strict else "partition",
                             theta, None, cert)


def gen_rainbow_from_3dm(triples, r: int,
                         planted: Optional[tuple] = None) -> RainbowGraph:
    """Project a tripartite 3-dimensional matching instance to a rainbow
    graph: triple (x, y, z) becomes an edge (x, y) of color z.  Requires
    every vertex of all three sides to lie in exactly three triples; a
    planted 3D perfect matching carries over as a rainbow certificate."""
    triples = [tuple(t) for t in triples]
    if not triples:
        raise ValueError("empty triple set")
    if len(set(triples)) != len(triples):
        raise ValueError("triples must be distinct")
    deg = [[0] * r for _ in range(3)]
    for x, y, z in triples:
        for side, v in enumerate((x, y, z)):
            if not 0 <= v < r:
                raise ValueError("vertex out of range")
            deg[side][v] += 1
    if any(d != 3 for side in deg for d in side):
        raise ValueError("every vertex must lie in exactly three triples")
    g = RainbowGraph(r, tuple((x, y, z) for x, y, z in triples))
    if planted is not None:
        idx = {t: k for k, t in enumerate(triples)}
        chosen = [idx[tuple(t)] for t in planted]
        xs = {triples[k][0] for k in chosen}
        ys = {triples[k][1] for k in chosen}
        cs = {triples[k][2] for k in chosen}
        if not (len(chosen) == r and len(xs) == len(ys) == len(cs) == r):
            raise ValueError("planted certificate is not a 3D perfect matching")
    return g


def gen_random_3dm(r: int, seed: int) -> tuple[list[tuple[int, int, int]], tuple]:
    """Random yes-instance: three pairwise edge-disjoint permutation
    matchings; every vertex lies in exactly three triples.  Returns the
    triples plus the first matching as a planted certificate."""
    if r < 2:  # one vertex per class cannot lie in three distinct triples
        raise ValueError("need r >= 2 for three disjoint matchings")
    rng = random.Random(seed)
    while True:
        triples: list[tuple[int, int, int]] = []
        ok = True
        for _layer in range(3):
            ys = list(range(r))
            zs = list(range(r))
            rng.shuffle(ys)
            rng.shuffle(zs)
            layer = [(x, ys[x], zs[x]) for x in range(r)]
            if any(t in triples for t in layer):
                ok = False
                break
            triples.extend(layer)
        if ok:
            return triples, tuple(triples[:r])


def gen_from_rainbow(g: RainbowGraph, family_ok: bool = False,
                     certificate: Optional[tuple] = None) -> GeneratedInstance:
    """Matching instance whose optimal Nash product is 2^(4r) exactly when
    the rainbow graph has a rainbow perfect matching.

    Layout for q = len(edges) edges and r colors (q = 3r in the restricted
    family): one main firm per edge plus one collector firm per color, one
    main worker per graph vertex plus one dummy worker per edge, all
    capacities 2.  A main firm and the two endpoints of its edge value each
    other 1; a main firm values its own dummy worker 2 and that dummy
    values it 1; the color's collector firm values each of its dummies 2
    and each such dummy values it 1.

    family_ok relaxes the degree-3 requirement (the threshold equivalence
    needs only the three-edges-per-color count), which is how no-instances
    are built: degree-3 graphs with three edges per color always contain a
    rainbow perfect matching at r = 2.
    """
    r = g.r
    if r < 2:
        raise ValueError("need r >= 2: one vertex pair cannot host three "
                         "edges of one color")
    if any(c != 3 for c in g.color_counts()):
        raise ValueError("need exactly three edges of each color")
    if not family_ok and not g.in_restricted_family():
        raise ValueError("graph is outside the restricted family "
                         "(pass family_ok to relax the degree check)")
    q = len(g.edges)  # == 3r
    m, n = 2 * r + q, q + r
    # workers: X vertices 0..r-1, Y vertices r..2r-1, dummy of edge k at 2r+k
    # firms: main firm of edge k at k, collector of color c at q+c
    worker_vals = [[0] * n for _ in range(m)]
    firm_vals = [[0] * m for _ in range(n)]
    for k, (x, y, c) in enumerate(g.edges):
        for w in (x, r + y):
            worker_vals[w][k] = 1
            firm_vals[k][w] = 1
        d = 2 * r + k
        firm_vals[k][d] = 2
        worker_vals[d][k] = 1
        firm_vals[q + c][d] = 2
        worker_vals[d][q + c] = 1
    inst = Instance.create((2,) * n, worker_vals, firm_vals)
    if certificate is not None:
        colors = {g.edges[k][2] for k in certificate}
        xs = {g.edges[k][0] for k in certificate}
        ys = {g.edges[k][1] for k in certificate}
        if not (len(certificate) == r and len(colors) == len(xs) == len(ys) == r):
            raise ValueError("certificate is not a rainbow perfect matching")
    return GeneratedInstance(inst, "rainbow", (2, 4, 9), None, certificate)
