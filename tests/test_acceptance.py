"""End-to-end acceptance suite.

Each test covers one acceptance criterion on a fixed-seed instance suite and
prints a single ``ACCEPTANCE <k> (<name>): PASS|FAIL`` line (written past
pytest's capture so it always appears in the run log).
"""

import functools
import json
import math
import random
import time
from fractions import Fraction

import pytest

from nswmatch.core import Instance, Matching, validate
from nswmatch.approx import greedy_submodular, qptas_bucketing
from nswmatch.cli import main as cli_main, run_algo
from nswmatch.exact import solve_capacity_one, solve_dp, solve_exact_bucketing
from nswmatch.feasibility import exists_nonzero_nash
from nswmatch.generators import (
    gen_from_partition,
    gen_from_rainbow,
    gen_random_3dm,
    has_balanced_partition,
)
from nswmatch.oracle import solve_bruteforce
from reference_oracle import find_rainbow_pm, solve_bruteforce_exact_loads
from nswmatch.restricted import (
    solve_degree3_capacity2,
    solve_degree_two,
    solve_single_positive_firm,
    solve_symmetric_binary,
    symmetric_binary_iteration_cap,
)
import conftest
from conftest import (
    random_degree3_cap2,
    random_degree_two,
    random_instance,
    random_single_positive_firm,
    random_symmetric_binary,
)
from test_generators import NO_TRIPLES_R3

SEED = 20240824


def _line(num: int, desc: str, ok: bool) -> None:
    text = f"ACCEPTANCE {num} ({desc}): {'PASS' if ok else 'FAIL'}"
    conftest.ACCEPTANCE_LINES.append((num, text))
    print(text)


def acceptance(num: int, desc: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                _line(num, desc, False)
                raise
            _line(num, desc, True)
        return wrapper
    return deco


def _top_up(rng, inst):
    """Raise capacities until they cover all workers, so that the optimum is
    not forced to zero by capacity alone."""
    caps = list(inst.capacities)
    while sum(caps) < inst.m:
        caps[rng.randrange(inst.n)] += 1
    return Instance.create(caps, inst.worker_vals, inst.firm_vals)


def _suite_cap1(rng):
    # positive optima need a perfect matching, hence m == n most of the time
    n = rng.randint(1, 4)
    m = n if rng.random() < 0.75 else rng.randint(1, 6)
    return random_instance(rng, m=m, n=n, cap_hi=1, density=0.9)


def _suite_symbin(rng):
    n = rng.randint(1, 3)
    m = rng.randint(n, 8)
    worker_vals = [[int(rng.random() < 0.7) for _ in range(n)]
                   for _ in range(m)]
    for f in range(n):           # give every firm at least one adjacent worker
        worker_vals[f][f] = 1
    firm_vals = [[worker_vals[w][f] for w in range(m)] for f in range(n)]
    caps = [rng.randint(1, 3) for _ in range(n)]
    return _top_up(rng, Instance.create(caps, worker_vals, firm_vals))


def _suite_deg2(rng):
    n = rng.randint(1, 4)
    m = rng.randint(n, 8)
    worker_vals = [[0] * n for _ in range(m)]
    firm_vals = [[0] * m for _ in range(n)]
    wd = [0] * m

    def attach(w, f):
        wd[w] += 1
        worker_vals[w][f] = rng.randint(1, 4)
        firm_vals[f][w] = rng.randint(1, 4)

    for f in range(n):
        # prefer fresh workers so most components are firm-private stars
        fresh = [w for w in range(m) if wd[w] == 0]
        free = fresh if fresh else [w for w in range(m) if wd[w] < 2]
        for w in rng.sample(free, min(rng.randint(1, 2), len(free))):
            attach(w, f)
    for w in range(m):           # cover isolated workers where possible
        if wd[w] == 0:
            fd = [sum(1 for x in range(m) if firm_vals[f][x] > 0)
                  for f in range(n)]
            open_firms = [f for f in range(n) if fd[f] < 2]
            if open_firms:
                attach(w, rng.choice(open_firms))
    caps = [max(1, sum(1 for w in range(m) if firm_vals[f][w] > 0))
            for f in range(n)]
    return Instance.create(caps, worker_vals, firm_vals)


def _suite_singlefirm(rng):
    n = rng.randint(1, 4)
    m = rng.randint(n, 8)
    worker_vals = [[0] * n for _ in range(m)]
    for w in range(m):           # first n workers cover the firms
        f = w if w < n else rng.randrange(n)
        worker_vals[w][f] = rng.randint(1, 5)
    firm_vals = [[rng.randint(0 if rng.random() < 0.2 else 1, 5)
                  for _ in range(m)] for _ in range(n)]
    caps = [rng.randint(1, 3) for _ in range(n)]
    return _top_up(rng, Instance.create(caps, worker_vals, firm_vals))


def _build_suite():
    """>= 300 fixed-seed instances, m <= 8, n <= 4, v_max <= 5, mixing the
    general family with each restricted solver's subfamily.  Capacities are
    usually topped up to cover all workers so most optima are positive; a
    deliberate minority keeps tight capacities or sparse values to exercise
    zero optima."""
    rng = random.Random(SEED)
    suite = []
    for i in range(120):
        inst = random_instance(rng, density=rng.choice([0.6, 0.8, 1.0]))
        if i % 5 != 0:
            inst = _top_up(rng, inst)
        suite.append(("general", inst))
    for i in range(40):
        suite.append(("cap1", _suite_cap1(rng)))
    for i in range(40):
        inst = (_suite_symbin(rng) if i % 4 != 0
                else random_symmetric_binary(rng))
        suite.append(("symbin", inst))
    for i in range(40):
        inst = _suite_deg2(rng) if i % 4 != 0 else random_degree_two(rng)
        suite.append(("deg2", inst))
    for _ in range(30):
        suite.append(("deg3cap2", random_degree3_cap2(rng)))
    for i in range(30):
        inst = (_suite_singlefirm(rng) if i % 4 != 0
                else random_single_positive_firm(rng))
        suite.append(("singlefirm", inst))
    assert len(suite) >= 300
    return suite


@pytest.fixture(scope="session")
def suite():
    return _build_suite()


@pytest.fixture(scope="session")
def oracle_products(suite):
    return [solve_bruteforce(inst).value.product for _tag, inst in suite]


@acceptance(1, "exact solvers match the brute-force oracle")
def test_criterion_1_oracle_equivalence(suite, oracle_products):
    start = time.perf_counter()
    for (tag, inst), opt in zip(suite, oracle_products):
        assert solve_dp(inst)[1].product == opt
        assert solve_exact_bucketing(inst)[1].product == opt
        if max(inst.capacities) <= 3:
            assert int(run_algo("dp2", inst)["nash_product"]) == opt
        if tag == "cap1":
            assert solve_capacity_one(inst)[1].product == opt
        elif tag == "symbin":
            assert solve_symmetric_binary(inst)[1].product == opt
        elif tag == "deg2":
            assert solve_degree_two(inst)[1].product == opt
        elif tag == "deg3cap2":
            # reference optimum for the exactly-two-workers-per-firm variant
            ref = solve_bruteforce_exact_loads(inst, (2,) * inst.n)
            res = solve_degree3_capacity2(inst)
            assert res[1].product == (0 if ref is None else ref[1].product)
            assert (res[0] is None) == (ref is None)
        elif tag == "singlefirm":
            assert solve_single_positive_firm(inst)[1].product == opt
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"criterion 1 took {elapsed:.1f}s"


@acceptance(2, "flow feasibility matches brute-force existence")
def test_criterion_2_feasibility(suite, oracle_products):
    start = time.perf_counter()
    for (_tag, inst), opt in zip(suite, oracle_products):
        mu = exists_nonzero_nash(inst)
        assert (mu is not None) == (opt > 0)
        if mu is not None:
            assert validate(inst, mu) is None
    elapsed = time.perf_counter() - start
    assert elapsed < 10, f"criterion 2 took {elapsed:.1f}s"


@acceptance(3, "greedy welfare is at least the square root of the optimum")
def test_criterion_3_greedy_bound():
    rng = random.Random(SEED + 3)
    for _ in range(200):
        m, n = rng.randint(1, 8), rng.randint(1, 4)
        caps = [rng.randint(1, 4) for _ in range(n)]
        while sum(caps) < m:
            caps[rng.randrange(n)] += 1
        inst = Instance.create(
            caps,
            [[rng.randint(1, 5) for _ in range(n)] for _ in range(m)],
            [[rng.randint(1, 5) for _ in range(m)] for _ in range(n)])
        mu, value = greedy_submodular(inst)
        assert validate(inst, mu) is None
        opt = solve_bruteforce(inst).value.product
        # welfare >= sqrt(opt welfare) iff product^2 >= opt product (exact)
        assert value.product ** 2 >= opt, (
            f"greedy bound violated: got {value.product}, opt {opt}, "
            f"instance {json.dumps(inst.to_json())}")


@acceptance(4, "bucketing scheme is within 1/(1+eps) of the optimum")
def test_criterion_4_qptas_bound(suite, oracle_products):
    start = time.perf_counter()
    for eps_text in ("1/2", "1/1", "2/1"):
        eps = Fraction(*map(int, eps_text.split("/")))
        num, den = eps.numerator + eps.denominator, eps.denominator
        for (_tag, inst), opt in zip(suite, oracle_products):
            if inst.n > 3:
                continue
            mu, value = qptas_bucketing(inst, eps_text)
            assert validate(inst, mu) is None
            got = value.product
            assert got <= opt
            na = inst.m + inst.n
            # welfare(got) >= welfare(opt)/(1+eps), compared exactly
            assert got * num ** na >= opt * den ** na
    elapsed = time.perf_counter() - start
    assert elapsed < 300, f"criterion 4 took {elapsed:.1f}s"


@acceptance(5, "polynomial-method product is within the (1+eps)^(n+1) window")
def test_criterion_5_fptas_bound(suite, oracle_products):
    start = time.perf_counter()
    for eps_text in ("1/2", "1/1"):
        eps = Fraction(*map(int, eps_text.split("/")))
        num, den = eps.numerator + eps.denominator, eps.denominator
        for (_tag, inst), opt in zip(suite, oracle_products):
            if inst.n > 3:
                continue
            record = run_algo("fptas", inst, eps_text)
            assert validate(inst, Matching.of(record["matching"])) is None
            got = int(record["nash_product"])
            assert got <= opt
            k = inst.n + 1
            assert got * num ** k >= opt * den ** k
    elapsed = time.perf_counter() - start
    assert elapsed < 300, f"criterion 5 took {elapsed:.1f}s"


@acceptance(6, "disjointness/popcount identity holds for all pairs up to m=10")
def test_criterion_6_popcount_identity():
    start = time.perf_counter()
    m = 10
    pops = [e.bit_count() for e in range(1 << m)]
    for e1 in range(1 << m):
        p1 = pops[e1]
        for e2 in range(1 << m):
            assert ((e1 + e2).bit_count() == p1 + pops[e2]) == ((e1 & e2) == 0)
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"criterion 6 took {elapsed:.1f}s"


@acceptance(7, "partition instances hit the threshold exactly iff balanced")
def test_criterion_7_partition_threshold():
    start = time.perf_counter()
    rng = random.Random(SEED + 7)
    checked = 0
    while checked < 24:
        m = rng.choice([4, 6])
        a = tuple(rng.sample(range(1, 13), m))
        g = gen_from_partition(a)
        opt = solve_bruteforce(g.instance).value.product
        yes = has_balanced_partition(a) is not None
        total = sum(a)
        # threshold is (total/2)^2 * prod(a); compare in integers
        assert (4 * opt == total ** 2 * math.prod(a)) == yes
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"criterion 7 took {elapsed:.1f}s"


def _relabel(triples, xperm, yperm, cperm):
    return [(cperm[c], xperm[x], yperm[y]) for c, x, y in triples]


@acceptance(8, "rainbow instances hit 2^(4r) exactly iff a rainbow PM exists")
def test_criterion_8_rainbow_threshold():
    start = time.perf_counter()
    # planted-YES side: five restricted graphs at r = 2.  (Every restricted
    # r = 2 graph admits a rainbow perfect matching, so the NO side must use
    # r = 3; see the NO-triple systems below.)
    for seed in range(5):
        triples, planted = gen_random_3dm(2, seed=seed)
        # gen_from_rainbow rejects a graph outside the restricted family
        gi = gen_from_rainbow(triples, 2, planted)
        assert find_rainbow_pm(triples, 2) is not None
        opt = solve_bruteforce(gi.instance).value.product
        assert opt == 2 ** 8
    # NO side: restricted r = 3 triple systems without a rainbow PM (one
    # found by search, plus two relabelings of it)
    no_systems = [
        NO_TRIPLES_R3,
        _relabel(NO_TRIPLES_R3, (1, 2, 0), (2, 0, 1), (0, 1, 2)),
        _relabel(NO_TRIPLES_R3, (2, 0, 1), (1, 2, 0), (2, 1, 0)),
    ]
    for triples in no_systems:
        gi = gen_from_rainbow(triples, 3)
        assert find_rainbow_pm(triples, 3) is None
        opt = solve_bruteforce(gi.instance).value.product
        assert opt < 2 ** 12
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"criterion 8 took {elapsed:.1f}s"


@acceptance(9, "local search stays within its iteration cap, always improving")
def test_criterion_9_symbin_termination(suite):
    for tag, inst in suite:
        if tag != "symbin":
            continue
        stats = {}
        # the solver itself asserts that every applied path strictly
        # increases the product
        solve_symmetric_binary(inst, stats=stats)
        assert stats["iterations"] <= symmetric_binary_iteration_cap(inst.m, inst.n)


@acceptance(10, "benchmark CSV output is byte-identical across runs")
def test_criterion_10_bench_determinism(tmp_path):
    spec = {
        "instances": (
            [{"id": f"r{i}", "kind": "random", "m": 6, "n": 2,
              "capacities": [3, 3], "seed": i} for i in range(4)]
            + [{"id": "part", "kind": "partition", "a": [1, 2, 3, 4]}]
        ),
        "algos": [{"name": "oracle"}, {"name": "dp"}, {"name": "greedy"},
                  {"name": "fptas", "eps": "1/1"}, {"name": "feasible"}],
    }
    spec_path = tmp_path / "suite.json"
    spec_path.write_text(json.dumps(spec))
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert cli_main(["bench", str(spec_path), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
