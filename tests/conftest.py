"""Shared instance builders for the test suite."""

from __future__ import annotations

import random

import pytest

# pytest rewrites asserts only in test modules and conftest; registered
# before their first import, the reference modules' asserts also run under
# python -O
pytest.register_assert_rewrite("reference_bucketing", "reference_support",
                               "reference_symbin")

from nswmatch.core import Instance  # noqa: E402
from reference_support import degree_profile  # noqa: E402


def crossing_example() -> Instance:
    """Two workers, two firms, capacity 1 each; the motivating example whose
    optimum crosses both workers to the firm they value."""
    return Instance.create(
        capacities=(1, 1),
        worker_vals=[[0, 2], [2, 0]],
        firm_vals=[[3, 2], [2, 3]],
    )


def binarize(inst: Instance) -> Instance:
    """Replace every positive valuation by 1."""
    return Instance.create(
        inst.capacities,
        [[1 if v > 0 else 0 for v in row] for row in inst.worker_vals],
        [[1 if v > 0 else 0 for v in row] for row in inst.firm_vals],
    )


def random_instance(rng: random.Random, m=None, n=None, v_max=5, density=1.0,
                    cap_hi=3) -> Instance:
    m = m if m is not None else rng.randint(1, 8)
    n = n if n is not None else rng.randint(1, 4)
    caps = [rng.randint(1, cap_hi) for _ in range(n)]

    def cell():
        v = rng.randint(1, v_max)
        return v if rng.random() < density else 0

    worker_vals = [[cell() for _ in range(n)] for _ in range(m)]
    firm_vals = [[cell() for _ in range(m)] for _ in range(n)]
    return Instance.create(caps, worker_vals, firm_vals)


def random_symmetric_binary(rng: random.Random, m=None, n=None) -> Instance:
    m = m if m is not None else rng.randint(1, 8)
    n = n if n is not None else rng.randint(1, 4)
    caps = [rng.randint(1, 3) for _ in range(n)]
    worker_vals = [[rng.randint(0, 1) for _ in range(n)] for _ in range(m)]
    firm_vals = [[worker_vals[w][f] for w in range(m)] for f in range(n)]
    return Instance.create(caps, worker_vals, firm_vals)


def random_degree_two(rng: random.Random) -> Instance:
    m = rng.randint(1, 8)
    n = rng.randint(1, 4)
    caps = [rng.randint(1, 3) for _ in range(n)]
    worker_vals = [[0] * n for _ in range(m)]
    firm_vals = [[0] * m for _ in range(n)]
    pairs = [(w, f) for w in range(m) for f in range(n)]
    rng.shuffle(pairs)
    wd, fd = [0] * m, [0] * n
    for w, f in pairs:
        if wd[w] < 2 and fd[f] < 2 and rng.random() < 0.7:
            wd[w] += 1
            fd[f] += 1
            worker_vals[w][f] = rng.randint(0, 4)
            firm_vals[f][w] = rng.randint(0, 4)
            if worker_vals[w][f] == 0 and firm_vals[f][w] == 0:
                worker_vals[w][f] = 1
    return Instance.create(caps, worker_vals, firm_vals)


def planted_degree_two(rng: random.Random) -> Instance:
    """Every agent of degree at most 2, over a planted matching of mutually
    positive pairs that gives each firm one or two workers, so the optimum
    is positive.  Capacities are the planted loads or one more, and the
    degree left over goes to random extra pairs, as in random_degree_two."""
    n = rng.randint(1, 4)
    m = rng.randint(n, 2 * n)
    planted = list(range(n)) + rng.sample(range(n), m - n)
    rng.shuffle(planted)
    worker_vals = [[0] * n for _ in range(m)]
    firm_vals = [[0] * m for _ in range(n)]
    wd, fd = [1] * m, [planted.count(f) for f in range(n)]
    caps = [load + rng.randint(0, 1) for load in fd]
    for w, f in enumerate(planted):
        worker_vals[w][f] = rng.randint(1, 4)
        firm_vals[f][w] = rng.randint(1, 4)
    pairs = [(w, f) for w in range(m) for f in range(n) if f != planted[w]]
    rng.shuffle(pairs)
    for w, f in pairs:
        if wd[w] < 2 and fd[f] < 2 and rng.random() < 0.7:
            wd[w] += 1
            fd[f] += 1
            worker_vals[w][f] = rng.randint(0, 4)
            firm_vals[f][w] = rng.randint(0, 4)
            if worker_vals[w][f] == 0 and firm_vals[f][w] == 0:
                worker_vals[w][f] = 1
    return Instance.create(caps, worker_vals, firm_vals)


def random_degree3_cap2(rng: random.Random) -> Instance:
    """m = 2n, capacities 2, firm degrees <= 3 in the surviving-edge graph."""
    while True:
        n = rng.randint(1, 4)
        m = 2 * n
        worker_vals = [[0] * n for _ in range(m)]
        firm_vals = [[0] * m for _ in range(n)]
        for f in range(n):
            deg = rng.randint(2, min(3, m))
            for w in rng.sample(range(m), deg):
                worker_vals[w][f] = rng.randint(1, 4)
                firm_vals[f][w] = rng.randint(0, 4)
        inst = Instance.create([2] * n, worker_vals, firm_vals)
        if max(degree_profile(inst).firm_degrees) <= 3:
            return inst


def random_single_positive_firm(rng: random.Random) -> Instance:
    m = rng.randint(1, 8)
    n = rng.randint(1, 4)
    caps = [rng.randint(1, 3) for _ in range(n)]
    worker_vals = []
    for _w in range(m):
        row = [0] * n
        row[rng.randrange(n)] = rng.randint(1, 5)
        worker_vals.append(row)
    firm_vals = [[rng.randint(0, 5) for _ in range(m)] for _ in range(n)]
    return Instance.create(caps, worker_vals, firm_vals)


@pytest.fixture(scope="session")
def rng():
    return random.Random(20240824)


# one (criterion number, "ACCEPTANCE <k> (<name>): PASS|FAIL") entry per
# acceptance criterion, filled in by tests/test_acceptance.py and echoed
# after the run (outside pytest's output capture)
ACCEPTANCE_LINES: list[tuple[int, str]] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for _num, line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
