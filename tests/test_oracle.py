import random
from itertools import product

import pytest

from nswmatch.core import (
    BudgetExceededError,
    Instance,
    Matching,
    UNMATCHED,
    nash_value,
    validate,
)
from nswmatch.oracle import solve_bruteforce
from conftest import crossing_example, random_instance
from reference_oracle import exists_nonzero_bruteforce, solve_bruteforce_exact_loads


def exhaustive_best_product(inst: Instance) -> int:
    """Independent reference: try every assignment vector outright."""
    best = 0
    for assignment in product([UNMATCHED] + list(range(inst.n)), repeat=inst.m):
        mu = Matching.of(assignment)
        if validate(inst, mu) is None:
            best = max(best, nash_value(inst, mu).product)
    return best


def test_crossing_product():
    result = solve_bruteforce(crossing_example())
    assert result.value.product == 16
    assert result.best == Matching.of([1, 0])


def test_zero_forced():
    inst = Instance.create((1,), [[0]], [[5]])
    result = solve_bruteforce(inst)
    assert result.value.is_zero
    assert validate(inst, result.best) is None


def test_partition_example_product():
    from nswmatch.generators import gen_from_partition
    inst = gen_from_partition((1, 2, 3, 4)).instance
    assert solve_bruteforce(inst).value.product == 600


def test_matches_exhaustive_enumeration():
    rng = random.Random(5)
    for _ in range(60):
        inst = random_instance(rng, m=rng.randint(1, 5), n=rng.randint(1, 3),
                               density=0.7)
        assert solve_bruteforce(inst).value.product == exhaustive_best_product(inst)


def test_result_is_feasible_and_deterministic():
    rng = random.Random(9)
    for _ in range(30):
        inst = random_instance(rng, m=5, n=3, density=0.8)
        a = solve_bruteforce(inst)
        b = solve_bruteforce(inst)
        assert validate(inst, a.best) is None
        assert a.best == b.best and a.value.product == b.value.product


def test_budget():
    # ample capacity and all-positive values: 4^8 complete matchings
    inst = Instance.create((8,) * 4, [[1] * 4] * 8, [[1] * 8] * 4)
    with pytest.raises(BudgetExceededError):
        solve_bruteforce(inst, limit=3)


def test_exists_nonzero():
    pigeon = Instance.create((1,), [[1], [1]], [[1, 1]])
    assert exists_nonzero_bruteforce(pigeon) == (False, None)
    ok, witness = exists_nonzero_bruteforce(crossing_example())
    assert ok and nash_value(crossing_example(), witness).product > 0
    allzero = Instance.create((1,), [[0]], [[0]])
    assert exists_nonzero_bruteforce(allzero)[0] is False


def test_exact_loads_reference():
    inst = crossing_example()
    res = solve_bruteforce_exact_loads(inst, (1, 1))
    assert res is not None and res[1].product == 16
    # both workers at f1 zeroes w1's utility; no positive candidate
    assert solve_bruteforce_exact_loads(inst, (2, 0)) is None
    # load total differs from m
    assert solve_bruteforce_exact_loads(inst, (1, 2)) is None
