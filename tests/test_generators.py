import json
import math
import random

import pytest

from nswmatch.core import BudgetExceededError, utilitarian_welfare
from nswmatch.generators import (
    GeneratedInstance,
    gen_from_partition,
    gen_from_rainbow,
    gen_random,
    gen_random_3dm,
    has_balanced_partition,
)
from nswmatch.oracle import solve_bruteforce
from reference_oracle import find_rainbow_pm
from reference_support import degree_profile

# a restricted-family rainbow graph with no rainbow perfect matching,
# found by random search over degree-3 triple systems and verified by
# exhaustive rainbow search
NO_TRIPLES_R3 = [(0, 0, 1), (0, 1, 1), (0, 2, 2), (1, 0, 0), (1, 1, 0),
                 (1, 2, 1), (2, 0, 2), (2, 1, 2), (2, 2, 0)]


def test_gen_random_density_extremes():
    allpos = gen_random(4, 2, (2, 2), v_max=5, density=1.0, seed=1).instance
    assert all(v > 0 for row in allpos.worker_vals for v in row)
    assert all(v > 0 for row in allpos.firm_vals for v in row)
    allzero = gen_random(4, 2, (2, 2), v_max=5, density=0.0, seed=1).instance
    assert all(v == 0 for row in allzero.worker_vals for v in row)
    assert all(v == 0 for row in allzero.firm_vals for v in row)


def test_gen_random_deterministic():
    a = gen_random(6, 3, (2, 2, 2), 5, 0.7, seed=7)
    b = gen_random(6, 3, (2, 2, 2), 5, 0.7, seed=7)
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)
    c = gen_random(6, 3, (2, 2, 2), 5, 0.7, seed=8)
    assert a.to_json() != c.to_json()


def _randint_values(m, n, v_max, density, seed):
    """The values gen_random must draw: rng.randint(1, v_max), then one
    rng.random() against density, per cell."""
    rng = random.Random(seed)

    def cell():
        v = rng.randint(1, v_max)
        return v if rng.random() < density else 0

    worker_vals = [[cell() for _ in range(n)] for _ in range(m)]
    firm_vals = [[cell() for _ in range(m)] for _ in range(n)]
    return worker_vals, firm_vals


@pytest.mark.parametrize("v_max", [1, 2, 5, 7, 8, 10 ** 18, 2 ** 64, 2 ** 64 + 1])
@pytest.mark.parametrize("density", [0.3, 1])
def test_gen_random_draws_as_randint(v_max, density):
    for seed in range(5):
        inst = gen_random(9, 4, (3, 3, 3, 3), v_max, density, seed).instance
        worker_vals, firm_vals = _randint_values(9, 4, v_max, density, seed)
        assert [list(row) for row in inst.worker_vals] == worker_vals
        assert [list(row) for row in inst.firm_vals] == firm_vals


def test_partition_yes_threshold():
    g = gen_from_partition((1, 2, 3, 4))
    assert g.theta == (600, 1, 6)
    assert g.certificate is not None
    assert solve_bruteforce(g.instance).value.product == 600


def test_partition_no_instance_below_threshold():
    a = (2, 3, 5, 8)  # total 18, T = 9, no balanced equal-sum split
    assert has_balanced_partition(a) is None
    g = gen_from_partition(a)
    threshold = 81 * math.prod(a)
    assert solve_bruteforce(g.instance).value.product < threshold


def test_partition_search_budget():
    # C(24, 12) subsets exceed the budget, an odd total needs no search
    with pytest.raises(BudgetExceededError):
        has_balanced_partition(tuple(range(1, 24)) + (1_000_000,))
    assert has_balanced_partition(tuple(range(1, 24)) + (1_000_001,)) is None


def test_partition_correspondence_sweep():
    rng = random.Random(79)
    for _ in range(20):
        m = rng.choice([4, 6])
        a = tuple(rng.sample(range(1, 15), m))
        g = gen_from_partition(a)
        opt = solve_bruteforce(g.instance).value.product
        yes = has_balanced_partition(a) is not None
        total = sum(a)
        # threshold (total/2)^2 * prod(a); compare with exact integers
        assert (4 * opt == total ** 2 * math.prod(a)) == yes


def test_partition_input_validation():
    with pytest.raises(ValueError):
        gen_from_partition((1, 2, 3))
    with pytest.raises(ValueError):
        gen_from_partition((1, 1, 2, 3))
    with pytest.raises(ValueError):
        gen_from_partition(())


def test_partition_strict_distinct_values():
    g = gen_from_partition((1, 2, 3, 4), strict=True)
    inst = g.instance
    for w in range(inst.m):
        assert inst.worker_vals[w][0] != inst.worker_vals[w][1]
    for f in range(inst.n):
        assert len(set(inst.firm_vals[f])) == inst.m


def test_partition_strict_preserves_optimal_split():
    # the scaled strict variant keeps the balanced split optimal: both
    # firms full, equal base sums
    g = gen_from_partition((1, 2, 3, 4), strict=True)
    result = solve_bruteforce(g.instance)
    bundles = [[w for w, g in enumerate(result.best.assignment) if g == f]
               for f in range(2)]
    a = (1, 2, 3, 4)
    assert sorted(map(len, bundles)) == [2, 2]
    assert sum(a[w] for w in bundles[0]) == sum(a[w] for w in bundles[1])


def test_rainbow_graph_validation():
    with pytest.raises(ValueError, match="three edges"):
        gen_from_rainbow((), 2)
    with pytest.raises(ValueError, match="distinct"):
        gen_from_rainbow(((0, 0, 0), (0, 0, 0)), 2)
    with pytest.raises(ValueError, match="out of range"):
        gen_from_rainbow(((0, 0, 5),), 2)


def test_gen_from_rainbow_planted():
    triples, planted = gen_random_3dm(3, seed=11)
    gi = gen_from_rainbow(triples, 3, planted)
    assert gi.certificate == tuple(range(3))
    assert [triples[k] for k in gi.certificate] == list(planted)
    assert find_rainbow_pm(triples, 3) is not None
    # a planted edge that is not among the edges, too few edges, and three
    # edges that repeat an x are rejected
    absent = next((x, y, c) for x in range(3) for y in range(3) for c in range(3)
                  if (x, y, c) not in triples)
    not_rainbow = [t for t in triples if t[0] == 0]
    for bad in ((absent, *planted[1:]), planted[:2], not_rainbow):
        with pytest.raises(ValueError, match="planted"):
            gen_from_rainbow(triples, 3, bad)


def test_gen_from_rainbow_rejects_bad_degrees():
    with pytest.raises(ValueError):
        gen_from_rainbow([(0, 0, 0)], 1)
    with pytest.raises(ValueError):
        gen_from_rainbow([], 2)


def test_no_triples_graph_has_no_rainbow_pm():
    gen_from_rainbow(NO_TRIPLES_R3, 3)  # in the restricted family
    assert find_rainbow_pm(NO_TRIPLES_R3, 3) is None


def test_gen_from_rainbow_shape():
    triples, planted = gen_random_3dm(2, seed=3)
    gi = gen_from_rainbow(triples, 2, planted)
    inst = gi.instance
    assert inst.n == 8 and inst.m == 10
    assert set(inst.capacities) == {2}
    values = {v for row in inst.worker_vals for v in row}
    values |= {v for row in inst.firm_vals for v in row}
    assert values <= {0, 1, 2}
    assert degree_profile(inst).max_degree == 3
    assert gi.theta == (2, 4, 9)


def test_gen_from_rainbow_rejects_r1_and_bad_counts():
    with pytest.raises(ValueError, match="r >= 2"):
        gen_from_rainbow(((0, 0, 0),), 1)
    lopsided = ((0, 0, 0), (0, 1, 0), (1, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1))
    with pytest.raises(ValueError, match="three edges"):
        gen_from_rainbow(lopsided, 2)  # degrees are not all 3


def test_rainbow_yes_hits_threshold():
    triples, planted = gen_random_3dm(2, seed=3)
    gi = gen_from_rainbow(triples, 2, planted)
    result = solve_bruteforce(gi.instance)
    assert result.value.product == 2 ** 8
    # any feasible nonzero matching of the construction: firms' utilities sum to 8r
    firm_utils = [sum(gi.instance.firm_vals[f][w]
                      for w, gg in enumerate(result.best.assignment) if gg == f)
                  for f in range(gi.instance.n)]
    assert sum(firm_utils) == 8 * 2


@pytest.mark.parametrize("r", [3, 4, 5])
def test_rainbow_yes_reaches_threshold_at_larger_r(r):
    """Planted yes-instances of 5r workers and 4r firms reach 2^(4r) under
    the oracle's default budget."""
    triples, planted = gen_random_3dm(r, seed=0)
    gi = gen_from_rainbow(triples, r, planted)
    assert solve_bruteforce(gi.instance).value.product == 2 ** (4 * r)


def test_rainbow_no_stays_below_threshold():
    gi = gen_from_rainbow(NO_TRIPLES_R3, 3)
    result = solve_bruteforce(gi.instance)
    assert result.value.product < 2 ** 12
