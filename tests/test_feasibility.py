import random

import pytest
from hypothesis import given, settings, strategies as st

from nswmatch.core import Instance, Matching, nash_value, validate
from nswmatch.feasibility import exists_nonzero_nash
from reference_oracle import exists_nonzero_bruteforce
from reference_support import exists_nonzero_nash as dense_search, nonzero_nash_by_flow
from conftest import binarize, crossing_example, random_instance


def test_crossing_feasible():
    witness = exists_nonzero_nash(crossing_example())
    assert witness is not None
    assert nash_value(crossing_example(), witness).product >= 1


def test_capacity_shortfall_infeasible():
    inst = Instance.create((2,), [[1], [1], [1]], [[1, 1, 1]])
    assert exists_nonzero_nash(inst) is None


def test_agrees_with_bruteforce():
    rng = random.Random(17)
    for _ in range(120):
        inst = random_instance(rng, density=rng.choice([0.3, 0.5, 0.8, 1.0]))
        expect, _w = exists_nonzero_bruteforce(inst)
        witness = exists_nonzero_nash(inst)
        assert (witness is not None) == expect, inst
        if witness is not None:
            assert validate(inst, witness) is None
            assert nash_value(inst, witness).product >= 1


def test_one_sided_positivity_is_not_enough():
    # the firm values the worker but not vice versa: matching them zeroes
    # the worker, so no nonzero matching exists
    inst = Instance.create((1,), [[0]], [[4]])
    assert exists_nonzero_nash(inst) is None


def test_unvalued_worker_can_pad_a_firm():
    # f1 must absorb w2 (whom it does not value) to free f2's only valued
    # worker; the witness must still give everyone positive utility
    inst = Instance.create(
        (2, 1),
        [[3, 0], [2, 0], [0, 1]],
        [[1, 0, 0], [0, 0, 2]],
    )
    witness = exists_nonzero_nash(inst)
    assert witness is not None
    assert nash_value(inst, witness).product > 0


def test_invariant_under_binarize():
    rng = random.Random(23)
    for _ in range(60):
        inst = random_instance(rng, density=0.5)
        assert (exists_nonzero_nash(inst) is None) == (exists_nonzero_nash(binarize(inst)) is None)


# positive values small, at 2^53 (where floats stop telling integers apart)
# and up to 10^30
POSITIVE = st.one_of(st.integers(1, 3), st.integers(2**53 - 1, 2**53 + 1),
                     st.integers(1, 10**30))


@st.composite
def edge_shaped(draw):
    """1-4 firms with capacities 1-3, one of them sometimes 0; m from 1 to
    7, sometimes below n; none to three fifths of the entries zero on each
    side independently, so many pairs are valued on one side only; and
    sometimes a worker row or a firm row all zero."""
    n = draw(st.integers(1, 4))
    m = draw(st.sampled_from([1, max(1, n - 1), n, n + 1, 2 * n, 7]))
    caps = [draw(st.integers(1, 3)) for _ in range(n)]
    if draw(st.integers(0, 4)) == 0:
        caps[draw(st.integers(0, n - 1))] = 0
    zeros = draw(st.integers(0, 3))

    def entry():
        return 0 if draw(st.integers(0, 4)) < zeros else draw(POSITIVE)

    worker_vals = [[entry() for _ in range(n)] for _ in range(m)]
    firm_vals = [[entry() for _ in range(m)] for _ in range(n)]
    if draw(st.integers(0, 4)) == 0:
        worker_vals[draw(st.integers(0, m - 1))] = [0] * n
    if draw(st.integers(0, 4)) == 0:
        firm_vals[draw(st.integers(0, n - 1))] = [0] * m
    return Instance.create(tuple(caps), worker_vals, firm_vals)


@settings(max_examples=400, deadline=None)
@given(edge_shaped())
def test_edge_shapes_agree_with_bruteforce(inst):
    witness = exists_nonzero_nash(inst)
    assert (witness is not None) == exists_nonzero_bruteforce(inst)[0]
    if witness is not None:
        assert validate(inst, witness) is None
        assert nash_value(inst, witness).product > 0


# each case needs one rule of the search: (capacities, worker_vals,
# firm_vals, witness or None)
SEARCH_CASES = {
    # w0 takes f0's seat first, leaving f1 only w0; the seat path moves w0
    # to f1 and gives f0's seat to w1
    "seat-swap": ((1, 1), [[1, 1], [1, 0]], [[1, 1], [1, 0]], [1, 0]),
    # seats f0: w0, f1: w1, f2: w2; w3 fills f1 and w4, who values only the
    # full f0, is left over.  w4 displaces w0 from f0, w0 displaces w3 from
    # f1, which values neither, and w3 moves to f2
    "two-displacements": (
        (1, 2, 2),
        [[1, 1, 0], [0, 1, 0], [0, 0, 1], [0, 1, 1], [1, 0, 0]],
        [[1, 0, 0, 0, 1], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]],
        [1, 1, 2, 2, 0]),
    # w2 values only f0, which values only w0: moving w0 on to f1, which
    # has room, would leave f0 with nobody it values
    "only-valued-worker-stays": ((1, 2), [[1, 1], [0, 1], [1, 0]],
                                 [[1, 0, 0], [0, 1, 0]], None),
    # w3, whom f0 values, arrives at the full f0 and displaces w1, whom f0
    # does not value, to f1; f0's other worker w0 has nowhere else to go
    "valued-arrival-takes-unvalued": ((2, 2), [[1, 0], [1, 1], [0, 1], [1, 0]],
                                      [[1, 0, 0, 1], [0, 0, 1, 0]], [0, 1, 1, 0]),
    # w3, whom f0 does not value, arrives at f0, which holds two workers it
    # values: w0 in its seat and w1 in its rest slot, so w1 moves to f1
    "unvalued-arrival-takes-one-of-two": ((2, 2), [[1, 0], [1, 1], [0, 1], [1, 0]],
                                          [[1, 1, 0, 0], [0, 0, 1, 0]], [0, 1, 1, 0]),
}


@pytest.mark.parametrize("case", sorted(SEARCH_CASES))
def test_search_cases(case):
    caps, worker_vals, firm_vals, witness = SEARCH_CASES[case]
    got = exists_nonzero_nash(Instance.create(caps, worker_vals, firm_vals))
    assert got == (None if witness is None else Matching.of(witness))


VALUES = (1, 2, 3, 2**53 + 1, 2**64)


@st.composite
def wide_instances(draw):
    """Up to 8 firms and 40 workers, sized to be searched rather than
    enumerated: total capacity near m, half of them with a planted
    all-positive matching that the greedy seats and placement need not
    find; one-sided pairs, values above 2^53, and sometimes a zero
    capacity or an all-zero worker or firm row."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 8))
    m = draw(st.integers(max(1, n - 1), 40))
    caps = [rng.randint(1, max(1, -(-m // n) + 1)) for _ in range(n)]
    p, q = draw(st.sampled_from([0.1, 0.3, 0.6])), draw(st.sampled_from([0.1, 0.3, 0.6]))
    worker_vals = [[rng.choice(VALUES) if rng.random() < p else 0 for _ in range(n)]
                   for _ in range(m)]
    firm_vals = [[rng.choice(VALUES) if rng.random() < q else 0 for _ in range(m)]
                 for _ in range(n)]
    if m >= n and draw(st.booleans()):
        planted = rng.sample(range(n), n) + [rng.randrange(n) for _ in range(m - n)]
        rng.shuffle(planted)
        seated = set()
        for w, f in enumerate(planted):
            worker_vals[w][f] = rng.choice(VALUES)
            if f not in seated:
                seated.add(f)
                firm_vals[f][w] = rng.choice(VALUES)
        caps = [max(c, planted.count(f)) for f, c in enumerate(caps)]
    if rng.random() < 0.1:
        caps[rng.randrange(n)] = 0
    if rng.random() < 0.1:
        worker_vals[rng.randrange(m)] = [0] * n
    if rng.random() < 0.1:
        firm_vals[rng.randrange(n)] = [0] * m
    return Instance.create(caps, worker_vals, firm_vals)


@settings(max_examples=400, deadline=None)
@given(wide_instances())
def test_search_agrees_with_flow_verdict(inst):
    """The verdict of the two max flows, and on yes a witness that gives
    everyone positive utility."""
    witness = exists_nonzero_nash(inst)
    assert (witness is not None) == nonzero_nash_by_flow(inst)
    if witness is not None:
        assert validate(inst, witness) is None
        assert nash_value(inst, witness).product > 0


@settings(max_examples=200, deadline=None)
@given(wide_instances())
def test_dense_form_returns_the_same_witness(inst):
    assert exists_nonzero_nash(inst) == dense_search(inst)
