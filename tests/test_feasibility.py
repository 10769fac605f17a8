import random

from hypothesis import given, settings, strategies as st

from nswmatch.core import Instance, nash_value, validate
from nswmatch.feasibility import exists_nonzero_nash
from reference_oracle import exists_nonzero_bruteforce
from conftest import binarize, crossing_example, random_instance


def test_crossing_feasible():
    ok, witness = exists_nonzero_nash(crossing_example())
    assert ok
    assert nash_value(crossing_example(), witness).product >= 1


def test_capacity_shortfall_infeasible():
    inst = Instance.create((2,), [[1], [1], [1]], [[1, 1, 1]])
    assert exists_nonzero_nash(inst) == (False, None)


def test_agrees_with_bruteforce():
    rng = random.Random(17)
    for _ in range(120):
        inst = random_instance(rng, density=rng.choice([0.3, 0.5, 0.8, 1.0]))
        expect, _w = exists_nonzero_bruteforce(inst)
        got, witness = exists_nonzero_nash(inst)
        assert got == expect, inst
        if got:
            assert validate(inst, witness) is None
            assert nash_value(inst, witness).product >= 1


def test_one_sided_positivity_is_not_enough():
    # the firm values the worker but not vice versa: matching them zeroes
    # the worker, so no nonzero matching exists
    inst = Instance.create((1,), [[0]], [[4]])
    assert exists_nonzero_nash(inst)[0] is False


def test_unvalued_worker_can_pad_a_firm():
    # f1 must absorb w2 (whom it does not value) to free f2's only valued
    # worker; the witness must still give everyone positive utility
    inst = Instance.create(
        (2, 1),
        [[3, 0], [2, 0], [0, 1]],
        [[1, 0, 0], [0, 0, 2]],
    )
    ok, witness = exists_nonzero_nash(inst)
    assert ok
    assert nash_value(inst, witness).product > 0


def test_invariant_under_binarize():
    rng = random.Random(23)
    for _ in range(60):
        inst = random_instance(rng, density=0.5)
        assert exists_nonzero_nash(inst)[0] == exists_nonzero_nash(binarize(inst))[0]


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
    got, witness = exists_nonzero_nash(inst)
    assert got == exists_nonzero_bruteforce(inst)[0]
    assert (witness is None) == (not got)
    if got:
        assert validate(inst, witness) is None
        assert nash_value(inst, witness).product > 0
