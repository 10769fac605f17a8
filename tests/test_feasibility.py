import random

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
