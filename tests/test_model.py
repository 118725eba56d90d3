"""Domain types: validation, metrics, and the drop rules validation makes redundant."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmkp.model import (
    Assignment,
    GmkpError,
    InconsistentSolutionError,
    Instance,
    Selection,
    metrics,
    validate,
)
from conftest import make, random_small_instance
from reference import normalize


class TestValidate:
    def test_clean_instance_is_empty(self):
        inst = make([5, 5], [3, 2, 4], [(0, 1), (2,)], [7, 4])
        assert validate(inst) == []

    def test_sampler_instances_are_valid(self):
        rng = random.Random(1)
        for _ in range(50):
            inst = random_small_instance(rng)
            assert validate(inst) == [], inst

    def test_single_knapsack_flagged(self):
        inst = make([5], [3], [(0,)], [1])
        assert any(v.startswith("knapsack-count") for v in validate(inst))

    def test_nonpositive_numbers_flagged(self):
        inst = make([5, 0], [3, -1], [(0,), (1,)], [1, 0])
        out = validate(inst)
        assert any(v.startswith("capacity-positive") for v in out)
        assert any(v.startswith("weight-positive") for v in out)
        assert any(v.startswith("reward-positive") for v in out)

    def test_partition_violations_flagged(self):
        inst = make([5, 5], [3], [(0,), ()], [1, 1])
        assert any(v.startswith("group-nonempty") for v in validate(inst))

    def test_weight_bound_flagged(self):
        inst = make([5, 5], [6, 1], [(0,), (1,)], [1, 1])
        assert any(v.startswith("weight-bound") for v in validate(inst))

    def test_group_fits_total_flagged(self):
        inst = make([3, 3], [3, 2, 2], [(0, 1, 2)], [1])
        assert any(v.startswith("group-fits-total") for v in validate(inst))

    def test_plain_mkp_advisory(self):
        # single-item groups only (plain MKP) is a well-formed instance
        inst = make([5, 5], [3, 2], [(0,), (1,)], [1, 1])
        assert validate(inst) == []

    def test_validate_is_total_on_garbage(self):
        # reports, does not raise
        assert validate(Instance([0], [[], [-3, 0]], [0, -1]))
        assert validate(Instance([], [[]], [1]))
        assert validate(Instance([5], [], []))


class TestNormalize:
    """The reference drop rules drop what they should, so that the
    fixed-point property at the end of this file is not vacuous."""

    def test_noop_on_clean_instance(self):
        inst = make([5, 5], [3, 2], [(0, 1)], [5])
        assert normalize(inst) is inst

    def test_tiny_knapsack_removed(self):
        inst = make([1, 5, 5], [3, 2], [(0, 1)], [5])
        out = normalize(inst)
        assert out.capacities == (5, 5)
        assert (out.item_weights, out.group_items, out.rewards) == ((3, 2), ((3, 2),), (5,))

    def test_oversized_group_removed_and_items_compacted(self):
        inst = make([5, 5], [9, 9, 2], [(0, 1), (2,)], [18, 2])
        out = normalize(inst)
        assert out.capacities == (5, 5)
        assert out.item_weights == (2,)
        assert out.group_items == ((2,),)
        assert out.rewards == (2,)

    def test_cascade_to_fixed_point(self):
        # dropping the big group raises min weight, which kills knapsack 0
        inst = make([2, 6, 6], [13, 4, 4], [(0,), (1,), (2,)], [13, 4, 4])
        out = normalize(inst)
        assert out.capacities == (6, 6)
        assert (out.item_weights, out.group_items, out.rewards) == ((4, 4), ((4,), (4,)), (4, 4))

    def test_too_few_knapsacks_raises(self):
        inst = make([1, 5], [3], [(0,)], [3])
        with pytest.raises(GmkpError):
            normalize(inst)

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(30):
            inst = random_small_instance(rng)
            once = normalize(inst)
            assert normalize(once) is once


class TestMetrics:
    def test_reward_and_overload(self):
        inst = make([5, 5], [4, 3, 2], [(0, 1), (2,)], [9, 2])
        sel = Selection((True, False))
        asg = Assignment.build(inst, (0, 1, None))
        m = metrics(inst, sel, asg)
        assert m.reward == 9
        assert m.max_exceeded == -1

    def test_unplaced_chosen_item_raises(self):
        inst = make([5, 5], [4, 3], [(0, 1)], [7])
        with pytest.raises(InconsistentSolutionError):
            metrics(inst, Selection((True,)), Assignment.build(inst, (0, None)))

    def test_placed_unchosen_item_raises(self):
        inst = make([5, 5], [4], [(0,)], [7])
        with pytest.raises(InconsistentSolutionError):
            metrics(inst, Selection((False,)), Assignment.build(inst, (0,)))

    def test_stale_loads_raise(self):
        inst = make([5, 5], [4], [(0,)], [7])
        bad = Assignment(placement=(0,), loads=(0, 0))
        with pytest.raises(InconsistentSolutionError):
            metrics(inst, Selection((True,)), bad)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_normalize_preserves_surviving_data(seed):
    rng = random.Random(seed)
    base = random_small_instance(rng)
    # one knapsack that may be too small and one group that may be too heavy
    caps = list(base.capacities)
    caps.insert(rng.randint(0, base.m), rng.randint(1, 10))
    items = list(base.group_items)
    rewards = list(base.rewards)
    at = rng.randint(0, base.k)
    items.insert(at, [rng.randint(1, base.c_max) for _ in range(rng.randint(1, 8))])
    rewards.insert(at, rng.randint(1, 50))
    inst = Instance(caps, items, rewards)
    out = normalize(inst)
    # the lightest item only grows and the total capacity only shrinks, so
    # whatever was dropped once stays droppable at the fixed point
    w_min = min(out.item_weights)
    assert out.capacities == tuple(c for c in inst.capacities if c >= w_min)

    kept = [(p, g) for p, g in zip(inst.rewards, inst.group_items) if sum(g) <= out.total_capacity]
    assert list(zip(out.rewards, out.group_items)) == kept
    assert validate(out) == []


SMALL = st.integers(-2, 12)


@given(
    caps=st.lists(SMALL, min_size=1, max_size=4),
    groups=st.lists(st.tuples(SMALL, st.lists(SMALL, min_size=1, max_size=3)), max_size=4),
)
@settings(max_examples=500, deadline=None)
def test_normalize_keeps_every_valid_instance(caps, groups):
    # the CLI loads without a drop pass: validate already rejects whatever
    # the drop rules would change (smallest-knapsack, group-fits-total, knapsack-count)
    inst = Instance(caps, [items for _, items in groups], [p for p, _ in groups])
    if validate(inst) == []:
        assert normalize(inst) is inst
