"""Domain types: validation, normalization, metrics."""

import random
from fractions import Fraction

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
    normalize,
    validate,
)
from conftest import random_small_instance


def make(caps, weights, groups, rewards):
    return Instance(tuple(caps), tuple(weights), tuple(groups), tuple(rewards))


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
        inst = make([5, 5], [3, 2, 4], [(0, 1), (1,)], [1, 1])
        out = validate(inst)
        assert any(v.startswith("group-disjoint") for v in out)
        assert any(v.startswith("group-cover") for v in out)
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
        inst = make([5, 5], [3], [(9,), (0,)], [1, 1])
        assert validate(inst)  # reports, does not raise


class TestNormalize:
    def test_noop_on_clean_instance(self):
        inst = make([5, 5], [3, 2], [(0, 1)], [5])
        out, report = normalize(inst)
        assert out is inst and not report.changed

    def test_tiny_knapsack_removed(self):
        inst = make([1, 5, 5], [3, 2], [(0, 1)], [5])
        out, report = normalize(inst)
        assert report.removed_knapsacks == (0,)
        assert out.capacities == (5, 5)

    def test_oversized_group_removed_and_items_compacted(self):
        inst = make([5, 5], [9, 9, 2], [(0, 1), (2,)], [18, 2])
        out, report = normalize(inst)
        assert report.removed_groups == (0,)
        assert out.item_weights == (2,)
        assert out.groups == ((0,),)
        assert out.rewards == (2,)

    def test_cascade_to_fixed_point(self):
        # dropping the big group raises min weight, which kills knapsack 0
        inst = make([2, 6, 6], [13, 4, 4], [(0,), (1,), (2,)], [13, 4, 4])
        out, report = normalize(inst)
        assert report.removed_groups == (0,)
        assert report.removed_knapsacks == (0,)
        assert out.capacities == (6, 6)

    def test_too_few_knapsacks_raises(self):
        inst = make([1, 5], [3], [(0,)], [3])
        with pytest.raises(GmkpError):
            normalize(inst)

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(30):
            inst = random_small_instance(rng)
            once, _ = normalize(inst)
            twice, report = normalize(once)
            assert twice == once and not report.changed


class TestMetrics:
    def test_reward_and_overload(self):
        inst = make([5, 5], [4, 3, 2], [(0, 1), (2,)], [9, 2])
        sel = Selection((True, False))
        asg = Assignment.build(inst, (0, 1, None))
        m = metrics(inst, sel, asg)
        assert m.reward == 9
        assert m.max_exceeded == -1
        assert m.beta_ratio == Fraction(-1, 5) and m.alpha_ratio is None

    def test_alpha_ratio(self):
        inst = make([5, 5], [4], [(0,)], [7])
        sel = Selection((True,))
        asg = Assignment.build(inst, (0,))
        m = metrics(inst, sel, asg, oracle_reward=14)
        assert m.alpha_ratio == 1 / 2

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
    inst = random_small_instance(rng)
    out, report = normalize(inst)
    kept = [l for l in range(inst.k) if l not in set(report.removed_groups)]
    assert out.rewards == tuple(inst.rewards[l] for l in kept)
    assert out.group_weights() == tuple(inst.group_weight(l) for l in kept)
    assert validate(out) == []
