"""Greedy continuous-relaxation solver."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmkp.lp_greedy import greedy_lp, sort_groups
from gmkp.oracle import exact_gmkp
from conftest import group_ranges, make, random_small_instance


def objective(inst, z):
    """The fractional reward of the selection ``z``."""
    return sum(zl * p for zl, p in zip(z, inst.rewards))


def used_weight(inst, z):
    """The fractional weight of the selection ``z``."""
    return sum(zl * gw for zl, gw in zip(z, inst.group_weights()))


def pour(inst, z):
    """Placements ``x[(i, j)]``: the fraction of item ``j`` on knapsack ``i``.

    Groups are poured in ratio order, each item's ``z`` share filling the
    knapsacks one by one.
    """
    x = {}
    i, room = 0, Fraction(inst.capacities[0])
    ranges = group_ranges(inst)
    for l in sort_groups(inst):
        for j in ranges[l]:
            weight = z[l] * inst.item_weights[j]
            while weight > 0:
                assert i < inst.m, "knapsacks exhausted before the selection is placed"
                piece = min(weight, room)
                x[(i, j)] = x.get((i, j), Fraction(0)) + piece / inst.item_weights[j]
                weight -= piece
                room -= piece
                if room == 0:
                    i += 1
                    room = Fraction(inst.capacities[i]) if i < inst.m else Fraction(0)
    return x


class TestSortGroups:
    def test_ratio_order(self):
        # ratios: 10/5=2, 9/3=3, 4/4=1
        inst = make([9, 9], [5, 3, 4], [(0,), (1,), (2,)], [10, 9, 4])
        assert sort_groups(inst) == [1, 0, 2]

    def test_exact_tie_goes_to_lower_index(self):
        # 1/3 vs 333333/999999: equal as exact rationals
        inst = make([10**6, 10**6], [3, 999999], [(0,), (1,)], [1, 333333])
        assert sort_groups(inst) == [0, 1]

    def test_no_float_error(self):
        # ratios differ only in the 18th digit; floats would tie
        a, b = 10**17 + 1, 10**17
        inst = make([a, a], [a, b], [(0,), (1,)], [b, b])
        assert sort_groups(inst) == [1, 0]


class TestGreedyLp:
    def test_tight_example(self):
        inst = make([4, 4, 4], [4, 4, 3, 3, 3, 3, 3], [(0, 1, 2), (3, 4, 5, 6)], [11, 12])
        frac = greedy_lp(inst)
        assert frac == (Fraction(1), Fraction(1, 12))

    def test_at_most_one_fractional_group(self):
        rng = random.Random(3)
        for _ in range(60):
            inst = random_small_instance(rng)
            frac = greedy_lp(inst)
            fractional = [z for z in frac if 0 < z < 1]
            assert len(fractional) <= 1

    def test_prefix_structure(self):
        rng = random.Random(4)
        for _ in range(60):
            inst = random_small_instance(rng)
            frac = greedy_lp(inst)
            order = sort_groups(inst)
            seen_zero = False
            for l in order:
                if frac[l] < 1:
                    if seen_zero:
                        assert frac[l] == 0
                    seen_zero = True

    def test_total_weight_equals_min_budget_or_everything(self):
        rng = random.Random(5)
        for _ in range(40):
            inst = random_small_instance(rng)
            frac = greedy_lp(inst)
            used = used_weight(inst, frac)
            assert used == min(inst.total_capacity, sum(inst.item_weights))

    def test_placements_match_z_and_fit_capacities(self):
        rng = random.Random(6)
        for _ in range(40):
            inst = random_small_instance(rng)
            frac = greedy_lp(inst)
            loads = [Fraction(0)] * inst.m
            placed = [Fraction(0)] * inst.n
            for (i, j), share in pour(inst, frac).items():
                loads[i] += share * inst.item_weights[j]
                placed[j] += share
            for i in range(inst.m):
                assert loads[i] <= inst.capacities[i]
            for l, g in enumerate(group_ranges(inst)):
                for j in g:
                    assert placed[j] == frac[l]

    def test_sparse_x(self):
        rng = random.Random(7)
        for _ in range(40):
            inst = random_small_instance(rng)
            frac = greedy_lp(inst)
            assert len(pour(inst, frac)) <= inst.n + inst.m

    def test_objective_at_least_integer_optimum(self):
        rng = random.Random(8)
        for _ in range(25):
            inst = random_small_instance(rng)
            frac = greedy_lp(inst)
            v_star, _, _ = exact_gmkp(inst)
            assert objective(inst, frac) >= v_star

    def test_budget_override(self):
        inst = make([10, 10], [6, 4, 5], [(0, 1), (2,)], [10, 5])
        frac = greedy_lp(inst, total_capacity=5)
        used = used_weight(inst, frac)
        assert used == 5

    def test_budget_zero_selects_nothing(self):
        inst = make([10, 10], [6], [(0,)], [6])
        frac = greedy_lp(inst, total_capacity=0)
        assert frac == (Fraction(0),) and pour(inst, frac) == {}

    def test_budget_above_capacity_sum_is_clamped(self):
        inst = make([5, 5], [6, 6], [(0,), (1,)], [6, 6])
        frac = greedy_lp(inst, total_capacity=1000)
        used = used_weight(inst, frac)
        assert used == 10

    def test_negative_budget_rejected(self):
        inst = make([5, 5], [3], [(0,)], [3])
        with pytest.raises(ValueError):
            greedy_lp(inst, total_capacity=-1)


@given(st.integers(0, 2**32 - 1), st.integers(0, 60))
@settings(max_examples=40, deadline=None)
def test_budget_monotonicity(seed, budget):
    rng = random.Random(seed)
    inst = random_small_instance(rng)
    lo = greedy_lp(inst, total_capacity=budget)
    hi = greedy_lp(inst, total_capacity=budget + 5)
    assert objective(inst, hi) >= objective(inst, lo)
