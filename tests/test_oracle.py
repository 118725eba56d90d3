"""Exact oracles cross-checked against raw enumeration."""

import itertools
import random

import pytest

from gmkp.model import BudgetExceededError, Selection
from gmkp.oracle import enumerate_feasible_z, exact_gmkp, feasible_packing
from gmkp.subset_select import SelectionProblem
from conftest import group_ranges, make, random_small_instance


def packable_by_enumeration(instance, selection):
    """Ground truth by trying every placement (m^n, tiny inputs only)."""
    ranges = group_ranges(instance)
    items = [j for l in selection.indices() for j in ranges[l]]
    if not items:
        return True
    for combo in itertools.product(range(instance.m), repeat=len(items)):
        loads = [0] * instance.m
        for j, i in zip(items, combo):
            loads[i] += instance.item_weights[j]
        if all(ld <= c for ld, c in zip(loads, instance.capacities)):
            return True
    return False


class TestFeasiblePacking:
    def test_matches_enumeration(self):
        rng = random.Random(41)
        checked = 0
        while checked < 60:
            inst = random_small_instance(rng, max_m=3, max_k=4, max_n=7)
            sel = Selection(tuple(rng.random() < 0.7 for _ in range(inst.k)))
            truth = packable_by_enumeration(inst, sel)
            packed = feasible_packing(inst, sel)
            assert (packed is not None) == truth
            if packed is not None:
                assert packed.max_exceeded(inst) <= 0
                for l, g in enumerate(group_ranges(inst)):
                    for j in g:
                        assert (packed.placement[j] is not None) == sel.chosen[l]
            checked += 1

    def test_empty_selection(self):
        inst = make([5, 5], [3], [(0,)], [3])
        packed = feasible_packing(inst, Selection((False,)))
        assert packed is not None and packed.loads == (0, 0)

    def test_budget_raises(self):
        # a one-node budget must trip as soon as the search recurses
        inst = make([10, 11], [6, 6, 5, 4], [(0, 1, 2, 3)], [21])
        with pytest.raises(BudgetExceededError):
            feasible_packing(inst, Selection((True,)), node_budget=1)


class TestExactGmkp:
    def test_matches_subset_enumeration(self):
        rng = random.Random(42)
        for _ in range(40):
            inst = random_small_instance(rng, max_m=3, max_k=5, max_n=8)
            v_star, sel, asg = exact_gmkp(inst)
            assert sel.reward(inst) == v_star
            assert asg.max_exceeded(inst) <= 0
            best = 0
            for mask in range(1 << inst.k):
                cand = Selection(tuple(bool(mask >> l & 1) for l in range(inst.k)))
                if packable_by_enumeration(inst, cand):
                    best = max(best, cand.reward(inst))
            assert v_star == best

    def test_empty_optimum(self):
        # nothing fits: optimum is the empty selection
        inst = make([5, 5], [6, 6], [(0, 1)], [12])
        v_star, sel, asg = exact_gmkp(inst)
        assert v_star == 0 and sel.indices() == () and asg.loads == (0, 0)

    def test_one_budget_for_the_whole_search(self):
        # a budget that each leaf's packing fits on its own still bounds
        # the subset nodes and the packings together
        inst = random_small_instance(random.Random(44), max_m=3, max_k=5, max_n=8)

        def packing_nodes(sel):
            for budget in itertools.count():
                try:
                    feasible_packing(inst, sel, node_budget=budget)
                    return budget
                except BudgetExceededError:
                    pass

        budget = max(
            packing_nodes(Selection(tuple(bool(mask >> l & 1) for l in range(inst.k))))
            for mask in range(1 << inst.k)
        )
        exact_gmkp(inst)
        with pytest.raises(BudgetExceededError):
            exact_gmkp(inst, node_budget=budget)

    def test_witness_is_consistent(self):
        rng = random.Random(43)
        for _ in range(20):
            inst = random_small_instance(rng, max_m=3, max_k=5, max_n=8)
            v_star, sel, asg = exact_gmkp(inst)
            placed = {j for j in range(inst.n) if asg.placement[j] is not None}
            ranges = group_ranges(inst)
            expected = {j for l in sel.indices() for j in ranges[l]}
            assert placed == expected


class TestEnumerateFeasibleZ:
    def test_small_problem(self):
        prob = SelectionProblem((3, 4), (((3, 4), 4),))
        z = enumerate_feasible_z(prob)
        assert z == {(False, False), (True, False), (False, True)}

    def test_guard_on_large_k(self):
        prob = SelectionProblem((1,) * 21, (((1,) * 21, 5),))
        with pytest.raises(ValueError):
            enumerate_feasible_z(prob)
