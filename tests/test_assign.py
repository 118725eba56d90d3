"""Greedy placement and jump/swap local search."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from gmkp import gen, pipeline
from gmkp.assign import greedy_assign, swap_optimal
from gmkp.model import Assignment, GmkpError, Selection
from conftest import group_ranges, make, random_small_instance


def potential(instance, loads):
    c_max = instance.c_max
    return sum((ld - c + c_max) ** 2 for ld, c in zip(loads, instance.capacities))


def improving_move_exists(instance, assignment):
    """Exhaustive scan: any jump or swap that lowers the potential without
    raising the maximum overload."""
    loads = list(assignment.loads)
    caps = instance.capacities
    cur_max = max(ld - c for ld, c in zip(loads, caps))
    phi = potential(instance, loads)
    placed = [j for j in range(instance.n) if assignment.placement[j] is not None]
    for j in placed:
        src = assignment.placement[j]
        w = instance.item_weights[j]
        for dst in range(instance.m):
            if dst == src:
                continue
            new = loads.copy()
            new[src] -= w
            new[dst] += w
            if potential(instance, new) < phi and max(
                ld - c for ld, c in zip(new, caps)
            ) <= cur_max:
                return True
    for a, j1 in enumerate(placed):
        for j2 in placed[a + 1 :]:
            i1, i2 = assignment.placement[j1], assignment.placement[j2]
            if i1 == i2:
                continue
            w1, w2 = instance.item_weights[j1], instance.item_weights[j2]
            new = loads.copy()
            new[i1] += w2 - w1
            new[i2] += w1 - w2
            if potential(instance, new) < phi and max(
                ld - c for ld, c in zip(new, caps)
            ) <= cur_max:
                return True
    return False


def reference_swap_optimal(instance, assignment):
    """The scan-based swap-opt that ``swap_optimal`` replaced, kept as the
    reference for the differential tests: a full (item, target) jump scan,
    then a full pair scan with squared potential deltas and an explicit
    max-overload check, restarting after every move."""
    placement = list(assignment.placement)
    loads = list(assignment.loads)
    caps = instance.capacities
    c_max = instance.c_max
    weights = instance.item_weights
    placed = [j for j in range(instance.n) if placement[j] is not None]
    if not placed:
        return assignment

    phi0 = potential(instance, loads)
    guard = len(placed) ** 2 * instance.m * max(phi0, 1)
    steps = 0

    def max_overload():
        return max(load - c for load, c in zip(loads, caps))

    improved = True
    while improved:
        improved = False
        cur_max = max_overload()
        for j in placed:
            src = placement[j]
            w = weights[j]
            for dst in range(instance.m):
                steps += 1
                if steps > guard:
                    raise GmkpError("swap-optimal step guard exceeded")
                if dst == src:
                    continue
                a = loads[src] - caps[src] + c_max
                b = loads[dst] - caps[dst] + c_max
                delta = ((a - w) ** 2 - a**2) + ((b + w) ** 2 - b**2)
                if delta >= 0:
                    continue
                new_dst_over = loads[dst] + w - caps[dst]
                if new_dst_over > cur_max:
                    continue
                loads[src] -= w
                loads[dst] += w
                placement[j] = dst
                improved = True
                break
            if improved:
                break
        if improved:
            continue
        for a_idx, j1 in enumerate(placed):
            i1 = placement[j1]
            w1 = weights[j1]
            for j2 in placed[a_idx + 1 :]:
                steps += 1
                if steps > guard:
                    raise GmkpError("swap-optimal step guard exceeded")
                i2 = placement[j2]
                if i1 == i2:
                    continue
                w2 = weights[j2]
                diff = w2 - w1
                a = loads[i1] - caps[i1] + c_max
                b = loads[i2] - caps[i2] + c_max
                delta = ((a + diff) ** 2 - a**2) + ((b - diff) ** 2 - b**2)
                if delta >= 0:
                    continue
                if max(loads[i1] + diff - caps[i1], loads[i2] - diff - caps[i2]) > cur_max:
                    continue
                loads[i1] += diff
                loads[i2] -= diff
                placement[j1], placement[j2] = i2, i1
                improved = True
                break
            if improved:
                break
    return Assignment(tuple(placement), tuple(loads))


def random_assignment(rng, instance, selection):
    placement = [None] * instance.n
    ranges = group_ranges(instance)
    for l in selection.indices():
        for j in ranges[l]:
            placement[j] = rng.randrange(instance.m)
    return Assignment.build(instance, placement)


class TestGreedyAssign:
    def test_least_overloaded_first(self):
        inst = make([10, 6], [7, 5, 3], [(0, 1, 2)], [15])
        asg = greedy_assign(inst, Selection((True,)))
        # heaviest item to the roomier knapsack, then rebalance
        assert asg.placement == (0, 1, 0)
        assert asg.loads == (10, 5)

    def test_ties_go_to_lower_index(self):
        inst = make([5, 5], [2, 2], [(0, 1)], [4])
        asg = greedy_assign(inst, Selection((True,)))
        assert asg.placement == (0, 1)

    def test_unchosen_groups_stay_unplaced(self):
        inst = make([5, 5], [2, 3], [(0,), (1,)], [2, 3])
        asg = greedy_assign(inst, Selection((False, True)))
        assert asg.placement == (None, 0)
        assert asg.loads == (3, 0)

    def test_empty_selection(self):
        inst = make([5, 5], [2], [(0,)], [2])
        asg = greedy_assign(inst, Selection((False,)))
        assert asg == Assignment.empty(inst)

    def test_loads_consistent(self):
        rng = random.Random(21)
        for _ in range(50):
            inst = random_small_instance(rng)
            sel = Selection(tuple(rng.random() < 0.6 for _ in range(inst.k)))
            asg = greedy_assign(inst, sel)
            assert asg == Assignment.build(inst, asg.placement)


class TestSwapOptimal:
    def test_fixed_point_has_no_improving_move(self):
        rng = random.Random(22)
        for _ in range(60):
            inst = random_small_instance(rng)
            sel = Selection(tuple(rng.random() < 0.7 for _ in range(inst.k)))
            asg = swap_optimal(inst, random_assignment(rng, inst, sel))
            assert not improving_move_exists(inst, asg)

    def test_never_raises_max_overload(self):
        rng = random.Random(23)
        for _ in range(60):
            inst = random_small_instance(rng)
            sel = Selection(tuple(rng.random() < 0.7 for _ in range(inst.k)))
            before = random_assignment(rng, inst, sel)
            after = swap_optimal(inst, before)
            assert after.max_exceeded(inst) <= before.max_exceeded(inst)

    def test_never_raises_potential(self):
        rng = random.Random(24)
        for _ in range(40):
            inst = random_small_instance(rng)
            sel = Selection(tuple(rng.random() < 0.7 for _ in range(inst.k)))
            before = random_assignment(rng, inst, sel)
            after = swap_optimal(inst, before)
            assert potential(inst, after.loads) <= potential(inst, before.loads)

    def test_preserves_placed_set(self):
        rng = random.Random(25)
        for _ in range(40):
            inst = random_small_instance(rng)
            sel = Selection(tuple(rng.random() < 0.7 for _ in range(inst.k)))
            before = random_assignment(rng, inst, sel)
            after = swap_optimal(inst, before)
            for j in range(inst.n):
                assert (before.placement[j] is None) == (after.placement[j] is None)
            assert after == Assignment.build(inst, after.placement)

    def test_rebalances_skewed_pile(self):
        inst = make([5, 5, 5], [3, 3, 3], [(0, 1, 2)], [9])
        piled = Assignment.build(inst, (0, 0, 0))
        after = swap_optimal(inst, piled)
        assert sorted(after.loads) == [3, 3, 3]

    def test_empty_assignment_passthrough(self):
        inst = make([5, 5], [2], [(0,)], [2])
        empty = Assignment.empty(inst)
        assert swap_optimal(inst, empty) == empty

    def test_deterministic(self):
        rng = random.Random(26)
        for _ in range(20):
            inst = random_small_instance(rng)
            sel = Selection(tuple(rng.random() < 0.7 for _ in range(inst.k)))
            before = random_assignment(rng, inst, sel)
            assert swap_optimal(inst, before) == swap_optimal(inst, before)


class TestSwapOptimalMatchesReference:
    """Same moves in the same order as the scan-based reference."""

    def test_random_starts(self):
        rng = random.Random(27)
        for _ in range(1000):
            inst = random_small_instance(rng, max_m=6, max_n=30)
            sel = Selection(tuple(rng.random() < 0.8 for _ in range(inst.k)))
            before = random_assignment(rng, inst, sel)
            assert swap_optimal(inst, before) == reference_swap_optimal(inst, before)

    def test_piled_start(self):
        rng = random.Random(28)
        weights = [rng.randint(1, 40) for _ in range(60)]
        inst = make([rng.randint(50, 120) for _ in range(8)], weights, [tuple(range(60))], [1])
        piled = Assignment.build(inst, [0] * 60)
        after = swap_optimal(inst, piled)
        assert after == reference_swap_optimal(inst, piled)
        assert not improving_move_exists(inst, after)

    def test_zero_weight_item_never_moves(self):
        # validate() rejects it, but Instance() accepts a zero weight
        inst = make([10, 10, 10], [0, 7, 6, 5, 4, 3], [(0, 1, 2), (3, 4, 5)], [1, 1])
        for start in ([0, 0, 0, 0, 0, 0], [1, 0, 0, 0, 2, 0], [2, 1, 1, 1, 1, 1]):
            before = Assignment.build(inst, start)
            after = swap_optimal(inst, before)
            assert after == reference_swap_optimal(inst, before)
            assert after.placement[0] == start[0]

    def test_negative_weight_item(self):
        # invalid too, but moved exactly as the reference moves it
        inst = make([10, 10, 10], [-4, 7, 6, 5, 4, 3], [(0, 1, 2), (3, 4, 5)], [1, 1])
        for start in ([0, 0, 0, 0, 0, 0], [1, 0, 0, 0, 2, 0], [2, 1, 1, 1, 1, 1]):
            before = Assignment.build(inst, start)
            assert swap_optimal(inst, before) == reference_swap_optimal(inst, before)

    def test_generator_instances(self):
        for idx, point in enumerate(gen.latin_hypercube(4, 5)):
            unit = [0.25 * float(u) if d in (0, 4) else float(u) for d, u in enumerate(point)]
            inst = gen.generate_instance(gen.materialize(unit, seed=idx))
            for variant in ("lp", "kp", "2mkp", "3mkp", "mkpprime"):
                before = pipeline.run_algorithm(inst, variant, swap_opt=False).assignment
                assert swap_optimal(inst, before) == reference_swap_optimal(inst, before)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_swap_optimal_properties(seed):
    rng = random.Random(seed)
    inst = random_small_instance(rng)
    sel = Selection(tuple(rng.random() < 0.7 for _ in range(inst.k)))
    before = random_assignment(rng, inst, sel)
    after = swap_optimal(inst, before)
    assert after.max_exceeded(inst) <= before.max_exceeded(inst)
    assert not improving_move_exists(inst, after)
