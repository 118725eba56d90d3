"""Capacity-feasible search, capacity sweep, Pareto filtering."""

import random
from fractions import Fraction

import pytest

from gmkp.heuristics import (
    DEFAULT_SWEEP_FACTORS,
    binary_search_feasible,
    capacity_sweep,
    pareto_frontier,
)
from gmkp.model import Assignment, BiCriteriaMetrics, Selection
from gmkp.oracle import exact_gmkp
from gmkp.pipeline import SolveResult
from conftest import make, random_small_instance


def fake_result(reward, max_exceeded):
    sel = Selection(())
    asg = Assignment((), ())
    met = BiCriteriaMetrics(reward=reward, max_exceeded=max_exceeded)
    return SolveResult("test", sel, asg, met)


class TestBinarySearchFeasible:
    def test_always_capacity_feasible(self):
        rng = random.Random(51)
        for _ in range(30):
            inst = random_small_instance(rng)
            out = binary_search_feasible(inst, "2mkp")
            assert out.result.metrics.max_exceeded <= 0

    def test_reward_at_most_optimum(self):
        rng = random.Random(52)
        for _ in range(20):
            inst = random_small_instance(rng)
            v_star, _, _ = exact_gmkp(inst)
            out = binary_search_feasible(inst, "3mkp")
            assert out.result.metrics.reward <= v_star

    def test_probe_count_is_logarithmic(self):
        # each probe halves [left, right], which starts at [0, C]
        rng = random.Random(53)
        for _ in range(30):
            inst = random_small_instance(rng)
            out = binary_search_feasible(inst, "kp")
            assert 1 <= out.probes <= (inst.total_capacity + 1).bit_length()

    def test_empty_when_nothing_fits(self):
        inst = make([5, 6], [6, 6], [(0, 1)], [12])
        out = binary_search_feasible(inst, "kp")
        assert out.result.metrics.reward == 0
        assert out.result.metrics.max_exceeded <= 0


class TestCapacitySweep:
    def test_default_factors(self):
        assert len(DEFAULT_SWEEP_FACTORS) == 11
        assert DEFAULT_SWEEP_FACTORS[0] == Fraction(3, 4)
        assert DEFAULT_SWEEP_FACTORS[-1] == Fraction(5, 4)
        steps = {
            b - a for a, b in zip(DEFAULT_SWEEP_FACTORS, DEFAULT_SWEEP_FACTORS[1:])
        }
        assert steps == {Fraction(1, 20)}

    def test_one_row_per_factor(self):
        rng = random.Random(53)
        inst = random_small_instance(rng)
        entries = capacity_sweep(inst, "2mkp")
        assert len(entries) == 11
        assert [e.factor for e in entries] == list(DEFAULT_SWEEP_FACTORS)
        for e in entries:
            assert e.result is not None

    def test_budget_is_floored_product(self):
        inst = make([10, 11], [6, 5], [(0,), (1,)], [6, 5])
        entries = capacity_sweep(inst, "kp", factors=[Fraction(1, 3)])
        used = sum(
            inst.group_weight(l) for l in entries[0].result.selection.indices()
        )
        assert used <= (21 * 1) // 3

    def test_rejects_nonpositive_factor(self):
        inst = make([5, 5], [3], [(0,)], [3])
        with pytest.raises(ValueError):
            capacity_sweep(inst, "kp", factors=[Fraction(0)])


def reference_pareto_frontier(results):
    """The pairwise frontier: keep each result no other one dominates, then sort."""
    keep = []
    seen_pairs = set()
    for a in results:
        pair = (a.metrics.reward, a.metrics.max_exceeded)
        if pair in seen_pairs:
            continue
        dominated = False
        for b in results:
            if b is a:
                continue
            if (
                b.metrics.reward >= a.metrics.reward
                and b.metrics.max_exceeded <= a.metrics.max_exceeded
                and (
                    b.metrics.reward > a.metrics.reward
                    or b.metrics.max_exceeded < a.metrics.max_exceeded
                )
            ):
                dominated = True
                break
        if not dominated:
            keep.append(a)
            seen_pairs.add(pair)
    return sorted(keep, key=lambda r: (r.metrics.max_exceeded, -r.metrics.reward))


class TestParetoFrontier:
    def brute(self, results):
        keep = []
        for a in results:
            if any(
                (b.metrics.reward >= a.metrics.reward
                 and b.metrics.max_exceeded <= a.metrics.max_exceeded
                 and (b.metrics.reward > a.metrics.reward
                      or b.metrics.max_exceeded < a.metrics.max_exceeded))
                for b in results
            ):
                continue
            keep.append(a)
        return keep

    def test_matches_brute_force(self):
        rng = random.Random(54)
        for _ in range(100):
            results = [
                fake_result(rng.randint(0, 20), rng.randint(-5, 10))
                for _ in range(rng.randint(0, 12))
            ]
            got = pareto_frontier(results)
            want = {
                (r.metrics.reward, r.metrics.max_exceeded) for r in self.brute(results)
            }
            assert {(r.metrics.reward, r.metrics.max_exceeded) for r in got} == want
            # sorted by overload, no duplicate metric pairs
            pairs = [(r.metrics.max_exceeded, -r.metrics.reward) for r in got]
            assert pairs == sorted(pairs)
            assert len(pairs) == len(set(pairs))

    def test_same_objects_as_pairwise_reference(self):
        # few distinct values: many repeated pairs and ties on either metric
        rng = random.Random(55)
        for _ in range(2000):
            results = [
                fake_result(rng.randint(0, 4), rng.randint(-2, 2))
                for _ in range(rng.randint(0, 15))
            ]
            got = [id(r) for r in pareto_frontier(results)]
            assert got == [id(r) for r in reference_pareto_frontier(results)]

    def test_empty(self):
        assert pareto_frontier([]) == []

    def test_duplicates_collapse(self):
        results = [fake_result(5, 1), fake_result(5, 1)]
        frontier = pareto_frontier(results)
        assert len(frontier) == 1 and frontier[0] is results[0]
