"""Capacity-feasible search, capacity sweep, Pareto filtering."""

import random
from fractions import Fraction

import pytest

from gmkp import gen, subset_select
from gmkp.heuristics import (
    DEFAULT_SWEEP_FACTORS,
    binary_search_feasible,
    capacity_sweep,
    pareto_frontier,
)
from gmkp.model import Assignment, BiCriteriaMetrics, BudgetExceededError, Selection
from gmkp.oracle import exact_gmkp
from gmkp.pipeline import SolveResult, run_algorithm
from conftest import make, random_small_instance, recording_tables


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

    def test_common_base_scan_runs_once(self, monkeypatch):
        # kp's bound needs the scan on equal capacities; it is part of the
        # one problem every probe shares
        scans = []
        scan = subset_select.powers_of_common_base
        monkeypatch.setattr(subset_select, "powers_of_common_base",
                            lambda values: scans.append(1) or scan(values))
        inst = make([8, 8], [2, 4, 3, 5], [(0, 1), (2,), (3,)], [6, 3, 5])
        assert binary_search_feasible(inst, "kp").probes > 1
        assert len(capacity_sweep(inst, "kp")) > 1
        assert len(scans) == 2

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
            inst.group_weights()[l] for l in entries[0].result.selection.indices()
        )
        assert used <= (21 * 1) // 3

    def test_rejects_nonpositive_factor(self):
        inst = make([5, 5], [3], [(0,)], [3])
        with pytest.raises(ValueError):
            capacity_sweep(inst, "kp", factors=[Fraction(0)])


def reference_search(instance, variant, swap_opt=True, d_set=None, node_budget=None):
    """``binary_search_feasible`` as a loop of fresh ``run_algorithm`` calls.

    Returns the best feasible result and the probe count.
    """
    left, right = 0, instance.total_capacity
    best, probes = None, 0
    while left <= right:
        mid = (left + right) // 2
        probes += 1
        res = run_algorithm(instance, variant, swap_opt=swap_opt, total_capacity=mid,
                            d_set=d_set, node_budget=node_budget)
        if res.metrics.max_exceeded <= 0:
            if best is None or res.metrics.reward >= best.metrics.reward:
                best = res
            left = mid + 1
        else:
            right = mid - 1
    return best, probes


def reference_sweep(instance, variant, factors, swap_opt=True, d_set=None, node_budget=None):
    """``capacity_sweep`` as a loop of fresh ``run_algorithm`` calls: (factor, result, error)."""
    out = []
    for f in factors:
        try:
            res = run_algorithm(instance, variant, swap_opt=swap_opt,
                                total_capacity=int(f * instance.total_capacity),
                                d_set=d_set, node_budget=node_budget)
            out.append((f, res, None))
        except BudgetExceededError as exc:
            out.append((f, None, str(exc)))
    return out


def outcome(res):
    """Everything a run reports except its timings."""
    if res is None:
        return None
    return res.algorithm, res.selection, res.assignment, res.metrics, res.swap_opt_applied


class TestSharedProblemHeuristics:
    """The search and the sweep, which share one problem, against fresh runs."""

    VARIANTS = ("lp", "kp", "2mkp", "3mkp", "mkpd", "mkpprime")

    @pytest.mark.parametrize("tag", ["R0", "R1", "R3"])
    def test_equal_to_fresh_runs(self, tag):
        rng = random.Random(56)
        raised = errors = 0
        for trial in range(8):
            base = random_small_instance(rng, reward_mode="weight")
            inst = gen.apply_reward_scheme(base, gen.RewardScheme(tag, seed=trial))
            for variant in self.VARIANTS:
                d_set = sorted(subset_select.canonical_D(inst))[-3:] if variant == "mkpd" else None
                for node_budget in (None, 4):
                    kw = dict(d_set=d_set, node_budget=node_budget, swap_opt=trial % 2 == 0)
                    try:
                        want, want_probes = reference_search(inst, variant, **kw)
                    except BudgetExceededError as exc:
                        raised += 1
                        with pytest.raises(BudgetExceededError, match=str(exc)):
                            binary_search_feasible(inst, variant, **kw)
                    else:
                        got = binary_search_feasible(inst, variant, **kw)
                        assert got.probes == want_probes
                        assert outcome(got.result) == outcome(want)

                    want_rows = reference_sweep(inst, variant, DEFAULT_SWEEP_FACTORS, **kw)
                    got_rows = capacity_sweep(inst, variant, **kw)
                    assert [(e.factor, outcome(e.result), e.error) for e in got_rows] == [
                        (f, outcome(res), err) for f, res, err in want_rows
                    ]
                    errors += sum(e.error is not None for e in got_rows)
        if tag != "R0":
            # the small node budget does fail some probes of branch and bound
            assert raised and errors

    def test_huge_factor_builds_no_large_dp_table(self, monkeypatch):
        # 1/100 takes the full weight DP, 10**400 the DP over every type with
        # each right-hand side clipped to the total coefficient: one forward
        # pass, at the total weight, serves both, never near the DP's limit
        built = recording_tables(monkeypatch)
        factors = [Fraction(1, 100), Fraction("1e400")]
        rng = random.Random(57)
        for _ in range(10):
            inst = random_small_instance(rng, reward_mode="weight")
            for variant in ("kp", "2mkp", "3mkp"):
                built.clear()
                got = capacity_sweep(inst, variant, factors=factors)
                assert [t for _, t in built] == [sum(inst.group_weights())]
                want = reference_sweep(inst, variant, factors)
                assert [(e.factor, outcome(e.result), e.error) for e in got] == [
                    (f, outcome(res), err) for f, res, err in want
                ]


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
