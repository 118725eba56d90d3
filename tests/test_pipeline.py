"""Two-stage pipeline, best-of runs, and guarantee checking."""

import random
from fractions import Fraction

import pytest

from gmkp import pipeline
from gmkp.model import InconsistentSolutionError, metrics
from gmkp.oracle import exact_gmkp
from gmkp.pipeline import (
    beta_bound_for,
    hundred_mkp_d_set,
    powers_of_common_base,
    run_algorithm,
    run_best,
)
from conftest import make, random_small_instance

VARIANTS = ("lp", "kp", "2mkp", "3mkp", "mkpd", "mkpprime")


class TestRunAlgorithm:
    def test_metrics_consistent(self):
        rng = random.Random(31)
        for _ in range(25):
            inst = random_small_instance(rng)
            for variant in ("lp", "kp", "2mkp", "3mkp"):
                res = run_algorithm(inst, variant, swap_opt=True)
                # recompute from scratch; raises on any inconsistency
                again = metrics(inst, res.selection, res.assignment)
                assert again.reward == res.metrics.reward
                assert again.max_exceeded == res.metrics.max_exceeded

    def test_timings_present(self):
        inst = make([5, 5], [3, 2], [(0, 1)], [5])
        res = run_algorithm(inst, "kp")
        assert set(res.timings_ms) == {"selection", "assignment", "swap_opt"}
        assert not res.swap_opt_applied

    def test_swap_opt_never_hurts_overload(self):
        rng = random.Random(32)
        for _ in range(25):
            inst = random_small_instance(rng)
            plain = run_algorithm(inst, "3mkp")
            polished = run_algorithm(inst, "3mkp", swap_opt=True)
            assert polished.metrics.max_exceeded <= plain.metrics.max_exceeded
            assert polished.metrics.reward == plain.metrics.reward

    def test_mkpd_and_hundred_set(self):
        inst = make([100, 100], [60, 40, 34], [(0, 1), (2,)], [100, 34])
        res = run_algorithm(inst, "mkpd", d_set=hundred_mkp_d_set(inst.c_max))
        assert res.algorithm == "mkpd"
        v_star, _, _ = exact_gmkp(inst)
        assert res.metrics.reward >= v_star

    @pytest.mark.parametrize("total_capacity, raises", [(None, True), (20, True), (21, False)])
    def test_checks_the_proven_bound_up_to_the_total_capacity(self, total_capacity, raises,
                                                               monkeypatch):
        # a bound of -2 * c_max: every placement breaks it
        monkeypatch.setattr(pipeline, "beta_bound_for", lambda *args: Fraction(-2))
        inst = make([10, 10], [6, 4, 5, 3], [(0, 1), (2,), (3,)], [10, 5, 3])
        if raises:
            with pytest.raises(InconsistentSolutionError, match="exceeds its proven bound"):
                run_algorithm(inst, "2mkp", total_capacity=total_capacity)
        else:
            assert run_algorithm(inst, "2mkp", total_capacity=total_capacity).metrics.reward == 18

    def test_all_variants_tagged(self):
        inst = make([6, 6], [4, 3], [(0,), (1,)], [4, 3])
        for variant in VARIANTS:
            d = [Fraction(3)] if variant == "mkpd" else None
            res = run_algorithm(inst, variant, d_set=d)
            assert res.algorithm == variant


class TestRunBest:
    def test_feasibility_first(self):
        rng = random.Random(33)
        for _ in range(25):
            inst = random_small_instance(rng)
            best = run_best(inst, swap_opt=True)
            for v in ("lp", "kp", "2mkp", "3mkp"):
                res = run_algorithm(inst, v, swap_opt=True)
                key = (res.metrics.max_exceeded, -res.metrics.reward)
                assert (best.metrics.max_exceeded, -best.metrics.reward) <= key

    def test_keeps_winner_tag(self):
        inst = make([6, 6], [4, 4, 4], [(0, 1, 2)], [12])
        best = run_best(inst)
        assert best.algorithm in ("lp", "kp", "2mkp", "3mkp")


class TestPowersOfCommonBase:
    def test_powers_of_two(self):
        assert powers_of_common_base([1, 2, 8, 64]) == 2

    def test_powers_of_three(self):
        assert powers_of_common_base([3, 9, 27]) == 3

    def test_smallest_base_wins(self):
        assert powers_of_common_base([4, 16]) == 2

    def test_all_ones(self):
        assert powers_of_common_base([1, 1]) == 2

    def test_no_base(self):
        assert powers_of_common_base([2, 3]) is None
        assert powers_of_common_base([6, 36, 10]) is None


class TestBetaBounds:
    def test_table(self):
        inst = make([9, 9], [8, 4], [(0,), (1,)], [8, 4])
        assert beta_bound_for(inst, "lp") == 2
        assert beta_bound_for(inst, "kp") == 1
        assert beta_bound_for(inst, "2mkp") == Fraction(1, 2)
        assert beta_bound_for(inst, "3mkp") == Fraction(1, 3)  # equal caps
        hetero = make([9, 6], [5, 4], [(0,), (1,)], [5, 4])
        assert beta_bound_for(hetero, "3mkp") == Fraction(1, 2)

    def test_mkpd_depends_on_thresholds(self):
        inst = make([12, 12], [7, 5], [(0,), (1,)], [7, 5])
        half, third = Fraction(6), Fraction(4)
        assert beta_bound_for(inst, "mkpd", d_set=[half]) == Fraction(1, 2)
        assert beta_bound_for(inst, "mkpd", d_set=[half, third]) == Fraction(1, 3)
        assert beta_bound_for(inst, "mkpd", d_set=[Fraction(5)]) == 1

    def test_unknown_variant_raises(self):
        inst = make([9, 9], [8, 4], [(0,), (1,)], [8, 4])
        with pytest.raises(ValueError, match="unknown variant"):
            beta_bound_for(inst, "nope")

    def test_special_cases_zero(self):
        heavy = make([8, 8], [5, 6], [(0,), (1,)], [5, 6])
        assert beta_bound_for(heavy, "2mkp") == 0
        pow2 = make([8, 8], [2, 4], [(0,), (1,)], [2, 4])
        assert beta_bound_for(pow2, "kp") == 0
        mixed = make([4, 8], [2, 4], [(0,), (1,)], [2, 4])
        assert beta_bound_for(mixed, "mkpprime") == 0
        assert beta_bound_for(mixed, "kp") == 1  # kp needs equal capacities


class TestCheckGuarantees:
    def test_reports_pass(self):
        rng = random.Random(34)
        for _ in range(20):
            inst = random_small_instance(rng)
            v_star, _, _ = exact_gmkp(inst)
            res = run_algorithm(inst, "2mkp")
            assert res.metrics.max_exceeded <= beta_bound_for(inst, "2mkp") * inst.c_max
            assert res.metrics.reward >= v_star
