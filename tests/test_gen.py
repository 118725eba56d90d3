"""Instance generation: stratified sampling, weights, groups, rewards."""

import math
from fractions import Fraction

import numpy as np
import pytest

from gmkp.gen import (
    RNG_NAME,
    GeneratorParams,
    RewardScheme,
    apply_reward_scheme,
    generate_instance,
    latin_hypercube,
    materialize,
)
from gmkp.model import validate


def params(**overrides):
    base = dict(
        m=4,
        w_split=20,
        w_min=10,
        w_mode=18,
        r_load=Fraction(3),
        r_conc=Fraction(1, 2),
        capacity=100,
        seed=7,
    )
    base.update(overrides)
    return GeneratorParams(**base)


class TestLatinHypercube:
    def test_shape_and_range(self):
        pts = latin_hypercube(20, seed=1)
        assert pts.shape == (20, 6)
        assert np.all(pts >= 0) and np.all(pts < 1)

    def test_one_point_per_stratum(self):
        count = 25
        pts = latin_hypercube(count, seed=2)
        for d in range(6):
            strata = sorted(int(u * count) for u in pts[:, d])
            assert strata == list(range(count))

    def test_deterministic(self):
        assert np.array_equal(latin_hypercube(10, seed=3), latin_hypercube(10, seed=3))
        assert not np.array_equal(
            latin_hypercube(10, seed=3), latin_hypercube(10, seed=4)
        )

    def test_count_validation(self):
        with pytest.raises(ValueError):
            latin_hypercube(0, seed=1)


class TestMaterialize:
    def test_corner_points(self):
        lo = materialize(np.zeros(6))
        assert (lo.m, lo.w_split, lo.w_min) == (2, 1, 1)
        assert lo.w_mode == lo.w_min
        assert lo.r_load == 1 and lo.r_conc == 0
        hi = materialize(np.full(6, 1 - 1e-12))
        assert hi.m == 100 and hi.w_split == 99 and hi.w_max <= 100
        assert hi.w_mode == hi.w_max
        assert 1 <= hi.r_load <= 20 and 0 <= hi.r_conc <= 1

    def test_always_valid_over_grid(self):
        for u in np.linspace(0, 0.999, 8):
            for v in np.linspace(0, 0.999, 8):
                p = materialize([u, v, v, u, v, u])
                assert 1 <= p.w_min <= p.w_mode <= p.w_max <= p.capacity

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            materialize([1.5, 0, 0, 0, 0, 0])


class TestGeneratorParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            params(w_min=0)
        with pytest.raises(ValueError):
            params(w_min=60)  # above capacity/2
        with pytest.raises(ValueError):
            params(w_mode=5)  # below w_min
        with pytest.raises(ValueError):
            params(r_load=Fraction(25))
        with pytest.raises(ValueError):
            params(m=1)

    def test_w_max(self):
        assert params().w_max == 30


class TestGenerateInstance:
    def test_basic_shape(self):
        inst = generate_instance(params())
        assert inst.capacities == (100,) * 4
        assert all(10 <= w <= 30 for w in inst.item_weights)
        assert validate(inst) == []

    def test_load_ratio_reached_minimally(self):
        p = params()
        inst = generate_instance(p)
        total = sum(inst.item_weights)
        cap_sum = 400
        assert Fraction(total, cap_sum) > p.r_load
        # r_conc = 0 keeps every draw in its own group, in draw order; grouping
        # does not change the draws themselves
        drawn = generate_instance(params(r_conc=Fraction(0)))
        assert sorted(drawn.item_weights) == sorted(inst.item_weights)
        assert Fraction(total - drawn.item_weights[-1], cap_sum) <= p.r_load

    def test_extreme_weights_present(self):
        # the two extreme weights seed groups 0 and 1
        inst = generate_instance(params())
        assert inst.group_items[0][0] == 10 and inst.group_items[1][0] == 30

    def test_group_count_tracks_concentration(self):
        spread = generate_instance(params(r_conc=Fraction(0)))
        assert spread.k == spread.n  # every group a singleton
        packed = generate_instance(params(r_conc=Fraction(9, 10)))
        assert packed.k < packed.n

    def test_groups_respect_total_capacity(self):
        inst = generate_instance(params(r_conc=Fraction(99, 100), r_load=Fraction(2)))
        for l in range(inst.k):
            assert inst.group_weights()[l] <= inst.total_capacity

    def test_rewards_default_to_group_weights(self):
        inst = generate_instance(params())
        assert inst.rewards == inst.group_weights()

    def test_deterministic_and_seed_sensitive(self):
        assert generate_instance(params()) == generate_instance(params())
        assert generate_instance(params()) != generate_instance(params(seed=8))

    def test_meta_records_rng(self):
        inst = generate_instance(params())
        assert RNG_NAME in inst.meta and "seed=7" in inst.meta


class TestRewardSchemes:
    def test_tag_validation(self):
        with pytest.raises(ValueError):
            RewardScheme("R9")

    def test_r0_keeps_totals(self):
        inst = generate_instance(params())
        assert apply_reward_scheme(inst, RewardScheme("R0")) == inst or (
            apply_reward_scheme(inst, RewardScheme("R0")).rewards == inst.rewards
        )

    def test_r1_is_rounded_sqrt_times_100(self):
        inst = generate_instance(params())
        out = apply_reward_scheme(inst, RewardScheme("R1"))
        for p, r in zip(inst.group_weights(), out.rewards):
            assert abs(r - math.sqrt(10000 * p)) <= 0.5 + 1e-9

    def test_r2_is_rounded_p_sqrt_p(self):
        inst = generate_instance(params())
        out = apply_reward_scheme(inst, RewardScheme("R2"))
        for p, r in zip(inst.group_weights(), out.rewards):
            assert abs(r - p * math.sqrt(p)) <= 0.5 + 1e-9

    def test_sqrt_rounding_is_exact(self):
        from gmkp.gen import _round_nearest_sqrt

        assert _round_nearest_sqrt(4) == 2
        assert _round_nearest_sqrt(2) == 1  # 1.414...
        assert _round_nearest_sqrt(6) == 2  # 2.449...
        assert _round_nearest_sqrt(12) == 3  # 3.464...
        assert _round_nearest_sqrt(30) == 5  # 5.477...
        assert _round_nearest_sqrt(31) == 6  # 5.567...
        assert _round_nearest_sqrt(61 * 61) == 61
        # nearest-integer property, exactly: q - 1/2 <= sqrt(r) < q + 1/2
        for r in range(1, 5000):
            q = _round_nearest_sqrt(r)
            assert (2 * q - 1) ** 2 <= 4 * r < (2 * q + 1) ** 2

    def test_r3_in_range_and_seeded(self):
        inst = generate_instance(params())
        a = apply_reward_scheme(inst, RewardScheme("R3", seed=5))
        b = apply_reward_scheme(inst, RewardScheme("R3", seed=5))
        c = apply_reward_scheme(inst, RewardScheme("R3", seed=6))
        assert a == b and a != c
        for p, r in zip(inst.group_weights(), a.rewards):
            assert p - 1 <= r <= 10 * p + 1

    def test_meta_tagged(self):
        inst = generate_instance(params())
        out = apply_reward_scheme(inst, RewardScheme("R3", seed=5))
        assert "reward=R3" in out.meta and "rseed=5" in out.meta
