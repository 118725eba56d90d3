"""Selection subproblems: cut rows, canonical thresholds, exact solvers."""

import gc
import random
import sys
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmkp import gen, subset_select
from gmkp.model import BudgetExceededError, Selection
from gmkp.oracle import enumerate_feasible_z, solve_dp_single_row
from gmkp.subset_select import (
    _WEIGHT_DP_LIMIT,
    SelectionProblem,
    _greatest_weight_counts,
    _WeightTables,
    build_problem,
    canonical_D,
    f_d,
    solve_exact,
)
from conftest import make, random_small_instance, recording_tables


def brute_force_best(problem: SelectionProblem) -> int:
    return max(
        sum(p for p, b in zip(problem.group_rewards, z) if b)
        for z in enumerate_feasible_z(problem)
    )


def selection_value(problem: SelectionProblem, selection) -> int:
    return sum(p for p, b in zip(problem.group_rewards, selection.chosen) if b)


class TestFd:
    def test_known_values(self):
        # pieces strictly heavier than 7/2 fitting into y
        assert f_d(7, Fraction(7, 2)) == 1
        assert f_d(3, Fraction(7, 2)) == 0
        assert f_d(4, Fraction(7, 2)) == 1
        assert f_d(14, Fraction(7, 2)) == 3

    def test_integer_threshold(self):
        assert f_d(6, Fraction(3)) == 1  # strictly below 2
        assert f_d(7, Fraction(3)) == 2

    def test_definition(self):
        # largest q with q < y/d, checked directly
        for y in range(1, 40):
            for num in range(1, 15):
                for den in range(1, 8):
                    d = Fraction(num, den)
                    q = f_d(y, d)
                    assert q < Fraction(y) / d
                    assert q + 1 >= Fraction(y) / d

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            f_d(0, Fraction(1))
        with pytest.raises(ValueError):
            f_d(3, Fraction(0))

    @given(
        st.integers(1, 300),
        st.integers(1, 300),
        st.fractions(min_value=Fraction(1, 50), max_value=50),
    )
    @settings(max_examples=200, deadline=None)
    def test_superadditive(self, y1, y2, d):
        assert f_d(y1 + y2, d) >= f_d(y1, d) + f_d(y2, d)

    @given(st.integers(1, 300), st.fractions(min_value=Fraction(1, 50), max_value=50))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_y(self, y, d):
        assert f_d(y + 1, d) >= f_d(y, d)


class TestCanonicalD:
    def test_contains_the_subunit_weight_threshold(self):
        # caps [6,6], three weight-4 items: the d=3 cut (below the minimum
        # item weight) is the only one blocking the unpackable group
        inst = make([6, 6], [4, 4, 4], [(0, 1, 2)], [12])
        D = canonical_D(inst)
        assert Fraction(3) in D
        prob = build_problem(inst, "mkpd", d_set=D)
        assert not prob.feasible((True,))

    def test_second_counterexample(self):
        inst = make([4, 4], [3, 3, 2], [(0, 1, 2)], [8])
        prob = build_problem(inst, "mkpd", d_set=canonical_D(inst))
        assert not prob.feasible((True,))

    def test_all_thresholds_below_w_max(self):
        rng = random.Random(11)
        for _ in range(20):
            inst = random_small_instance(rng)
            for d in canonical_D(inst):
                assert 0 < d < inst.w_max
                assert any(c % d.numerator == 0 for c in inst.capacities)

    def test_equivalent_to_dense_threshold_family(self):
        rng = random.Random(12)
        for _ in range(25):
            inst = random_small_instance(rng, max_k=5, max_n=8)
            D = canonical_D(inst)
            base = enumerate_feasible_z(build_problem(inst, "mkpd", d_set=D))
            dense = set(D)
            for a in range(1, 2 * inst.c_max):
                for b in range(1, 25):
                    dense.add(Fraction(a, b))
            full = enumerate_feasible_z(build_problem(inst, "mkpd", d_set=dense))
            assert base == full


class TestBuildProblem:
    def test_row_zero_is_aggregate(self):
        inst = make([5, 7], [3, 2, 4], [(0, 1), (2,)], [5, 4])
        prob = build_problem(inst, "kp")
        assert prob.rows == (((5, 4), 12),)

    def test_total_capacity_override_touches_row_zero_only(self):
        inst = make([6, 6], [5, 4], [(0,), (1,)], [5, 4])
        a = build_problem(inst, "2mkp")
        b = build_problem(inst, "2mkp", total_capacity=7)
        assert b.rows[0][1] == 7
        assert a.rows[1:] == b.rows[1:]

    def test_2mkp_half_capacity_cut(self):
        # half-capacity cut: items above half the largest capacity
        inst = make([7, 7, 7], [4, 4, 4, 3], [(0, 1, 2), (3,)], [12, 3])
        prob = build_problem(inst, "2mkp")
        # f_{7/2}: each weight-4 item counts 1, the weight-3 item 0; 3 x 1 fit
        assert prob.rows == (((12, 3), 21), ((3, 0), 3))

    def test_3mkp_adds_third_capacity_cut(self):
        inst = make([9, 9], [8, 4], [(0,), (1,)], [8, 4])
        prob = build_problem(inst, "3mkp")
        # f_{9/2} then f_{3}: weights 8 and 4 count (1, 0) and (2, 1)
        assert prob.rows == (((8, 4), 18), ((1, 0), 2), ((2, 1), 4))

    def test_zero_rows_dropped(self):
        # every weight at most half of every capacity: cuts are all zero
        inst = make([10, 10], [2, 3], [(0,), (1,)], [2, 3])
        prob = build_problem(inst, "3mkp")
        assert prob.rows == (((2, 3), 20),)

    def test_duplicate_coefficient_rows_keep_tightest_rhs(self):
        inst = make([7, 7, 7], [3, 3, 3, 3, 3, 3, 3], [tuple(range(7))], [21])
        d_set = [Fraction(5, 2), Fraction(299, 120)]  # same f on weight 3
        prob = build_problem(inst, "mkpd", d_set=d_set)
        cut_rows = prob.rows[1:]
        assert len(cut_rows) == 1

    def test_mkpd_requires_d_set(self):
        inst = make([5, 5], [3], [(0,)], [3])
        with pytest.raises(ValueError):
            build_problem(inst, "mkpd")

    def test_mkpprime_floor_rows(self):
        inst = make([4, 8], [6, 2], [(0,), (1,)], [6, 2])
        prob = build_problem(inst, "mkpprime")
        # one floor row per distinct weight above the smallest capacity:
        # floor(w/6) per group, rhs floor(4/6) + floor(8/6)
        assert prob.rows == (((6, 2), 12), ((1, 0), 0 + 1))

    def test_unknown_variant(self):
        inst = make([5, 5], [3], [(0,)], [3])
        with pytest.raises(ValueError):
            build_problem(inst, "nope")

    def test_relaxation_chain(self):
        # more cuts never enlarge the feasible set
        rng = random.Random(13)
        for _ in range(20):
            inst = random_small_instance(rng, max_k=6, max_n=10)
            z_kp = enumerate_feasible_z(build_problem(inst, "kp"))
            z_2 = enumerate_feasible_z(build_problem(inst, "2mkp"))
            z_3 = enumerate_feasible_z(build_problem(inst, "3mkp"))
            z_d = enumerate_feasible_z(
                build_problem(inst, "mkpd", d_set=canonical_D(inst))
            )
            assert z_kp >= z_2 >= z_3 >= z_d


def random_problem(rng, k_max=16, rows_max=4, force_weight_objective=False):
    k = rng.randint(1, k_max)
    coeffs0 = tuple(rng.randint(1, 12) for _ in range(k))
    rows = [(coeffs0, rng.randint(5, 50))]
    for _ in range(rng.randint(0, rows_max - 1)):
        rows.append(
            (tuple(rng.randint(0, 4) for _ in range(k)), rng.randint(1, 10))
        )
    if force_weight_objective:
        rewards = coeffs0
    else:
        rewards = tuple(rng.randint(1, 30) for _ in range(k))
    return SelectionProblem(rewards, tuple(rows))


class TestSolvers:
    def test_solve_exact_matches_brute_force(self):
        rng = random.Random(14)
        for trial in range(100):
            prob = random_problem(rng, k_max=12, force_weight_objective=trial % 3 == 0)
            sel = solve_exact(prob)
            assert prob.feasible(sel.chosen)
            assert selection_value(prob, sel) == brute_force_best(prob)

    def test_dp_matches_exact_on_single_row(self):
        rng = random.Random(15)
        for _ in range(100):
            prob = random_problem(rng, rows_max=1)
            a = solve_dp_single_row(prob)
            b = solve_exact(prob)
            assert prob.feasible(a.chosen)
            assert selection_value(prob, a) == selection_value(prob, b)

    def test_dp_rejects_multirow(self):
        prob = SelectionProblem((1,), (((1,), 1), ((1,), 1)))
        with pytest.raises(ValueError):
            solve_dp_single_row(prob)

    def test_empty_problem(self):
        prob = SelectionProblem((), (((), 5),))
        assert solve_exact(prob).chosen == ()

    def test_node_budget_raises(self):
        rng = random.Random(16)
        k = 18
        rewards = tuple(rng.randint(10, 30) for _ in range(k))
        coeffs = tuple(rng.randint(8, 20) for _ in range(k))
        prob = SelectionProblem(rewards, ((coeffs, sum(coeffs) // 2),))
        with pytest.raises(BudgetExceededError):
            solve_exact(prob, node_budget=3)

    def test_deterministic(self):
        rng = random.Random(17)
        for _ in range(20):
            prob = random_problem(rng)
            assert solve_exact(prob) == solve_exact(prob)

    def test_branch_and_bound_leaves_no_cycles(self):
        # rewards unrelated to weights: every solve takes branch-and-bound
        rng = random.Random(20)
        problems = [random_problem(rng, k_max=12) for _ in range(10)]
        gc.collect()
        gc.disable()
        try:
            for prob in problems:
                solve_exact(prob)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_weight_dp_path_agrees_with_branch_and_bound(self):
        # same problem, rewards equal to row-0 coefficients (DP path)
        # versus rewards scaled by a constant (B&B path, same optimum set)
        rng = random.Random(18)
        for _ in range(50):
            base = random_problem(rng, k_max=10, force_weight_objective=True)
            scaled = SelectionProblem(tuple(7 * p for p in base.group_rewards), base.rows)
            a = selection_value(base, solve_exact(base))
            b = selection_value(scaled, solve_exact(scaled))
            assert 7 * a == b


def tuple_state_weight_counts(T, cnt, col, rhs_list):
    """Reference weight DP with each cut-row usage vector kept as a tuple.

    Same recurrence, snapshots and tie-breaks as ``_greatest_weight_counts``,
    which packs the tuple into one biased int per state.
    """
    num_rows = len(rhs_list)
    rhs0 = rhs_list[0]
    mask = (1 << (rhs0 + 1)) - 1
    cut_rhs = rhs_list[1:]

    def apply_type(table: dict, t: int) -> dict:
        c0 = col[0][t]
        cut = [col[r][t] for r in range(1, num_rows)]
        for _ in range(cnt[t]):
            new_table = dict(table)
            changed = False
            for s, bits in table.items():
                ns = tuple(a + b for a, b in zip(s, cut))
                if any(a > b for a, b in zip(ns, cut_rhs)):
                    continue
                shifted = (bits << c0) & mask
                if shifted:
                    prev = new_table.get(ns, 0)
                    merged = prev | shifted
                    if merged != prev:
                        new_table[ns] = merged
                        changed = True
            if not changed:
                break
            table = new_table
        return table

    stride = max(1, -(-T // 16))
    snapshots = {0: {(0,) * (num_rows - 1): 1}}
    table = snapshots[0]
    for t in range(T):
        table = apply_type(table, t)
        if (t + 1) % stride == 0 or t + 1 == T:
            snapshots[t + 1] = table

    final = snapshots[T]
    best_u0 = max(bits.bit_length() - 1 for bits in final.values())
    state = min(s for s, bits in final.items() if (bits >> best_u0) & 1)
    u0 = best_u0

    counts_out = [0] * T
    t = T - 1
    while t >= 0:
        base = max(b for b in snapshots if b <= t)
        seg = {base: snapshots[base]}
        tbl = snapshots[base]
        for u in range(base, t):
            tbl = apply_type(tbl, u)
            seg[u + 1] = tbl
        for u in range(t, base - 1, -1):
            before = seg[u]
            c0 = col[0][u]
            cut = [col[r][u] for r in range(1, num_rows)]
            for q in range(cnt[u], -1, -1):
                ps = tuple(a - q * b for a, b in zip(state, cut))
                pu = u0 - q * c0
                if pu < 0 or any(a < 0 for a in ps):
                    continue
                bits = before.get(ps)
                if bits is not None and (bits >> pu) & 1:
                    counts_out[u] = q
                    state, u0 = ps, pu
                    break
            else:
                raise AssertionError("weight-fill backtrack lost the target state")
        t = base - 1
    return counts_out


def dp_arguments(problem: SelectionProblem):
    """``(T, cnt, col, rhs_list)`` as ``solve_exact`` hands them to the weight DP."""
    members: dict[tuple[int, ...], int] = {}
    for l in range(problem.k):
        key = tuple(coeffs[l] for coeffs, _ in problem.rows)
        members[key] = members.get(key, 0) + 1
    keys = sorted(members, key=lambda key: (key[0] == 0, -key[0], key))
    col = [[key[r] for key in keys] for r in range(len(problem.rows))]
    return len(keys), [members[key] for key in keys], col, [rhs for _, rhs in problem.rows]


def weight_counts(T, cnt, col, rhs_list):
    """The weight DP's answer at ``rhs_list[0]``, from a forward pass built there."""
    return _greatest_weight_counts(_WeightTables(T, cnt, col, rhs_list), rhs_list[0])


def random_dp_arguments(rng, T_range, cnt_max, rhs0_max, cut_rhs, zero_heavy):
    """Random ``(T, cnt, col, rhs_list)``; coefficients may exceed their row's rhs."""
    rows = rng.randint(1, 4)
    T = rng.randint(*T_range)
    cnt = [rng.randint(1, cnt_max) for _ in range(T)]
    rhs_list = [rng.randint(0, rhs0_max)] + [rng.choice(cut_rhs) for _ in range(rows - 1)]
    if zero_heavy:
        col = [[rng.choice((0, rng.randint(1, rhs + 2))) for _ in range(T)] for rhs in rhs_list]
    else:
        col = [[rng.randint(0, rhs + 3) for _ in range(T)] for rhs in rhs_list]
    return T, cnt, col, rhs_list


class TestWeightDpEncoding:
    """The int-keyed weight DP against the tuple-keyed reference."""

    def test_random_problems(self):
        rng = random.Random(19)
        for _ in range(600):
            args = random_dp_arguments(rng, (1, 7), 5, 40, (0, 1, 2, 3, 7, 8, 15), False)
            assert weight_counts(*args) == tuple_state_weight_counts(*args), args

    def test_random_problems_with_stride(self):
        # T >= 17 makes the stride at least 2, so the backtrack reruns
        # segments; zero coefficients, c0 = 0 and types that do not fit are
        # the edge cases of its cap on q
        rng = random.Random(20)
        for _ in range(150):
            args = random_dp_arguments(rng, (17, 60), 4, 60, (0, 1, 2, 5, 8, 13), True)
            assert weight_counts(*args) == tuple_state_weight_counts(*args), args

    @pytest.mark.parametrize("variant", ["2mkp", "3mkp", "mkpprime"])
    def test_generator_instances(self, variant):
        for idx, point in enumerate(gen.latin_hypercube(6, 3)):
            unit = [0.12 * float(u) if d in (0, 4) else float(u) for d, u in enumerate(point)]
            inst = gen.generate_instance(gen.materialize(unit, seed=idx))
            for budget in (inst.total_capacity, 3 * inst.total_capacity // 4):
                args = dp_arguments(build_problem(inst, variant, total_capacity=budget))
                assert weight_counts(*args) == tuple_state_weight_counts(*args)

    @pytest.mark.parametrize("T_range", [(1, 7), (17, 40)])
    def test_tables_answer_every_smaller_budget(self, T_range):
        # one forward pass at ``top``, queried at each budget up to it, against
        # a fresh reference DP at that budget; coefficients up to rhs + 2 make
        # types that fit at ``top`` but not below, and zeros give c0 = 0
        rng = random.Random(22 + T_range[0])
        for _ in range(60 if T_range[0] == 1 else 12):
            args = random_dp_arguments(rng, T_range, 4, 40, (0, 1, 2, 5, 8, 13), True)
            T, cnt, col, rhs_list = args
            tables = _WeightTables(T, cnt, col, rhs_list)
            for budget in range(rhs_list[0] + 1):
                at_budget = (T, cnt, col, [budget, *rhs_list[1:]])
                got = _greatest_weight_counts(tables, budget)
                assert got == tuple_state_weight_counts(*at_budget), (at_budget, rhs_list[0])

    def test_tables_refuse_a_budget_above_top(self):
        tables = _WeightTables(1, [1], [[3]], [5])
        assert _greatest_weight_counts(tables, 5) == [1]
        with pytest.raises(ValueError):
            _greatest_weight_counts(tables, 6)


class TestSharedProblem:
    """One problem, probed at many budgets through ``at``, answers as fresh problems do."""

    VARIANTS = ("kp", "2mkp", "3mkp", "mkpd", "mkpprime")

    @pytest.mark.parametrize("tag", ["R0", "R1", "R3"])
    def test_probes_match_fresh_solves(self, tag, monkeypatch):
        # R0 rewards are the group weights, so every probe takes the weight
        # DP; R1 and R3 rewards take branch and bound
        built = recording_tables(monkeypatch)
        rng = random.Random(23)
        for trial in range(25):
            base = random_small_instance(rng, reward_mode="weight")
            inst = gen.apply_reward_scheme(base, gen.RewardScheme(tag, seed=trial))
            top = inst.total_capacity + rng.randint(0, 10)
            budgets = sorted(set(rng.sample(range(top + 1), min(8, top + 1))) | {top})
            thresholds = sorted(canonical_D(inst))
            for variant in self.VARIANTS:
                d_set = None
                if variant == "mkpd":
                    d_set = rng.sample(thresholds, min(3, len(thresholds)))
                fresh = {
                    b: solve_exact(build_problem(inst, variant, total_capacity=b, d_set=d_set))
                    for b in budgets
                }
                for order in (budgets, budgets[::-1], rng.sample(budgets, len(budgets))):
                    family = build_problem(inst, variant, total_capacity=top, d_set=d_set)
                    built.clear()
                    for b in order:
                        assert solve_exact(family.at(b)) == fresh[b], (inst, variant, b)
                    # one forward pass over every type, at the top budget
                    # clipped to the total weight, served every probe
                    space = prod(rhs + 1 for _, rhs in family.rows)
                    assert space <= _WEIGHT_DP_LIMIT
                    tops = [t for _, t in built]
                    assert tops == ([min(top, sum(family.rows[0][0]))] if tag == "R0" else [])

    def test_top_budget_over_the_dp_limit(self, monkeypatch):
        # budgets up to top // 2 take the full weight DP; larger ones take it
        # while the space with each right-hand side clipped to the total
        # coefficient fits, and branch and bound above
        built = recording_tables(monkeypatch)
        rng = random.Random(24)
        for _ in range(20):
            inst = random_small_instance(rng, reward_mode="weight")
            top = inst.total_capacity
            budgets = list(range(top + 1))
            for variant in ("kp", "2mkp", "3mkp"):
                rows = build_problem(inst, variant).rows
                weight = sum(rows[0][0])
                cut_space = prod(rhs + 1 for _, rhs in rows[1:])
                clipped_space = prod(min(rhs, sum(coeffs)) + 1 for coeffs, rhs in rows[1:])
                limit = (top // 2 + 1) * cut_space
                monkeypatch.setattr(subset_select, "_WEIGHT_DP_LIMIT", limit)
                fresh = {
                    b: solve_exact(build_problem(inst, variant, total_capacity=b)) for b in budgets
                }
                fitting = max(b for b in budgets if (min(b, weight) + 1) * clipped_space <= limit)

                # every budget made before the first solve, as the sweep does:
                # one forward pass, at the largest budget the DP takes
                family = build_problem(inst, variant, total_capacity=top)
                probes = [family.at(b) for b in rng.sample(budgets, len(budgets))]
                built.clear()
                for probe in probes:
                    assert solve_exact(probe) == fresh[probe.rows[0][1]]
                assert [t for _, t in built] == [min(fitting, weight)]

                # budgets made one at a time, rising: unless the top budget
                # fits, each larger DP budget rebuilds the tables, and the
                # answers stay the same
                family = build_problem(inst, variant, total_capacity=top)
                built.clear()
                for b in budgets:
                    assert solve_exact(family.at(b)) == fresh[b]
                want = [min(top, weight)] if fitting == top else list(range(fitting + 1))
                assert [t for _, t in built] == want

    def test_each_core_is_built_once(self, monkeypatch):
        # a top budget over the DP limit sends probes to cores of 16, 32, ...
        # types; with every budget made before the first solve, as the sweep
        # does, each core size's tables are built once and serve every probe
        rng = random.Random(25)
        grew = 0
        for _ in range(30):
            k = rng.randint(17, 60)
            weights = tuple(rng.randint(1, 12) for _ in range(k))
            cut = tuple(rng.choice((0, 1, 2, 3)) for _ in range(k))
            cut_row = (cut, rng.randint(0, sum(cut)))
            top = rng.randint(sum(weights) // 2, sum(weights) + 5)
            family = SelectionProblem(weights, ((weights, top), cut_row))
            space = prod(rhs + 1 for _, rhs in family.rows)
            monkeypatch.setattr(subset_select, "_WEIGHT_DP_LIMIT", rng.randint(space // 4, space - 1))
            budgets = rng.sample(range(top), min(15, top)) + [top]
            fresh = {b: solve_exact(SelectionProblem(weights, ((weights, b), cut_row))) for b in budgets}
            probes = [family.at(b) for b in budgets]
            built = recording_tables(monkeypatch)
            for probe in probes:
                assert solve_exact(probe) == fresh[probe.rows[0][1]], family
            monkeypatch.undo()
            sizes = [T for T, _ in built]
            assert len(sizes) == len(set(sizes)), family
            grew += len(sizes) > 1
        # some families built more than one core size
        assert grew >= 10


def reference_solve_exact(problem: SelectionProblem, node_budget=None) -> Selection:
    """Branch and bound as ``solve_exact`` did it with a second bound.

    A recursive search, and a Lagrangian bound with multipliers fitted by
    a float subgradient at the root on top of the per-row fractional bound.
    Same column types and branch order, so the same pre-order.
    """
    k = problem.k
    if k == 0:
        return Selection(())
    rewards = problem.group_rewards
    num_rows = len(problem.rows)
    rhs_list = [rhs for _, rhs in problem.rows]

    # Collapse duplicate columns; remember the original indices of each.
    members: dict[tuple[int, ...], list[int]] = {}
    for l in range(k):
        key = (rewards[l],) + tuple(coeffs[l] for coeffs, _ in problem.rows)
        members.setdefault(key, []).append(l)
    keys = sorted(
        members,
        key=lambda key: (
            ((0, -key[0]) if key[1] == 0 else (1, -Fraction(key[0], key[1]))),
            members[key][0],
        ),
    )
    T = len(keys)
    p_t = [key[0] for key in keys]
    cnt = [len(members[key]) for key in keys]
    col = [[key[1 + r] for key in keys] for r in range(num_rows)]

    # Weight-objective problems (reward == aggregate coefficient) admit an
    # exact polynomial dynamic program when the cut-row state space is small.
    if all(p_t[t] == col[0][t] for t in range(T)) and rhs_list[0] >= 0:
        space = rhs_list[0] + 1
        for r in range(1, num_rows):
            space *= rhs_list[r] + 1
        if 0 < space <= _WEIGHT_DP_LIMIT and all(r >= 0 for r in rhs_list):
            counts = weight_counts(T, cnt, col, rhs_list)
            out = [False] * k
            for t, key in enumerate(keys):
                for l in members[key][: counts[t]]:
                    out[l] = True
            return Selection(tuple(out))

    # Per-row orderings for the fractional bounds (zero-coefficient types
    # contribute their full reward for free).
    bound_rows = []
    for r in range(num_rows):
        coeffs = col[r]
        ratio_order = sorted(
            range(T),
            key=lambda t: ((0, 0) if coeffs[t] == 0 else (1, -Fraction(p_t[t], coeffs[t]))),
        )
        bound_rows.append((coeffs, rhs_list[r], ratio_order))

    def can_improve(pos: int, used: list[int], value: int, best: int) -> bool:
        """True iff every row's fractional bound strictly exceeds ``best``.

        Integer arithmetic only; each row scan stops as soon as its running
        total passes ``best`` (no prune possible from that row) or hits the
        fractional break type (exact cross-multiplied comparison).
        """
        for r, (coeffs, rhs, ratio_order) in enumerate(bound_rows):
            remaining = rhs - used[r]
            acc = value
            exceeded = acc > best
            if not exceeded:
                for t in ratio_order:
                    if t < pos:
                        continue
                    c = coeffs[t]
                    q = cnt[t]
                    if c == 0:
                        acc += p_t[t] * q
                    elif c * q <= remaining:
                        acc += p_t[t] * q
                        remaining -= c * q
                    else:
                        fit = remaining // c
                        acc += p_t[t] * fit
                        remaining -= fit * c
                        # bound = acc + p * remaining / c, compared exactly
                        exceeded = acc * c + p_t[t] * remaining > best * c
                        break
                    if acc > best:
                        exceeded = True
                        break
                else:
                    exceeded = acc > best
            if not exceeded:
                return False
        return True

    # Greedy incumbent: take as many copies as fit, in branch order.
    greedy_used = [0] * num_rows
    greedy_value = 0
    for t in range(T):
        q = cnt[t]
        for r in range(num_rows):
            c = col[r][t]
            if c:
                q = min(q, (rhs_list[r] - greedy_used[r]) // c)
        if q > 0:
            for r in range(num_rows):
                greedy_used[r] += q * col[r][t]
            greedy_value += q * p_t[t]

    # Root multipliers by projected subgradient on the Lagrangian dual.
    lam = [0.0] * num_rows
    best_lam = lam[:]
    best_dual = float("inf")
    theta = 2.0
    for _ in range(150):
        reduced = [
            p_t[t] - sum(lam[r] * col[r][t] for r in range(num_rows)) for t in range(T)
        ]
        dual = sum(cnt[t] * reduced[t] for t in range(T) if reduced[t] > 0) + sum(
            lam[r] * rhs_list[r] for r in range(num_rows)
        )
        if dual < best_dual:
            best_dual = dual
            best_lam = lam[:]
        else:
            theta *= 0.9
        grad = [
            rhs_list[r] - sum(cnt[t] * col[r][t] for t in range(T) if reduced[t] > 0)
            for r in range(num_rows)
        ]
        norm = sum(g * g for g in grad)
        if norm == 0 or dual <= greedy_value:
            break
        step = theta * max(dual - greedy_value, 1.0) / norm
        lam = [max(0.0, lam[r] - step * grad[r]) for r in range(num_rows)]

    # Fixed-point multipliers keep the per-node bound in exact integers.
    SCALE = 1 << 20
    lam_int = [max(0, int(x * SCALE)) for x in best_lam]
    reduced_scaled = [
        SCALE * p_t[t] - sum(lam_int[r] * col[r][t] for r in range(num_rows))
        for t in range(T)
    ]
    lag_suffix = [0] * (T + 1)
    for t in range(T - 1, -1, -1):
        lag_suffix[t] = lag_suffix[t + 1] + cnt[t] * max(0, reduced_scaled[t])

    best_value = -1
    best_counts: list[int] = [0] * T
    counts = [0] * T
    nodes = 0

    def dfs(pos: int, used: list[int], value: int):
        nonlocal best_value, best_counts, nodes
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            raise BudgetExceededError(f"node budget {node_budget} exceeded")
        if value > best_value:
            best_value = value
            best_counts = counts.copy()
        if pos == T:
            return
        lag_bound = (
            SCALE * value
            + lag_suffix[pos]
            + sum(lam_int[r] * (rhs_list[r] - used[r]) for r in range(num_rows))
        )
        if lag_bound <= SCALE * best_value:
            return
        if not can_improve(pos, used, value, best_value):
            return
        q_max = cnt[pos]
        for r in range(num_rows):
            c = col[r][pos]
            if c:
                q_max = min(q_max, (rhs_list[r] - used[r]) // c)
        for q in range(q_max, -1, -1):
            counts[pos] = q
            dfs(
                pos + 1,
                [used[r] + q * col[r][pos] for r in range(num_rows)],
                value + q * p_t[pos],
            )
        counts[pos] = 0

    import sys

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 2 * T + 100))
    try:
        dfs(0, [0] * num_rows, 0)
    finally:
        sys.setrecursionlimit(old_limit)
        del dfs  # the closure refers to itself; leave no cycle for the collector

    out = [False] * k
    for t, key in enumerate(keys):
        for l in members[key][: best_counts[t]]:
            out[l] = True
    return Selection(tuple(out))


def unbounded_preorder_search(problem: SelectionProblem) -> Selection:
    """The first optimal node of ``solve_exact``'s search tree, found with no bound.

    Same column types, branch order and most-copies-first children; every
    feasible node is visited, and the first node with a strictly larger
    value becomes the incumbent.
    """
    members: dict[tuple[int, ...], list[int]] = {}
    for l in range(problem.k):
        key = (problem.group_rewards[l],) + tuple(coeffs[l] for coeffs, _ in problem.rows)
        members.setdefault(key, []).append(l)
    keys = sorted(
        members,
        key=lambda key: (
            (0, -key[0]) if key[1] == 0 else (1, -Fraction(key[0], key[1])),
            members[key][0],
        ),
    )
    rhs = [rhs for _, rhs in problem.rows]
    best: list = [-1, None]

    def visit(counts, used, value):
        if value > best[0]:
            best[:] = [value, counts + [0] * (len(keys) - len(counts))]
        if len(counts) == len(keys):
            return
        key = keys[len(counts)]
        for q in range(len(members[key]), -1, -1):
            child = [u + q * c for u, c in zip(used, key[1:])]
            if all(u <= b for u, b in zip(child, rhs)):
                visit(counts + [q], child, value + q * key[0])

    visit([], [0] * len(rhs), 0)
    chosen = [False] * problem.k
    for key, q in zip(keys, best[1]):
        for l in members[key][:q]:
            chosen[l] = True
    return Selection(tuple(chosen))


def random_preorder_problem(rng) -> SelectionProblem:
    """1-4 rows, duplicate columns, zero coefficients, rewards unrelated to weights."""
    k = rng.randint(1, 11)
    base = [
        (rng.randint(1, 30), [rng.randint(0, 12)] + [rng.randint(0, 4) for _ in range(3)])
        for _ in range(rng.randint(1, k))
    ]
    columns = [rng.choice(base) for _ in range(k)]
    num_rows = rng.randint(1, 4)
    rows = [(tuple(c[r] for _, c in columns), rng.randint(0, 50 if r == 0 else 10))
            for r in range(num_rows)]
    rewards = tuple(p for p, _ in columns)
    return SelectionProblem(rewards, tuple(rows))


class TestPreorderFact:
    """Branch and bound returns the first optimal node in pre-order, whatever its bounds.

    Node counts are not compared: the reference's Lagrangian bound may prune
    nodes that the fractional row bound alone visits.
    """

    def test_random_problems(self):
        rng = random.Random(21)
        for _ in range(600):
            prob = random_preorder_problem(rng)
            expected = unbounded_preorder_search(prob)
            assert reference_solve_exact(prob) == expected, prob
            assert solve_exact(prob) == expected, prob

    @pytest.mark.parametrize("variant", ["kp", "2mkp", "3mkp", "mkpprime"])
    def test_generator_instances(self, variant):
        for idx, point in enumerate(gen.latin_hypercube(6, 3)):
            unit = [0.12 * float(u) if d in (0, 4) else float(u) for d, u in enumerate(point)]
            base = gen.generate_instance(gen.materialize(unit, seed=idx))
            for tag in ("R0", "R1", "R3"):
                inst = gen.apply_reward_scheme(base, gen.RewardScheme(tag, seed=idx))
                prob = build_problem(inst, variant)
                assert solve_exact(prob) == reference_solve_exact(prob)


def recording_core_values(monkeypatch) -> list[int]:
    """Patch the weight DP's answer to record the row-0 total of each one given."""
    values: list[int] = []
    greatest = subset_select._greatest_weight_counts

    def recording(tables, budget):
        counts = greatest(tables, budget)
        values.append(sum(q * c for q, c in zip(counts, tables.col[0])))
        return counts

    monkeypatch.setattr(subset_select, "_greatest_weight_counts", recording)
    return values


class TestCore:
    """Weight problems over the DP limit: a core's weight DP starts the search."""

    def test_value_equals_the_full_dp(self, monkeypatch):
        rng = random.Random(41)
        runs = []
        for _ in range(400):
            k = rng.randint(1, 40)
            weights = tuple(rng.randint(1, 12) for _ in range(k))
            rows = [(weights, rng.randint(0, sum(weights) + 5))]
            for _ in range(rng.randint(0, 2)):
                cut = tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(k))
                rows.append((cut, rng.randint(0, sum(cut) + 3)))
            prob = SelectionProblem(weights, tuple(rows))
            T, cnt, col, rhs_list = dp_arguments(prob)
            optimum = sum(q * c for q, c in zip(weight_counts(T, cnt, col, rhs_list), col[0]))

            space = prod(rhs + 1 for rhs in rhs_list)
            monkeypatch.setattr(
                subset_select, "_WEIGHT_DP_LIMIT", rng.choice((space - 1, rng.randint(0, space - 1)))
            )
            values = recording_core_values(monkeypatch)
            sel = solve_exact(prob)
            monkeypatch.undo()
            assert prob.feasible(sel.chosen) and selection_value(prob, sel) == optimum, prob
            runs.append(len(values))
        # the core ran, and grew past its first 16 types, on some problems
        assert runs.count(1) >= 50 and runs.count(2) >= 1

    def test_short_core_keeps_the_preorder_first_optimum(self, monkeypatch):
        # 16 even-weight types with low cut usage, and one odd-weight type with
        # the highest: the 16-type core reaches only even totals, below the
        # odd rhs0 that the optimum fills.  A core of every type clips
        # nothing and is over the patched limit, so the search starts from
        # the 16-type best
        rng = random.Random(42)
        for _ in range(30):
            combos = rng.sample([(w, c) for w in range(2, 25, 2) for c in (0, 1, 2)], 16)
            odd = rng.randrange(1, 12, 2)
            combos.append((odd, 2 * odd))
            rng.shuffle(combos)
            weights, cut = (tuple(x) for x in zip(*combos))
            prob = SelectionProblem(weights, ((weights, rng.randrange(odd, 42, 2)), (cut, sum(cut))))
            monkeypatch.setattr(
                subset_select, "_WEIGHT_DP_LIMIT", prod(rhs + 1 for _, rhs in prob.rows) - 1
            )
            values = recording_core_values(monkeypatch)
            sel = solve_exact(prob)
            monkeypatch.undo()
            assert values and max(values) < selection_value(prob, sel)
            assert sel == unbounded_preorder_search(prob), prob


def test_solve_exact_leaves_interpreter_state_alone(monkeypatch):
    # one row, rewards unrelated to weights, more distinct column types than
    # the recursion limit, all fitting: the search goes one level per type
    def refuse(limit):
        raise AssertionError("solve_exact changed the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    weights = tuple(range(1, sys.getrecursionlimit() + 100))
    rewards = tuple(2 * w + w % 3 for w in weights)
    prob = SelectionProblem(rewards, ((weights, sum(weights)),))
    assert all(solve_exact(prob).chosen)
