"""Acceptance suite: one test and one printed pass/fail line per criterion."""

import csv
import functools
import json
import random
import time
from fractions import Fraction

from gmkp.assign import swap_optimal
from gmkp.cli import main as cli_main
from gmkp.gen import GeneratorParams, generate_instance
from gmkp.heuristics import binary_search_feasible, capacity_sweep, pareto_frontier
from gmkp.lp_greedy import greedy_lp
from gmkp.model import Assignment, Selection
from gmkp.oracle import exact_gmkp
from gmkp.pipeline import run_algorithm
from gmkp.subset_select import (
    build_problem,
    canonical_D,
    solve_exact,
)
from conftest import make, random_small_instance
from reference import enumerate_feasible_z, solve_dp_single_row
from test_assign import improving_move_exists, random_assignment
from test_heuristics import fake_result
from test_subset_select import brute_force_best, random_problem, selection_value


def report(tag, passed):
    print(f"\n[{tag}] {'PASS' if passed else 'FAIL'}")


def criterion(tag):
    def wrap(fn):
        @functools.wraps(fn)  # keeps the fixture signature visible to pytest
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                report(tag, False)
                raise
            report(tag, True)

        return run

    return wrap


@criterion("AC01 tight-example exactness")
def test_ac01_tight_examples():
    t0 = time.perf_counter()

    # continuous relaxation: one full group, one sliver of the next
    inst = make([4, 4, 4], [4, 4, 3, 3, 3, 3, 3], [(0, 1, 2), (3, 4, 5, 6)], [11, 12])
    frac = greedy_lp(inst)
    assert frac == (Fraction(1), Fraction(1, 12))
    lp = run_algorithm(inst, "lp")
    assert lp.selection.indices() == (0, 1)
    assert lp.metrics.max_exceeded == 5  # overload -> 2*c_max as m grows

    kp = run_algorithm(inst, "kp")
    assert kp.selection.indices() == (1,)
    assert kp.metrics.max_exceeded == 2  # c_max/2 tight family

    inst2 = make([7, 7, 7], [3] * 7, [tuple(range(7))], [21])
    two = run_algorithm(inst2, "2mkp")
    assert two.selection.indices() == (0,)
    assert two.metrics.max_exceeded == 2  # ~c_max/2 with half-capacity cut

    inst3 = make([9, 9, 9], [8, 8, 8, 3], [(0, 1, 2, 3)], [27])
    three = run_algorithm(inst3, "3mkp")
    assert three.selection.indices() == (0,)
    assert three.metrics.max_exceeded == 2  # ~c_max/3 with both cuts

    assert time.perf_counter() - t0 < 1.0


@criterion("AC02 alpha=1 on 200-instance suite")
def test_ac02_alpha_one(small_suite, small_suite_optima):
    t0 = time.perf_counter()
    for inst, v_star in zip(small_suite, small_suite_optima):
        for variant, d_set in (
            ("lp", None),
            ("kp", None),
            ("2mkp", None),
            ("3mkp", None),
            ("mkpd", sorted(canonical_D(inst), reverse=True)),
            ("mkpprime", None),
        ):
            res = run_algorithm(inst, variant, d_set=d_set)
            assert res.metrics.reward >= v_star, (inst, variant, v_star)
    assert time.perf_counter() - t0 < 60.0


@criterion("AC03 beta bounds on 200-instance suite")
def test_ac03_beta_bounds(small_suite):
    for inst in small_suite:
        c = inst.c_max
        half = [Fraction(c, 2)]
        half_third = [Fraction(c, 2), Fraction(c, 3)]
        checks = [
            ("lp", None, Fraction(2)),
            ("kp", None, Fraction(1)),
            ("2mkp", None, Fraction(1, 2)),
            ("3mkp", None, Fraction(1, 2)),
            ("mkpd", half, Fraction(1, 2)),
        ]
        if len(set(inst.capacities)) == 1:
            checks.append(("3mkp", None, Fraction(1, 3)))
            checks.append(("mkpd", half_third, Fraction(1, 3)))
        for variant, d_set, beta in checks:
            res = run_algorithm(inst, variant, d_set=d_set)
            assert Fraction(res.metrics.max_exceeded) <= beta * c, (
                inst,
                variant,
                res.metrics.max_exceeded,
            )


def _special_fixture(rng, family):
    m = rng.randint(2, 4)
    if family == "heavy":
        c = 2 * rng.randint(4, 12)
        caps = [c] * m
        weight = lambda: rng.randint(c // 2 + 1, c)
    elif family == "pow2-equal":
        c = 2 ** rng.randint(3, 5)
        caps = [c] * m
        weight = lambda: 2 ** rng.randint(0, c.bit_length() - 1)
    else:  # pow2-mixed capacities
        caps = sorted(2 ** rng.randint(2, 5) for _ in range(m))
        weight = lambda: 2 ** rng.randint(0, caps[0].bit_length() - 1)
    total = sum(caps)
    k = rng.randint(1, 5)
    weights, groups = [], []
    for _ in range(k):
        groups.append([len(weights)])
        weights.append(weight())
    totals = [weights[g[0]] for g in groups]
    for _ in range(rng.randint(0, 6)):
        w = weight()
        ok = [l for l in range(k) if totals[l] + w <= total]
        if not ok:
            break
        l = rng.choice(ok)
        groups[l].append(len(weights))
        weights.append(w)
        totals[l] += w
    return make(caps, weights, [tuple(g) for g in groups], totals)


@criterion("AC04 special-case optimality")
def test_ac04_special_cases():
    rng = random.Random(404)
    for family, variant in (
        ("heavy", "2mkp"),
        ("pow2-equal", "kp"),
        ("pow2-mixed", "mkpprime"),
    ):
        for _ in range(20):
            inst = _special_fixture(rng, family)
            res = run_algorithm(inst, variant)
            v_star, _, _ = exact_gmkp(inst)
            assert res.metrics.max_exceeded <= 0, (family, inst)
            assert res.metrics.reward == v_star, (family, inst, v_star)


@criterion("AC05 canonical threshold-set invariance")
def test_ac05_threshold_invariance():
    rng = random.Random(505)
    for _ in range(50):
        inst = random_small_instance(rng, max_k=6, max_n=10)
        D = canonical_D(inst)
        base = enumerate_feasible_z(build_problem(inst, "mkpd", d_set=D))
        extras = set(D)
        for _ in range(5):
            extras.add(Fraction(rng.randint(1, 3 * inst.c_max), rng.randint(1, 30)))
        extended = enumerate_feasible_z(build_problem(inst, "mkpd", d_set=extras))
        assert base == extended


@criterion("AC06 subsolver correctness")
def test_ac06_subsolvers():
    rng = random.Random(606)
    for trial in range(100):
        prob = random_problem(rng, k_max=16, rows_max=4,
                              force_weight_objective=trial % 4 == 0)
        sel = solve_exact(prob)
        assert prob.feasible(sel.chosen)
        assert selection_value(prob, sel) == brute_force_best(prob)
    for _ in range(100):
        prob = random_problem(rng, rows_max=1)
        a = solve_dp_single_row(prob)
        b = solve_exact(prob)
        assert prob.feasible(a.chosen)
        assert selection_value(prob, a) == selection_value(prob, b)


@criterion("AC07 feasible-search quality")
def test_ac07_feasible_search(small_suite, small_suite_optima):
    good = 0
    total = 0
    for inst, v_star in zip(small_suite, small_suite_optima):
        out = binary_search_feasible(inst, "2mkp")
        r = out.result.metrics.reward
        assert out.result.metrics.max_exceeded <= 0
        assert r <= v_star
        total += 1
        if v_star == 0 or 2 * r >= v_star:
            good += 1
    assert good >= 0.9 * total, f"only {good}/{total} reached half the optimum"


@criterion("AC08 swap-optimal properties")
def test_ac08_swap_optimal():
    rng = random.Random(808)
    for _ in range(500):
        inst = random_small_instance(rng)
        sel = Selection(tuple(rng.random() < 0.7 for _ in range(inst.k)))
        before = random_assignment(rng, inst, sel)
        after = swap_optimal(inst, before)  # raises past the floor(phi0/2) move bound
        assert after.max_exceeded(inst) <= before.max_exceeded(inst)
        assert not improving_move_exists(inst, after)


@criterion("AC09 Pareto frontier and sweep shape")
def test_ac09_pareto_and_sweep():
    rng = random.Random(909)
    for _ in range(100):
        results = [
            fake_result(rng.randint(0, 30), rng.randint(-8, 12))
            for _ in range(rng.randint(0, 15))
        ]
        got = {(r.metrics.reward, r.metrics.max_exceeded) for r in pareto_frontier(results)}
        want = set()
        for a in results:
            dominated = any(
                b.metrics.reward >= a.metrics.reward
                and b.metrics.max_exceeded <= a.metrics.max_exceeded
                and (b.metrics.reward > a.metrics.reward
                     or b.metrics.max_exceeded < a.metrics.max_exceeded)
                for b in results
            )
            if not dominated:
                want.add((a.metrics.reward, a.metrics.max_exceeded))
        assert got == want
    inst = random_small_instance(random.Random(910))
    assert len(capacity_sweep(inst, "2mkp")) == 11


@criterion("AC10 desk-scale performance")
def test_ac10_performance():
    params = GeneratorParams(
        m=50,
        w_split=54,
        w_min=45,
        w_mode=80,
        r_load=Fraction(5),
        r_conc=Fraction(1, 2),
        capacity=100,
        seed=1010,
    )
    inst = generate_instance(params)
    assert 100 <= inst.n <= 999, inst.n
    t0 = time.perf_counter()
    res = run_algorithm(inst, "3mkp", swap_opt=True)
    elapsed = time.perf_counter() - t0
    assert res.metrics.reward > 0
    assert elapsed < 10.0, f"pipeline took {elapsed:.1f}s"


@criterion("AC11 determinism and round-trips")
def test_ac11_determinism(tmp_path):
    # byte-identical regeneration
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["generate", "--count", "3", "--seed", "42", "--out-dir", str(a)]) == 0
    assert cli_main(["generate", "--count", "3", "--seed", "42", "--out-dir", str(b)]) == 0
    names = sorted(p.name for p in a.glob("*.json"))
    assert names == sorted(p.name for p in b.glob("*.json"))
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()

    # instance JSON round-trips bit-exactly
    from gmkp.cli import instance_from_json, instance_to_json

    for name in names:
        if name.startswith("manifest"):
            continue
        text = (a / name).read_text()
        doc = json.loads(text)
        again = json.dumps(
            instance_to_json(instance_from_json(doc)), indent=2, sort_keys=True
        ) + "\n"
        assert again == text

    # two bench runs agree row for row
    s_csv, c_csv = tmp_path / "s.csv", tmp_path / "c.csv"
    assert cli_main(
        ["bench", "--instances", str(a), "--algos", "lp,kp,2mkp", "--out", str(s_csv)]
    ) == 0
    assert cli_main(
        ["bench", "--instances", str(a), "--algos", "lp,kp,2mkp", "--out", str(c_csv)]
    ) == 0

    def stable(path):
        with path.open() as fh:
            return [
                (r["instance"], r["algo"], r["reward"], r["max_exceeded"])
                for r in csv.DictReader(fh)
            ]

    assert stable(s_csv) == stable(c_csv)
