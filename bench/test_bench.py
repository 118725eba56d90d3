"""Each output check rejects a corrupted copy of a real gmkp output.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import copy
import csv
import itertools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from gmkp import cli, gen, subset_select  # noqa: E402
from tracing import Tracer  # noqa: E402


def write(tmp_path, name, capacities, groups):
    """Instance file with one reward per group equal to its weight unless given."""
    path = tmp_path / name
    doc = {"schema": "gmkp/1", "capacities": capacities, "meta": {"id": name},
           "groups": [{"reward": g[0], "items": g[1]} if isinstance(g, tuple)
                      else {"reward": sum(g), "items": g} for g in groups]}
    path.write_text(json.dumps(doc))
    return path


def run(tmp_path, *argv):
    out = tmp_path / f"out{len(list(tmp_path.iterdir()))}"
    assert cli.main([*map(str, argv), "--out", str(out)]) == 0
    text = out.read_text()
    return list(csv.DictReader(text.splitlines())) if argv[0] == "sweep" else json.loads(text)


def load(path):
    return checks.Instance(json.loads(Path(path).read_text()))


def relocate(inst, res, moves):
    """Copy of ``res`` with the given (triple index -> knapsack) moves, consistently re-summed."""
    res = copy.deepcopy(res)
    for t, i in moves.items():
        res["assignment"][t][2] = i
    loads = [0] * len(inst.capacities)
    for l, pos, i in res["assignment"]:
        loads[i] += inst.items[l][pos]
    res["loads"] = loads
    res["max_exceeded"] = max(x - c for x, c in zip(loads, inst.capacities))
    return res


@pytest.fixture(scope="module")
def real(tmp_path_factory):
    """A generated R0 instance with the solve, feasible and sweep outputs of the CLI."""
    tmp = tmp_path_factory.mktemp("real")
    params = gen.materialize([0.05, 0.4, 0.3, 0.5, 0.1, 0.5], capacity=100, seed=11)
    path = tmp / "inst.json"
    cli.dump_json(cli.instance_to_json(gen.generate_instance(params)), path)
    outs = {v: run(tmp, "solve", path, "--algo", v, "--swap-opt") for v in checks.BETA}
    outs["feasible"] = run(tmp, "feasible", path, "--algo", "3mkp")
    outs["sweep"] = run(tmp, "sweep", path, "--algo", "2mkp")
    return load(path), outs


def test_real_outputs_pass(real):
    inst, outs = real
    kp_opt = checks.kp_optimum(inst.weights, inst.rewards, inst.total_capacity)
    for v in checks.BETA:
        assert checks.check_solve(inst, outs[v], v, swap_opt=True) == []
    assert checks.check_kp(outs["kp"], kp_opt) == []
    assert checks.check_reward_order({v: outs[v]["reward"] for v in checks.BETA}) == []
    assert checks.check_feasible(inst, outs["feasible"], "3mkp", kp_opt) == []
    assert checks.check_sweep(inst, "2mkp", outs["sweep"]) == []


def test_placement_rejects_moved_item_with_stale_loads(real):
    inst, outs = real
    res = copy.deepcopy(outs["kp"])
    l, pos, i = res["assignment"][0]
    res["assignment"][0][2] = (i + 1) % len(inst.capacities)
    assert any("loads" in p for p in checks.check_placement(inst, res))


def test_placement_rejects_dropped_and_foreign_items(real):
    inst, outs = real
    res = copy.deepcopy(outs["kp"])
    res["assignment"].pop()
    assert any("not placed" in p for p in checks.check_placement(inst, res))
    res = copy.deepcopy(outs["kp"])
    unselected = next(l for l in range(len(inst.items)) if l not in res["selection"])
    res["assignment"].append([unselected, 0, 0])
    assert any("unselected" in p for p in checks.check_placement(inst, res))
    res = copy.deepcopy(outs["kp"])
    res["assignment"].append(list(res["assignment"][0]))
    assert any("twice" in p for p in checks.check_placement(inst, res))


def test_placement_rejects_wrong_reward_and_overload(real):
    inst, outs = real
    res = dict(outs["2mkp"], reward=outs["2mkp"]["reward"] + 1)
    assert any("reward" in p for p in checks.check_placement(inst, res))
    res = dict(outs["2mkp"], max_exceeded=outs["2mkp"]["max_exceeded"] - 1)
    assert any("max_exceeded" in p for p in checks.check_placement(inst, res))


def test_overload_bound_rejects_piled_items(real):
    inst, outs = real
    res = relocate(inst, outs["3mkp"], {t: 0 for t in range(len(outs["3mkp"]["assignment"]))})
    assert checks.check_placement(inst, res) == []
    assert any("floor(beta" in p for p in checks.check_solve(inst, res, "3mkp", swap_opt=False))


def test_rows_reject_an_added_group(real):
    inst, outs = real
    for v in ("kp", "lp"):
        res = copy.deepcopy(outs[v])
        extra = sorted((l for l in range(len(inst.items)) if l not in res["selection"]),
                       key=lambda l: -inst.weights[l])[:2]
        res["selection"] += extra
        assert checks.check_rows(inst, v, res["selection"])


def test_cut_row_rejects_a_third_big_piece(tmp_path):
    path = write(tmp_path, "big.json", [10, 10], [[6], [6], [6]])
    inst = load(path)
    res = run(tmp_path, "solve", path, "--algo", "2mkp")
    assert len(res["selection"]) == 2 and checks.check_rows(inst, "2mkp", res["selection"]) == []
    missing = ({0, 1, 2} - set(res["selection"])).pop()
    assert any("fd:5" in p for p in checks.check_rows(inst, "2mkp", res["selection"] + [missing]))


def test_kp_rejects_a_smaller_consistent_solution(real):
    inst, outs = real
    res = copy.deepcopy(outs["kp"])
    dropped = res["selection"].pop()
    res["assignment"] = [t for t in res["assignment"] if t[0] != dropped]
    res = relocate(inst, res, {})
    res["reward"] -= inst.rewards[dropped]
    assert checks.check_placement(inst, res) == []
    kp_opt = checks.kp_optimum(inst.weights, inst.rewards, inst.total_capacity)
    assert checks.check_kp(res, kp_opt)


def test_reward_order_rejects_swapped_rewards(real):
    _, outs = real
    rewards = {v: outs[v]["reward"] for v in checks.BETA}
    assert checks.check_reward_order(dict(rewards, kp=rewards["lp"] + 1))
    assert checks.check_reward_order(dict(rewards, mkpprime=rewards["kp"] + 1))
    assert checks.check_reward_order(dict(rewards, **{"3mkp": rewards["2mkp"] + 1}))


def test_fixed_point_rejects_an_undone_jump(real):
    inst, outs = real
    res = outs["2mkp"]
    s = max(range(len(inst.capacities)), key=lambda i: res["loads"][i] - inst.capacities[i])
    t = next(k for k, (_, _, i) in enumerate(res["assignment"]) if i != s)
    bad = relocate(inst, res, {t: s})
    assert checks.check_placement(inst, bad) == []
    assert any("jump" in p for p in checks.check_fixed_point(inst, bad))


def test_fixed_point_rejects_an_undone_swap(tmp_path):
    path = write(tmp_path, "swap.json", [10, 10], [[5, 4], [5, 4]])
    inst = load(path)
    res = run(tmp_path, "solve", path, "--algo", "kp", "--swap-opt")
    assert res["loads"] == [9, 9] and checks.check_fixed_point(inst, res) == []
    on = {i: [k for k, t in enumerate(res["assignment"]) if t[2] == i] for i in (0, 1)}
    five = next(k for k in on[1] if inst.items[res["assignment"][k][0]][res["assignment"][k][1]] == 5)
    four = next(k for k in on[0] if inst.items[res["assignment"][k][0]][res["assignment"][k][1]] == 4)
    bad = relocate(inst, res, {five: 0, four: 1})
    assert bad["loads"] == [10, 8]
    assert any("swap of 5" in p for p in checks.check_fixed_point(inst, bad))


def test_feasible_rejects_abort_overload_and_excess_reward(real):
    inst, outs = real
    kp_opt = checks.kp_optimum(inst.weights, inst.rewards, inst.total_capacity)
    res = dict(outs["feasible"], aborted_early=True)
    assert any("aborted" in p for p in checks.check_feasible(inst, res, "3mkp", kp_opt))
    piled = relocate(inst, outs["feasible"], {0: 0, 1: 0, 2: 0})
    assert piled["max_exceeded"] > 0
    assert any("overloads" in p for p in checks.check_feasible(inst, piled, "3mkp", kp_opt))
    assert any("DP optimum" in p
               for p in checks.check_feasible(inst, outs["feasible"], "3mkp", outs["feasible"]["reward"] - 1))


def test_sweep_rejects_falling_reward_and_wrong_flag(real):
    inst, outs = real
    rows = copy.deepcopy(outs["sweep"])
    rows[-1]["reward"] = str(int(rows[0]["reward"]) - 1)
    assert any("falls" in p for p in checks.check_sweep(inst, "2mkp", rows))
    rows = copy.deepcopy(outs["sweep"])
    rows[0]["dominated"] = str(1 - int(rows[0]["dominated"]))
    assert any("dominated" in p for p in checks.check_sweep(inst, "2mkp", rows))


def test_sweep_dominance_flags():
    pairs = [(10, 5), (10, 5), (8, 5), (12, 9), (12, 7)]
    assert checks.sweep_dominated(pairs) == [0, 1, 1, 1, 0]


def test_kp_dp_matches_brute_force():
    rng = random.Random(3)
    for _ in range(300):
        k = rng.randint(0, 8)
        weights = [rng.randint(1, 12) for _ in range(k)]
        rewards = [rng.randint(1, 30) for _ in range(k)]
        cap = rng.randint(0, 40)
        best = max(sum(r for r, b in zip(rewards, pick) if b)
                   for pick in itertools.product((0, 1), repeat=k)
                   if sum(w for w, b in zip(weights, pick) if b) <= cap)
        assert checks.kp_optimum(weights, rewards, cap) == best


def test_f_d_matches_the_solver_definition():
    for y in range(1, 60):
        for d in (Fraction(100, 2), Fraction(100, 3), Fraction(7, 2), Fraction(5)):
            assert checks.f_d(y, d) == subset_select.f_d(y, d)


def test_tracer_spans_and_restores(tmp_path):
    import gmkp.assign
    import gmkp.heuristics
    import gmkp.lp_greedy
    import gmkp.model
    import gmkp.pipeline

    mods = {"cli": cli, "gen": gen, "subset_select": subset_select, "assign": gmkp.assign,
            "lp_greedy": gmkp.lp_greedy, "pipeline": gmkp.pipeline,
            "heuristics": gmkp.heuristics, "model": gmkp.model}
    path = write(tmp_path, "t.json", [10, 10], [[6, 3], [5, 4], (40, [7])])
    before = subset_select.solve_exact
    tracer = Tracer(mods)
    tracer.install()
    try:
        run(tmp_path, "solve", path, "--algo", "2mkp", "--swap-opt")
        assert cli.main(["solve", str(path), "--algo", "2mkp", "--node-budget", "0"]) == 3
        run(tmp_path, "feasible", path, "--algo", "3mkp")
    finally:
        tracer.uninstall()
    assert subset_select.solve_exact is before and "open" not in vars(cli)
    layers = tracer.summary()
    assert layers["subset_select.bnb.calls"][0] >= 2
    assert layers["assign.swap_optimal.calls"][0] >= 1
    assert layers["cli.write.calls"][0] == 4  # two results, each serialized then written
    assert tracer.counts["subset_select.bnb.budget_exceeded"] == 1
    assert tracer.counts["heuristics.feasible.probes"] >= tracer.counts["heuristics.feasible.hits"] >= 1
    assert all(s[3] is not None and s[3] >= s[2] for s in tracer.spans)


def test_fixed_point_matches_exhaustive_scan():
    rng = random.Random(5)

    def phi(loads, caps):
        c_max = max(caps)
        return sum((x - c + c_max) ** 2 for x, c in zip(loads, caps))

    for _ in range(300):
        caps = [rng.randint(5, 12) for _ in range(rng.randint(2, 4))]
        items = [[rng.randint(1, 5) for _ in range(rng.randint(1, 3))] for _ in range(rng.randint(1, 5))]
        inst = checks.Instance({"capacities": caps,
                                "groups": [{"reward": 1, "items": ws} for ws in items]})
        triples = [[l, pos, rng.randrange(len(caps))] for l, ws in enumerate(items)
                   for pos in range(len(ws))]
        res = relocate(inst, {"selection": list(range(len(items))), "assignment": triples}, {})
        loads, cur_max, base = res["loads"], res["max_exceeded"], phi(res["loads"], caps)
        weights = [(inst.items[l][pos], i) for l, pos, i in triples]
        moves = [{i: -w, t: w} for w, i in weights for t in range(len(caps)) if t != i]
        moves += [{i1: w2 - w1, i2: w1 - w2} for k, (w1, i1) in enumerate(weights)
                  for w2, i2 in weights[k + 1:] if i1 != i2]
        exhaustive = False
        for move in moves:
            new = [x + move.get(i, 0) for i, x in enumerate(loads)]
            if phi(new, caps) < base and max(x - c for x, c in zip(new, caps)) <= cur_max:
                exhaustive = True
                break
        assert (checks.improving_move(inst, res) is not None) == exhaustive
