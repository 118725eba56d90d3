"""Output checks for the benchmark, written without importing gmkp.

Every function here reads the documents the CLI writes (instance JSON,
result JSON, sweep CSV rows) as plain data and returns a list of problems;
an empty list means the output passed.  The rules restate the paper's
guarantees from the instance data alone, so a solver fault cannot hide
behind shared code:

- placement: every item of each selected group is placed exactly once,
  no other item is placed, and ``loads``, ``reward`` and ``max_exceeded``
  match a recomputation;
- overload: ``max_exceeded <= floor(beta * c_max)`` with the variant's beta
  for equal capacities;
- rows: the selection satisfies its variant's knapsack and cut rows, rebuilt
  here with ``f_d(y) = ceil(y / d) - 1``;
- kp: the kp reward equals a 0/1 knapsack DP optimum computed here;
- order: reward(lp) >= reward(kp) >= reward(2mkp) >= reward(3mkp) and
  reward(mkpprime) <= reward(kp) on one instance;
- fixed point: after swap-opt no improving jump or swap is left;
- feasible: no overload, not aborted, reward at most the kp optimum;
- sweep: rewards never fall as the factor grows, and each row's
  ``dominated`` flag matches the dominance computed here.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import ceil

import numpy as np

# Overload bound as a share of c_max, for instances with equal capacities.
BETA = {
    "lp": Fraction(2),
    "kp": Fraction(1),
    "mkpprime": Fraction(1),
    "2mkp": Fraction(1, 2),
    "3mkp": Fraction(1, 3),
}

# Variants ordered by the rows they add: each one's feasible set contains the next's.
REWARD_CHAIN = ("lp", "kp", "2mkp", "3mkp")


class Instance:
    """The parts of an instance document the checks need."""

    def __init__(self, doc: dict):
        self.capacities = [int(c) for c in doc["capacities"]]
        self.rewards = [int(g["reward"]) for g in doc["groups"]]
        self.items = [[int(w) for w in g["items"]] for g in doc["groups"]]
        self.weights = [sum(ws) for ws in self.items]
        self.c_max = max(self.capacities)
        self.total_capacity = sum(self.capacities)


def f_d(y: int, d: Fraction) -> int:
    """Pieces strictly heavier than ``d`` that fit in ``y``: ceil(y/d) - 1."""
    return ceil(Fraction(y) / d) - 1


def overload_cap(variant: str, c_max: int) -> int:
    return int(BETA[variant] * c_max)  # floor: both factors are non-negative


def variant_rows(inst: Instance, variant: str, budget: int) -> list[tuple[str, list[int], int]]:
    """(name, per-group coefficients, right-hand side) of each selection row."""
    rows = [("aggregate", inst.weights, budget)]
    if variant == "mkpprime":
        c_min = min(inst.capacities)
        for d in sorted({w for ws in inst.items for w in ws if w > c_min}):
            rows.append(
                (f"floor:{d}", [sum(w // d for w in ws) for ws in inst.items],
                 sum(c // d for c in inst.capacities))
            )
        return rows
    cuts = {"kp": (), "2mkp": (2,), "3mkp": (2, 3)}[variant]
    for q in cuts:
        d = Fraction(inst.c_max, q)
        rows.append(
            (f"fd:{d}", [sum(f_d(w, d) for w in ws) for ws in inst.items],
             sum(f_d(c, d) for c in inst.capacities))
        )
    return rows


def kp_optimum(weights: list[int], rewards: list[int], capacity: int) -> int:
    """Optimum of the 0/1 knapsack over groups, by a dense DP over capacity."""
    best = np.zeros(capacity + 1, dtype=np.int64)
    for w, p in zip(weights, rewards):
        if w <= capacity:
            np.maximum(best[w:], best[: capacity + 1 - w] + p, out=best[w:])
    return int(best[capacity])


def check_placement(inst: Instance, res: dict) -> list[str]:
    """Items placed exactly once for selected groups; loads, reward, overload recomputed."""
    problems = []
    selected = set(res["selection"])
    if len(selected) != len(res["selection"]):
        problems.append("selection lists a group twice")
    if any(not 0 <= g < len(inst.items) for g in selected):
        return problems + ["selection names a group the instance lacks"]
    loads = [0] * len(inst.capacities)
    seen = set()
    for l, pos, i in res["assignment"]:
        if l not in selected:
            problems.append(f"item {pos} of unselected group {l} is placed")
            continue
        if not 0 <= pos < len(inst.items[l]) or not 0 <= i < len(loads):
            problems.append(f"placement {[l, pos, i]} is out of range")
            continue
        if (l, pos) in seen:
            problems.append(f"item {pos} of group {l} is placed twice")
        seen.add((l, pos))
        loads[i] += inst.items[l][pos]
    missing = sum(len(inst.items[l]) for l in selected) - len(seen)
    if missing:
        problems.append(f"{missing} items of selected groups are not placed")
    if loads != res["loads"]:
        problems.append("reported loads differ from the recomputed loads")
    reward = sum(inst.rewards[l] for l in selected)
    if reward != res["reward"]:
        problems.append(f"reported reward {res['reward']} != recomputed {reward}")
    over = max(load - c for load, c in zip(loads, inst.capacities))
    if over != res["max_exceeded"]:
        problems.append(f"reported max_exceeded {res['max_exceeded']} != recomputed {over}")
    return problems


def check_overload(inst: Instance, variant: str, max_exceeded: int) -> list[str]:
    cap = overload_cap(variant, inst.c_max)
    if max_exceeded > cap:
        return [f"{variant} overload {max_exceeded} exceeds floor(beta * c_max) = {cap}"]
    return []


def check_rows(inst: Instance, variant: str, selection: list[int]) -> list[str]:
    """The selection satisfies every row of its variant at the full budget.

    lp takes every group with a positive fraction in the greedy continuous
    solution, so at most its last group crosses the budget: dropping the
    heaviest selected group must leave the rest strictly under it.
    """
    chosen = set(selection)
    if variant == "lp":
        total = sum(inst.weights[l] for l in chosen)
        heaviest = max((inst.weights[l] for l in chosen), default=0)
        if total > inst.total_capacity and total - heaviest >= inst.total_capacity:
            return [f"lp selection weighs {total}, more than one group over {inst.total_capacity}"]
        return []
    problems = []
    for name, coeffs, rhs in variant_rows(inst, variant, inst.total_capacity):
        lhs = sum(coeffs[l] for l in chosen)
        if lhs > rhs:
            problems.append(f"{variant} row {name}: {lhs} > {rhs}")
    return problems


def improving_move(inst: Instance, res: dict) -> str | None:
    """Describe an improving jump or swap left in the assignment, if any.

    With a = load - c + c_max per knapsack, moving weight w from a knapsack
    at a to one at b < a lowers sum(a^2) iff w < a - b; swapping w1 there for
    w2 here lowers it iff 0 < w1 - w2 < a - b.  Either move must also keep the
    receiving knapsack's overload at or below the current maximum.
    """
    caps = inst.capacities
    loads = res["loads"]
    m = len(caps)
    on = [[] for _ in range(m)]
    for l, pos, i in res["assignment"]:
        on[i].append(inst.items[l][pos])
    on = [sorted(set(ws)) for ws in on]
    a = [loads[i] - caps[i] + inst.c_max for i in range(m)]
    cur_max = max(load - c for load, c in zip(loads, caps))
    pairs = [(s, t, a[s] - a[t], cur_max - (loads[t] - caps[t]))  # room: weight t may gain
             for s in range(m) for t in range(m) if on[s] and a[s] - a[t] > 1]
    for s, t, gap, room in pairs:
        w_min = on[s][0]
        if w_min < gap and w_min <= room:
            return f"jump of weight {w_min} from knapsack {s} to {t}"
    for s, t, gap, room in pairs:
        limit = min(gap - 1, room)  # allowed w1 - w2 lies in [1, limit]
        if limit < 1 or not on[t]:
            continue
        for w1 in on[s]:
            k = bisect_left(on[t], w1 - limit)
            if k < len(on[t]) and on[t][k] < w1:
                return f"swap of {w1} on knapsack {s} for {on[t][k]} on {t}"
    return None


def check_fixed_point(inst: Instance, res: dict) -> list[str]:
    move = improving_move(inst, res)
    return [f"swap-opt left an improving move: {move}"] if move else []


def check_solve(inst: Instance, res: dict, variant: str, swap_opt: bool) -> list[str]:
    """All single-output checks of one ``gmkp solve`` result."""
    problems = check_placement(inst, res)
    if problems:
        return problems
    problems += check_overload(inst, variant, res["max_exceeded"])
    problems += check_rows(inst, variant, res["selection"])
    if swap_opt:
        problems += check_fixed_point(inst, res)
    return problems


def check_kp(res: dict, kp_opt: int) -> list[str]:
    if res["reward"] != kp_opt:
        return [f"kp reward {res['reward']} != knapsack DP optimum {kp_opt}"]
    return []


def check_reward_order(rewards: dict) -> list[str]:
    """Rewards of the variants run on one instance respect their row inclusions."""
    problems = []
    chain = [v for v in REWARD_CHAIN if v in rewards]
    for hi, lo in zip(chain, chain[1:]):
        if rewards[hi] < rewards[lo]:
            problems.append(f"reward({hi}) {rewards[hi]} < reward({lo}) {rewards[lo]}")
    if "mkpprime" in rewards and "kp" in rewards and rewards["mkpprime"] > rewards["kp"]:
        problems.append(f"reward(mkpprime) {rewards['mkpprime']} > reward(kp) {rewards['kp']}")
    return problems


def check_feasible(inst: Instance, res: dict, variant: str, kp_opt: int) -> list[str]:
    """A ``gmkp feasible`` result: a placed, unaborted, overload-free solution."""
    problems = check_placement(inst, res)
    if problems:
        return problems
    if res["max_exceeded"] > 0:
        problems.append(f"feasible result overloads by {res['max_exceeded']}")
    if res["aborted_early"]:
        problems.append("feasible search aborted early")
    if res["reward"] > kp_opt:
        problems.append(f"feasible reward {res['reward']} > knapsack DP optimum {kp_opt}")
    problems += check_rows(inst, variant, res["selection"])
    if res["swap_opt"]:
        problems += check_fixed_point(inst, res)
    return problems


def sweep_dominated(pairs: list[tuple[int, int]]) -> list[int]:
    """1 for each (reward, overload) pair that another pair dominates, else 0.

    Dominated means another pair has reward >= and overload <= with one
    strict; a repeat of an earlier non-dominated pair also counts as
    dominated, so each frontier point is flagged 0 once.
    """
    flags = []
    kept = set()
    for r, o in pairs:
        beaten = any(r2 >= r and o2 <= o and (r2, o2) != (r, o) for r2, o2 in pairs)
        if beaten or (r, o) in kept:
            flags.append(1)
        else:
            kept.add((r, o))
            flags.append(0)
    return flags


def check_sweep(inst: Instance, variant: str, rows: list[dict]) -> list[str]:
    """Rows of a ``gmkp sweep`` CSV: factor, reward, max_exceeded, dominated."""
    problems = []
    rows = sorted(rows, key=lambda row: Fraction(row["factor"]))
    for row in rows:
        if not row["reward"].lstrip("-").isdigit():
            return [f"sweep factor {row['factor']} has no result: {row['dominated']}"]
    rewards = [int(row["reward"]) for row in rows]
    overloads = [int(row["max_exceeded"]) for row in rows]
    for prev, row, reward in zip(rows, rows[1:], rewards[1:]):
        if reward < int(prev["reward"]):
            problems.append(f"sweep reward falls from {prev['reward']} to {reward} at {row['factor']}")
    flags = sweep_dominated(list(zip(rewards, overloads)))
    for row, flag in zip(rows, flags):
        if int(row["dominated"]) != flag:
            problems.append(f"sweep factor {row['factor']}: dominated {row['dominated']} != {flag}")
        if Fraction(row["factor"]) <= 1:
            problems += check_overload(inst, variant, int(row["max_exceeded"]))
    return problems
