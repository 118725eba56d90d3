"""Reference solvers and rules the tests check the program against.

None of them runs in a command: each is a plain, slow statement of what a
fast path must agree with.
"""

from __future__ import annotations

from typing import Optional

from gmkp.model import Assignment, GmkpError, Instance, Selection
from gmkp.oracle import _Budget, _packing
from gmkp.subset_select import SelectionProblem


def feasible_packing(
    inst: Instance, sel: Selection, node_budget: Optional[int] = None
) -> Optional[Assignment]:
    """The oracle's packing search with a budget of its own."""
    return _packing(inst, sel, _Budget(node_budget))


def solve_dp_single_row(problem: SelectionProblem) -> Selection:
    """Classic 0/1 knapsack DP over the single row's right-hand side."""
    if len(problem.rows) != 1:
        raise ValueError("DP solver handles exactly one row")
    coeffs, rhs = problem.rows[0]
    k = problem.k
    values = [0] * (rhs + 1)
    take = [[False] * (rhs + 1) for _ in range(k)]
    for l in range(k):
        w, p = coeffs[l], problem.group_rewards[l]
        if w > rhs:
            continue
        row_take = take[l]
        for cap in range(rhs, w - 1, -1):
            cand = values[cap - w] + p
            if cand > values[cap]:
                values[cap] = cand
                row_take[cap] = True
    chosen = [False] * k
    cap = rhs
    for l in range(k - 1, -1, -1):
        if take[l][cap]:
            chosen[l] = True
            cap -= coeffs[l]
    return Selection(tuple(chosen))


def enumerate_feasible_z(problem: SelectionProblem) -> set[tuple[bool, ...]]:
    """All 0/1 group vectors satisfying every row of the problem."""
    k = problem.k
    if k > 20:
        raise ValueError(f"enumeration limited to 20 groups, got {k}")
    out: set[tuple[bool, ...]] = set()
    for mask in range(1 << k):
        chosen = tuple(bool(mask >> l & 1) for l in range(k))
        if problem.feasible(chosen):
            out.add(chosen)
    return out


def normalize(inst: Instance) -> Instance:
    """Drop unusable knapsacks and unassignable groups, to a fixed point.

    A knapsack smaller than the lightest remaining item goes, and so does a
    group heavier than the remaining total capacity; each drop can enable
    the other.  Returns ``inst`` itself when nothing is dropped.  Raises
    ``GmkpError`` if fewer than two knapsacks are left.  ``validate``
    rejects every instance these rules would change, so loading an
    instance needs no such pass.
    """
    caps, groups = list(inst.capacities), list(zip(inst.rewards, inst.group_items))
    while weights := [w for _, g in groups for w in g]:
        kept_c = [c for c in caps if c >= min(weights)]
        kept_g = [(p, g) for p, g in groups if sum(g) <= sum(kept_c)]
        if (kept_c, kept_g) == (caps, groups):
            break
        caps, groups = kept_c, kept_g
    if len(caps) < 2:
        raise GmkpError(f"normalization left {len(caps)} knapsack(s); need at least 2")
    if (len(caps), len(groups)) == (inst.m, inst.k):
        return inst
    return Instance(caps, [g for _, g in groups], [p for p, _ in groups], inst.meta)
