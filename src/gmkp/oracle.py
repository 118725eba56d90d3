"""Exact optimum of small instances, for ``gmkp exact``.

Exponential-time search with pruning, intended for instances with at most
roughly a dozen groups and a few dozen items.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .assign import heaviest_first
from .model import Assignment, BudgetExceededError, Instance, Selection


@dataclass
class _Budget:
    remaining: Optional[int]

    def tick(self):
        if self.remaining is None:
            return
        self.remaining -= 1
        if self.remaining < 0:
            raise BudgetExceededError("oracle node budget exceeded")


def _packing(instance: Instance, selection: Selection, budget: _Budget) -> Optional[Assignment]:
    """A capacity-feasible placement of all chosen items, or None.

    Complete depth-first search over placements, items heaviest first.
    Prunes on aggregate residual capacity and skips knapsacks whose
    residual equals one already tried for the current item (equal
    residuals give symmetric subtrees).  Each search node ticks on
    ``budget``, which raises ``BudgetExceededError`` rather than return an
    unproven answer.
    """
    items = heaviest_first(instance, selection)
    if not items:
        return Assignment.empty(instance)
    residual = list(instance.capacities)
    placement: list = [None] * instance.n
    weights = instance.item_weights
    suffix = [0] * (len(items) + 1)
    for t in range(len(items) - 1, -1, -1):
        suffix[t] = suffix[t + 1] + weights[items[t]]

    # Pre-order DFS without recursion: an entry puts ``items[t - 1]`` into
    # knapsack ``i`` and visits node ``t``.  ``items[:placed]`` are in place.
    placed = 0
    stack = [(0, None)]
    while stack:
        t, i = stack.pop()
        if t:
            while placed >= t:  # take out what the finished siblings placed
                placed -= 1
                residual[placement[items[placed]]] += weights[items[placed]]
            j = items[t - 1]
            residual[i] -= weights[j]
            placement[j] = i
            placed = t
        budget.tick()
        if t == len(items):
            return Assignment.build(instance, placement)
        if suffix[t] > sum(residual):
            continue
        w = weights[items[t]]
        # equal residuals give symmetric subtrees: the first one stands for all
        first = {}
        for i in range(instance.m):
            if residual[i] >= w:
                first.setdefault(residual[i], i)
        stack.extend((t + 1, i) for i in reversed(first.values()))
    return None


def exact_gmkp(
    instance: Instance,
    node_budget: Optional[int] = None,
) -> tuple[int, Selection, Assignment]:
    """Optimal reward and a witnessing feasible solution.

    Branches over group subsets in decreasing-reward order with a
    remaining-reward bound and an aggregate-capacity prune; leaves are
    certified with :func:`_packing`.  ``node_budget`` bounds the
    whole search: subset nodes and the packing nodes of every leaf count
    against one budget.
    """
    k = instance.k
    order = sorted(range(k), key=lambda l: (-instance.rewards[l], l))
    gw = instance.group_weights()
    total_cap = instance.total_capacity
    rewards = [instance.rewards[l] for l in order]
    suffix_reward = [0] * (k + 1)
    for t in range(k - 1, -1, -1):
        suffix_reward[t] = suffix_reward[t + 1] + rewards[t]

    budget = _Budget(node_budget)
    best_value = -1
    best_selection = Selection.empty(k)
    best_assignment = Assignment.empty(instance)
    # Pre-order DFS without recursion: an entry is a node at depth ``t``
    # that takes group ``order[t - 1]`` or not; ``took[:t]`` is its path.
    took = [False] * k
    stack = [(0, 0, 0, False)]
    while stack:
        t, weight, value, take = stack.pop()
        if t:
            took[t - 1] = take
        budget.tick()
        if value + suffix_reward[t] <= best_value:
            continue
        if t == k:
            sel = Selection.from_indices((order[u] for u in range(k) if took[u]), k)
            packed = _packing(instance, sel, budget)
            if packed is not None and value > best_value:
                best_value = value
                best_selection = sel
                best_assignment = packed
            continue
        l = order[t]
        stack.append((t + 1, weight, value, False))
        if weight + gw[l] <= total_cap:
            stack.append((t + 1, weight + gw[l], value + rewards[t], True))

    if best_value < 0:  # empty selection is always feasible
        best_value = 0
    return best_value, best_selection, best_assignment
