"""Core domain types for grouped multiple-knapsack instances and solutions.

All numeric data (capacities, weights, rewards) are positive integers;
thresholds and ratios are exact `fractions.Fraction` values.  No floating
point enters any solver computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

# Rewards and weights are bounded so that sums never overflow 64 bits.
INT64_MAX = 2**63 - 1


class GmkpError(Exception):
    """Base class for solver errors."""


class BudgetExceededError(GmkpError):
    """An exact search exhausted its node budget before proving optimality."""


class InconsistentSolutionError(GmkpError):
    """A solution breaks an invariant the solvers guarantee.

    Its selection breaks a row of its own selection problem, its selection
    and assignment disagree about which items are placed, or its max
    overload exceeds the variant's proven bound.
    """


@dataclass(frozen=True)
class Instance:
    """A grouped multiple-knapsack instance.

    Items live inside their group, so the groups partition the items by
    construction.  Items are numbered group-major: group 0's items come
    first, in their given order, then group 1's, and so on.

    Attributes
    ----------
    capacities : tuple[int, ...]
        Per-knapsack capacities, all positive.
    group_items : tuple[tuple[int, ...], ...]
        The item weights of each group, all positive.
    rewards : tuple[int, ...]
        One positive reward per group.
    meta : str
        Opaque provenance string (seed, generator name, ...).
    item_weights : tuple[int, ...]
        Derived: every item weight, group-major.
    """

    capacities: tuple[int, ...]
    group_items: tuple[tuple[int, ...], ...]
    rewards: tuple[int, ...]
    meta: str = ""
    item_weights: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        group_items = tuple(tuple(int(w) for w in g) for g in self.group_items)
        object.__setattr__(self, "capacities", tuple(int(c) for c in self.capacities))
        object.__setattr__(self, "group_items", group_items)
        object.__setattr__(self, "rewards", tuple(int(p) for p in self.rewards))
        if len(self.rewards) != len(group_items):
            raise ValueError("one reward per group required")
        object.__setattr__(self, "item_weights", tuple(w for g in group_items for w in g))

    @property
    def m(self) -> int:
        return len(self.capacities)

    @property
    def n(self) -> int:
        return len(self.item_weights)

    @property
    def k(self) -> int:
        return len(self.group_items)

    @property
    def c_max(self) -> int:
        return max(self.capacities)

    @property
    def w_max(self) -> int:
        return max(self.item_weights)

    @property
    def total_capacity(self) -> int:
        return sum(self.capacities)

    def group_weights(self) -> tuple[int, ...]:
        return tuple(sum(g) for g in self.group_items)


@dataclass(frozen=True)
class Selection:
    """A 0/1 choice per group."""

    chosen: tuple[bool, ...]

    def __post_init__(self):
        object.__setattr__(self, "chosen", tuple(bool(b) for b in self.chosen))

    @classmethod
    def from_indices(cls, indices, k: int) -> "Selection":
        idx = set(indices)
        return cls(tuple(l in idx for l in range(k)))

    def indices(self) -> tuple[int, ...]:
        return tuple(l for l, b in enumerate(self.chosen) if b)

    def reward(self, instance: Instance) -> int:
        return sum(p for p, b in zip(instance.rewards, self.chosen) if b)

    @classmethod
    def empty(cls, k: int) -> "Selection":
        return cls((False,) * k)


@dataclass(frozen=True)
class Assignment:
    """Item placements plus cached per-knapsack loads.

    ``placement[j]`` is the knapsack index holding item ``j`` or ``None``.
    ``loads`` always equals the recomputed per-knapsack weight totals.
    """

    placement: tuple[Optional[int], ...]
    loads: tuple[int, ...]

    @classmethod
    def build(cls, instance: Instance, placement) -> "Assignment":
        placement = tuple(placement)
        loads = [0] * instance.m
        for j, i in enumerate(placement):
            if i is not None:
                loads[i] += instance.item_weights[j]
        return cls(placement, tuple(loads))

    @classmethod
    def empty(cls, instance: Instance) -> "Assignment":
        return cls((None,) * instance.n, (0,) * instance.m)

    def max_exceeded(self, instance: Instance) -> int:
        return max(load - c for load, c in zip(self.loads, instance.capacities))


@dataclass(frozen=True)
class BiCriteriaMetrics:
    """The exact (reward, worst-knapsack overload) pair that measures one solution."""

    reward: int
    max_exceeded: int


def validate(instance: Instance) -> list[str]:
    """Check every instance invariant; return one descriptor per violation.

    Total function: never raises.  An empty list means the instance is
    well formed.  The groups partition the items by construction, so the
    only group rule is that none is empty.
    """
    out = []
    m = instance.m
    if m < 2:
        out.append(f"knapsack-count: m={m} < 2")
    for i, c in enumerate(instance.capacities):
        if c <= 0:
            out.append(f"capacity-positive: knapsack {i} has capacity {c}")
    for j, w in enumerate(instance.item_weights):
        if w <= 0:
            out.append(f"weight-positive: item {j} has weight {w}")
    for l, p in enumerate(instance.rewards):
        if p <= 0:
            out.append(f"reward-positive: group {l} has reward {p}")

    for l, g in enumerate(instance.group_items):
        if not g:
            out.append(f"group-nonempty: group {l} is empty")

    if instance.capacities and instance.item_weights:
        c_max = instance.c_max
        total = instance.total_capacity
        for j, w in enumerate(instance.item_weights):
            if w > c_max:
                out.append(f"weight-bound: item {j} weighs {w} > max capacity {c_max}")
        for l, gw in enumerate(instance.group_weights()):
            if gw > total:
                out.append(f"group-fits-total: group {l} weighs {gw} > total capacity {total}")
        if min(instance.capacities) < min(instance.item_weights):
            out.append(
                "smallest-knapsack: capacity "
                f"{min(instance.capacities)} < lightest item {min(instance.item_weights)}"
            )
    if sum(instance.rewards) > INT64_MAX or sum(instance.item_weights) > INT64_MAX:
        out.append("overflow: reward or weight totals exceed 64-bit range")
    return out


def metrics(instance: Instance, selection: Selection, assignment: Assignment) -> BiCriteriaMetrics:
    """The reward and the worst overload of one (selection, assignment) pair.

    Raises ``InconsistentSolutionError`` when the assignment does not place
    exactly the items of the chosen groups, or when the cached loads are
    stale.
    """
    wanted = [on for on, g in zip(selection.chosen, instance.group_items) for _ in g]
    placed = [i is not None for i in assignment.placement]
    if placed != wanted:
        owners = [l for l, g in enumerate(instance.group_items) for _ in g]
        for j, (l, on, spot) in enumerate(zip(owners, wanted, placed, strict=True)):
            if on and not spot:
                raise InconsistentSolutionError(f"item {j} of chosen group {l} unplaced")
            if spot and not on:
                raise InconsistentSolutionError(f"item {j} of unchosen group {l} placed")
    if Assignment.build(instance, assignment.placement).loads != assignment.loads:
        raise InconsistentSolutionError("stored loads disagree with placements")

    return BiCriteriaMetrics(
        reward=selection.reward(instance), max_exceeded=assignment.max_exceeded(instance)
    )
