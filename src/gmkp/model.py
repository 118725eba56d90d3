"""Core domain types for grouped multiple-knapsack instances and solutions.

All numeric data (capacities, weights, rewards) are positive integers;
thresholds and ratios are exact `fractions.Fraction` values.  No floating
point enters any solver computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

# Rewards and weights are bounded so that sums never overflow 64 bits.
INT64_MAX = 2**63 - 1


class GmkpError(Exception):
    """Base class for solver errors."""


class BudgetExceededError(GmkpError):
    """An exact search exhausted its node budget before proving optimality."""


class InconsistentSolutionError(GmkpError):
    """A selection and an assignment disagree about which items are placed."""


@dataclass(frozen=True)
class Instance:
    """A grouped multiple-knapsack instance.

    Attributes
    ----------
    capacities : tuple[int, ...]
        Per-knapsack capacities, all positive.
    item_weights : tuple[int, ...]
        Per-item weights, all positive.
    groups : tuple[tuple[int, ...], ...]
        Disjoint item-index sets partitioning ``range(n)``.
    rewards : tuple[int, ...]
        One positive reward per group.
    meta : str
        Opaque provenance string (seed, generator name, ...).
    """

    capacities: tuple[int, ...]
    item_weights: tuple[int, ...]
    groups: tuple[tuple[int, ...], ...]
    rewards: tuple[int, ...]
    meta: str = ""

    def __post_init__(self):
        object.__setattr__(self, "capacities", tuple(int(c) for c in self.capacities))
        object.__setattr__(self, "item_weights", tuple(int(w) for w in self.item_weights))
        object.__setattr__(self, "groups", tuple(tuple(int(j) for j in g) for g in self.groups))
        object.__setattr__(self, "rewards", tuple(int(p) for p in self.rewards))
        if len(self.rewards) != len(self.groups):
            raise ValueError("one reward per group required")

    @classmethod
    def from_groups(cls, capacities, group_items, rewards, meta: str = "") -> "Instance":
        """An instance from per-group item weights, items numbered group-major.

        Group 0's items come first, in their given order, then group 1's,
        and so on.
        """
        weights: list[int] = []
        groups = []
        for items in group_items:
            start = len(weights)
            weights.extend(items)
            groups.append(tuple(range(start, len(weights))))
        return cls(capacities, weights, groups, rewards, meta)

    @property
    def m(self) -> int:
        return len(self.capacities)

    @property
    def n(self) -> int:
        return len(self.item_weights)

    @property
    def k(self) -> int:
        return len(self.groups)

    @property
    def c_max(self) -> int:
        return max(self.capacities)

    @property
    def w_max(self) -> int:
        return max(self.item_weights)

    @property
    def total_capacity(self) -> int:
        return sum(self.capacities)

    def group_weight(self, l: int) -> int:
        return sum(self.item_weights[j] for j in self.groups[l])

    def group_weights(self) -> tuple[int, ...]:
        return tuple(self.group_weight(l) for l in range(self.k))


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
class FractionalSolution:
    """Fractional group selection: ``z[l]`` is the selected fraction of group ``l``."""

    z: tuple[Fraction, ...]

    def objective(self, instance: Instance) -> Fraction:
        return sum((zl * p for zl, p in zip(self.z, instance.rewards)), Fraction(0))


@dataclass(frozen=True)
class BiCriteriaMetrics:
    """The exact (reward, worst-knapsack overload) pair that measures one solution."""

    reward: int
    max_exceeded: int


def validate(instance: Instance) -> list[str]:
    """Check every instance invariant; return one descriptor per violation.

    Total function: never raises.  An empty list means the instance is
    well formed.
    """
    out = []
    m, n, k = instance.m, instance.n, instance.k
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

    seen: dict[int, int] = {}
    for l, g in enumerate(instance.groups):
        if not g:
            out.append(f"group-nonempty: group {l} is empty")
        for j in g:
            if not 0 <= j < n:
                out.append(f"group-index-range: group {l} references item {j}")
            elif j in seen:
                out.append(f"group-disjoint: item {j} in groups {seen[j]} and {l}")
            else:
                seen[j] = l
    missing = [j for j in range(n) if j not in seen]
    if missing:
        out.append(f"group-cover: items {missing} belong to no group")

    if instance.capacities and instance.item_weights:
        c_max = instance.c_max
        total = instance.total_capacity
        for j, w in enumerate(instance.item_weights):
            if w > c_max:
                out.append(f"weight-bound: item {j} weighs {w} > max capacity {c_max}")
        for l in range(k):
            # out-of-range indices are reported separately above
            gw = sum(instance.item_weights[j] for j in instance.groups[l] if 0 <= j < n)
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


def normalize(instance: Instance) -> Instance:
    """Drop unusable knapsacks and unassignable groups, to a fixed point.

    A knapsack smaller than every remaining item weight is removed; a group
    weighing more than the remaining total capacity is removed.  Each removal
    can enable the other, so the two rules iterate until stable.  Returns the
    survivors in their order, or ``instance`` itself when nothing is dropped.

    Raises ``GmkpError`` if fewer than two knapsacks survive.
    """
    caps = list(range(instance.m))
    grps = list(range(instance.k))
    while True:
        weights = [instance.item_weights[j] for l in grps for j in instance.groups[l]]
        if not weights:
            break
        w_min = min(weights)
        kept_c = [i for i in caps if instance.capacities[i] >= w_min]
        total = sum(instance.capacities[i] for i in kept_c)
        kept_g = [l for l in grps if instance.group_weight(l) <= total]
        if kept_c == caps and kept_g == grps:
            break
        caps, grps = kept_c, kept_g
    if len(caps) < 2:
        raise GmkpError(f"normalization left {len(caps)} knapsack(s); need at least 2")
    if len(caps) == instance.m and len(grps) == instance.k:
        return instance
    return Instance.from_groups(
        capacities=[instance.capacities[i] for i in caps],
        group_items=([instance.item_weights[j] for j in instance.groups[l]] for l in grps),
        rewards=[instance.rewards[l] for l in grps],
        meta=instance.meta,
    )


def metrics(instance: Instance, selection: Selection, assignment: Assignment) -> BiCriteriaMetrics:
    """The reward and the worst overload of one (selection, assignment) pair.

    Raises ``InconsistentSolutionError`` when the assignment does not place
    exactly the items of the chosen groups, or when the cached loads are
    stale.
    """
    placed_loads = [0] * instance.m
    for l, g in enumerate(instance.groups):
        for j in g:
            spot = assignment.placement[j]
            if selection.chosen[l] and spot is None:
                raise InconsistentSolutionError(f"item {j} of chosen group {l} unplaced")
            if not selection.chosen[l] and spot is not None:
                raise InconsistentSolutionError(f"item {j} of unchosen group {l} placed")
            if spot is not None:
                placed_loads[spot] += instance.item_weights[j]
    if tuple(placed_loads) != assignment.loads:
        raise InconsistentSolutionError("stored loads disagree with placements")

    return BiCriteriaMetrics(
        reward=selection.reward(instance), max_exceeded=assignment.max_exceeded(instance)
    )
