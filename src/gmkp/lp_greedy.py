"""Greedy solver for the continuous relaxation of the grouped problem.

Groups are taken in non-increasing reward-to-weight order until their
weight fills the budget; at most the last group taken is fractional.  All
arithmetic is exact (integers and Fractions).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .model import Instance


def sort_groups(instance: Instance) -> list[int]:
    """Group indices by non-increasing reward / total-weight ratio.

    Ratios are compared exactly via cross-multiplication; ties keep
    ascending original index.
    """
    gw = instance.group_weights()
    # Fraction comparison is exact cross-multiplication of the integer parts.
    return sorted(range(instance.k), key=lambda l: (-Fraction(instance.rewards[l], gw[l]), l))


def greedy_lp(instance: Instance, total_capacity: Optional[int] = None) -> tuple[Fraction, ...]:
    """The fraction ``z[l]`` of each group ``l``, taken in sorted order until the budget fills.

    ``total_capacity`` overrides the aggregate budget for the fractional
    selection (defaults to the sum of capacities).  The physical placement
    constraints cap usable weight at the capacity sum regardless, so the
    effective budget is ``min(total_capacity, sum(capacities))``.

    Every group of the sorted prefix that fits is taken whole; the first
    group that does not fit is taken in the fraction that fills the budget,
    and nothing after it.  Pouring that selection into the knapsacks one
    by one fits their capacities, since the budget is at most their sum.
    """
    gw = instance.group_weights()
    cap_sum = instance.total_capacity
    budget = cap_sum if total_capacity is None else min(int(total_capacity), cap_sum)
    if budget < 0:
        raise ValueError("total_capacity must be non-negative")

    z: list[Fraction] = [Fraction(0)] * instance.k
    left = budget
    for l in sort_groups(instance):
        if left <= 0:
            break
        z[l] = Fraction(min(left, gw[l]), gw[l])
        left -= gw[l]
    return tuple(z)
