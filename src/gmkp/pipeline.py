"""Two-stage solvers: group selection, greedy placement, optional local search."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import floor
from typing import Iterable, Optional

from . import assign, lp_greedy, subset_select
from .model import (
    Assignment,
    BiCriteriaMetrics,
    InconsistentSolutionError,
    Instance,
    Selection,
    metrics,
)

VARIANT_LP = "lp"
ALL_VARIANTS = (
    VARIANT_LP,
    subset_select.VARIANT_KP,
    subset_select.VARIANT_2MKP,
    subset_select.VARIANT_3MKP,
    subset_select.VARIANT_MKPD,
    subset_select.VARIANT_MKP_PRIME,
)


@dataclass(frozen=True)
class SolveResult:
    """One algorithm run: selection, placement, metrics, stage timings."""

    algorithm: str
    selection: Selection
    assignment: Assignment
    metrics: BiCriteriaMetrics
    timings_ms: dict = field(default_factory=dict)
    swap_opt_applied: bool = False


def hundred_mkp_d_set(c_max: int) -> list[Fraction]:
    """Thresholds c/2, c/3, ..., c/c used by the many-cuts configuration."""
    return [Fraction(c_max, q) for q in range(2, c_max + 1)]


def run_algorithm(
    instance: Instance,
    variant: str,
    swap_opt: bool = False,
    total_capacity: Optional[int] = None,
    d_set: Optional[Iterable[Fraction]] = None,
    node_budget: Optional[int] = None,
    problem: Optional[subset_select.SelectionProblem] = None,
) -> SolveResult:
    """Select groups with the chosen relaxation, then place their items.

    The ``lp`` variant selects every group with a positive fraction in the
    greedy continuous solution; all other variants solve their selection
    subproblem exactly.  ``total_capacity`` overrides the aggregate
    budget only (cut rows keep their own right-hand sides).  ``problem`` is
    that subproblem when the caller has built it already (``SelectionProblem.at``
    makes one per budget); otherwise it is built here.  A max overload above
    the variant's proven bound, ``floor(beta * c_max)``, raises
    ``InconsistentSolutionError``; the bound holds, and is checked, only at
    aggregate budgets up to the instance's total capacity.
    """
    t0 = time.perf_counter()
    if variant == VARIANT_LP:
        frac = lp_greedy.greedy_lp(instance, total_capacity=total_capacity)
        selection = Selection(tuple(zl > 0 for zl in frac.z))
    else:
        if problem is None:
            problem = subset_select.build_problem(
                instance, variant, total_capacity=total_capacity, d_set=d_set
            )
        selection = subset_select.solve_exact(problem, node_budget=node_budget)
        del problem  # a problem built here frees its DP tables before placement
    t1 = time.perf_counter()
    assignment = assign.greedy_assign(instance, selection)
    t2 = time.perf_counter()
    if swap_opt:
        assignment = assign.swap_optimal(instance, assignment)
    t3 = time.perf_counter()
    result_metrics = metrics(instance, selection, assignment)
    if total_capacity is None or total_capacity <= instance.total_capacity:
        cap = floor(beta_bound_for(instance, variant, d_set) * instance.c_max)
        if result_metrics.max_exceeded > cap:
            raise InconsistentSolutionError(
                f"{variant} overload {result_metrics.max_exceeded} exceeds its proven bound {cap}")
    return SolveResult(
        algorithm=variant,
        selection=selection,
        assignment=assignment,
        metrics=result_metrics,
        timings_ms={
            "selection": (t1 - t0) * 1000.0,
            "assignment": (t2 - t1) * 1000.0,
            "swap_opt": (t3 - t2) * 1000.0,
        },
        swap_opt_applied=swap_opt,
    )


def run_best(
    instance: Instance, swap_opt: bool = False, node_budget: Optional[int] = None
) -> SolveResult:
    """Run lp, kp, 2mkp and 3mkp and keep the feasibility-first winner.

    Winner = smallest maximum overload, ties broken by larger reward,
    then by variant order.  The result keeps the winning variant's tag.
    ``run_algorithm`` checks each of the four runs, not only the winner,
    against its own proven overload bound.
    """
    best = None
    for v in (VARIANT_LP, subset_select.VARIANT_KP,
              subset_select.VARIANT_2MKP, subset_select.VARIANT_3MKP):
        res = run_algorithm(instance, v, swap_opt=swap_opt, node_budget=node_budget)
        key = (res.metrics.max_exceeded, -res.metrics.reward)
        if best is None or key < best[0]:
            best = (key, res)
    assert best is not None
    return best[1]


def _is_power_of(value: int, a: int) -> bool:
    while value % a == 0:
        value //= a
    return value == 1


def powers_of_common_base(values: Iterable[int]) -> Optional[int]:
    """Smallest integer a >= 2 such that every value is a power of a, if any.

    Values equal to 1 count as a^0.  Returns None when no base works.
    """
    vals = [v for v in set(values) if v > 1]
    if not vals:
        return 2  # everything is 1
    least = min(vals)
    for a in range(2, least + 1):
        # a base of every value divides the least one
        if least % a == 0 and all(_is_power_of(v, a) for v in vals):
            return a
    return None


def beta_bound_for(
    instance: Instance, variant: str, d_set: Optional[Iterable[Fraction]] = None
) -> Fraction:
    """The proven overload bound (as a fraction of the largest capacity).

    Each variant reads only what its bound depends on, so the common-base
    scan over every item weight runs for ``kp`` and ``mkpprime`` alone.
    Raises ``ValueError`` on an unknown variant.
    """
    equal_caps = len(set(instance.capacities)) == 1
    c_max = instance.c_max

    def has_common_base() -> bool:
        values = list(instance.capacities) + list(instance.item_weights)
        return powers_of_common_base(values) is not None

    if variant == VARIANT_LP:
        return Fraction(2)
    if variant == subset_select.VARIANT_KP:
        if equal_caps and has_common_base():
            return Fraction(0)
        return Fraction(1)
    if variant == subset_select.VARIANT_2MKP:
        if equal_caps and all(2 * w > c_max for w in instance.item_weights):
            return Fraction(0)
        return Fraction(1, 2)
    if variant == subset_select.VARIANT_3MKP:
        return Fraction(1, 3) if equal_caps else Fraction(1, 2)
    if variant == subset_select.VARIANT_MKPD:
        # membership, no conversion: every run checks its bound; 100mkp's list
        # starts at c_max/2, and `canonical` comes as a set
        ds = () if d_set is None else d_set
        if Fraction(c_max, 2) not in ds:
            return Fraction(1)  # still a relaxation of the aggregate row
        return Fraction(1, 3) if equal_caps and Fraction(c_max, 3) in ds else Fraction(1, 2)
    if variant == subset_select.VARIANT_MKP_PRIME:
        if has_common_base():
            return Fraction(0)
        return Fraction(1)
    raise ValueError(f"unknown variant {variant!r}")
