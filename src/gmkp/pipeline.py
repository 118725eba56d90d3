"""Two-stage solvers: group selection, greedy placement, optional local search."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

from . import assign, lp_greedy, subset_select
from .model import Assignment, BiCriteriaMetrics, Instance, Selection, metrics

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
) -> SolveResult:
    """Select groups with the chosen relaxation, then place their items.

    The ``lp`` variant selects every group with a positive fraction in the
    greedy continuous solution; all other variants solve their selection
    subproblem exactly.  ``total_capacity`` overrides the aggregate
    budget only (cut rows keep their own right-hand sides).
    """
    t0 = time.perf_counter()
    if variant == VARIANT_LP:
        frac = lp_greedy.greedy_lp(instance, total_capacity=total_capacity)
        selection = Selection(tuple(zl > 0 for zl in frac.z))
    else:
        problem = subset_select.build_problem(
            instance, variant, total_capacity=total_capacity, d_set=d_set
        )
        selection = subset_select.solve_exact(problem, node_budget=node_budget)
    t1 = time.perf_counter()
    assignment = assign.greedy_assign(instance, selection)
    t2 = time.perf_counter()
    if swap_opt:
        assignment = assign.swap_optimal(instance, assignment)
    t3 = time.perf_counter()
    return SolveResult(
        algorithm=variant,
        selection=selection,
        assignment=assignment,
        metrics=metrics(instance, selection, assignment),
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
    for a in range(2, min(vals) + 1):
        if all(_is_power_of(v, a) for v in vals):
            return a
    return None


@dataclass(frozen=True)
class GuaranteeReport:
    beta_bound: Optional[Fraction]
    beta_ok: Optional[bool]
    alpha_ok: Optional[bool]
    violations: tuple[str, ...]


def beta_bound_for(
    instance: Instance, variant: str, d_set: Optional[Iterable[Fraction]] = None
) -> Optional[Fraction]:
    """The proven overload bound (as a fraction of the largest capacity)."""
    equal_caps = len(set(instance.capacities)) == 1
    c_max = instance.c_max
    base = powers_of_common_base(
        list(instance.capacities) + list(instance.item_weights)
    )
    ds = {Fraction(d) for d in d_set} if d_set is not None else set()

    if variant == VARIANT_LP:
        return Fraction(2)
    if variant == subset_select.VARIANT_KP:
        if equal_caps and base is not None:
            return Fraction(0)
        return Fraction(1)
    if variant == subset_select.VARIANT_2MKP:
        if equal_caps and all(2 * w > c_max for w in instance.item_weights):
            return Fraction(0)
        return Fraction(1, 2)
    if variant == subset_select.VARIANT_3MKP:
        return Fraction(1, 3) if equal_caps else Fraction(1, 2)
    if variant == subset_select.VARIANT_MKPD:
        if Fraction(c_max, 2) in ds and Fraction(c_max, 3) in ds and equal_caps:
            return Fraction(1, 3)
        if Fraction(c_max, 2) in ds:
            return Fraction(1, 2)
        return Fraction(1)  # still a relaxation of the aggregate row
    if variant == subset_select.VARIANT_MKP_PRIME:
        if base is not None:
            return Fraction(0)
        return Fraction(1)
    return None


def check_guarantees(
    result: SolveResult,
    instance: Instance,
    oracle_reward: Optional[int] = None,
    d_set: Optional[Iterable[Fraction]] = None,
) -> GuaranteeReport:
    """Compare one run against its theorem-backed bounds; report, never raise."""
    violations: list[str] = []
    bound = beta_bound_for(instance, result.algorithm, d_set=d_set)
    beta_ok = None
    if bound is not None:
        beta_ok = Fraction(result.metrics.max_exceeded) <= bound * instance.c_max
        if not beta_ok:
            violations.append(
                f"overload {result.metrics.max_exceeded} exceeds "
                f"{bound} * c_max = {bound * instance.c_max}"
            )
    alpha_ok = None
    if oracle_reward is not None:
        alpha_ok = result.metrics.reward >= oracle_reward
        if not alpha_ok:
            violations.append(
                f"reward {result.metrics.reward} below optimum {oracle_reward}"
            )
    return GuaranteeReport(
        beta_bound=bound,
        beta_ok=beta_ok,
        alpha_ok=alpha_ok,
        violations=tuple(violations),
    )
