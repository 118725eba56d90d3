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


@dataclass(frozen=True)
class SolveResult:
    """One algorithm run: selection, placement, metrics, stage timings."""

    algorithm: str
    selection: Selection
    assignment: Assignment
    metrics: BiCriteriaMetrics
    timings_ms: dict = field(default_factory=dict)
    swap_opt_applied: bool = False


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
    makes one per budget); otherwise it is built here.  A selection that
    breaks a row of that subproblem raises ``InconsistentSolutionError``, as
    does a max overload above the proven bound ``floor(beta * c_max)``, beta
    2 for ``lp`` and the problem's ``beta`` otherwise; the bound holds, and is
    checked, only at aggregate budgets up to the instance's total capacity.
    """
    t0 = time.perf_counter()
    if variant == VARIANT_LP:
        z = lp_greedy.greedy_lp(instance, total_capacity=total_capacity)
        selection = Selection(tuple(zl > 0 for zl in z))
        beta = Fraction(2)
    else:
        if problem is None:
            problem = subset_select.build_problem(
                instance, variant, total_capacity=total_capacity, d_set=d_set
            )
        selection = subset_select.solve_exact(problem, node_budget=node_budget)
        if not problem.feasible(selection.chosen):
            raise InconsistentSolutionError(f"{variant} selection breaks a row of its problem")
        beta = problem.beta
        del problem  # a problem built here frees its DP tables before placement
    t1 = time.perf_counter()
    assignment = assign.greedy_assign(instance, selection)
    t2 = time.perf_counter()
    if swap_opt:
        assignment = assign.swap_optimal(instance, assignment)
    t3 = time.perf_counter()
    result_metrics = metrics(instance, selection, assignment)
    if total_capacity is None or total_capacity <= instance.total_capacity:
        cap = floor(beta * instance.c_max)
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
