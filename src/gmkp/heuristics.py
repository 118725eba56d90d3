"""Capacity-feasible and capacity-sweep heuristics built on the solvers."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from . import pipeline
from .model import Assignment, BudgetExceededError, Instance, Selection, metrics
from .pipeline import SolveResult

DEFAULT_SWEEP_FACTORS = tuple(Fraction(75 + 5 * t, 100) for t in range(11))  # 0.75 .. 1.25


def _empty_result(instance: Instance, algorithm: str) -> SolveResult:
    sel = Selection.empty(instance.k)
    asg = Assignment.empty(instance)
    return SolveResult(
        algorithm=algorithm,
        selection=sel,
        assignment=asg,
        metrics=metrics(instance, sel, asg),
        timings_ms={},
        swap_opt_applied=False,
    )


@dataclass(frozen=True)
class FeasibleSearchResult:
    result: SolveResult
    probes: int


def binary_search_feasible(
    instance: Instance,
    variant: str,
    swap_opt: bool = True,
    d_set: Optional[Iterable[Fraction]] = None,
    node_budget: Optional[int] = None,
) -> FeasibleSearchResult:
    """Binary search on the aggregate budget for a capacity-feasible run.

    Probes the pipeline at the midpoint budget; a feasible probe (no
    knapsack over capacity) becomes the incumbent and raises the lower
    bound, an infeasible one lowers the upper bound.  The incumbent with
    the highest reward is returned; in the worst case that is the empty
    solution.  Each probe halves the interval, so at most
    ``(total_capacity + 1).bit_length()`` probes run.  A probe's solver
    error (an exhausted ``node_budget``, say) propagates to the caller.
    """
    left, right = 0, instance.total_capacity
    incumbent = _empty_result(instance, variant)
    probes = 0
    while left <= right:
        mid = (left + right) // 2
        probes += 1
        res = pipeline.run_algorithm(
            instance,
            variant,
            swap_opt=swap_opt,
            total_capacity=mid,
            d_set=d_set,
            node_budget=node_budget,
        )
        if res.metrics.max_exceeded <= 0:
            if res.metrics.reward >= incumbent.metrics.reward:
                incumbent = res
            left = mid + 1
        else:
            right = mid - 1
    return FeasibleSearchResult(result=incumbent, probes=probes)


@dataclass(frozen=True)
class SweepEntry:
    factor: Fraction
    result: Optional[SolveResult]
    error: Optional[str] = None


def capacity_sweep(
    instance: Instance,
    variant: str,
    factors: Sequence[Fraction] = DEFAULT_SWEEP_FACTORS,
    swap_opt: bool = True,
    d_set: Optional[Iterable[Fraction]] = None,
    node_budget: Optional[int] = None,
) -> list[SweepEntry]:
    """One pipeline run per capacity factor.

    A factor whose run exhausts ``node_budget`` becomes an error entry; any
    other error, an internal invariant violation among them, propagates.
    """
    factors = [Fraction(f) for f in factors]
    if any(f <= 0 for f in factors):
        raise ValueError("factors must be positive")
    cap_sum = instance.total_capacity
    out: list[SweepEntry] = []
    for f in factors:
        budget = int(f * cap_sum)  # floor
        try:
            res = pipeline.run_algorithm(
                instance,
                variant,
                swap_opt=swap_opt,
                total_capacity=budget,
                d_set=d_set,
                node_budget=node_budget,
            )
            out.append(SweepEntry(factor=f, result=res))
        except BudgetExceededError as exc:
            out.append(SweepEntry(factor=f, result=None, error=str(exc)))
    return out


def pareto_frontier(results: Sequence[SolveResult]) -> list[SolveResult]:
    """The non-dominated results, ordered by max overload ascending.

    A result is dominated when another has reward >= and overload <=,
    with at least one strict inequality.  Results with identical metric
    pairs collapse to the first occurrence.  One stable sort by overload,
    then reward descending, puts every dominating result before the ones
    it dominates; a result survives when its reward beats every earlier
    one, that is the last survivor's.
    """
    frontier: list[SolveResult] = []
    for r in sorted(results, key=lambda r: (r.metrics.max_exceeded, -r.metrics.reward)):
        if not frontier or r.metrics.reward > frontier[-1].metrics.reward:
            frontier.append(r)
    return frontier
