"""Grouped multiple-knapsack solvers, heuristics, and instance generation."""

from .model import (
    Assignment,
    BiCriteriaMetrics,
    BudgetExceededError,
    GmkpError,
    InconsistentSolutionError,
    Instance,
    Selection,
    metrics,
    validate,
)
from .lp_greedy import greedy_lp, sort_groups
from .subset_select import (
    SelectionProblem,
    build_problem,
    canonical_D,
    f_d,
    hundred_mkp_d_set,
    solve_exact,
)
from .assign import greedy_assign, swap_optimal
from .pipeline import (
    SolveResult,
    run_algorithm,
    run_best,
)
from .heuristics import (
    DEFAULT_SWEEP_FACTORS,
    binary_search_feasible,
    capacity_sweep,
    pareto_frontier,
)
from .oracle import exact_gmkp
from .gen import (
    GeneratorParams,
    RewardScheme,
    apply_reward_scheme,
    generate_instance,
    latin_hypercube,
    materialize,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
