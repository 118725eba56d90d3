"""Shared samplers and fixtures for the test suite."""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction
from itertools import accumulate, pairwise

import pytest

from gmkp import subset_select
from gmkp.model import Instance


def random_small_instance(
    rng: random.Random,
    equal_caps: bool | None = None,
    reward_mode: str | None = None,
    max_m: int = 4,
    max_k: int = 8,
    max_n: int = 16,
) -> Instance:
    """A small valid instance: m <= 4, k <= 8, n <= 16.

    Weights never exceed the largest capacity, the lightest item fits the
    smallest knapsack, and every group fits the total capacity.
    """
    m = rng.randint(2, max_m)
    if equal_caps is None:
        equal_caps = rng.random() < 0.5
    if equal_caps:
        caps = [rng.randint(5, 25)] * m
    else:
        caps = sorted(rng.randint(5, 25) for _ in range(m))
    c_min, c_max = caps[0], caps[-1]
    total = sum(caps)

    k = rng.randint(1, max_k)
    # one seed item per group, the first light enough for every knapsack
    group_items = [[rng.randint(1, c_min if l == 0 else c_max)] for l in range(k)]
    totals = [g[0] for g in group_items]
    n = k
    while n < rng.randint(k, max_n):
        w = rng.randint(1, c_max)
        eligible = [l for l in range(k) if totals[l] + w <= total]
        if not eligible:
            break
        l = rng.choice(eligible)
        group_items[l].append(w)
        totals[l] += w
        n += 1

    if reward_mode is None:
        reward_mode = rng.choice(["weight", "uniform", "weightish"])
    if reward_mode == "weight":
        rewards = list(totals)
    elif reward_mode == "uniform":
        rewards = [rng.randint(1, 50) for _ in range(k)]
    else:
        rewards = [max(1, t + rng.randint(-3, 3)) for t in totals]

    return Instance(caps, group_items, rewards, meta=f"test-sampler mode={reward_mode}")


def make(caps, weights, groups, rewards) -> Instance:
    """An instance whose group ``l`` holds the items ``weights[j]``, ``j`` in ``groups[l]``."""
    return Instance(caps, [[weights[j] for j in g] for g in groups], rewards)


def group_ranges(instance: Instance) -> list[range]:
    """The item indices of each group: consecutive, since items are numbered group-major."""
    bounds = pairwise(accumulate(map(len, instance.group_items), initial=0))
    return [range(a, b) for a, b in bounds]


def recording_tables(monkeypatch) -> list[tuple[int, int]]:
    """Patch the weight DP to record ``(types, top)`` for each forward pass built.

    ``_Shared.core`` builds the pass of each core size, the full DP being the
    core of every type, and keeps it for every ``at`` of the problem.  A
    pass's top is its row-0 budget clipped to the core's total weight.
    """
    built: list[tuple[int, int]] = []

    class Recording(subset_select._WeightTables):
        def __init__(self, T, cnt, col, rhs_list):
            built.append((T, rhs_list[0]))
            super().__init__(T, cnt, col, rhs_list)

    monkeypatch.setattr(subset_select, "_WeightTables", Recording)
    return built


def break_bound(monkeypatch, variant: str) -> None:
    """Patch ``build_problem`` to give ``variant``'s problems beta -2.

    A bound of -2 * c_max: every placement of those problems breaks it.
    """
    build = subset_select.build_problem

    def build_broken(instance, tag, *args, **kwargs):
        problem = build(instance, tag, *args, **kwargs)
        return dataclasses.replace(problem, beta=Fraction(-2)) if tag == variant else problem

    monkeypatch.setattr(subset_select, "build_problem", build_broken)


@pytest.fixture(scope="session")
def small_suite() -> list[Instance]:
    """The 200-instance suite shared by the alpha/beta/heuristic criteria."""
    rng = random.Random(20260826)
    out = []
    for idx in range(200):
        out.append(random_small_instance(rng, equal_caps=idx % 2 == 0))
    return out


@pytest.fixture(scope="session")
def small_suite_optima(small_suite):
    from gmkp.oracle import exact_gmkp

    return [exact_gmkp(inst)[0] for inst in small_suite]
