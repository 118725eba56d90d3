"""Randomized instance generator: stratified parameter space, triangular
weights, incremental group assembly, and alternative reward schemes."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from .model import Instance

if TYPE_CHECKING:
    import numpy as np

RNG_NAME = "numpy-pcg64"


def _rng(seed: int) -> np.random.Generator:
    # numpy is imported by the functions that draw, so that importing the
    # package (and starting the command line) does not load it
    import numpy as np

    return np.random.Generator(np.random.PCG64(seed))


@dataclass(frozen=True)
class GeneratorParams:
    """Six-dimensional instance recipe plus capacity and seed.

    ``r_load`` is the target ratio of total item weight to total capacity;
    ``r_conc`` controls how many items share a group (0 = one item per
    group).
    """

    m: int
    w_split: int
    w_min: int
    w_mode: int
    r_load: Fraction
    r_conc: Fraction
    capacity: int = 100
    seed: int = 0

    def __post_init__(self):
        cap = self.capacity
        if not 1 <= self.w_min <= min(cap // 2, cap - self.w_split):
            raise ValueError(f"w_min {self.w_min} outside [1, min({cap}/2, {cap}-w_split)]")
        if not self.w_min <= self.w_mode <= self.w_min + self.w_split:
            raise ValueError("w_mode outside [w_min, w_max]")
        if not 1 <= self.r_load <= 20:
            raise ValueError("r_load outside [1, 20]")
        if not 0 <= self.r_conc <= 1:
            raise ValueError("r_conc outside [0, 1]")
        if self.m < 2:
            raise ValueError("need at least 2 knapsacks")

    @property
    def w_max(self) -> int:
        return self.w_min + self.w_split


@dataclass(frozen=True)
class RewardScheme:
    """Which reward transform to apply to the group-weight baseline."""

    tag: str  # R0 | R1 | R2 | R3
    seed: int = 0

    def __post_init__(self):
        if self.tag not in ("R0", "R1", "R2", "R3"):
            raise ValueError(f"unknown reward scheme {self.tag!r}")


def latin_hypercube(count: int, seed: int) -> np.ndarray:
    """Classic Latin hypercube over the six coordinates ``materialize`` reads."""
    if count < 1:
        raise ValueError("count must be >= 1")
    import numpy as np

    rng = _rng(seed)
    points = np.empty((count, 6))
    for d in range(6):
        perm = rng.permutation(count)
        points[:, d] = (perm + rng.random(count)) / count
    return points


def materialize(point, capacity: int = 100, seed: int = 0) -> GeneratorParams:
    """Map a unit-cube point to generator parameters.

    Ranges: 2-100 knapsacks; weight spread 1-99 and below the capacity,
    which must be at least 2; minimum weight capped at half the capacity and
    at capacity minus the spread; mode inside the weight range; load ratio
    1-20; concentration 0-1.
    """
    u1, u2, u3, u4, u5, u6 = (Fraction(float(u)) for u in point)
    if any(not 0 <= u < 1 for u in (u1, u2, u3, u4, u5, u6)):
        raise ValueError("coordinates must lie in [0, 1)")
    if capacity < 2:
        raise ValueError(f"capacity {capacity} is below 2")
    m = min(100, 2 + math.floor(u1 * 99))
    w_split = min(capacity - 1, 1 + math.floor(u2 * 99))
    w_min_hi = min(capacity // 2, capacity - w_split)
    w_min = min(w_min_hi, 1 + math.floor(u3 * w_min_hi))
    w_mode = w_min + math.floor(u4 * (w_split + 1))
    return GeneratorParams(
        m=m,
        w_split=w_split,
        w_min=w_min,
        w_mode=w_mode,
        r_load=1 + 19 * u5,
        r_conc=u6,
        capacity=capacity,
        seed=seed,
    )


def _triangular_int(rng: np.random.Generator, lo: int, mode: int, hi: int) -> int:
    """Inverse-CDF triangular sample on a 64-bit uniform, rounded to int."""
    u = int(rng.integers(0, 2**64, dtype="uint64")) / 2**64
    if hi == lo:
        return lo
    fc = (mode - lo) / (hi - lo)
    if u < fc:
        value = lo + math.sqrt(u * (hi - lo) * (mode - lo))
    else:
        value = hi - math.sqrt((1 - u) * (hi - lo) * (hi - mode))
    return min(hi, max(lo, round(value)))


def generate_instance(params: GeneratorParams) -> Instance:
    """Build one instance from a parameter recipe, fully seeded.

    Items: the extreme weights first, then triangular draws until the load
    ratio target is exceeded.  Groups: one seed item each, remaining items
    joining a uniformly random group that stays under the total-capacity
    weight cap (a fresh group when none qualifies).  Rewards are the group
    weight totals (scheme R0).
    """
    rng = _rng(params.seed)
    cap_sum = params.m * params.capacity
    weights = [params.w_min, params.w_max]
    while Fraction(sum(weights), cap_sum) <= params.r_load:
        weights.append(_triangular_int(rng, params.w_min, params.w_mode, params.w_max))
    k = math.ceil(len(weights) * (1 - params.r_conc))
    groups = [[w] for w in weights[:k]]
    totals = weights[:k]
    for w in weights[k:]:
        eligible = [g for g in range(len(groups)) if totals[g] + w <= cap_sum]
        if eligible:
            g = eligible[int(rng.integers(0, len(eligible)))]
        else:
            groups.append([])
            totals.append(0)
            g = len(groups) - 1
        groups[g].append(w)
        totals[g] += w
    return Instance(
        capacities=(params.capacity,) * params.m,
        group_items=groups,
        rewards=totals,
        meta=f"gen seed={params.seed} rng={RNG_NAME} m={params.m} "
        f"w=[{params.w_min},{params.w_mode},{params.w_max}] "
        f"r_load={params.r_load} r_conc={params.r_conc} cap={params.capacity}",
    )


def _round_nearest_sqrt(radicand: int) -> int:
    """Nearest integer to sqrt(radicand), exactly (half rounds up)."""
    t = math.isqrt(radicand)
    # nearest: compare radicand against (t + 1/2)^2 = t^2 + t + 1/4
    return t + 1 if 4 * radicand >= (2 * t + 1) ** 2 else t


def apply_reward_scheme(instance: Instance, scheme: RewardScheme) -> Instance:
    """Replace the weight-total rewards with a transformed variant.

    R0 keeps the totals; R1 rewards light groups (100 * sqrt, rounded);
    R2 rewards heavy groups (p * sqrt(p), rounded); R3 multiplies by an
    independent uniform draw from [1, 10).
    """
    p0 = instance.group_weights()
    if scheme.tag == "R0":
        rewards = p0
    elif scheme.tag == "R1":
        rewards = tuple(_round_nearest_sqrt(10000 * p) for p in p0)
    elif scheme.tag == "R2":
        rewards = tuple(_round_nearest_sqrt(p**3) for p in p0)
    else:  # R3
        rng = _rng(scheme.seed)
        mult = 1 + 9 * rng.random(len(p0))
        rewards = tuple(int(round(float(u) * p)) for u, p in zip(mult, p0))
    return Instance(
        capacities=instance.capacities,
        group_items=instance.group_items,
        rewards=rewards,
        meta=f"{instance.meta} reward={scheme.tag}"
        + (f" rseed={scheme.seed}" if scheme.tag == "R3" else ""),
    )
