"""Group-selection subproblems: one knapsack row plus optional cut rows.

The cut rows count how many pieces strictly larger than a threshold fit
into weights and capacities; they remove group combinations that can never
be packed, without excluding any packable combination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from math import gcd, prod
from typing import Iterable, Optional, Sequence

from .model import BudgetExceededError, Instance, Selection

# Variant tags accepted by build_problem / the pipeline.
VARIANT_KP = "kp"
VARIANT_2MKP = "2mkp"
VARIANT_3MKP = "3mkp"
VARIANT_MKPD = "mkpd"
VARIANT_MKP_PRIME = "mkpprime"


class _Shared:
    """The work of ``solve_exact`` that no row-0 budget changes.

    One object serves a problem and every ``at`` made from it: the column
    types and their branch order, the bound's per-row ratio orders, the core
    order, and each core size's types, columns, totals and weight-DP tables.
    ``budgets`` holds every row-0 budget that the problem and its ``at``
    copies were made at, so a core's tables are built once, at the largest
    of them that the DP takes.
    """

    def __init__(self):
        self.budgets: set[int] = set()
        self.types: Optional[tuple] = None  # (keys, members, p_t, cnt, col)
        self.ratio_orders: Optional[list[list[int]]] = None
        self.core_order: Optional[list[int]] = None
        self.cores: dict[int, list] = {}  # size: [types, cnt, col, totals, tables]

    def column_types(self, problem: SelectionProblem) -> tuple:
        """Duplicate columns collapsed into types, in branch order.

        Groups with identical reward and row coefficients are
        interchangeable; each type keeps the original indices of its
        members.  Types go in non-increasing reward / row-0-coefficient
        order, ties by first member.
        """
        if self.types is None:
            rows = problem.rows
            members: dict[tuple[int, ...], list[int]] = {}
            for l, p in enumerate(problem.group_rewards):
                members.setdefault((p,) + tuple(coeffs[l] for coeffs, _ in rows), []).append(l)
            keys = sorted(
                members,
                key=lambda key: (
                    ((0, -key[0]) if key[1] == 0 else (1, -Fraction(key[0], key[1]))),
                    members[key][0],
                ),
            )
            p_t = [key[0] for key in keys]
            cnt = [len(members[key]) for key in keys]
            col = [[key[1 + r] for key in keys] for r in range(len(rows))]
            self.types = (keys, members, p_t, cnt, col)
        return self.types

    def bound_orders(self, p_t: list[int], col: list[list[int]]) -> list[list[int]]:
        """Per row, the types by non-increasing reward / coefficient.

        Zero-coefficient types come first: they add their full reward for free.
        """
        if self.ratio_orders is None:
            self.ratio_orders = [
                sorted(
                    range(len(p_t)),
                    key=lambda t: ((0, 0) if coeffs[t] == 0 else (1, -Fraction(p_t[t], coeffs[t]))),
                )
                for coeffs in col
            ]
        return self.ratio_orders

    def core(self, size: int, rhs_list: list[int]) -> Optional[tuple[list[int], _WeightTables]]:
        """The first ``size`` types in core order, and weight-DP tables over them.

        The core order puts the least cut-row usage per unit row-0 weight
        first, ties by branch order; a core keeps its types in branch order.
        Each right-hand side is clipped to the core's total coefficient, which
        removes no state the core reaches.  ``None`` when the clipped space at
        the budget ``rhs_list[0]`` is over ``_WEIGHT_DP_LIMIT``.  The tables
        are built at the largest known budget whose clipped space fits.
        """
        cnt, col = self.types[3:]
        T = len(cnt)
        size = min(size, T)
        if size not in self.cores:
            if size < T and self.core_order is None:
                self.core_order = sorted(range(T), key=lambda t: (
                    (0, Fraction(sum(c[t] for c in col[1:]), col[0][t])) if col[0][t] else (1, 0), t))
            types = sorted(self.core_order[:size]) if size < T else list(range(T))
            core_cnt = [cnt[t] for t in types]
            core_col = [[c[t] for t in types] for c in col]
            totals = [sum(c * n for c, n in zip(coeffs, core_cnt)) for coeffs in core_col]
            self.cores[size] = [types, core_cnt, core_col, totals, None]
        types, core_cnt, core_col, totals, tables = entry = self.cores[size]
        clipped = [min(rhs, total) for rhs, total in zip(rhs_list, totals)]
        cut_space = prod(r + 1 for r in clipped[1:])
        if (clipped[0] + 1) * cut_space > _WEIGHT_DP_LIMIT:
            return None
        if tables is None or tables.top < clipped[0]:
            top = max(b for b in self.budgets if (min(b, totals[0]) + 1) * cut_space <= _WEIGHT_DP_LIMIT)
            entry[4] = tables = _WeightTables(size, core_cnt, core_col, [min(top, totals[0]), *clipped[1:]])
        return types, tables


@dataclass(frozen=True)
class SelectionProblem:
    """A 0/1 maximization over groups with non-negative integer rows.

    Each row is a (coefficients, right-hand side) pair.  Row 0 is the
    aggregate weight row; further rows are threshold cuts or floor cuts.
    ``beta`` is the overload bound, as a fraction of the largest capacity,
    that the rows prove for a selection placed greedily; the aggregate row
    alone proves 1.
    """

    group_rewards: tuple[int, ...]
    rows: tuple[tuple[tuple[int, ...], int], ...]
    beta: Fraction = Fraction(1)
    _shared: _Shared = field(default_factory=_Shared, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.rows:
            self._shared.budgets.add(self.rows[0][1])

    @property
    def k(self) -> int:
        return len(self.group_rewards)

    def at(self, total_capacity: int) -> SelectionProblem:
        """This problem with row 0's right-hand side set to ``total_capacity``.

        The cut rows do not depend on the aggregate budget, so the result
        shares with this problem, and with every other ``at`` of it, the
        work ``solve_exact`` does for any budget; results are those of a
        problem built at ``total_capacity``.
        """
        probe = SelectionProblem(
            self.group_rewards, ((self.rows[0][0], total_capacity), *self.rows[1:]), self.beta
        )
        object.__setattr__(probe, "_shared", self._shared)
        self._shared.budgets.add(total_capacity)
        return probe

    def feasible(self, chosen: Sequence[bool]) -> bool:
        return all(sum(compress(coeffs, chosen)) <= rhs for coeffs, rhs in self.rows)


def f_d(y: int, d: Fraction) -> int:
    """Largest integer strictly below ``y / d``.

    Counts how many pieces slightly heavier than ``d`` fit completely
    into ``y``.  Exact: for d = a/b this is floor((y*b - 1) / a).
    """
    if y < 1:
        raise ValueError("y must be a positive integer")
    d = Fraction(d)
    if d <= 0:
        raise ValueError("d must be positive")
    return (y * d.denominator - 1) // d.numerator


def hundred_mkp_d_set(c_max: int) -> list[Fraction]:
    """Thresholds c/2, c/3, ..., c/c used by the many-cuts configuration."""
    return [Fraction(c_max, q) for q in range(2, c_max + 1)]


def canonical_D(instance: Instance) -> set[Fraction]:
    """A finite threshold set whose cut rows imply every other cut row.

    Thresholds have the form a/b with ``a`` a divisor of some capacity
    (these are the points where the right-hand side changes).  For each
    ``a``, the row value of a selection at threshold a/b depends on
    ``b mod a`` only, up to a term monotone in ``b``; among row-0-feasible
    selections the constraint is tightest at the smallest valid ``b`` of
    each residue class.  Keeping those representatives therefore preserves
    the feasible set of the all-thresholds problem.
    """
    if not instance.item_weights:
        return set()
    w_max = instance.w_max
    divisors: set[int] = set()
    for c in set(instance.capacities):
        for a in range(1, c + 1):
            if c % a == 0:
                divisors.add(a)
    out: set[Fraction] = set()
    for a in divisors:
        b_min = a // w_max + 1  # smallest b with a/b < w_max
        for b in range(b_min, b_min + a):
            if gcd(a, b) == 1:
                out.add(Fraction(a, b))
    return out


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


def build_problem(
    instance: Instance,
    variant: str,
    total_capacity: Optional[int] = None,
    d_set: Optional[Iterable[Fraction]] = None,
) -> SelectionProblem:
    """Assemble the selection subproblem for one algorithm variant.

    Row 0 carries the aggregate group weights against ``total_capacity``
    (default: sum of capacities).  The variant decides the cut rows and the
    overload bound ``beta`` they prove at budgets up to the total capacity
    ("equal": equal capacities; "a base": every capacity and item weight is
    a power of one integer):

    - ``kp``: none; 0 if equal with a base, else 1.
    - ``2mkp``: the half-capacity cut; 0 if equal and every item is over
      c_max/2, else 1/2.
    - ``3mkp``: the half- and third-capacity cuts; 1/3 if equal, else 1/2.
    - ``mkpd``: one cut per threshold in ``d_set``, read once; 1 without
      c_max/2 in it, 1/3 if equal with c_max/3 in it too, else 1/2.
    - ``mkpprime``: one floor cut per distinct item weight above the
      smallest capacity; 0 with a base, else 1.
    """
    if total_capacity is None:
        total_capacity = instance.total_capacity
    cut_rows: list[tuple[tuple[int, ...], int]] = []

    c_max = instance.c_max
    equal_caps = len(set(instance.capacities)) == 1

    def has_common_base() -> bool:
        return powers_of_common_base(instance.capacities + instance.item_weights) is not None

    if variant == VARIANT_KP:
        ds: list[Fraction] = []
        beta = Fraction(0) if equal_caps and has_common_base() else Fraction(1)
    elif variant == VARIANT_2MKP:
        ds = [Fraction(c_max, 2)]
        heavy = equal_caps and all(2 * w > c_max for w in instance.item_weights)
        beta = Fraction(0) if heavy else Fraction(1, 2)
    elif variant == VARIANT_3MKP:
        ds = [Fraction(c_max, 2), Fraction(c_max, 3)]
        beta = Fraction(1, 3) if equal_caps else Fraction(1, 2)
    elif variant == VARIANT_MKPD:
        if d_set is None:
            raise ValueError("mkpd variant requires d_set")
        thresholds = {Fraction(d) for d in d_set}
        ds = sorted(thresholds, reverse=True)
        if any(d <= 0 for d in ds):
            raise ValueError("thresholds must be positive")
        if Fraction(c_max, 2) not in thresholds:
            beta = Fraction(1)  # still a relaxation of the aggregate row
        elif equal_caps and Fraction(c_max, 3) in thresholds:
            beta = Fraction(1, 3)
        else:
            beta = Fraction(1, 2)
    elif variant == VARIANT_MKP_PRIME:
        ds = []
        c_min = min(instance.capacities)
        for d in sorted({w for w in instance.item_weights if w > c_min}):
            coeffs = tuple(sum(w // d for w in g) for g in instance.group_items)
            rhs = sum(c // d for c in instance.capacities)
            cut_rows.append((coeffs, rhs))
        beta = Fraction(0) if has_common_base() else Fraction(1)
    else:
        raise ValueError(f"unknown variant {variant!r}")

    # f_d inlined: each threshold's numerator and denominator are read once.
    if ds and min(instance.item_weights + instance.capacities, default=1) < 1:
        raise ValueError("y must be a positive integer")
    for d in ds:
        num, den = d.numerator, d.denominator
        coeffs = tuple(sum((w * den - 1) // num for w in g) for g in instance.group_items)
        rhs = sum((c * den - 1) // num for c in instance.capacities)
        cut_rows.append((coeffs, rhs))

    # All-zero cuts go; equal coefficient vectors keep the tightest rhs, in
    # first-seen order.
    cuts: dict[tuple[int, ...], int] = {}
    for coeffs, rhs in cut_rows:
        if any(coeffs):
            cuts[coeffs] = min(rhs, cuts.get(coeffs, rhs))
    aggregate = (instance.group_weights(), int(total_capacity))
    return SelectionProblem(instance.rewards, (aggregate, *cuts.items()), beta)


class _WeightTables:
    """The weight DP's forward pass at one row-0 budget ``top``.

    Dynamic program over cut-row usage states, for rewards equal to row-0
    coefficients; each state holds a bitset of achievable row-0 totals (bit
    ``u`` set iff total ``u`` is reachable).  Polynomial in the state space
    times the row-0 right-hand side.  Keeps the table before types 0,
    ``stride``, ``2 * stride``, ... and the final table.

    A state is keyed by one int.  Cut row ``r >= 1`` owns a field of
    ``k_r + 1`` bits, ``k_r = rhs_r.bit_length()``, holding
    ``usage_r + bias_r`` with ``bias_r = 2**k_r - 1 - rhs_r``; row 1 is the
    most significant field.  Usage exceeds ``rhs_r`` exactly when the top bit
    of its field is set.  Only types with every ``c_r <= rhs_r`` are applied,
    so one copy added to a state within bounds keeps each field below
    ``2**(k_r + 1)``: no carry crosses a field, one add of the type's shifted
    coefficients is a copy, and one mask test finds every overflow.  Int
    order on keys is tuple order on usages, so ties break as on tuples.

    The tables answer every budget ``B <= top``: coefficients are
    non-negative, so a total at most ``B`` is reached only through partial
    totals at most ``B``, and the table at ``B`` is this one with every bit
    above ``B`` dropped and every emptied state removed.
    """

    def __init__(self, T: int, cnt: list[int], col: list[list[int]], rhs_list: list[int]):
        self.top = rhs_list[0]
        self.cnt, self.col = cnt, col
        # (shift, field mask, coefficients) per cut row, row 1 in the top bits.
        self.fields = []
        self.base_key = self.over = width = 0
        for coeffs, rhs in zip(reversed(col[1:]), reversed(rhs_list[1:])):
            k = rhs.bit_length()
            self.fields.append((width, (1 << (k + 1)) - 1, coeffs))
            self.base_key |= ((1 << k) - 1 - rhs) << width
            self.over |= 1 << (width + k)
            width += k + 1
        self.fits = [all(c[t] <= rhs for c, rhs in zip(col[1:], rhs_list[1:])) for t in range(T)]
        self.delta = [sum(c[t] << p for p, _, c in self.fields) for t in range(T)]

        self.stride = max(1, -(-T // 16))
        self.snapshots = []
        mask = (1 << (self.top + 1)) - 1
        table = {self.base_key: 1}
        for t in range(T):
            if t % self.stride == 0:
                self.snapshots.append(table)
            table = self.apply_type(table, t, mask)
        self.final = table

    def apply_type(self, table: dict, t: int, mask: int) -> dict:
        """``table`` after the copies of type ``t``, totals cut to the bits of ``mask``."""
        c0 = self.col[0][t]
        if not self.fits[t] or not mask >> c0:
            return table
        d, over = self.delta[t], self.over
        for _ in range(self.cnt[t]):
            new_table = dict(table)
            changed = False
            for s, bits in table.items():
                ns = s + d
                if ns & over:
                    continue
                prev = new_table.get(ns, 0)
                merged = prev | (bits << c0) & mask
                if merged != prev:
                    new_table[ns] = merged
                    changed = True
            if not changed:
                break
            table = new_table
        return table


def _greatest_weight_counts(tables: _WeightTables, budget: int) -> list[int]:
    """Exact counts maximizing the row-0 total within ``budget <= tables.top``.

    Takes ``u0``, the highest total at most ``budget`` in the final table,
    and the least key holding it, then backtracks; no bit above ``u0`` is
    read, so the answer is the one a forward pass at ``budget`` gives.

    The backtrack reruns one ``stride``-type segment at a time at ``budget``,
    from its kept table cut to ``budget``, on keys.  At type ``u`` it caps
    ``q`` at ``cnt[u]``, ``u0 // c0`` and each decoded ``usage_r // c_r``
    with ``c_r > 0``.  A larger ``q`` drives some total negative; up to the
    cap each field keeps ``usage_r - q * c_r >= 0``, so no field borrows and
    ``key - q * delta[u]`` is the predecessor's key.  A type that does not
    fit gets cap 0.
    """
    if not 0 <= budget <= tables.top:
        raise ValueError(f"budget {budget} outside the tables' range 0..{tables.top}")
    below = (1 << (budget + 1)) - 1
    final = tables.final
    u0 = max((bits & below).bit_length() for bits in final.values()) - 1
    key = min(s for s, bits in final.items() if (bits >> u0) & 1)

    cnt, col, delta, stride = tables.cnt, tables.col, tables.delta, tables.stride
    base_key, fields, apply_type = tables.base_key, tables.fields, tables.apply_type
    T = len(cnt)
    counts_out = [0] * T
    for base in reversed(range(0, T, stride)):
        seg = [tables.snapshots[base // stride]]
        if stride > 1 and budget < tables.top:
            seg[0] = {s: bits & below for s, bits in seg[0].items() if bits & below}
        for u in range(base, min(base + stride, T) - 1):
            seg.append(apply_type(seg[-1], u, below))
        for u, before in reversed(list(enumerate(seg, base))):
            c0, d, rel = col[0][u], delta[u], key - base_key
            q = min(cnt[u], u0 // c0) if c0 else cnt[u]
            for shift, fmask, coeffs in fields:
                if coeffs[u]:
                    q = min(q, ((rel >> shift) & fmask) // coeffs[u])
            for q in range(q, -1, -1):
                if (before.get(key - q * d, 0) >> (u0 - q * c0)) & 1:
                    break
            else:
                raise AssertionError("weight-fill backtrack lost the target state")
            counts_out[u] = q
            key -= q * d
            u0 -= q * c0
    return counts_out


# Largest cut-state-space x row-0-range product handled by the dynamic program.
_WEIGHT_DP_LIMIT = 64_000_000


def solve_exact(problem: SelectionProblem, node_budget: Optional[int] = None) -> Selection:
    """Reward-maximizing selection satisfying every row, by branch and bound.

    Groups with identical reward and row coefficients are interchangeable;
    they collapse into one column type with a count, and the search
    branches on how many copies of each type to take (most-first), in
    non-increasing reward / row-0-coefficient order.  A node is pruned when
    the fractional relaxation of some row alone, computed in exact integers,
    cannot beat the incumbent.  No float is computed.  The result is the
    first optimal node in pre-order, which depends on the branch order only,
    never on the bound.  When rewards equal the row-0 coefficients, the
    weight DP (``_greatest_weight_counts``) runs first on a core of the
    types (``_Shared.core``): every type when the full state space is within
    ``_WEIGHT_DP_LIMIT``, else 16 types, doubling while the clipped space is
    within the limit and the root bound can beat the core's best.  A best
    over every type, or one the root bound cannot beat, is optimal and
    returned; otherwise it is the search's starting incumbent.  An incumbent
    below the optimum changes no node the search returns, so the core
    changes a result only where it reaches the optimum.  Deterministic;
    raises ``BudgetExceededError`` when ``node_budget`` nodes are expanded
    without a proof of optimality (never returns a silently suboptimal
    answer).  The types, the bound's ratio orders and each core's DP tables
    are kept for every ``at`` of the problem.
    """
    k = problem.k
    num_rows = len(problem.rows)
    rhs_list = [rhs for _, rhs in problem.rows]
    shared = problem._shared
    keys, members, p_t, cnt, col = shared.column_types(problem)
    T = len(keys)

    # Rewards equal to row-0 coefficients and a small state space: a core of
    # every type, which needs no bound.
    weight_objective = p_t == col[0] and min(rhs_list) >= 0
    full = weight_objective and prod(r + 1 for r in rhs_list) <= _WEIGHT_DP_LIMIT
    if not full:
        bound_rows = list(zip(col, rhs_list, shared.bound_orders(p_t, col)))

    def can_improve(pos: int, used: list[int], value: int, best: int) -> bool:
        """True iff every row's fractional bound strictly exceeds ``best``.

        Called with ``value <= best``.  Integer arithmetic only; each row
        scan stops as soon as its running total passes ``best`` (no prune
        possible from that row) or hits the fractional break type (exact
        cross-multiplied comparison).  A scan that runs out of types ends
        at or below ``best``, which prunes.
        """
        for r, (coeffs, rhs, ratio_order) in enumerate(bound_rows):
            remaining = rhs - used[r]
            acc = value
            for t in ratio_order:
                if t < pos:
                    continue
                c = coeffs[t]
                q = cnt[t]
                if c == 0:
                    acc += p_t[t] * q
                elif c * q <= remaining:
                    acc += p_t[t] * q
                    remaining -= c * q
                else:
                    fit = remaining // c
                    acc += p_t[t] * fit
                    remaining -= fit * c
                    # bound = acc + p * remaining / c, compared exactly
                    if acc * c + p_t[t] * remaining <= best * c:
                        return False
                    break
                if acc > best:
                    break
            else:
                return False
        return True

    best_value = -1
    best_counts: list[int] = [0] * T

    # Weight objective: the weight DP over a core of the types, doubling while
    # its space fits and the root bound can beat its best, which starts the search.
    size = T if full else 16
    while weight_objective and (core := shared.core(size, rhs_list)) is not None:
        types, tables = core
        core_counts = _greatest_weight_counts(tables, min(rhs_list[0], tables.top))
        value = sum(q * p_t[t] for q, t in zip(core_counts, types))
        if value > best_value:
            best_value, best_counts = value, [0] * T
            for q, t in zip(core_counts, types):
                best_counts[t] = q
        # Every type in the core makes the DP exact; a root bound at most
        # its best proves the best optimal.
        if size >= T or not can_improve(0, [0] * num_rows, 0, best_value):
            return _taking(k, keys, members, best_counts)
        size *= 2

    # Depth-first search in pre-order: an entry is a node with ``q`` copies
    # of type ``pos - 1``, and siblings are pushed fewest-copies-first so
    # the most copies pop first.  ``counts[:pos]`` is the path to the node,
    # and ``counts[pos:]`` is zero: each finished sibling group ends with
    # its zero-copies node.
    counts = [0] * T
    nodes = 0
    stack = [(0, 0, [0] * num_rows, 0)]
    while stack:
        pos, q, used, value = stack.pop()
        if pos:
            counts[pos - 1] = q
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            raise BudgetExceededError(f"node budget {node_budget} exceeded")
        if value > best_value:
            best_value = value
            best_counts = counts.copy()
        if pos == T or not can_improve(pos, used, value, best_value):
            continue
        q_max = cnt[pos]
        for r in range(num_rows):
            c = col[r][pos]
            if c:
                q_max = min(q_max, (rhs_list[r] - used[r]) // c)
        for q in range(q_max + 1):
            stack.append((
                pos + 1,
                q,
                [used[r] + q * col[r][pos] for r in range(num_rows)],
                value + q * p_t[pos],
            ))

    return _taking(k, keys, members, best_counts)


def _taking(k: int, keys: list, members: dict, counts: list[int]) -> Selection:
    """The selection of the first ``counts[t]`` groups of each type ``keys[t]``."""
    out = [False] * k
    for key, q in zip(keys, counts):
        for l in members[key][:q]:
            out[l] = True
    return Selection(tuple(out))
