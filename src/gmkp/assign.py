"""Item placement: greedy heavier-first assignment and jump/swap local search."""

from __future__ import annotations

import heapq
from itertools import accumulate

from .model import Assignment, Instance, Selection


def heaviest_first(instance: Instance, selection: Selection) -> list[int]:
    """The chosen groups' items, heaviest first; equally heavy items keep ascending index."""
    starts = list(accumulate(map(len, instance.group_items), initial=0))
    items = [j for l in selection.indices() for j in range(starts[l], starts[l + 1])]
    # the sort is stable, with reverse=True too, so equal weights keep ascending index
    return sorted(items, key=instance.item_weights.__getitem__, reverse=True)


def greedy_assign(instance: Instance, selection: Selection) -> Assignment:
    """Place chosen items, heaviest first, on the least-loaded knapsack.

    "Least loaded" means smallest ``load - capacity``; ties go to the
    lowest knapsack index, and equally heavy items keep ascending index.
    """
    placement: list = [None] * instance.n
    loads = [0] * instance.m
    heap = [(-c, i) for i, c in enumerate(instance.capacities)]
    heapq.heapify(heap)
    for j in heaviest_first(instance, selection):
        overload, i = heapq.heappop(heap)
        placement[j] = i
        loads[i] += instance.item_weights[j]
        heapq.heappush(heap, (loads[i] - instance.capacities[i], i))
    return Assignment(tuple(placement), tuple(loads))


def swap_optimal(instance: Instance, assignment: Assignment) -> Assignment:
    """Local search to a jump/swap fixed point.

    A move relocates one item (a jump) or exchanges two items on different
    knapsacks (a swap).  It is accepted iff it strictly lowers the
    load-balance potential phi = sum((load_i - c_i + c_max)^2) and does not
    raise the maximum overload.  Each pass applies the first improving jump
    by (item, target knapsack), or, if there is none, the first improving
    swap by item pair, both in ascending index order, and then starts over.

    With ``over[i] = load_i - c_i``, shifting weight ``x`` from a knapsack
    with overload ``o_from`` to one with ``o_to`` changes phi by
    ``-2x(g - x)``, ``g = o_from - o_to``: the move improves iff ``x`` lies
    strictly between 0 and ``g``.  A jump of item j shifts ``x = w_j`` from
    its knapsack; a swap of j1 (on i1) with j2 (on i2) shifts
    ``x = w_j2 - w_j1`` from i2 to i1.  So item j has an improving jump iff
    ``0 < w_j < over[src] - min(over)``, and its target is the lowest such
    knapsack.  Two items on one knapsack have ``g = 0`` and never pass; a
    swap partner needs ``|g| >= 2``, so an item on a knapsack within 1 of
    both ``min(over)`` and ``max(over)`` has none.

    The max-overload condition is implied: the knapsack that gains ends
    strictly below the other one's old overload (``o_to + x < o_from`` for
    ``x > 0``), which is at most ``max(over)``, and the other one loses.

    Weights of valid instances are positive (``validate``).  A zero-weight
    item is never moved: its jumps leave phi unchanged, and a swap with it
    shifts its partner's weight, which the partner's own jump, tried first,
    would do.  A negative weight (``over[src] - max(over) < w_j < 0``) moves
    by the same test.

    Each accepted move lowers the non-negative integer phi by at least 2,
    so at most ``phi0 // 2`` moves happen from a start at ``phi0``; one more
    raises ``AssertionError``, a logic error made loud instead of a hang.
    """
    placed = [j for j, i in enumerate(assignment.placement) if i is not None]
    if not placed:
        return assignment
    placement = list(assignment.placement)
    weights = instance.item_weights
    caps = instance.capacities
    over = [load - c for load, c in zip(assignment.loads, caps)]
    c_max = instance.c_max
    max_moves = sum((o + c_max) ** 2 for o in over) // 2
    moves = 0
    while True:
        lo, hi = min(over), max(over)
        move = _first_jump(placed, placement, weights, over, lo, hi)
        if move is None:
            move = _first_swap(placed, placement, weights, over, lo, hi)
            if move is None:
                break
        moves += 1
        if moves > max_moves:
            raise AssertionError("swap-optimal move bound exceeded")
        for j, dst in move:
            w = weights[j]
            over[placement[j]] -= w
            over[dst] += w
            placement[j] = dst
    return Assignment(tuple(placement), tuple(o + c for o, c in zip(over, caps)))


def _first_jump(placed, placement, weights, over, lo, hi):
    """The first improving jump as ``((j, dst),)``, or None."""
    for j in placed:
        w = weights[j]
        o = over[placement[j]]
        if 0 < w < o - lo or o - hi < w < 0:
            dst = next(i for i, v in enumerate(over) if w * (o - v - w) > 0)
            return ((j, dst),)
    return None


def _first_swap(placed, placement, weights, over, lo, hi):
    """The first improving swap as ``((j1, i2), (j2, i1))``, or None."""
    ws = [weights[j] for j in placed]
    overs = [over[placement[j]] for j in placed]
    n = len(placed)
    for a in range(n):
        w1, o1 = ws[a], overs[a]
        if o1 - lo < 2 and hi - o1 < 2:
            continue
        for b in range(a + 1, n):
            x = ws[b] - w1
            if x * (overs[b] - o1 - x) > 0:
                j1, j2 = placed[a], placed[b]
                return ((j1, placement[j2]), (j2, placement[j1]))
    return None
