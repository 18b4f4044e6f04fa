"""Slow, independent reference computations.

Nothing here is used on a hot path. Each function recomputes a quantity by
direct enumeration so the fast implementations can be checked against it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product

import numpy as np

from .core import Phase, TaskSequence, schedule_cost

__all__ = [
    "decompose_phases_restart",
    "max_footrule_bruteforce",
    "opt_bruteforce",
    "opt_units_scalar",
    "expected_walk_visits_bruteforce",
]


def decompose_phases_restart(seq: TaskSequence):
    """Complete phases and suffix start, re-summing from every phase start.

    Costs O(phases * steps * n); ``core.decompose_phases`` computes the same
    split from one cumulative sum.
    """
    arr = seq.task_array()
    total, n = arr.shape
    threshold = seq.granularity
    phases: list[Phase] = []
    start = 0
    while start < total:
        cum = np.cumsum(arr[start:], axis=0)
        if int(cum[-1].min()) < threshold:
            break
        sat = tuple(
            start + int(np.searchsorted(cum[:, s], threshold, side="left"))
            for s in range(n)
        )
        end = max(sat)
        order = tuple(sorted(range(n), key=lambda s: (sat[s], s)))
        phases.append(
            Phase(index=len(phases), start=start, end=end, sat_step=sat, order=order)
        )
        start = end + 1
    return phases, start


def max_footrule_bruteforce(m: int) -> int:
    """Max over all orderings of m items of the footrule distance to identity.

    The footrule between two orderings is invariant under relabeling, so
    maximizing against the identity covers every pair.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    best = 0
    for perm in permutations(range(m)):
        d = sum(abs(i - perm[i]) for i in range(m))
        if d > best:
            best = d
    return best


def opt_bruteforce(tasks, granularity: int, start_state: int = 0, free_start: bool = False) -> int:
    """Cheapest schedule cost in units, by enumerating all n^T schedules."""
    if not tasks:
        return 0
    n = len(tasks[0])
    best = None
    for schedule in product(range(n), repeat=len(tasks)):
        first = schedule[0] if free_start else start_state
        total, _, _ = schedule_cost(tasks, granularity, schedule, start_state=first)
        if best is None or total < best:
            best = total
    return best


def opt_units_scalar(tasks, granularity: int, start_state: int = 0,
                     free_start: bool = False) -> int:
    """The optimum DP of ``opt.opt_units``, one state at a time.

    Costs O(steps * n) interpreted steps; ``opt.opt_units`` computes the
    same recurrence vectorized over states.
    """
    if len(tasks) == 0:
        return 0
    n = len(tasks[0])
    big = 1 << 60
    prev = [0] * n if free_start else [big] * n
    if not free_start:
        prev[start_state] = 0
    for row in tasks:
        mn = min(prev)
        cur = []
        for s in range(n):
            stay = prev[s]
            jump = mn + granularity
            cur.append((stay if stay < jump else jump) + int(row[s]))
        prev = cur
    return min(prev)


def expected_walk_visits_bruteforce(m: int) -> Fraction:
    """Mean states visited by a priority walk over a random saturation order.

    Items 0..m-1 have priorities equal to their index. The walk starts at
    the highest-priority item; whenever its current item saturates it jumps
    to the highest-priority item that saturates later, until it sits on the
    item that saturates last. Averaged exactly over all m! saturation
    orders. The uniform-restart walk has the same visit law, which is why a
    single enumeration backs both checks.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    total = 0
    count = 0
    for order in permutations(range(m)):
        position = [0] * m
        for pos, item in enumerate(order):
            position[item] = pos
        current = m - 1
        visits = 1
        while True:
            pos = position[current]
            nxt = -1
            for item in range(m - 1, -1, -1):
                if position[item] > pos:
                    nxt = item
                    break
            if nxt < 0:
                break
            current = nxt
            visits += 1
        total += visits
        count += 1
    return Fraction(total, count)
