"""Exact offline optimum.

One dynamic program over (step, state), vectorized over states: the best
cost of having processed steps 0..t while sitting in state s is the step's
task entry plus the cheaper of staying (best for s at t-1) or jumping in
from the best state at t-1 at one move of ``granularity`` units::

    prev = minimum(prev, prev.min() + granularity) + tasks[t]

``opt_units`` takes a block of steps per array pass (g = granularity).
Entries are nonnegative, so row minima never fall and any jump after the
row V costs at least lo + g, lo = V.min(). With D[i] the task sums over
the next i + 1 steps, the no-jump optimum M[i] = min(V + D[i]) is thus
exact while below lo + g. Up to the first i where it reaches lo + g, or
the window's last step, the row is D[i] + minimum(V, lo + g, min over
j < i of M[j] + g - D[j]), and the next block starts from it. A block
that closes lifts the optimum by g or more, so at most OPT / g + 1 do.
The next window is twice the block's length, at least 2n: it doubles
over blocks that do not close, O(log steps) of them per closed block.

``phase_opt_units`` steps the recurrence over many phases at once, one
row of a block per phase. ``opt_schedule`` keeps the forward table and
backtracks one witness schedule, preferring to stay and breaking ties
toward the lowest state index, so witnesses are deterministic.
"""

from __future__ import annotations

import numpy as np

from .core import UNIT_LIMIT, unit_total
from .errors import ConfigurationError

__all__ = ["opt_units", "phase_opt_units", "opt_schedule"]


def _step(prev, rows, granularity: int, out) -> None:
    """One step of the recurrence, for one DP row or for every row of a block."""
    np.minimum(prev, prev.min(axis=-1, keepdims=prev.ndim > 1) + granularity, out=out)
    out += rows


def _opening(tasks, granularity: int):
    """(int64 task table, DP row before step 0 in state 0); None when there are no tasks.

    Task units plus one move per step must stay below ``UNIT_LIMIT``, the
    DP's infinity, as in every loaded file; past it the DP could wrap.
    """
    arr = np.asarray(tasks, dtype=np.int64)
    if arr.size == 0:
        return None
    if arr.ndim != 2 or arr.min() < 0:
        raise ConfigurationError("tasks must be a 2d array of unit entries")
    room = UNIT_LIMIT - len(arr) * granularity
    # The exact total is summed only when the largest entry cannot settle it.
    if int(arr.max()) * arr.size >= room and unit_total(arr) >= room:
        raise ConfigurationError("task units plus granularity per step must stay below 2**60")
    row = np.full(arr.shape[1], UNIT_LIMIT, dtype=np.int64)
    row[0] = 0
    return arr, row


def opt_units(tasks, granularity: int) -> int:
    """Cheapest cost in units over rows of nonnegative entries, opening in state 0.

    Empty input costs 0; ``phase_opt_units`` gives free-start optima.
    """
    opening = _opening(tasks, granularity)
    if opening is None:
        return 0
    arr, row = opening
    steps, n = arr.shape
    start, window = 0, 2 * n
    while start < steps:
        # The block ends where the no-jump optimum reaches lo + g, or at the window's end.
        jump_in = row.min() + granularity
        demand = np.cumsum(arr[start:start + window], axis=0)
        stay = (row + demand).min(axis=1)
        last = min(int(np.searchsorted(stay, jump_in)), len(stay) - 1)
        jump_in = (stay[:last, None] + granularity - demand[:last]).min(0, initial=jump_in)
        row = np.minimum(row, jump_in) + demand[last]
        window = max(2 * (last + 1), 2 * n)
        start += last + 1
    return int(row.min())


def phase_opt_units(arr, granularity: int, phases) -> list:
    """Free-start optimum of ``arr[p.start : p.end + 1]`` for every phase p.

    ``arr`` is the (steps, n) int64 task table and each phase needs only
    ``start`` and ``end``; the whole table must pass ``opt_units``' unit
    check. All phases advance in lockstep, one row of a
    (phases, n) block each, longest first: step k advances only the prefix
    of phases longer than k, so the work is one DP step per covered step
    and the loop runs as often as the longest phase is long.
    """
    if not phases:
        return []
    if _opening(arr, granularity) is None:  # no steps: every span is empty
        return [0] * len(phases)
    starts = np.array([p.start for p in phases], dtype=np.int64)
    lengths = np.array([p.end + 1 - p.start for p in phases], dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    starts = starts[order]
    # active[k]: how many phases are longer than k.
    steps = np.arange(lengths.max())
    active = len(phases) - np.searchsorted(np.sort(lengths), steps, side="right")
    block = np.zeros((len(phases), arr.shape[1]), dtype=np.int64)
    for k, count in enumerate(active.tolist()):
        live = block[:count]
        _step(live, arr[starts[:count] + k], granularity, live)
    best = np.empty(len(phases), dtype=np.int64)
    best[order] = block.min(axis=1)
    return best.tolist()


def opt_schedule(tasks, granularity: int):
    """(cost_units, schedule) for one optimal schedule, opening in state 0."""
    opening = _opening(tasks, granularity)
    if opening is None:
        return 0, []
    arr, prev = opening
    steps = len(arr)
    best = np.empty(arr.shape, dtype=np.int64)
    for t in range(steps):
        _step(prev, arr[t], granularity, best[t])
        prev = best[t]
    state = int(np.argmin(best[-1]))
    cost = int(best[-1, state])
    schedule = [0] * steps
    schedule[-1] = state
    for t in range(steps - 1, 0, -1):
        here = best[t, state] - arr[t, state]
        if best[t - 1, state] != here:
            # Jumped in: the lowest other state one move away.
            came = best[t - 1] + granularity == here
            came[state] = False
            state = int(np.argmax(came))
        schedule[t - 1] = state
    return cost, schedule
