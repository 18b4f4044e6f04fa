"""Slow, independent reference computations.

Nothing here is used on a hot path. Each function recomputes a quantity by
direct enumeration, or by the plain loop a fast implementation replaced, so
the fast implementations can be checked against it. The per-trial family
walk (``simulate_family_scalar``) runs the registered schedulers through
``schedulers.Walk`` over its own phase geometry and adversary stream, so
it shares no geometry or random-number code with the lockstep kernel.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product

import numpy as np

from .core import Phase, TaskSequence, schedule_cost
from .rng import RandomStream, trial_seed
from .schedulers import Walk

__all__ = [
    "decompose_phases_restart",
    "fit_budget_scalar",
    "latest_next_request_scalar",
    "max_footrule_bruteforce",
    "next_demand_scalar",
    "opt_bruteforce",
    "opt_units_scalar",
    "simulate_family_scalar",
    "expected_walk_visits_bruteforce",
]


def decompose_phases_restart(seq: TaskSequence):
    """Every phase, the trailing partial one last, re-summing from each phase start.

    Each state saturates on the first step at which its running sum from the
    phase start reaches the threshold, and gets the input length when it
    never does. The first crossing is read without assuming the sums are
    sorted, so it stays exact while a phase's own running sums fit in int64.
    Costs O(phases * steps * n); ``core.decompose_phases`` computes the same
    split from runs of sums, each opened at a phase start, over windows that
    double until the phase closes.
    """
    total, n = seq.tasks.shape
    threshold = seq.granularity
    phases: list[Phase] = []
    start = 0
    while start < total:
        reached = np.cumsum(seq.tasks[start:], axis=0) >= threshold
        sat = tuple(
            start + int(reached[:, s].argmax()) if reached[:, s].any() else total
            for s in range(n)
        )
        end = max(sat)
        phases.append(Phase(index=len(phases), start=start, end=min(end, total - 1),
                            sat_step=sat, complete=end < total, h=(seq.pst or {}).get(start)))
        start = end + 1
    return phases


def fit_budget_scalar(deltas, eta0: int) -> list:
    """Offsets shrunk one unit at a time until their total magnitude fits eta0.

    Each pass takes one unit off the largest magnitude, the lowest index
    among equals; ``adversaries._fit_budget`` computes the result in
    closed form.
    """
    deltas = list(deltas)
    while sum(abs(d) for d in deltas) > eta0:
        worst = max(range(len(deltas)), key=lambda i: (abs(deltas[i]), -i))
        deltas[worst] -= 1 if deltas[worst] > 0 else -1
    return deltas


def next_demand_scalar(tasks) -> list:
    """``core.next_demand`` by one reverse scan over the rows.

    Walking back from the last step, every state remembers the latest step
    it was demanded at; a row reads those memories before its own demands
    update them.
    """
    upcoming = [-1] * (len(tasks[0]) if len(tasks) else 0)
    table = [None] * len(tasks)
    for t in range(len(tasks) - 1, -1, -1):
        table[t] = list(upcoming)
        for s, units in enumerate(tasks[t]):
            if units > 0:
                upcoming[s] = t
    return table


def latest_next_request_scalar(lv, t: int) -> list:
    """Per state, the last nonzero entry of ``lv`` rows 0..t, or 0 if none.

    Replays a list-of-lists table row by row; the engine forward-fills it.
    """
    latest = [0] * len(lv[0])
    for row in lv[: t + 1]:
        for s, value in enumerate(row):
            if value != 0:
                latest[s] = value
    return latest


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


def opt_bruteforce(tasks, granularity: int, free_start: bool = False) -> int:
    """Cheapest cost in units of the n^T schedules, opening as ``opt.opt_units`` does."""
    if not tasks:
        return 0
    n = len(tasks[0])
    best = None
    for schedule in product(range(n), repeat=len(tasks)):
        first = schedule[0] if free_start else 0
        total, _, _ = schedule_cost(tasks, granularity, schedule, start_state=first)
        if best is None or total < best:
            best = total
    return best


def opt_units_scalar(tasks, granularity: int, free_start: bool = False) -> int:
    """The optimum DP of ``opt.opt_units``, one state at a time.

    Costs O(steps * n) interpreted steps; ``opt.opt_units`` computes the
    same recurrence vectorized over states.
    """
    if len(tasks) == 0:
        return 0
    n = len(tasks[0])
    big = 1 << 60
    prev = [0 if free_start else big] * n
    prev[0] = 0
    for row in tasks:
        mn = min(prev)
        cur = []
        for s in range(n):
            stay = prev[s]
            jump = mn + granularity
            cur.append((stay if stay < jump else jump) + int(row[s]))
        prev = cur
    return min(prev)


def simulate_family_scalar(policy, family: str, n: int, m,
                           phases: int, trials: int,
                           granularity: int | None = None, seed: int = 0):
    """``kernels.simulate_family_trials``, one trial and one state at a time.

    Same arguments and return value; arguments are not validated. A
    sequence of policies runs one policy at a time, a sequence of tail
    sizes one tail size at a time, and the results are stacked. Each trial
    runs the registered scheduler ``policy`` through one
    ``schedulers.Walk``, seeded as the engine seeds it, with each state's
    predicted slot as its prediction. The phase geometry and the adversary
    stream ``RandomStream(trial_seed(seed + 1, trial))`` are this
    function's own, so it shares no geometry or adversary code with the
    kernel.
    """
    if not isinstance(policy, str):
        runs = [simulate_family_scalar(name, family, n, m, phases, trials,
                                       granularity, seed) for name in policy]
        return np.stack([c for c, _ in runs]), np.stack([k for _, k in runs])
    if np.ndim(m):
        runs = [simulate_family_scalar(policy, family, n, size, phases, trials,
                                       granularity, seed) for size in m]
        return np.stack([c for c, _ in runs]), np.stack([k for _, k in runs])
    gran = n if granularity is None else granularity
    counts = []
    costs = []
    for trial in range(trials):
        walk = Walk(policy, n, seed=seed, trial_index=trial)
        adv = RandomStream(trial_seed(seed + 1, trial))
        trial_counts = []
        total = 0
        for _ in range(phases):
            # Relabel cyclically so the top predicted slot is never the
            # state the policy parked in at the end of the previous phase.
            delta = (walk.state + 2) % n
            pred_state = [(j + delta) % n for j in range(n)]
            tail = pred_state[n - m:]
            if family == "reversal":
                tail.reverse()
            else:
                for i in range(m - 1, 0, -1):
                    j = adv.randbelow(i + 1)
                    tail[i], tail[j] = tail[j], tail[i]
            true_state = pred_state[:n - m] + tail
            pred_rank = [0] * n
            true_rank = [0] * n
            for j in range(n):
                pred_rank[pred_state[j]] = j
                true_rank[true_state[j]] = j

            # Spike realization: a state saturating at slot j collects one
            # unit in each earlier slot and gran - j at slot j, so a policy
            # occupying it from slot e + 1 through its saturation processes
            # exactly gran - e - 1 units (gran when present from the start).
            # The walk's steps are slots within the phase.
            moved = len(walk.moves)
            cnt = walk.open(0, pred_rank)
            units = gran * (len(walk.moves) - moved)
            entry = -1
            while True:
                r = true_rank[walk.state]
                units += gran - entry - 1
                if r == n - 1:
                    break
                walk.forced(r, [s for s in range(n) if true_rank[s] > r], pred_rank, [0] * n)
                units += gran
                entry = r
                cnt += 1
            trial_counts.append(cnt)
            total += units
        counts.append(trial_counts)
        costs.append(total)
    return (np.array(counts, dtype=np.int64).reshape(trials, phases),
            np.array(costs, dtype=np.int64))


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
