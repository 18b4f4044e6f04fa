"""Slow, independent reference computations for the tests.

Nothing here is installed with ``mtslab`` or used on a hot path. Each
function recomputes a quantity by direct enumeration, or by the plain loop
a fast implementation replaced, so the fast implementations can be checked
against it. The per-trial family walk (``simulate_family_scalar``) runs the
registered schedulers through ``schedulers.Walk`` over its own phase
geometry and adversary stream, so it shares no geometry or random-number
code with the lockstep kernel. The brute-force optimum and footrule maximum
that ``mtslab verify`` runs live in ``mtslab.verify``.

The module also holds test-input helpers that the package no longer
ships: ``noisy_pst``, which perturbs prediction blocks within a budget,
and its ``_fit_budget``, whose oracle is ``fit_budget_scalar``.
"""

from __future__ import annotations

import math
from dataclasses import fields, replace
from fractions import Fraction
from itertools import permutations

import numpy as np

from mtslab.analysis import SweepRecord, round_ratio_half_up, transition_stats
from mtslab.core import Phase, TaskSequence, decompose_phases
from mtslab.engine import run_scheduler
from mtslab.errors import ConfigurationError
from mtslab.rng import RandomStream, trial_seed
from mtslab.schedulers import Walk


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


def harmonic_number_loop(n: int) -> Fraction:
    """Sum of 1/i for i in 1..n, one Fraction added per term; the loop that
    ``analysis.harmonic_number`` replaced."""
    total = Fraction(0)
    for i in range(1, n + 1):
        total += Fraction(1, i)
    return total


def fit_budget_scalar(deltas, eta0: int) -> list:
    """Offsets shrunk one unit at a time until their total magnitude fits eta0.

    Each pass takes one unit off the largest magnitude, the lowest index
    among equals; ``_fit_budget`` computes the result in closed form.
    """
    deltas = list(deltas)
    while sum(abs(d) for d in deltas) > eta0:
        worst = max(range(len(deltas)), key=lambda i: (abs(deltas[i]), -i))
        deltas[worst] -= 1 if deltas[worst] > 0 else -1
    return deltas


def _fit_budget(deltas: list, eta0: int) -> list:
    """``deltas`` shrunk toward zero until their total magnitude is at most eta0.

    The same offsets as taking one unit off the largest magnitude (lowest
    index first) until the total fits, in closed form: find the largest
    level L with sum(min(|d|, L)) <= eta0, lower every magnitude above L to
    L + 1, and take one more unit off the lowest-indexed of them until the
    total is eta0. ``fit_budget_scalar`` is that per-unit loop.
    """
    mags = [abs(d) for d in deltas]
    if sum(mags) <= eta0:
        return deltas
    lo, hi = 0, max(mags)  # the level sum fits at lo and overflows at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if sum(min(m, mid) for m in mags) <= eta0:
            lo = mid
        else:
            hi = mid
    out = list(deltas)
    above = [i for i, m in enumerate(mags) if m > lo]
    extra = sum(min(m, lo + 1) for m in mags) - eta0
    for k, i in enumerate(above):
        level = lo if k < extra else lo + 1
        out[i] = level if out[i] > 0 else -level
    return out


def noisy_pst(seq: TaskSequence, eta0: int, seed: int = 0) -> TaskSequence:
    """``seq`` with its prediction blocks perturbed within budget; tables shared.

    Per phase, signed integer offsets are drawn in [-eta0, eta0], shrunk
    (largest magnitude first) until their total magnitude fits the budget,
    and then shrunk further whenever two states that saturate on different
    steps are predicted on the same step (the larger offset of the two,
    never zero, shrinks), so the realized per-phase error is at most eta0
    and states that saturate apart are predicted apart; states that
    saturate on the same step may share a predicted step. Shrinking only
    ever moves predictions toward the truth.
    """
    if eta0 < 0:
        raise ConfigurationError("eta0 must be >= 0")
    if 2 * eta0 + 1 > 1 << 32:
        raise ConfigurationError("eta0 must be < 2**31: one draw spans 2 * eta0 + 1 offsets")
    stream = RandomStream(trial_seed(seed, 0))
    blocks = {}
    for phase in (p for p in decompose_phases(seq) if p.complete):
        true = list(phase.sat_step)
        n = len(true)
        drawn = [stream.randbelow(2 * eta0 + 1) - eta0 for _ in range(n)]
        deltas = _fit_budget(drawn, eta0)
        while True:
            seen: dict = {}
            clash = None
            for i in range(n):
                first = seen.setdefault(true[i] + deltas[i], i)
                if true[first] != true[i]:
                    clash = max((first, i), key=lambda i: (abs(deltas[i]), -i))
                    break
            if clash is None:
                break
            deltas[clash] -= 1 if deltas[clash] > 0 else -1
        blocks[phase.start] = tuple(true[i] + deltas[i] for i in range(n))
    return replace(seq, pst=blocks)


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


def simulate_rows_scalar(seq: TaskSequence, algorithm: str, seed: int, trials: int) -> list:
    """``mtslab simulate``'s rows, one tuple per (trial, complete phase).

    Each row is (trial, phase index, transitions, cost units, per-phase
    optimum), the optimum from ``opt_units_scalar`` over the phase's own
    steps with a free start.
    """
    decomposition = decompose_phases(seq)
    opts = [opt_units_scalar(seq.tasks[p.start:p.end + 1].tolist(), seq.granularity,
                             free_start=True) for p in decomposition if p.complete]
    rows = []
    for trial in range(trials):
        res = run_scheduler(seq, algorithm, seed=seed, trial_index=trial, phases=decomposition)
        # The trailing phase, if any, comes last and has no optimum: zip drops it.
        for p, popt in zip(res.phases, opts):
            rows.append((trial, p.phase.index, p.transitions, p.cost_units, popt))
    return rows


def simulate_csv_scalar(names, rows) -> str:
    """The CSV text of ``rows`` under a header of ``names``, one ``str``
    join per row."""
    lines = [",".join(names)]
    lines.extend(",".join(str(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def sweep_row_scalar(*, n: int, eta0: int, m: int, algorithm: str, seed: int,
                     phases: int, counts, total_cost_units: int,
                     opt_cost_units: int) -> str:
    """One sweep cell's CSV row, from that cell's own counts and cost total.

    ``counts`` holds the cell's (trial, phase) transition counts. The record
    is built and formatted field by field for this one eta0;
    ``SweepRecord.from_counts`` builds every record of a kernel call from
    one reduction, and the sweep formats each record's row once.
    """
    mean, peak = transition_stats(counts)
    record = SweepRecord(
        n=n, eta0=eta0, m=m, algorithm=algorithm, seed=seed, phases=phases,
        mean_transitions_per_phase=mean,
        max_transitions_per_phase=peak,
        total_cost_units=total_cost_units,
        opt_cost_units=opt_cost_units,
        ratio=round_ratio_half_up(total_cost_units, opt_cost_units),
    )
    return ",".join([str(getattr(record, f.name)) for f in fields(SweepRecord)])


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


def mean_and_se(samples) -> tuple[float, float]:
    """Sample mean and standard error (ddof=1; SE is 0 for a single value)."""
    vals = [float(v) for v in samples]
    k = len(vals)
    if k == 0:
        raise ValueError("samples must be non-empty")
    mean = sum(vals) / k
    if k == 1:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in vals) / (k - 1)
    return mean, math.sqrt(var / k)
