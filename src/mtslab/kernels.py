"""Batched family simulation: every trial of a call walked in lockstep.

The batched simulator runs a scheduling policy over synthetic inputs that
are described at the event level: per phase only the predicted and the
realized saturation orders matter for transition counts, so phases are
walked saturation by saturation instead of step by step. Every trial
therefore runs the same walk on different random draws, and the kernel
advances all trials of a call together, phase by phase, as numpy
operations over (trials, n) blocks:

* each trial owns one xorshift stream per side (see rng.py); the four
  words of every stream are stored word-major, shape (4, trials), so a
  draw on every stream is a few whole-array operations, and a rejected
  draw is redrawn on its own stream only (``_randbelow``);
* the rand-lb tail shuffle draws bound i + 1 on every trial at once;
* a phase walk keeps a shrinking index of the trials still walking and
  takes at most n steps.

Every stream is consumed in the order of the per-trial walk, so results
are identical to ``oracles.simulate_family_scalar``, the scalar reference
that shares no random-number code with this module. There is one backend,
interpreted numpy; ``backend_name()`` reports it.

The offline optimum is ``opt.opt_units``, re-exported as ``dp_opt_units``
for existing callers.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .opt import opt_units as dp_opt_units  # re-exported; the optimum is plain numpy
from .rng import MASK32, state_rows, trial_seed

__all__ = [
    "backend_name",
    "POLICY_CODES",
    "FAMILY_CODES",
    "simulate_family_trials",
    "dp_opt_units",
]


def backend_name() -> str:
    """The only backend: numpy, interpreted."""
    return "python"


POLICY_CODES = {
    "oblivious": 0,
    "lps": 1,
    "robust-lps": 2,
    "lowest-index": 3,
}

FAMILY_CODES = {
    "reversal": 0,
    "rand-lb": 1,
}


# ---- lockstep random draws: one xorshift stream per column ----

_TWO32 = 1 << 32


def _next_u32(words, rows):
    """Advance the streams ``rows`` (an index array or a slice) by one word."""
    x = words[0, rows]
    t = x ^ ((x << 11) & MASK32)
    w = words[3, rows]
    words[:3, rows] = words[1:, rows]
    w = (w ^ (w >> 19)) ^ (t ^ (t >> 8))
    words[3, rows] = w
    return w


def _randbelow(words, rows, bounds):
    """``RandomStream.randbelow(bounds[i])`` on stream ``rows[i]`` for every i.

    ``words`` holds the four xorshift words word-major, shape (4, streams),
    and ``rows`` are strictly increasing stream indices, so a draw on every
    stream is a few whole-array operations. A bound of 1 draws nothing,
    and a rejected draw is redrawn on its own stream only: every stream
    sees exactly the draws its scalar ``RandomStream`` would.
    """
    out = np.zeros(len(rows), np.int64)
    todo = np.flatnonzero(bounds > 1)
    while todo.size:
        b = bounds[todo]
        sel = rows[todo]
        v = _next_u32(words, slice(None) if sel.size == words.shape[1] else sel)
        ok = v < _TWO32 // b * b
        if ok.all():
            out[todo] = v % b
            break
        out[todo[ok]] = v[ok] % b[ok]
        todo = todo[~ok]
    return out


# ---- batched policy simulation over synthetic phase families ----

def _follow(order, true_state, slots, act, r):
    """lps: among the states saturating after slot r, the one predicted last."""
    later = np.where(slots > r[:, None], order[act], -1)
    return true_state[act, later.argmax(1)]


def _uniform_later(words, true_rank, act, r):
    """A uniform draw among the states saturating after slot r, by state index."""
    n = true_rank.shape[1]
    pick = _randbelow(words, act, n - 1 - r)
    seen = np.cumsum(true_rank[act] > r[:, None], axis=1)
    return (seen > pick[:, None]).argmax(1)


def _simulate_family(policy, family, n, m, gran, phases, threshold, sch, adv):
    """Every trial at once, phase by phase; each trial owns one column of
    ``sch`` and ``adv`` and consumes it in the order a scalar walk would."""
    trials = sch.shape[1]
    rows = np.arange(trials)
    slots = np.arange(n)
    counts = np.zeros((trials, phases), np.int64)
    costs = np.zeros(trials, np.int64)
    # order[t, j]: the predicted slot of the state that saturates at slot j.
    order = np.tile(slots, (trials, 1))
    tail = order[:, n - m:]
    if family == 0:
        tail[:] = slots[n - m:][::-1]
    true_rank = np.empty((trials, n), np.int64)
    # bounds[b]: the draw bound b for every trial.
    bounds = np.repeat(np.arange(n + 1), trials).reshape(n + 1, trials)
    cur = np.zeros(trials, np.int64)
    for p in range(phases):
        if family == 1:
            tail[:] = slots[n - m:]
            for i in range(m - 1, 0, -1):
                j = _randbelow(adv, rows, bounds[i + 1])
                swap = tail[rows, j]
                tail[rows, j] = tail[:, i]
                tail[:, i] = swap
        # Relabel cyclically so the top predicted slot is never the state
        # the policy parked in at the end of the previous phase.
        true_state = (order + ((cur + 2) % n)[:, None]) % n
        true_rank[rows[:, None], true_state] = slots

        if policy == 0:
            tgt = _randbelow(sch, rows, bounds[n])
            cnt = np.ones(trials, np.int64)
        elif policy == 3:
            tgt = cur
            cnt = np.zeros(trials, np.int64)
        else:
            tgt = (cur + 1) % n  # the top predicted slot
            cnt = (tgt != cur).astype(np.int64)
        # Spike realization: a state saturating at slot j collects one unit
        # in each earlier slot and gran - j at slot j, so a policy that
        # enters it after the state at slot r saturates processes exactly
        # gran - r - 1 units there (gran when present from the start). A
        # phase costs its opening move, gran in the first state, and
        # gran + gran - r - 1 per forced move out of slot r.
        units = gran * (tgt != cur) + gran
        cur = tgt
        act = rows
        r = true_rank[rows, cur]
        while True:
            live = r < n - 1
            act, r = act[live], r[live]
            if not act.size:
                break
            if policy == 3:
                nxt = (true_rank[act] > r[:, None]).argmax(1)
            elif policy == 1:
                nxt = _follow(order, true_state, slots, act, r)
            elif policy == 0:
                nxt = _uniform_later(sch, true_rank, act, r)
            else:
                follow = cnt[act] < threshold
                rest = ~follow
                nxt = np.empty(act.size, np.int64)
                nxt[follow] = _follow(order, true_state, slots, act[follow], r[follow])
                nxt[rest] = _uniform_later(sch, true_rank, act[rest], r[rest])
            units[act] += 2 * gran - 1 - r
            cnt[act] += 1
            cur[act] = nxt
            r = true_rank[act, nxt]
        counts[:, p] = cnt
        costs += units
    return counts, costs


def simulate_family_trials(policy: str, family: str, n: int, m: int,
                           phases: int, trials: int, threshold: int = 0,
                           granularity: int | None = None,
                           scheduler_seed: int = 0, adversary_seed: int = 0):
    """Counts and costs per trial for a policy on a synthetic family.

    ``family`` "reversal" realizes predictions whose last m slots are
    saturated in reverse; "rand-lb" shuffles the last m slots uniformly
    using the adversary stream. ``m`` must already be clamped to [1, n].
    ``threshold`` is only read by the robust policy. Trial i draws from the
    streams seeded with trial_seed(seed, i) on both sides, which is exactly
    how the file-based generators and the reference engine are seeded, so
    counts match them trial for trial.

    Returns (counts, costs): transition events per (trial, phase) as an
    int64 array of shape (trials, phases), and total movement plus
    processing units per trial as an int64 array of shape (trials,).
    """
    if policy not in POLICY_CODES:
        raise ConfigurationError(f"no batched kernel for policy {policy!r}")
    if family not in FAMILY_CODES:
        raise ConfigurationError(f"unknown input family {family!r}")
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    if not 1 <= m <= n:
        raise ConfigurationError("m must be in [1, n]")
    if phases < 1 or trials < 1:
        raise ConfigurationError("phases and trials must be >= 1")
    if policy == "robust-lps" and threshold < 1:
        raise ConfigurationError("robust policy needs a threshold >= 1")
    if granularity is None:
        granularity = n
    if granularity < n:
        raise ConfigurationError("granularity must be >= n to realize an order")
    # Word-major: row k holds word k of every trial's stream.
    sch = state_rows([trial_seed(scheduler_seed, t) for t in range(trials)]).T.copy()
    adv = state_rows([trial_seed(adversary_seed, t) for t in range(trials)]).T.copy()
    counts, costs = _simulate_family(
        POLICY_CODES[policy], FAMILY_CODES[family], n, m, granularity,
        phases, threshold, sch, adv)
    return counts, costs

