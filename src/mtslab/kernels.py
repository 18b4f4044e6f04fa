"""Batched family simulation with a compiled and an interpreted backend.

The same function bodies run either compiled by numba or interpreted as
plain Python over numpy arrays, selected once at import time:

* ``MTSLAB_NUMBA`` unset or ``"1"``: compile with numba when it is
  importable, otherwise fall back silently,
* ``MTSLAB_NUMBA=0``: force the interpreted path.

Because both paths execute identical statements on int64 values, results
and random draws are bit-identical; the compiled path is just faster.
``backend_name()`` reports which one is active. All randomness comes from
the package's own xorshift streams (see rng.py), carried through the
kernels as rows of an int64 state array so each trial owns one stream.

The batched simulator runs a scheduling policy over synthetic inputs that
are described at the event level: per phase only the predicted and the
realized saturation orders matter for transition counts, so phases are
walked saturation by saturation instead of step by step.

The offline optimum does not dispatch to a backend: ``dp_opt_units`` is
``opt.opt_units``, kept under this name for existing callers.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import ConfigurationError
from .opt import opt_units as dp_opt_units  # re-exported; the optimum is plain numpy
from .rng import state_rows, trial_seed

__all__ = [
    "backend_name",
    "POLICY_CODES",
    "FAMILY_CODES",
    "simulate_family_trials",
    "dp_opt_units",
]

_flag = os.environ.get("MTSLAB_NUMBA", "1").strip()
if _flag == "0":
    _HAVE_NUMBA = False
else:
    try:
        from numba import njit as _njit

        _HAVE_NUMBA = True
    except ImportError:
        _HAVE_NUMBA = False

if _HAVE_NUMBA:
    def _jit(fn):
        return _njit(cache=True)(fn)
else:
    def _jit(fn):
        return fn


def backend_name() -> str:
    return "numba" if _HAVE_NUMBA else "python"


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


# ---- random stream core (mirrors rng.RandomStream draw for draw) ----

def _rng_next(state, row):
    x = state[row, 0]
    t = (x ^ ((x << 11) & 0xFFFFFFFF)) & 0xFFFFFFFF
    state[row, 0] = state[row, 1]
    state[row, 1] = state[row, 2]
    state[row, 2] = state[row, 3]
    w = state[row, 3]
    w = (w ^ (w >> 19)) ^ (t ^ (t >> 8))
    state[row, 3] = w
    return w


def _rng_randbelow(state, row, bound):
    if bound <= 1:
        return 0
    lim = (4294967296 // bound) * bound
    while True:
        v = _rng_next(state, row)
        if v < lim:
            return v % bound


_rng_next = _jit(_rng_next)
_rng_randbelow = _jit(_rng_randbelow)


# ---- batched policy simulation over synthetic phase families ----

def _simulate_family(policy, family, n, m, gran, phases, threshold,
                     sch_state, adv_state, counts, costs):
    trials = counts.shape[0]
    pred_state = np.empty(n, np.int64)
    true_state = np.empty(n, np.int64)
    pred_rank = np.empty(n, np.int64)
    true_rank = np.empty(n, np.int64)
    for trial in range(trials):
        cur = 0
        for p in range(phases):
            # Relabel cyclically so the top predicted slot is never the
            # state the policy parked in at the end of the previous phase.
            head = (cur + 1) % n
            delta = (head + 1) % n
            for j in range(n):
                pred_state[j] = (j + delta) % n
            for j in range(n - m):
                true_state[j] = pred_state[j]
            if family == 0:
                for i in range(m):
                    true_state[n - m + i] = pred_state[n - 1 - i]
            else:
                for i in range(m):
                    true_state[n - m + i] = pred_state[n - m + i]
                for i in range(m - 1, 0, -1):
                    j = _rng_randbelow(adv_state, trial, i + 1)
                    tmp = true_state[n - m + i]
                    true_state[n - m + i] = true_state[n - m + j]
                    true_state[n - m + j] = tmp
            for j in range(n):
                pred_rank[pred_state[j]] = j
                true_rank[true_state[j]] = j

            # Spike realization: a state saturating at slot j collects one
            # unit in each earlier slot and gran - j at slot j, so a policy
            # occupying it from slot e + 1 through its saturation processes
            # exactly gran - e - 1 units (gran when present from the start).
            mov = 0
            proc = 0
            entry = -1
            cnt = 0
            if policy == 0:
                tgt = _rng_randbelow(sch_state, trial, n)
                if tgt != cur:
                    cur = tgt
                    mov += gran
                cnt = 1
            elif policy == 1 or policy == 2:
                tgt = pred_state[n - 1]
                if tgt != cur:
                    cur = tgt
                    mov += gran
                    cnt = 1
            while True:
                r = true_rank[cur]
                if entry < 0:
                    proc += gran
                else:
                    proc += gran - entry - 1
                if r == n - 1:
                    break
                if policy == 3:
                    nxt = -1
                    for s in range(n):
                        if true_rank[s] > r:
                            nxt = s
                            break
                elif policy == 1 or (policy == 2 and cnt + 1 <= threshold):
                    bj = r + 1
                    bp = pred_rank[true_state[r + 1]]
                    for j in range(r + 2, n):
                        pr = pred_rank[true_state[j]]
                        if pr > bp:
                            bp = pr
                            bj = j
                    nxt = true_state[bj]
                else:
                    pick = _rng_randbelow(sch_state, trial, n - 1 - r)
                    nxt = -1
                    seen = -1
                    for s in range(n):
                        if true_rank[s] > r:
                            seen += 1
                            if seen == pick:
                                nxt = s
                                break
                mov += gran
                entry = r
                cur = nxt
                cnt += 1
            counts[trial, p] = cnt
            costs[trial] += mov + proc


_simulate_family = _jit(_simulate_family)


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
    sch = state_rows([trial_seed(scheduler_seed, t) for t in range(trials)])
    adv = state_rows([trial_seed(adversary_seed, t) for t in range(trials)])
    counts = np.zeros((trials, phases), dtype=np.int64)
    costs = np.zeros(trials, dtype=np.int64)
    _simulate_family(POLICY_CODES[policy], FAMILY_CODES[family], n, m,
                     granularity, phases, threshold, sch, adv, counts, costs)
    return counts, costs

