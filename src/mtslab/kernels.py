"""Batched family simulation: every row of a call walked in lockstep.

The batched simulator runs a scheduling policy over synthetic inputs that
are described at the event level: per phase only the predicted and the
realized saturation orders matter for transition counts, so phases are
walked saturation by saturation instead of step by step. Every trial
therefore runs the same walk on different random draws, and the kernel
advances all rows of a call together, phase by phase, as numpy
operations over (rows, n) blocks. A call takes one tail size m or a
sequence of them, and has one row per (m, trial):

* each trial owns one xorshift stream per side, repeated once per tail
  size; the four words of every stream are stored word-major, shape
  (4, rows), and drawn on with ``rng._randbelow``;
* the phase orders come from ``adversaries.tail_orders``, the one
  definition of the reversal and rand-lb families (the file generators
  read it too), which takes each row's m and draws the rand-lb shuffles
  on the adversary streams;
* a phase walk keeps a shrinking index of the rows still walking and
  takes at most n steps.

Every stream is consumed in the order of the per-trial walk, so results
are identical to ``oracles.simulate_family_scalar``, the scalar reference
that shares no random-number or geometry code with this module. There is
one backend, interpreted numpy; ``backend_name()`` reports it.
"""

from __future__ import annotations

import numpy as np

from .adversaries import tail_orders
from .analysis import robustness_threshold
from .errors import ConfigurationError
from .rng import _randbelow, check_seed, state_rows, trial_seed

__all__ = [
    "backend_name",
    "POLICIES",
    "FAMILIES",
    "ADVERSARY_SEED_OFFSET",
    "simulate_family_trials",
]


def backend_name() -> str:
    """The only backend: numpy, interpreted."""
    return "python"


POLICIES = ("oblivious", "lps", "robust-lps", "lowest-index")

FAMILIES = ("reversal", "rand-lb")

# The adversary stream must not mirror the scheduler stream, or a
# randomized scheduler would see draws correlated with the input's; the
# offset keeps both derivations disjoint for every trial index.
ADVERSARY_SEED_OFFSET = 1


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


def _simulate_family(policy, family, n, m, gran, phases, sch, adv):
    """Every row at once, phase by phase; row t has tail size ``m[t]``, owns
    column t of ``sch`` and ``adv`` and consumes it in the order a scalar
    walk would."""
    trials = sch.shape[1]
    rows = np.arange(trials)
    slots = np.arange(n)
    counts = np.zeros((trials, phases), np.int64)
    costs = np.zeros(trials, np.int64)
    true_rank = np.empty((trials, n), np.int64)
    cur = np.zeros(trials, np.int64)
    for p, (order, true_state) in enumerate(tail_orders(family, n, m, phases, adv)):
        true_rank[rows[:, None], true_state] = slots

        if policy == "oblivious":
            tgt = _randbelow(sch, rows, np.full(trials, n))
            cnt = np.ones(trials, np.int64)
        elif policy == "lowest-index":
            tgt = cur
            cnt = np.zeros(trials, np.int64)
        else:
            tgt = true_state[rows, order.argmax(1)]  # the top predicted state
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
            if policy == "lowest-index":
                nxt = (true_rank[act] > r[:, None]).argmax(1)
            elif policy == "lps":
                nxt = _follow(order, true_state, slots, act, r)
            elif policy == "oblivious":
                nxt = _uniform_later(sch, true_rank, act, r)
            else:
                follow = cnt[act] < robustness_threshold(n)
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


def _streams(seed, trials, copies):
    """Word-major xorshift words, shape (4, copies * trials): column
    k * trials + i holds trial i's stream from ``seed``, for every copy k.
    The copy makes the words C-contiguous, whatever the number of copies."""
    words = state_rows([trial_seed(seed, t) for t in range(trials)])
    return np.tile(words, (copies, 1)).T.copy()


def simulate_family_trials(policy: str, family: str, n: int, m,
                           phases: int, trials: int,
                           granularity: int | None = None, seed: int = 0):
    """Counts and costs per trial for a policy on a synthetic family.

    ``family`` "reversal" realizes predictions whose last m slots are
    saturated in reverse; "rand-lb" shuffles the last m slots uniformly
    using the adversary stream. ``m`` is one tail size or a 1-D sequence
    of them, each already clamped to [1, n]; every tail size runs all
    trials on the same streams, as a call with that m alone would.
    The robust policy trusts predictions for ``robustness_threshold(n)``
    transitions per phase, as ``schedulers.RobustLatestPredicted`` does.
    ``seed`` must be in [0, 2**64). Trial i draws its scheduler stream from
    trial_seed(seed, i) and its adversary stream from
    trial_seed(seed + ADVERSARY_SEED_OFFSET, i),
    which is exactly how the reference engine and the file-based
    generators are seeded, so counts match them trial for trial.

    Returns (counts, costs): transition events per (trial, phase) as an
    int64 array of shape ``np.shape(m) + (trials, phases)``, and total
    movement plus processing units per trial as an int64 array of shape
    ``np.shape(m) + (trials,)``.
    """
    if policy not in POLICIES:
        raise ConfigurationError(f"no batched kernel for policy {policy!r}")
    if family not in FAMILIES:
        raise ConfigurationError(f"unknown input family {family!r}")
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    sizes = np.asarray(m)
    if sizes.ndim > 1 or not sizes.size or sizes.dtype.kind not in "iu":
        raise ConfigurationError("m must be an integer or a non-empty 1-D sequence of them")
    if sizes.min() < 1 or sizes.max() > n:
        raise ConfigurationError("m must be in [1, n]")
    if phases < 1 or trials < 1:
        raise ConfigurationError("phases and trials must be >= 1")
    check_seed(seed)
    if granularity is None:
        granularity = n
    if granularity < n:
        raise ConfigurationError("granularity must be >= n to realize an order")
    sizes = sizes.reshape(-1)
    sch = _streams(seed, trials, sizes.size)
    adv = _streams(seed + ADVERSARY_SEED_OFFSET, trials, sizes.size)
    counts, costs = _simulate_family(policy, family, n, sizes.repeat(trials),
                                     granularity, phases, sch, adv)
    shape = np.shape(m)
    return counts.reshape(shape + (trials, phases)), costs.reshape(shape + (trials,))
