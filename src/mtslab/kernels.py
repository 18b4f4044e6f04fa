"""Batched family simulation: every row of a call at once, by blocks of phases.

The batched simulator runs scheduling policies over synthetic inputs that
are described at the event level: per phase only the predicted and the
realized saturation orders matter for transition counts, so phases are
walked saturation by saturation instead of step by step. A call takes one
policy or a sequence of them, and one tail size m or a sequence of them;
it has one row per (m, trial), and every policy walks every row:

* each trial owns one xorshift stream per side, repeated once per tail
  size, and each policy its own copy of the scheduler streams; the four
  words of every stream are stored word-major, shape (4, rows), and
  drawn on with ``rng._randbelow``;
* the phase orders come from ``adversaries.tail_orders``, the one
  definition of the reversal and rand-lb families (the file generators
  read it too). Every policy ends a phase on its last realized slot, so
  no walk feeds back into the orders, and they come a block of phases
  at a time, the rand-lb shuffles drawn in bulk on the adversary streams.
  One pass draws each block once, and every policy of the call reads it;
* every policy reads the same window of each phase, its last max(2, m)
  slots, and follows one of two rules;
* a follower moves to the later-saturating state that ranks highest by
  its key: the predicted slot for lps and robust-lps's trusted moves, the
  lowest state index for lowest-index. From its first state on it enters
  exactly the right-to-left maxima of the key, all within the window, so
  one closed form over a block serves all three, and lps and robust-lps
  share its maxima;
* a uniform walk moves to a uniformly drawn later-saturating state, at
  most n - 1 times per phase: oblivious from its opening draw, and
  robust-lps once its trust runs out. One loop walks both, phase by phase,
  so each scheduler stream is read in phase order; a state before the
  window saturates at its predicted slot. A move out of slot r draws
  below the n - 1 - r later states and takes the drawn one by position:
  one flatnonzero over the walking rows' rank tables lists every row's
  later states in (row, index) order.

Every stream is consumed in the order of the per-trial walk, so results
are identical to ``simulate_family_scalar`` in ``tests/oracles.py``, the
scalar reference that shares no random-number or geometry code with this
module. There is one backend, interpreted numpy; ``backend_name()``
reports it.
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

def _walk_later(words, cols, rank, r, gran):
    """Uniform forced moves from slot r until the last slot, as (moves, units)
    per row; row i draws on stream ``cols[i]`` among the later states by
    index, ``rank[i]`` holding each state's slot. At most n - 1 moves."""
    n = rank.shape[1]
    moves, units = np.zeros((2, len(cols)), np.int64)
    act = np.arange(len(cols))
    for _ in range(n - 1):
        live = r < n - 1
        act, r = act[live], r[live]
        if not act.size:
            break
        units[act] += 2 * gran - 1 - r
        moves[act] += 1
        later = n - 1 - r
        pick = _randbelow(words, cols[act], later)
        # Row i has exactly later[i] later states, and the flat positions
        # of all rows' later states come in (row, index) order, so row i's
        # pick-th one sits at offset cumsum(later)[i] - later[i] + pick[i].
        table = rank[act]
        r = table.ravel()[np.flatnonzero(table > r[:, None])[np.cumsum(later) - later + pick]]
    return moves, units


def _simulate_family(policies, family, n, m, gran, phases, sch, adv):
    """Every policy on every row at once, block by block of phases; row t
    has tail size ``m[t]`` and owns column t of ``adv`` and of policy k's
    ``sch[k]``, and consumes them in the order a scalar walk would. The
    policies share each block of the phase chain, and the followers of
    one key share its right-to-left maxima."""
    rows = adv.shape[1]
    counts = np.empty((len(policies), rows, phases), np.int64)
    costs = np.zeros((len(policies), rows), np.int64)
    # Only oblivious's opening draw enters a state before the last
    # max(2, m) slots, the window: every other move enters the top
    # predicted slot, the carry's slot or a later one, all in the window.
    keep = min(n, max(2, int(m.max())))
    slot = np.arange(n - keep, n)
    # Spike realization: a state saturating at slot j collects one unit in
    # each earlier slot and gran - j at slot j, so a policy that enters it
    # after the state at slot r saturates processes exactly gran - r - 1
    # units there (gran when present from the start). A phase costs its
    # opening move, gran in the first state, and gran + gran - r - 1 per
    # forced move out of slot r.
    leave = np.where(slot < n - 1, 2 * gran - 1 - slot, 0)
    carry = (n - 2) % n  # the predicted slot of the state a phase opens in
    # lps and robust-lps open by moving to the top predicted state, never
    # the carry; lowest-index follows on from the carry itself. lps and
    # lowest-index follow with a trust no phase can use up.
    opened = [int(n > 1) if policy != "lowest-index" else 0 for policy in policies]
    trust = [robustness_threshold(n) - o if policy == "robust-lps" else n
             for policy, o in zip(policies, opened)]
    done = 0
    for order, true in tail_orders(family, n, m, phases, adv, keep):
        block = order.shape[1]
        shift = true[:, :, -1] - order[:, :, -1]
        maxima = {}  # (peak, nth) per follower key, by whether it is lowest-index's
        for k, policy in enumerate(policies):
            if policy == "oblivious":
                cnt = np.ones((rows, block), np.int64)
                units = np.full((rows, block), gran, np.int64)
                walks = np.ones((rows, block), bool)
            else:
                # A follower enters the right-to-left maxima of its key, the
                # first being the state it follows from: the top predicted
                # slot, or lowest-index's carry, keyed above every state.
                # Trust leaves the first ``trust`` maxima, then walks on
                # uniformly.
                by_index = policy == "lowest-index"
                if by_index not in maxima:
                    key = np.where(order == carry, n, -true) if by_index else order
                    peak = key == np.maximum.accumulate(key[:, :, ::-1], axis=2)[:, :, ::-1]
                    maxima[by_index] = peak, np.cumsum(peak, axis=2)
                peak, nth = maxima[by_index]
                cnt = np.minimum(nth[:, :, -1] - 1, trust[k]) + opened[k]
                units = gran * opened[k] + gran + ((peak & (nth <= trust[k])) * leave).sum(2)
                walks = nth[:, :, -1] > trust[k] + 1
            # The uniform walks, phase by phase so that each row reads its
            # scheduler stream in phase order. A state before the window
            # saturates at its predicted slot, (state - shift) mod n, and a
            # window state at its realized one.
            for p in np.flatnonzero(walks.any(0)):
                t = np.flatnonzero(walks[:, p])
                i = np.arange(t.size)
                rank = (np.arange(n) - shift[t, p, None]) % n
                if policy == "oblivious":
                    tgt = _randbelow(sch[k], t, np.full(t.size, n))
                    units[t, p] += gran * (rank[i, tgt] != carry)
                else:  # the state at robust-lps's (trust + 1)-th maximum
                    tgt = true[t, p, (nth[t, p] == trust[k] + 1).argmax(1)]
                rank[i[:, None], true[t, p]] = slot
                moves, walked = _walk_later(sch[k], t, rank, rank[i, tgt], gran)
                cnt[t, p] += moves
                units[t, p] += walked
            counts[k, :, done:done + block] = cnt
            costs[k] += units.sum(1)
        done += block
    return counts, costs


def _streams(seed, trials, copies):
    """Word-major xorshift words, shape (4, copies * trials): column
    k * trials + i holds trial i's stream from ``seed``, for every copy k."""
    return np.tile(state_rows([trial_seed(seed, t) for t in range(trials)]), copies)


def simulate_family_trials(policy, family: str, n: int, m,
                           phases: int, trials: int,
                           granularity: int | None = None, seed: int = 0):
    """Counts and costs per trial for policies on a synthetic family.

    ``policy`` is one name from ``POLICIES`` or a 1-D sequence of them.
    ``family`` "reversal" realizes predictions whose last m slots are
    saturated in reverse; "rand-lb" shuffles the last m slots uniformly
    using the adversary stream. ``m`` is one tail size or a 1-D sequence
    of them, each already clamped to [1, n]. Every policy and every tail
    size runs all trials on the same streams, as a call with that policy
    and that m alone would: one pass draws the phase chain once for all
    of them, and each policy draws on its own copy of the scheduler
    streams.
    The robust policy trusts predictions for ``robustness_threshold(n)``
    transitions per phase, as ``schedulers.RobustLatestPredicted`` does.
    ``seed`` must be in [0, 2**64). Trial i draws its scheduler stream from
    trial_seed(seed, i) and its adversary stream from
    trial_seed(seed + ADVERSARY_SEED_OFFSET, i),
    which is exactly how the reference engine and the file-based
    generators are seeded, so counts match them trial for trial.

    Returns (counts, costs): transition events per (trial, phase) as an
    int64 array of shape ``np.shape(policy) + np.shape(m) + (trials,
    phases)``, and total movement plus processing units per trial as an
    int64 array of shape ``np.shape(policy) + np.shape(m) + (trials,)``.
    """
    names = np.asarray(policy)
    if names.ndim > 1 or not names.size:
        raise ConfigurationError("policy must be a name or a non-empty 1-D sequence of them")
    policies = names.reshape(-1).tolist()
    for name in policies:
        if name not in POLICIES:
            raise ConfigurationError(f"no batched kernel for policy {name!r}")
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
    sch = _streams(seed, trials, sizes.size)
    adv = _streams(seed + ADVERSARY_SEED_OFFSET, trials, sizes.size)
    counts, costs = _simulate_family(policies, family, n, sizes.reshape(-1).repeat(trials),
                                     granularity, phases, [sch.copy() for _ in policies], adv)
    shape = names.shape + sizes.shape
    return counts.reshape(shape + (trials, phases)), costs.reshape(shape + (trials,))
