"""Input generators.

Four families of task sequences. Two are closed-form streams written
out directly; the other two are interactive: they drive a live scheduler
instance through the engine's protocol (one ``schedulers.Walk``) and
record a stream tailored to the observed behavior, so replaying the file
through the engine (same scheduler, same seed) reproduces the
interaction. Each generator builds its task and next-request tables
once, as int64 arrays: the interactive ones record one demanded state
per step and expand the record into a one-hot table at the end.
``build_family`` bounds the size of the output from closed forms before
anything is generated.

Shared geometry: a phase realizes a saturation order, one state per step.
Prediction blocks assign each state a predicted saturation step; the
per-phase prediction error is the footrule distance between the predicted
and the realized order. The two tail families, reversal and rand-lb, are
defined once, by ``tail_orders``: the file generators write out its trial
0, and the batched kernel (kernels.py) reads every row of it, one row per
(tail size, trial), a block of phases at a time. Cyclic relabeling pins
the top predicted state of each phase to (carryover + 1) mod n, where the
carryover is the state any conforming scheduler necessarily occupies when
the previous phase closes, so a prediction-following scheduler's
phase-opening move is always real.
"""

from __future__ import annotations

import numpy as np

from .analysis import max_forcible_transitions
from .core import CELL_CAP, UNIT_LIMIT, TaskSequence, next_demand
from .errors import ConfigurationError
from .rng import RandomStream, _randbelow, _word_run, state_rows, trial_seed
from .schedulers import Scheduler, Walk

__all__ = [
    "reversal_sequence",
    "shuffled_tail_sequence",
    "tail_orders",
    "budget_tail_size",
    "forcing_sequence",
    "repeat_block_sequence",
    "random_unit_sequence",
    "FAMILY_NAMES",
    "canonical_family",
    "build_family",
]


def _spike_rows(granularity: int, order: np.ndarray) -> np.ndarray:
    """The (n, n) int64 task table saturating the states of ``order`` in order.

    Step j hands the j-th target exactly the units it is missing
    (granularity - j, since it collected one unit in each earlier step),
    one unit to every state still waiting, and nothing to states already
    saturated. Every state therefore reaches the threshold exactly, one
    state per step, and the phase is n steps long. Unchecked: ``order``
    must be a permutation of range(n), and granularity >= n keeps the
    closing spike positive; ``_tail_sequence`` guarantees both.
    """
    position = np.argsort(order)  # the step at which each state saturates
    step = np.arange(len(order))[:, None]
    return np.where(position == step, granularity - step, position > step)


def _prediction_block(offset: int, pred_state) -> tuple:
    h = [0] * len(pred_state)
    for j, state in enumerate(pred_state):
        h[state] = offset + j
    return tuple(h)


def budget_tail_size(n: int, eta0: int) -> int:
    """m = min(max_forcible_transitions(eta0), n): the tail eta0 buys over n states."""
    if eta0 < 0:
        raise ConfigurationError("eta0 must be >= 0")
    return min(max_forcible_transitions(eta0), n)


def reversal_sequence(n: int, granularity: int, eta0: int, phases: int) -> TaskSequence:
    """Worst case for a prediction-follower within an error budget.

    Each phase saturates the states in the predicted order except that the
    last m = min(max_forcible_transitions(eta0), n) slots run in reverse,
    which costs the predictions exactly max_footrule(m) <= eta0 of error
    and walks a prediction-following scheduler through all m slots: one
    opening move plus m - 1 forced moves, every phase.
    """
    _check_geometry(n, granularity, phases, n)
    return _tail_sequence("reversal", n, granularity, budget_tail_size(n, eta0), phases, 0)


def shuffled_tail_sequence(n: int, granularity: int, tail_size: int, phases: int,
                           seed: int = 0) -> TaskSequence:
    """Random-order variant of the reversal family.

    The last m = min(tail_size, n) predicted slots saturate in a uniformly
    random order drawn from the stream seeded with trial_seed(seed, 0);
    the realized prediction error is therefore at most max_footrule(m).
    Under this distribution a prediction-follower visits H_m slots per
    phase in expectation.
    """
    if tail_size < 1:
        raise ConfigurationError("tail size must be >= 1")
    _check_geometry(n, granularity, phases, n)
    return _tail_sequence("rand-lb", n, granularity, min(tail_size, n), phases, seed)


# Cells (rows x phases x stored slots) in one block of ``tail_orders``; the
# block's run of drawn words is no larger.
BLOCK_CELLS = 1 << 13


def tail_orders(family: str, n: int, m, phases: int, words, slots: int | None = None):
    """Block by block, the saturation orders of every row of a tail family.

    ``words`` holds one adversary stream per row, word-major (see
    ``rng._randbelow``), and ``m`` the tail size of every row, or one tail
    size for all of them. Each block of consecutive phases yields
    (order, true), two (rows, phases in the block, slots) int64 tables
    over the last ``slots`` slots of every phase (all n by default):
    ``true[t, p, j]`` is the state that saturates at slot n - slots + j of
    phase p of row t, and ``order[t, p, j]`` is that state's predicted
    slot. The last m predicted slots saturate in reverse ("reversal") or
    in a Fisher-Yates shuffle drawn on the row's stream ("rand-lb"); the
    others saturate in predicted order. Predicted slot k holds state
    (k + carry + 2) mod n, where the carry is the state that saturated
    last in the previous phase (state 0 before the first), so the top
    predicted state is never the carry when n > 1. Nothing a scheduler
    does feeds back into the chain, so a block holds as many phases as
    ``BLOCK_CELLS`` allows: its shuffles are one run of words per stream
    and one Fisher-Yates pass over all its (row, phase) pairs, and its
    carries one cumulative sum.
    """
    streams = words.shape[1]
    size = np.broadcast_to(m, streams)
    width = int(size.max())
    keep = n if slots is None else slots
    cols = np.arange(n - keep, n)  # the stored slots
    first = n - size[:, None]  # the first tail slot of each row
    head = cols < first
    if family == "reversal":
        fixed = np.where(head, cols, n - 1 + first - cols)
    else:
        at = np.where(head, 0, cols - first)[:, None]  # each stored tail slot's offset
    block = max(1, BLOCK_CELLS // (streams * max(keep, width)))
    carry = np.zeros(streams, np.int64)
    for done in range(0, phases, block):
        count = min(block, phases - done)
        if family == "reversal":
            order = np.broadcast_to(fixed[:, None], (streams, count, keep))
        else:
            tails = _shuffled_tails(size, count, words)
            order = tails[at, np.arange(streams)[:, None, None], np.arange(count)[:, None]]
            order += first[:, None]
            np.copyto(order, cols, where=head[:, None])
        # Every phase ends on its last slot, whose state is the next carry.
        lift = carry[:, None] + np.cumsum(order[:, :, -1] + 2, axis=1)
        true = order + (lift - order[:, :, -1])[:, :, None]
        true %= n
        carry = lift[:, -1] % n
        yield order, true


def _shuffled_tails(size, count: int, words) -> np.ndarray:
    """``count`` phases of Fisher-Yates shuffles of range(size[t]) drawn on
    stream t, as a (max size, streams, count) table: entry i of phase p's
    shuffle on stream t is ``[i, t, p]``, up to the stream's own size.

    Step i (i = size - 1 down to 1) swaps entry i with entry
    ``randbelow(i + 1)``, so a row draws size - 1 words per phase unless
    one is rejected. The words of the whole block come from one lockstep
    run; a row whose run holds a rejected word redraws its block one draw
    at a time, so every stream ends where its ``RandomStream`` would.
    """
    streams = len(size)
    width = int(size.max())
    need = size - 1
    run = _word_run(words, count * (width - 1))
    step = np.arange(width)[:, None, None]
    live = (step >= 1) & (step <= need[:, None])  # the steps that draw
    # Step i of phase p draws word p * need + need - i of the row's run.
    index = np.where(live, need[:, None] * (np.arange(count) + 1) - step, -1)
    word = run[4 + index, np.arange(streams)[:, None]]
    bound = step + 1
    pick = np.where(live, word % bound, step)
    words[:] = run[need * count + np.arange(4)[:, None], np.arange(streams)]
    redo = np.flatnonzero((live & (word >= (1 << 32) // bound * bound)).any(axis=(0, 2)))
    if redo.size:
        words[:, redo] = run[:4, redo]
        for p in range(count):
            for i in range(width - 1, 0, -1):
                drawn = _randbelow(words, redo, np.where(live[i, redo, 0], i + 1, 1))
                pick[i, redo, p] = np.where(live[i, redo, 0], drawn, i)
    # One swap per step over every (stream, phase) at once, on flat indices.
    cells = streams * count
    tail = np.repeat(np.arange(width), cells)
    pick = pick.reshape(width, cells) * cells + np.arange(cells)
    for i in range(width - 1, 0, -1):
        j = pick[i]
        swap = tail[j]
        tail[j] = tail[i * cells:(i + 1) * cells]
        tail[i * cells:(i + 1) * cells] = swap
    return tail.reshape(width, streams, count)


def _tail_sequence(family: str, n: int, granularity: int, m: int, phases: int,
                   seed: int) -> TaskSequence:
    """Trial 0 of ``tail_orders`` on the stream trial_seed(seed, 0), written out.

    Each phase realizes ``true[0, p]`` and records ``order[0, p]`` as its
    prediction block: the state at slot j is predicted to saturate at the
    phase's step ``order[0, p, j]``.
    """
    tasks = np.empty((phases * n, n), np.int64)
    pst: dict = {}
    h = np.empty(n, np.int64)
    words = state_rows([trial_seed(seed, 0)])
    offset = 0
    for order, true in tail_orders(family, n, m, phases, words):
        for pred, realized in zip(order[0], true[0]):
            tasks[offset:offset + n] = _spike_rows(granularity, realized)
            h[realized] = offset + pred
            pst[offset] = tuple(h.tolist())
            offset += n
    return TaskSequence(n=n, granularity=granularity, tasks=tasks, pst=pst)


def _check_geometry(n: int, granularity: int, phases: int, least_granularity: int) -> None:
    """A generator's bounds: n >= 1, phases >= 1 and its family's least granularity."""
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    if phases < 1:
        raise ConfigurationError("phases must be >= 1")
    if granularity < least_granularity:
        raise ConfigurationError(
            f"granularity must be >= {least_granularity} for this family, got {granularity}"
        )


def _live_scheduler(scheduler: str | Scheduler, n: int, seed: int,
                    allow_pst: bool = True) -> Walk:
    walk = Walk(scheduler, n, seed=seed)
    sched = walk.scheduler
    if not sched.conforming:
        raise ConfigurationError(
            f"scheduler {sched.name!r} is not conforming and cannot be steered"
        )
    if sched.needs_pst and not allow_pst:
        raise ConfigurationError(
            f"scheduler {sched.name!r} needs saturation predictions, which this "
            f"family does not produce"
        )
    return walk


def forcing_sequence(n: int, granularity: int, eta0: int, phases: int,
                     scheduler: str | Scheduler, seed: int = 0) -> TaskSequence:
    """Steer a live scheduler into the most transitions the budget allows.

    Let m = min(max_forcible_transitions(eta0), n). Each phase commits a
    prediction block up front: the scheduler's opening position gets the
    earliest predicted slot, every other state follows in index order.
    The first n - m saturations then simply follow the predicted order
    (error-free filler; it evicts any scheduler that parks on the next
    predicted slot), after which the adversary saturates whatever state
    the scheduler currently occupies until the phase closes. The chased
    states all come from the last m predicted slots, so the realized error
    never exceeds max_footrule(m) <= eta0, while the scheduler is forced
    to at least m - 1 moves inside the window plus everything the filler
    and the phase opening extracted.

    Each step is a single spike of a full threshold of units, so exactly
    one chosen state saturates per step. Schedulers that read next-request
    predictions receive a fabricated table that predicts every state one
    step ahead at all times; it is deliberately uninformative (ties
    everywhere) and scored as lossy, but it makes their walk during
    generation identical to the later replay.
    """
    _check_geometry(n, granularity, phases, 1)
    m = budget_tail_size(n, eta0)
    walk = _live_scheduler(scheduler, n, seed)

    victims: list = []
    pst: dict = {}
    for _ in range(phases):
        offset = len(victims)
        pred_state = [walk.state] + [s for s in range(n) if s != walk.state]
        h = pst[offset] = _prediction_block(offset, pred_state)

        walk.open(offset, h)
        unsat = set(range(n))
        for pos in range(n):
            now = offset + pos
            victim = pred_state[pos] if pos < n - m else walk.state
            victims.append(victim)
            unsat.discard(victim)
            if victim == walk.state and unsat:
                walk.forced(now, sorted(unsat), h, [now + 1] * n)
    tasks = granularity * np.eye(n, dtype=np.int64)[victims]
    lv = None
    if walk.scheduler.needs_lv:
        lv = np.repeat(np.arange(1, len(victims) + 1), n).reshape(-1, n)
    return TaskSequence(n=n, granularity=granularity, tasks=tasks, pst=pst, lv=lv)


def repeat_block_sequence(n: int, phases: int, scheduler: str | Scheduler,
                          granularity: int | None = None, seed: int = 0) -> TaskSequence:
    """Pin a scheduler with truthful next-request predictions.

    The stream is built from single-state demands of one unit each, with
    the saturation threshold, the repeat count, set to ``granularity``
    (default n + 1). A phase runs n rounds: round q sweeps all states once
    in index order, then hammers the state the scheduler currently
    occupies for repeat - q further steps, which lands that state on the
    threshold exactly at the block's last step and forces the scheduler
    off. Every state is hammered exactly once per phase, so a conforming
    scheduler that makes no phase-opening move is forced into exactly
    n - 1 transitions per phase. The emitted next-request table is exact
    (zero loss): sweeps never saturate anything, so the hammer target for
    round q is already determined when round q starts.
    """
    repeat = _default_granularity("lv", n) if granularity is None else granularity
    # At least n + 1 keeps sweeps from saturating.
    _check_geometry(n, repeat, phases, n + 1)
    walk = _live_scheduler(scheduler, n, seed, allow_pst=False)

    # The demanded state of every step.
    requested: list = []
    for phase_index in range(phases):
        walk.open(len(requested), None)
        saturated: set = set()
        for q in range(1, n + 1):
            sigma = walk.state
            block_start = len(requested) + n
            next_sweep_start = block_start + (repeat - q)
            final = phase_index == phases - 1 and q == n
            # Each state's next request once the round is over: its demand
            # in the next sweep, or none after the last round of the input.
            latest = [-1 if final else next_sweep_start + s for s in range(n)]
            requested += [*range(n), *[sigma] * (repeat - q)]
            saturated.add(sigma)
            if q < n:
                choices = [s for s in range(n) if s not in saturated]
                walk.forced(next_sweep_start - 1, choices, None, latest)
    tasks = np.eye(n, dtype=np.int64)[requested]
    lv = next_demand(tasks)
    lv[tasks == 0] = 0
    return TaskSequence(n=n, granularity=repeat, tasks=tasks, pst=None, lv=lv)


def random_unit_sequence(n: int, granularity: int, phases: int, seed: int = 0) -> TaskSequence:
    """Uniformly random single-state demands, in complete phases only.

    Draws one requested state per step until the wanted number of phases
    has closed, so the stream ends on a phase boundary and there is no
    incomplete suffix. Saturation is always exact (units arrive one at a
    time) and tie-free (one state per step). Attaches truthful prediction
    tables: saturation steps per phase, recorded while drawing, and the
    true next request per demand (zero loss by construction).
    """
    _check_geometry(n, granularity, phases, 1)
    stream = RandomStream(trial_seed(seed, 0))
    requested: list = []
    pst: dict = {}
    cap = 1000 * n * granularity * phases + 1000
    while len(pst) < phases:
        start = len(requested)
        cum = [0] * n
        sat = [0] * n
        waiting = n
        while waiting:
            if len(requested) > cap:
                raise ConfigurationError("random stream failed to close enough phases")
            s = stream.randbelow(n)
            cum[s] += 1
            if cum[s] == granularity:
                sat[s] = len(requested)
                waiting -= 1
            requested.append(s)
        pst[start] = tuple(sat)
    tasks = np.eye(n, dtype=np.int64)[requested]
    lv = next_demand(tasks)
    lv[tasks == 0] = 0
    return TaskSequence(n=n, granularity=granularity, tasks=tasks, pst=pst, lv=lv)


# The flags each family reads besides n, granularity, phases and seed; each
# is required.
_FAMILY_FLAGS = {
    "reversal": ("eta0",),
    "lv": ("scheduler",),
    "force-det": ("eta0", "scheduler"),
    "rand-lb": ("k",),
}
FAMILY_NAMES = tuple(_FAMILY_FLAGS)


def _default_granularity(family: str, n: int) -> int:
    """lv's granularity is its repeat count, which must exceed n: n + 1; others' is n."""
    return n + 1 if family == "lv" else max(n, 1)


_FAMILY_ALIASES = {
    "force-deterministic": "force-det",
    "lv-adversary": "lv",
    "randomized-lb": "rand-lb",
}


def canonical_family(family: str) -> str:
    name = family.replace("_", "-").lower()
    name = _FAMILY_ALIASES.get(name, name)
    if name not in FAMILY_NAMES:
        known = ", ".join(FAMILY_NAMES)
        raise ConfigurationError(f"unknown adversary family {family!r} (known: {known})")
    return name


def build_family(family: str, *, n: int, granularity: int | None = None,
                 eta0: int | None = None, phases: int = 1, seed: int = 0,
                 scheduler: str | None = None, k: int | None = None):
    """Uniform entry point used by the command line.

    Returns (sequence, m): m is the realized tail size of the
    budget-driven families, and None for lv, whose repeat count is the
    sequence's granularity. A flag the family does not read, per
    ``_FAMILY_FLAGS``, is an error.
    """
    name = canonical_family(family)
    reads = _FAMILY_FLAGS[name]
    for flag, value in (("eta0", eta0), ("scheduler", scheduler), ("k", k)):
        if value is not None and flag not in reads:
            raise ConfigurationError(f"family {name!r} does not read --{flag}")
        if value is None and flag in reads:
            raise ConfigurationError(f"family {name!r} needs --{flag}")
    if name == "rand-lb" and k < 2:
        raise ConfigurationError("family 'rand-lb' needs --k >= 2")
    if granularity is None:
        granularity = _default_granularity(name, n)
    _check_output_size(name, n, granularity, phases)
    if name == "reversal":
        seq = reversal_sequence(n, granularity, eta0, phases)
        return seq, budget_tail_size(n, eta0)
    if name == "rand-lb":
        seq = shuffled_tail_sequence(n, granularity, k, phases, seed=seed)
        return seq, min(k, n)
    if name == "force-det":
        seq = forcing_sequence(n, granularity, eta0, phases, scheduler, seed=seed)
        return seq, budget_tail_size(n, eta0)
    return repeat_block_sequence(n, phases, scheduler, granularity, seed=seed), None


def _check_output_size(name: str, n: int, granularity: int, phases: int) -> None:
    """Reject a family past build_family's bounds, from closed forms.

    At most ``core.CELL_CAP`` task entries, and task units plus granularity
    per step below ``core.UNIT_LIMIT``, so the file loads back. A phase of
    the lv family runs n rounds of n sweep steps plus
    granularity - q hammer steps, with one unit per step; a phase of every
    other family runs n steps and hands out n thresholds of units.
    """
    if n < 1 or phases < 1:
        return  # the generator names the bad value
    if name == "lv":
        steps = phases * (n * n + n * granularity - n * (n + 1) // 2)
        units = steps
    else:
        steps = phases * n
        units = steps * granularity
    if steps * n > CELL_CAP:
        raise ConfigurationError(f"steps * n must be <= {CELL_CAP}")
    if units + steps * granularity >= UNIT_LIMIT:
        raise ConfigurationError(
            "task units plus granularity per step must stay below 2**60"
        )
