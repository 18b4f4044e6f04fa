"""Online schedulers.

A scheduler occupies one state at a time, pays each step's task entry at
its current state, and pays one full cost unit per state change.
Conforming schedulers move only under two circumstances: optionally once
when a phase opens, and forcedly when their current state saturates, in
which case they must pick a still-unsaturated state.
Schedulers only pick targets. ``Walk`` seeds them, applies their answers
and enforces this protocol, for custom schedulers and for the interactive
input generators; the engine's event path calls the built-in schedulers'
hooks directly, since their answers are valid by construction.

Transition counting convention: a real state change always counts. The
uniform-restart scheduler additionally counts its phase-opening draw even
when the draw lands on the state it already occupies, because the draw is
the decision event; its expected count per phase is then exactly the n-th
harmonic number. Prediction-following schedulers skip the opening move
silently when they already sit on the target.

Uniform draws index the candidate states in ascending order, matching the
batched kernels draw for draw.
"""

from __future__ import annotations

import numpy as np

from .analysis import robustness_threshold
from .errors import ConfigurationError, ProtocolError
from .rng import RandomStream, trial_seed

__all__ = [
    "Scheduler",
    "Walk",
    "StayPut",
    "UniformRestart",
    "LatestPredictedSaturation",
    "RobustLatestPredicted",
    "NextRequestGreedy",
    "LowestIndex",
    "SCHEDULERS",
    "scheduler_names",
    "make_scheduler",
]

_UNKNOWN_RANK = -1
_NEVER_RANK = 1 << 62


class Scheduler:
    """Base class; subclasses override the two decision hooks."""

    name = "base"
    conforming = True
    needs_pst = False
    needs_lv = False
    uses_rng = False

    def __init__(self) -> None:
        self.n = 0
        self.stream: RandomStream | None = None

    def reset(self, n: int, stream: RandomStream | None) -> None:
        self.n = n
        self.stream = stream

    def phase_start(self, current: int, h):
        """Return (target, count_even_if_stay) for the phase-opening move.

        ``target`` None means "stay put". ``h`` is the predicted saturation
        step per state for the opening phase, or None if the input carries
        no prediction block for it.
        """
        return None, False

    def on_saturation(self, current: int, unsaturated, now: int, h, latest_lv):
        """Pick the next state once ``current`` has saturated.

        ``unsaturated`` is the ascending list of states that saturate
        strictly later than ``current``; the choice must come from it.
        ``latest_lv[s]`` is the most recent next-request prediction issued
        for state s (0 when none was ever issued, -1 for "never again").
        It holds predictions only for a scheduler that sets ``needs_lv``;
        every other scheduler gets a row of zeros.
        """
        raise NotImplementedError


class Walk:
    """One scheduler steered through the movement protocol from state 0.

    ``scheduler`` is a registered name or an instance; a randomized one
    draws from the stream seeded with trial_seed(seed, trial_index).
    ``moves`` logs every move as (effective step, target): the target is
    occupied from that step on.
    """

    def __init__(self, scheduler, n: int, seed: int = 0, trial_index: int = 0) -> None:
        sched = scheduler if isinstance(scheduler, Scheduler) else make_scheduler(scheduler)
        stream = RandomStream(trial_seed(seed, trial_index)) if sched.uses_rng else None
        sched.reset(n, stream)
        self.scheduler = sched
        self.n = n
        self.state = 0
        self.moves: list = []

    def open(self, step: int, h) -> int:
        """Apply the phase-opening move before ``step``; return the transitions charged."""
        target, count_even_if_stay = self.scheduler.phase_start(self.state, h)
        moved = target is not None and self._move(step, target, None)
        return 1 if moved or count_even_if_stay else 0

    def forced(self, step: int, candidates, h, latest_lv) -> None:
        """Move off the state that saturated at ``step`` to one of ``candidates``."""
        target = self.scheduler.on_saturation(self.state, candidates, step, h, latest_lv)
        self._move(step + 1, target, candidates)

    def _move(self, step: int, target, candidates) -> bool:
        """Occupy a valid ``target`` from ``step`` on; False if already there."""
        name = self.scheduler.name
        if not isinstance(target, (int, np.integer)) or not 0 <= target < self.n:
            raise ProtocolError(f"scheduler {name!r} chose invalid state {target!r}")
        if candidates is not None and target not in candidates:
            raise ProtocolError(
                f"scheduler {name!r} moved into a saturated state ({int(target)})"
            )
        if target == self.state:
            return False
        self.state = int(target)
        self.moves.append((step, self.state))
        return True


class StayPut(Scheduler):
    """Baseline that never moves; not conforming, pays whatever it sits on."""

    name = "stay-put"
    conforming = False


class UniformRestart(Scheduler):
    """Draws a uniformly random state at phase start and after each
    saturation of its own state, ignoring predictions entirely."""

    name = "oblivious"
    uses_rng = True

    def phase_start(self, current, h):
        return self.stream.randbelow(self.n), True

    def on_saturation(self, current, unsaturated, now, h, latest_lv):
        return unsaturated[self.stream.randbelow(len(unsaturated))]


def _latest_predicted(candidates, h):
    return max(candidates, key=h.__getitem__)  # ties: the first, lowest index


class LatestPredictedSaturation(Scheduler):
    """Always sits where saturation is predicted to arrive last.

    Opens each phase on the state with the overall latest predicted
    saturation step and, when forced off, re-targets the unsaturated state
    with the latest prediction. Ties break toward the lowest state index.
    """

    name = "lps"
    needs_pst = True

    def phase_start(self, current, h):
        return _latest_predicted(range(self.n), h), False

    def on_saturation(self, current, unsaturated, now, h, latest_lv):
        return _latest_predicted(unsaturated, h)


class RobustLatestPredicted(Scheduler):
    """Prediction-following with a per-phase trust budget.

    Follows the latest-predicted rule for its first ceil(H_n) transitions
    of a phase and falls back to uniform draws over the unsaturated states
    for the rest of the phase. The budget resets when a new phase opens.
    """

    name = "robust-lps"
    needs_pst = True
    uses_rng = True

    def __init__(self) -> None:
        super().__init__()
        self.threshold = 0
        self._count = 0

    def reset(self, n, stream):
        super().reset(n, stream)
        self.threshold = robustness_threshold(n)
        self._count = 0

    def phase_start(self, current, h):
        self._count = 0
        target = _latest_predicted(range(self.n), h)
        if target != current:
            self._count = 1
        return target, False

    def on_saturation(self, current, unsaturated, now, h, latest_lv):
        if self._count + 1 <= self.threshold:
            target = _latest_predicted(unsaturated, h)
        else:
            target = unsaturated[self.stream.randbelow(len(unsaturated))]
        self._count += 1
        return target


class NextRequestGreedy(Scheduler):
    """Parks where the next demand is predicted to be farthest away.

    Reads the per-state next-request predictions: -1 ("never requested
    again") outranks every concrete step, an absent prediction (0) ranks
    below everything, and ties break toward the lowest state index. Makes
    no phase-opening move.
    """

    name = "lv-greedy"
    needs_lv = True

    @staticmethod
    def _rank(value: int) -> int:
        if value == -1:
            return _NEVER_RANK
        if value == 0:
            return _UNKNOWN_RANK
        return value

    def on_saturation(self, current, unsaturated, now, h, latest_lv):
        return max(unsaturated, key=lambda s: self._rank(latest_lv[s]))


class LowestIndex(Scheduler):
    """Moves to the lowest-indexed unsaturated state; no phase-opening move."""

    name = "lowest-index"

    def on_saturation(self, current, unsaturated, now, h, latest_lv):
        return unsaturated[0]


SCHEDULERS = {
    cls.name: cls
    for cls in (
        StayPut,
        UniformRestart,
        LatestPredictedSaturation,
        RobustLatestPredicted,
        NextRequestGreedy,
        LowestIndex,
    )
}


def scheduler_names():
    return sorted(SCHEDULERS)


def make_scheduler(name: str) -> Scheduler:
    try:
        cls = SCHEDULERS[name]
    except KeyError:
        known = ", ".join(scheduler_names())
        raise ConfigurationError(f"unknown scheduler {name!r} (known: {known})") from None
    return cls()
