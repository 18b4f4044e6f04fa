"""Exact simulator of one scheduler over one task sequence.

Drives one scheduler over one task sequence, phase by phase, with exact
integer accounting. A registered name runs on the event path: the engine
calls the scheduler's own hooks itself, once per phase opening and once
per saturation of its current state, and takes each move's candidates
from the phase's cached list. A ``Scheduler`` instance runs through the
movement protocol of ``schedulers.Walk``, which checks every answer; that
path is the only one for custom schedulers and the oracle the event path
is tested against. Both paths keep the move log, from which
``RunResult.schedule`` (the state occupied at every step) is built when
it is read, so a run can be audited against ``core.schedule_cost``.

Runs always open in state 0. Randomized schedulers draw from the stream
seeded with trial_seed(seed, trial_index), the same derivation the batched
kernels use, so a single-trial engine run reproduces kernel trial 0 draw
for draw.

Event model per phase: the scheduler may move once when the phase opens
(charged to the opening phase), then processes until its current state
saturates at some step t, at which point it must pick a state that
saturates strictly later; that move is charged to the phase containing t.
Once every state is saturated the phase is over and the scheduler is
necessarily sitting in the last state to have saturated. The steps after
the last complete phase form a trailing phase that has not closed. The
decomposition lists it last, with ``complete`` False, and gives each state
that never saturates in it the input length as its saturation step, so
the same loop walks it and stops once the scheduler sits on such a state.
Its costs are reported separately, as ``RunResult.suffix``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analysis import round_ratio_half_up
from .core import TaskSequence, decompose_phases
from .errors import ConfigurationError
from .opt import opt_units, phase_opt_units
from .rng import check_seed
from .schedulers import Scheduler, Walk

__all__ = ["PhaseStats", "RunResult", "run_scheduler", "summarize"]


@dataclass
class PhaseStats:
    index: int
    start: int
    end: int
    transitions: int
    moves: int
    movement_units: int
    processing_units: int
    pst_error: int | float | None

    @property
    def cost_units(self) -> int:
        return self.movement_units + self.processing_units


@dataclass
class RunResult:
    """One run's per-phase costs and its move log.

    ``moves`` holds every move as (effective step, target state), the
    target occupied from that step on; ``steps`` is the input length.
    """

    scheduler: str
    seed: int
    trial_index: int
    n: int
    granularity: int
    steps: int = 0
    phases: list = field(default_factory=list)
    suffix: PhaseStats | None = None
    moves: list = field(default_factory=list)
    conforming: bool = True

    @property
    def schedule(self) -> list:
        """The state occupied at every step, built from the move log."""
        return _schedule(self.moves, self.steps).tolist()

    @property
    def all_phases(self) -> list:
        """The complete phases followed by the trailing partial one, if any."""
        return self.phases if self.suffix is None else self.phases + [self.suffix]

    @property
    def transitions_per_phase(self) -> list:
        return [p.transitions for p in self.phases]

    @property
    def total_transitions(self) -> int:
        return sum(p.transitions for p in self.all_phases)

    @property
    def total_moves(self) -> int:
        return sum(p.moves for p in self.all_phases)

    @property
    def total_units(self) -> int:
        return sum(p.cost_units for p in self.all_phases)


def run_scheduler(seq: TaskSequence, scheduler, seed: int = 0, trial_index: int = 0,
                  phases=None) -> RunResult:
    """Simulate one scheduler over one sequence; exact integer accounting.

    ``scheduler`` is a registered name, which runs on the event path, or a
    ``Scheduler`` instance, which runs through ``Walk``; both give the same
    result. ``seed`` must be in [0, 2**64). ``phases``, when given, must be
    ``decompose_phases(seq)``: every phase, the trailing partial one last.
    Callers that run many trials over one sequence decompose it once and
    pass the list to each.
    """
    check_seed(seed)
    walk = Walk(scheduler, seq.n, seed=seed, trial_index=trial_index)
    sched = walk.scheduler
    event = not isinstance(scheduler, Scheduler)

    if sched.needs_lv and seq.lv is None:
        raise ConfigurationError(
            f"scheduler {sched.name!r} needs next-request predictions and the input has none"
        )

    if phases is None:
        phases = decompose_phases(seq)
    latest_lv = _latest_next_request(seq, sched.needs_lv)

    walk_phase = _event_phase if event else _walk_phase
    counts = []  # (transitions, moves) per phase
    for phase in phases:
        if sched.needs_pst and phase.h is None:
            raise ConfigurationError(
                f"scheduler {sched.name!r} needs a prediction block for the phase "
                f"starting at step {phase.start} and the input has none"
            )
        moved = len(walk.moves)
        transitions = walk_phase(walk, phase, latest_lv)
        counts.append((transitions, len(walk.moves) - moved))
    units = (_event_units if event else _walk_units)(seq, walk.moves, phases)

    threshold = seq.granularity
    result = RunResult(
        scheduler=sched.name,
        seed=seed,
        trial_index=trial_index,
        n=seq.n,
        granularity=threshold,
        steps=len(seq),
        moves=walk.moves,
        conforming=sched.conforming,
    )
    for phase, (transitions, moves), processing in zip(phases, counts, units):
        stats = PhaseStats(phase.index, phase.start, phase.end, transitions, moves,
                           moves * threshold, processing, phase.pst_error)
        if phase.complete:
            result.phases.append(stats)
        else:
            result.suffix = stats
    return result


def _walk_phase(walk: Walk, phase, latest_lv) -> int:
    """One phase through ``Walk``'s checked protocol; returns its transitions."""
    transitions = walk.open(phase.start, phase.h)
    while walk.scheduler.conforming:
        tau = phase.sat_step[walk.state]
        unsat = [s for s in range(walk.n) if phase.sat_step[s] > tau]
        if not unsat:
            break
        walk.forced(tau, unsat, phase.h, latest_lv[tau])
        transitions += 1
    return transitions


def _event_phase(walk: Walk, phase, latest_lv) -> int:
    """One phase of ``Walk``'s moves without its checks, for the built-in
    schedulers, whose answers are valid by construction: their hooks are
    called directly, over the phase's cached candidate lists."""
    sched, state, h = walk.scheduler, walk.state, phase.h
    target, count_even_if_stay = sched.phase_start(state, h)
    transitions = 1 if count_even_if_stay else 0
    if target is not None and target != state:
        state = target
        walk.moves.append((phase.start, state))
        transitions = 1
    if sched.conforming:
        sat_step = phase.sat_step
        # A forced move goes to a state saturating strictly later: at most
        # n - 1 per phase, even when a faulty candidate list would go on.
        for _ in range(walk.n - 1):
            if not (unsat := phase.later(state)):
                break
            tau = sat_step[state]
            state = sched.on_saturation(state, unsat, tau, h, latest_lv[tau])
            walk.moves.append((tau + 1, state))
            transitions += 1
    walk.state = state
    return transitions


def _walk_units(seq: TaskSequence, moves, phases) -> list:
    """Processing units per phase: one Python sum per phase over the per-step costs."""
    per_step = seq.tasks[np.arange(len(seq)), _schedule(moves, len(seq))].tolist()
    return [sum(per_step[p.start : p.end + 1]) for p in phases]


def _event_units(seq: TaskSequence, moves, phases) -> list:
    """Processing units per phase: one gather of the per-step costs along the
    schedule and one sum per phase, from its start to the next phase's."""
    total, n = seq.tasks.shape
    if not phases:
        return []
    per_step = seq.tasks.reshape(-1).take(_schedule(moves, total) + np.arange(0, total * n, n))
    # The phases tile the input. int64 is exact while no partial sum can reach 2**63.
    if int(per_step.max()) * total >= 1 << 63:
        return _walk_units(seq, moves, phases)
    return np.add.reduceat(per_step, [p.start for p in phases]).tolist()


def _schedule(moves, steps: int) -> np.ndarray:
    """The state at each of ``steps`` steps: state 0, then each move's target."""
    # Segment i runs from its entry step to the next one, in states[i].
    entries, states = zip((0, 0), *moves)
    return np.repeat(states, np.diff(entries, append=steps))


def _latest_next_request(seq: TaskSequence, needed: bool) -> np.ndarray:
    """Row tau: per state, the last nonzero ``lv`` entry at or before step tau, else 0."""
    if seq.lv is None or not needed:
        return np.broadcast_to(np.zeros(seq.n, dtype=np.int64), seq.tasks.shape)
    # The step of that entry; a state with none points at row 0, where it is 0.
    issued = np.where(seq.lv != 0, np.arange(len(seq))[:, None], 0)
    np.maximum.accumulate(issued, axis=0, out=issued)
    return np.take_along_axis(seq.lv, issued, axis=0)


def summarize(seq: TaskSequence, result: RunResult) -> dict:
    """Report dict for one run: per-phase rows, totals, optimum, ratio.

    Each phase row holds the ``PhaseStats`` fields, ``cost_units`` and the
    phase's own optimum, which lets the comparison schedule open the phase
    in any state for free; the trailing partial phase, if any, is reported
    without an optimum. The whole-sequence optimum opens in state 0, as
    the run does. Both optima are exact. The cost ratio is the
    exact quotient rounded half-up to six decimal places.
    """
    phase_opts = phase_opt_units(seq.tasks, seq.granularity, result.phases)
    opt_total = opt_units(seq.tasks, seq.granularity)
    report: dict = {
        "scheduler": result.scheduler,
        "seed": result.seed,
        "trial_index": result.trial_index,
        "n": result.n,
        "granularity": result.granularity,
        "steps": len(seq.tasks),
        "complete_phases": len(result.phases),
        "suffix_steps": 0 if result.suffix is None else len(seq) - result.suffix.start,
        "total_units": result.total_units,
        "total_transitions": result.total_transitions,
        "total_moves": result.total_moves,
        "phases": [
            {**vars(stats), "cost_units": stats.cost_units, "opt_units": phase_opt}
            for stats, phase_opt in zip(result.phases, phase_opts)
        ],
    }
    if result.suffix is not None:
        report["suffix"] = {
            "start": result.suffix.start,
            "transitions": result.suffix.transitions,
            "moves": result.suffix.moves,
            "movement_units": result.suffix.movement_units,
            "processing_units": result.suffix.processing_units,
        }
    report["opt_units"] = opt_total
    report["cost_ratio"] = round_ratio_half_up(result.total_units, opt_total)
    return report
