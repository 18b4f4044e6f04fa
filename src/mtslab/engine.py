"""Exact simulator of one scheduler over one task sequence.

Drives one scheduler over one task sequence, phase by phase, with exact
integer accounting. By name, oblivious and lps walk every phase in their
own ``walk_phases``: oblivious in one loop that reads its stream draw for
draw and takes each move's candidates from ``Phase.later``, lps from a
table of saturation steps and a table of the dense ranks of the
prediction blocks, in at most n - 1 array rounds per run. Every other
registered name runs on the event path: the engine calls the scheduler's
own hooks itself, once per phase opening and once per saturation of its
current state, over the phase's cached candidate lists. A ``Scheduler``
instance runs through the movement protocol of ``schedulers.Walk``, which
checks every answer; that path is the only one for custom schedulers and
the oracle the other paths' moves and transitions are tested against.
Every path keeps the move log, from which ``RunResult.schedule`` (the
state occupied at every step) is built when it is read, and three
per-phase columns: transitions, moves and one sum of processing units per
phase, which is audited against ``core.schedule_cost``.

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
``RunResult``'s columns follow the decomposition, the trailing phase last;
its ``phases`` builds one ``PhaseStats`` per phase from them when read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analysis import round_ratio_half_up
from .core import Phase, TaskSequence, decompose_phases
from .errors import ConfigurationError
from .opt import opt_units, phase_opt_units
from .rng import check_seed
from .schedulers import Scheduler, Walk

__all__ = ["PhaseStats", "RunResult", "run_scheduler", "summarize"]


@dataclass
class PhaseStats:
    """One phase's counts and costs in a run; ``phase`` is the decomposed phase."""

    phase: Phase
    transitions: int
    moves: int
    movement_units: int
    processing_units: int

    @property
    def cost_units(self) -> int:
        return self.movement_units + self.processing_units


@dataclass
class RunResult:
    """One run's per-phase counts, as columns, and its move log.

    ``decomposition`` is the phase list the run walked, in order, so the
    trailing partial phase, if any, is last with ``complete`` False.
    ``transitions``, ``move_counts`` and ``processing_units`` hold one
    Python int per phase of it, aligned with it; each move costs
    ``granularity`` units. ``moves`` holds every move as (effective step,
    target state), the target occupied from that step on; ``steps`` is the
    input length. ``phases`` and ``schedule`` are built when read.
    """

    scheduler: str
    seed: int
    trial_index: int
    steps: int = 0
    granularity: int = 1
    decomposition: list = field(default_factory=list)
    transitions: list = field(default_factory=list)
    move_counts: list = field(default_factory=list)
    processing_units: list = field(default_factory=list)
    moves: list = field(default_factory=list)
    conforming: bool = True

    @property
    def phases(self) -> list:
        """One ``PhaseStats`` per phase of the decomposition, built from the columns."""
        gran = self.granularity
        return [PhaseStats(phase, transitions, moves, moves * gran, processing)
                for phase, transitions, moves, processing in zip(
                    self.decomposition, self.transitions, self.move_counts,
                    self.processing_units)]

    @property
    def schedule(self) -> list:
        """The state occupied at every step, built from the move log."""
        return _schedule(self.moves, self.steps).tolist()

    @property
    def transitions_per_phase(self) -> list:
        """Transitions in each complete phase."""
        return [t for p, t in zip(self.decomposition, self.transitions) if p.complete]

    @property
    def total_transitions(self) -> int:
        return sum(self.transitions)

    @property
    def total_moves(self) -> int:
        return sum(self.move_counts)

    @property
    def total_units(self) -> int:
        return self.total_moves * self.granularity + sum(self.processing_units)


def run_scheduler(seq: TaskSequence, scheduler, seed: int = 0, trial_index: int = 0,
                  phases=None) -> RunResult:
    """Simulate one scheduler over one sequence; exact integer accounting.

    ``scheduler`` is a registered name, which runs on the event path
    (oblivious and lps in their own ``walk_phases``), or a ``Scheduler``
    instance, which runs through ``Walk``; both give the same result.
    ``seed`` must be in [0, 2**64).
    ``phases``, when given, must be ``decompose_phases(seq)``: every
    phase, the trailing partial one last.
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
    bare = next((p for p in phases if p.h is None), None) if sched.needs_pst else None
    if bare is not None:
        raise ConfigurationError(
            f"scheduler {sched.name!r} needs a prediction block for the phase "
            f"starting at step {bare.start} and the input has none"
        )

    walk_phases = getattr(sched, "walk_phases", None) if event else None
    if walk_phases is not None and phases:
        walk.moves, transitions, move_counts = walk_phases(phases)
    else:
        latest_lv = _latest_next_request(seq, sched.needs_lv)
        walk_phase = _event_phase if event else _walk_phase
        transitions, move_counts = [], []
        for phase in phases:
            logged = len(walk.moves)
            transitions.append(walk_phase(walk, phase, latest_lv))
            move_counts.append(len(walk.moves) - logged)

    return RunResult(
        scheduler=sched.name,
        seed=seed,
        trial_index=trial_index,
        steps=len(seq),
        granularity=seq.granularity,
        decomposition=phases,
        transitions=transitions,
        move_counts=move_counts,
        processing_units=_units(seq, walk.moves, phases),
        moves=walk.moves,
        conforming=sched.conforming,
    )


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
    schedulers without a ``walk_phases``, whose answers are valid by
    construction: their hooks are called directly, over the phase's
    cached candidate lists."""
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


def _units(seq: TaskSequence, moves, phases) -> list:
    """Processing units per phase: one gather of the per-step costs along the
    schedule and one sum per phase, from its start to the next phase's."""
    total, n = seq.tasks.shape
    if not phases:
        return []
    per_step = seq.tasks.reshape(-1).take(_schedule(moves, total) + np.arange(0, total * n, n))
    # The phases tile the input. int64 is exact while no partial sum can reach 2**63.
    if int(per_step.max()) * total >= 1 << 63:
        per_step = per_step.tolist()
        return [sum(per_step[p.start : p.end + 1]) for p in phases]
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

    Each complete phase's row holds its span, its counts and costs, its
    prediction error and its own optimum, which lets the comparison
    schedule open the phase in any state for free; the trailing partial
    phase, if any, is reported as ``suffix``, without an optimum. The
    whole-sequence optimum opens in state 0, as the run does. Both optima
    are exact. The cost ratio is the exact quotient rounded half-up to six
    decimal places, empty when the optimum is zero.
    """
    complete = [stats for stats in result.phases if stats.phase.complete]
    trailing = result.phases[len(complete):]  # the partial phase, if any
    phase_opts = phase_opt_units(seq.tasks, seq.granularity, [s.phase for s in complete])
    opt_total = opt_units(seq.tasks, seq.granularity)
    report: dict = {
        "scheduler": result.scheduler,
        "seed": result.seed,
        "trial_index": result.trial_index,
        "n": seq.n,
        "granularity": seq.granularity,
        "steps": len(seq.tasks),
        "complete_phases": len(complete),
        "suffix_steps": len(seq) - trailing[0].phase.start if trailing else 0,
        "total_units": result.total_units,
        "total_transitions": result.total_transitions,
        "total_moves": result.total_moves,
        "phases": [
            {"index": s.phase.index, "start": s.phase.start, "end": s.phase.end,
             **_counts(s), "pst_error": s.phase.pst_error,
             "cost_units": s.cost_units, "opt_units": phase_opt}
            for s, phase_opt in zip(complete, phase_opts)
        ],
    }
    if trailing:
        report["suffix"] = {"start": trailing[0].phase.start, **_counts(trailing[0])}
    report["opt_units"] = opt_total
    report["cost_ratio"] = round_ratio_half_up(result.total_units, opt_total)
    return report


def _counts(stats: PhaseStats) -> dict:
    """The counts a phase row and the suffix both report."""
    return {"transitions": stats.transitions, "moves": stats.moves,
            "movement_units": stats.movement_units,
            "processing_units": stats.processing_units}
