"""Reference simulator.

Drives one scheduler over one task sequence, phase by phase, through the
movement protocol of ``schedulers.Walk``, with exact integer accounting.
This is the slow, obviously-correct counterpart to the batched kernels: it
walks real task streams step-indexed, materializes the full schedule (the
state occupied at every step), and recomputes costs from that schedule so
the numbers can be audited independently.

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
from .schedulers import Walk

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
    scheduler: str
    seed: int
    trial_index: int
    n: int
    granularity: int
    phases: list = field(default_factory=list)
    suffix: PhaseStats | None = None
    schedule: list = field(default_factory=list)
    conforming: bool = True

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

    ``phases``, when given, must be ``decompose_phases(seq)``: every phase,
    the trailing partial one last. Callers that run many trials over one
    sequence decompose it once and pass the list to each.
    """
    n = seq.n
    threshold = seq.granularity
    total_steps = len(seq.tasks)
    walk = Walk(scheduler, n, seed=seed, trial_index=trial_index)
    sched = walk.scheduler

    if sched.needs_lv and seq.lv is None:
        raise ConfigurationError(
            f"scheduler {sched.name!r} needs next-request predictions and the input has none"
        )

    if phases is None:
        phases = decompose_phases(seq)
    latest_lv = _latest_next_request(seq, sched.needs_lv)

    result = RunResult(
        scheduler=sched.name,
        seed=seed,
        trial_index=trial_index,
        n=n,
        granularity=threshold,
        conforming=sched.conforming,
    )

    for phase in phases:
        if sched.needs_pst and phase.h is None:
            raise ConfigurationError(
                f"scheduler {sched.name!r} needs a prediction block for the phase "
                f"starting at step {phase.start} and the input has none"
            )
        moved = len(walk.moves)
        transitions = walk.open(phase.start, phase.h)
        while sched.conforming:
            tau = phase.sat_step[walk.state]
            unsat = [s for s in range(n) if phase.sat_step[s] > tau]
            if not unsat:
                break
            walk.forced(tau, unsat, phase.h, latest_lv[tau])
            transitions += 1
        moves = len(walk.moves) - moved

        stats = PhaseStats(
            index=phase.index,
            start=phase.start,
            end=phase.end,
            transitions=transitions,
            moves=moves,
            movement_units=moves * threshold,
            processing_units=0,
            pst_error=phase.pst_error(),
        )
        if phase.complete:
            result.phases.append(stats)
        else:
            result.suffix = stats

    # Segment i runs from its entry step to the next one, in states[i].
    entries, states = zip((0, 0), *walk.moves)
    schedule = np.repeat(states, np.diff(entries, append=total_steps))
    result.schedule = schedule.tolist()

    per_step = seq.tasks[np.arange(total_steps), schedule].tolist()
    for stats in result.all_phases:
        stats.processing_units = sum(per_step[stats.start : stats.end + 1])
    return result


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
