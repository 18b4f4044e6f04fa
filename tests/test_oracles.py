"""Reference enumerations agree with the closed forms they certify."""

from bisect import bisect_right
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mtslab.adversaries import _fit_budget, random_unit_sequence, reversal_sequence
from mtslab.analysis import harmonic_number, max_footrule
from mtslab.core import (
    TaskSequence,
    decompose_phases,
    load_task_sequence,
    next_demand,
    save_task_sequence,
    schedule_cost,
)
from mtslab.engine import run_scheduler
from mtslab.opt import opt_schedule, opt_units, phase_opt_units
from mtslab.oracles import (
    decompose_phases_restart,
    expected_walk_visits_bruteforce,
    fit_budget_scalar,
    latest_next_request_scalar,
    max_footrule_bruteforce,
    next_demand_scalar,
    opt_bruteforce,
    opt_units_scalar,
)
from mtslab.schedulers import LowestIndex, NextRequestGreedy, make_scheduler, scheduler_names


@pytest.mark.parametrize("m", range(0, 8))
def test_bruteforce_footrule_matches_closed_form(m):
    assert max_footrule_bruteforce(m) == max_footrule(m)


def test_bruteforce_footrule_rejects_negative():
    with pytest.raises(ValueError):
        max_footrule_bruteforce(-1)


@pytest.mark.parametrize("m", range(1, 7))
def test_walk_visits_equal_harmonic_numbers(m):
    assert expected_walk_visits_bruteforce(m) == harmonic_number(m)


def test_walk_visits_small_values():
    assert expected_walk_visits_bruteforce(1) == 1
    assert expected_walk_visits_bruteforce(2) == Fraction(3, 2)
    assert expected_walk_visits_bruteforce(4) == Fraction(25, 12)


def test_walk_visits_rejects_zero():
    with pytest.raises(ValueError):
        expected_walk_visits_bruteforce(0)


def test_opt_bruteforce_empty_is_zero():
    assert opt_bruteforce([], 3) == 0


def test_opt_bruteforce_weighs_moving_against_processing():
    tasks = [[3, 0], [3, 0]]
    # A 4-unit move to the quiet state beats paying 6 units of demand.
    assert opt_bruteforce(tasks, 4) == 4
    # With a 10-unit move the demand is the cheaper of the two.
    assert opt_bruteforce(tasks, 10) == 6


def test_opt_bruteforce_free_start_skips_initial_move():
    tasks = [[3, 0], [3, 0]]
    # From state 0 the best fixed-start schedule buys one move; a free
    # start opens in the quiet state and pays nothing at all.
    assert opt_bruteforce(tasks, 3) == 3
    assert opt_bruteforce(tasks, 3, free_start=True) == 0


def test_opt_bruteforce_single_state():
    tasks = [[2], [1]]
    assert opt_bruteforce(tasks, 5) == 3


@st.composite
def task_sequences(draw):
    n = draw(st.integers(1, 4))
    granularity = draw(st.integers(1, 3))
    # Entries up to the threshold make simultaneous saturations common;
    # all-zero rows are drawn on purpose as well.
    row = st.one_of(
        st.just([0] * n),
        st.lists(st.integers(0, granularity), min_size=n, max_size=n),
    )
    tasks = draw(st.lists(row, max_size=14))
    # Prediction blocks on drawn steps: some open a phase, some do not.
    starts = sorted(draw(st.sets(st.integers(0, max(len(tasks) - 1, 0)), max_size=4)))
    block = st.lists(st.integers(0, 16), min_size=n, max_size=n).map(tuple)
    pst = {s: draw(block) for s in starts}
    return TaskSequence(n=n, granularity=granularity, tasks=tasks, pst=pst or None)


class _RecordingWalk(LowestIndex):
    """Lowest-index walk that records every forced move the engine asks for."""

    name = "recording"

    def __init__(self):
        super().__init__()
        self.calls = []

    def on_saturation(self, current, unsaturated, now, h, latest_lv):
        target = super().on_saturation(current, unsaturated, now, h, latest_lv)
        self.calls.append((current, list(unsaturated), now, target))
        return target


@settings(max_examples=300, deadline=None)
@given(task_sequences())
@example(TaskSequence(n=3, granularity=2, tasks=[]))
@example(TaskSequence(n=2, granularity=2, tasks=[[0, 0], [2, 2], [0, 0], [1, 0]]))
# One long phase, then many short ones and a trailing phase that one state
# never saturates.
@example(TaskSequence(n=2, granularity=2,
                      tasks=[[0, 0]] * 12 + [[1, 1]] * 2 + [[2, 2]] * 8 + [[2, 0]]))
# Short phases, then one long enough to double the window several times.
@example(TaskSequence(n=2, granularity=1,
                      tasks=[[1, 1]] * 3 + [[1, 0]] + [[0, 0]] * 30 + [[0, 1], [1, 1]]))
# A state that never saturates, so no phase completes.
@example(TaskSequence(n=3, granularity=2, tasks=[[2, 2, 0], [2, 2, 1], [0, 0, 0], [2, 2, 0]]))
# A trailing phase that runs long past its window.
@example(TaskSequence(n=1, granularity=3, tasks=[[3]] + [[0]] * 20 + [[1]]))
# Sums from step 0 wrap in int64 where each phase's own sums do not.
@example(TaskSequence(n=1, granularity=2**63 - 1, tasks=[[2**63 - 1], [0], [0]]))
@example(TaskSequence(n=2, granularity=2**62,
                      tasks=[[2**62, 0], [2**62, 0], [2**62, 2**62], [2**62, 2**62]]))
def test_single_sum_decomposition_matches_restart_oracle(seq):
    phases = decompose_phases(seq)
    assert phases == decompose_phases_restart(seq)
    assert all(p.complete for p in phases[:-1])
    for phase in phases:
        sat = phase.sat_step
        for s in range(seq.n):
            assert phase.later(s) == [t for t in range(seq.n) if sat[t] > sat[s]]

    sched = _RecordingWalk()
    run = run_scheduler(seq, sched)
    starts = [p.start for p in phases]
    for current, unsaturated, now, _ in sched.calls:
        truth = phases[bisect_right(starts, now) - 1].sat_step
        assert now == truth[current]
        assert unsaturated == [s for s in range(seq.n) if truth[s] > now]
    if not phases or phases[-1].complete:
        # No forced move past the input's end.
        assert run.suffix is None and not [c for c in sched.calls if c[2] >= len(seq)]
        return

    trailing = phases[-1]
    suffix_start, truth = trailing.start, trailing.sat_step
    trailing_calls = [c for c in sched.calls if c[2] >= suffix_start]
    assert trailing.end == len(seq) - 1
    # The engine walks the trailing phase on the same saturation steps.
    assert (run.suffix.start, run.suffix.end) == (suffix_start, len(seq) - 1)
    # It stops only on a state that never saturates inside the input.
    final = trailing_calls[-1][3] if trailing_calls else run.schedule[suffix_start]
    assert truth[final] == len(seq)


@pytest.mark.parametrize("seq, expected", [
    # Step 0 saturates the one state at the largest threshold. The phase
    # from step 1 has no demand and never closes, though step 0's sum plus
    # the threshold wraps in int64.
    pytest.param(TaskSequence(n=1, granularity=2**63 - 1, tasks=[[2**63 - 1], [0], [0]]),
                 [(0, 0, (0,), True), (1, 2, (3,), False)], id="top"),
    # State 0's sums from step 0 pass 2**63 on step 1; its sums from each
    # phase start never do.
    pytest.param(TaskSequence(n=2, granularity=2**62,
                              tasks=[[2**62, 0], [2**62, 0], [2**62, 2**62], [2**62, 2**62]]),
                 [(0, 2, (0, 2), True), (3, 3, (3, 3), True)], id="pair"),
])
def test_decomposition_near_the_int64_limit_is_pinned(seq, expected):
    for decompose in (decompose_phases, decompose_phases_restart):
        phases = decompose(seq)
        assert [(p.start, p.end, p.sat_step, p.complete) for p in phases] == expected


_NEAR_LIMIT = [0, 1, 2**60, 2**61, 2**62, 2**62 + 2**61, 2**63 - 1]


def _scan_phases(tasks, n, granularity):
    """Phases as (start, end, sat_step, complete), summed in Python ints.

    Also returns the largest running sum on any saturation step.
    """
    total = len(tasks)
    phases, peak, start = [], 0, 0
    while start < total:
        sat = []
        for s in range(n):
            run, t = 0, start
            while t < total:
                run += tasks[t][s]
                if run >= granularity:
                    peak = max(peak, run)
                    break
                t += 1
            sat.append(t)
        end = max(sat)
        phases.append((start, min(end, total - 1), tuple(sat), end < total))
        start = end + 1
    return phases, peak


@st.composite
def near_limit_sequences(draw):
    n = draw(st.integers(1, 3))
    granularity = draw(st.sampled_from(_NEAR_LIMIT[1:]))
    row = st.lists(st.sampled_from(_NEAR_LIMIT), min_size=n, max_size=n)
    return n, granularity, draw(st.lists(row, max_size=10))


@settings(max_examples=300, deadline=None)
@given(near_limit_sequences())
def test_decomposition_is_exact_while_phase_sums_fit_in_int64(drawn):
    n, granularity, tasks = drawn
    expected, peak = _scan_phases(tasks, n, granularity)
    # Past 2**63 a phase's own running sum wraps in int64; below it both
    # decompositions must be exact, whatever the sums from step 0 do.
    assume(peak < 2**63)
    seq = TaskSequence(n=n, granularity=granularity, tasks=tasks)
    for decompose in (decompose_phases, decompose_phases_restart):
        phases = decompose(seq)
        assert [(p.start, p.end, p.sat_step, p.complete) for p in phases] == expected


def test_decomposition_across_cumsum_blocks_matches_restart_oracle():
    # Past 1,024 steps at n = 64, the cumulative sums are held in more than
    # one run, each opened at a phase start.
    full = random_unit_sequence(64, 2, 8, seed=1)
    cut = TaskSequence(n=64, granularity=2, tasks=full.tasks[:-100], pst=full.pst)
    for seq in (full, cut):
        assert len(seq) > 2 * 1024
        phases = decompose_phases(seq)
        assert phases == decompose_phases_restart(seq)
        assert phases[-1].complete == (seq is full)


def _unit_phases(n, lengths, trailing=0, seed=0):
    """Tasks at granularity 1 whose phases have the given lengths.

    Each state takes one unit at a random step of each phase, one state on
    its last step. A trailing block of `trailing` steps follows, in which
    every state but state 0 takes a unit, so it never closes.
    """
    rng = np.random.default_rng(seed)
    blocks = []
    for length in [*lengths, trailing]:
        block = np.zeros((length, n), dtype=np.int64)
        if length:
            steps = rng.integers(0, length, size=n)
            steps[rng.integers(n)] = length - 1
            block[steps, np.arange(n)] = 1
        blocks.append(block)
    blocks[-1][:, 0] = 0
    return np.concatenate(blocks)


def _wide_few_steps():
    # At n = 70,000 the first window, 140,000 steps, puts the whole input
    # in one run. Phases [0, 0] and [1, 3] close, and the trailing one,
    # [4, 5], leaves a state unsaturated.
    tasks = np.random.default_rng(3).integers(0, 2, size=(6, 70_000))
    tasks[0] = tasks[3] = 1
    return TaskSequence(n=70_000, granularity=1, tasks=tasks)


# At n = 64 a run sums at least 1,024 steps and the first window is 128
# steps, so the first run of cumulative sums covers steps 0 .. 1,023.
@pytest.mark.parametrize("seq, spans, closes", [
    # Phases of 100 steps: the second run opens at the phase start 900, so
    # the phase at 1,000 reads its own sums as differences from step 900's.
    pytest.param(TaskSequence(n=64, granularity=1, tasks=_unit_phases(64, [100] * 12)),
                 [(1000, 1099)], True, id="phase-across-runs"),
    # The phase at 320 doubles its window past the end of three runs; the
    # last three open at 320, the last one reaching the input's end.
    pytest.param(TaskSequence(n=64, granularity=1,
                              tasks=_unit_phases(64, [64] * 5 + [3000] + [64] * 3, seed=1)),
                 [(320, 3319)], True, id="window-past-run-end"),
    # The trailing phase is longer than a whole run of 1,024 steps.
    pytest.param(TaskSequence(n=64, granularity=1,
                              tasks=_unit_phases(64, [64] * 3, trailing=2500, seed=2)),
                 [(192, 2691)], False, id="long-trailing-phase"),
    # One state: a run sums at least 65,536 steps, and the phases cross
    # the end of the first.
    pytest.param(TaskSequence(n=1, granularity=1000,
                              tasks=np.random.default_rng(4).integers(0, 3, size=(70_000, 1))),
                 [(961, 1969)], False, id="n-1"),
    pytest.param(_wide_few_steps(), [(0, 0), (1, 3), (4, 5)], False, id="n-70000"),
])
def test_decomposition_across_cumsum_runs_matches_restart_oracle(seq, spans, closes):
    phases = decompose_phases(seq)
    assert phases == decompose_phases_restart(seq)
    assert set(spans) <= {(p.start, p.end) for p in phases}
    assert phases[-1].complete == closes


class _RecordingGreedy(NextRequestGreedy):
    """lv-greedy that records the next-request row of every forced move."""

    def __init__(self):
        super().__init__()
        self.rows = []

    def on_saturation(self, current, unsaturated, now, h, latest_lv):
        self.rows.append((now, [int(v) for v in latest_lv]))
        return super().on_saturation(current, unsaturated, now, h, latest_lv)


@st.composite
def lv_sequences(draw):
    n = draw(st.integers(1, 4))
    granularity = draw(st.integers(1, 3))
    steps = draw(st.integers(1, 16))
    # Entries up to the threshold saturate states from step 0 on, and an
    # input cut anywhere usually ends inside a trailing phase.
    tasks = draw(st.lists(st.lists(st.integers(0, granularity), min_size=n, max_size=n),
                          min_size=steps, max_size=steps))
    # Mostly no prediction, often "never", and steps that repeat across
    # rows and states.
    entry = st.one_of(st.just(0), st.just(-1), st.integers(1, 4), st.integers(0, steps + 2))
    lv = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                       min_size=steps, max_size=steps))
    return TaskSequence(n=n, granularity=granularity, tasks=tasks, lv=lv)


@settings(max_examples=150, deadline=None)
@given(lv_sequences())
@example(TaskSequence(n=2, granularity=1, tasks=[[1, 0], [0, 1], [0, 1]],
                      lv=[[-1, 3], [0, 0], [2, 0]]))
@example(TaskSequence(n=3, granularity=2, tasks=[[2, 1, 0], [0, 1, 1], [0, 2, 2], [0, 0, 2]],
                      lv=[[0, -1, 0], [5, 0, -1], [0, 0, 0], [-1, 3, 3]]))
def test_forward_filled_next_requests_match_replay_oracle(seq):
    sched = _RecordingGreedy()
    run_scheduler(seq, sched)
    lv = seq.lv.tolist()
    for now, row in sched.rows:
        assert row == latest_next_request_scalar(lv, now)


class _RecordingLowest(LowestIndex):
    """lowest-index that records the next-request row of every forced move."""

    def __init__(self):
        super().__init__()
        self.rows = []

    def on_saturation(self, current, unsaturated, now, h, latest_lv):
        self.rows.append([int(v) for v in latest_lv])
        return super().on_saturation(current, unsaturated, now, h, latest_lv)


def _stream_words(sched):
    stream = sched.stream
    return None if stream is None else [getattr(stream, w) for w in stream.__slots__]


@settings(max_examples=100, deadline=None)
@given(lv_sequences(), st.integers(0, 3))
def test_schedulers_without_lv_run_the_same_with_and_without_it(seq, seed):
    # Every phase gets a prediction block, so the pst schedulers run too.
    pst = {p.start: p.sat_step[::-1] for p in decompose_phases(seq)}
    with_lv = TaskSequence(seq.n, seq.granularity, seq.tasks, pst=pst, lv=seq.lv)
    without_lv = TaskSequence(seq.n, seq.granularity, seq.tasks, pst=pst)
    names = [name for name in scheduler_names() if not make_scheduler(name).needs_lv]
    assert names and "oblivious" in names
    for name in names:
        runs = []
        for variant in (with_lv, without_lv):
            sched = make_scheduler(name)
            run = run_scheduler(variant, sched, seed=seed)
            runs.append((run.schedule, run.all_phases, _stream_words(sched)))
        assert runs[0] == runs[1], name

    custom = _RecordingLowest()
    run_scheduler(with_lv, custom)
    assert all(row == [0] * seq.n for row in custom.rows)


@st.composite
def demand_tables(draw):
    n = draw(st.integers(1, 4))
    # All-zero rows are common, and so are rows demanding several states.
    row = st.one_of(st.just([0] * n), st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return n, draw(st.lists(row, max_size=16))


@settings(max_examples=300, deadline=None)
@given(demand_tables())
@example((2, []))
@example((3, [[0, 0, 0], [1, 0, 2], [0, 0, 0], [0, 1, 1], [0, 0, 0]]))
def test_next_demand_matches_reverse_scan(case):
    n, tasks = case
    arr = np.asarray(tasks, dtype=np.int64).reshape(len(tasks), n)
    assert next_demand(arr).tolist() == next_demand_scalar(tasks)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-40, 40), min_size=1, max_size=8), st.integers(0, 200))
@example([5, -5, 5], 4)
@example([0, 0], 0)
@example([-3, 3, 2, 3], 6)
def test_closed_form_budget_matches_per_unit_loop(deltas, eta0):
    assert _fit_budget(list(deltas), eta0) == fit_budget_scalar(deltas, eta0)


def _span(start, end):
    return SimpleNamespace(start=start, end=end)


@st.composite
def opt_cases(draw):
    n = draw(st.integers(1, 5))
    granularity = draw(st.integers(1, 4))
    row = st.one_of(
        st.just([0] * n),
        st.lists(st.integers(0, 2 * granularity), min_size=n, max_size=n),
    )
    tasks = draw(st.lists(row, max_size=16))
    spans = []
    if tasks:
        for start in draw(st.lists(st.integers(0, len(tasks) - 1), max_size=8)):
            spans.append(_span(start, draw(st.integers(start, len(tasks) - 1))))
    return n, granularity, tasks, spans


# One long phase followed by many one-step phases: the lockstep block
# shrinks to a single row after the first step.
_SKEWED = (2, 3, [[1, 0], [0, 2], [3, 3]] * 10 + [[2, 1]] * 12,
           [_span(0, 29)] + [_span(t, t) for t in range(30, 42)])


@settings(max_examples=300, deadline=None)
@given(opt_cases())
@example((3, 2, [], []))
@example((1, 2, [[2], [0], [5]], [_span(0, 2), _span(1, 1)]))
@example((3, 1, [[0, 0, 0]] * 5, [_span(0, 4), _span(2, 3)]))
@example(_SKEWED)
def test_vectorized_optimum_matches_scalar_oracle(case):
    n, g, tasks, spans = case
    assert opt_units(tasks, g) == opt_units_scalar(tasks, g)

    arr = np.asarray(tasks, dtype=np.int64).reshape(len(tasks), n)
    whole = _span(0, len(tasks) - 1)
    assert phase_opt_units(arr, g, [whole]) == [opt_units_scalar(tasks, g, free_start=True)]
    assert phase_opt_units(arr, g, spans) == [
        opt_units_scalar(tasks[p.start : p.end + 1], g, free_start=True) for p in spans
    ]

    cost, schedule = opt_schedule(tasks, g)
    assert cost == opt_units_scalar(tasks, g)
    assert schedule_cost(tasks, g, schedule, start_state=0)[0] == cost


@st.composite
def long_opt_cases(draw):
    """Up to about 400 rows in runs: zero runs, single units, and dense rows past g."""
    n = draw(st.integers(1, 6))
    granularity = draw(st.integers(1, 5))
    runs = []
    for kind, length, seed in draw(st.lists(
            st.tuples(st.sampled_from(["zeros", "units", "dense"]),
                      st.integers(1, 120), st.integers(0, 2**16)),
            max_size=8)):
        rng = np.random.default_rng(seed)
        if kind == "zeros":
            runs.append(np.zeros((length, n), dtype=np.int64))
        elif kind == "units":
            runs.append(np.eye(n, dtype=np.int64)[rng.integers(0, n, length)])
        else:
            runs.append(rng.integers(0, 3 * granularity + 1, (length, n)))
    tasks = np.concatenate(runs) if runs else np.empty((0, n), dtype=np.int64)
    return granularity, tasks[:400]


@settings(max_examples=200, deadline=None)
@given(long_opt_cases())
# All zeros: one block runs to the end of the input.
@example((2, np.zeros((300, 3), dtype=np.int64)))
@example((3, np.array([[0], [2], [5], [0], [1], [3], [0], [0], [4]] * 30)))
# The granularity exceeds the whole input's total: no block closes.
@example((10**6, np.random.default_rng(1).integers(0, 5, (350, 4))))
# One long block, then many one-step blocks after a wide window.
@example((2, np.array([[0, 0]] * 150 + [[2, 2]] * 60 + [[1, 3], [3, 1]] * 40)))
def test_blocked_optimum_matches_scalar_oracle_on_long_inputs(case):
    g, tasks = case
    rows = tasks.tolist()
    assert opt_units(tasks, g) == opt_units_scalar(rows, g)
    assert phase_opt_units(tasks, g, [_span(0, len(tasks) - 1)]) == \
        [opt_units_scalar(rows, g, free_start=True)]


@pytest.mark.parametrize("make", [
    lambda: reversal_sequence(16, 16, 24, 12),
    lambda: random_unit_sequence(8, 8, 12, seed=3),
], ids=["reversal", "random-unit"])
def test_blocked_optimum_matches_scalar_oracle_on_generated_files(tmp_path, make):
    path = tmp_path / "input.json"
    save_task_sequence(make(), path)
    seq = load_task_sequence(path)
    rows = seq.tasks.tolist()
    g = seq.granularity
    assert opt_units(seq.tasks, g) == opt_units_scalar(rows, g)
    assert phase_opt_units(seq.tasks, g, [_span(0, len(rows) - 1)]) == \
        [opt_units_scalar(rows, g, free_start=True)]
