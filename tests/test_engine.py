"""Reference engine accounting on small frozen inputs."""

import copy
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from mtslab import schedulers
from mtslab.core import (
    TaskSequence,
    decompose_phases,
    from_json_dict,
    next_demand,
    schedule_cost,
    to_json_dict,
)
from mtslab.engine import run_scheduler, summarize
from mtslab.errors import ConfigurationError, MalformedInputError
from mtslab.kernels import simulate_family_trials
from mtslab.rng import seed_words, trial_seed
from mtslab.schedulers import make_scheduler, scheduler_names


def _two_phase_sequence():
    # n=2, granularity 2; two complete phases plus one trailing step.
    return TaskSequence(
        n=2,
        granularity=2,
        tasks=[
            [2, 1],  # state 0 saturates immediately
            [0, 1],  # state 1 saturates; phase 0 ends
            [1, 2],  # state 1 saturates immediately
            [1, 0],  # state 0 saturates; phase 1 ends
            [1, 0],  # trailing suffix step
        ],
        pst={0: (0, 1), 2: (3, 2), 4: (9, 9)},
    )


def test_lowest_index_frozen_run():
    seq = _two_phase_sequence()
    run = run_scheduler(seq, "lowest-index")
    assert run.transitions_per_phase == [1, 1]
    assert run.schedule == [0, 1, 1, 0, 0]
    # One move per phase at granularity 2.
    assert [p.movement_units for p in run.phases[:-1]] == [2, 2]
    # Process-then-move: the saturating step is still paid at the old state.
    assert [p.processing_units for p in run.phases[:-1]] == [2 + 1, 2 + 1]
    trailing = run.phases[-1]
    assert trailing.phase.start == 4
    assert trailing.transitions == 0
    assert trailing.processing_units == 1
    assert run.total_units == 2 + 3 + 2 + 3 + 1
    assert run.conforming


def test_engine_costs_match_schedule_audit():
    # Every scheduler, on the event path and through Walk; the last phase trails.
    base = _two_phase_sequence()
    seq = TaskSequence(n=base.n, granularity=base.granularity, tasks=base.tasks,
                       pst=base.pst, lv=next_demand(base.tasks))
    for name in scheduler_names():
        for scheduler in (name, make_scheduler(name)):
            run = run_scheduler(seq, scheduler, seed=3)
            total, movement, processing = schedule_cost(
                seq.tasks, seq.granularity, run.schedule, start_state=0)
            assert run.total_units == total
            assert sum(p.movement_units for p in run.phases) == movement
            assert sum(p.processing_units for p in run.phases) == processing
            assert not run.phases[-1].phase.complete
            for p in run.phases:
                steps = slice(p.phase.start, p.phase.end + 1)
                _, _, processing = schedule_cost(seq.tasks[steps], seq.granularity,
                                                 run.schedule[steps])
                assert p.processing_units == processing, (name, p.phase.index)


def test_phase_stats_expose_prediction_error():
    seq = _two_phase_sequence()
    run = run_scheduler(seq, "lowest-index")
    # Phase 0 truth sat steps are [0, 1]; block says [0, 1]: error 0.
    # Phase 1 truth sat steps are [3, 2]; block says [3, 2]: error 0.
    assert [p.phase.pst_error for p in run.phases[:-1]] == [0, 0]


def test_missing_prediction_blocks_are_rejected():
    seq = _two_phase_sequence()
    bare = TaskSequence(n=seq.n, granularity=seq.granularity, tasks=seq.tasks)
    with pytest.raises(ConfigurationError):
        run_scheduler(bare, "lps")
    with pytest.raises(ConfigurationError):
        run_scheduler(bare, "lv-greedy")


def test_suffix_needs_its_own_prediction_block():
    seq = _two_phase_sequence()
    trimmed = TaskSequence(
        n=seq.n, granularity=seq.granularity, tasks=seq.tasks,
        pst={s: seq.pst[s] for s in (0, 2)})
    with pytest.raises(ConfigurationError):
        run_scheduler(trimmed, "lps")
    # Schedulers that ignore predictions run fine without the block.
    run = run_scheduler(trimmed, "lowest-index")
    assert len(run.transitions_per_phase) == 2


def test_randomized_runs_are_reproducible_per_trial():
    seq = _two_phase_sequence()
    a = run_scheduler(seq, "oblivious", seed=9, trial_index=4)
    b = run_scheduler(seq, "oblivious", seed=9, trial_index=4)
    assert a.schedule == b.schedule
    assert a.total_units == b.total_units
    runs = [run_scheduler(seq, "oblivious", seed=9, trial_index=t).schedule
            for t in range(12)]
    assert any(s != runs[0] for s in runs[1:])


def test_summarize_report_shape():
    seq = _two_phase_sequence()
    run = run_scheduler(seq, "lowest-index")
    report = summarize(seq, run)
    assert report["complete_phases"] == 2
    assert report["steps"] == 5
    assert report["suffix_steps"] == 1
    assert report["total_units"] == run.total_units
    assert len(report["phases"]) == 2
    for row in report["phases"]:
        assert row["cost_units"] == row["movement_units"] + row["processing_units"]
        # Free-start optimum of a complete phase is exactly one threshold.
        assert row["opt_units"] == seq.granularity
    assert report["suffix"]["start"] == 4
    assert report["opt_units"] > 0
    assert "." in report["cost_ratio"]


def test_run_lists_every_phase_once_with_the_trailing_one_last():
    seq = _two_phase_sequence()
    # At this seed oblivious also moves in the trailing phase.
    run = run_scheduler(seq, "oblivious", seed=2)
    assert [p.phase for p in run.phases] == decompose_phases(seq)
    trailing = run.phases[-1]
    assert not trailing.phase.complete
    assert (trailing.transitions, trailing.moves, trailing.cost_units) == (1, 1, 2)
    # Totals cover the trailing phase; the per-phase transitions do not.
    assert run.transitions_per_phase == [1, 2]
    assert run.total_transitions == 1 + 2 + 1
    assert run.total_moves == 1 + 1 + 1
    assert run.total_units == 4 + 5 + 2
    report = summarize(seq, run)
    assert len(report["phases"]) == 2
    assert report["suffix"] == {
        "start": trailing.phase.start, "transitions": trailing.transitions,
        "moves": trailing.moves, "movement_units": trailing.movement_units,
        "processing_units": trailing.processing_units,
    }


# Small integers fit most fields, so a good share of spliced payloads load
# and reach the schedulers; the rest probe the input checks.
_JSON_VALUES = st.integers(-2, 16) | st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)


@st.composite
def _valid_payloads(draw):
    """A loadable payload with truthful pst blocks and an lv table; n <= 4, <= 12 steps."""
    n = draw(st.integers(1, 4))
    steps = draw(st.integers(0, 12))
    row = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    seq = TaskSequence(n=n, granularity=draw(st.integers(1, 4)),
                       tasks=draw(st.lists(row, min_size=steps, max_size=steps)))
    phases = decompose_phases(seq)
    payload = to_json_dict(seq)
    payload["pst"] = [{"phase_start": ph.start, "h": list(ph.sat_step)} for ph in phases]
    lv_row = st.lists(st.integers(-1, steps + 2), min_size=n, max_size=n)
    payload["lv"] = {"next_request": draw(st.lists(lv_row, min_size=steps, max_size=steps))}
    return payload


def _fields(value, path=()):
    """Every position in a JSON value, the value itself included."""
    yield path
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield from _fields(child, path + (key,))


@settings(max_examples=200, deadline=None)
@given(payload=_valid_payloads(), data=st.data(), value=_JSON_VALUES)
def test_spliced_payloads_load_and_run_or_fail_cleanly(payload, data, value):
    """Any JSON value in any field: MalformedInputError, or every built-in
    scheduler runs (or refuses the input with ConfigurationError)."""
    path = data.draw(st.sampled_from(list(_fields(payload))), label="path")
    if path:
        payload = copy.deepcopy(payload)
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        payload = value
    try:
        seq = from_json_dict(payload)
    except MalformedInputError:
        return
    for name in scheduler_names():
        try:
            run_scheduler(seq, name, seed=0)
        except ConfigurationError:
            pass


@st.composite
def _event_inputs(draw):
    """Small inputs with many ties, prediction blocks (some missing) of
    small ints, of floats, or of values that only Python orders exactly,
    and, often, an lv table that holds -1 and 0."""
    n = draw(st.integers(1, 5))
    granularity = draw(st.integers(1, 3))
    steps = draw(st.integers(0, 24))
    tasks = draw(st.lists(st.lists(st.integers(0, granularity), min_size=n, max_size=n),
                          min_size=steps, max_size=steps))
    bare = TaskSequence(n=n, granularity=granularity, tasks=tasks)
    exact = st.sampled_from([-(2**64), -1, 2.0**53, 2**53 + 1, 2**64])
    value = draw(st.sampled_from([st.integers(0, 3), st.floats(0, 3, width=16), exact]))
    pst = {}
    for phase in decompose_phases(bare):
        if draw(st.integers(0, 9)):  # one block in ten is missing
            pst[phase.start] = tuple(draw(st.lists(value, min_size=n, max_size=n)))
    lv = None
    if draw(st.booleans()):
        entry = st.sampled_from([-1, 0, 0, 1, 2, steps + 1])
        lv = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                           min_size=steps, max_size=steps))
    return TaskSequence(n=n, granularity=granularity, tasks=tasks, pst=pst, lv=lv)


def _outcome(seq, scheduler, seed, trial_index, phases=None):
    """A run (every field), its schedule and its stream's final words, or the error text."""
    made = []

    def recording(name):
        made.append(make_scheduler(name))
        return made[-1]

    try:
        with mock.patch.object(schedulers, "make_scheduler", recording):
            run = run_scheduler(seq, scheduler, seed=seed, trial_index=trial_index,
                                phases=phases)
    except ConfigurationError as exc:
        return str(exc)
    sched = made[0] if made else scheduler
    stream = sched.stream and [getattr(sched.stream, w) for w in sched.stream.__slots__]
    return run, run.schedule, stream


@settings(max_examples=200, deadline=None)
@given(seq=_event_inputs(), seed=st.integers(0, 2**64 - 1), trials=st.integers(1, 3))
# Ties in sat_step and in h: states saturate together, and every block ties.
@example(seq=TaskSequence(n=3, granularity=1, tasks=[[1, 1, 1], [0, 1, 1], [1, 1, 0]] * 2,
                          pst={0: (1, 1, 1), 1: (2, 2, 2), 3: (0, 0, 0), 4: (2, 2, 2)}),
         seed=0, trials=3)
# Float blocks, a trailing phase and lv entries of -1 and 0.
@example(seq=TaskSequence(n=2, granularity=2, tasks=[[2, 0], [0, 2], [1, 0]],
                          pst={0: (0.5, 1.5), 2: (2.0, 2.0)}, lv=[[-1, 0], [0, 2], [0, -1]]),
         seed=2**64 - 1, trials=2)
# States saturate one after another, so a walk reads several candidate
# lists of one phase.
@example(seq=TaskSequence(n=3, granularity=1, tasks=[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                          pst={0: (0, 1, 2)}), seed=0, trials=1)
# Prediction blocks that float64 keys would tie: 2**53 + 1 is the larger.
@example(seq=TaskSequence(n=2, granularity=1, tasks=[[1, 0], [0, 1]],
                          pst={0: (2.0**53, 2**53 + 1)}), seed=0, trials=1)
# Ints past int64 and negative ints, with a negative tie in the second block.
@example(seq=TaskSequence(n=3, granularity=1, tasks=[[0, 0, 1], [1, 0, 0], [0, 1, 0]] * 2,
                          pst={0: (-(2**65), -3, 2**64 + 1), 3: (-1, -2, -1)}),
         seed=0, trials=1)
# Every state saturates on one step, and the second phase opens where the
# first one ended.
@example(seq=TaskSequence(n=3, granularity=1, tasks=[[1, 1, 1], [1, 1, 1]],
                          pst={0: (0, 5, 5), 1: (0, 5, 5)}), seed=0, trials=1)
# No steps, so no phases.
@example(seq=TaskSequence(n=2, granularity=1, tasks=[], pst={}), seed=0, trials=1)
# The trailing phase has no block: both paths refuse the input with one text.
@example(seq=TaskSequence(n=2, granularity=1, tasks=[[1, 0], [0, 1], [1, 0]],
                          pst={0: (1, 2)}), seed=0, trials=1)
def test_event_walk_matches_checked_walk(deadline, seq, seed, trials):
    """Each built-in by name, on the event path (lps on its table walk) over
    one shared decomposition, equals the same scheduler run as an instance
    through ``Walk``."""
    shared = decompose_phases(seq)
    for trial in range(trials):
        for name in scheduler_names():
            # The event path trusts its candidate lists, so a wrong list can
            # loop forever rather than fail a check.
            with deadline(2):
                event = _outcome(seq, name, seed, trial, phases=shared)
            checked = _outcome(seq, make_scheduler(name), seed, trial)
            assert event == checked, (name, trial)


@pytest.mark.parametrize("seq", [
    # n = 1: every draw has bound 1 and reads nothing; the last step trails.
    TaskSequence(n=1, granularity=2, tasks=[[1], [1], [2], [1]]),
    # Every state saturates on one step, so no forced move follows an opening.
    TaskSequence(n=4, granularity=1, tasks=[[1, 1, 1, 1]] * 3),
    # Tied saturation steps: states 0 and 1, then 2 and 3, saturate together.
    TaskSequence(n=4, granularity=1, tasks=[[1, 1, 0, 0], [0, 0, 1, 1]] * 3),
    # A trailing phase where states 0 and 2 never saturate.
    TaskSequence(n=3, granularity=2, tasks=[[2, 0, 0], [0, 2, 0], [0, 0, 2], [1, 0, 0],
                                            [0, 2, 0]]),
    # Phases of different shapes, one after another, then a trailing one.
    TaskSequence(n=5, granularity=2,
                 tasks=[[2, 2, 0, 0, 0], [0, 0, 2, 1, 0], [0, 0, 0, 1, 2],
                        [1, 0, 1, 0, 1], [1, 1, 1, 1, 1], [0, 1, 0, 2, 1], [1, 0, 0, 0, 0]]),
], ids=["n1", "one-step", "tied", "trailing", "mixed"])
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_oblivious_walk_matches_checked_walk_draw_for_draw(seq, seed):
    """oblivious by name, over one decomposition shared by 40 trials, equals
    the instance through ``Walk``: its move log, its three columns and its
    stream's final four words."""
    shared = decompose_phases(seq)
    for trial in range(40):
        event = _outcome(seq, "oblivious", seed, trial, phases=shared)
        assert event == _outcome(seq, make_scheduler("oblivious"), seed, trial), trial
        run, _, words = event
        assert run.decomposition is shared
        if seq.n == 1:
            # Each opening counts, never moves, and reads no word.
            assert (run.transitions, run.moves) == ([1] * len(shared), [])
            assert words == list(seed_words(trial_seed(seed, trial)))


def test_missing_predictions_raise_the_same_text_on_both_paths():
    seq = _two_phase_sequence()
    bare = TaskSequence(n=seq.n, granularity=seq.granularity, tasks=seq.tasks)
    for name, text in (("lps", "needs a prediction block for the phase starting at step 0"),
                       ("lv-greedy", "needs next-request predictions and the input has none")):
        assert _outcome(bare, name, 0, 0) == _outcome(bare, make_scheduler(name), 0, 0)
        assert text in _outcome(bare, name, 0, 0)


def test_seeds_outside_the_stream_range_are_rejected():
    # The streams read a seed modulo 2**64: -1 and 2**64 would rerun 2**64 - 1 and 0.
    seq = _two_phase_sequence()
    for seed in (-1, 2**64):
        for scheduler in ("oblivious", make_scheduler("oblivious")):
            with pytest.raises(ConfigurationError, match=r"seed must be in \[0, 2\*\*64\)"):
                run_scheduler(seq, scheduler, seed=seed)
        with pytest.raises(ConfigurationError, match=r"seed must be in \[0, 2\*\*64\)"):
            simulate_family_trials("oblivious", "rand-lb", 3, 2, 2, 2, seed=seed)
    top = 2**64 - 1
    assert (run_scheduler(seq, "oblivious", seed=top)
            == run_scheduler(seq, make_scheduler("oblivious"), seed=top))
    counts, _ = simulate_family_trials("oblivious", "rand-lb", 3, 2, 2, 2, seed=top)
    assert counts.shape == (2, 2)


def test_processing_units_stay_exact_past_int64():
    # Each state saturates on one step of 2**62 units, so the phase's
    # processing is 2**63, which an int64 sum would wrap.
    seq = TaskSequence(n=2, granularity=2**62, tasks=[[2**62, 0], [0, 2**62]])
    for scheduler in ("lowest-index", make_scheduler("lowest-index")):
        run = run_scheduler(seq, scheduler)
        assert [p.processing_units for p in run.phases] == [2**63]
        assert run.total_units == 2**63 + 2**62
