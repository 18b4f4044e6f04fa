"""Reference engine accounting on small frozen inputs."""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from mtslab.core import (
    TaskSequence,
    decompose_phases,
    from_json_dict,
    schedule_cost,
    to_json_dict,
)
from mtslab.engine import run_scheduler, summarize
from mtslab.errors import ConfigurationError, MalformedInputError
from mtslab.schedulers import scheduler_names


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
    assert [p.movement_units for p in run.phases] == [2, 2]
    # Process-then-move: the saturating step is still paid at the old state.
    assert [p.processing_units for p in run.phases] == [2 + 1, 2 + 1]
    assert run.suffix.start == 4
    assert run.suffix.transitions == 0
    assert run.suffix.processing_units == 1
    assert run.total_units == 2 + 3 + 2 + 3 + 1
    assert run.conforming


def test_engine_costs_match_schedule_audit():
    seq = _two_phase_sequence()
    run = run_scheduler(seq, "lps")
    total, movement, processing = schedule_cost(
        seq.tasks, seq.granularity, run.schedule, start_state=0)
    assert run.total_units == total
    moves_units = sum(p.movement_units for p in run.phases) + run.suffix.movement_units
    proc_units = sum(p.processing_units for p in run.phases) + run.suffix.processing_units
    assert moves_units == movement
    assert proc_units == processing


def test_phase_stats_expose_prediction_error():
    seq = _two_phase_sequence()
    run = run_scheduler(seq, "lowest-index")
    # Phase 0 truth sat steps are [0, 1]; block says [0, 1]: error 0.
    # Phase 1 truth sat steps are [3, 2]; block says [3, 2]: error 0.
    assert [p.pst_error for p in run.phases] == [0, 0]


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
    assert len(run.phases) == 2


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
