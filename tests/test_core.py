import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mtslab.core import (
    UNIT_LIMIT,
    _check_int,
    _int_rows,
    PhasePrediction,
    TaskSequence,
    decompose_phases,
    from_json_dict,
    load_task_sequence,
    lv_loss,
    pst_error_per_phase,
    save_task_sequence,
    schedule_cost,
    to_json_dict,
)
from mtslab.errors import ConfigurationError, MalformedInputError


def test_schedule_cost_frozen_example():
    # one move (1 unit at granularity 1), zero processing at either stop
    total, move, proc = schedule_cost([[0, 1], [1, 0]], 1, [0, 1], start_state=0)
    assert (total, move, proc) == (1, 1, 0)


def test_schedule_cost_charges_processing_at_current_state():
    tasks = [[3, 0], [0, 2], [5, 1]]
    total, move, proc = schedule_cost(tasks, 4, [0, 0, 1], start_state=0)
    assert move == 4
    assert proc == 3 + 0 + 1
    assert total == move + proc


def test_phase_decomposition_counts_and_suffix():
    seq = TaskSequence(n=2, granularity=2, tasks=[[1, 1], [0, 1], [2, 1], [1, 0]])
    phases, suffix_start = decompose_phases(seq)
    assert len(phases) == 1
    phase = phases[0]
    assert (phase.start, phase.end) == (0, 2)
    assert phase.sat_step == (2, 1)
    assert phase.order == (1, 0)
    assert phase.last_saturated == 0
    assert suffix_start == 3


def test_simultaneous_saturation_orders_by_state_index():
    seq = TaskSequence(n=2, granularity=2, tasks=[[2, 2]])
    phases, suffix_start = decompose_phases(seq)
    assert phases[0].sat_step == (0, 0)
    assert phases[0].order == (0, 1)
    assert phases[0].last_saturated == 1
    assert suffix_start == 1


def test_trailing_phase_gives_unsaturated_states_the_input_length():
    seq = TaskSequence(n=3, granularity=2, tasks=[[2, 2, 2], [0, 2, 1], [1, 0, 0]])
    phases, suffix_start = decompose_phases(seq, include_trailing=True)
    assert [p.complete for p in phases] == [True, False]
    trailing = phases[-1]
    assert (trailing.index, trailing.start, trailing.end) == (1, 1, 2)
    assert suffix_start == 1
    # State 1 saturates at step 1; states 0 and 2 never do inside the input.
    assert trailing.sat_step == (3, 1, 3)
    assert trailing.order == (1, 0, 2)
    assert dataclasses.replace(trailing, h=(3, 1, 3)).pst_error() is None
    assert decompose_phases(seq) == (phases[:1], 1)


@pytest.mark.parametrize("n, granularity", [(0, 1), (1, 0), (-2, 3), (2, -1)])
def test_task_sequence_needs_a_state_and_a_threshold(n, granularity):
    # A zero threshold would make decompose_phases append phases forever.
    with pytest.raises(ConfigurationError, match="n and granularity must be >= 1"):
        TaskSequence(n=n, granularity=granularity, tasks=[[0] * max(n, 1)])
    # A file is checked first, so its exit-3 message names the field.
    payload = {"version": 1, "n": n, "granularity": granularity, "tasks": [[0] * max(n, 1)]}
    bad, value = ("n", n) if n < 1 else ("granularity", granularity)
    with pytest.raises(MalformedInputError, match=f"^{bad} must be >= 1, got {value}$"):
        from_json_dict(payload)


def test_pst_error_per_phase_matches_manual_sum():
    seq = TaskSequence(
        n=2,
        granularity=1,
        tasks=[[1, 0], [0, 1], [0, 1], [1, 0]],
        pst=[
            PhasePrediction(phase_start=0, h=(0, 1)),
            PhasePrediction(phase_start=2, h=(2, 3)),
        ],
    )
    assert pst_error_per_phase(seq) == [0, 2]


def test_lv_loss_counts_absolute_prediction_error():
    tasks = [[1, 0], [0, 1], [1, 0]]
    exact = [[1 + 1, 0], [0, -1], [-1, 0]]
    seq = TaskSequence(n=2, granularity=5, tasks=tasks, lv=exact)
    assert lv_loss(seq) == 0
    off = [[3, 0], [0, -1], [-1, 0]]
    seq_off = TaskSequence(n=2, granularity=5, tasks=tasks, lv=off)
    assert lv_loss(seq_off) == 1


def test_round_trip_is_byte_exact(tmp_path):
    seq = TaskSequence(
        n=2,
        granularity=3,
        tasks=[[1, 2], [3, 0]],
        pst=[PhasePrediction(phase_start=0, h=(1, 0))],
        lv=[[0, 2], [-1, 0]],
    )
    path = tmp_path / "seq.json"
    save_task_sequence(seq, path)
    first = path.read_bytes()
    again = load_task_sequence(path)
    save_task_sequence(again, path)
    assert path.read_bytes() == first
    assert json.loads(first)["version"] == 1


def test_rejects_malformed_payloads():
    good = {
        "version": 1,
        "n": 2,
        "granularity": 1,
        "tasks": [[1, 0]],
    }
    from_json_dict(good)

    bad_cases = [
        {**good, "version": 2},
        {**good, "n": 0},
        {**good, "granularity": 0},
        {**good, "tasks": [[1]]},
        {**good, "tasks": [[1, -1]]},
        {**good, "tasks": [[1, True]]},
        {**good, "tasks": "nope"},
        {**good, "pst": [{"phase_start": 5, "h": [0, 0]}]},
        {**good, "pst": [{"phase_start": 0, "h": [0]}]},
        {
            **good,
            "tasks": [[1, 0], [0, 1]],
            "pst": [
                {"phase_start": 1, "h": [0, 0]},
                {"phase_start": 0, "h": [0, 0]},
            ],
        },
        {**good, "lv": {"next_request": [[0, 0], [0, 0]]}},
        {**good, "lv": {"next_request": [[-2, 0]]}},
        {**good, "lv": "nope"},
        "not a dict",
    ]
    for payload in bad_cases:
        with pytest.raises(MalformedInputError):
            from_json_dict(payload)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_rejects_non_finite_predictions(bad):
    payload = {
        "version": 1, "n": 2, "granularity": 1, "tasks": [[1, 0], [0, 1]],
        "pst": [{"phase_start": 0, "h": [0, bad]}],
    }
    with pytest.raises(MalformedInputError, match="finite"):
        from_json_dict(payload)


def test_task_units_stay_below_the_dp_infinity():
    def payload(tasks, granularity=1):
        return {"version": 1, "n": 2, "granularity": granularity, "tasks": tasks}

    # Units plus one granularity per step may reach UNIT_LIMIT - 1 ...
    from_json_dict(payload([[UNIT_LIMIT - 4, 0], [0, 1]]))
    # ... but not UNIT_LIMIT itself, whether from the units or the moves.
    for bad in (payload([[UNIT_LIMIT - 3, 0], [0, 1]]),
                payload([[10**23, 0]]),
                payload([[0, 0], [0, 0]], granularity=UNIT_LIMIT // 2)):
        with pytest.raises(MalformedInputError, match="2\\*\\*60"):
            from_json_dict(bad)


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{natural language}")
    with pytest.raises(MalformedInputError):
        load_task_sequence(path)


def test_to_json_dict_shape():
    seq = TaskSequence(n=1, granularity=1, tasks=[[1]])
    payload = to_json_dict(seq)
    assert payload == {"version": 1, "n": 1, "granularity": 1, "tasks": [[1]]}


def test_unit_total_is_exact_past_int64():
    # 2**63 does not fit int64, and four entries of 2**62 wrap an int64
    # sum to 0: both must still meet the unit limit, with exact totals.
    for tasks, units in (([[2**63, 0]], 2**63), ([[2**62, 2**62]] * 2, 2**64)):
        payload = {"version": 1, "n": 2, "granularity": 1, "tasks": tasks}
        with pytest.raises(MalformedInputError, match=f"got {units} \\+ "):
            from_json_dict(payload)


def test_next_requests_past_int64_are_malformed():
    payload = {"version": 1, "n": 2, "granularity": 1, "tasks": [[1, 1]],
               "lv": {"next_request": [[0, 2**63]]}}
    with pytest.raises(MalformedInputError, match="below 2\\*\\*63"):
        from_json_dict(payload)


def test_tables_are_int64_arrays_converted_once():
    seq = TaskSequence(n=2, granularity=1, tasks=[[1, 0], [0, 1]], lv=[[2, 0], [0, -1]])
    for table in (seq.tasks, seq.lv):
        assert table.dtype == np.int64 and table.shape == (2, 2)
        assert table.flags.c_contiguous
    kept = TaskSequence(n=2, granularity=1, tasks=seq.tasks, lv=seq.lv)
    assert np.shares_memory(kept.tasks, seq.tasks) and np.shares_memory(kept.lv, seq.lv)
    assert TaskSequence(n=3, granularity=1, tasks=[]).tasks.shape == (0, 3)
    with pytest.raises(TypeError):
        TaskSequence(n=1, granularity=1, tasks=[[1.5]])
    loaded = from_json_dict(to_json_dict(seq))
    assert loaded.tasks.dtype == np.int64 and loaded.lv.tolist() == [[2, 0], [0, -1]]
    assert loaded == seq and kept == seq
    assert loaded != TaskSequence(n=2, granularity=1, tasks=seq.tasks)


def _int_rows_per_entry(rows, n, what, minimum):
    """The per-entry table check, without the one-pass fast path."""
    checked = []
    for t, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise MalformedInputError(f"{what}[{t}] must be a list of {n} entries")
        checked.append([_check_int(v, f"{what}[{t}][{s}]", minimum=minimum)
                        for s, v in enumerate(row)])
    return checked


def _outcome(check, rows, n, what, minimum):
    try:
        table = check(rows, n, what, minimum)
    except MalformedInputError as exc:
        return str(exc)
    return table.tolist() if isinstance(table, np.ndarray) else table


_GOOD = st.integers(0, 5)
_ODD = st.one_of(
    st.integers(-3, -1),
    st.booleans(),
    st.floats(allow_nan=False),
    st.integers(2**63 - 2, 2**70),
    st.none(),
    st.lists(_GOOD, max_size=2),
)


@st.composite
def int_tables(draw):
    n = draw(st.integers(1, 3))
    # Mostly well-formed tables, so the fast path runs; the odd entries
    # and rows make the per-entry checks run as well.
    entry = draw(st.sampled_from([_GOOD, st.one_of(_GOOD, _ODD)]))
    row = st.one_of(
        st.lists(entry, min_size=n, max_size=n),
        st.lists(entry, max_size=4),
        _GOOD,
    )
    return n, draw(st.lists(row, max_size=6)), draw(st.sampled_from([0, -1]))


@settings(max_examples=400, deadline=None)
@given(int_tables())
@example((2, [], 0))
@example((2, [[1, 2], [3, True]], 0))
@example((1, [[2**63]], 0))
@example((1, [[-1], [-2]], -1))
def test_table_fast_path_matches_per_entry_checks(case):
    n, rows, minimum = case
    want = _outcome(_int_rows_per_entry, rows, n, "tasks", minimum)
    got = _outcome(_int_rows, rows, n, "tasks", minimum)
    assert got == want
    if isinstance(got, list):
        assert all(copy is not row for copy, row in zip(got, rows))
