import contextlib
import dataclasses
import io
import json
import os
import re
import stat
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mtslab import core
from mtslab.adversaries import FAMILY_NAMES, random_unit_sequence, reversal_sequence
from mtslab.cli import main
from mtslab.core import (
    CELL_CAP,
    UNIT_LIMIT,
    _check_int,
    _int_rows,
    _load_canonical,
    _load_text,
    TaskSequence,
    canonical_json,
    decompose_phases,
    from_json_dict,
    load_task_sequence,
    lv_loss,
    pst_error_per_phase,
    save_task_sequence,
    schedule_cost,
    to_json_dict,
    write_text,
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


def test_decomposition_holds_cumulative_sums_for_one_window_not_the_input():
    # 51,200 steps at n = 64; a whole-input table of cumulative sums would
    # take as much memory as the tasks.
    seq = reversal_sequence(64, 64, 128, 800)
    tracemalloc.start()
    try:
        phases = decompose_phases(seq)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(phases) == 800
    assert peak - retained < seq.tasks.nbytes // 4


def test_phase_decomposition_counts_and_suffix():
    seq = TaskSequence(n=2, granularity=2, tasks=[[1, 1], [0, 1], [2, 1], [1, 0]])
    phases = decompose_phases(seq)
    assert [p.complete for p in phases] == [True, False]
    phase = phases[0]
    assert (phase.start, phase.end) == (0, 2)
    assert phase.sat_step == (2, 1)
    assert phase.order == (1, 0)
    assert phases[-1].start == 3


def test_simultaneous_saturation_orders_by_state_index():
    seq = TaskSequence(n=2, granularity=2, tasks=[[2, 2]])
    phases = decompose_phases(seq)
    assert phases[0].sat_step == (0, 0)
    assert phases[0].order == (0, 1)
    assert len(phases) == 1 and phases[0].complete


def test_trailing_phase_gives_unsaturated_states_the_input_length():
    seq = TaskSequence(n=3, granularity=2, tasks=[[2, 2, 2], [0, 2, 1], [1, 0, 0]])
    phases = decompose_phases(seq)
    assert [p.complete for p in phases] == [True, False]
    trailing = phases[-1]
    assert (trailing.index, trailing.start, trailing.end) == (1, 1, 2)
    # State 1 saturates at step 1; states 0 and 2 never do inside the input.
    assert trailing.sat_step == (3, 1, 3)
    assert trailing.order == (1, 0, 2)
    assert dataclasses.replace(trailing, h=(3, 1, 3)).pst_error is None


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


def test_task_sequence_rejects_negative_task_entries():
    # A negative entry would let a run's cost fall below zero.
    tasks = [[0, 0], [0, 3], [-4, 0], [3, 0]]
    with pytest.raises(ConfigurationError, match="tasks entries must be >= 0"):
        TaskSequence(n=2, granularity=2, tasks=tasks)
    with pytest.raises(ConfigurationError, match="tasks entries must be >= 0"):
        TaskSequence(n=2, granularity=2, tasks=np.array(tasks, dtype=np.int64))
    payload = {"version": 1, "n": 2, "granularity": 2, "tasks": tasks}
    with pytest.raises(MalformedInputError, match=r"^tasks\[2\]\[0\] must be >= 0, got -4$"):
        from_json_dict(payload)


def test_task_sequence_rejects_lv_entries_below_never():
    lv = [[0, 0], [0, -2]]
    with pytest.raises(ConfigurationError, match="lv entries must be >= -1"):
        TaskSequence(n=2, granularity=2, tasks=[[0, 0], [1, 0]], lv=lv)
    never = TaskSequence(n=2, granularity=2, tasks=[[0, 0], [1, 0]], lv=[[-1, 0], [0, -1]])
    assert never.lv.min() == -1
    payload = {"version": 1, "n": 2, "granularity": 2, "tasks": [[0, 0], [1, 0]],
               "lv": {"next_request": lv}}
    with pytest.raises(MalformedInputError,
                       match=r"^lv\.next_request\[1\]\[1\] must be >= -1, got -2$"):
        from_json_dict(payload)


def test_task_sequence_rejects_an_lv_table_of_another_length():
    # One lv row for four steps would be broadcast by lv-greedy's walk.
    with pytest.raises(ConfigurationError, match="lv must have one row per step, got 1 rows"):
        TaskSequence(n=2, granularity=2, tasks=[[1, 1]] * 4, lv=[[0, 0]])
    with pytest.raises(ConfigurationError, match="got 5 rows for 4 steps"):
        TaskSequence(n=2, granularity=2, tasks=[[1, 1]] * 4, lv=[[0, 0]] * 5)
    TaskSequence(n=2, granularity=2, tasks=[[1, 1]] * 4, lv=[[0, 0]] * 4)


def test_task_sequence_rejects_a_prediction_block_of_another_width():
    with pytest.raises(ConfigurationError, match="every pst block must hold n = 3 entries"):
        TaskSequence(n=3, granularity=2, tasks=[[1, 1, 1]] * 4, pst={0: (1, 2)})
    with pytest.raises(ConfigurationError, match="every pst block must hold n = 3 entries"):
        TaskSequence(n=3, granularity=2, tasks=[[1, 1, 1]] * 4, pst={0: (0, 1, 1), 2: (0,) * 4})
    with pytest.raises(ConfigurationError, match="every pst block must hold n = 3 entries"):
        TaskSequence(n=3, granularity=2, tasks=[[1, 1, 1]] * 4, pst={0: 5})
    with pytest.raises(ConfigurationError, match="^pst must be a dict"):
        TaskSequence(n=3, granularity=2, tasks=[[1, 1, 1]] * 4, pst=[(0, 1, 1)])
    TaskSequence(n=3, granularity=2, tasks=[[1, 1, 1]] * 4, pst={0: (0, 1, 1)})


@pytest.mark.parametrize("what,kwargs", [
    ("tasks", {"tasks": [[1, 1, 1]]}),
    ("tasks", {"tasks": [[1], [1, 1]]}),
    ("tasks", {"tasks": [1, 1]}),
    ("lv", {"tasks": [[1, 1]], "lv": [[0, 0, 0]]}),
    ("lv", {"tasks": [[1, 1], [1, 1]], "lv": [[0], [0, 0]]}),
])
def test_task_sequence_rejects_a_table_whose_rows_are_not_n_wide(what, kwargs):
    with pytest.raises(ConfigurationError, match=f"^{what} must be a table of rows of n = 2"):
        TaskSequence(n=2, granularity=2, **kwargs)


def test_pst_error_per_phase_matches_manual_sum():
    seq = TaskSequence(
        n=2,
        granularity=1,
        tasks=[[1, 0], [0, 1], [0, 1], [1, 0]],
        pst={0: (0, 1), 2: (2, 3)},
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
        pst={0: (1, 0)},
        lv=[[0, 2], [-1, 0]],
    )
    path = tmp_path / "seq.json"
    save_task_sequence(seq, path)
    first = path.read_bytes()
    again = load_task_sequence(path)
    save_task_sequence(again, path)
    assert path.read_bytes() == first
    assert json.loads(first)["version"] == 1


def test_prediction_blocks_save_sorted_by_phase_start(tmp_path):
    seq = TaskSequence(n=2, granularity=1, tasks=[[1, 0], [0, 1], [1, 1]],
                       pst={2: (2, 2), 0: (0, 1)})
    path = tmp_path / "seq.json"
    save_task_sequence(seq, path)
    assert json.loads(path.read_bytes())["pst"] == [
        {"phase_start": 0, "h": [0, 1]}, {"phase_start": 2, "h": [2, 2]}]
    again = load_task_sequence(path)
    assert list(again.pst) == [0, 2] and again == seq
    assert [p.h for p in decompose_phases(again)] == [(0, 1), (2, 2)]


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


@pytest.mark.parametrize("n", [CELL_CAP + 1, 4 * 10**9, 10**19])
def test_n_past_the_cell_cap_is_malformed(tmp_path, n):
    # With no rows nothing else bounds n, and the layers allocate n entries.
    path = tmp_path / "wide.json"
    save_task_sequence(TaskSequence(n=1, granularity=1, tasks=[]), path)
    path.write_bytes(path.read_bytes().replace(b'"n":1', b'"n":%d' % n))
    for load in (load_task_sequence, lambda p: _load_text(p.read_bytes())):
        with pytest.raises(MalformedInputError, match=f"^n must be <= {CELL_CAP}, got {n}$"):
            load(path)
    from_json_dict({"version": 1, "n": CELL_CAP, "granularity": 1, "tasks": []})


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
    for tasks in ([[1.5]], [["a"]], [[2**70]]):
        with pytest.raises(ConfigurationError, match="tasks entries must be integers"):
            TaskSequence(n=1, granularity=1, tasks=tasks)
    with pytest.raises(ConfigurationError, match="lv entries must be integers"):
        TaskSequence(n=1, granularity=1, tasks=[[1]], lv=[[0.5]])
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


# ---- the canonical loader against the general parser ----

def _loaded(load, data):
    """``load(data)``, or the text of the MalformedInputError it raised."""
    try:
        return load(data)
    except MalformedInputError as exc:
        return f"MalformedInputError: {exc}"


def _assert_same_load(fast, slow):
    """Equal sequences, tables and dtypes included, or equal error texts."""
    if isinstance(slow, str) or isinstance(fast, str):
        assert fast == slow
        return
    assert fast == slow
    for got, want in ((fast.tasks, slow.tasks), (fast.lv, slow.lv)):
        assert (got is None) == (want is None)
        if got is not None:
            assert got.dtype == want.dtype == np.int64 and got.flags.c_contiguous
            assert np.array_equal(got, want)
    assert fast.pst == slow.pst
    for got, want in zip((fast.pst or {}).values(), (slow.pst or {}).values()):
        assert list(map(type, got)) == list(map(type, want))


def _canonical_bytes(payload) -> bytes:
    return (canonical_json(payload) + "\n").encode()


_FAMILY_ARGS = {
    "reversal": ["--n", "6", "--eta0", "4", "--phases", "3"],
    "lv": ["--n", "4", "--granularity", "5", "--phases", "2", "--scheduler", "lv-greedy"],
    "force-det": ["--n", "6", "--eta0", "8", "--phases", "2", "--scheduler", "lps"],
    "rand-lb": ["--n", "5", "--k", "3", "--phases", "4", "--seed", "9"],
}


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_canonical_loader_takes_adversary_gen_output(tmp_path, capsys, family):
    # A drift in to_json_dict or canonical_json would make the loader
    # decline every file and silently fall back to the general parser.
    path = tmp_path / "in.json"
    assert main(["adversary-gen", "--adversary", family, "--out", str(path),
                 *_FAMILY_ARGS[family]]) == 0
    capsys.readouterr()
    data = path.read_bytes()
    seq = _load_canonical(data)
    assert seq is not None and len(seq) > 0
    _assert_same_load(seq, _load_text(data))
    assert data == _canonical_bytes(to_json_dict(seq))


@pytest.mark.parametrize("seq", [
    random_unit_sequence(3, 4, 5, seed=2),
    TaskSequence(n=1, granularity=2, tasks=[[1], [0], [1]], lv=[[2], [-1], [-1]],
                 pst={0: (2,)}),
    TaskSequence(n=2, granularity=1, tasks=[[1, 0], [0, 1]],
                 pst={0: (0.5, 1e-7), 1: (2.25, 1e16)}),
    TaskSequence(n=3, granularity=1, tasks=[]),
], ids=["random-unit-pst-lv", "n-1", "float-h", "no-steps"])
def test_canonical_loader_takes_saved_sequences(tmp_path, seq):
    assert seq.pst is not None or seq.lv is not None or len(seq) == 0
    path = tmp_path / "in.json"
    save_task_sequence(seq, path)
    data = path.read_bytes()
    assert data == _canonical_bytes(to_json_dict(seq))
    fast = _load_canonical(data)
    assert fast is not None
    _assert_same_load(fast, _load_text(data))
    _assert_same_load(load_task_sequence(path), fast)


_ENTRY = st.one_of(st.integers(0, 12), st.integers(0, 10**18 - 1))


@st.composite
def canonical_payloads(draw):
    """Canonical files from random tables: mostly loadable, some that fail
    a check only the schema (not the syntax) rules out."""
    n = draw(st.integers(1, 4))
    steps = draw(st.integers(0, 6))
    width = st.just(n) if draw(st.integers(0, 9)) else st.integers(max(n - 1, 0), n + 1)
    row = width.flatmap(lambda w: st.lists(_ENTRY, min_size=w, max_size=w))
    payload = {"version": 1, "n": n, "granularity": draw(st.integers(1, 5)),
               "tasks": draw(st.lists(row, min_size=steps, max_size=steps))}
    if draw(st.booleans()):
        starts = sorted(draw(st.sets(st.integers(0, max(steps, 1)), max_size=3)))
        number = st.one_of(st.integers(0, 20), st.floats(0, 1e6, allow_nan=False))
        payload["pst"] = [{"phase_start": s,
                           "h": draw(st.lists(number, min_size=n, max_size=n))}
                          for s in starts]
    if draw(st.booleans()):
        lv_entry = st.one_of(st.just(-1), _ENTRY)
        lv_rows = draw(st.sampled_from([steps, steps, steps, steps + 1]))
        payload["lv"] = {"next_request": draw(st.lists(
            st.lists(lv_entry, min_size=n, max_size=n), min_size=lv_rows, max_size=lv_rows))}
    return payload


_NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")
_TOKENS = [b"0" * 2, b"9" * 19, b"1" + b"0" * 18, b"-0", b"-2", b"1.0", b"true", b"null", b"[]"]
_BYTES = [b" ", b"\t", b"\n", b"\r\n", b"\xff", b"\xe9", b"0", b"-", b",", b"[", b"]",
          b"}", b'"', b"1"]


@st.composite
def mutated(draw, data: bytes):
    """``data`` unchanged, or with one byte or one number token changed."""
    kind = draw(st.sampled_from(["none", "delete", "insert", "replace", "token",
                                 "leading-zero", "crlf"]))
    at = draw(st.integers(0, len(data) - 1))
    if kind == "delete":
        return kind, data[:at] + data[at + 1:]
    if kind in ("insert", "replace"):
        byte = draw(st.one_of(st.sampled_from(_BYTES), st.binary(min_size=1, max_size=1)))
        return kind, data[:at] + byte + data[at + (kind == "replace"):]
    if kind == "crlf":
        return kind, data.replace(b"\n", b"\r\n")
    numbers = list(_NUMBER.finditer(data))
    token = numbers[draw(st.integers(0, len(numbers) - 1))]
    if kind == "leading-zero":
        return kind, data[:token.start()] + b"0" + data[token.start():]
    if kind == "token":
        new = draw(st.sampled_from(_TOKENS))
        return kind, data[:token.start()] + new + data[token.end():]
    return kind, data


@settings(max_examples=500, deadline=None)
@given(payload=canonical_payloads(), data=st.data())
@example(payload={"version": 1, "n": 1, "granularity": 1, "tasks": [],
                  "pst": [{"h": [0], "phase_start": 0, "tasks": [[5]]}]},
         data=None)
@example(payload={"version": 1, "n": 2, "granularity": 1, "tasks": [[1, 1]],
                  "pst": [{"h": [0, 0], "phase_start": 0, "tasks": [[9, 9]]}],
                  "lv": {"next_request": [[-1, -1]]}},
         data=None)
def test_canonical_loader_matches_general_parser(payload, data):
    original = _canonical_bytes(payload)
    kind, text = ("none", original) if data is None else data.draw(mutated(original))
    fast = _loaded(_load_canonical, text)
    rows = payload["tasks"] + payload.get("lv", {}).get("next_request", [])
    if kind == "none" and all(len(row) == payload["n"] for row in rows):
        assert fast is not None, "the canonical loader declined a canonical file"
    if fast is not None:
        _assert_same_load(fast, _loaded(_load_text, text))
        # It accepts only files that canonical_json writes.
        assert _canonical_bytes(json.loads(text)) == text


@pytest.mark.parametrize("chunk", [1, 7, 64])
@settings(max_examples=150, deadline=None)
@given(payload=canonical_payloads(), data=st.data())
def test_canonical_loader_matches_general_parser_across_spans(chunk, payload, data):
    """The byte-mutation differential with spans of 1, 7 and 64 bytes: every
    row, or every few rows, is checked as a span of its own, so a changed
    byte lands next to a span boundary as often as inside a span."""
    original = _canonical_bytes(payload)
    kind, text = data.draw(mutated(original))
    with mock.patch.object(core, "_CHUNK", chunk):
        fast = _loaded(_load_canonical, text)
    rows = payload["tasks"] + payload.get("lv", {}).get("next_request", [])
    if kind == "none" and all(len(row) == payload["n"] for row in rows):
        assert fast is not None, "the canonical loader declined a canonical file"
    if fast is not None:
        _assert_same_load(fast, _loaded(_load_text, text))
        assert _canonical_bytes(json.loads(text)) == text


def _file(tasks: bytes, lv: bytes | None = None, n: int = 2) -> bytes:
    """A file in the canonical key order around hand-written tables."""
    head = b'{"granularity":1,'
    if lv is not None:
        head += b'"lv":{"next_request":' + lv + b"},"
    return head + b'"n":%d,"tasks":' % n + tasks + b',"version":1}\n'


# Tables a one-byte or one-token change away from canonical, each where a
# single check of the table parser is the only one that declines it.
_EDGE_FILES = {
    "digit-after-row": _file(b"[[1,0]5,[0,1]]"),
    "digit-before-row": _file(b"[[1,0],5[0,1]]"),
    "digit-before-first-row": _file(b"[5[1,0],[0,1]]"),
    "digit-after-last-row": _file(b"[[1,0],[0,1]5]"),
    "empty-entry": _file(b"[[1,,0]]"),
    "missing-comma": _file(b"[[1,0][0,1]]"),
    "double-comma": _file(b"[[1,0],,[0,1]]"),
    "swapped-marks": _file(b"[[1]0,,[0,1]]"),
    "leading-zero": _file(b"[[01,0]]"),
    "zero-zero": _file(b"[[00,0]]"),
    "minus-zero": _file(b"[[-0,0]]"),
    "minus-one-in-tasks": _file(b"[[-1,0]]"),
    "float": _file(b"[[1.0,0]]"),
    "exponent": _file(b"[[1e2,0]]"),
    "bool": _file(b"[[true,0]]"),
    "18-digit-task": _file(b"[[999999999999999999,0]]"),
    "19-digit-task": _file(b"[[1000000000000000000,0]]"),
    "wrapping-task": _file(b"[[9999999999999999999,0]]"),
    "inner-minus": _file(b"[[1,0]]", lv=b"[[1-1,0]]"),
    "minus-two": _file(b"[[1,0]]", lv=b"[[-2,0]]"),
    "lv-minus-zero": _file(b"[[1,0]]", lv=b"[[-0,0]]"),
    "double-minus": _file(b"[[1,0]]", lv=b"[[--1,0]]"),
    "bare-minus": _file(b"[[1,0]]", lv=b"[[-,0]]"),
    "trailing-minus": _file(b"[[1,0]]", lv=b"[[1-,0]]"),
    "minus-ones": _file(b"[[1,0]]", lv=b"[[-1,-1]]"),
    "18-digit-lv": _file(b"[[1,0]]", lv=b"[[999999999999999999,0]]"),
    "19-digit-lv": _file(b"[[1,0]]", lv=b"[[9223372036854775807,0]]"),
    "lv-past-int64": _file(b"[[1,0]]", lv=b"[[9223372036854775808,0]]"),
    "20-digit-lv": _file(b"[[1,0]]", lv=b"[[99999999999999999999,0]]"),
    "empty-row": _file(b"[[]]"),
    "no-steps": _file(b"[]", lv=b"[]"),
    # Rows far too short for n: declined before a table is allocated.
    "rows-short-of-n": _file(b"[" + b",".join([b"[0]"] * 100_000) + b"]", n=CELL_CAP),
    # The entry total is right for two rows, but each row's count is wrong.
    "rows-of-three-and-one": _file(b"[[1,0,1],[0]]"),
    # An empty entry in a row that still holds n - 1 commas.
    "empty-first-entry": _file(b"[[,0]]"),
    "empty-last-entry": _file(b"[[1,]]"),
    "space-for-comma": _file(b"[[1 0]]"),
    "stray-join": _file(b"[[1,0]x[0,1]]"),
    "leading-zero-after-comma": _file(b"[[1,01]]"),
    "minus-one-then-digit": _file(b"[[1,0]]", lv=b"[[-12,0]]"),
    "minus-one-after-comma": _file(b"[[1,0]]", lv=b"[[1,-1]]"),
    # Two changes: an empty entry makes up the count of adjacent marks for
    # a "]" or a "[" moved off its join.
    "empty-entry-and-digit-after-row": _file(b"[[,5]7,[0,1]]"),
    "digit-before-row-and-empty-entry": _file(b"[[1,0],7[,1]]"),
}
_ENGAGED = {"minus-ones", "18-digit-task", "18-digit-lv", "no-steps", "minus-one-after-comma"}


@pytest.mark.parametrize("data", _EDGE_FILES.values(), ids=_EDGE_FILES.keys())
def test_canonical_loader_declines_or_matches_on_edge_tables(data):
    fast = _loaded(_load_canonical, data)
    slow = _loaded(_load_text, data)
    if fast is None:
        assert data not in [_EDGE_FILES[name] for name in _ENGAGED]
        return
    _assert_same_load(fast, slow)
    assert _canonical_bytes(json.loads(data)) == data


# ---- the writer against canonical_json ----

# The least and greatest int64 entry of each digit count, 1 to 19.
_LEAST = np.array([0] + [10**d for d in range(1, 19)], dtype=np.int64)
_GREATEST = np.array([10**d - 1 for d in range(1, 19)] + [2**63 - 1], dtype=np.int64)


def _entries(draw, rng, shape, minus_one: bool) -> np.ndarray:
    """A table of entries with the drawn digit counts, each the least or
    greatest of its count or one between; with ``minus_one``, some -1."""
    counts = np.array(draw(st.lists(st.integers(1, 19), min_size=1, max_size=3)))
    width = rng.choice(counts, size=shape) - 1
    table = rng.integers(_LEAST[width], _GREATEST[width], endpoint=True)
    pick = rng.integers(0, 4, size=shape)
    table = np.where(pick == 0, _LEAST[width], np.where(pick == 1, _GREATEST[width], table))
    return np.where(minus_one & (pick == 2), -1, table)


@st.composite
def written_sequences(draw):
    """A writer's cell budget and a sequence with random tables: n = 1,
    zero rows or rows past one block at that budget; entries of 1 to 19
    digits; lv absent, all -1 or mixed; pst absent, empty, or with float h.

    Budgets below the writer's own put block boundaries inside small
    tables.
    """
    cells = draw(st.sampled_from([1, 2, 5, 16, core._WRITE_CELLS]))
    n = draw(st.sampled_from([1, 2, 3, 8]))
    rows = draw(st.sampled_from([0, 1, 2, 5, max(1, cells // n) + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tasks = _entries(draw, rng, (rows, n), minus_one=False)
    lv = draw(st.sampled_from([None, "minus-ones", "mixed"]))
    if lv == "minus-ones":
        lv = np.full((rows, n), -1, dtype=np.int64)
    elif lv == "mixed":
        lv = _entries(draw, rng, (rows, n), minus_one=True)
    pst = None
    if draw(st.booleans()):
        number = st.one_of(st.integers(0, 2 * rows + 4), st.floats(0, 1e6, allow_nan=False))
        pst = {start: tuple(draw(st.lists(number, min_size=n, max_size=n)))
               for start in draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=3))}
    seq = TaskSequence(n=n, granularity=draw(st.integers(1, 5)), tasks=tasks, pst=pst, lv=lv)
    return cells, seq


@settings(max_examples=150, deadline=None)
@given(written=written_sequences())
def test_writer_matches_canonical_json_on_random_tables(written):
    """save_task_sequence writes canonical_json(to_json_dict(seq)) byte for
    byte. The array loader takes every written file whose entries have at
    most 18 digits, and agrees with the general parser; 19-digit entries
    are left to the general parser."""
    cells, seq = written
    with mock.patch.object(core, "_WRITE_CELLS", cells), \
            contextlib.redirect_stdout(io.StringIO()) as out:
        save_task_sequence(seq, None)
    data = out.getvalue().encode()
    assert data == _canonical_bytes(to_json_dict(seq))
    tables = [seq.tasks] + ([] if seq.lv is None else [seq.lv])
    if max(int(table.max(initial=0)) for table in tables) < 10**18:
        fast = _loaded(_load_canonical, data)
        assert fast is not None, "the canonical loader declined a written file"
        _assert_same_load(fast, _loaded(_load_text, data))


@pytest.mark.parametrize("text", [
    b'{"version": 1,\r\n "n": 2,\r\n "granularity": 1, "tasks": [[1, 0]] x}',
    b'{"version": 1,\r "n": 2, "granularity": 1, "tasks": [[1, 0]], "x": "\r"}',
    b'\xef\xbb\xbf{"version": 1, "n": 1, "granularity": 1, "tasks": [[1]]}',
    b'{"version": 1, "n": 1,\r\n "granularity": 1, "tasks": [[1]], "x": "\xe9"}',
], ids=["crlf-then-syntax-error", "carriage-return-in-string", "bom", "crlf-then-latin-1"])
def test_general_parser_reads_as_text_mode_does(tmp_path, text):
    path = tmp_path / "in.json"
    path.write_bytes(text)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            json.load(fh)
    except ValueError as exc:
        want = f"not valid UTF-8 JSON: {exc}"
    with pytest.raises(MalformedInputError) as got:
        load_task_sequence(path)
    assert str(got.value) == want


# ---- atomic writes ----

class _FailingWrite:
    """A text file whose write puts half the text down, then fails."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, text):
        self._fh.write(text[:len(text) // 2])
        self._fh.flush()
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("existing", [None, "old bytes\n"])
def test_failed_write_leaves_the_target_and_no_temporary_file(tmp_path, monkeypatch, existing):
    target = tmp_path / "out.csv"
    if existing is not None:
        target.write_text(existing)
    monkeypatch.setattr(core, "open",
                        lambda *args, **kwargs: _FailingWrite(open(*args, **kwargs)),
                        raising=False)
    with pytest.raises(OSError, match="No space left"):
        write_text(target, "new text that does not fit\n")
    assert [p.name for p in tmp_path.iterdir()] == ([] if existing is None else ["out.csv"])
    if existing is not None:
        assert target.read_text() == existing


def test_write_replaces_regular_files_and_writes_through_links(tmp_path):
    target = tmp_path / "out.txt"
    write_text(target, "first\n")
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask
    write_text(str(target), "second\n")
    assert target.read_text() == "second\n"
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    write_text(link, "through the link\n")
    assert link.is_symlink() and target.read_text() == "through the link\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "out.txt"]
