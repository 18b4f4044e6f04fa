"""Task-sequence model: exact fixed-point costs, saturation phases, schedules.

Everything in this module is integer arithmetic. A problem instance has n
states and a granularity g. Task entries are stored in units of 1/g, a state
change costs exactly g units (one cost unit of 1), and a state is saturated
once it has accumulated at least g units of processing demand since the
current phase opened. A phase closes on the step at which the last state
saturates; the next step opens a new phase with all counters reset. Steps
and states are 0-indexed throughout.

The on-disk format is a single JSON object::

    {
      "version": 1,
      "n": <int>,
      "granularity": <int>,
      "tasks": [[<units>, ...], ...],
      "pst": [{"phase_start": <step>, "h": [<number>, ...]}, ...],
      "lv": {"next_request": [[<step|-1|0>, ...], ...]}
    }

``pst`` (optional) carries one block per phase: ``h[s]`` is the step at
which state s is predicted to saturate in the phase opening at
``phase_start``. ``lv`` (optional) carries one row per step: a nonzero
entry ``next_request[t][s]`` is a prediction, issued at step t, of the next
step at which state s receives demand; -1 means "never again" and 0 means
"no prediction issued here". Files are written canonically (sorted keys, no
whitespace) so that identical content is identical bytes.
"""

from __future__ import annotations

import io
import json
import math
import os
import stat
import sys
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, MalformedInputError

__all__ = [
    "SCHEMA_VERSION",
    "TaskSequence",
    "Phase",
    "decompose_phases",
    "schedule_cost",
    "pst_error_per_phase",
    "next_demand",
    "lv_loss",
    "to_json_dict",
    "from_json_dict",
    "canonical_json",
    "write_text",
    "save_task_sequence",
    "load_task_sequence",
]

SCHEMA_VERSION = 1

# The offline DP's infinity (opt.py). Inputs whose task units plus one
# move per step stay below it keep every cumulative sum and DP value exact
# in int64.
UNIT_LIMIT = 1 << 60

# The most entries a generated task table or a sweep's count or walk block holds.
CELL_CAP = 1 << 24


def unit_total(tasks) -> int:
    """Exact sum of a task table, in int64 only where no partial sum can reach 2**63."""
    if int(tasks.max(initial=0)) * tasks.size < 1 << 63:
        return int(tasks.sum())
    return sum(tasks.ravel().tolist())


@dataclass
class TaskSequence:
    """One input; ``tasks`` and ``lv`` are C-contiguous int64 (steps, n) tables.

    Lists passed in are converted once, here; an int64 array is not copied.
    ``n`` and ``granularity`` must each be at least 1, task entries at
    least 0 and ``lv`` entries at least -1 ("never again"), with one
    ``lv`` row per step. ``pst`` maps each prediction block's phase start
    to its tuple of n predicted saturation steps.
    """

    n: int
    granularity: int
    tasks: np.ndarray
    pst: dict[int, tuple] | None = None
    lv: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.n < 1 or self.granularity < 1:
            raise ConfigurationError(
                f"n and granularity must be >= 1, got {self.n} and {self.granularity}"
            )
        self.tasks = _table(self.tasks, self.n, "tasks", 0)
        if self.lv is not None:
            self.lv = _table(self.lv, self.n, "lv", -1)
            if len(self.lv) != len(self.tasks):
                raise ConfigurationError(
                    f"lv must have one row per step, got {len(self.lv)} rows "
                    f"for {len(self.tasks)} steps"
                )
        if self.pst is not None and not (isinstance(self.pst, dict) and all(
                isinstance(h, (tuple, list)) and len(h) == self.n for h in self.pst.values())):
            raise ConfigurationError(
                f"pst must be a dict, and every pst block must hold n = {self.n} entries")

    def __len__(self) -> int:
        return len(self.tasks)

    def __eq__(self, other) -> bool:
        """Equal when the canonical JSON forms are equal."""
        if not isinstance(other, TaskSequence):
            return NotImplemented
        return to_json_dict(self) == to_json_dict(other)


def _table(rows, n: int, what: str, minimum: int) -> np.ndarray:
    try:
        table = np.asarray(rows if len(rows) else np.empty((0, n), dtype=np.int64))
    except ValueError:  # ragged rows
        table = None
    if table is None or table.shape != (len(rows), n):
        raise ConfigurationError(f"{what} must be a table of rows of n = {n} entries")
    try:  # a safe cast: a float entry raises instead of being truncated
        table = table.astype(np.int64, casting="safe", copy=False)
    except TypeError:
        raise ConfigurationError(f"{what} entries must be integers") from None
    if table.min(initial=minimum) < minimum:
        raise ConfigurationError(f"{what} entries must be >= {minimum}")
    return np.ascontiguousarray(table)


@dataclass(frozen=True)
class Phase:
    """One saturation phase of a task sequence.

    A complete phase ends on the step at which its last state saturates.
    The trailing partial phase (``complete`` False) runs to the end of the
    input, and each state that does not saturate inside the input has
    ``sat_step`` equal to the input length. ``h`` is the prediction block
    ``seq.pst[start]``, or None. The derived values are computed once per
    phase, so every trial over one decomposition shares them.
    """

    index: int
    start: int
    end: int
    sat_step: tuple
    complete: bool = True
    h: tuple | None = None

    @cached_property
    def order(self) -> tuple:
        """The states by (sat_step, index)."""
        return tuple(sorted(range(len(self.sat_step)), key=self.sat_step.__getitem__))

    @cached_property
    def pst_error(self):
        """Sum over states of |h[s] - sat_step[s]|.

        None when there is no prediction block or the phase has not closed.
        """
        if self.h is None or not self.complete:
            return None
        return sum(abs(hs - sat) for hs, sat in zip(self.h, self.sat_step))

    def later(self, state: int) -> list:
        """The states that saturate strictly after ``state``, ascending.

        Built on first use for each state and kept; callers must not change it.
        """
        try:
            return self._later[state]
        except KeyError:
            step = self.sat_step
            first = bisect_right(self.order, step[state], key=step.__getitem__)
            found = self._later[state] = sorted(self.order[first:])
            return found

    @cached_property
    def _later(self) -> dict:
        return {}


def decompose_phases(seq: TaskSequence) -> list:
    """Split a sequence into its saturation phases.

    Returns every complete phase in order and then, when the input does not
    end on a phase boundary, the trailing partial phase (``complete``
    False). The split depends only on the tasks, never on any scheduler.
    Within a phase, sat_step[s] is the first step at which state s reaches
    the saturation threshold.
    """
    total, n = seq.tasks.shape
    threshold = seq.granularity
    # cum[t - base, s] is the demand state s receives in the steps base ..
    # t - 1, for t in base .. stop - 1. A run of these sums opens at a phase
    # start, base, whenever a window runs past `stop`, and covers at least
    # max(window, rows) steps in one cumsum along the contiguous rows of a
    # state-major array; later phases that fit in it read it too. State s
    # saturates in the phase opening at `start` on the step before the first
    # t with cum[t - base, s] - cum[start - base, s] >= threshold, a sum of
    # the phase's own steps. The difference is exact whenever the phase's own
    # running sums fit in int64, even where the run's sums wrap.
    rows = max(1, (1 << 16) // n)
    cum, base, stop = None, 0, 0
    phases: list[Phase] = []
    start, window = 0, 2 * n
    while start < total:
        # One comparison over the steps start .. start + window - 1, with
        # the window doubled until every state saturates or the input ends.
        while True:
            if min(start + window, total) >= stop:
                width = min(max(window, rows), total - start)
                run = np.zeros((n, width + 1), dtype=np.int64)
                np.cumsum(seq.tasks[start:start + width].T, axis=1, out=run[:, 1:])
                cum, base, stop = run.T, start, start + width + 1
            first = start - base
            reached = cum[first + 1:first + 1 + window] - cum[first] >= threshold
            saturated = reached.any(axis=0)
            if saturated.all() or start + window >= total:
                break
            window *= 2
        sat = tuple(np.where(saturated, start + reached.argmax(axis=0), total).tolist())
        end = max(sat)
        phases.append(Phase(index=len(phases), start=start, end=min(end, total - 1),
                            sat_step=sat, complete=end < total, h=(seq.pst or {}).get(start)))
        # The next window starts at twice this phase's length; a trailing
        # phase (end == total) ends the loop.
        window = max(2 * (end + 1 - start), 2 * n)
        start = end + 1
    return phases


def schedule_cost(tasks, granularity: int, schedule: Sequence[int], start_state: int = 0):
    """Cost of following ``schedule`` (state occupied at each step).

    Returns (total_units, transition_units, processing_units). The state at
    step t is schedule[t]; a change relative to the previous step (or to
    start_state before step 0) costs ``granularity`` units on top of the
    occupied state's task entry. This is the independent recomputation used
    to audit engine accounting, so it stays a plain loop over Python ints.
    """
    if len(schedule) != len(tasks):
        raise ValueError("schedule must assign a state to every step")
    rows = tasks.tolist() if isinstance(tasks, np.ndarray) else tasks
    transition_units = 0
    processing_units = 0
    prev = start_state
    for task, state in zip(rows, schedule):
        if state != prev:
            transition_units += granularity
        processing_units += task[state]
        prev = state
    return transition_units + processing_units, transition_units, processing_units


def pst_error_per_phase(seq: TaskSequence):
    """Per-phase prediction error: sum over states of |h[s] - sat_step[s]|.

    Only phases that have a matching prediction block contribute; the list
    aligns with the complete phases and holds None where no block matches.
    """
    return [phase.pst_error for phase in decompose_phases(seq) if phase.complete]


def next_demand(tasks: np.ndarray) -> np.ndarray:
    """The truthful next-request table of a (steps, n) task table.

    Entry (t, s) is the first step after t at which state s receives
    demand, or -1 if it never does again.
    """
    steps = len(tasks)
    upcoming = np.full(tasks.shape, -1, dtype=np.int64)
    # Row t of ``later`` covers the steps from t + 1 on: a running minimum,
    # from the end, of the steps with demand, where ``steps`` means none.
    later = np.where(tasks[1:] > 0, np.arange(1, steps)[:, None], steps)
    np.minimum.accumulate(later[::-1], axis=0, out=later[::-1])
    later[later == steps] = -1
    upcoming[:-1] = later
    return upcoming


def lv_loss(seq: TaskSequence) -> int:
    """Total absolute error of the next-request predictions.

    For every nonzero prediction, the true next step at which the state
    receives demand (``next_demand``) is compared with the predicted one;
    "never again" (-1) is scored as one step past the end of the sequence
    on both sides, so a correct "never" costs nothing.
    """
    if seq.lv is None:
        return 0
    steps = len(seq)
    claim, truth = (np.where(table == -1, steps, table)
                    for table in (seq.lv, next_demand(seq.tasks)))
    # Summed as Python ints: an int64 sum of large claims could wrap.
    return sum(np.abs(claim - truth)[seq.lv != 0].tolist())


# ---- serialization ----

def _skeleton(seq: TaskSequence) -> dict:
    """The JSON object of ``seq`` with an empty list in place of each table."""
    payload: dict = {
        "version": SCHEMA_VERSION,
        "n": seq.n,
        "granularity": seq.granularity,
        "tasks": [],
    }
    if seq.pst is not None:
        payload["pst"] = [{"phase_start": s, "h": list(h)} for s, h in sorted(seq.pst.items())]
    if seq.lv is not None:
        payload["lv"] = {"next_request": []}
    return payload


def to_json_dict(seq: TaskSequence) -> dict:
    payload = _skeleton(seq)
    payload["tasks"] = seq.tasks.tolist()
    if seq.lv is not None:
        payload["lv"]["next_request"] = seq.lv.tolist()
    return payload


def _fail(message: str):
    raise MalformedInputError(message)


def _check_int(value, what: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(f"{what} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        _fail(f"{what} must be >= {minimum}, got {value}")
    return value


def _int_rows(rows, n: int, what: str, minimum: int) -> np.ndarray:
    """The (len(rows), n) array of an integer table, every entry >= minimum.

    A table ``_load_canonical`` parsed is returned as it is. A well-formed
    list table passes one type scan and one int64 conversion. Any other
    table goes through the per-entry checks, which name the first bad
    entry; if it passes them, an entry is past int64 and the array holds
    Python ints.
    """
    if isinstance(rows, np.ndarray):
        return rows
    if all(isinstance(row, list) and len(row) == n for row in rows) and \
            {type(v) for row in rows for v in row} <= {int}:
        try:
            table = np.array(rows, dtype=np.int64).reshape(len(rows), n)
            if table.min(initial=minimum) >= minimum:
                return table
        except OverflowError:
            pass  # an entry past int64: the per-entry checks accept or name it
    for t, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            _fail(f"{what}[{t}] must be a list of {n} entries")
        for s, v in enumerate(row):
            _check_int(v, f"{what}[{t}][{s}]", minimum=minimum)
    return np.array(rows, dtype=object).reshape(len(rows), n)


def from_json_dict(payload) -> TaskSequence:
    if not isinstance(payload, dict):
        _fail("top-level JSON value must be an object")
    version = payload.get("version")
    # Compared as an int that is not a bool: True == 1 and 1.0 == 1 in Python.
    if type(version) is not int or version != SCHEMA_VERSION:
        _fail(f"unsupported version {version!r}, expected {SCHEMA_VERSION}")
    n = _check_int(payload.get("n"), "n", minimum=1)
    # A table with no rows does not bound n, but every layer allocates n
    # entries per row.
    if n > CELL_CAP:
        _fail(f"n must be <= {CELL_CAP}, got {n}")
    granularity = _check_int(payload.get("granularity"), "granularity", minimum=1)

    tasks_raw = payload.get("tasks")
    if not isinstance(tasks_raw, (list, np.ndarray)):
        _fail("tasks must be a list of per-step unit vectors")
    tasks = _int_rows(tasks_raw, n, "tasks", minimum=0)
    units = unit_total(tasks)
    if units + len(tasks) * granularity >= UNIT_LIMIT:
        _fail(f"task units plus granularity per step must stay below 2**60, got "
              f"{units} + {len(tasks)} * {granularity}")

    pst = None
    if "pst" in payload and payload["pst"] is not None:
        blocks_raw = payload["pst"]
        if not isinstance(blocks_raw, list):
            _fail("pst must be a list of phase blocks")
        pst = {}
        for i, block in enumerate(blocks_raw):
            if not isinstance(block, dict):
                _fail(f"pst[{i}] must be an object")
            phase_start = _check_int(block.get("phase_start"), f"pst[{i}].phase_start", minimum=0)
            if phase_start <= next(reversed(pst), -1):
                _fail("pst blocks must have strictly increasing phase_start")
            if phase_start >= max(len(tasks), 1):
                _fail(f"pst[{i}].phase_start is past the end of the tasks")
            h = block.get("h")
            if not isinstance(h, list) or len(h) != n:
                _fail(f"pst[{i}].h must be a list of {n} numbers")
            # A block of ints needs no per-entry checks.
            for s, v in enumerate(h) if not set(map(type, h)) <= {int} else ():
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    _fail(f"pst[{i}].h[{s}] must be a number")
                if isinstance(v, float) and not math.isfinite(v):
                    _fail(f"pst[{i}].h[{s}] must be finite, got {v!r}")
            pst[phase_start] = tuple(h)

    lv = None
    if "lv" in payload and payload["lv"] is not None:
        lv_raw = payload["lv"]
        if not isinstance(lv_raw, dict) or "next_request" not in lv_raw:
            _fail("lv must be an object with a next_request table")
        rows_raw = lv_raw["next_request"]
        if not isinstance(rows_raw, (list, np.ndarray)) or len(rows_raw) != len(tasks):
            _fail("lv.next_request must have one row per step")
        lv = _int_rows(rows_raw, n, "lv.next_request", minimum=-1)
        if lv.dtype != np.int64:
            _fail("lv.next_request entries must be below 2**63")

    return TaskSequence(n=n, granularity=granularity, tasks=tasks, pst=pst, lv=lv)


def canonical_json(value) -> str:
    """``value`` as JSON with sorted keys and no whitespace."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _is_stdout(path) -> bool:
    # A captured stdout has no descriptor (ValueError or OSError).
    try:
        return os.path.samestat(os.stat(path), os.fstat(sys.stdout.fileno()))
    except (OSError, ValueError):
        return False


def write_text(path, text: str) -> None:
    """Write ``text`` to the file at ``path``, or to standard output when None.

    A new or regular file is replaced whole: the text goes to a temporary
    file in the same directory, made with the mode ``open(path, "w")``
    gives a new file, which is then renamed over ``path``. A failed write
    leaves ``path`` as it was and no temporary file behind. A path that
    names the process's own standard output goes through ``sys.stdout``,
    so later prints follow the text instead of overwriting it; any other
    symlink or special file is written through directly.
    """
    if path is None or _is_stdout(path):
        sys.stdout.write(text)
        return
    try:
        direct = not stat.S_ISREG(os.lstat(path).st_mode)
    except FileNotFoundError:
        direct = False
    if direct:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    folder, name = os.path.split(os.fspath(path))
    temp = os.path.join(folder, f".{name}.{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # name the caller's path, not the temporary file
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise


# The fixed ends of a canonical file, the key that opens a canonical lv
# table, the text span the table parser checks at a time (each temporary
# it makes holds about one entry per byte of the span), and the most
# table entries the writers format in one row block.
_HEAD = b'{"granularity":'
_LV_KEY = b'"lv":{"next_request":'
_TASKS_KEY = b'"tasks":'
_TAIL = b',"version":1}\n'
_CHUNK = 1 << 16
_WRITE_CELLS = 1 << 14
# Powers of ten from 10 to 10**18: an entry x >= 0 has one digit more than
# the number of them at most x.
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)
# "-" less "0" in uint8, and for each k the least signed type that holds
# every number of k + 1 digits.
_MINUS = (ord("-") - ord("0")) % 256
_PLACE_KINDS = [np.int8] * 2 + [np.int16] * 2 + [np.int32] * 5 + [np.int64] * 9


def save_task_sequence(seq: TaskSequence, path) -> None:
    """Write ``seq`` to ``path`` as its canonical JSON file (see ``write_text``).

    The bytes are ``canonical_json(to_json_dict(seq)) + "\\n"``, the oracle
    the tests compare against. Only the object around the tables goes
    through ``canonical_json``; the ``tasks`` and ``lv.next_request``
    tables are formatted in row blocks by ``_format_table`` and spliced in
    where ``_load_canonical`` cuts them out.
    """
    text = canonical_json(_skeleton(seq))
    # The tasks placeholder is the "[]" that ends the text before _TAIL.
    tasks_at = len(text) + 1 - len(_TAIL) - len("[]")
    parts = []
    if seq.lv is not None:
        lv_at = text.index(_LV_KEY.decode()) + len(_LV_KEY)
        parts += [text[:lv_at], *_format_table(seq.lv), text[lv_at + 2:tasks_at]]
    else:
        parts.append(text[:tasks_at])
    parts += [*_format_table(seq.tasks), text[tasks_at + 2:], "\n"]
    write_text(path, "".join(parts))


def _format_table(table: np.ndarray):
    """The canonical JSON text of an int64 table whose entries are >= -1,
    in pieces of at most ``_WRITE_CELLS`` entries each (at least one row).

    Each row is written as ``[d,...,d]`` and followed by a comma, which
    the last row's piece turns into the table's closing ``]``.
    """
    rows, n = table.shape
    yield "["
    step = max(1, _WRITE_CELLS // n)
    for top in range(0, rows, step):
        block = table[top:top + step].ravel()
        value = np.abs(block)
        sign = block < 0
        # Each entry takes its sign, its digits and the comma or "]" after
        # it; the first of a row also takes the "[", and the last the comma
        # that joins its row to the next.
        size = np.where(sign, 3, 2)
        _add_digits(size, value)
        size[::n] += 1
        size[n - 1::n] += 1
        end = np.cumsum(size)
        text = np.full(end[-1], ord(","), dtype=np.uint8)
        row_end = end[n - 1::n]
        text[row_end - 2] = ord("]")
        text[0] = ord("[")
        text[row_end[:-1]] = ord("[")
        if top + step >= rows:
            text[-1] = ord("]")
        last = end - 2
        last[n - 1::n] -= 1
        text[last[sign] - 1] = ord("-")  # the one negative entry is -1
        _fill_digits(text, last, value)
        yield str(text, "ascii")
    if not rows:
        yield "]"


def csv_text(fields, table: np.ndarray) -> str:
    """The CSV text of an int64 table whose entries are >= 0, under a
    header line of ``fields``.

    Each entry is followed by a comma, or by a newline at the end of its
    row. The rows are formatted in blocks of at most ``_WRITE_CELLS``
    entries each (at least one row).
    """
    rows, n = table.shape
    parts = [",".join(fields), "\n"]
    step = max(1, _WRITE_CELLS // n)
    for top in range(0, rows, step):
        value = table[top:top + step].ravel()
        # Each entry takes its digits and the separator after it.
        size = np.full(len(value), 2)
        _add_digits(size, value)
        end = np.cumsum(size)
        text = np.full(end[-1], ord(","), dtype=np.uint8)
        text[end[n - 1::n] - 1] = ord("\n")
        _fill_digits(text, end - 2, value)
        parts.append(str(text, "ascii"))
    return "".join(parts)


def _add_digits(size: np.ndarray, value: np.ndarray) -> None:
    """Add to ``size`` each entry's digits past its first (``value`` >= 0)."""
    for power in _POW10[:np.searchsorted(_POW10, value.max(), side="right")]:
        size += value >= power


def _fill_digits(text: np.ndarray, last: np.ndarray, value: np.ndarray) -> None:
    """Write each entry of ``value`` (>= 0) in decimal into ``text``, its
    last digit at ``last``."""
    # Digits right to left, each round over the entries with more left.
    at, left = last, value
    while len(at):
        rest = left // 10
        text[at] = left - 10 * rest + ord("0")
        more = rest > 0
        at, left = at[more] - 1, rest[more]


def load_task_sequence(path) -> TaskSequence:
    """The sequence in the file at ``path``, which is read once.

    A file as ``save_task_sequence`` writes it takes the array path
    (``_load_canonical``); any other input takes the general parser, which
    gives the same result and is the only source of error messages.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    seq = _load_canonical(data)
    return seq if seq is not None else _load_text(data)


def _load_text(data: bytes) -> TaskSequence:
    """The general parser: ``data`` decoded as a text-mode read decodes it."""
    try:
        payload = json.loads(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read())
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, UnicodeDecodeError and integer
        # literals past Python's digit limit; RecursionError, deep nesting.
        raise MalformedInputError(f"not valid UTF-8 JSON: {exc}") from exc
    return from_json_dict(payload)


def _load_canonical(data: bytes):
    """The sequence in ``data`` when it is exactly what ``save_task_sequence``
    writes, else None.

    The ``lv.next_request`` table starts right after ``_HEAD``, an integer
    and ``_LV_KEY``; the ``tasks`` table ends right before ``_TAIL``. Both
    are checked and parsed as arrays. Everything else goes through
    ``json`` with the tables cut out, and must give back its own bytes
    under ``canonical_json`` with the placeholders at the top level.
    """
    if not (data.startswith(_HEAD) and data.endswith(_TAIL)):
        return None
    comma = data.find(b",", len(_HEAD))
    lv_start = lv_end = None
    if data[len(_HEAD):comma].isdigit() and data.startswith(_LV_KEY, comma + 1):
        lv_start = comma + 1 + len(_LV_KEY)
        lv_end = data.find(b"}", lv_start)
    tasks_end = len(data) - len(_TAIL)
    # A table holds no quote, so the last key before it is its own.
    tasks_start = data.rfind(_TASKS_KEY, lv_end or 0, tasks_end) + len(_TASKS_KEY)
    if lv_end == -1 or tasks_start < len(_TASKS_KEY):
        return None
    cut = (data[:tasks_start] if lv_start is None
           else data[:lv_start] + b"[]" + data[lv_end:tasks_start])
    rest = (cut + b"[]" + _TAIL).decode("ascii", errors="replace")
    try:
        payload = json.loads(rest)
    except (ValueError, RecursionError):
        return None
    if canonical_json(payload) + "\n" != rest or payload.get("tasks") != [] or \
            payload.get("lv") != (None if lv_start is None else {"next_request": []}):
        return None
    n = payload.get("n")
    if type(n) is not int or not 1 <= n <= CELL_CAP:
        return None
    tasks = _parse_table(data, tasks_start, tasks_end, n, negative=False)
    lv = None if lv_start is None else _parse_table(data, lv_start, lv_end, n, negative=True)
    if tasks is None or (lv_start is not None and lv is None):
        return None
    payload["tasks"] = tasks
    if lv is not None:
        payload["lv"] = {"next_request": lv}
    return from_json_dict(payload)


def _parse_table(data: bytes, start: int, stop: int, n: int, negative: bool):
    """The int64 (rows, n) table written canonically in data[start:stop], or None.

    The text is checked in row-aligned spans of about ``_CHUNK`` bytes, so
    the temporary arrays stay small whatever the file size. Each span is
    passed on with the byte after it, the comma that joins the next row or
    the table's closing "]", so every entry ends on a mark in the data.
    """
    if stop - start < 2 or data[start] != ord("[") or data[stop - 1] != ord("]"):
        return None
    start, stop = start + 1, stop - 1
    # Each "[" opens a row once every span has passed its checks.
    rows = data.count(b"[", start, stop)
    if 2 * n * rows > stop - start + 1:
        return None  # too short for its rows, and too short to allocate for
    table = np.empty((rows, n), dtype=np.int64)
    text = np.frombuffer(data, dtype=np.uint8)
    done = 0
    while start < stop:
        end = data.find(b"],[", start + _CHUNK, stop) + 1 or stop
        block = _parse_rows(text[start:end + 1], n, negative)
        if block is None:
            return None
        table[done:done + len(block)] = block
        done += len(block)
        start = end + 1
    return table


def _parse_rows(text: np.ndarray, n: int, negative: bool):
    """The (rows, n) table of ``text``, canonical rows joined by commas, or
    None; its signed type is the least that holds its longest entry.

    The last byte of ``text`` follows the rows: a comma or a "]". Each
    entry has 1 to 18 digits with no leading zero, so it fits int64; with
    ``negative``, an entry may also be -1. Every check is a pass over the
    bytes, or over an array of one entry per row. Only the mark positions
    take an int64 for each entry, and the values are summed over the bytes
    in the least type that holds them.
    """
    # digit[19 + i] is text[i] - "0", which wraps past 9 for any other
    # byte; 19 bytes of padding come first, so digit[18 - k:] read at the
    # mark after an entry is its digit place k, 0 to 18.
    digit = np.empty(len(text) + 19, dtype=np.uint8)
    digit[:19] = 255
    np.subtract(text, np.uint8(ord("0")), out=digit[19:])
    is_digit = digit <= 9
    # Every byte but a digit or a sign is a mark: "[", "]" or a comma.
    mark = ~is_digit[19:]
    sign = text == ord("-")
    signs = np.count_nonzero(sign)
    if signs:
        mark &= ~sign
        # Each sign opens a -1: it follows a mark, and "1" and a mark follow it.
        if not negative or np.count_nonzero(
                sign[1:-2] & mark[:-3] & (text[2:-1] == ord("1")) & mark[3:]) != signs:
            return None
    marks = np.flatnonzero(mark)
    rows, extra = divmod(len(marks), n + 2)
    if extra or not rows:
        return None
    # Row r's marks are at[r]: its "[", n - 1 commas, its "]" and the byte
    # after it. With the brackets in place, the comma count leaves no room
    # for any other mark, and the count of adjacent marks none for an
    # empty entry: each "]" and the byte after it, and each join and the
    # next "[", are the only adjacent marks.
    at = marks.reshape(rows, n + 2)
    opens, closes, ends = at[:, 0], at[:, n], at[:, n + 1]
    if not (opens[0] == 0 and (ends - closes == 1).all() and (opens[1:] - ends[:-1] == 1).all()
            and (text[opens] == ord("[")).all() and (text[closes] == ord("]")).all()
            and np.count_nonzero(text == ord(",")) == rows * n - (text[-1] != ord(","))
            and np.count_nonzero(mark[:-1] & mark[1:]) == 2 * rows - 1
            and not ((text[1:-1] == ord("0")) & mark[:-2] & is_digit[21:]).any()):
        return None
    # value[q] is the number the digits before q spell, read at the mark
    # after each entry. Place k adds digit[18 - k:] where live holds, that
    # is where the k + 1 bytes before q are all digits; the places stop at
    # the longest run of digits.
    value = digit[18:-1].astype(np.int8)
    if signs:  # the mark after each -1 is two bytes past its sign
        np.copyto(value, -1, where=digit[17:-2] == _MINUS)
    live = is_digit[18:-1]
    for k in range(1, 19):
        live = live & is_digit[18 - k:-1 - k]
        if not live.any():
            return np.take(value, at[:, 1:n + 1])
        if k == 18:
            return None  # a 19th digit
        kind = _PLACE_KINDS[k]
        value = value + np.multiply(digit[18 - k:-1 - k], live, dtype=kind) * kind(10 ** k)
