"""In-memory spans around the public functions the mtslab CLI calls.

A ``Tracer`` replaces the module-level names that ``mtslab.cli`` and
``mtslab.engine`` import (and a few that ``mtslab.core`` uses itself) with
wrappers that record a span per call: its name, start, end and parent, plus
counts read off the arguments and the result at the same boundary. The
original names are put back when ``Tracer.installed()`` exits, so nothing
under ``src/`` changes and untraced calls pay nothing.

A span's self time is its duration minus the time its child spans cover.
Every layer time reported by the benchmark is a self time, so the layer
times of one CLI call add up to that call's traced wall time.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    key: tuple | None = None


# Counters read the arguments and result of one call into its span.

def _entries(sp, args, kwargs, seq):
    rows = len(seq.tasks) + (len(seq.lv) if seq.lv is not None else 0)
    sp.counts["entries"] = rows * seq.n


def _moves(sp, args, kwargs, result):
    sp.counts["moves"] = result.total_moves


def _opt(sp, args, kwargs, value):
    # Per-phase optima are the free-start calls; the whole-sequence
    # optimum is pinned to the start state.
    tasks = args[0]
    sp.name = "opt.phase" if kwargs.get("free_start") else "opt.whole"
    sp.counts["cells"] = len(tasks) * (len(tasks[0]) if len(tasks) else 0)


def _family(sp, args, kwargs, result):
    policy, _family_name, n, m, phases, trials = args[:6]
    sp.counts["walks"] = phases * trials
    sp.key = (n, m, policy)


def trace_points():
    """(owner, attribute, span name, counter) for every traced boundary."""
    from mtslab import adversaries, analysis, cli, core, engine, kernels

    return [
        (cli, "load_task_sequence", "core.load", None),
        (core, "from_json_dict", "core.validate", _entries),
        (cli, "decompose_phases", "core.decompose", None),
        (engine, "decompose_phases", "core.decompose", None),
        (core, "decompose_phases", "core.decompose", None),
        (cli, "run_scheduler", "engine.run", _moves),
        (cli, "opt_units", "opt", _opt),
        (engine, "opt_units", "opt", _opt),
        (cli, "simulate_family_trials", "kernels.family", _family),
        (kernels, "state_rows", "rng.seed", None),
        (analysis.SweepRecord, "from_counts", "analysis.records", None),
        (cli, "build_family", "adversaries.gen", None),
        (adversaries, "random_unit_sequence", "adversaries.gen", None),
        (cli, "save_task_sequence", "core.save", None),
        (core, "save_task_sequence", "core.save", None),
    ]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        sp = Span(name=name, start=perf_counter(), parent=parent)
        self.spans.append(sp)
        self._open.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counter(sp, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every trace point; restore the original names on exit."""
        saved = []
        try:
            for owner, attr, name, counter in trace_points():
                saved.append((owner, attr, vars(owner)[attr]))
                traced = self.wrap(name, getattr(owner, attr), counter)
                if isinstance(owner, type):
                    traced = staticmethod(traced)
                setattr(owner, attr, traced)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[Span]) -> list[float]:
    own = [sp.end - sp.start for sp in spans]
    for sp in spans:
        if sp.parent >= 0:
            own[sp.parent] -= sp.end - sp.start
    return own


def layer_totals(spans: list[Span]):
    """Per span name: summed self time and calls; summed counts; kernel keys."""
    seconds = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    keys = set()
    for sp, own in zip(spans, self_times(spans)):
        seconds[sp.name] += own
        calls[sp.name] += 1
        for key, value in sp.counts.items():
            counts[key] += value
        if sp.key is not None:
            keys.add(sp.key)
    return seconds, calls, counts, keys
