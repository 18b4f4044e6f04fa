"""One benchmark command for mtslab: ``simulate`` and ``sweep``, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload simulate-wide --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --kernel-rows

A run is a closed loop: this one single-threaded process makes in-process
``mtslab.cli.main([...])`` calls, each after the previous one returned,
until ``--seconds`` have passed. With ``--trace 0`` it reports the
end-to-end metrics of an untraced run; with ``--trace 1`` it reports the
per-layer metrics of a traced run (see spans.py), measured against an
untraced run of the same inputs. Every call's outputs are checked (see
workloads.py). The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.

Exit codes: 0 every check passed, 1 a call failed or an output check
failed, 2 usage error or no mtslab sources under ./src.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import numpy as np

WORK_ROOT = ".perfbench_work"
# setup_s is the median of the set-ups an untraced run makes in its first
# SETUP_SECONDS, and at least MIN_SETUPS of them.
SETUP_SECONDS = 5.0
MIN_SETUPS = 5

# A shared host changes the speed of this process by tens of percent, for
# fractions of a second to minutes at a time, as other tenants come and go.
# So while a CLI call runs, a timer interrupts it every TICK seconds
# to time reference(), and the operation's own seconds are scaled to the host
# speed at which reference() takes REF_SECONDS (see README.md for the
# spreads this removes).
TICK = 0.05
REF_SECONDS = 0.002  # round figure near reference()'s time on a 2-vCPU Xeon VM

# A set-up starts a fresh interpreter that imports mtslab, as a user's first
# command would; everything else runs in this process. The host's speed at
# starting interpreters is measured with one that imports only numpy, timed
# right before and right after each set-up, and set-ups are scaled to the
# host speed at which that takes INTERPRETER_SECONDS.
IMPORT_PROBE = "import sys; sys.path.insert(0, 'src'); import mtslab.cli"
INTERPRETER_SECONDS = 0.2  # round figure near its time on a 2-vCPU Xeon VM

END_TO_END = {"setup_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MiB"}

LAYERS = {
    "core.json_parse_s": "s",
    "core.validate_s": "s",
    "core.entries": "count",
    "core.decompose_s": "s",
    "core.decompose_calls": "count",
    "core.decompose_growth": "ratio",
    "core.save_s": "s",
    "adversaries.gen_s": "s",
    "engine.run_self_s": "s",
    "engine.run_calls": "count",
    "engine.moves": "count",
    "engine.growth": "ratio",
    "opt.phase_s": "s",
    "opt.phase_calls": "count",
    "opt.whole_s": "s",
    "opt.cells": "count",
    "opt.cells_per_s": "cells/s",
    "opt.growth": "ratio",
    "kernels.family_s": "s",
    "kernels.family_calls": "count",
    "kernels.family_walks_per_s": "walks/s",
    "kernels.family_distinct_frac": "ratio",
    "rng.seed_s": "s",
    "analysis.records_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}

# Growth = layer time per call at full size over quarter size.
GROWTH = {
    "core.decompose_growth": ("core.decompose_s",),
    "engine.growth": ("engine.run_self_s",),
    "opt.growth": ("opt.phase_s", "opt.whole_s"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Benchmark mtslab simulate and sweep; see perfbench/README.md.")
    parser.add_argument("--workload", help="simulate-wide, simulate-narrow, "
                        "sweep-budget or sweep-trials")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--phases", type=int, help="override the workload's phases")
    parser.add_argument("--trials", type=int, help="override the workload's trials")
    parser.add_argument("--kernel-rows", action="store_true",
                        help="print the batched-kernel rows and their checksums")
    args = parser.parse_args(argv)
    if not args.kernel_rows and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    for key in ("phases", "trials"):
        if getattr(args, key) is not None and getattr(args, key) < 1:
            parser.error(f"--{key} must be >= 1")
    return parser, args


def git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(seed, sizes, args) -> dict:
    import numpy
    from mtslab import __version__
    from mtslab.kernels import backend_name

    backend = backend_name()
    comparison = f"not run: this benchmark measures only the active {backend} backend"
    if importlib.util.find_spec("numba") is None:
        comparison += "; numba cannot be imported, so no other backend exists here"
    return {
        "mtslab": __version__,
        "backend": backend,
        "backend_comparison": comparison,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "commit": git_commit(os.getcwd()),
        "workload": args.workload,
        "seed": seed,
        "sizes": sizes,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def reference() -> None:
    """Fixed interpreter and small-array numpy work, the mix the workloads run."""
    acc = 0
    for i in range(10_000):
        acc += i * i
    a = np.arange(64, dtype=np.int64)
    for _ in range(150):
        b = np.minimum(a, 7) + a[::-1]
        a = np.where(b > 30, b, a)


def interpreter_seconds() -> float:
    """Wall seconds of a fresh interpreter that imports numpy but not mtslab."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True,
                   check=True, timeout=120)
    return perf_counter() - start


class HostSpeed:
    """Samples the host's speed while an operation runs, and scales the operation by it."""

    def __init__(self) -> None:
        self.slowdowns: list[float] = []
        self.setup_slowdowns: list[float] = []
        self._samples: list[float] = []
        self._sampling = False
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum=None, frame=None) -> None:
        if self._sampling:  # a tick that fires during a tick is dropped
            return
        self._sampling = True
        try:
            start = perf_counter()
            reference()
            self._samples.append(perf_counter() - start)
        finally:
            self._sampling = False

    @contextlib.contextmanager
    def sampling(self):
        """Sample during the block; yields a function giving the seconds sampled so far."""
        self._samples = []
        self._tick()  # one sample right before and one right after the block
        signal.setitimer(signal.ITIMER_REAL, TICK, TICK)
        try:
            yield lambda: sum(self._samples[1:])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._tick()

    def scale(self, seconds: float) -> float:
        """Scale the operation just sampled to the reference host speed."""
        slowdown = statistics.mean(self._samples) / REF_SECONDS
        self.slowdowns.append(slowdown)
        return seconds / slowdown

    def scale_setup(self, seconds: float, before: float) -> float:
        """Scale a set-up that ``interpreter_seconds()`` took ``before`` to start."""
        slowdown = (before + interpreter_seconds()) / 2 / INTERPRETER_SECONDS
        self.setup_slowdowns.append(slowdown)
        return seconds / slowdown


class Run:
    """Set-ups and checked CLI calls of one workload, with their tally.

    With ``speed``, every set-up and call is scaled to the reference host;
    the unscaled seconds are kept in ``raw`` either way.
    """

    def __init__(self, workload, seed: int, work: str, speed=None) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.speed = speed
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._first_outputs: dict = {}
        self._first_input: dict = {}
        self.raw: dict[str, list[float]] = {"setup": [], "call": []}

    def _record(self, what: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(f"{what}: {e}" for e in errors)

    def _timed(self, kind: str, op, speed=None):
        """(op's result or the exception it raised, its seconds).

        With ``speed``, the seconds leave out the time the sampling itself
        took and are scaled to the reference host.
        """
        sampling = speed.sampling() if speed else contextlib.nullcontext(lambda: 0.0)
        with sampling as sampled:
            start = perf_counter()
            try:
                result = op()
            except Exception as exc:  # a defect in mtslab fails the operation, not the run
                result = exc
            seconds = perf_counter() - start - sampled()
        self.raw[kind].append(seconds)
        return result, speed.scale(seconds) if speed else seconds

    def setup(self, sizes):
        """(inputs, seconds) for one set-up; inputs is None if it failed."""
        from workloads import digest

        folder = tempfile.mkdtemp(prefix="setup-", dir=self.work)

        def make():
            subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                           check=True, timeout=120)
            return self.workload.setup(folder, self.seed, sizes)

        before = interpreter_seconds() if self.speed else 0.0
        inputs, seconds = self._timed("setup", make)
        if self.speed:
            seconds = self.speed.scale_setup(seconds, before)
        if isinstance(inputs, Exception):
            self._record("set-up", [f"set-up raised {inputs!r}"])
            return None, seconds
        errors = ["input generation failed"] if inputs is None else []
        if inputs is not None:
            # The same seed and sizes must give the same input bytes.
            with open(inputs.path, "rb") as fh:
                got = digest(fh.read())
            key = tuple(sorted(sizes.items()))
            if self._first_input.setdefault(key, got) != got:
                errors.append("input differs from the first set-up's")
        self._record("set-up", errors)
        return inputs, seconds

    def _check(self, inputs, sizes, files) -> list[str]:
        from workloads import PINNED, digest, pin_key

        first = self._first_outputs.get(inputs.path)
        if first is not None:
            changed = sorted(n for n in set(files) | set(first) if files.get(n) != first.get(n))
            return [f"outputs differ from the first call: {changed}"] if changed else []
        self._first_outputs[inputs.path] = files
        errors = self.workload.check(inputs, files, sizes)
        pinned = PINNED.get(pin_key(self.workload.name, self.seed, sizes), {})
        for name, want in sorted(pinned.items()):
            got = digest(files.get(name, b""))
            if got != want:
                errors.append(f"{name} has sha256 {got}, pinned {want}")
        return errors

    def call(self, inputs, sizes, tracer=None) -> float:
        """Seconds of one checked CLI call, scaled if the run has a speed."""
        from workloads import run_cli

        out = tempfile.mkdtemp(prefix="call-", dir=self.work)
        argv = self.workload.argv(inputs, out, self.seed, sizes)
        gc.collect()
        result, seconds = self._timed("call", lambda: run_cli(argv, tracer), self.speed)
        if isinstance(result, Exception):
            errors = [f"mtslab {argv[0]} raised {result!r}"]
        elif result[0] != 0:
            errors = [f"mtslab {argv[0]} exited {result[0]}"]
        else:
            try:
                errors = self._check(inputs, sizes, self.workload.outputs(out, result[1]))
            except Exception as exc:  # malformed output fails the call, not the run
                errors = [f"unreadable output: {exc!r}"]
        shutil.rmtree(out)
        self._record(f"call {self.attempted}", errors)
        return seconds

    def measure(self, inputs, sizes, seconds, tracer=None, min_calls=1):
        """Call back to back for ``seconds``; (call seconds, spans per call)."""
        times, spans = [], []
        start = perf_counter()
        while len(times) < min_calls or perf_counter() - start < seconds:
            times.append(self.call(inputs, sizes, tracer))
            if tracer is not None:
                spans.append(tracer.take())
        return times, spans

    def timing(self) -> dict:
        """Median unscaled seconds of the set-ups and calls, and the median slowdowns."""
        def median(values):
            return statistics.median(values) if values else None

        timing = {"unscaled_setup_s": median(self.raw["setup"]),
                  "unscaled_call_s": median(self.raw["call"]),
                  "calls": len(self.raw["call"])}
        if self.speed is None:
            timing["scaled"] = "no: a traced run reports unscaled seconds"
        else:
            timing["scaled"] = (f"calls to a host where reference() takes {REF_SECONDS} s, "
                                f"set-ups to one where interpreter_seconds() is "
                                f"{INTERPRETER_SECONDS} s")
            timing["slowdown"] = median(self.speed.slowdowns)
            timing["setup_slowdown"] = median(self.speed.setup_slowdowns)
        return timing


def call_layers(spans) -> dict:
    """Layer metrics of one traced CLI call."""
    from spans import layer_totals

    sec, calls, counts, keys = layer_totals(spans)
    opt_s = sec["opt.phase"] + sec["opt.whole"]
    family_s = sec["kernels.family"]
    family_calls = calls["kernels.family"]
    return {
        "core.json_parse_s": sec["core.load"],
        "core.validate_s": sec["core.validate"],
        "core.entries": counts["entries"],
        "core.decompose_s": sec["core.decompose"],
        "core.decompose_calls": calls["core.decompose"],
        "engine.run_self_s": sec["engine.run"],
        "engine.run_calls": calls["engine.run"],
        "engine.moves": counts["moves"],
        "opt.phase_s": sec["opt.phase"],
        "opt.phase_calls": calls["opt.phase"],
        "opt.whole_s": sec["opt.whole"],
        "opt.cells": counts["cells"],
        "opt.cells_per_s": counts["cells"] / opt_s if opt_s else 0.0,
        "kernels.family_s": family_s,
        "kernels.family_calls": family_calls,
        "kernels.family_walks_per_s": counts["walks"] / family_s if family_s else 0.0,
        "kernels.family_distinct_frac": len(keys) / family_calls if family_calls else 0.0,
        "rng.seed_s": sec["rng.seed"],
        "analysis.records_s": sec["analysis.records"],
        "cli.self_s": sec["cli.main"],
    }


def median_layers(per_call) -> dict:
    layers = [call_layers(spans) for spans in per_call]
    return {k: statistics.median(c[k] for c in layers) for k in layers[0]}


def untraced_run(run, sizes, seconds) -> dict:
    setups, start = [], perf_counter()
    while len(setups) < MIN_SETUPS or perf_counter() - start < SETUP_SECONDS:
        inputs, elapsed = run.setup(sizes)
        setups.append(elapsed)
    if inputs is None:
        return {}
    times, _ = run.measure(inputs, sizes, seconds)
    return {
        "setup_s": statistics.median(setups),
        "work_per_s": inputs.work / statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_run(run, sizes, seconds) -> dict:
    from spans import Tracer, layer_totals

    tracer = Tracer()
    with tracer.installed():
        inputs, _ = run.setup(sizes)
    setup_sec = layer_totals(tracer.take())[0]
    if inputs is None:
        return {}
    # Untraced and traced calls alternate, so each pair sees the same host speed.
    overheads, per_call, start = [], [], perf_counter()
    while not per_call or perf_counter() - start < seconds:
        plain = run.call(inputs, sizes)
        with tracer.installed():
            overheads.append(run.call(inputs, sizes, tracer) / plain - 1)
        per_call.append(tracer.take())
    metrics = median_layers(per_call)
    with tracer.installed():
        growth = dict.fromkeys(GROWTH, 0.0)
        if run.workload.kind == "simulate":
            quarter = {**sizes, "phases": max(1, sizes["phases"] // 4)}
            small, _ = run.setup(quarter)
            tracer.take()
            if small is not None:
                _, small_calls = run.measure(small, quarter, seconds / 4, tracer, min_calls=3)
                small_metrics = median_layers(small_calls)
                for name, parts in GROWTH.items():
                    base = sum(small_metrics[p] for p in parts)
                    growth[name] = sum(metrics[p] for p in parts) / base if base else 0.0
    metrics.update(growth)
    metrics["core.save_s"] = setup_sec["core.save"]
    metrics["adversaries.gen_s"] = setup_sec["adversaries.gen"]
    metrics["trace.overhead_frac"] = statistics.median(overheads)
    return {name: metrics[name] for name in LAYERS}


def report(workload, metrics, units, run) -> None:
    frac = run.failed / run.attempted if run.attempted else 1.0
    print(f"{workload.name}: {run.attempted} checked operations, {run.failed} failed")
    for name, value in metrics.items():
        alias = ""
        if name == "work_per_s":
            alias = f"  ({workload.work_name}, {workload.work_unit})"
        print(f"  {name:30s} {value:.6g} {units[name]}{alias}")
    print(f"  {'failed_frac':30s} {frac:.6g} ratio")
    for error in run.errors:
        print(f"  FAILED {error}")


def main(argv=None) -> int:
    parser, args = parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "mtslab", "__init__.py")):
        print("error: no mtslab sources under ./src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))

    if args.kernel_rows:
        import kernel_rows

        sizes = {**kernel_rows.DEFAULTS,
                 **{k: v for k in ("trials", "phases") if (v := getattr(args, k))}}
        print(f"provenance {json.dumps(provenance(None, sizes, args), sort_keys=True)}")
        return kernel_rows.run(sizes["trials"], sizes["phases"], sizes["instances"])

    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    sizes = dict(workload.defaults)
    for key in ("phases", "trials"):
        value = getattr(args, key)
        if value is not None:
            if key not in sizes:
                parser.error(f"workload {workload.name} has no {key} to set")
            sizes[key] = value

    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT)
    run = Run(workload, args.seed, work, speed=None if args.trace else HostSpeed())
    try:
        if args.trace:
            metrics, units = traced_run(run, sizes, args.seconds), LAYERS
        else:
            metrics, units = untraced_run(run, sizes, args.seconds), END_TO_END
    finally:
        shutil.rmtree(work)
        if not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)

    report(workload, metrics, units, run)
    facts = {**provenance(args.seed, sizes, args), "timing": run.timing()}
    print(f"provenance {json.dumps(facts, sort_keys=True)}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
