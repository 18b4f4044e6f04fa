"""The benchmark's workloads: inputs from a seed, one CLI call, its checks.

Each workload builds its inputs once per set-up, then replays one
``mtslab simulate`` or ``mtslab sweep`` call. Every call's outputs are
checked three ways:

* closed forms that hold for any seed (on the reversal family, lps makes
  exactly m transitions per phase and every per-phase optimum equals the
  granularity; see each workload's ``check``);
* byte identity with the first call on the same inputs;
* sha256 checksums pinned in ``PINNED``, for the seeds and sizes listed
  there.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass

from mtslab import adversaries, cli, core

# Reversal and rand-lb inputs at n=64 use the default granularity n.
N_WIDE = 64
ETA0 = 128


def run_cli(argv, tracer=None):
    """Run ``mtslab.cli.main`` in this process; (exit code, captured stdout).

    Any other exception than ``SystemExit`` propagates; the caller counts it
    as a failed operation.
    """
    out = io.StringIO()
    span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
    with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def forcible(eta0: int, n: int) -> int:
    """m: transitions an error budget eta0 can force, clamped to n states."""
    return min(math.isqrt(2 * eta0 + 1), n)


def csv_rows(data: bytes) -> list[dict]:
    header, *lines = data.decode().splitlines()
    names = header.split(",")
    return [dict(zip(names, line.split(","))) for line in lines]


@dataclass
class Inputs:
    """A workload's generated inputs: the input path and what a call does."""

    path: str
    work: int  # steps x trials, or phase walks, per call
    steps: int = 0


class Simulate:
    kind = "simulate"
    work_name, work_unit = "simulate_steps_per_s", "steps/s"

    def __init__(self, name, algorithm, defaults):
        self.name = name
        self.algorithm = algorithm
        self.defaults = defaults

    def argv(self, inputs, out, seed, sizes):
        argv = ["simulate", "--input", inputs.path, "--algorithm", self.algorithm,
                "--seed", str(seed), "--out", os.path.join(out, "rows.csv")]
        if "trials" in sizes:
            argv += ["--trials", str(sizes["trials"])]
        return argv

    def outputs(self, out, stdout):
        with open(os.path.join(out, "rows.csv"), "rb") as fh:
            rows = fh.read()
        return {"rows.csv": rows, "summary.json": stdout.encode()}

    def check_summary(self, inputs, files, sizes):
        summary = json.loads(files["summary.json"])
        trials = sizes.get("trials", 1)
        want = {"steps": inputs.steps, "complete_phases": sizes["phases"], "trials": trials}
        return [f"summary {k} is {summary.get(k)}, expected {v}"
                for k, v in want.items() if summary.get(k) != v]


class SimulateWide(Simulate):
    def setup(self, work, seed, sizes):
        path = os.path.join(work, "wide.json")
        rc, _ = run_cli(["adversary-gen", "--adversary", "reversal", "--n", str(N_WIDE),
                         "--eta0", str(ETA0), "--phases", str(sizes["phases"]),
                         "--seed", str(seed), "--out", path])
        if rc != 0:
            return None
        steps = N_WIDE * sizes["phases"]
        return Inputs(path, work=steps, steps=steps)

    def check(self, inputs, files, sizes):
        m = forcible(ETA0, N_WIDE)
        rows = csv_rows(files["rows.csv"])
        errors = self.check_summary(inputs, files, sizes)
        if len(rows) != sizes["phases"]:
            errors.append(f"{len(rows)} rows for {sizes['phases']} phases")
        for row in rows:
            if int(row["transitions"]) != m or int(row["opt_cost_units"]) != N_WIDE:
                errors.append(f"lps on reversal broke the closed form in row {row}")
                break
        return errors


class SimulateNarrow(Simulate):
    N = 8

    def setup(self, work, seed, sizes):
        path = os.path.join(work, "narrow.json")
        seq = adversaries.random_unit_sequence(self.N, self.N, sizes["phases"], seed=seed)
        core.save_task_sequence(seq, path)
        return Inputs(path, work=len(seq) * sizes["trials"], steps=len(seq))

    def check(self, inputs, files, sizes):
        # One unit arrives per step, so the last state to saturate holds
        # exactly g units when a phase closes: every free-start per-phase
        # optimum is the granularity, and no run can cost less.
        rows = csv_rows(files["rows.csv"])
        errors = self.check_summary(inputs, files, sizes)
        if len(rows) != sizes["phases"] * sizes["trials"]:
            errors.append(f"{len(rows)} rows for {sizes['phases']} phases x trials")
        for row in rows:
            k, cost, opt = (int(row[f]) for f in
                            ("transitions", "alg_cost_units", "opt_cost_units"))
            if opt != self.N or cost < opt or not 1 <= k <= self.N:
                errors.append(f"oblivious on unit demands broke a bound in row {row}")
                break
        return errors


class Sweep:
    kind = "sweep"
    work_name, work_unit = "sweep_walks_per_s", "walks/s"

    def __init__(self, name, adversary, eta0s, algorithms, defaults):
        self.name = name
        self.adversary = adversary
        self.eta0s = eta0s
        self.algorithms = algorithms
        self.defaults = defaults

    def setup(self, work, seed, sizes):
        config = {
            "n": [N_WIDE], "eta0": self.eta0s, "algorithms": self.algorithms,
            "adversary": self.adversary, "phases": sizes["phases"],
            "granularity": N_WIDE, "trials": sizes["trials"], "seed": seed,
        }
        path = os.path.join(work, f"{self.name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        walks = len(self.eta0s) * len(self.algorithms) * sizes["phases"] * sizes["trials"]
        return Inputs(path, work=walks)

    def argv(self, inputs, out, seed, sizes):
        return ["sweep", "--config", inputs.path, "--out", os.path.join(out, "sweep")]

    def outputs(self, out, stdout):
        folder = os.path.join(out, "sweep")
        files = {}
        for name in sorted(os.listdir(folder)):
            with open(os.path.join(folder, name), "rb") as fh:
                files[name] = fh.read()
        return files

    def check(self, inputs, files, sizes):
        expected = [f"{a}.csv" for a in self.algorithms] + ["manifest.json"]
        if sorted(files) != sorted(expected):
            return [f"sweep wrote {sorted(files)}, expected {sorted(expected)}"]
        manifest = json.loads(files["manifest.json"])
        errors = []
        if manifest.get("records") != {a: len(self.eta0s) for a in self.algorithms}:
            errors.append(f"manifest records {manifest.get('records')}")
        opt = sizes["trials"] * sizes["phases"] * N_WIDE
        for algorithm in self.algorithms:
            for eta0, row in zip(self.eta0s, csv_rows(files[f"{algorithm}.csv"])):
                m = forcible(eta0, N_WIDE)
                most = int(row["max_transitions_per_phase"])
                ok = (int(row["m"]) == m and int(row["opt_cost_units"]) == opt
                      and int(row["total_cost_units"]) >= opt and 1 <= most <= N_WIDE)
                if self.adversary == "reversal" and algorithm == "lps":
                    ok = ok and most == m and row["mean_transitions_per_phase"] == f"{m}.000000"
                if not ok:
                    errors.append(f"{algorithm} broke a closed form in row {row}")
                    break
        return errors


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        SimulateWide("simulate-wide", "lps", {"phases": 100}),
        SimulateNarrow("simulate-narrow", "oblivious", {"phases": 100, "trials": 16}),
        Sweep("sweep-budget", "reversal", list(range(0, 2049, 8)), ["lps", "robust-lps"],
              {"phases": 2, "trials": 8}),
        Sweep("sweep-trials", "rand-lb", [ETA0],
              ["oblivious", "lps", "robust-lps", "lowest-index"], {"phases": 16, "trials": 200}),
    )
}


def pin_key(workload: str, seed: int, sizes: dict) -> str:
    return " ".join([workload, f"seed={seed}"] + [f"{k}={v}" for k, v in sorted(sizes.items())])


# sha256 of every output file, from the sources this benchmark was written
# against; a change that alters an output byte fails the run.
PINNED: dict[str, dict[str, str]] = {
    "simulate-wide seed=0 phases=100": {
        "rows.csv": "e6c7861be7010f762a8c8edc1ad66b4d5d271253600f8e90b1b93f7c30cc9957",
        "summary.json": "2f47be84056008c0c2e1edf2f1b52c74f29951a19f49a7749386757b22d3eccd",
    },
    "simulate-narrow seed=0 phases=100 trials=16": {
        "rows.csv": "f87743c0a227c7209394353422ca2d7091a3648504f981f63d86ce72ff2eaa4e",
        "summary.json": "3d976fc02716df4c558d082d794231414a0b851f251e67b7e1eae4e21f5a769d",
    },
    "sweep-budget seed=0 phases=2 trials=8": {
        "lps.csv": "fc6d6253381bb42df8761d8829cd1b79b2b44789ed31b5d0232f651712e56ac4",
        "manifest.json": "5d272bc1f828efd0ae4d1498291a3a41fc4d8bb306d68a923edbd022338f58e7",
        "robust-lps.csv": "25ad806d74648b936013737f7b84638bebff04b3c974da13625201aabbeb1164",
    },
    "sweep-trials seed=0 phases=16 trials=200": {
        "lowest-index.csv": "81df34e184b631c7f44ad1c6eb2ee9e22803a5c0f7c67647f5601fa6a1265769",
        "lps.csv": "7023ce6be473a0e10a081992d759d4914874dbb8beea6d64d832af8597e5a8e3",
        "manifest.json": "9e70f62223a3ed6a94b02c20f225485f718fe432628a6ef7e17907a86e93234b",
        "oblivious.csv": "0d16495b89aebb611a5fa4a252ca5143a60ae96e57e6c2936591bf493c09e160",
        "robust-lps.csv": "aba9dbcdb31eebb1c5ba9dc81866affe0e0f25e07ffb31f56f990ea2295e93c3",
    },
}
