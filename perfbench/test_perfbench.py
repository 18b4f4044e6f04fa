"""Tests of the benchmark itself, at tiny sizes.

Run from the root of the repository:

    python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

TINY = {
    "simulate-wide": ["--phases", "4"],
    "simulate-narrow": ["--phases", "4", "--trials", "2"],
    "sweep-budget": ["--phases", "1", "--trials", "1"],
    "sweep-trials": ["--phases", "2", "--trials", "2"],
}

# Layers that run on each workload (see README.md), so a trace point that
# stopped matching shows as a 0 here.
SWEEP_LAYERS = ["kernels.family_calls", "kernels.family_s", "rng.seed_s", "analysis.records_s"]
LAYERS_RUN = {
    "simulate-wide": ["core.json_parse_s", "core.validate_s", "core.entries",
                      "core.decompose_calls", "core.decompose_s", "core.save_s",
                      "adversaries.gen_s", "engine.run_calls", "opt.phase_calls", "opt.cells"],
    "simulate-narrow": ["core.json_parse_s", "core.validate_s", "core.entries",
                        "core.decompose_calls", "core.decompose_s", "core.save_s",
                        "adversaries.gen_s", "engine.run_calls", "engine.moves",
                        "engine.run_self_s", "opt.phase_calls", "opt.whole_s"],
    "sweep-budget": SWEEP_LAYERS,
    "sweep-trials": SWEEP_LAYERS,
}


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def in_process(monkeypatch):
    """Import the benchmark's modules the way run.py sets up its path."""
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(sys, "path", [os.path.join(ROOT, "src"), HERE, *sys.path])


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in benchmark_spec()["workloads"]] == list(TINY)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(TINY))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0.2",
                 "--trace", trace, *TINY[workload])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    *lines, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    spec = benchmark_spec()["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    text = "\n".join(lines)
    for m in spec:
        pattern = rf"^\s+{re.escape(m['name'])}\s+\S+ {re.escape(m['unit'])}\b"
        assert re.search(pattern, text, re.M), m["name"]
    assert re.search(r"^\s+failed_frac\s+0 ratio$", text, re.M)
    if trace == "0":
        alias = "simulate_steps_per_s, steps/s" if workload.startswith("simulate") \
            else "sweep_walks_per_s, walks/s"
        assert f"({alias})" in text
    ran = LAYERS_RUN[workload] + ["cli.self_s"] if trace == "1" else list(result["metrics"])
    assert {k: result["metrics"][k]["value"] for k in ran if result["metrics"][k]["value"] <= 0} == {}

    provenance = json.loads(text.split("provenance ", 1)[1].splitlines()[0])
    for key in ("backend", "backend_comparison", "python", "numpy", "nproc",
                "commit", "seed", "sizes", "timing"):
        assert key in provenance
    assert provenance["seed"] == 5
    assert provenance["timing"]["unscaled_call_s"] > 0
    if trace == "0":
        assert provenance["timing"]["slowdown"] > 0


def test_simulate_wide_trace_shows_growth_of_each_simulate_layer():
    proc = bench("--workload", "simulate-wide", "--seconds", "0.2", "--trace", "1",
                 "--phases", "8")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    for name in ("core.decompose_growth", "engine.growth", "opt.growth"):
        assert metrics[name]["value"] > 1
    assert metrics["core.decompose_calls"]["value"] == 2
    assert metrics["core.entries"]["value"] == 8 * 64 * 64
    assert metrics["opt.phase_calls"]["value"] == 8


def test_mismatched_output_checksum_exits_1(in_process, monkeypatch, capsys):
    import run
    import workloads

    sizes = {"phases": 1, "trials": 1}
    key = workloads.pin_key("sweep-trials", 0, sizes)
    monkeypatch.setitem(workloads.PINNED, key, {"manifest.json": "0" * 64})
    rc = run.main(["--workload", "sweep-trials", "--seed", "0", "--seconds", "0.1",
                   "--trace", "0", "--phases", "1", "--trials", "1"])
    out = capsys.readouterr().out
    result = json.loads(out.splitlines()[-1])
    assert rc == 1
    assert not result["correct"] and result["failed"] >= 1
    assert "manifest.json has sha256" in out


@pytest.mark.parametrize("workload", ["simulate-wide", "sweep-trials"])
def test_an_exception_in_mtslab_fails_the_run(in_process, monkeypatch, capsys, workload):
    # simulate-wide calls the CLI in its set-up, sweep-trials only in its calls.
    import mtslab.cli
    import run

    def broken(argv):
        raise IndexError("broken on purpose")

    monkeypatch.setattr(mtslab.cli, "main", broken)
    rc = run.main(["--workload", workload, "--seed", "0", "--seconds", "0.1",
                   "--trace", "0", *TINY[workload]])
    out = capsys.readouterr().out
    result = json.loads(out.splitlines()[-1])
    assert rc == 1
    assert not result["correct"] and result["failed"] >= 1
    assert "raised IndexError('broken on purpose')" in out


def test_mismatched_kernel_row_checksum_exits_1(in_process, monkeypatch, capsys):
    import kernel_rows
    import run

    monkeypatch.setattr(kernel_rows, "DEFAULTS", {"trials": 2, "phases": 2, "instances": 1})
    assert run.main(["--kernel-rows"]) == 1
    assert "MISMATCH, pinned 2388" in capsys.readouterr().out


def test_kernel_rows_print_every_row(in_process):
    import kernel_rows

    proc = bench("--kernel-rows", "--trials", "2", "--phases", "2")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = re.findall(r"^\s+(\S+)\s+\S+ ms\s+checksum \d+$", proc.stdout, re.M)
    assert rows == sorted(kernel_rows.PINNED)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("--workload", "sweep-trials", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
