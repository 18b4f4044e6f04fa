"""The benchmark tracer's hooks into mtslab, checked without running the benchmark.

``perfbench/spans.py`` wraps mtslab functions by module attribute. A
rename or a dropped import under ``src/`` would otherwise surface only in
a traced benchmark run.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from mtslab.cli import main

_SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_trace_point_resolves(spans):
    for owner, attr, name, counter in spans.trace_points():
        assert attr in vars(owner), f"{owner.__name__}.{attr} ({name}) is gone"
        assert callable(getattr(owner, attr)), f"{owner.__name__}.{attr}"


def test_installed_tracer_puts_every_name_back(spans, tmp_path, capsys):
    originals = [(owner, attr, vars(owner)[attr])
                 for owner, attr, *_ in spans.trace_points()]
    tracer = spans.Tracer()
    path = str(tmp_path / "input.json")
    with tracer.installed():
        for owner, attr, original in originals:
            assert vars(owner)[attr] is not original, f"{owner.__name__}.{attr}"
        assert main(["adversary-gen", "--adversary", "reversal", "--n", "4",
                     "--eta0", "2", "--phases", "2", "--out", path]) == 0
        assert main(["simulate", "--input", path, "--algorithm", "lps"]) == 0
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr}"
    names = {span.name for span in tracer.take()}
    assert {"adversaries.gen", "core.save", "core.decompose", "core.load",
            "core.validate", "engine.run", "opt.whole"} <= names


def test_installed_tracer_records_the_sweep_layers(spans, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "n": [3], "eta0": [0, 2], "algorithms": ["lps", "oblivious"],
        "adversary": "rand-lb", "phases": 2, "granularity": 3, "trials": 2,
    }))
    tracer = spans.Tracer()
    with tracer.installed():
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
    names = [span.name for span in tracer.take()]
    # Two algorithms, one n: one kernel call over both algorithms and both
    # distinct tail sizes (eta0 = 0 and 2 give m = 1 and 2), seeding its
    # streams. One records call per kernel call builds all four
    # (algorithm, m) records from the call's arrays at once.
    assert names.count("kernels.family") == 1
    assert names.count("analysis.records") == 1
    assert "rng.seed" in names
