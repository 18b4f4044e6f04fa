"""The kernel benchmark script still produces every row the benchmark pins."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load(relative):
    spec = importlib.util.spec_from_file_location(Path(relative).stem, ROOT / relative)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_kernels_rows_match_the_pinned_row_names():
    # perfbench/run.py --kernel-rows imports bench/bench_kernels.py and looks
    # every row it returns up in the pinned checksums.
    bench = _load("bench/bench_kernels.py")
    pinned = _load("perfbench/kernel_rows.py").PINNED
    rows = bench.run(2, 2, 1)
    assert set(rows) == set(pinned)
    for row in rows.values():
        assert isinstance(row["checksum"], int) and row["seconds"] >= 0
