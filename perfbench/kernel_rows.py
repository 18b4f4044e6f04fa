"""Batched-kernel rows of ``bench/bench_kernels.py``, checked against pinned checksums.

The rows come from ``bench_kernels.run``: every kernel policy on both
synthetic families, and the DP. A family row's checksum is
counts.sum() * 1000003 + costs.sum(); ``opt/dp`` sums the optimum over
random instances. At the default sizes every checksum must equal its
pinned value.
"""

from __future__ import annotations

import os
import sys

DEFAULTS = {"trials": 200, "phases": 64, "instances": 20}

PINNED = {
    "family/lowest-index/rand-lb": 30271007493,
    "family/lowest-index/reversal": 15202033600,
    "family/lps/rand-lb": 43269879538,
    "family/lps/reversal": 204816076800,
    "family/oblivious/rand-lb": 60785638999,
    "family/oblivious/reversal": 60473609616,
    "family/robust-lps/rand-lb": 43293881179,
    "family/robust-lps/reversal": 102684633273,
    "opt/dp": 2388,
}


def run(trials: int, phases: int, instances: int) -> int:
    """Print every row; 1 if a checksum at the default sizes is off its pin."""
    sys.path.insert(0, os.path.join(os.getcwd(), "bench"))
    import bench_kernels

    rows = bench_kernels.run(trials, phases, instances)
    pinned = (trials, phases, instances) == tuple(DEFAULTS.values())
    mismatches = 0
    for key in sorted(rows):
        seconds, checksum = rows[key]["seconds"], rows[key]["checksum"]
        mark = ""
        if pinned:
            ok = checksum == PINNED[key]
            mismatches += not ok
            mark = "  ok" if ok else f"  MISMATCH, pinned {PINNED[key]}"
        print(f"  {key:32s} {seconds * 1000:10.2f} ms  checksum {checksum}{mark}")
    if mismatches:
        print(f"{mismatches} checksums differ from their pinned values")
    return 1 if mismatches else 0
