"""Benchmark the batched kernels.

Runs the lockstep family simulation kernel and the offline-optimum DP on
fixed workloads, printing wall times and a checksum of every result. With
--compare, also runs every family row through the per-trial reference
``oracles.simulate_family_scalar`` in the same process, prints the
kernel's speedup over it, and exits 1 if any checksum differs.

Usage: python bench/bench_kernels.py [--compare] [--trials N] [--phases N]
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from mtslab.analysis import max_forcible_transitions
from mtslab.kernels import backend_name, simulate_family_trials
from mtslab.opt import opt_units
from mtslab.oracles import simulate_family_scalar
from mtslab.rng import RandomStream, trial_seed


def bench_family(trials: int, phases: int, simulate=simulate_family_trials) -> dict:
    n, eta0, gran = 64, 128, 64
    m = min(max_forcible_transitions(eta0), n)
    results = {}
    for policy in ("oblivious", "lps", "robust-lps", "lowest-index"):
        for family in ("reversal", "rand-lb"):
            start = time.perf_counter()
            counts, costs = simulate(policy, family, n, m, phases, trials,
                                     granularity=gran, seed=1)
            elapsed = time.perf_counter() - start
            key = f"family/{policy}/{family}"
            results[key] = {
                "seconds": elapsed,
                "checksum": int(counts.sum() * 1000003 + costs.sum()),
            }
    return results


def bench_opt(instances: int) -> dict:
    stream = RandomStream(trial_seed(9, 0))
    opt_units(np.ones((4, 3), dtype=np.int64), 2)
    total = 0
    start = time.perf_counter()
    for _ in range(instances):
        n = 2 + stream.randbelow(7)
        steps = 50 + stream.randbelow(151)
        gran = 4 + stream.randbelow(13)
        tasks = np.empty((steps, n), dtype=np.int64)
        for t in range(steps):
            for s in range(n):
                tasks[t, s] = stream.randbelow(3)
        total += opt_units(tasks, gran)
    elapsed = time.perf_counter() - start
    return {"opt/dp": {"seconds": elapsed, "checksum": total}}


def run(trials: int, phases: int, instances: int) -> dict:
    results = {}
    results.update(bench_family(trials, phases))
    results.update(bench_opt(instances))
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--compare", action="store_true",
                        help="also run the per-trial oracle and diff the checksums")
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--phases", type=int, default=64)
    parser.add_argument("--opt-instances", type=int, default=20)
    args = parser.parse_args()

    results = run(args.trials, args.phases, args.opt_instances)
    print(f"backend: {backend_name()}")
    for key in sorted(results):
        row = results[key]
        print(f"  {key:32s} {row['seconds']*1000:10.2f} ms  checksum {row['checksum']}")
    if not args.compare:
        return 0

    oracle = bench_family(args.trials, args.phases, simulate=simulate_family_scalar)
    print("oracle: oracles.simulate_family_scalar")
    mismatches = 0
    for key in sorted(oracle):
        row = oracle[key]
        fast = results[key]
        same = row["checksum"] == fast["checksum"]
        mismatches += 0 if same else 1
        speedup = row["seconds"] / fast["seconds"] if fast["seconds"] > 0 else float("inf")
        mark = "ok" if same else "MISMATCH"
        print(f"  {key:32s} {row['seconds']*1000:10.2f} ms  "
              f"speedup {speedup:8.1f}x  checksum {mark}")
    if mismatches:
        print(f"{mismatches} checksum mismatches between the kernel and the oracle")
        return 1
    print("all checksums identical to the oracle's")
    return 0


if __name__ == "__main__":
    sys.exit(main())
