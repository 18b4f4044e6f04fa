"""Command-line front end.

Subcommands: adversary-gen (write generated inputs to JSON), simulate
(replay a file through a scheduler, per-phase rows as CSV or JSON),
verify (self-contained property suites), sweep (batched parameter grid
to CSV, one file per algorithm, plus a manifest).

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error, 3 malformed input file. All randomness derives from --seed
(default 0); rerunning any subcommand with identical arguments and seed
reproduces its output byte for byte.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import shutil
import sys

import numpy as np

from . import __version__
from .adversaries import FAMILY_NAMES, budget_tail_size, build_family, canonical_family
from .analysis import SweepRecord, round_ratio_half_up, transition_stats
from .core import (
    CELL_CAP,
    UNIT_LIMIT,
    canonical_json,
    csv_text,
    decompose_phases,
    load_task_sequence,
    pst_error_per_phase,
    save_task_sequence,
    write_text,
)
from .engine import run_scheduler
from .errors import ConfigurationError, MalformedInputError
from .kernels import FAMILIES, POLICIES, simulate_family_trials
from .opt import opt_units, phase_opt_units
from .rng import check_seed
from .schedulers import make_scheduler, scheduler_names
from .verify import SUITE_NAMES, run_suite


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every call.

    Parsing leaves it unchanged, so callers must not change it either.
    """
    parser = argparse.ArgumentParser(
        prog="mtslab",
        description="Simulation laboratory for uniform metrical task systems "
                    "with predictions.",
    )
    parser.add_argument("--version", action="version", version=f"mtslab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "adversary-gen",
        help="generate an input file from one of the adversary families",
    )
    gen.add_argument("--adversary", required=True,
                     help="family: " + ", ".join(FAMILY_NAMES))
    gen.add_argument("--n", type=int, required=True, help="number of states")
    gen.add_argument("--eta0", type=int, default=None,
                     help="prediction error budget (reversal, force-det)")
    gen.add_argument("--granularity", type=int, default=None,
                     help="units per saturation threshold (default n); for the lv "
                          "family, its repeat count r (> n, default n + 1)")
    gen.add_argument("--phases", type=int, default=1, help="complete phases to emit")
    gen.add_argument("--k", type=int, default=None,
                     help="shuffled tail size for the rand-lb family (>= 2)")
    gen.add_argument("--scheduler", default=None,
                     help="scheduler steered by the force-det and lv families: "
                          + ", ".join(scheduler_names()))
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output JSON path")
    gen.set_defaults(func=_cmd_adversary_gen)

    sim = sub.add_parser(
        "simulate",
        help="run a scheduler over an input file and emit per-phase rows",
    )
    sim.add_argument("--input", required=True, help="task sequence JSON path")
    sim.add_argument("--algorithm", required=True,
                     help="scheduler: " + ", ".join(scheduler_names()))
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--trials", type=int, default=1,
                     help="independent trials (> 1 only for randomized schedulers)")
    sim.add_argument("--format", choices=("csv", "json"), default="csv")
    sim.add_argument("--out", default=None,
                     help="row output path (default: standard output)")
    sim.set_defaults(func=_cmd_simulate)

    ver = sub.add_parser("verify", help="run the self-contained property suites")
    ver.add_argument("--suite", choices=SUITE_NAMES, default="all")
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(func=_cmd_verify)

    swp = sub.add_parser(
        "sweep",
        help="batched parameter grid over a synthetic family, CSV per algorithm",
    )
    swp.add_argument("--config", required=True, help="sweep configuration JSON path")
    swp.add_argument("--out", required=True, help="output directory")
    swp.set_defaults(func=_cmd_sweep)
    return parser


def _cmd_adversary_gen(args) -> int:
    check_seed(args.seed, "--seed")
    seq, m = build_family(
        args.adversary,
        n=args.n,
        granularity=args.granularity,
        eta0=args.eta0,
        phases=args.phases,
        seed=args.seed,
        scheduler=args.scheduler,
        k=args.k,
    )
    save_task_sequence(seq, args.out)
    errors = pst_error_per_phase(seq)
    print(f"wrote {args.out}: n={seq.n} granularity={seq.granularity} "
          f"steps={len(seq)} phases={len(errors)}")
    if m is None:
        print(f"r = {seq.granularity}")
    else:
        print(f"m = {m}")
    for index, err in enumerate(errors):
        if err is not None:
            print(f"phase {index}: realized error {err}")
    return 0


# One simulate row per (trial, complete phase), in CSV column order.
SIMULATE_FIELDS = ("trial", "phase_index", "transitions", "alg_cost_units", "opt_cost_units")


def _cmd_simulate(args) -> int:
    check_seed(args.seed, "--seed")
    seq = load_task_sequence(args.input)
    sched = make_scheduler(args.algorithm)
    if args.trials < 1:
        raise ConfigurationError("--trials must be >= 1")
    if args.trials > 1 and not sched.uses_rng:
        raise ConfigurationError(
            f"scheduler {sched.name!r} is deterministic; --trials must be 1"
        )
    decomposition = decompose_phases(seq)
    phases = [p for p in decomposition if p.complete]
    # One row per (trial, complete phase); the cap bounds the row list.
    max_trials = max(1, CELL_CAP // max(1, len(phases)))
    if args.trials > max_trials:
        raise ConfigurationError(
            f"--trials must be <= {max_trials} for {len(phases)} complete phases"
        )
    phase_opts = phase_opt_units(seq.tasks, seq.granularity, phases)
    opt_total = opt_units(seq.tasks, seq.granularity)

    # The rows in SIMULATE_FIELDS order; each entry is below core.UNIT_LIMIT.
    table = np.empty((args.trials, len(phases), len(SIMULATE_FIELDS)), dtype=np.int64)
    table[:, :, 0] = np.arange(args.trials)[:, None]
    table[:, :, 1] = np.arange(len(phases))
    table[:, :, 4] = phase_opts
    moved = np.empty((args.trials, len(phases)), dtype=np.int64)
    total_cost = 0
    for trial in range(args.trials):
        res = run_scheduler(seq, args.algorithm, seed=args.seed, trial_index=trial,
                            phases=decomposition)
        # The trailing phase, if any, comes last and has no optimum.
        table[trial, :, 2] = res.transitions[:len(phases)]
        table[trial, :, 3] = res.processing_units[:len(phases)]
        moved[trial] = res.move_counts[:len(phases)]
        total_cost += res.total_units
    table[:, :, 3] += moved * seq.granularity
    table = table.reshape(-1, len(SIMULATE_FIELDS))

    mean_transitions, max_transitions = transition_stats(table[:, 2])
    summary = {
        "algorithm": sched.name,
        "seed": args.seed,
        "trials": args.trials,
        "n": seq.n,
        "granularity": seq.granularity,
        "steps": len(seq),
        "complete_phases": len(phases),
        "mean_transitions_per_phase": mean_transitions,
        "max_transitions_per_phase": max_transitions,
        "total_cost_units": total_cost,
        "opt_cost_units": opt_total,
        "mean_cost_ratio": round_ratio_half_up(total_cost, opt_total * args.trials),
    }

    # An empty --out, like none, means standard output.
    out = args.out or None
    if args.format == "json":
        doc = {"rows": [dict(zip(SIMULATE_FIELDS, row)) for row in table.tolist()],
               "summary": summary}
        write_text(out, canonical_json(doc) + "\n")
        return 0

    write_text(out, csv_text(SIMULATE_FIELDS, table))
    print(canonical_json(summary), file=sys.stdout if out else sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    check_seed(args.seed, "--seed")
    result = run_suite(args.suite, seed=args.seed)
    for line in result.lines():
        print(line)
    return 0 if result.passed else 1


# Sweep config bounds, checked before anything is computed. The largest n
# bounds the kernel's walks at n - 1 moves per phase; core.CELL_CAP
# bounds the (trials, phases) count block and the (trials, n) walk blocks;
# and a trial costs at most 2 * n * granularity units per phase, so the
# unit bound keeps every cost sum in int64.
SWEEP_MAX_N = 1 << 12

_SWEEP_KEYS = {
    "n": list,
    "eta0": list,
    "algorithms": list,
    "adversary": str,
    "phases": int,
    "granularity": int,
    "trials": int,
    "seed": int,
}


def _load_sweep_config(path: str) -> tuple[dict, str]:
    """The checked config, as written plus the default seed, and its family."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (ValueError, RecursionError) as exc:
        # As in core.load_task_sequence: bad bytes, bad syntax, an integer
        # past the digit limit, or nesting past the recursion limit.
        raise ConfigurationError(f"sweep config is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigurationError("sweep config must be a JSON object")
    unknown = sorted(set(config) - set(_SWEEP_KEYS))
    if unknown:
        raise ConfigurationError(f"unknown sweep config keys: {unknown}")
    config.setdefault("seed", 0)
    for key, kind in _SWEEP_KEYS.items():
        if key not in config:
            raise ConfigurationError(f"sweep config is missing {key!r}")
        if not isinstance(config[key], kind) or isinstance(config[key], bool):
            raise ConfigurationError(f"sweep config key {key!r} must be {kind.__name__}")
    for key in ("n", "eta0"):
        values = config[key]
        if not values:
            raise ConfigurationError(f"sweep config key {key!r} must be non-empty")
        if any(not isinstance(v, int) or isinstance(v, bool) for v in values):
            raise ConfigurationError(f"sweep config key {key!r} must hold integers")
    if any(v < 1 for v in config["n"]):
        raise ConfigurationError("every n must be >= 1")
    if any(v < 0 for v in config["eta0"]):
        raise ConfigurationError("every eta0 must be >= 0")
    if not config["algorithms"]:
        raise ConfigurationError("sweep config key 'algorithms' must be non-empty")
    for algorithm in config["algorithms"]:
        if not isinstance(algorithm, str) or algorithm not in POLICIES:
            raise ConfigurationError(
                f"no batched kernel for algorithm {algorithm!r}; "
                f"choose from {', '.join(POLICIES)}"
            )
    repeated = sorted({a for a in config["algorithms"] if config["algorithms"].count(a) > 1})
    if repeated:
        raise ConfigurationError(f"sweep config lists algorithms more than once: {repeated}")
    if config["phases"] < 1 or config["trials"] < 1:
        raise ConfigurationError("phases and trials must be >= 1")
    check_seed(config["seed"], "sweep config key 'seed'")
    if config["granularity"] < max(config["n"]):
        raise ConfigurationError("granularity must be >= every swept n")
    n_max, trials, phases = max(config["n"]), config["trials"], config["phases"]
    if n_max > SWEEP_MAX_N:
        raise ConfigurationError(f"every n must be <= {SWEEP_MAX_N}")
    if trials * phases > CELL_CAP or trials * n_max > CELL_CAP:
        raise ConfigurationError(
            f"trials * phases and trials * n must each be <= {CELL_CAP}"
        )
    if trials * phases * 2 * n_max * config["granularity"] >= UNIT_LIMIT:
        raise ConfigurationError(
            f"trials * phases * 2 * n * granularity must be < {UNIT_LIMIT}"
        )
    family = canonical_family(config["adversary"])
    if family not in FAMILIES:
        raise ConfigurationError(
            f"family {family!r} steers a live scheduler and cannot be swept; "
            f"use adversary-gen + simulate"
        )
    return config, family


def _cmd_sweep(args) -> int:
    if not args.out:
        raise ConfigurationError("--out must name a directory")
    config, family = _load_sweep_config(args.config)
    seed = config["seed"]
    gran = config["granularity"]
    phases = config["phases"]
    trials = config["trials"]

    # Every state collects exactly one threshold of units per phase, so
    # parking in any single state is offline-optimal.
    opt_total = trials * phases * gran
    algorithms = config["algorithms"]
    lines = {algorithm: [SweepRecord.csv_header()] for algorithm in algorithms}
    for n in config["n"]:
        # A cell depends on eta0 only through m, and seeds, phases, trials
        # and granularity are fixed per sweep: one kernel pass runs every
        # algorithm over every distinct m of this n on one phase chain, and
        # one record per (algorithm, m), its row formatted once, gives the
        # rows of all its eta0. A pass holds every algorithm's counts at once,
        # so the cell cap charges algorithms x tail sizes x trials x max(n,
        # phases); algorithms split only where one tail size cannot hold all.
        ms = [budget_tail_size(n, eta0) for eta0 in config["eta0"]]
        first = {}  # the first eta0 of each distinct m
        for eta0, m in zip(config["eta0"], ms):
            first.setdefault(m, eta0)
        tails = sorted(first)
        room = CELL_CAP // (trials * max(n, phases))
        group = min(room, len(algorithms))
        step = max(1, room // len(algorithms))
        records = {}
        for i in range(0, len(tails), step):
            for a in range(0, len(algorithms), group):
                names, chunk = tuple(algorithms[a:a + group]), tuple(tails[i:i + step])
                counts, costs = simulate_family_trials(names, family, n, chunk, phases, trials,
                                                       granularity=gran, seed=seed)
                records.update(SweepRecord.from_counts(
                    counts, costs, n=n, algorithms=names, tails=chunk,
                    eta0s=[first[m] for m in chunk], seed=seed, opt_cost_units=opt_total,
                ))
        parts = {key: record.csv_row_parts() for key, record in records.items()}
        for algorithm in algorithms:
            lines[algorithm].extend(str(eta0).join(parts[algorithm, m])
                                    for eta0, m in zip(config["eta0"], ms))
    # (file name, text, note): every output is built before anything is
    # written, so a sweep that fails while computing leaves nothing behind.
    written = {algorithm: len(rows) - 1 for algorithm, rows in lines.items()}
    outputs = [(f"{algorithm}.csv", "\n".join(rows) + "\n", f": {written[algorithm]} records")
               for algorithm, rows in lines.items()]

    manifest = {"config": config, "version": __version__, "records": written}
    outputs.append(("manifest.json", canonical_json(manifest) + "\n", ""))
    # The files fill a temporary directory that is removed on any failure.
    # For a new --out it is a sibling, renamed to --out after the last file.
    # For an existing --out it lies inside it, on the same filesystem even
    # when --out is a mount point, and each file replaces its target only
    # after every file is written and no target is a directory.
    fresh = not os.path.lexists(args.out)
    parent, base = os.path.split(os.path.normpath(args.out))
    folder = os.path.join(parent if fresh else args.out, f".{base}.{os.urandom(8).hex()}.tmp")
    try:
        os.makedirs(folder, exist_ok=True)
    except OSError as exc:  # name --out, not the temporary directory
        raise OSError(exc.errno, exc.strerror, args.out) from None
    try:
        for name, text, _ in outputs:
            write_text(os.path.join(folder, name), text)
        if fresh:
            os.rename(folder, args.out)
        else:
            targets = [os.path.join(args.out, name) for name, _, _ in outputs]
            for target in targets:
                if os.path.isdir(target) and not os.path.islink(target):
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), target)
            for (name, _, _), target in zip(outputs, targets):
                os.replace(os.path.join(folder, name), target)
    finally:
        # Gone after the rename, and empty after the replacements.
        shutil.rmtree(folder, ignore_errors=True)
    for name, _, note in outputs:
        print(f"wrote {os.path.join(args.out, name)}{note}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MalformedInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
