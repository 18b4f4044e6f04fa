"""Consistency checks for task sequences and recorded runs.

Each check is a named pass/fail with a human-readable detail line. Some
read the input alone, the offline-optimum sandwich among them; the rest
check one scheduler run over it; the invariants suite runs both kinds on
random inputs it draws. The command line's ``verify`` runs the suites and
maps any failed check to a nonzero exit status.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations, product

from .adversaries import random_unit_sequence
from .analysis import (
    harmonic_number,
    max_footrule,
    max_footrule_consistency,
    max_forcible_transitions,
    robustness_threshold,
)
from .core import Phase, TaskSequence, decompose_phases, lv_loss, schedule_cost
from .engine import run_scheduler
from .errors import ConfigurationError
from .opt import opt_units, phase_opt_units
from .rng import RandomStream, trial_seed
from .schedulers import SCHEDULERS

SUITE_NAMES = ("arith", "footrule", "opt", "invariants", "all")


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass
class VerifyResult:
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str) -> None:
        self.checks.append(CheckResult(name, passed, detail))

    def lines(self) -> list:
        out = []
        for c in self.checks:
            mark = "ok" if c.passed else "FAIL"
            out.append(f"[{mark}] {c.name}: {c.detail}")
        return out


def _check_sequence(result: VerifyResult, seq: TaskSequence, decomposed) -> None:
    """The checks that read the input alone, not a run over it."""
    phases = [p for p in decomposed if p.complete]
    trailing = decomposed[-1] if decomposed and not decomposed[-1].complete else None
    suffix_steps = 0 if trailing is None else len(seq) - trailing.start
    result.add(
        "phase-structure",
        len(seq) > 0,
        f"{len(phases)} complete phases, {suffix_steps} suffix steps, "
        f"{len(seq)} steps total",
    )

    if seq.pst is not None:
        starts = {p.start for p in decomposed}
        stray = sorted(seq.pst.keys() - starts)
        missing = [p.start for p in phases if p.h is None]
        result.add(
            "pst-alignment",
            not stray and not missing,
            "every block sits on a phase boundary and every complete phase "
            "has a block"
            if not stray and not missing
            else f"stray block starts {stray}, uncovered phase starts {missing}",
        )

    if seq.lv is not None:
        result.add("next-request-loss", True, f"total loss {lv_loss(seq)}")

    if phases:
        # Over k complete phases the offline optimum costs k*g to 2k*g units.
        opt = opt_units(seq.tasks[: phases[-1].end + 1], seq.granularity)
        lo, hi = len(phases) * seq.granularity, 2 * len(phases) * seq.granularity
        ok = lo <= opt <= hi
        result.add(
            "offline-sandwich",
            ok,
            f"offline optimum {opt} within [{lo}, {hi}] over {len(phases)} complete phases"
            if ok
            else f"offline optimum {opt} outside [{lo}, {hi}]",
        )


def _check_run(result: VerifyResult, seq: TaskSequence, decomposed, scheduler, *,
               seed: int) -> None:
    """Run ``scheduler`` over ``seq`` and check the run."""
    run = run_scheduler(seq, scheduler, seed=seed, phases=decomposed)
    _, audit_move, audit_proc = schedule_cost(seq.tasks, seq.granularity, run.schedule)
    engine_move = run.total_moves * seq.granularity
    engine_proc = sum(run.processing_units)
    ok = audit_move == engine_move and audit_proc == engine_proc
    result.add(
        "cost-identity",
        ok,
        f"audited movement {audit_move} and processing {audit_proc} match the run"
        if ok
        else f"audit ({audit_move}, {audit_proc}) != engine ({engine_move}, {engine_proc})",
    )

    if run.conforming:
        gran = seq.granularity
        bad = []
        for p in run.phases:
            lo = p.transitions * gran
            hi = (2 * p.transitions + 1) * gran
            if p.phase.complete and not lo <= p.cost_units <= hi:
                bad.append((p.phase.index, p.transitions, p.cost_units))
        result.add(
            "phase-cost-sandwich",
            not bad,
            "every complete phase spends between k*g and (2k+1)*g units for "
            "its k transition events"
            if not bad
            else f"violations (phase, transitions, units): {bad}",
        )


# ---- self-contained property suites (command line `verify`) ----

def arith_suite() -> VerifyResult:
    """Closed-form arithmetic against frozen values and band consistency."""
    result = VerifyResult()
    frozen_max = {1: 0, 2: 2, 3: 4, 4: 8, 5: 12, 6: 18}
    bad = {m: (max_footrule(m), want) for m, want in frozen_max.items()
           if max_footrule(m) != want}
    result.add("footrule-frozen-values", not bad,
               f"max_footrule matches {frozen_max}" if not bad else f"mismatches {bad}")

    frozen_inv = {0: 1, 4: 3, 5: 3, 18: 6, 200: 20}
    bad = {e: (max_forcible_transitions(e), want) for e, want in frozen_inv.items()
           if max_forcible_transitions(e) != want}
    result.add("forcible-frozen-values", not bad,
               f"max_forcible_transitions matches {frozen_inv}"
               if not bad else f"mismatches {bad}")

    violation = max_footrule_consistency(1000)
    result.add(
        "footrule-band-consistency",
        violation is None,
        "budget bands invert exactly for all m <= 1000"
        if violation is None
        else f"first violation (m, budget) = {violation}",
    )

    frozen_h = {1: Fraction(1), 2: Fraction(3, 2), 4: Fraction(25, 12)}
    bad = {n: (harmonic_number(n), want) for n, want in frozen_h.items()
           if harmonic_number(n) != want}
    ok = not bad
    for n in range(2, 201):
        if harmonic_number(n) - harmonic_number(n - 1) != Fraction(1, n):
            ok = False
            bad[n] = "difference is not 1/n"
            break
    result.add("harmonic-exactness", ok,
               "frozen values and the 1/n difference identity hold up to 200"
               if ok else f"mismatches {bad}")

    frozen_th = {16: 4, 64: 5}
    bad = {n: (robustness_threshold(n), want) for n, want in frozen_th.items()
           if robustness_threshold(n) != want}
    result.add("robustness-threshold", not bad,
               f"thresholds match {frozen_th}" if not bad else f"mismatches {bad}")
    return result


def max_footrule_bruteforce(m: int) -> int:
    """Max over all orderings of m items of the footrule distance to identity.

    The footrule between two orderings is invariant under relabeling, so
    maximizing against the identity covers every pair.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    best = 0
    for perm in permutations(range(m)):
        d = sum(abs(i - perm[i]) for i in range(m))
        if d > best:
            best = d
    return best


def footrule_suite() -> VerifyResult:
    """Brute-force footrule maxima against the closed form, for m = 1..8."""
    result = VerifyResult()
    for m in range(1, 9):
        brute = max_footrule_bruteforce(m)
        closed = max_footrule(m)
        result.add(
            f"footrule-max-m{m}",
            brute == closed,
            f"brute force {brute} == closed form {closed}"
            if brute == closed
            else f"brute force {brute} != closed form {closed}",
        )
    return result


def opt_bruteforce(tasks, granularity: int, free_start: bool = False) -> int:
    """Cheapest cost in units of the n^T schedules, opening as ``opt.opt_units`` does."""
    if not tasks:
        return 0
    n = len(tasks[0])
    best = None
    for schedule in product(range(n), repeat=len(tasks)):
        first = schedule[0] if free_start else 0
        total, _, _ = schedule_cost(tasks, granularity, schedule, start_state=first)
        if best is None or total < best:
            best = total
    return best


def opt_suite(instances: int = 200, seed: int = 0) -> VerifyResult:
    """Dynamic-programming optima, whole and per phase, against exhaustive enumeration."""
    if instances < 1:
        raise ConfigurationError("instances must be >= 1")
    result = VerifyResult()
    first_bad = span_bad = None
    checked = span_checked = 0
    for i in range(instances):
        stream = RandomStream(trial_seed(seed, i))
        n = 1 + stream.randbelow(3)
        steps = 1 + stream.randbelow(6)
        gran = 1 + stream.randbelow(3)
        tasks = [[stream.randbelow(3 * gran + 1) for _ in range(n)]
                 for _ in range(steps)]
        arr = TaskSequence(n, gran, tasks).tasks
        # A free start is the per-phase optimum of one span over every step.
        whole = phase_opt_units(arr, gran, [Phase(0, 0, steps - 1, ())])[0]
        for free_start, dp in ((False, opt_units(arr, gran)), (True, whole)):
            brute = opt_bruteforce(tasks, gran, free_start=free_start)
            checked += 1
            if dp != brute and first_bad is None:
                first_bad = (i, n, steps, gran, free_start, dp, brute, tasks)
        # The per-phase optima of ``simulate``, over the steps split in two.
        cut = steps // 2
        spans = [Phase(0, a, b - 1, ()) for a, b in ((0, cut), (cut, steps)) if a < b]
        dp = phase_opt_units(arr, gran, spans)
        brute = [opt_bruteforce(tasks[p.start:p.end + 1], gran, free_start=True) for p in spans]
        span_checked += len(spans)
        if dp != brute and span_bad is None:
            span_bad = (i, n, steps, gran, dp, brute, tasks)
    result.add(
        "opt-dp-vs-exhaustive",
        first_bad is None,
        f"{checked} optima match across fixed and free start"
        if first_bad is None
        else "mismatch (instance, n, steps, granularity, free_start, dp, brute, "
             f"tasks) = {first_bad}",
    )
    result.add("phase-opt-vs-exhaustive", span_bad is None,
               f"{span_checked} per-phase optima match" if span_bad is None
               else f"mismatch (instance, n, steps, granularity, dp, brute, tasks) = {span_bad}")
    return result


def invariants_suite(inputs: int = 60, seed: int = 0) -> VerifyResult:
    """Protocol conformance of every scheduler on random unit-demand inputs.

    Each input is a fresh tie-free random stream over 2 to 8 states; its
    own checks, the offline-optimum sandwich among them, run once, and
    every registered scheduler's run must satisfy the cost identity and,
    when conforming, the per-phase cost sandwich. Failures carry the
    offending input's parameters in their detail, and a run's failures
    also name its scheduler.
    """
    if inputs < 1:
        raise ConfigurationError("inputs must be >= 1")
    result = VerifyResult()
    failures = []
    runs = 0
    for i in range(inputs):
        stream = RandomStream(trial_seed(seed, i))
        n = 2 + stream.randbelow(7)
        gran = 2 + stream.randbelow(9)
        phase_count = 1 + stream.randbelow(2)
        seq = random_unit_sequence(n, gran, phase_count, seed=trial_seed(seed, i))
        where = f"input {i} (n={n}, g={gran}, phases={phase_count})"
        decomposed = decompose_phases(seq)
        sub = VerifyResult()
        _check_sequence(sub, seq, decomposed)  # once: the same for every run
        failures += [f"{where}: {c.name}: {c.detail}" for c in sub.checks if not c.passed]
        for name in sorted(SCHEDULERS):
            sub = VerifyResult()
            _check_run(sub, seq, decomposed, name, seed=seed)
            runs += 1
            failures += [f"{where}, scheduler {name}: {c.name}: {c.detail}"
                         for c in sub.checks if not c.passed]
    result.add(
        "random-input-conformance",
        not failures,
        f"{runs} scheduler runs on {inputs} random inputs, all checks hold"
        if not failures
        else "; ".join(failures[:3]) + (f" (+{len(failures) - 3} more)"
                                        if len(failures) > 3 else ""),
    )
    return result


def run_suite(suite: str, *, seed: int = 0) -> VerifyResult:
    """Dispatch one named suite (or all of them) and merge the results."""
    if suite not in SUITE_NAMES:
        known = ", ".join(SUITE_NAMES)
        raise ConfigurationError(f"unknown suite {suite!r} (known: {known})")
    result = VerifyResult()
    if suite in ("arith", "all"):
        result.checks.extend(arith_suite().checks)
    if suite in ("footrule", "all"):
        result.checks.extend(footrule_suite().checks)
    if suite in ("opt", "all"):
        result.checks.extend(opt_suite(seed=seed).checks)
    if suite in ("invariants", "all"):
        result.checks.extend(invariants_suite(seed=seed).checks)
    return result
