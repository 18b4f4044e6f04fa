"""Closed-form quantities used to predict and check simulation statistics."""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

__all__ = [
    "harmonic_number",
    "max_footrule",
    "max_forcible_transitions",
    "max_footrule_consistency",
    "robustness_threshold",
    "round_ratio_half_up",
    "transition_stats",
    "SweepRecord",
]


def harmonic_number(n: int) -> Fraction:
    """Sum of 1/i for i in 1..n, exact: one sum of integer numerators over
    the common denominator lcm(1..n), reduced once."""
    if n < 0:
        raise ValueError("n must be >= 0")
    common = math.lcm(*range(1, n + 1))
    return Fraction(sum(common // i for i in range(1, n + 1)), common)


def max_footrule(m: int) -> int:
    """Largest footrule distance between two orderings of m items.

    Attained by reversing the order: m*m/2 for even m, (m*m - 1)/2 for odd.
    This is also the smallest prediction error an input needs in order to
    walk a prediction-following scheduler through m distinct states in one
    phase, so its inverse (max_forcible_transitions) reads an error budget
    back as a transition count.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    return m * m // 2 if m % 2 == 0 else (m * m - 1) // 2


def max_forcible_transitions(error_budget: int) -> int:
    """Largest m with max_footrule(m) <= error_budget."""
    if error_budget < 0:
        raise ValueError("error_budget must be >= 0")
    return math.isqrt(2 * error_budget + 1)


def max_footrule_consistency(limit: int):
    """Check that max_forcible_transitions inverts max_footrule band-wise.

    For every m up to ``limit`` and every integer budget in
    [max_footrule(m), max_footrule(m + 1)), the recovered transition count
    must be exactly m. Returns None when the whole range passes, else the
    first violating (m, budget) pair.
    """
    if limit < 2:
        raise ValueError("limit must be >= 2")
    for m in range(1, limit + 1):
        for eta in range(max_footrule(m), max_footrule(m + 1)):
            if max_forcible_transitions(eta) != m:
                return (m, eta)
    return None


# OEIS A002387: the least n with H_n > k, for k = 1..18. The last entry
# bounds the n the table decides, past core.CELL_CAP = 2**24.
_HARMONIC_CROSSINGS = (2, 4, 11, 31, 83, 227, 616, 1674, 4550, 12367, 33617, 91380,
                       248397, 675214, 1835421, 4989191, 13562027, 36865412)


def robustness_threshold(n: int) -> int:
    """Transition count at which the robust scheduler stops trusting
    predictions within a phase: ceil(harmonic_number(n)), read off the
    crossings of H_n for 1 <= n < 36,865,412."""
    if not 1 <= n < _HARMONIC_CROSSINGS[-1]:
        raise ValueError(f"n must be in 1..{_HARMONIC_CROSSINGS[-1] - 1}")
    return bisect.bisect_right(_HARMONIC_CROSSINGS, n) + 1


RATIO_DIGITS = 6


def round_ratio_half_up(numerator: int, denominator: int) -> str:
    """Exact decimal string of numerator/denominator, half-up at RATIO_DIGITS;
    empty when the denominator is zero (flagged rather than divided)."""
    if numerator < 0 or denominator < 0:
        raise ValueError("ratio parts must be >= 0")
    if denominator == 0:
        return ""
    scaled = numerator * 10**RATIO_DIGITS
    q, r = divmod(scaled, denominator)
    if 2 * r >= denominator:
        q += 1
    whole, frac = divmod(q, 10**RATIO_DIGITS)
    return f"{whole}.{frac:0{RATIO_DIGITS}d}"


def transition_stats(counts) -> tuple[str, int]:
    """Mean (rounded half-up, six digits) and maximum of transition counts.

    ``counts`` holds one count per (trial, phase) cell, in any shape; an
    empty table gives "0.000000" and 0.
    """
    counts = np.asarray(counts, dtype=np.int64)
    return (round_ratio_half_up(int(counts.sum()), max(counts.size, 1)),
            int(counts.max(initial=0)))


@dataclass
class SweepRecord:
    """One aggregated row of a parameter sweep.

    Transition statistics aggregate over every (trial, phase) cell; cost
    totals aggregate over trials, in integer units of 1/granularity. The
    ratio field is the decimal string total_cost_units / opt_cost_units
    with six fractional digits, empty when the optimum is zero (flagged
    rather than divided). The CSV columns are the fields, in order. A
    sweep builds a kernel call's records from one reduction of its arrays
    and formats each record's row once, for every eta0 it stands for.
    """

    n: int
    eta0: int
    m: int
    algorithm: str
    seed: int
    phases: int
    mean_transitions_per_phase: str
    max_transitions_per_phase: int
    total_cost_units: int
    opt_cost_units: int
    ratio: str

    @classmethod
    def from_counts(cls, counts, costs, *, n: int, algorithms, tails, eta0s, seed: int,
                    opt_cost_units: int) -> dict:
        """``{(algorithm, m): record}`` from one kernel call's ``counts``
        (algorithms, tails, trials, phases) and ``costs`` (algorithms, tails,
        trials), with each tail size's eta0 field in ``eta0s``. No int64 sum
        wraps: a count is at most n, and a call holds at most CELL_CAP cells."""
        *_, trials, phases = counts.shape
        sums = counts.sum(axis=(-2, -1)).tolist()
        peaks = counts.max(axis=(-2, -1)).tolist()
        totals = costs.sum(axis=-1).tolist()
        return {
            (algorithm, m): cls(
                n=n, eta0=eta0, m=m, algorithm=algorithm, seed=seed, phases=phases,
                mean_transitions_per_phase=round_ratio_half_up(total, trials * phases),
                max_transitions_per_phase=peak, total_cost_units=cost,
                opt_cost_units=opt_cost_units, ratio=round_ratio_half_up(cost, opt_cost_units))
            for algorithm, *rows in zip(algorithms, sums, peaks, totals)
            for m, eta0, total, peak, cost in zip(tails, eta0s, *rows)
        }

    def csv_row_parts(self) -> tuple[str, str]:
        """The row's text before and after its eta0 field: the row of any
        eta0 that shares this record's other fields is before + eta0 + after."""
        values = [str(getattr(self, name)) for name in _SWEEP_COLUMNS]
        at = _SWEEP_COLUMNS.index("eta0")
        return ",".join(values[:at] + [""]), ",".join([""] + values[at + 1:])

    @classmethod
    def csv_header(cls) -> str:
        return ",".join(_SWEEP_COLUMNS)


_SWEEP_COLUMNS = tuple(f.name for f in fields(SweepRecord))
