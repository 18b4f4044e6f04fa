"""Closed-form quantities used to predict and check simulation statistics."""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

__all__ = [
    "harmonic_number",
    "footrule_distance",
    "max_footrule",
    "max_forcible_transitions",
    "max_footrule_consistency",
    "robustness_threshold",
    "round_ratio_half_up",
    "mean_and_se",
    "transition_stats",
    "SweepRecord",
]


def harmonic_number(n: int) -> Fraction:
    """Sum of 1/i for i in 1..n, exact."""
    if n < 0:
        raise ValueError("n must be >= 0")
    total = Fraction(0)
    for i in range(1, n + 1):
        total += Fraction(1, i)
    return total


def footrule_distance(a, b) -> int:
    """Sum of per-position absolute differences between two rankings."""
    if len(a) != len(b):
        raise ValueError("rankings must have equal length")
    return sum(abs(x - y) for x, y in zip(a, b))


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
    """Exact decimal string of numerator/denominator, half-up at RATIO_DIGITS."""
    if numerator < 0 or denominator < 0:
        raise ValueError("ratio parts must be >= 0")
    if denominator == 0:
        return "1." + "0" * RATIO_DIGITS if numerator == 0 else "inf"
    scaled = numerator * 10**RATIO_DIGITS
    q, r = divmod(scaled, denominator)
    if 2 * r >= denominator:
        q += 1
    whole, frac = divmod(q, 10**RATIO_DIGITS)
    return f"{whole}.{frac:0{RATIO_DIGITS}d}"


def mean_and_se(samples) -> tuple[float, float]:
    """Sample mean and standard error (ddof=1; SE is 0 for a single value)."""
    vals = [float(v) for v in samples]
    k = len(vals)
    if k == 0:
        raise ValueError("samples must be non-empty")
    mean = sum(vals) / k
    if k == 1:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in vals) / (k - 1)
    return mean, math.sqrt(var / k)


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
    rather than divided). The CSV columns are the fields, in order.
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
    def from_counts(cls, *, n: int, eta0: int, m: int, algorithm: str, seed: int,
                    phases: int, counts, total_cost_units: int,
                    opt_cost_units: int) -> "SweepRecord":
        mean, peak = transition_stats(counts)
        ratio = (
            round_ratio_half_up(total_cost_units, opt_cost_units)
            if opt_cost_units > 0
            else ""
        )
        return cls(
            n=n, eta0=eta0, m=m, algorithm=algorithm, seed=seed, phases=phases,
            mean_transitions_per_phase=mean,
            max_transitions_per_phase=peak,
            total_cost_units=total_cost_units,
            opt_cost_units=opt_cost_units,
            ratio=ratio,
        )

    def csv_row(self, eta0: int | None = None) -> str:
        """The fields in column order. Sweep cells that differ only in
        eta0 share one record: ``eta0`` gives another such cell's row."""
        values = vars(self) if eta0 is None else {**vars(self), "eta0": eta0}
        return ",".join([str(values[name]) for name in _SWEEP_COLUMNS])

    @classmethod
    def csv_header(cls) -> str:
        return ",".join(_SWEEP_COLUMNS)


_SWEEP_COLUMNS = tuple(f.name for f in fields(SweepRecord))
