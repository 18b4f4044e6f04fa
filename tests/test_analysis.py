import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mtslab.analysis import (
    SweepRecord,
    harmonic_number,
    max_footrule,
    max_footrule_consistency,
    max_forcible_transitions,
    robustness_threshold,
    round_ratio_half_up,
)
from mtslab.core import CELL_CAP
from oracles import harmonic_number_loop, mean_and_se, sweep_row_scalar


def test_max_footrule_frozen_values():
    assert max_footrule(1) == 0
    assert max_footrule(2) == 2
    assert max_footrule(3) == 4
    assert max_footrule(4) == 8
    assert max_footrule(5) == 12
    assert max_footrule(6) == 18


def test_max_forcible_transitions_frozen_values():
    assert max_forcible_transitions(0) == 1
    assert max_forcible_transitions(4) == 3
    assert max_forcible_transitions(5) == 3
    assert max_forcible_transitions(18) == 6
    assert max_forcible_transitions(200) == 20


@given(st.integers(min_value=1, max_value=1000))
def test_forcible_inverts_footrule(m):
    assert max_forcible_transitions(max_footrule(m)) == m
    if m >= 2:
        assert max_forcible_transitions(max_footrule(m) - 1) == m - 1


@given(st.integers(min_value=0, max_value=10**6))
def test_budget_band_membership(eta):
    m = max_forcible_transitions(eta)
    assert max_footrule(m) <= eta < max_footrule(m + 1)


def test_consistency_scan_passes():
    assert max_footrule_consistency(100) is None


def test_consistency_scan_rejects_tiny_limit():
    with pytest.raises(ValueError):
        max_footrule_consistency(1)


def test_harmonic_frozen_values():
    assert harmonic_number(1) == Fraction(1)
    assert harmonic_number(2) == Fraction(3, 2)
    assert harmonic_number(4) == Fraction(25, 12)


def test_harmonic_number_matches_the_term_by_term_loop():
    for n in range(301):
        assert harmonic_number(n) == harmonic_number_loop(n), n


@given(st.integers(min_value=1, max_value=300))
def test_harmonic_difference_is_exactly_reciprocal(n):
    assert harmonic_number(n) - harmonic_number(n - 1) == Fraction(1, n)


def test_robustness_threshold_frozen_values():
    assert robustness_threshold(1) == 1
    assert robustness_threshold(16) == 4
    assert robustness_threshold(64) == 5


def test_robustness_threshold_is_the_exact_harmonic_ceiling_up_to_3000():
    total = Fraction(0)
    for n in range(1, 3001):
        total += Fraction(1, n)
        assert robustness_threshold(n) == math.ceil(total), n


# OEIS A002387: the least n with H_n > k, for k = 1..18.
HARMONIC_CROSSINGS = [2, 4, 11, 31, 83, 227, 616, 1674, 4550, 12367, 33617, 91380,
                      248397, 675214, 1835421, 4989191, 13562027, 36865412]
EULER_GAMMA = Decimal("0.5772156649015328606065120900824024310422")


def _harmonic_bounds(n):
    """Strict bounds on H_n: its Euler-Maclaurin expansion up to the
    -1/(12 n^2) term, plus 0 and plus the next term, 1/(120 n^4)."""
    with localcontext(prec=40):
        n = Decimal(n)
        low = n.ln() + EULER_GAMMA + 1 / (2 * n) - 1 / (12 * n * n)
        return low, low + 1 / (120 * n**4)


@pytest.mark.parametrize("k,n", enumerate(HARMONIC_CROSSINGS, start=1))
def test_robustness_threshold_steps_at_each_harmonic_crossing(k, n):
    if n > 3000:  # the exact test above covers the smaller crossings
        assert _harmonic_bounds(n - 1)[1] < k < _harmonic_bounds(n)[0]
    assert robustness_threshold(n - 1) == k
    if n < HARMONIC_CROSSINGS[-1]:
        assert robustness_threshold(n) == k + 1


def test_robustness_threshold_covers_every_loadable_n():
    assert robustness_threshold(CELL_CAP) == 18
    with pytest.raises(ValueError):
        robustness_threshold(HARMONIC_CROSSINGS[-1])


def test_round_ratio_half_up_strings():
    assert round_ratio_half_up(1, 3) == "0.333333"
    assert round_ratio_half_up(1, 2) == "0.500000"
    assert round_ratio_half_up(2, 1) == "2.000000"
    assert round_ratio_half_up(1, 1600000) == "0.000001"
    # A zero denominator is flagged with an empty string, not divided.
    assert round_ratio_half_up(0, 0) == ""
    assert round_ratio_half_up(3, 0) == ""


def test_mean_and_se():
    mean, se = mean_and_se([2, 4, 6])
    assert mean == pytest.approx(4.0)
    assert se == pytest.approx((4.0 / 3) ** 0.5)
    assert mean_and_se([5]) == (5.0, 0.0)
    with pytest.raises(ValueError):
        mean_and_se([])


def test_sweep_record_row_and_flagged_ratio():
    # The per-cell oracle and one kernel call's reduction, with one
    # algorithm and one tail size, give the same frozen row.
    row = "4,4,3,lps,0,2,3.000000,3,60,16,3.750000"
    assert sweep_row_scalar(
        n=4, eta0=4, m=3, algorithm="lps", seed=0, phases=2,
        counts=[[3, 3], [3, 3]], total_cost_units=60, opt_cost_units=16,
    ) == row
    records = SweepRecord.from_counts(
        np.array([[[[3, 3], [3, 3]]]]), np.array([[[30, 30]]]), n=4,
        algorithms=["lps"], tails=[3], eta0s=[4], seed=0, opt_cost_units=16,
    )
    rec = records["lps", 3]
    assert list(records) == [("lps", 3)]
    assert rec.mean_transitions_per_phase == "3.000000"
    assert rec.max_transitions_per_phase == 3
    assert rec.ratio == "3.750000"
    assert "4".join(rec.csv_row_parts()) == row
    assert "9".join(rec.csv_row_parts()) == row.replace("4,4,", "4,9,", 1)
    assert SweepRecord.csv_header().startswith("n,eta0,m,algorithm,seed,phases,")

    flagged_row = sweep_row_scalar(
        n=2, eta0=0, m=1, algorithm="stay-put", seed=0, phases=1,
        counts=[[0]], total_cost_units=0, opt_cost_units=0,
    )
    assert flagged_row.endswith(",0,0,")
    flagged = SweepRecord.from_counts(
        np.zeros((1, 1, 1, 1), dtype=np.int64), np.zeros((1, 1, 1), dtype=np.int64), n=2,
        algorithms=["stay-put"], tails=[1], eta0s=[0], seed=0, opt_cost_units=0,
    )["stay-put", 1]
    assert flagged.ratio == ""
    assert "0".join(flagged.csv_row_parts()) == flagged_row
