"""Verification checks pass on healthy inputs and catch tampered ones."""

import pytest

from mtslab.adversaries import random_unit_sequence, reversal_sequence
from mtslab.core import TaskSequence, lv_loss, pst_error_per_phase
from mtslab.engine import run_scheduler
from mtslab.errors import ConfigurationError
from mtslab.verify import (
    SUITE_NAMES,
    arith_suite,
    footrule_suite,
    invariants_suite,
    opt_suite,
    run_suite,
    verify_sequence,
)


def test_healthy_sequence_passes_every_check():
    seq = reversal_sequence(6, 8, 4, 3)
    result = verify_sequence(seq, "lps")
    assert result.passed, result.lines()
    names = [c.name for c in result.checks]
    for expected in ("phase-structure", "pst-alignment", "cost-identity",
                     "phase-cost-sandwich", "offline-sandwich"):
        assert expected in names
    # Within its budget of 4, the input forces isqrt(2 * 4 + 1) transitions a phase.
    assert max(pst_error_per_phase(seq)) <= 4
    assert run_scheduler(seq, "lps").transitions_per_phase == [3, 3, 3]


def test_tampered_prediction_block_fails_the_budget():
    seq = reversal_sequence(6, 8, 4, 2)
    honest = pst_error_per_phase(seq)
    h = list(seq.pst[0])
    h[0] += 50
    seq.pst[0] = tuple(h)
    tampered = pst_error_per_phase(seq)
    assert max(honest) <= 4 < tampered[0]
    assert tampered == [honest[0] + 50, honest[1]]


@pytest.mark.parametrize("tasks, passed, detail", [
    # One complete phase, then a trailing phase that runs to the end.
    ([[1, 1], [1, 1], [2, 0], [0, 1]], True, "1 complete phases, 2 suffix steps, 4 steps total"),
    # Two phases that close on the last step, so there is no suffix.
    ([[2, 0], [0, 2], [2, 2]], True, "2 complete phases, 0 suffix steps, 3 steps total"),
    ([], False, "0 complete phases, 0 suffix steps, 0 steps total"),
])
def test_phase_structure_counts_suffix_steps_from_the_last_complete_phase(tasks, passed, detail):
    seq = TaskSequence(n=2, granularity=2, tasks=tasks)
    check = {c.name: c for c in verify_sequence(seq).checks}["phase-structure"]
    assert (check.passed, check.detail) == (passed, detail)


def test_block_on_the_trailing_phase_is_aligned():
    # Two complete phases and a trailing one that opens at step 10 (n = 5);
    # the block on the trailing phase sits on a phase boundary, one step
    # later it does not.
    base = reversal_sequence(5, 5, 2, 3)
    seq = TaskSequence(n=5, granularity=5, tasks=base.tasks[:12], pst=base.pst)
    check = {c.name: c for c in verify_sequence(seq).checks}["pst-alignment"]
    assert check.passed, check.detail
    seq.pst[11] = seq.pst.pop(10)
    check = {c.name: c for c in verify_sequence(seq).checks}["pst-alignment"]
    assert not check.passed and "[11]" in check.detail


def test_misaligned_prediction_block_fails_alignment():
    seq = reversal_sequence(5, 5, 2, 2)
    seq.pst[6] = seq.pst.pop(5)
    result = verify_sequence(seq)
    failed = {c.name for c in result.checks if not c.passed}
    assert "pst-alignment" in failed


def test_lv_loss_expectation():
    seq = random_unit_sequence(4, 3, 2, seed=5)
    assert lv_loss(seq) == 0
    check = {c.name: c for c in verify_sequence(seq).checks}["next-request-loss"]
    assert (check.passed, check.detail) == (True, "total loss 0")


def test_offline_sandwich_is_an_input_check():
    seq = reversal_sequence(5, 5, 2, 2)
    assert [c.name for c in verify_sequence(seq).checks] == [
        "phase-structure", "pst-alignment", "offline-sandwich"]
    check = verify_sequence(seq, "lps").checks[2]
    assert (check.name, check.passed) == ("offline-sandwich", True)
    assert check.detail.endswith("within [10, 20] over 2 complete phases")
    # No complete phase, no optimum to bound.
    partial = TaskSequence(n=2, granularity=2, tasks=[[1, 0]])
    assert "offline-sandwich" not in {c.name for c in verify_sequence(partial).checks}


def test_non_conforming_run_skips_the_sandwich():
    seq = random_unit_sequence(3, 4, 2, seed=8)
    result = verify_sequence(seq, "stay-put")
    names = [c.name for c in result.checks]
    assert "phase-cost-sandwich" not in names
    assert result.passed, result.lines()


def test_arith_suite_is_green():
    result = arith_suite()
    assert result.passed, result.lines()


def test_footrule_suite_bounds():
    assert footrule_suite(5).passed
    with pytest.raises(ConfigurationError):
        footrule_suite(10)


def test_opt_suite_is_green():
    result = opt_suite(instances=30, seed=4)
    assert result.passed, result.lines()


def test_opt_suite_checks_the_per_phase_optima(monkeypatch):
    result = opt_suite(instances=30, seed=4)
    assert [c.name for c in result.checks] == ["opt-dp-vs-exhaustive",
                                               "phase-opt-vs-exhaustive"]
    assert result.checks[0].detail.startswith("60 optima match")
    monkeypatch.setattr("mtslab.verify.phase_opt_units",
                        lambda arr, granularity, spans: [0] * len(spans))
    # The free-start optima come from phase_opt_units too.
    broken = opt_suite(instances=30, seed=4)
    assert [c.name for c in broken.checks if not c.passed] == ["opt-dp-vs-exhaustive",
                                                                "phase-opt-vs-exhaustive"]


def test_invariants_suite_is_green():
    result = invariants_suite(inputs=12, seed=2)
    assert result.passed, result.lines()


def test_invariants_suite_reports_a_failing_offline_sandwich(monkeypatch):
    monkeypatch.setattr("mtslab.verify.opt_units", lambda tasks, granularity: 0)
    check, = invariants_suite(inputs=2, seed=2).checks
    assert (check.name, check.passed) == ("random-input-conformance", False)
    assert "offline-sandwich: offline optimum 0 outside [" in check.detail


def test_run_suite_dispatch():
    assert set(SUITE_NAMES) == {"arith", "footrule", "opt", "invariants", "all"}
    merged = run_suite("all", max_m=4)
    assert merged.passed
    names = {c.name for c in merged.checks}
    assert "footrule-max-m4" in names
    assert "opt-dp-vs-exhaustive" in names
    assert "random-input-conformance" in names
    with pytest.raises(ConfigurationError):
        run_suite("everything")


def test_verify_result_lines_format():
    result = verify_sequence(reversal_sequence(4, 4, 0, 1))
    for line in result.lines():
        assert line.startswith("[ok]") or line.startswith("[FAIL]")
