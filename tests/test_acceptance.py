"""End-to-end acceptance checks.

Deterministic guarantees are asserted with zero tolerance. Monte Carlo
estimates must land within three standard errors of their closed-form
targets. The robustness envelope check allows 0.1 of slack on top of the
closed-form bound. Two of the checks also carry wall-clock budgets.
"""

import json
import time

from mtslab.adversaries import (
    forcing_sequence,
    repeat_block_sequence,
    reversal_sequence,
)
from mtslab.analysis import (
    harmonic_number,
    max_footrule,
    max_footrule_consistency,
    max_forcible_transitions,
    mean_and_se,
    robustness_threshold,
)
from mtslab.cli import main
from mtslab.core import lv_loss, pst_error_per_phase
from mtslab.engine import run_scheduler
from mtslab.kernels import simulate_family_trials
from mtslab.oracles import expected_walk_visits_bruteforce, max_footrule_bruteforce
from mtslab.verify import invariants_suite, opt_suite


def test_reversal_forces_exact_transition_counts_on_prediction_follower():
    # For every integer error budget up to 200 the reversal input walks
    # the follower through exactly the budgeted number of states per
    # phase, and its realized per-phase error is the exact closed form.
    start = time.monotonic()
    n = 64
    for eta0 in range(0, 201):
        m = max_forcible_transitions(eta0)
        seq = reversal_sequence(n, n, eta0, 2)
        run = run_scheduler(seq, "lps")
        assert run.transitions_per_phase == [m, m], (eta0, m)
        assert pst_error_per_phase(seq) == [max_footrule(m)] * 2, (eta0, m)
    assert time.monotonic() - start < 10.0


def test_repeat_demands_force_full_rotation_with_truthful_forecasts():
    for n in range(2, 17):
        for name in ("lv-greedy", "lowest-index"):
            seq = repeat_block_sequence(n, 2, name)
            assert seq.granularity == n + 1
            assert lv_loss(seq) == 0, (n, name)
            run = run_scheduler(seq, name)
            assert run.transitions_per_phase == [n - 1, n - 1], (n, name)


def test_steering_extracts_transition_floor_from_deterministic_rules():
    for n in (4, 8, 16):
        for eta0 in (2, 4, 8, 12):
            m = min(max_forcible_transitions(eta0), n)
            floor = min(max_forcible_transitions(eta0), n - 1)
            for name in ("lowest-index", "lv-greedy", "lps"):
                seq = forcing_sequence(n, n, eta0, 2, name, seed=0)
                for err in pst_error_per_phase(seq):
                    assert err <= eta0, (n, eta0, name, err)
                run = run_scheduler(seq, name, seed=0)
                for count in run.transitions_per_phase:
                    assert count >= floor, (n, eta0, name, count)
                    if name == "lps":
                        assert count >= m, (n, eta0, count)


def test_footrule_bruteforce_matches_closed_form_and_bands_invert():
    for m in range(1, 9):
        assert max_footrule_bruteforce(m) == max_footrule(m)
    assert max_footrule_consistency(1000) is None


def test_random_inputs_satisfy_the_cost_sandwiches():
    # 500 seeded tie-free inputs; every conforming scheduler's complete
    # phases must cost between k*g and (2k+1)*g for their k transition
    # events, and the offline optimum must sit between g and 2g per phase.
    result = invariants_suite(inputs=500, seed=0)
    assert result.passed, result.lines()


def test_oblivious_restart_mean_matches_harmonic_number():
    start = time.monotonic()
    for n in (4, 16, 64):
        counts, _ = simulate_family_trials(
            "oblivious", "reversal", n, 1, phases=2, trials=10_000,
            granularity=n, seed=7,
        )
        mean, se = mean_and_se(counts.reshape(-1))
        target = float(harmonic_number(n))
        assert abs(mean - target) <= 3 * se, (n, mean, se, target)
    assert time.monotonic() - start < 60.0


def test_prediction_follower_tail_walk_matches_harmonic_numbers():
    # Exact enumeration for small tails, then a Monte Carlo run on the
    # shuffled-tail family against the same closed form.
    for m in range(1, 7):
        assert expected_walk_visits_bruteforce(m) == harmonic_number(m)
    counts, _ = simulate_family_trials(
        "lps", "rand-lb", 16, 16, phases=10_000, trials=1,
        granularity=16, seed=3,
    )
    mean, se = mean_and_se(counts.reshape(-1))
    target = float(harmonic_number(16))
    assert abs(mean - target) <= 3 * se, (mean, se, target)


def test_robust_follower_stays_under_envelope_across_budget_sweep(tmp_path):
    n = 64
    config = {
        "n": [n],
        "eta0": list(range(max_footrule(n) + 1)),
        "algorithms": ["robust-lps"],
        "adversary": "reversal",
        "phases": 8,
        "granularity": n,
        "trials": 8,
        "seed": 0,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0

    threshold = robustness_threshold(n)
    cap = threshold + float(harmonic_number(n - threshold)) + 1
    lines = (out / "robust-lps.csv").read_text().splitlines()
    assert lines[0].split(",")[:3] == ["n", "eta0", "m"]
    assert len(lines) == 1 + max_footrule(n) + 1
    for line in lines[1:]:
        fields = line.split(",")
        eta0 = int(fields[1])
        mean = float(fields[6])
        envelope = min(float(max_forcible_transitions(eta0)), cap)
        assert mean <= envelope + 0.1, (eta0, mean, envelope)


def test_dp_optimum_matches_exhaustive_enumeration():
    result = opt_suite(instances=200, seed=0)
    assert result.passed, result.lines()


def test_sweep_reruns_are_byte_identical(tmp_path):
    config = {
        "n": [8],
        "eta0": [0, 1, 2, 4, 8],
        "algorithms": ["lps", "robust-lps", "oblivious", "lowest-index"],
        "adversary": "rand-lb",
        "phases": 5,
        "granularity": 8,
        "trials": 6,
        "seed": 42,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert main(["sweep", "--config", str(cfg), "--out", str(first)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(second)]) == 0
    names = [f"{algorithm}.csv" for algorithm in config["algorithms"]]
    names.append("manifest.json")
    for name in names:
        a = (first / name).read_bytes()
        b = (second / name).read_bytes()
        assert a == b, name
        assert a
