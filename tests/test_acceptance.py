"""End-to-end acceptance checks.

Deterministic guarantees are asserted with zero tolerance. Monte Carlo
estimates must land within three standard errors of their closed-form
targets. The robustness envelope check allows 0.1 of slack on top of the
closed-form bound. Two of the checks also carry wall-clock budgets.
"""

import json
import time
from dataclasses import replace

from hypothesis import example, given, settings, strategies as st, target

from mtslab.adversaries import (
    forcing_sequence,
    random_unit_sequence,
    repeat_block_sequence,
    reversal_sequence,
)
from mtslab.analysis import (
    harmonic_number,
    max_footrule,
    max_footrule_consistency,
    max_forcible_transitions,
    robustness_threshold,
)
from mtslab.cli import main
from mtslab.core import decompose_phases, lv_loss, pst_error_per_phase
from mtslab.engine import run_scheduler
from mtslab.kernels import simulate_family_trials
from mtslab.schedulers import SCHEDULERS
from mtslab.verify import invariants_suite, max_footrule_bruteforce, opt_suite
from oracles import expected_walk_visits_bruteforce, mean_and_se, noisy_pst


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


@settings(max_examples=300, deadline=None)
@given(
    family=st.sampled_from(["random-unit", "reversal"]),
    n=st.integers(1, 8),
    granularity=st.integers(1, 8),
    phases=st.integers(1, 4),
    eta0=st.integers(0, 64),
    seed=st.integers(0, 2**32 - 1),
)
# Reversal at eta0 = max_footrule(m) walks lps through exactly the bound.
@example(family="reversal", n=2, granularity=2, phases=2, eta0=max_footrule(2), seed=0)
@example(family="reversal", n=5, granularity=5, phases=2, eta0=max_footrule(5), seed=0)
@example(family="reversal", n=8, granularity=8, phases=2, eta0=max_footrule(8), seed=0)
@example(family="reversal", n=8, granularity=8, phases=2, eta0=max_footrule(3), seed=0)
@example(family="reversal", n=7, granularity=9, phases=3, eta0=max_footrule(6), seed=0)
def test_prediction_follower_stays_within_the_error_bound_per_phase(
        family, n, granularity, phases, eta0, seed):
    """The paper's deterministic bound, phase by phase: in a complete phase
    whose prediction error is e, lps makes at most max_forcible_transitions(e)
    transitions, each costing at most 2g on top of the g of the state it
    opens in.

    Premise: the prediction block puts states that saturate on different
    steps on different predicted steps, as ``noisy_pst`` and the reversal
    family do. Blocks that predict two such states on one step can exceed
    the bound through lps's lowest-index tie-break: at n = 2, in a phase
    that opens on state 1, h = (10, 10) against saturation steps (10, 11)
    has error 1 and bound 1, and lps moves to state 0 and back.
    """
    if family == "reversal":
        g = max(granularity, n)
        seq = reversal_sequence(n, g, eta0, phases)
    else:
        g = granularity
        seq = noisy_pst(random_unit_sequence(n, g, phases, seed=seed), eta0, seed=seed + 1)
    excess = _excess_over_the_error_bound(seq, g)
    if family == "reversal" and n > 1:
        assert set(excess) == {0}, excess
    target(max(excess))


def _excess_over_the_error_bound(seq, g):
    """lps's transitions less max_forcible_transitions(e) in each complete
    phase with a prediction block, each checked against the bound on
    transitions and on cost."""
    excess = []
    for stats in run_scheduler(seq, "lps").phases:
        phase = stats.phase
        if not phase.complete or phase.h is None:
            continue
        bound = max_forcible_transitions(phase.pst_error)
        excess.append(stats.transitions - bound)
        assert stats.transitions <= bound, (phase.index, stats.transitions, bound)
        assert stats.cost_units <= (2 * bound + 1) * g, (phase.index, stats.cost_units, bound)
    assert excess
    return excess


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 8), granularity=st.integers(1, 8), phases=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_prediction_follower_stays_within_the_error_bound_on_drawn_blocks(
        n, granularity, phases, seed, data):
    """The bound of the test above, on prediction blocks that hypothesis
    draws instead of ``noisy_pst``.

    One unit arrives per step, so every state of a phase saturates on its
    own step, and a block is tie-free when its n predicted steps differ.
    """
    seq = random_unit_sequence(n, granularity, phases, seed=seed)
    blocks = {}
    for phase in decompose_phases(seq):
        steps = st.integers(max(phase.start - n, 0), phase.end + n)
        blocks[phase.start] = tuple(data.draw(
            st.lists(steps, min_size=n, max_size=n, unique=True), label=f"h{phase.index}"))
    target(max(_excess_over_the_error_bound(replace(seq, pst=blocks), granularity)))


def test_prediction_follower_stays_within_the_error_bound_on_force_det_files():
    """The bound of the tests above on force-det files, each steered against
    one conforming scheduler and then walked by lps.

    Each block predicts the n states on n consecutive steps and one state
    saturates per step, so every block is tie-free.
    """
    conforming = [name for name, cls in SCHEDULERS.items() if cls.conforming]
    for n in (2, 3, 5, 8):
        for eta0 in (0, 1, 3, 8, 20):
            for name in conforming:
                for seed in range(3):
                    seq = forcing_sequence(n, n, eta0, 3, name, seed=seed)
                    excess = _excess_over_the_error_bound(seq, n)
                    assert len(excess) == 3, (n, eta0, name, seed)


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
