"""Decision rules of the individual schedulers."""

import pytest

from mtslab.adversaries import forcing_sequence, repeat_block_sequence
from mtslab.analysis import robustness_threshold
from mtslab.core import TaskSequence
from mtslab.engine import run_scheduler
from mtslab.errors import ConfigurationError, ProtocolError
from mtslab.schedulers import (
    LatestPredictedSaturation,
    LowestIndex,
    NextRequestGreedy,
    RobustLatestPredicted,
    SCHEDULERS,
    StayPut,
    UniformRestart,
    make_scheduler,
    scheduler_names,
)


def test_registry_and_factory():
    assert scheduler_names() == sorted(SCHEDULERS)
    for name in scheduler_names():
        sched = make_scheduler(name)
        assert sched.name == name
    with pytest.raises(ConfigurationError):
        make_scheduler("bogus")


def test_scheduler_traits():
    assert not StayPut.conforming
    assert UniformRestart.uses_rng
    assert LatestPredictedSaturation.needs_pst
    assert RobustLatestPredicted.needs_pst and RobustLatestPredicted.uses_rng
    assert NextRequestGreedy.needs_lv
    assert not LowestIndex.needs_pst and not LowestIndex.uses_rng


def _prediction_follower():
    sched = LatestPredictedSaturation()
    sched.reset(3, None)
    return sched


def test_lps_opens_on_latest_predicted_state():
    sched = _prediction_follower()
    target, count_if_stay = sched.phase_start(0, [1, 5, 3])
    assert target == 1
    assert not count_if_stay


def test_lps_retargets_latest_unsaturated():
    sched = _prediction_follower()
    assert sched.on_saturation(1, [0, 2], 4, [1, 5, 3], [0, 0, 0]) == 2
    # Ties break toward the lowest state index.
    assert sched.on_saturation(1, [0, 2], 4, [4, 5, 4], [0, 0, 0]) == 0


def test_lps_walk_on_a_concrete_phase():
    # Predictions say state 2 saturates last; reality saturates it first.
    seq = TaskSequence(
        n=3,
        granularity=3,
        tasks=[
            [1, 1, 3],
            [1, 1, 0],
            [1, 1, 0],
        ],
        pst={0: (0, 1, 2)},
    )
    run = run_scheduler(seq, "lps")
    assert run.transitions_per_phase == [2]
    assert run.schedule == [2, 1, 1]


def test_robust_threshold_tracks_harmonic_ceiling():
    for n, expected in ((1, 1), (2, 2), (16, 4), (64, 5)):
        assert robustness_threshold(n) == expected
    sched = RobustLatestPredicted()
    sched.reset(16, None)
    assert sched.threshold == 4


def test_robust_follows_predictions_within_budget():
    sched = RobustLatestPredicted()
    sched.reset(4, None)
    # ceil(H_4) = 3: opening move plus two forced moves stay on-prediction,
    # so no stream draw happens and a None stream never trips.
    h = [0, 1, 2, 3]
    target, _ = sched.phase_start(0, h)
    assert target == 3
    assert sched.on_saturation(3, [1, 2], 1, h, [0, 0, 0, 0]) == 2
    assert sched.on_saturation(2, [1], 2, h, [0, 0, 0, 0]) == 1


def test_lv_greedy_ranking():
    sched = NextRequestGreedy()
    sched.reset(4, None)
    # "never again" (-1) outranks a concrete step, which outranks "no
    # prediction" (0); ties break to the lowest index.
    assert sched.on_saturation(0, [1, 2, 3], 0, None, [0, 9, -1, 9]) == 2
    assert sched.on_saturation(0, [1, 3], 0, None, [0, 9, -1, 9]) == 1
    assert sched.on_saturation(0, [1, 2], 0, None, [0, 0, 0, 0]) == 1


def test_lowest_index_and_stay_put():
    low = LowestIndex()
    low.reset(4, None)
    assert low.on_saturation(2, [1, 3], 5, None, [0, 0, 0, 0]) == 1
    # stay-put is not conforming, so no path asks it for a forced move.
    parked = StayPut()
    parked.reset(4, None)
    assert not parked.conforming
    with pytest.raises(NotImplementedError):
        parked.on_saturation(2, [1, 3], 5, None, [0, 0, 0, 0])


def test_stay_put_never_moves_on_a_run():
    seq = TaskSequence(n=2, granularity=2, tasks=[[2, 1], [0, 1], [2, 2]])
    run = run_scheduler(seq, "stay-put")
    assert run.schedule == [0, 0, 0]
    assert run.total_moves == 0
    assert not run.conforming


class _Defector(LowestIndex):
    """Moves into a saturated state on purpose."""

    name = "defector"

    def on_saturation(self, current, unsaturated, now, h, latest_lv):
        return current


class _OutOfRange(LowestIndex):
    name = "out-of-range"

    def on_saturation(self, current, unsaturated, now, h, latest_lv):
        return self.n


class _FloatTarget(LowestIndex):
    name = "float-target"

    def on_saturation(self, current, unsaturated, now, h, latest_lv):
        return float(unsaturated[0])


class _FloatOpening(LowestIndex):
    name = "float-opening"

    def phase_start(self, current, h):
        return 1.0, False


def test_engine_rejects_protocol_violations():
    # The engine and both interactive generators steer a scheduler through
    # the same protocol, so each violation is the same error everywhere.
    seq = TaskSequence(n=2, granularity=2, tasks=[[2, 1], [0, 1]])
    entry_points = [
        lambda sched: run_scheduler(seq, sched),
        lambda sched: forcing_sequence(2, 2, 4, 1, sched),
        lambda sched: repeat_block_sequence(2, 1, sched),
    ]
    violations = [
        (_Defector, r"moved into a saturated state \(0\)"),
        (_OutOfRange, "chose invalid state 2$"),
        (_FloatTarget, r"chose invalid state 1\.0"),
        (_FloatOpening, r"chose invalid state 1\.0"),
    ]
    for run in entry_points:
        for cls, message in violations:
            with pytest.raises(ProtocolError, match=message):
                run(cls())
