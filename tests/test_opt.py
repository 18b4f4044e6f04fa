"""Offline optimum: value and edge cases."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from mtslab import opt
from mtslab.adversaries import random_unit_sequence, reversal_sequence
from mtslab.core import UNIT_LIMIT, TaskSequence
from mtslab.engine import run_scheduler, summarize
from mtslab.errors import ConfigurationError
from mtslab.opt import opt_units, phase_opt_units
from mtslab.rng import RandomStream, trial_seed
from mtslab.verify import opt_bruteforce
from oracles import opt_units_scalar


def _free_start(tasks, gran):
    """The free-start optimum: the per-phase optimum of one span over every step."""
    arr = np.asarray(tasks, dtype=np.int64)
    return phase_opt_units(arr, gran, [SimpleNamespace(start=0, end=len(arr) - 1)])[0]


def test_empty_input_costs_nothing():
    assert opt_units([], 5) == 0


def test_value_matches_bruteforce_both_start_modes():
    stream = RandomStream(trial_seed(17, 0))
    for _ in range(25):
        n = 1 + stream.randbelow(3)
        steps = 1 + stream.randbelow(5)
        gran = 1 + stream.randbelow(3)
        tasks = [[stream.randbelow(2 * gran) for _ in range(n)]
                 for _ in range(steps)]
        assert opt_units(tasks, gran) == opt_bruteforce(tasks, gran)
        assert _free_start(tasks, gran) == opt_bruteforce(tasks, gran, free_start=True)


def test_opt_units_empty_is_zero():
    assert opt_units([], 4) == 0


def test_opt_units_rejects_flat_input():
    with pytest.raises(ConfigurationError):
        opt_units([1, 2, 3], 4)


def test_optima_reject_negative_entries():
    # The blocked optimum relies on row minima that never fall.
    tasks = [[-2, 3], [0, -1], [-3, 0], [3, 1], [2, -3], [-2, 2], [2, 3], [-1, -3]]
    with pytest.raises(ConfigurationError):
        opt_units(tasks, 1)


def test_optima_reject_units_past_the_limit():
    # Three entries of 2**62 would wrap the int64 DP; the exact optimum is 2.
    seq = TaskSequence(n=2, granularity=1, tasks=[[2**62, 0], [2**62, 0], [0, 2**62]])
    assert opt_units_scalar(seq.tasks.tolist(), 1) == 2
    with pytest.raises(ConfigurationError):
        opt_units(seq.tasks, seq.granularity)
    with pytest.raises(ConfigurationError):
        summarize(seq, run_scheduler(seq, "lowest-index"))
    # Units plus one move per step may reach UNIT_LIMIT - 1, as in a file ...
    tasks = [[UNIT_LIMIT - 4, 0], [0, 1]]
    assert opt_units(tasks, 1) == opt_units_scalar(tasks, 1) == 2
    # ... but not UNIT_LIMIT itself.
    with pytest.raises(ConfigurationError):
        opt_units([[UNIT_LIMIT - 3, 0], [0, 1]], 1)


def test_phase_optima_reject_units_past_the_limit():
    # The int64 DP would wrap to -2**62; the exact free-start optimum is 3 * 2**62.
    seq = TaskSequence(n=2, granularity=1, tasks=[[2**62, 2**62]] * 3)
    with pytest.raises(ConfigurationError):
        phase_opt_units(seq.tasks, seq.granularity, [SimpleNamespace(start=0, end=2)])
    # A span below the limit still gives the free-start optimum.
    tasks = [[2**57, 0], [0, 2**57], [2**57, 1]]
    assert _free_start(tasks, 1) == opt_bruteforce(tasks, 1, free_start=True) == 3


def test_opt_units_matches_bruteforce_on_random_instances():
    stream = RandomStream(trial_seed(7, 0))
    for i in range(40):
        n = 1 + stream.randbelow(3)
        steps = 1 + stream.randbelow(5)
        gran = 1 + stream.randbelow(4)
        tasks = [[stream.randbelow(2 * gran + 1) for _ in range(n)]
                 for _ in range(steps)]
        assert opt_units(tasks, gran) == opt_bruteforce(tasks, gran)
        assert _free_start(tasks, gran) == opt_bruteforce(tasks, gran, free_start=True)


def test_opt_units_free_start_never_costs_more():
    tasks = [[0, 5], [0, 5], [5, 0]]
    fixed = opt_units(tasks, 3)
    free = _free_start(tasks, 3)
    assert free <= fixed


class _CountingNumpy:
    """numpy as ``mtslab.opt`` sees it, logging the rows of each cumsum (one per pass)."""

    def __init__(self):
        self.windows = []

    def __getattr__(self, name):
        return getattr(np, name)

    def cumsum(self, a, axis=None):
        self.windows.append(len(a))
        return np.cumsum(a, axis=axis)


@pytest.mark.parametrize("tasks, granularity", [
    (np.zeros((4000, 3), dtype=np.int64), 2),
    # One long block, then one-step blocks after a wide window.
    (np.array([[0, 0]] * 1500 + [[2, 2]] * 500), 2),
    (random_unit_sequence(8, 8, 100, seed=0).tasks, 8),
    (reversal_sequence(16, 16, 24, 40).tasks, 16),
], ids=["zeros", "long-then-short", "random-unit", "reversal"])
def test_opt_units_passes_follow_the_optimum_not_the_steps(monkeypatch, tasks, granularity):
    counting = _CountingNumpy()
    monkeypatch.setattr(opt, "np", counting)
    value = opt_units(tasks, granularity)
    steps, n = tasks.shape
    # A block that closes lifts the optimum by g; windows that close none
    # double, and each window is at most twice the last block plus 2n rows.
    passes = len(counting.windows)
    assert passes <= value // granularity + 1 + 2 * math.ceil(math.log2(steps))
    assert sum(counting.windows) <= 2 * steps + 2 * n * passes
