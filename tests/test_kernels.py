"""Batched kernels agree with the reference engine and reject bad inputs."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mtslab.adversaries import reversal_sequence, shuffled_tail_sequence
from mtslab.analysis import max_footrule
from mtslab.engine import run_scheduler
from mtslab.errors import ConfigurationError
from mtslab.kernels import (
    ADVERSARY_SEED_OFFSET,
    FAMILIES,
    POLICIES,
    _randbelow,
    backend_name,
    simulate_family_trials,
)
from mtslab.oracles import simulate_family_scalar
from mtslab.rng import RandomStream, state_rows, trial_seed

GEOMETRIES = [
    (3, 1, 5, 5),
    (5, 3, 7, 4),
    (8, 8, 8, 3),
]


def test_backend_name_is_known():
    assert backend_name() == "python"


def _file_sequence(family, n, m, gran, phases, adversary_seed):
    if family == "reversal":
        return reversal_sequence(n, gran, max_footrule(m), phases)
    return shuffled_tail_sequence(n, gran, m, phases, seed=adversary_seed)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("n,m,gran,phases", GEOMETRIES)
def test_kernel_matches_engine_trial_zero(family, policy, n, m, gran, phases):
    seed = 11
    counts, costs = simulate_family_trials(
        policy, family, n, m, phases, trials=1, granularity=gran, seed=seed)
    seq = _file_sequence(family, n, m, gran, phases, seed + ADVERSARY_SEED_OFFSET)
    run = run_scheduler(seq, policy, seed=seed, trial_index=0)
    assert run.transitions_per_phase == counts[0].tolist()
    assert run.total_units == int(costs[0])
    assert run.suffix is None


def test_trials_use_independent_streams():
    counts, _ = simulate_family_trials(
        "oblivious", "rand-lb", 6, 6, 12, trials=8,
        granularity=6, seed=1,
    )
    rows = {tuple(row) for row in counts.tolist()}
    assert len(rows) > 1


def test_kernel_shapes_and_dtypes():
    counts, costs = simulate_family_trials(
        "lps", "reversal", 4, 2, 3, trials=5, granularity=4)
    assert counts.shape == (5, 3) and counts.dtype == np.int64
    assert costs.shape == (5,) and costs.dtype == np.int64
    # Deterministic policy on the deterministic family: all trials equal.
    assert (counts == counts[0]).all()
    assert (costs == costs[0]).all()


@pytest.mark.parametrize("kwargs", [
    {"policy": "stay-put"},
    {"policy": ()},
    {"policy": ("lps", "stay-put")},
    {"policy": (("lps",),)},
    {"family": "forcing"},
    {"n": 0},
    {"m": 0},
    {"m": 5},
    {"m": ()},
    {"m": (1, 5)},
    {"m": ((1,),)},
    {"phases": 0},
    {"trials": 0},
    {"granularity": 3},
])
def test_kernel_rejects_bad_arguments(kwargs):
    base = dict(policy="lps", family="reversal", n=4, m=2, phases=1,
                trials=1, granularity=4)
    base.update(kwargs)
    with pytest.raises(ConfigurationError):
        simulate_family_trials(**base)


# n, then one tail size in [1, n] or a list of them.
one_tail = st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n)))
tail_lists = st.integers(1, 12).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(1, n), min_size=1, max_size=6)))


@settings(max_examples=300, deadline=None)
@given(
    policy=st.sampled_from(sorted(POLICIES)),
    family=st.sampled_from(sorted(FAMILIES)),
    nm=one_tail,
    phases=st.integers(1, 6),
    trials=st.integers(1, 8),
    extra_gran=st.integers(0, 3),
    seed=st.integers(0, 2**64 - 1),
)
# 100 phases of 8 rows of 12 slots take two blocks of tail_orders.
@example(policy="oblivious", family="rand-lb", nm=(12, 12), phases=100, trials=8,
         extra_gran=0, seed=1)
@example(policy="lps", family="rand-lb", nm=(12, 12), phases=100, trials=8,
         extra_gran=1, seed=2)
@example(policy="robust-lps", family="rand-lb", nm=(12, 12), phases=100, trials=8,
         extra_gran=0, seed=3)
@example(policy="lowest-index", family="rand-lb", nm=(12, 12), phases=100, trials=8,
         extra_gran=2, seed=4)
# Every phase of every trial runs out of trust and walks on uniformly.
@example(policy="robust-lps", family="reversal", nm=(12, 12), phases=5, trials=6,
         extra_gran=0, seed=5)
@example(policy="oblivious", family="rand-lb", nm=(1, 1), phases=3, trials=3, extra_gran=1, seed=6)
@example(policy="robust-lps", family="rand-lb", nm=(2, 2), phases=4, trials=3, extra_gran=0, seed=7)
@example(policy="lowest-index", family="reversal", nm=(2, 1), phases=4, trials=2, extra_gran=0,
         seed=8)
@example(policy="lps", family="rand-lb", nm=(9, 1), phases=4, trials=2, extra_gran=0, seed=9)
# Opening draws land before a window of 2 of 12 slots, over two blocks.
@example(policy="oblivious", family="rand-lb", nm=(12, 2), phases=100, trials=64,
         extra_gran=1, seed=10)
@example(policy="oblivious", family="reversal", nm=(2, 2), phases=6, trials=4, extra_gran=0,
         seed=11)
# lowest-index follows from the carry's slot: at n = 1, in a reversed tail
# of 3 of 3, and as the first slot of a window of 2 of 300.
@example(policy="lowest-index", family="rand-lb", nm=(1, 1), phases=3, trials=2, extra_gran=1,
         seed=12)
@example(policy="lowest-index", family="reversal", nm=(3, 3), phases=4, trials=2, extra_gran=0,
         seed=13)
@example(policy="lowest-index", family="rand-lb", nm=(300, 1), phases=3, trials=2,
         extra_gran=0, seed=14)
def test_lockstep_kernel_matches_scalar_oracle(policy, family, nm, phases, trials,
                                               extra_gran, seed):
    n, m = nm
    args = (policy, family, n, m, phases, trials)
    kwargs = dict(granularity=n + extra_gran, seed=seed)
    counts, costs = simulate_family_trials(*args, **kwargs)
    want_counts, want_costs = simulate_family_scalar(*args, **kwargs)
    assert counts.tolist() == want_counts.tolist()
    assert costs.tolist() == want_costs.tolist()


@settings(max_examples=300, deadline=None)
@given(
    policy=st.sampled_from(sorted(POLICIES)),
    family=st.sampled_from(sorted(FAMILIES)),
    nms=tail_lists,
    phases=st.integers(1, 5),
    trials=st.integers(1, 6),
    seed=st.integers(0, 2**64 - 1),
)
# 60 phases of 16 rows of 12 slots take two blocks of tail_orders.
@example(policy="robust-lps", family="rand-lb", nms=(12, [12, 3, 7, 1]), phases=60, trials=4,
         seed=1)
@example(policy="lowest-index", family="rand-lb", nms=(12, [1, 12, 2, 12]), phases=60, trials=4,
         seed=2)
@example(policy="robust-lps", family="reversal", nms=(12, [12, 11]), phases=5, trials=6, seed=3)
@example(policy="oblivious", family="reversal", nms=(1, [1, 1]), phases=3, trials=2, seed=4)
@example(policy="lps", family="rand-lb", nms=(2, [1, 2]), phases=4, trials=3, seed=5)
# 64 rows with a window of 2 of 12 slots take two blocks of tail_orders.
@example(policy="oblivious", family="reversal", nms=(12, [2, 1]), phases=100, trials=32,
         seed=6)
@example(policy="oblivious", family="rand-lb", nms=(2, [2, 1, 2]), phases=5, trials=3, seed=7)
@example(policy="lowest-index", family="reversal", nms=(1, [1, 1]), phases=3, trials=2, seed=8)
@example(policy="lowest-index", family="reversal", nms=(3, [3, 1, 3]), phases=4, trials=2, seed=9)
@example(policy="lowest-index", family="rand-lb", nms=(300, [1, 1]), phases=3, trials=2, seed=10)
def test_kernel_over_several_tail_sizes_matches_oracle_and_one_call_each(
        policy, family, nms, phases, trials, seed):
    # Repeats and any order: each row of a call runs its own tail size.
    n, ms = nms[0], tuple(nms[1])
    args = (policy, family, n, ms, phases, trials)
    counts, costs = simulate_family_trials(*args, seed=seed)
    assert counts.shape == (len(ms), trials, phases)
    assert costs.shape == (len(ms), trials)
    want_counts, want_costs = simulate_family_scalar(*args, seed=seed)
    assert counts.tolist() == want_counts.tolist()
    assert costs.tolist() == want_costs.tolist()
    alone = [simulate_family_trials(policy, family, n, m, phases, trials, seed=seed)
             for m in ms]
    assert counts.tolist() == np.stack([c for c, _ in alone]).tolist()
    assert costs.tolist() == np.stack([k for _, k in alone]).tolist()


@settings(max_examples=200, deadline=None)
@given(
    policies=st.lists(st.sampled_from(POLICIES), min_size=1, max_size=len(POLICIES),
                      unique=True),
    family=st.sampled_from(sorted(FAMILIES)),
    nms=tail_lists,
    phases=st.integers(1, 5),
    trials=st.integers(1, 5),
    seed=st.integers(0, 2**64 - 1),
)
# 60 phases of 16 rows of 12 slots take two blocks of tail_orders.
@example(policies=["lowest-index", "robust-lps", "oblivious", "lps"], family="rand-lb",
         nms=(12, [12, 3, 7, 1]), phases=60, trials=4, seed=1)
@example(policies=["lps", "lowest-index"], family="rand-lb", nms=(12, [12, 2]), phases=60,
         trials=8, seed=2)
# Every robust-lps phase runs out of trust and walks on uniformly, on the
# same rows as oblivious's walks, after a policy that opens no move.
@example(policies=["lowest-index", "oblivious", "robust-lps"], family="reversal",
         nms=(12, [12, 11]), phases=5, trials=6, seed=3)
@example(policies=["robust-lps", "oblivious"], family="rand-lb", nms=(12, [12]), phases=6,
         trials=4, seed=4)
@example(policies=["oblivious", "lowest-index", "robust-lps", "lps"], family="reversal",
         nms=(1, [1, 1]), phases=3, trials=2, seed=5)
@example(policies=["lps", "robust-lps", "lowest-index", "oblivious"], family="rand-lb",
         nms=(1, [1]), phases=4, trials=3, seed=6)
def test_one_pass_over_several_policies_matches_one_call_each_and_oracle(
        policies, family, nms, phases, trials, seed):
    # Each policy of a pass runs on its own copy of the scheduler streams
    # over the phase chain they share, as a call with that policy alone.
    n, ms = nms[0], tuple(nms[1])
    args = (family, n, ms, phases, trials)
    counts, costs = simulate_family_trials(tuple(policies), *args, seed=seed)
    assert counts.shape == (len(policies), len(ms), trials, phases)
    assert costs.shape == (len(policies), len(ms), trials)
    alone = [simulate_family_trials(policy, *args, seed=seed) for policy in policies]
    assert counts.tolist() == [c.tolist() for c, _ in alone]
    assert costs.tolist() == [k.tolist() for _, k in alone]
    want_counts, want_costs = simulate_family_scalar(tuple(policies), *args, seed=seed)
    assert counts.tolist() == want_counts.tolist()
    assert costs.tolist() == want_costs.tolist()


class _CountingStream(RandomStream):
    __slots__ = ("words_drawn",)

    def __init__(self, seed):
        super().__init__(seed)
        self.words_drawn = 0

    def next_u32(self):
        self.words_drawn += 1
        return super().next_u32()


@pytest.mark.parametrize("bounds", [
    [3 << 30] * 6,                          # a quarter of all words are rejected
    [1, 3 << 30, 2, 1, (3 << 30) + 1, 7],   # mixed; a bound of 1 draws nothing
    [5, 1, 1, 1, 1, 1],
])
@pytest.mark.parametrize("subset", [None, [0, 2, 3, 5], [4]])
def test_lockstep_draws_match_random_stream_draw_for_draw(bounds, subset):
    seeds = [trial_seed(s, 0) for s in (3, 17, 2**64 - 1, 0, 99, 12345)]
    words = state_rows(seeds).T.copy()
    streams = [_CountingStream(seed) for seed in seeds]
    rows = np.arange(len(seeds)) if subset is None else np.array(subset)
    row_bounds = np.array(bounds, dtype=np.int64)[rows]
    for _ in range(40):
        got = _randbelow(words, rows, row_bounds)
        assert got.tolist() == [streams[r].randbelow(int(b)) for r, b in zip(rows, row_bounds)]
        # Every stream, drawn from or not, sits at the same word as its reference.
        assert words.T.tolist() == [[s._w0, s._w1, s._w2, s._w3] for s in streams]
    drawn = sum(s.words_drawn for s in streams)
    draws = 40 * int((row_bounds > 1).sum())
    if (row_bounds > 1 << 31).any():
        assert drawn > draws  # some words were rejected and redrawn
    else:
        assert drawn == draws
