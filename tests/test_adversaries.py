"""Input generators: geometry, error budgets, steering guarantees."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mtslab.adversaries import (
    BLOCK_CELLS,
    FAMILY_NAMES,
    build_family,
    canonical_family,
    forcing_sequence,
    noisy_pst,
    random_unit_sequence,
    realize_saturation_order,
    repeat_block_sequence,
    reversal_sequence,
    shuffled_tail_sequence,
    tail_orders,
)
from mtslab.analysis import max_footrule
from mtslab.core import (
    TaskSequence,
    decompose_phases,
    load_task_sequence,
    lv_loss,
    pst_error_per_phase,
    save_task_sequence,
)
from mtslab.engine import run_scheduler
from mtslab.errors import ConfigurationError
from mtslab.rng import RandomStream, state_rows, trial_seed
from mtslab.schedulers import SCHEDULERS


def test_realize_order_frozen_example():
    assert realize_saturation_order(2, 2, [0, 1]) == [[2, 1], [0, 1]]


def test_realize_order_saturates_exactly_in_order():
    order = [3, 0, 2, 1]
    tasks = realize_saturation_order(4, 7, order)
    assert len(tasks) == 4
    for s in range(4):
        assert sum(row[s] for row in tasks) == 7
    cum = [0] * 4
    saturated = []
    for row in tasks:
        for s in range(4):
            cum[s] += row[s]
        saturated.append([s for s in range(4) if cum[s] >= 7])
    assert [len(states) for states in saturated] == [1, 2, 3, 4]
    for j in range(4):
        assert set(saturated[j]) == set(order[: j + 1])


def test_realize_order_validation():
    with pytest.raises(ConfigurationError):
        realize_saturation_order(3, 5, [0, 1, 1])
    with pytest.raises(ConfigurationError):
        realize_saturation_order(3, 2, [0, 1, 2])


def _tail_tables(family, n, m, phases, seeds):
    """(order, true) per phase, each (rows, n), from ``tail_orders``' blocks."""
    words = state_rows(seeds).T.copy()
    return [(order[:, p], true[:, p]) for order, true in tail_orders(family, n, m, phases, words)
            for p in range(order.shape[1])]


@pytest.mark.parametrize("n", [2, 5, 8])
def test_pinned_order_is_a_permutation_avoiding_carryover(n):
    trials = 64
    tables = _tail_tables("rand-lb", n, n, 4, [trial_seed(7, t) for t in range(trials)])
    rows = np.arange(trials)[:, None]
    carry = np.zeros(trials, np.int64)
    seen = set()
    for order, true in tables:
        # pinned[t, k]: the state predicted at slot k of trial t.
        pinned = np.empty_like(true)
        pinned[rows, order] = true
        for t in range(trials):
            assert sorted(pinned[t].tolist()) == list(range(n))
        assert (pinned[:, -1] != carry).all()
        seen.update(carry.tolist())
        carry = true[:, -1]
    assert seen == set(range(n))


@settings(max_examples=150, deadline=None)
@given(
    family=st.sampled_from(["reversal", "rand-lb"]),
    n=st.integers(1, 12),
    data=st.data(),
    phases=st.integers(1, 5),
    trials=st.integers(1, 6),
    seed=st.integers(0, 2**64 - 1),
)
def test_tail_orders_are_one_geometry_for_kernel_and_files(family, n, data, phases,
                                                          trials, seed):
    m = data.draw(st.integers(1, n), label="m")
    tables = _tail_tables(family, n, m, phases, [trial_seed(seed, t) for t in range(trials)])
    assert len(tables) == phases
    # Each trial's row is what a one-column call on its own stream yields.
    for t in range(trials):
        alone = _tail_tables(family, n, m, phases, [trial_seed(seed, t)])
        assert [(o[t].tolist(), s[t].tolist()) for o, s in tables] == \
            [(o[0].tolist(), s[0].tolist()) for o, s in alone]

    head = list(range(n - m))
    carry = np.zeros(trials, np.int64)
    for order, true in tables:
        assert order.shape == true.shape == (trials, n)
        for t in range(trials):
            assert sorted(true[t].tolist()) == list(range(n))
            assert order[t, : n - m].tolist() == head
            tail = order[t, n - m :].tolist()
            assert sorted(tail) == list(range(n - m, n))
            if family == "reversal":
                assert tail == list(range(n - m, n))[::-1]
        # The top predicted state is never where the previous phase ended.
        top = true[np.arange(trials), order.argmax(1)]
        if n > 1:
            assert (top != carry).all()
        carry = true[:, -1]

    if family == "reversal":
        seq = reversal_sequence(n, n, max_footrule(m), phases)
    else:
        seq = shuffled_tail_sequence(n, n, m, phases, seed=seed)
    found = decompose_phases(seq)
    assert len(found) == phases and all(p.complete for p in found)
    assert list(seq.pst) == [phase.start for phase in found]
    for phase, h, (order, true) in zip(found, seq.pst.values(), tables):
        assert phase.order == tuple(true[0].tolist())
        assert [h[s] - phase.start for s in true[0].tolist()] == order[0].tolist()


def test_tail_orders_blocks_stay_within_their_cell_budget():
    # The kernel oracle tests' two-block examples: 8 rows and 16 rows of 12 slots.
    for rows, phases in ((8, 100), (16, 60)):
        words = state_rows([trial_seed(1, t) for t in range(rows)]).T.copy()
        blocks = [order.shape for order, _ in tail_orders("rand-lb", 12, 12, phases, words)]
        assert len(blocks) == 2 and sum(shape[1] for shape in blocks) == phases
        assert all(rows * shape[1] * 12 <= BLOCK_CELLS for shape in blocks)


def _stream_at(words):
    stream = RandomStream(0)
    stream._w0, stream._w1, stream._w2, stream._w3 = words
    return stream


def _step_back(words):
    """The xorshift128 words one draw earlier: ``RandomStream.next_u32`` inverted."""
    w0, w1, w2, w3 = words
    u = w3 ^ w2 ^ (w2 >> 19)  # t ^ (t >> 8), t the shifted oldest word
    t = u ^ (u >> 8) ^ (u >> 16) ^ (u >> 24)
    return ((t ^ (t << 11) ^ (t << 22)) & 0xFFFFFFFF, w0, w1, w2)


@pytest.mark.parametrize("earlier", [0, 6])
def test_rejected_word_in_a_block_is_redrawn_as_the_stream_would(earlier):
    # After w0 = 0 and w3 = 0xFFFFE000 comes the word 0xFFFFFFFF, which
    # every bound that is not a power of two rejects. Tail size 5 draws
    # with bounds 5, 4, 3, 2, so word 0 and word 6 of a row's run are
    # drawn below 5 and below 3: first in the block, and mid-block.
    crafted = (0, 0x12345678, 0x9ABCDEF0, 0xFFFFE000)
    assert _stream_at(crafted).next_u32() == 0xFFFFFFFF
    for _ in range(earlier):
        crafted = _step_back(crafted)
    ahead = _stream_at(crafted)
    assert [ahead.next_u32() for _ in range(earlier + 1)][-1] == 0xFFFFFFFF
    n, m, phases = 7, [5, 5, 3], 4
    seeds = [trial_seed(2, t) for t in range(3)]
    words = state_rows(seeds).T.copy()
    words[:, 1] = crafted
    replay = [_stream_at(column) for column in words.T.tolist()]
    (order, _), = tail_orders("rand-lb", n, m, phases, words)
    for t, (stream, size) in enumerate(zip(replay, m)):
        for p in range(phases):
            tail = list(range(n - size, n))
            for i in range(size - 1, 0, -1):
                j = stream.randbelow(i + 1)
                tail[i], tail[j] = tail[j], tail[i]
            assert order[t, p, n - size:].tolist() == tail
    assert words.T.tolist() == [[s._w0, s._w1, s._w2, s._w3] for s in replay]
    # The crafted row took one word more than its 16 draws: the rejected one.
    ahead = _stream_at(crafted)
    for _ in range(phases * (m[1] - 1) + 1):
        ahead.next_u32()
    assert words[:, 1].tolist() == [ahead._w0, ahead._w1, ahead._w2, ahead._w3]


def test_reversal_walks_prediction_follower_through_m_states():
    seq = reversal_sequence(6, 8, 4, 4)
    run = run_scheduler(seq, "lps")
    # Error budget 4 buys a tail of 3 reversed slots.
    assert run.transitions_per_phase == [3, 3, 3, 3]
    assert pst_error_per_phase(seq) == [4, 4, 4, 4]
    assert run.suffix is None


def test_reversal_with_zero_budget_is_error_free():
    seq = reversal_sequence(5, 5, 0, 3)
    assert pst_error_per_phase(seq) == [0, 0, 0]
    run = run_scheduler(seq, "lps")
    assert run.transitions_per_phase == [1, 1, 1]


def test_shuffled_tail_respects_budget_and_geometry():
    seq = shuffled_tail_sequence(6, 6, 3, 5, seed=2)
    phases = decompose_phases(seq)
    assert len(phases) == 5 and all(p.complete for p in phases)
    for err in pst_error_per_phase(seq):
        assert err <= max_footrule(3)
    # Distinct seeds shuffle differently somewhere in five phases.
    other = shuffled_tail_sequence(6, 6, 3, 5, seed=3)
    assert not np.array_equal(seq.tasks, other.tasks)


def test_shuffled_tail_is_deterministic_per_seed():
    a = shuffled_tail_sequence(5, 7, 4, 3, seed=11)
    b = shuffled_tail_sequence(5, 7, 4, 3, seed=11)
    assert np.array_equal(a.tasks, b.tasks) and a.pst == b.pst


FORCING_EXPECTATIONS = [
    # (scheduler, exact transitions per phase with n=8, eta0=8 -> m=4)
    ("lps", 4),
    ("robust-lps", 4),
    ("lowest-index", 7),
    ("lv-greedy", 7),
]


@pytest.mark.parametrize("name,expected", FORCING_EXPECTATIONS)
def test_forcing_extracts_transitions_within_budget(name, expected):
    n, eta0, phases, seed = 8, 8, 3, 5
    seq = forcing_sequence(n, n, eta0, phases, name, seed=seed)
    for err in pst_error_per_phase(seq):
        assert err <= eta0
    run = run_scheduler(seq, name, seed=seed, trial_index=0)
    assert run.transitions_per_phase == [expected] * phases


def test_forcing_rejects_non_conforming_scheduler():
    with pytest.raises(ConfigurationError):
        forcing_sequence(4, 4, 2, 1, "stay-put")


def test_repeat_block_forces_full_rotation():
    seq = repeat_block_sequence(4, 2, "lowest-index")
    assert seq.granularity == 5
    # Per phase: n rounds of a full sweep plus repeat - q hammer steps.
    assert len(seq.tasks) == 2 * (4 * 4 + 4 + 3 + 2 + 1)
    phases = decompose_phases(seq)
    assert len(phases) == 2 and all(p.complete for p in phases)
    assert lv_loss(seq) == 0
    run = run_scheduler(seq, "lowest-index")
    assert run.transitions_per_phase == [3, 3]


def test_repeat_block_pins_prediction_reader_too():
    seq = repeat_block_sequence(5, 2, "lv-greedy", repeat=7)
    assert seq.granularity == 7
    assert lv_loss(seq) == 0
    run = run_scheduler(seq, "lv-greedy")
    assert run.transitions_per_phase == [4, 4]


def test_repeat_block_validation():
    with pytest.raises(ConfigurationError):
        repeat_block_sequence(4, 1, "lowest-index", repeat=4)
    with pytest.raises(ConfigurationError):
        repeat_block_sequence(4, 1, "lps")


def test_random_unit_sequence_is_trim_and_truthful():
    seq = random_unit_sequence(5, 4, 3, seed=1)
    phases = decompose_phases(seq)
    assert len(phases) == 3 and all(p.complete for p in phases)
    assert pst_error_per_phase(seq) == [0, 0, 0]
    assert lv_loss(seq) == 0
    for row in seq.tasks:
        assert sorted(row)[-1] == 1 and sum(row) == 1


def test_noisy_pst_respects_budget_and_distinctness():
    base = random_unit_sequence(4, 5, 4, seed=6)
    noisy = noisy_pst(base, 5, seed=3)
    assert np.array_equal(noisy.tasks, base.tasks)
    errors = pst_error_per_phase(noisy)
    assert len(errors) == 4
    for h, err in zip(noisy.pst.values(), errors):
        assert err <= 5
        assert len(set(h)) == len(h)
    # Somewhere the perturbation actually moved a prediction.
    assert any(err > 0 for err in errors)


@pytest.mark.parametrize("n, granularity, tasks", [
    (2, 2, [[2, 2]]),
    (3, 1, [[1, 1, 1]]),
], ids=["two-tied", "three-tied"])
def test_noisy_pst_leaves_tied_steps_at_zero_budget(deadline, n, granularity, tasks):
    # Every state saturates on step 0, so a zero budget leaves the truth as
    # the only prediction. Splitting the tie would cost error (n = 2) or,
    # with three tied states, never settle.
    seq = TaskSequence(n=n, granularity=granularity, tasks=tasks)
    with deadline(10):
        noisy = noisy_pst(seq, 0)
    assert noisy.pst == {0: (0,) * n}
    assert pst_error_per_phase(noisy) == [0]


def test_noisy_pst_without_a_complete_phase_is_empty(tmp_path):
    # State 1 never saturates, so the only phase is the trailing one.
    seq = TaskSequence(n=2, granularity=2, tasks=[[2, 0], [1, 1]])
    noisy = noisy_pst(seq, 3, seed=1)
    assert noisy.pst == {}
    path = tmp_path / "seq.json"
    save_task_sequence(noisy, path)
    assert b'"pst":[]' in path.read_bytes()
    again = load_task_sequence(path)
    assert again.pst == {} and again == noisy


@st.composite
def tied_sequences(draw):
    n = draw(st.integers(1, 4))
    granularity = draw(st.integers(1, 3))
    # Entries up to the threshold make simultaneous saturations common.
    row = st.lists(st.integers(0, granularity), min_size=n, max_size=n)
    tasks = draw(st.lists(row, max_size=12))
    return TaskSequence(n=n, granularity=granularity, tasks=tasks)


@settings(max_examples=150, deadline=None)
@given(tied_sequences(), st.integers(0, 6), st.integers(0, 3))
def test_noisy_pst_stays_in_budget_and_splits_only_distinct_steps(deadline, seq, eta0, seed):
    with deadline(10):
        noisy = noisy_pst(seq, eta0, seed=seed)
    phases = [p for p in decompose_phases(noisy) if p.complete]
    assert list(noisy.pst) == [p.start for p in phases]
    for phase in phases:
        assert phase.pst_error <= eta0
        for a in range(seq.n):
            for b in range(a):
                if phase.sat_step[a] != phase.sat_step[b]:
                    assert phase.h[a] != phase.h[b]


def test_noisy_pst_rejects_budgets_past_one_draw(deadline):
    # One draw picks an offset among 2 * eta0 + 1 values, at most 2**32.
    base = random_unit_sequence(2, 2, 1, seed=0)
    with deadline(10), pytest.raises(ConfigurationError, match="2\\*\\*31"):
        noisy_pst(base, 2**31)


def test_noisy_pst_takes_the_largest_budget_in_closed_form(deadline):
    # A loop that sheds one unit of the budget per pass would run for hours.
    base = random_unit_sequence(8, 3, 4, seed=1)
    eta0 = 2**31 - 1
    with deadline(10):
        noisy = noisy_pst(base, eta0, seed=0)
    errors = pst_error_per_phase(noisy)
    assert len(errors) == 4
    assert all(0 < err <= eta0 for err in errors)


def test_canonical_family_names_and_aliases():
    assert canonical_family("Rand_LB") == "rand-lb"
    assert canonical_family("force-deterministic") == "force-det"
    assert canonical_family("lv-adversary") == "lv"
    for name in FAMILY_NAMES:
        assert canonical_family(name) == name
    with pytest.raises(ConfigurationError):
        canonical_family("worst-case")


def test_build_family_flag_validation():
    with pytest.raises(ConfigurationError):
        build_family("rand-lb", n=4)  # missing k
    with pytest.raises(ConfigurationError):
        build_family("rand-lb", n=4, k=1)
    with pytest.raises(ConfigurationError):
        build_family("rand-lb", n=4, k=3, eta0=2)
    with pytest.raises(ConfigurationError):
        build_family("reversal", n=4, eta0=2, k=3)
    with pytest.raises(ConfigurationError):
        build_family("reversal", n=4)  # missing eta0
    with pytest.raises(ConfigurationError):
        build_family("lv", n=4, scheduler="lowest-index", r=4)  # r <= n
    with pytest.raises(ConfigurationError):
        build_family("lv", n=4, scheduler="lowest-index", eta0=1)
    with pytest.raises(ConfigurationError):
        build_family("force-det", n=4, eta0=2)  # missing scheduler


def test_repeat_block_bound_error_names_repeat():
    with pytest.raises(ConfigurationError, match="repeat must be >= 5"):
        repeat_block_sequence(4, 1, "lowest-index", repeat=4)


def test_build_family_reports_geometry():
    seq, info = build_family("reversal", n=8, eta0=4, phases=2)
    assert info == {"family": "reversal", "m": 3}
    assert seq.granularity == 8
    seq, info = build_family("rand-lb", n=4, k=9, phases=1, seed=2)
    assert info == {"family": "rand-lb", "m": 4}
    seq, info = build_family("lv", n=3, scheduler="lowest-index", phases=1)
    assert info == {"family": "lv", "r": 4}
    assert seq.granularity == 4
    seq, info = build_family(
        "force-det", n=4, eta0=4, phases=2, scheduler="lps")
    assert info == {"family": "force-det", "m": 3}


def test_lv_length_matches_its_closed_form():
    # build_family bounds the lv family by this length before generating it.
    for n in (1, 2, 3, 5):
        for r in (n + 1, n + 4):
            for phases in (1, 2):
                seq = repeat_block_sequence(n, phases, "lowest-index", repeat=r)
                assert len(seq) == phases * (n * n + n * r - n * (n + 1) // 2)


def _as_ints(values):
    return None if values is None else tuple(int(v) for v in values)


def _logged(cls):
    """``cls`` with every hook call and its answer appended to ``self.log``."""

    class Logged(cls):
        def reset(self, n, stream):
            super().reset(n, stream)
            self.log = []

        def phase_start(self, current, h):
            answer = super().phase_start(current, h)
            self.log.append(("open", current, _as_ints(h), answer))
            return answer

        def on_saturation(self, current, unsaturated, now, h, latest_lv):
            target = super().on_saturation(current, unsaturated, now, h, latest_lv)
            entry = ("forced", now, current, tuple(unsaturated), _as_ints(h), target)
            # forcing_sequence hands every scheduler a table of now + 1, but
            # writes it into the file only for the schedulers that read it.
            if self.needs_lv:
                entry += (_as_ints(latest_lv),)
            self.log.append(entry)
            return target

    return Logged


_FORCE_DET = [name for name, cls in SCHEDULERS.items() if cls.conforming]
_LV = [name for name in _FORCE_DET if not SCHEDULERS[name].needs_pst]


@pytest.mark.parametrize("family,name", [("force-det", name) for name in _FORCE_DET]
                         + [("lv", name) for name in _LV])
@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_replay_matches_generation_move_for_move(family, name, n):
    for seed in range(4):
        live = _logged(SCHEDULERS[name])()
        if family == "force-det":
            seq = forcing_sequence(n, n, 6, 3, live, seed=seed)
        else:
            seq = repeat_block_sequence(n, 3, live, seed=seed)
        replay = _logged(SCHEDULERS[name])()
        run_scheduler(seq, replay, seed=seed)
        assert any(entry[0] == "forced" for entry in live.log)
        assert replay.log == live.log, (family, name, n, seed)
