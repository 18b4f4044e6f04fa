import numpy as np
import pytest
from hypothesis import given, strategies as st

from mtslab.rng import _GAMMA, RandomStream, _word_run, seed_words, state_rows, trial_seed


def test_stream_is_deterministic_for_a_seed():
    a = RandomStream(1234)
    b = RandomStream(1234)
    assert [a.next_u32() for _ in range(64)] == [b.next_u32() for _ in range(64)]


def test_different_seeds_give_different_streams():
    a = [RandomStream(1).next_u32() for _ in range(4)]
    b = [RandomStream(2).next_u32() for _ in range(4)]
    assert a != b


def test_trial_seeds_are_distinct_and_stable():
    seeds = [trial_seed(0, i) for i in range(1000)]
    assert len(set(seeds)) == 1000
    assert seeds[0] == trial_seed(0, 0)
    assert trial_seed(7, 3) != trial_seed(8, 3)


def test_randbelow_rejects_bounds_past_one_word(deadline):
    # Past 2**32 the rejection limit would be 0, and no draw would end.
    stream = RandomStream(0)
    with deadline(10):
        assert 0 <= stream.randbelow(2**32) < 2**32
        with pytest.raises(ValueError, match="2\\*\\*32"):
            stream.randbelow(2**32 + 1)


def test_trial_seed_rejects_negative_index():
    with pytest.raises(ValueError):
        trial_seed(0, -1)


def test_seed_words_are_32_bit_and_never_all_zero():
    for seed in (0, 1, 2**63, 2**64 - 1, 42):
        words = seed_words(seed)
        assert len(words) == 4
        assert all(0 <= w < 2**32 for w in words)
        assert any(words)


def test_state_rows_layout():
    words = state_rows([trial_seed(0, i) for i in range(5)])
    assert words.shape == (4, 5)
    assert words.dtype == np.int64 and words.flags.c_contiguous
    assert (words >= 0).all() and (words < 2**32).all()


@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=20))
def test_state_rows_are_seed_words_of_every_seed(seeds):
    # 2**64 - _GAMMA wraps the first mixer input to 0.
    seeds = [0, 2**64 - 1, 2**64 - _GAMMA, *seeds]
    assert state_rows(seeds).T.tolist() == [list(seed_words(s)) for s in seeds]


def test_randbelow_one_consumes_nothing():
    a = RandomStream(99)
    b = RandomStream(99)
    assert a.randbelow(1) == 0
    assert a.next_u32() == b.next_u32()


def test_randbelow_rejects_nonpositive_bound():
    with pytest.raises(ValueError):
        RandomStream(0).randbelow(0)


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=1, max_value=1000))
def test_randbelow_stays_in_range(seed, bound):
    stream = RandomStream(seed)
    for _ in range(8):
        assert 0 <= stream.randbelow(bound) < bound


def test_randbelow_covers_small_range():
    stream = RandomStream(5)
    seen = {stream.randbelow(4) for _ in range(200)}
    assert seen == {0, 1, 2, 3}


@pytest.mark.parametrize("count", range(10))
def test_word_run_draws_the_streams_words_in_order(count):
    seeds = [trial_seed(5, t) for t in range(3)]
    words = state_rows(seeds)
    run = _word_run(words, count)
    assert run.shape == (count + 4, 3)
    assert (words == state_rows(seeds)).all()  # not advanced
    for t, seed in enumerate(seeds):
        stream = RandomStream(seed)
        assert run[4:, t].tolist() == [stream.next_u32() for _ in range(count)]
        assert run[count:, t].tolist() == [stream._w0, stream._w1, stream._w2, stream._w3]
