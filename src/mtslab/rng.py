"""Deterministic random streams shared by the engine and the batched kernel.

The reference engine draws from one Python stream per trial
(``RandomStream``); the lockstep draws (``_randbelow``) step the same
streams for every trial at once as int64 numpy columns, for the batched
kernel's scheduler draws, and ``_word_run`` draws a run of words from
every stream at once, for the family shuffles of
``adversaries.tail_orders``. Both must see bit-identical draws so that a
run is reproducible whichever path executed it, so the package carries its
own small generator rather than numpy's:

* core generator: xorshift128 over four 32-bit words (shifts and xors only,
  safe in signed 64-bit arithmetic, so whole int64 arrays of streams step
  exactly like the Python-int reference),
* seeding and per-trial derivation: a splitmix64-style mixer kept in pure
  Python where 64-bit multiplication is exact; ``state_rows`` runs the
  same mixer over a whole batch of seeds in wrapping uint64 arithmetic.

Batch runs derive one independent stream per trial: trial ``i`` of a batch
with base seed ``s`` uses ``trial_seed(s, i)``, which is splitmix64 output
``i + 1`` of the sequence started at ``s``. Uniform draws over a set of
states always index the candidates in ascending state order.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "MASK32",
    "MASK64",
    "check_seed",
    "trial_seed",
    "seed_words",
    "state_rows",
    "RandomStream",
]

MASK32 = 0xFFFFFFFF
MASK64 = 0xFFFFFFFFFFFFFFFF
_TWO32 = 1 << 32

_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def _mix64(value: int) -> int:
    z = value & MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & MASK64
    return z ^ (z >> 31)


def check_seed(seed: int, name: str = "seed") -> None:
    """One seed, one stream: the streams read a seed modulo 2**64, so a seed
    outside [0, 2**64) would silently rerun another seed's streams."""
    if not 0 <= seed <= MASK64:
        raise ConfigurationError(f"{name} must be in [0, 2**64)")


def trial_seed(base_seed: int, trial_index: int) -> int:
    """Seed for one trial of a batch started at ``base_seed``."""
    if trial_index < 0:
        raise ValueError("trial_index must be >= 0")
    acc = (base_seed + (trial_index + 1) * _GAMMA) & MASK64
    return _mix64(acc)


def seed_words(seed: int) -> tuple[int, int, int, int]:
    """Expand a seed into the four 32-bit xorshift words (never all zero)."""
    a = _mix64((seed + _GAMMA) & MASK64)
    b = _mix64((seed + 2 * _GAMMA) & MASK64)
    words = (a & MASK32, (a >> 32) & MASK32, b & MASK32, (b >> 32) & MASK32)
    if not any(words):
        words = (1, 0, 0, 0)
    return words


def _mix64_rows(z: np.ndarray) -> np.ndarray:
    """``_mix64`` over a uint64 array, in wrapping 64-bit arithmetic."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_A)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_B)
    return z ^ (z >> np.uint64(31))


def state_rows(seeds: list[int]) -> np.ndarray:
    """``seed_words`` of every seed, one row each, kernel-ready (int64)."""
    s = np.array([seed & MASK64 for seed in seeds], dtype=np.uint64)
    a = _mix64_rows(s + np.uint64(_GAMMA))
    b = _mix64_rows(s + np.uint64(2 * _GAMMA & MASK64))
    half = np.uint64(32)
    low = np.uint64(MASK32)
    rows = np.stack([a & low, a >> half, b & low, b >> half], axis=1).astype(np.int64)
    rows[~rows.any(axis=1)] = (1, 0, 0, 0)
    return rows


class RandomStream:
    """xorshift128 over Python ints; the reference for all backends."""

    __slots__ = ("_w0", "_w1", "_w2", "_w3")

    def __init__(self, seed: int) -> None:
        self._w0, self._w1, self._w2, self._w3 = seed_words(seed)

    def next_u32(self) -> int:
        t = self._w0 ^ ((self._w0 << 11) & MASK32)
        self._w0 = self._w1
        self._w1 = self._w2
        self._w2 = self._w3
        w = self._w3
        self._w3 = (w ^ (w >> 19)) ^ (t ^ (t >> 8))
        return self._w3

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound).

        Uses rejection sampling over one 32-bit word, so the distribution
        is exact and ``bound`` is at most 2**32. A bound of 1 consumes
        nothing from the stream; the batched kernel follows the same
        convention.
        """
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound > _TWO32:
            raise ValueError("bound must be <= 2**32")
        if bound == 1:
            return 0
        lim = (1 << 32) // bound * bound
        while True:
            v = self.next_u32()
            if v < lim:
                return v % bound


# ---- lockstep random draws: one xorshift stream per column ----


def _next_u32(words, rows):
    """Advance the streams ``rows`` (an index array or a slice) by one word."""
    x = words[0, rows]
    t = x ^ ((x << 11) & MASK32)
    w = words[3, rows]
    words[:3, rows] = words[1:, rows]
    w = (w ^ (w >> 19)) ^ (t ^ (t >> 8))
    words[3, rows] = w
    return w


def _word_run(words, count):
    """The next ``count`` words of every stream, shape (4 + count, streams).

    Rows k .. k + 3 hold every stream's four words after k draws, so row
    k + 4 is the k-th word drawn; ``words`` itself is not advanced. Word
    k + 4 is G(word k + 3) ^ T(word k), with G(w) = w ^ (w >> 19) and T
    the shifts of word k. G is its own inverse on 32-bit words, so the
    next four words follow from the last four in one pass over a
    (4, streams) block: that halves the array operations per word.
    """
    run = np.empty((4 + 4 * -(-count // 4), words.shape[1]), np.int64)
    run[:4] = words
    for k in range(0, len(run) - 4, 4):
        t = run[k:k + 4] ^ ((run[k:k + 4] << 11) & MASK32)
        t ^= t >> 8  # T(word k + i)
        g = t ^ (t >> 19)
        g[:3] ^= t[1:]  # G(T(word k + i)) ^ T(word k + i + 1)
        d = run[k + 3]
        out = run[k + 4:k + 8]
        out[0] = d ^ (d >> 19) ^ t[0]
        out[1] = d ^ g[0]
        out[2] = out[0] ^ g[1]
        out[3] = out[1] ^ g[2]
    return run[:count + 4]


def _randbelow(words, rows, bounds):
    """``RandomStream.randbelow(bounds[i])`` on stream ``rows[i]`` for every i.

    ``words`` holds the four xorshift words word-major, shape (4, streams),
    and ``rows`` are strictly increasing stream indices, so a draw on every
    stream is a few whole-array operations. A bound of 1 draws nothing,
    and a rejected draw is redrawn on its own stream only: every stream
    sees exactly the draws its scalar ``RandomStream`` would.
    """
    out = np.zeros(len(rows), np.int64)
    todo = np.flatnonzero(bounds > 1)
    while todo.size:
        b = bounds[todo]
        sel = rows[todo]
        v = _next_u32(words, slice(None) if sel.size == words.shape[1] else sel)
        ok = v < _TWO32 // b * b
        if ok.all():
            out[todo] = v % b
            break
        out[todo[ok]] = v[ok] % b[ok]
        todo = todo[~ok]
    return out
