"""The tests' reference catalog draw: the partial Fisher-Yates swap loop.

``storage._sample_subset`` never runs a swap.  It works out, on arrays,
which values a partial Fisher-Yates pass leaves in positions 0..M-1.  The
tests check every set it returns against this loop, which takes the same
swap positions from the same stream and runs each swap on a Python list.
:class:`Draws` stands in for a generator, so that a test can choose the
swaps themselves: a deep chain, or every swap on one position.

It is imported by the tests and is not collected as a test module.
"""

from __future__ import annotations

import numpy as np


def reference_subset(K: int, M: int, rng) -> np.ndarray:
    """The sorted front of the pass, one swap at a time on ``list(range(K))``."""
    offsets = np.arange(M, dtype=np.int64)
    swaps = (offsets + (rng.random(M) * (K - offsets)).astype(np.int64)).tolist()
    pool = list(range(K))
    for i, j in enumerate(swaps):
        pool[i], pool[j] = pool[j], pool[i]
    return np.sort(np.asarray(pool[:M], dtype=np.int64))


class Draws:
    """A stand-in generator whose ``random(M)`` makes swap i draw ``swaps[i]``.

    Each uniform is the middle of the interval that maps to its position,
    so the float-to-index map gives exactly ``swaps[i]`` for i < M.
    """

    def __init__(self, K: int, swaps):
        self.K = K
        self.swaps = np.asarray(swaps, dtype=np.int64)

    def random(self, M: int) -> np.ndarray:
        offsets = np.arange(M)
        assert ((self.swaps[:M] >= offsets) & (self.swaps[:M] < self.K)).all()
        return (self.swaps[:M] - offsets + 0.5) / (self.K - offsets)


def chain(K: int, M: int) -> Draws:
    """Swap i draws position i + 1: each value is carried one step on, M deep."""
    return Draws(K, np.arange(1, M + 1))


def all_last(K: int, M: int) -> Draws:
    """Every swap draws position K - 1."""
    return Draws(K, np.full(M, K - 1))
