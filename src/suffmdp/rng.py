"""Deterministic random-stream derivation.

Every stochastic operation in the package draws from a generator derived
from an integer seed plus a tuple key (e.g. ``(seed, round, variable)`` or
``(seed, t, action)``).  Streams keyed this way are independent of loop
order and of how work is split across worker processes, which is what makes
results bit-reproducible at any worker count.

A stream is a function of the 32-bit words of ``(seed, *key)``: each
integer gives its little-endian words, and numpy's ``SeedSequence`` pads
fewer than four words with zeros.  Keys with equal words share a stream.
So keys that differ only by trailing zeros collide when the longer fits in
four words: ``substream(1)`` draws what ``substream(1, 0)`` draws, and
``derive_seed(1, 2, 3) == derive_seed(1, 2, 3, 0)``.  So can keys of one
length whose integers reach 2**32, which take more than one word.  Each call
site therefore keys a fixed number of integers below 2**32 under its own
base seed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["substream", "derive_seed"]


def _seed_sequence(seed: int, key: tuple) -> np.random.SeedSequence:
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    entropy = (int(seed),) + tuple(int(k) for k in key)
    return np.random.SeedSequence(entropy)


def substream(seed: int, *key: int) -> np.random.Generator:
    """Return a generator for the stream identified by ``(seed, *key)``."""
    return np.random.default_rng(_seed_sequence(seed, key))


def derive_seed(seed: int, *key: int) -> int:
    """Collapse ``(seed, *key)`` into a fresh integer seed.

    Used when a sub-computation takes an integer seed of its own (e.g. a
    cross-validation fold handing a seed to a model fit).
    """
    return int(_seed_sequence(seed, key).generate_state(1, np.uint64)[0])
