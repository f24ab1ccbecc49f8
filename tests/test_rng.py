"""Seed-keyed random streams: equal keys give equal streams, distinct keys
distinct ones."""

import numpy as np
import pytest

from suffmdp.rng import derive_seed, substream


def test_equal_keys_give_equal_streams_and_seeds():
    assert np.array_equal(substream(7, 1, 2).random(5), substream(7, 1, 2).random(5))
    assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
    assert np.array_equal(substream(7).random(5), substream(7).random(5))


@pytest.mark.parametrize("a,b", [((1, 1, 2), (1, 12)), ((1, 1, 2), (1, 2, 1)),
                                 ((1, 12), (1, 2, 1))])
def test_distinct_keys_give_distinct_streams_and_seeds(a, b):
    assert not np.array_equal(substream(*a).random(5), substream(*b).random(5))
    assert derive_seed(*a) != derive_seed(*b)


def test_negative_seed_raises():
    with pytest.raises(ValueError, match="nonnegative"):
        substream(-1)
    with pytest.raises(ValueError, match="nonnegative"):
        derive_seed(-1, 2)


@pytest.mark.parametrize("seed", [1.5, True, np.float64(1.0)], ids=["fraction", "bool", "float64"])
def test_non_integer_seed_or_key_raises(seed):
    # each was once truncated by int(): derive_seed(1.5, 2) was derive_seed(1, 2)
    with pytest.raises(ValueError, match="must be integers"):
        substream(seed)
    with pytest.raises(ValueError, match="must be integers"):
        derive_seed(seed, 2)
    with pytest.raises(ValueError, match="must be integers"):
        derive_seed(2, seed)


def test_numpy_integer_seed_and_key_are_integers():
    assert derive_seed(np.int64(3), np.int64(2)) == derive_seed(3, 2)
    assert np.array_equal(substream(np.int64(3)).random(5), substream(3).random(5))
