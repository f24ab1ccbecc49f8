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
