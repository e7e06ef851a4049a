"""Derived random streams against numpy's own Philox generator."""

import numpy as np
import pytest

from specspan import rng


@pytest.mark.parametrize("seed", [0, 2**63 + 5, -1])
@pytest.mark.parametrize("ts", [range(0, 6), range(4093, 4101), range(7, 8), range(0)])
def test_uniform_rows_are_generator_draws(seed, ts):
    for k in range(1, 10):
        got = rng.uniform_rows(seed, "trial", ts, k)
        ref = np.array([rng.generator(seed, "trial", t).random(k) for t in ts]).reshape(len(ts), k)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def test_uniform_rows_take_int_tags_and_steps():
    got = rng.uniform_rows(11, 42, range(3, 40, 9), 5)
    ref = np.array([rng.generator(11, 42, t).random(5) for t in range(3, 40, 9)])
    assert got.tobytes() == ref.tobytes()
