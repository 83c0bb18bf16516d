"""Counter-based draws: the chunked, pooled Philox4x64-10 kernel."""

import numpy as np
import pytest

from rfclutter import seeding
from rfclutter.seeding import PHILOX_CHUNK, STREAM_CLUTTER, philox_key, philox_words

C = PHILOX_CHUNK


def numpy_words(key, ids, realization, num_blocks):
    """The oracle: numpy's own Philox, one generator per id."""
    return np.stack([
        np.random.Philox(key=key, counter=(0, int(i), realization, 0)).random_raw(4 * num_blocks)
        for i in ids])


# (ids, blocks per id) with 1 * (C - 1) = 217 * 151 = C - 1, 1024 * 32 = C,
# 3641 * 9 = C + 1 and 1 * (2C + 3) blocks: one below, at and above the
# chunk size, and three chunks with a remainder.
SHAPES = [(1, C - 1), (217, 151), (1, C), (1024, 32), (1, C + 1), (3641, 9), (1, 2 * C + 3)]


@pytest.mark.parametrize("num_ids, num_blocks", SHAPES)
def test_philox_words_match_numpy_at_chunk_edges(num_ids, num_blocks):
    assert num_ids * num_blocks in (C - 1, C, C + 1, 2 * C + 3)
    key = philox_key(7, STREAM_CLUTTER)
    ids = np.arange(num_ids) * 5 + 3
    got = philox_words(key, ids, 2, num_blocks)
    assert got.shape == (num_ids, 4 * num_blocks) and got.dtype == np.uint64
    np.testing.assert_array_equal(got, numpy_words(key, ids, 2, num_blocks))


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_philox_words_do_not_depend_on_the_worker_count(set_worker_count, monkeypatch,
                                                        workers):
    """Chunks of 64 blocks split 1, 2, 3 and 8 ways, with a partial
    last chunk, give numpy's words."""
    monkeypatch.setattr(seeding, "PHILOX_CHUNK", 64)
    set_worker_count(workers)
    key = philox_key(11, STREAM_CLUTTER)
    for num_ids, num_blocks in ((13, 37), (300, 1), (1, 5 * 64 + 7)):
        ids = np.arange(num_ids) * 3 + 1
        np.testing.assert_array_equal(philox_words(key, ids, 1, num_blocks),
                                      numpy_words(key, ids, 1, num_blocks))


def test_philox_words_with_no_counters():
    key = philox_key(1, STREAM_CLUTTER)
    assert philox_words(key, np.zeros(0, dtype=np.int64), 0, 4).shape == (0, 16)
    assert philox_words(key, np.arange(3), 0, 0).shape == (3, 0)
    with pytest.raises(ValueError):
        philox_words(key, np.array([-1]), 0, 1)
