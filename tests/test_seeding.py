"""Counter-based draws: the chunked, pooled Philox4x64-10 kernel."""

from functools import lru_cache

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


@lru_cache(maxsize=None)
def batch_case(num_realizations, num_ids):
    """Realizations (a column) and ids (a row) whose broadcast names
    num_realizations * num_ids counters, with numpy's words for each."""
    key = philox_key(5, STREAM_CLUTTER)
    realizations = 1_000_000 + 3 * np.arange(num_realizations)
    ids = np.arange(num_ids) * 7 + 2
    want = np.stack([numpy_words(key, ids, int(r), 1) for r in realizations])
    return key, realizations[:, None], ids, want


# 217 * 151 = C - 1, 128 * 256 = C and 9 * 3641 = C + 1 counters
@pytest.mark.parametrize("workers", [1, 2, 3, 8])
@pytest.mark.parametrize("num_realizations, num_ids", [(217, 151), (128, 256), (9, 3641)])
def test_philox_words_take_a_realization_per_counter(set_worker_count, workers,
                                                     num_realizations, num_ids):
    assert num_realizations * num_ids in (C - 1, C, C + 1)
    key, realizations, ids, want = batch_case(num_realizations, num_ids)
    set_worker_count(workers)
    got = philox_words(key, ids, realizations, 1)
    assert got.shape == (num_realizations, num_ids, 4) and got.dtype == np.uint64
    np.testing.assert_array_equal(got, want)


def test_philox_words_realization_array_with_several_blocks(monkeypatch):
    monkeypatch.setattr(seeding, "PHILOX_CHUNK", 64)
    key = philox_key(2, STREAM_CLUTTER)
    ids = np.array([4, 0, 9])
    realizations = np.array([[0], [7], [1_000_003]])
    got = philox_words(key, ids, realizations, 5)
    assert got.shape == (3, 3, 20)
    for row, r in zip(got, realizations[:, 0]):
        np.testing.assert_array_equal(row, numpy_words(key, ids, int(r), 5))
    # one realization per id, by broadcasting the same shape
    np.testing.assert_array_equal(philox_words(key, ids, realizations[:, 0], 5),
                                  got[np.arange(3), np.arange(3)])
    with pytest.raises(ValueError):
        philox_words(key, ids, np.array([[1], [-1]]), 1)
