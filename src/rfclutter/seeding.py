"""Deterministic RNG derivation.

Every random draw in the simulator is keyed by (master seed, stream id,
indices...), so results never depend on evaluation order or worker
count, and any single draw can be reproduced in isolation.

Per-CPI consumers (receiver noise, covariance snapshots, MIMO codes)
build one `numpy.random.Generator` per key tuple with `derive_rng`.
Receiver noise builds one per receive channel, keyed by (seed,
STREAM_NOISE, receiver, cpi, channel); it draws a (2, pulses, range)
block of standard normals, real parts first, then imaginary parts.

Per-scatterer draws (clutter phase and Doppler jitter, sea-surface
series) would need one such generator per scatterer, so they use a
counter-based generator instead: Philox4x64-10 (Salmon et al., SC'11,
"Parallel random numbers: as easy as 1, 2, 3"), the cipher behind
`numpy.random.Philox`, evaluated for many counters at once by
`philox_words`.  The layout:

    key      SeedSequence([seed, STREAM_*]).generate_state(2, uint64)
    counter  (block, patch id, realization, 0); the ocean stream has no
             realization and uses 0
    output   four uint64 words per block

`numpy.random.Philox(key=key, counter=(0, patch id, realization, 0))`
yields exactly those words, block 0 first (numpy advances the counter
before it enciphers, so block b enciphers (b + 1, patch id, realization,
0)); the tests hold the vector form to it bit for bit.  Words become
uniforms as numpy's do, `(w >> 11) * 2**-53`, and uniforms become
normals by Box-Muller in `normal_pair`.
"""

from __future__ import annotations

import numpy as np

# Stream identifiers.  Keep these distinct; they namespace the derived
# generators so different consumers of the same master seed never collide.
STREAM_CLUTTER = 1
STREAM_NOISE = 2
STREAM_OCEAN = 3
STREAM_SNAPSHOT = 4
STREAM_SNAPSHOT_BATCH = 5
STREAM_MIMO_CODE = 8

RNG_NAME = "philox4x64-10"   # the per-scatterer generator, as the manifest names it

_M64 = (1 << 64) - 1
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)     # round multipliers
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)     # key schedule increments
_PHILOX_ROUNDS = 10
_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)


def _entropy(keys) -> list[int]:
    entropy = []
    for k in keys:
        k = int(k)
        if k < 0:
            raise ValueError(f"seed keys must be non-negative, got {k}")
        entropy.append(k)
    return entropy


def derive_rng(*keys: int) -> np.random.Generator:
    """Build a Generator from an ordered tuple of non-negative integers.

    The first key is conventionally the master seed, the second a
    STREAM_* identifier, and the rest indices (cpi, channel, pulse, ...).
    """
    return np.random.default_rng(np.random.SeedSequence(_entropy(keys)))


def derive_seed(*keys: int) -> int:
    """Collapse a key tuple into a single non-negative integer seed.

    Used when an API takes a plain seed but the caller needs to
    namespace it (for example a per-CPI sea-surface seed).
    """
    return int(np.random.SeedSequence(_entropy(keys)).generate_state(1, np.uint64)[0])


def philox_key(seed: int, stream: int) -> np.ndarray:
    """The two-word Philox key of a (seed, stream) pair."""
    return np.random.SeedSequence(_entropy((seed, stream))).generate_state(2, np.uint64)


def _mulhilo(a: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit product of a 64-bit constant
    and each uint64 of `b`, from 32-bit halves."""
    a_lo, a_hi = np.uint64(a & 0xFFFFFFFF), np.uint64(a >> 32)
    b_lo, b_hi = b & _LO32, b >> _S32
    ll = a_lo * b_lo
    lh = a_lo * b_hi
    hl = a_hi * b_lo
    mid = (ll >> _S32) + (lh & _LO32) + (hl & _LO32)
    hi = a_hi * b_hi + (lh >> _S32) + (hl >> _S32) + (mid >> _S32)
    return hi, (mid << _S32) | (ll & _LO32)


def philox_words(key: np.ndarray, ids: np.ndarray, realization: int,
                 num_blocks: int) -> np.ndarray:
    """Philox4x64-10 output for counters (block, id, realization, 0),
    blocks 0 .. num_blocks - 1 of every id: shape (len(ids), 4 * num_blocks),
    row i holding id i's words in stream order."""
    ids = np.asarray(ids, dtype=np.int64).reshape(-1)
    if np.any(ids < 0) or realization < 0:
        raise ValueError("Philox counters must be non-negative")
    shape = (ids.size, num_blocks)
    # block b enciphers counter word b + 1, as numpy's Philox does
    c0 = np.broadcast_to(np.arange(1, num_blocks + 1, dtype=np.uint64), shape).ravel()
    c1 = np.repeat(ids.astype(np.uint64), num_blocks)
    c2 = np.full(c0.size, realization, dtype=np.uint64)
    c3 = np.zeros(c0.size, dtype=np.uint64)
    k0, k1 = int(key[0]), int(key[1])
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0, k1 = (k0 + _PHILOX_W[0]) & _M64, (k1 + _PHILOX_W[1]) & _M64
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ np.uint64(k1), lo0
    return np.stack([c0, c1, c2, c3], axis=1).reshape(ids.size, 4 * num_blocks)


def uniforms(words: np.ndarray) -> np.ndarray:
    """Uniforms on [0, 1) from uint64 words, as numpy's generators make them."""
    return (np.asarray(words, dtype=np.uint64) >> np.uint64(11)) * (1.0 / 9007199254740992.0)


def normal_pair(words_a: np.ndarray, words_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two independent standard normals per word pair, by Box-Muller."""
    radius = np.sqrt(-2.0 * np.log(1.0 - uniforms(words_a)))
    angle = 2.0 * np.pi * uniforms(words_b)
    return radius * np.cos(angle), radius * np.sin(angle)
