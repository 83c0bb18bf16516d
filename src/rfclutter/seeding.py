"""Deterministic RNG derivation.

Every random draw in the simulator is keyed by (master seed, stream id,
indices...), so results never depend on evaluation order or worker
count, and any single draw can be reproduced in isolation.

Per-CPI consumers (receiver noise, MIMO codes) build one
`numpy.random.Generator` per key tuple with `derive_rng`.  Receiver
noise builds one per receive channel, keyed by (seed, STREAM_NOISE, 0,
cpi, channel), where the 0 is a receiver slot that stays fixed because
there is one receiver; it draws (pulses, range) float64 uniforms, then
(pulses, range) float32 uniforms, the radii and the angles of float32
Box-Muller pairs (see `rxsim._assemble_cube`).  Builds that drew
numpy's ziggurat normals from these generators made other noise.

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

Each block's words depend only on its counter, so `philox_words`
enciphers fixed-size chunks of counters in place and spreads them over
every CPU through the shared worker pool (`workers`); the words are the
same at any core count.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .workers import run_blocks

# Stream identifiers.  Keep these distinct; they namespace the derived
# generators so different consumers of the same master seed never collide.
STREAM_CLUTTER = 1
STREAM_NOISE = 2
STREAM_OCEAN = 3
STREAM_MIMO_CODE = 8

RNG_NAME = "philox4x64-10"   # the per-scatterer generator, as the manifest names it

_M64 = (1 << 64) - 1
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)     # round multipliers
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)     # key schedule increments
_PHILOX_ROUNDS = 10
_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
# Counters per chunk of philox_words; fixes each task's scratch memory.
PHILOX_CHUNK = 1 << 15


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


def _mulhi(a_lo: np.uint64, a_hi: np.uint64, b: np.ndarray, bl: np.ndarray,
           bh: np.ndarray, t: np.ndarray, u: np.ndarray) -> None:
    """High word of the 128-bit product of the constant a_hi 2**32 + a_lo
    and each uint64 of `b`, from 32-bit halves, into `bh`; `bl`, `t`
    and `u` are scratch.  No partial sum exceeds 64 bits."""
    np.bitwise_and(b, _LO32, out=bl)
    np.right_shift(b, _S32, out=bh)
    np.multiply(bl, a_lo, out=t)
    t >>= _S32                     # (a_lo b_lo) >> 32
    np.multiply(bh, a_lo, out=u)
    u += t                         # a_lo b_hi + (a_lo b_lo >> 32)
    np.bitwise_and(u, _LO32, out=t)
    u >>= _S32
    bl *= a_hi
    bl += t
    bl >>= _S32                    # (a_hi b_lo + the low half of u) >> 32
    bh *= a_hi
    bh += u
    bh += bl


def _encipher(key: np.ndarray, ids: np.ndarray, realization, num_blocks: int,
              out: np.ndarray, chunks: range) -> None:
    """Fill the given PHILOX_CHUNK-row chunks of `out`, whose row f holds
    the four words of block f % num_blocks of ids[f // num_blocks], under
    the realization `realization` (an int) or realization[f // num_blocks]
    (a uint64 array as long as `ids`).

    One set of eight chunk-sized buffers serves every chunk.  Each
    round works in place: its low words are wrapping uint64 products,
    and the new c2 swaps buffers with the old one."""
    m0, m1 = np.uint64(_PHILOX_M[0]), np.uint64(_PHILOX_M[1])
    h0 = np.uint64(_PHILOX_M[0] & 0xFFFFFFFF), np.uint64(_PHILOX_M[0] >> 32)
    h1 = np.uint64(_PHILOX_M[1] & 0xFFFFFFFF), np.uint64(_PHILOX_M[1] >> 32)
    keys = []
    k0, k1 = int(key[0]), int(key[1])
    for _ in range(_PHILOX_ROUNDS):
        keys.append((np.uint64(k0), np.uint64(k1)))
        k0, k1 = (k0 + _PHILOX_W[0]) & _M64, (k1 + _PHILOX_W[1]) & _M64
    buffers = np.empty((8, min(PHILOX_CHUNK, len(out))), dtype=np.uint64)
    for chunk in chunks:
        lo = chunk * PHILOX_CHUNK
        rows = out[lo:lo + PHILOX_CHUNK]
        c0, c1, c2, c3, s0, s1, s2, s3 = buffers[:, :len(rows)]
        # block b enciphers counter word b + 1, as numpy's Philox does
        q, r = np.divmod(np.arange(lo, lo + len(rows), dtype=np.uint64), np.uint64(num_blocks))
        np.add(r, np.uint64(1), out=c0)
        np.take(ids, q, out=c1)
        if isinstance(realization, np.ndarray):
            np.take(realization, q, out=c2)
        else:
            c2.fill(realization)
        c3.fill(0)
        for k0, k1 in keys:
            _mulhi(*h0, c0, s0, s1, s2, s3)
            s1 ^= c3
            s1 ^= k1                     # the new c2
            np.multiply(c0, m0, out=c3)  # the new c3
            _mulhi(*h1, c2, s0, c0, s2, s3)
            c0 ^= c1
            c0 ^= k0                     # the new c0
            np.multiply(c2, m1, out=c1)  # the new c1
            c2, s1 = s1, c2
        for j, c in enumerate((c0, c1, c2, c3)):
            rows[:, j] = c


def philox_words(key: np.ndarray, ids: np.ndarray, realization,
                 num_blocks: int) -> np.ndarray:
    """Philox4x64-10 output for counters (block, id, realization, 0),
    blocks 0 .. num_blocks - 1 of every id.

    With an int `realization`, `ids` is flattened and the result has
    shape (len(ids), 4 * num_blocks), row i holding id i's words in
    stream order.  An array `realization` broadcasts against `ids` to
    a shape S, each element naming one (id, realization) pair, as for
    a batch of realizations of the same ids
    (`realization=ks[:, None]`); the result has shape
    S + (4 * num_blocks,).

    The counters are enciphered in chunks of PHILOX_CHUNK, spread over
    every core by `workers.run_blocks`; a block's words do not depend
    on its chunk, so the bytes are the same at any core count."""
    ids = np.asarray(ids, dtype=np.int64)
    realization = np.asarray(realization, dtype=np.int64)
    if np.any(ids < 0) or np.any(realization < 0):
        raise ValueError("Philox counters must be non-negative")
    if realization.ndim == 0:
        ids = ids.reshape(-1)
        realization = int(realization)
    else:
        ids, realization = np.broadcast_arrays(ids, realization)
        realization = realization.astype(np.uint64).reshape(-1)
    shape = ids.shape
    ids = ids.reshape(-1)
    out = np.empty((ids.size * num_blocks, 4), dtype=np.uint64)
    run_blocks(partial(_encipher, key, ids.astype(np.uint64), realization, num_blocks, out),
               -(-out.shape[0] // PHILOX_CHUNK))
    return out.reshape(shape + (4 * num_blocks,))


def uniforms(words: np.ndarray) -> np.ndarray:
    """Uniforms on [0, 1) from uint64 words, as numpy's generators make them."""
    return (np.asarray(words, dtype=np.uint64) >> np.uint64(11)) * (1.0 / 9007199254740992.0)


def normal_pair(words_a: np.ndarray, words_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two independent standard normals per word pair, by Box-Muller."""
    radius = np.sqrt(-2.0 * np.log(1.0 - uniforms(words_a)))
    angle = 2.0 * np.pi * uniforms(words_b)
    return radius * np.cos(angle), radius * np.sin(angle)
