"""Deterministic RNG derivation.

Every random draw in the simulator comes from a generator derived from
(master seed, stream id, indices...).  Each (patch, pulse, channel,
realization, ...) combination gets its own stream, so results never
depend on evaluation order or worker count, and any single draw can be
reproduced in isolation.
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


def derive_rng(*keys: int) -> np.random.Generator:
    """Build a Generator from an ordered tuple of non-negative integers.

    The first key is conventionally the master seed, the second a
    STREAM_* identifier, and the rest indices (cpi, channel, pulse,
    patch id, ...).
    """
    entropy = []
    for k in keys:
        k = int(k)
        if k < 0:
            raise ValueError(f"seed keys must be non-negative, got {k}")
        entropy.append(k)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def derive_seed(*keys: int) -> int:
    """Collapse a key tuple into a single non-negative integer seed.

    Used when an API takes a plain seed but the caller needs to
    namespace it (for example a per-CPI sea-surface seed).
    """
    entropy = []
    for k in keys:
        k = int(k)
        if k < 0:
            raise ValueError(f"seed keys must be non-negative, got {k}")
        entropy.append(k)
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])
