"""Deterministic derivation of independent random streams.

Every source of randomness in the package is a PCG64 generator keyed by
(seed, purpose, index...) through numpy's SeedSequence spawn keys, so any
unit of work draws the same stream whether it runs serially or in a worker
process.
"""

from __future__ import annotations

import numpy as np

# Spawn-key domains. Values are arbitrary but frozen: changing them changes
# every seeded result.
SK_BOOTSTRAP = 1
SK_DECISION = 2
SK_DATA = 3
SK_CELL = 4
SK_GROUP = 5


def as_seed_sequence(seed) -> np.random.SeedSequence:
    """Coerce an integer seed (or pass through a SeedSequence)."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    return np.random.SeedSequence(int(seed))


def derive(seed, *key: int) -> np.random.SeedSequence:
    """Child SeedSequence for the stream identified by `key` under `seed`."""
    base = as_seed_sequence(seed)
    return np.random.SeedSequence(entropy=base.entropy,
                                  spawn_key=tuple(base.spawn_key) + key)


def generator(seed, *key: int) -> np.random.Generator:
    """PCG64 generator for the derived stream."""
    return np.random.Generator(np.random.PCG64(derive(seed, *key)))
