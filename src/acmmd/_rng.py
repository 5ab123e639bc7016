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

# numpy's SeedSequence hash constants and PCG64's LCG multiplier, which
# `sign_rows` applies itself (numpy/random/bit_generator.pyx, pcg64.h).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1
# Replicates seeded per vectorized pass, so that the seeding temporaries
# stay bounded however many rows are drawn.
_SIGN_BLOCK_ROWS = 1024


def as_seed_sequence(seed) -> np.random.SeedSequence:
    """Coerce an integer seed (or pass through a SeedSequence)."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    return np.random.SeedSequence(int(seed))


def derive(seed, *key: int) -> np.random.SeedSequence:
    """Child SeedSequence for the stream identified by `key` under `seed`;
    it keeps the seed's entropy, spawn key and pool size."""
    base = as_seed_sequence(seed)
    return np.random.SeedSequence(entropy=base.entropy,
                                  spawn_key=tuple(base.spawn_key) + key,
                                  pool_size=base.pool_size)


def generator(seed, *key: int) -> np.random.Generator:
    """PCG64 generator for the derived stream."""
    return np.random.Generator(np.random.PCG64(derive(seed, *key)))


def _word_count(value) -> int:
    """Number of 32-bit words SeedSequence makes of an entropy or key value."""
    if isinstance(value, np.ndarray) and value.dtype == np.uint32:
        return value.size
    if isinstance(value, (list, tuple, np.ndarray)):
        return sum(map(_word_count, value))
    return max(1, (int(value).bit_length() + 31) // 32)


def _hashed(words: np.ndarray, hash_const: int, mult: int
            ) -> tuple[np.ndarray, int]:
    """SeedSequence's hashmix of uint32 `words`, and the next hash constant."""
    out = words ^ np.uint32(hash_const)
    hash_const = hash_const * mult & _MASK32
    out *= np.uint32(hash_const)
    out ^= out >> 16
    return out, hash_const


def _child_states(shared: np.random.SeedSequence, replicate: np.ndarray
                  ) -> np.ndarray:
    """`generate_state(4, np.uint64)` of each child key `shared` + (b,).

    `shared.pool` is the mixer state after the shared words. A spawn key
    pads the run entropy to the pool size, and every word mixed in took one
    hash step per pool word, which gives the hash constant that word b
    meets. Returns (len(replicate), 4) little-endian uint64.
    """
    pool_size = shared.pool_size
    words = (max(pool_size, _word_count(shared.entropy))
             + _word_count(shared.spawn_key))
    hash_const = _INIT_A * pow(_MULT_A, pool_size * words, 1 << 32) & _MASK32
    pool = []
    for word in shared.pool.tolist():
        hashed, hash_const = _hashed(replicate, hash_const, _MULT_A)
        mixed = (np.uint32(_MIX_MULT_L * word & _MASK32)
                 - hashed * np.uint32(_MIX_MULT_R))
        pool.append(mixed ^ (mixed >> 16))
    # Eight words cycling over the pool, paired low word first.
    state = np.empty((len(replicate), 8), dtype="<u4")
    hash_const = _INIT_B
    for i in range(8):
        state[:, i], hash_const = _hashed(pool[i % pool_size], hash_const,
                                          _MULT_B)
    return state.view("<u8")


def sign_rows(seed, count: int, n: int, *key: int) -> np.ndarray:
    """Rademacher signs of replicates 0..count-1 in one pass.

    Row b is `generator(seed, *key, b).integers(0, 2, size=n) * 2.0 - 1.0`
    bit for bit. The replicates share every spawn-key word but the last, so
    numpy's SeedSequence mixes the shared words once and `_child_states`
    mixes in b for a block of replicates at a time. PCG64's two seeding
    steps run here, and one PCG64 draws every row. For the range {0, 1},
    `Generator.integers` takes bit 31 of each 32-bit half of the raw output,
    low half first (Lemire's method with a rejection threshold of 0).
    Temporaries stay below half the size of the returned matrix plus a
    fixed amount per block.

    Returns:
        (count, n) float64 matrix of -1.0 and 1.0.

    Raises:
        ValueError: `count` >= 2**32 (a replicate index must fit one
            spawn-key word) or an empty spawn key.
    """
    if count >= 1 << 32:
        raise ValueError("sign rows need count < 2**32: a replicate index "
                         "must fit one spawn-key word")
    shared = derive(seed, *key)
    if not shared.spawn_key:
        raise ValueError("sign rows need a spawn key")
    signs = np.empty((count, n), dtype=np.float64)
    bit_gen = np.random.PCG64(0)  # its state is replaced for every row
    for start in range(0, count, _SIGN_BLOCK_ROWS):
        replicate = np.arange(start, min(count, start + _SIGN_BLOCK_ROWS),
                              dtype=np.uint32)
        states = _child_states(shared, replicate).tolist()
        raw = np.empty((len(replicate), (n + 1) // 2), dtype="<u8")
        for row, (s_hi, s_lo, i_hi, i_lo) in zip(raw, states):
            inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
            pcg = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
            bit_gen.state = {"bit_generator": "PCG64",
                             "state": {"state": pcg, "inc": inc},
                             "has_uint32": 0, "uinteger": 0}
            row[:] = bit_gen.random_raw(len(row))
        signs[start:start + len(replicate)] = raw.view("<u4")[:, :n] >> 31
    signs *= 2.0
    signs -= 1.0
    return signs
