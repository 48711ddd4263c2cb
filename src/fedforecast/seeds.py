"""Deterministic seed derivation.

Every random stream in the simulator is derived from one master seed plus a
few string/int labels. The derivation is a cryptographic hash, not an ad-hoc
arithmetic mix, so streams for different (label, client, round) combinations
are independent and the mapping is stable across processes and platforms:

    key   = "master|label0|label1|..."        (ASCII, '|'-joined)
    seed  = first 8 bytes of SHA-256(key), little-endian uint64

``rng_for`` is the definition of a stream: numpy's default generator (PCG64)
seeded with that seed, so two runs with the same master seed produce
bit-identical draws everywhere.

``streams`` is its batched form for many streams at once, such as one DP
noise stream per participant of a round. ``np.random.default_rng(seed)``
hashes the seed through a ``SeedSequence`` and seeds PCG64 from the result;
building those objects is most of the cost of ``rng_for``. ``streams`` does the
same arithmetic for every path in one vectorized numpy pass and re-seats one
generator per path, which yields bitwise the generator ``rng_for`` returns:

* the seed's two uint32 words, low word first (a seed below 2**32 has one
  word, and a missing word hashes like a zero word), are hashed into a pool
  of four words and cross-mixed, as ``SeedSequence.mix_entropy`` does;
* the pool makes eight output words, as ``SeedSequence.generate_state(4,
  np.uint64)`` does, read as four little-endian uint64s u0..u3;
* PCG64 is seeded from initstate = u0:u1 and initseq = u2:u3, as numpy's
  ``pcg64_set_seed`` does.

numpy has no 128-bit integers, so the last step runs on Python ints.
``tests/test_seeds.py``, which CI runs, compares ``streams`` with ``rng_for``
over more than 10,000 paths and the edge seeds, so a numpy release that
seeded PCG64 differently would fail there rather than change a stream.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, Sequence

import numpy as np


def derive_seed(master_seed: int, *labels: object) -> int:
    """Derive a 64-bit seed from the master seed and a label path."""
    key = "|".join([str(master_seed), *(str(part) for part in labels)])
    digest = hashlib.sha256(key.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "little")


def rng_for(master_seed: int, *labels: object) -> np.random.Generator:
    """Return a fresh generator for the stream named by ``labels``."""
    return np.random.default_rng(derive_seed(master_seed, *labels))


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx); all of its
# arithmetic is modulo 2**32.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
# PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_steps(init: int, mult: int, count: int) -> np.ndarray:
    """The xor and multiply constants of ``count`` successive hash steps, as
    a 2 x count x 1 array. A SeedSequence hash step is ``v ^= h; h *= mult;
    v *= h; v ^= v >> 16`` with one running h, so step k xors h_k and
    multiplies by h_(k+1)."""
    hs = [init]
    for _ in range(count):
        hs.append(hs[-1] * mult & 0xFFFFFFFF)
    return np.array([hs[:-1], hs[1:]], dtype=np.uint32)[:, :, None]


# mix_entropy hashes each pool word once, then each source word once per
# other word, in order; generate_state hashes 8 output words.
_ENTROPY_STEPS = _hash_steps(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
_FIRST_STEPS = _ENTROPY_STEPS[:, :_POOL_SIZE]
_MIX_STEPS = _ENTROPY_STEPS[:, _POOL_SIZE:].reshape(2, _POOL_SIZE, _POOL_SIZE - 1, 1)
_OTHER_WORDS = [[dst for dst in range(_POOL_SIZE) if dst != src] for src in range(_POOL_SIZE)]
_OUTPUT_STEPS = _hash_steps(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
_OUTPUT_WORDS = [i % _POOL_SIZE for i in range(2 * _POOL_SIZE)]


def _hash(value: np.ndarray, steps: np.ndarray) -> np.ndarray:
    value = (value ^ steps[0]) * steps[1]
    return value ^ (value >> _XSHIFT)


def _pcg64_states(seeds: np.ndarray) -> list[tuple[int, int]]:
    """PCG64's (state, inc) after seeding from each uint64 of ``seeds``, as
    ``np.random.default_rng(seed)`` seeds it."""
    pool = np.zeros((_POOL_SIZE, len(seeds)), dtype=np.uint32)
    pool[0] = seeds & 0xFFFFFFFF
    pool[1] = seeds >> 32
    pool = _hash(pool, _FIRST_STEPS)
    for src, dst in enumerate(_OTHER_WORDS):
        mixed = _MIX_L * pool[dst] - _MIX_R * _hash(pool[src], _MIX_STEPS[:, src])
        pool[dst] = mixed ^ (mixed >> _XSHIFT)
    out = _hash(pool[_OUTPUT_WORDS], _OUTPUT_STEPS).astype(np.uint64)
    # Word pairs read as little-endian uint64s u0..u3; the 128-bit LCG step
    # runs on Python ints.
    states = []
    for u0, u1, u2, u3 in (out[0::2] | out[1::2] << np.uint64(32)).T.tolist():
        inc = (u2 << 65 | u3 << 1 | 1) & _MASK128
        state = ((u0 << 64 | u1) + inc) * _PCG_MULT + inc
        states.append((state & _MASK128, inc))
    return states


def streams(
    master_seed: int, label_paths: Iterable[Sequence[object]]
) -> Iterator[np.random.Generator]:
    """For each label path, a generator bitwise ``rng_for(master_seed,
    *path)``. Every path's PCG64 state is derived in one vectorized pass, and
    one generator is re-seated per path: a yielded generator stays valid only
    until the next one is yielded."""
    seeds = np.array([derive_seed(master_seed, *path) for path in label_paths], dtype=np.uint64)
    rng = np.random.Generator(np.random.PCG64(0))
    bitgen = rng.bit_generator
    for state, inc in _pcg64_states(seeds):
        bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng
