"""Replicate seeds, and numpy's PCG64 seeding for many seeds at once.

mix_seed derives each replicate's seed from the run's seed, and is exported
by pathsig.causality. np.random.Generator(np.random.PCG64(seed)) takes
~15 us, mostly in SeedSequence's hash of the seed. The shuffle null seeds
one generator per replicate, so here that hash runs on uint32 arrays over a
batch of seeds, and one Generator takes each resulting state in turn. The
states are numpy's own, bit for bit (O'Neill 2014 for PCG; numpy's
bit_generator.pyx for SeedSequence).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

#: seeds whose states are derived in one vectorised pass: the pass costs
#: ~0.25 ms, and a batch's ~0.5 KB of Python ints per seed stays small
BATCH = 256

# SeedSequence's hash constants, PCG64's 128-bit LCG multiplier and
# SplitMix64's increment, kept as Python ints: numpy scalars would warn on
# the wrapping arithmetic
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_GOLDEN64 = 0x9E3779B97F4A7C15


def mix_seed(seed: int, replicate: int) -> int:
    """SplitMix64 mix of (seed, replicate) -> the replicate's own 64-bit seed.

    A fixed bijective finalizer, so replicate seeds are reproducible and
    order-independent: replicates may run in any schedule. A replicate's
    generator is seeded exactly as np.random.PCG64(mix_seed(seed, r)) is.
    """
    x = (int(seed) + (replicate + 1) * _GOLDEN64) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def states(seeds: Sequence[int]) -> List[Tuple[int, int]]:
    """The (state, inc) that np.random.PCG64(s) starts from, for each seed
    s in [0, 2**64).

    SeedSequence(s) hashes s's two 32-bit words into a pool of four (the
    other two hash a 0), mixes every pool word into every other and draws
    eight words from the pool; here on uint32 arrays, all seeds at once.
    PCG64 reads the eight words, little-endian in pairs, as two 128-bit
    numbers, a start s0 and a stream i, and seeds itself with two LCG steps
    from state 0: inc = 2i + 1, state = (inc + s0) * multiplier + inc.
    Only uint32 kernels run: every kernel a process first uses makes more
    of numpy's code resident.
    """
    h = _INIT_A

    def hashmix(v: np.ndarray) -> np.ndarray:
        nonlocal h
        v = v ^ h
        h = h * _MULT_A & _MASK32
        v = v * h
        return v ^ v >> 16

    zero = np.zeros(len(seeds), dtype=np.uint32)
    pool = [hashmix(np.array(w, dtype=np.uint32)) for w in
            ([s & _MASK32 for s in seeds], [s >> 32 for s in seeds], zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                m = pool[dst] * _MIX_L - hashmix(pool[src]) * _MIX_R
                pool[dst] = m ^ m >> 16
    h = _INIT_B
    words = []
    for k in range(8):
        v = pool[k % 4] ^ h
        h = h * _MULT_B & _MASK32
        v = v * h
        words.append((v ^ v >> 16).tolist())
    out = []
    for w0, w1, w2, w3, w4, w5, w6, w7 in zip(*words):
        inc = (w5 << 97 | w4 << 65 | w7 << 33 | w6 << 1 | 1) & _MASK128
        s0 = w1 << 96 | w0 << 64 | w3 << 32 | w2
        out.append((((s0 + inc) * _PCG_MULT + inc) & _MASK128, inc))
    return out


def generators(seeds: Iterable[int]) -> Iterator[np.random.Generator]:
    """For each seed in turn, a Generator in the state that
    np.random.Generator(np.random.PCG64(seed)) starts in. It is one
    Generator, reseeded before each yield, so draw from it before taking
    the next. The states are derived BATCH seeds at a time."""
    rng = np.random.Generator(np.random.PCG64(0))  # seeded: unseeded reads OS entropy
    seeds = iter(seeds)
    while batch := list(itertools.islice(seeds, BATCH)):
        for state, inc in states(batch):
            rng.bit_generator.state = {
                "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                "has_uint32": 0, "uinteger": 0,
            }
            yield rng
