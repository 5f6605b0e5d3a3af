"""Deterministic seed derivation for Monte Carlo replicas.

Replica ``i`` of a run with master seed ``m`` draws from a PCG64 stream
seeded with ``splitmix64(m XOR (i * GOLDEN))`` where GOLDEN is the 64-bit
golden-ratio increment 0x9E3779B97F4A7C15.  The derivation is fixed and
documented so that alternate implementations can reproduce the streams;
results depend on the replica index alone, never on the order replicas run.

``replica_rng(m, i)`` is ``np.random.default_rng(replica_seed(m, i))``, the
definition of replica ``i``'s stream.  Every Monte Carlo entry point runs its
replicas through engine._lockstep, which takes the streams of each chunk of
replicas from ``replica_rngs``: it derives the chunk's seeds with splitmix64
on uint64 arrays, hashes them with NumPy's SeedSequence algorithm on uint32
arrays (``seed_words``) and seeds each PCG64 with its precomputed words.
SeedSequence and PCG64 seeding are fixed algorithms under NumPy's stream
compatibility policy (NEP 19), so the Generators are those of
``replica_rng``; the tests check their states and draws against
``default_rng``.  ``map_replicas`` runs a function on each replica's stream
in index order; nothing in the package calls it, and it stays because
perfbench/tracer.py wraps it.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK64 = 0xFFFFFFFFFFFFFFFF
GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(z):
    """One splitmix64 step (increment plus finalizer) on a 64-bit state.

    ``z`` is an int or a uint64 array, whose arithmetic wraps mod 2^64.
    """
    z = (z + GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def replica_seed(master_seed: int, replica_index: int) -> int:
    """Derived 64-bit seed for one replica of a Monte Carlo run."""
    return splitmix64((master_seed ^ ((replica_index * GOLDEN) & _MASK64)) & _MASK64)


def replica_rng(master_seed: int, replica_index: int) -> np.random.Generator:
    return np.random.default_rng(replica_seed(master_seed, replica_index))


def _hash_constants(init: int, mult: int, count: int) -> list:
    """The multipliers of SeedSequence's hash: init * mult^j mod 2^32, j < count."""
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return [np.uint32(c) for c in out]


# SeedSequence with its default pool of 4 words: mix_entropy hashes 4 + 12
# values with the A constants, generate_state(4, uint64) 8 with the B ones.
_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 17)
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 9)
_MIX_L = np.uint32(0xCA01F9DD)
_MIX_R = np.uint32(0x4973F715)


def seed_words(seeds: np.ndarray) -> np.ndarray:
    """``np.random.SeedSequence(s).generate_state(4, np.uint64)`` for each uint64 seed s.

    NumPy's algorithm run on uint32 arrays, one entry per seed; returns an
    (R, 4) uint64 array.  A seed's entropy is its two 32-bit words, low one
    first; below 2^32 SeedSequence takes one word, but the missing high
    word hashes exactly like the zero padding of the pool.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    consts = iter(zip(_HASH_A, _HASH_A[1:]))

    def hashmix(value):
        xor, mult = next(consts)
        value = (value ^ xor) * mult
        return value ^ (value >> np.uint32(16))

    zero = np.zeros(seeds.shape, dtype=np.uint32)
    entropy = [(seeds & 0xFFFFFFFF).astype(np.uint32), (seeds >> 32).astype(np.uint32), zero, zero]
    pool = [hashmix(word) for word in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_L * pool[dst] - _MIX_R * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> np.uint32(16))
    out = np.empty(seeds.shape + (8,), dtype=np.uint32)
    for j in range(8):
        value = (pool[j % 4] ^ _HASH_B[j]) * _HASH_B[j + 1]
        out[..., j] = value ^ (value >> np.uint32(16))
    # word 2j is the low half of 64-bit word j, as SeedSequence assembles them
    return out.astype("<u4").view("<u8").astype(np.uint64)


class _Words(ISeedSequence):
    """A seed sequence whose state is already computed: the four words PCG64 asks for."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def replica_rngs(master_seed: int, first: int, stop: int) -> list:
    """``[replica_rng(master_seed, i) for i in range(first, stop)]``, built with array arithmetic.

    The Generators hold their seed words, not a SeedSequence, so they cannot spawn.
    """
    index = np.arange(first, stop, dtype=np.uint64)
    seeds = splitmix64((master_seed & _MASK64) ^ (index * GOLDEN))
    return [np.random.Generator(np.random.PCG64(_Words(row))) for row in seed_words(seeds)]


def map_replicas(fn, replicas: int, master_seed: int, workers: int = 1) -> list:
    """Run ``fn(replica_index, rng)`` for each replica, in index order.

    Replicas run one after another in the calling thread, each on its own
    stream.  ``workers`` is ignored; the slot stays only because
    perfbench/tracer.py passes four arguments when it wraps this loop.
    """
    return [fn(i, replica_rng(master_seed, i)) for i in range(replicas)]
