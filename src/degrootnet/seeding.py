"""Deterministic seed derivation for Monte Carlo replicas.

Replica ``i`` of a run with master seed ``m`` draws from a PCG64 stream
seeded with ``splitmix64(m XOR (i * GOLDEN))`` where GOLDEN is the 64-bit
golden-ratio increment 0x9E3779B97F4A7C15.  The derivation is fixed and
documented so that alternate implementations can reproduce the streams;
results depend on the replica index alone, never on the order replicas run.

``replica_rng(m, i)`` is ``np.random.default_rng(replica_seed(m, i))``, the
definition of replica ``i``'s stream.  Every Monte Carlo entry point runs its
replicas through engine._lockstep, which builds every stream one way.
``replica_words`` derives many replicas' seeds with splitmix64 on uint64
arrays and hashes them with NumPy's SeedSequence algorithm on uint32 arrays
(``seed_words``); ``resumed_rng`` seeds one replica's PCG64 with its words,
advanced past its first k draws (k = 0 at the start) by PCG64's own
jump-ahead.  For a law whose block is nothing but uniforms,
``first_uniforms`` computes the first block of draws of many replicas at once
from the same words, with PCG64's seeding, LCG step and XSL-RR output on
uint64 arrays (O'Neill, "PCG: A Family of Simple Fast Space-Efficient
Statistically Good Algorithms for Random Number Generation", 2014).
SeedSequence and PCG64 seeding are fixed algorithms under NumPy's stream
compatibility policy (NEP 19), so the Generators and the uniforms are those
of ``replica_rng``; the tests check their states and draws against
``default_rng``, bit for bit.
``map_replicas`` runs a function on each replica's stream in index order;
nothing in the package calls it, and it stays because perfbench/tracer.py
wraps it.
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


def replica_words(master_seed: int, first: int, stop: int) -> np.ndarray:
    """The PCG64 seed words of replicas first..stop-1, an (R, 4) uint64 array (see seed_words)."""
    index = np.arange(first, stop, dtype=np.uint64)
    return seed_words(splitmix64((master_seed & _MASK64) ^ (index * GOLDEN)))


# PCG64's 128-bit LCG multiplier (NumPy's PCG_DEFAULT_MULTIPLIER_128), as high and low 64-bit halves
_PCG_MULT_HI = np.uint64(0x2360ED051FC65DA4)
_PCG_MULT_LO = np.uint64(0x4385DF649FCCF645)
_LOW32 = np.uint64(0xFFFFFFFF)


def _mulhi(a, b):
    """The high 64 bits of each 128-bit product a * b of uint64 values, from 32-bit limbs."""
    a0, a1, b0, b1 = a & _LOW32, a >> 32, b & _LOW32, b >> 32
    cross = a1 * b0 + (a0 * b0 >> 32)  # below 2^64, like the next sum
    low = (cross & _LOW32) + a0 * b1
    return a1 * b1 + (cross >> 32) + (low >> 32)


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One LCG step, state * multiplier + inc mod 2^128, on the 64-bit halves of each state."""
    prod_lo = lo * _PCG_MULT_LO
    prod_hi = hi * _PCG_MULT_LO + lo * _PCG_MULT_HI + _mulhi(lo, _PCG_MULT_LO)
    lo = prod_lo + inc_lo
    return prod_hi + inc_hi + (lo < inc_lo), lo


def first_uniforms(words: np.ndarray, k: int) -> np.ndarray:
    """The first k ``random()`` values of the PCG64 stream of each row of seed words, an (R, k) array.

    Bitwise ``np.random.Generator(np.random.PCG64(seq)).random(k)`` for a seed
    sequence ``seq`` whose four words are the row; so with replica_words' rows,
    ``replica_rng(m, i).random(k)``.  NumPy's seeding (NEP 19), run on uint64
    arrays: the words are initstate (high, low) and initseq (high, low); the
    state starts at 0 with inc = (initseq << 1) | 1, steps, adds initstate
    and steps again.  Each draw steps the state and outputs XSL-RR (the xor of
    its halves rotated right by its top 6 bits); a uniform is (word >> 11) 2^-53.
    """
    init_hi, init_lo, seq_hi, seq_lo = words.T
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    lo = inc_lo + init_lo  # the first step from state 0 leaves inc
    hi, lo = _pcg_step(inc_hi + init_hi + (lo < init_lo), lo, inc_hi, inc_lo)
    out = np.empty((len(words), k))
    for j in range(k):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        mixed, rot = hi ^ lo, hi >> 58
        out[:, j] = (mixed >> rot | mixed << (-rot & 63)) >> 11
    return out * 2.0**-53


def resumed_rng(words: np.ndarray, k: int) -> np.random.Generator:
    """The Generator of one row of seed words, advanced past its first k draws (see first_uniforms).

    ``advance`` is PCG64's own jump-ahead, so its state is that of the
    Generator after ``random(k)``; at k = 0 it is the Generator of
    ``replica_rng`` for the replica whose words these are.  The Generator
    holds its seed words, not a SeedSequence, so it cannot spawn.
    """
    rng = np.random.Generator(np.random.PCG64(_Words(words)))
    if k:
        rng.bit_generator.advance(k)
    return rng


def map_replicas(fn, replicas: int, master_seed: int, workers: int = 1) -> list:
    """Run ``fn(replica_index, rng)`` for each replica, in index order.

    Replicas run one after another in the calling thread, each on its own
    stream.  ``workers`` is ignored; the slot stays only because
    perfbench/tracer.py passes four arguments when it wraps this loop.
    """
    return [fn(i, replica_rng(master_seed, i)) for i in range(replicas)]
