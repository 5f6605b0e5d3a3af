"""The seeding contract: replica i of master seed m reads a fixed SplitMix64-derived stream."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degrootnet import convergence_time_2x2, encounter_2x2, estimate_influence, ring_uniform_self
from degrootnet.engine import CHUNK
from degrootnet.seeding import map_replicas, replica_rng, replica_rngs, replica_seed, seed_words, splitmix64


def test_replica_seed_follows_the_published_splitmix64_vector():
    # the first two SplitMix64 outputs from state 0
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert replica_seed(0, 0) == 0xE220A8397B1DCDAF
    assert replica_seed(0, 1) == 0x6E789E6AA1B965F4


def test_map_replicas_hands_replica_i_its_own_stream_in_index_order():
    got = map_replicas(lambda i, rng: (i, rng.integers(2**63)), 5, 11, workers=3)
    want = [(i, replica_rng(11, i).integers(2**63)) for i in range(5)]
    assert got == want
    assert replica_rng(11, 2).integers(2**63) == np.random.default_rng(replica_seed(11, 2)).integers(2**63)


@settings(max_examples=60, deadline=None)
@given(master=st.integers(0, 2**64 - 1), first=st.integers(0, 3 * CHUNK), length=st.integers(1, 40),
       straddle=st.booleans())
def test_chunk_streams_equal_replica_rng(master, first, length, straddle):
    if straddle:  # a range across a chunk boundary
        first = CHUNK * (1 + first % 3) - length // 2
    got = replica_rngs(master, first, first + length)
    assert len(got) == length
    for i, rng in zip(range(first, first + length), got):
        want = replica_rng(master, i)
        assert rng.bit_generator.state == want.bit_generator.state
        assert rng.random() == want.random()


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
def test_seed_words_equal_seed_sequence_at_the_word_boundaries(seed):
    # SeedSequence takes one 32-bit entropy word below 2^32 and two from 2^32 on
    want = np.random.SeedSequence(seed).generate_state(4, np.uint64)
    assert seed_words(np.array([seed], dtype=np.uint64))[0].tolist() == want.tolist()


def test_seed_words_equal_seed_sequence_on_random_seeds():
    seeds = np.random.default_rng(12).integers(0, 2**64, size=500, dtype=np.uint64)
    seeds[:100] >>= 32  # seeds below 2^32, which splitmix64 outputs almost never are
    got = seed_words(seeds)
    assert got.dtype == np.uint64 and got.shape == (500, 4)
    for seed, row in zip(seeds.tolist(), got.tolist()):
        assert row == np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist()


def test_convergence_time_samples_are_prefix_stable():
    spec = encounter_2x2(0.3, 0.5)
    short = convergence_time_2x2(spec, 0.1, replicas=20, seed=5).samples
    long = convergence_time_2x2(spec, 0.1, replicas=40, seed=5).samples
    assert long[:20] == short


def test_influence_samples_are_prefix_stable():
    spec = ring_uniform_self(3)
    short = estimate_influence(spec, replicas=10, t_max=2000, seed=5)
    long = estimate_influence(spec, replicas=20, t_max=2000, seed=5)
    assert short.failures == 0
    assert long.samples[:10] == short.samples
    assert long.per_replica_gap[:10] == short.per_replica_gap
