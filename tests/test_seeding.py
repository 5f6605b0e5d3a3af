"""The seeding contract: replica i of master seed m reads a fixed SplitMix64-derived stream."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degrootnet import convergence_time_2x2, encounter_2x2, estimate_influence, ring_uniform_self
from degrootnet.engine import CHUNK, FIRST_BLOCK, GROUP
from degrootnet.seeding import (
    first_uniforms,
    map_replicas,
    replica_rng,
    replica_seed,
    replica_words,
    resumed_rng,
    seed_words,
    splitmix64,
)
from test_generators import block_models


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
    got = [resumed_rng(words, 0) for words in replica_words(master, first, first + length)]
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


# master seeds of any 64 bits and below 2^32; replica ranges around the chunk and group boundaries
masters = st.one_of(st.integers(0, 2**64 - 1), st.integers(0, 2**32 - 1))
boundaries = st.sampled_from([0, CHUNK, GROUP * CHUNK, 3 * GROUP * CHUNK])


@pytest.mark.parametrize("k", range(1, FIRST_BLOCK + 1))
@settings(max_examples=20, deadline=None)
@given(master=masters, boundary=boundaries, offset=st.integers(0, 30), length=st.integers(1, 40))
@example(master=2**64 - 1, boundary=CHUNK, offset=3, length=6)
@example(master=12345678901234567, boundary=GROUP * CHUNK, offset=3, length=6)
def test_first_uniforms_are_replica_rng_draws_bitwise(k, master, boundary, offset, length):
    first = max(0, boundary - offset)
    got = first_uniforms(replica_words(master, first, first + length), k)
    assert got.shape == (length, k)
    for i, row in zip(range(first, first + length), got):
        assert row.tobytes() == replica_rng(master, i).random(k).tobytes(), i


@settings(max_examples=40, deadline=None)
@given(master=masters, boundary=boundaries, offset=st.integers(0, 30), k=st.integers(1, FIRST_BLOCK))
def test_resumed_rng_continues_after_the_first_block(master, boundary, offset, k):
    i = max(0, boundary - offset)
    got = resumed_rng(replica_words(master, i, i + 1)[0], k)
    want = replica_rng(master, i)
    want.random(k)
    assert got.bit_generator.state == want.bit_generator.state
    assert got.random(40).tobytes() == want.random(40).tobytes()
    assert got.integers(2**63, size=3).tolist() == want.integers(2**63, size=3).tolist()


@pytest.mark.parametrize("name", sorted(block_models()))
def test_uniform_block_marker_holds_exactly_for_the_uniform_laws(name):
    # the marked laws' block is the stream's k uniforms and changes nothing else of the state
    spec = block_models()[name]
    uniform_laws = {"encounter2x2", "two_point_swap", "bernoulli2x2", "leader_follower",
                    "undirected_degree", "mix_identity"}
    assert spec._uniform_block == (name in uniform_laws)
    if spec._uniform_block:
        state, rng = spec.start_state(replica_rng(3, 1)), replica_rng(3, 1)
        assert spec._block(state, 5).tobytes() == rng.random(5).tobytes()
        assert state.rng.bit_generator.state == rng.bit_generator.state
        assert (state.last, state.aux) == (None, None)
