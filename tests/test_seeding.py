"""The seeding contract: replica i of master seed m reads a fixed SplitMix64-derived stream."""

import numpy as np

from degrootnet import convergence_time_2x2, encounter_2x2, estimate_influence, ring_uniform_self
from degrootnet.seeding import map_replicas, replica_rng, replica_seed, splitmix64


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
