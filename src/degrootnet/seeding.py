"""Deterministic seed derivation for Monte Carlo replicas.

Replica ``i`` of a run with master seed ``m`` draws from a PCG64 stream
seeded with ``splitmix64(m XOR (i * GOLDEN))`` where GOLDEN is the 64-bit
golden-ratio increment 0x9E3779B97F4A7C15.  The derivation is fixed and
documented so that alternate implementations can reproduce the streams;
results depend on the replica index alone, never on the order replicas run.

Every Monte Carlo entry point runs its replicas through engine._lockstep,
which builds replica ``i``'s state on ``replica_rng(master_seed, i)`` and
advances the replicas together; ``map_replicas`` runs a function on each
replica's stream in index order, for work that is not a product scan.
"""

from __future__ import annotations

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(z: int) -> int:
    """One splitmix64 step (increment plus finalizer) on a 64-bit state."""
    z = (z + GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def replica_seed(master_seed: int, replica_index: int) -> int:
    """Derived 64-bit seed for one replica of a Monte Carlo run."""
    return splitmix64((master_seed ^ ((replica_index * GOLDEN) & _MASK64)) & _MASK64)


def replica_rng(master_seed: int, replica_index: int) -> np.random.Generator:
    return np.random.default_rng(replica_seed(master_seed, replica_index))


def map_replicas(fn, replicas: int, master_seed: int, workers: int = 1) -> list:
    """Run ``fn(replica_index, rng)`` for each replica, in index order.

    Replicas run one after another in the calling thread, each on its own
    stream.  ``workers`` is ignored; the slot stays only because
    perfbench/tracer.py passes four arguments when it wraps this loop.
    """
    return [fn(i, replica_rng(master_seed, i)) for i in range(replicas)]
