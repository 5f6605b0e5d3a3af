"""The names perfbench/tracer.py patches stay bound where it patches them.

The tracer wraps module attributes by name; a rename in the package would
otherwise surface only in the traced benchmark smoke run.
"""

import inspect

import pytest

from degrootnet import engine, seeding, wisdom

PATCHED = [
    (engine, "_scan"),
    (engine, "map_replicas"),
    (engine, "dobrushin_coefficient"),
    (engine, "numeric_rank"),
    (engine, "boolean_product"),
    (wisdom, "_scan"),
    (wisdom, "replica_rng"),
    (wisdom, "numeric_rank"),
    (wisdom, "estimate_influence"),
    (seeding, "replica_rng"),
    (seeding, "map_replicas"),
]


@pytest.mark.parametrize("module, name", PATCHED, ids=[f"{m.__name__}.{n}" for m, n in PATCHED])
def test_patched_name_is_bound(module, name):
    assert callable(getattr(module, name, None))


def test_map_replicas_takes_the_four_arguments_the_tracer_passes():
    inspect.signature(seeding.map_replicas).bind(lambda i, rng: i, 1, 0, 1)
    assert seeding.map_replicas(lambda i, rng: i, 3, 0, 1) == [0, 1, 2]
