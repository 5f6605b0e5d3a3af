"""The names perfbench/tracer.py patches stay bound where it patches them.

The tracer wraps module attributes by name; a rename in the package would
otherwise surface only in the traced benchmark smoke run.  PATCHED lists
every (owner, name) pair the tracer patches.
"""

import inspect

import pytest

from degrootnet import cli, engine, fragmentation, generators, matrices, seeding, wisdom

PATCHED = [
    *((cli, name) for name in ("build_spec", "_speed_spec", "_load_distribution", "_load_spec_file",
                               "build_energy_mu", "emit")),
    (seeding, "replica_rng"),
    (seeding, "map_replicas"),
    (generators.GeneratorState, "__init__"),
    (generators.GeneratorState, "next_array"),
    *((engine, name) for name in ("estimate_influence", "check_condition_c", "convergence_time_2x2",
                                  "disagreement_degree", "skeleton_equivalence_test", "semigroup_explore",
                                  "log_energy", "_skeleton_closure", "_scan", "map_replicas",
                                  "dobrushin_coefficient", "numeric_rank", "boolean_product")),
    (matrices, "boolean_product"),
    *((fragmentation, name) for name in ("p_max", "p_max_by_cuts", "decay_rate_estimate", "_connected")),
    *((wisdom, name) for name in ("_scan", "replica_rng", "numeric_rank", "estimate_influence", "run_wisdom",
                                  "dirichlet_conjugacy_test")),
]


@pytest.mark.parametrize("owner, name", PATCHED, ids=[f"{o.__name__}.{n}" for o, n in PATCHED])
def test_patched_name_is_bound(owner, name):
    assert callable(getattr(owner, name, None))


def test_command_handlers_are_a_dict_of_callables():
    assert cli._COMMANDS and all(callable(h) for h in cli._COMMANDS.values())


def test_map_replicas_takes_the_four_arguments_the_tracer_passes():
    inspect.signature(seeding.map_replicas).bind(lambda i, rng: i, 1, 0, 1)
    assert seeding.map_replicas(lambda i, rng: i, 3, 0, 1) == [0, 1, 2]
