import json
import math
import os
import re

import numpy as np
import pytest

from degrootnet import cli
from degrootnet.cli import (
    _MODELS,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_USAGE,
    _UsageError,
    build_spec,
    fmt_float,
    parse_config,
    run,
    serialize_config,
)
from degrootnet.engine import GAP_TOL, _scan
from degrootnet.fragmentation import islands_distribution
from degrootnet.generators import GeneratorSpec, ring_uniform_self
from degrootnet.seeding import replica_rng


def read(path):
    with open(path) as fh:
        return fh.read()


class TestExitCodes:
    def test_missing_subcommand(self):
        assert run([]) == EXIT_USAGE

    def test_unknown_flag(self):
        assert run(["influence", "--bogus", "1"]) == EXIT_USAGE

    def test_unknown_model(self):
        assert run(["influence", "--model", "nope"]) == EXIT_USAGE

    def test_no_convergence_is_exit_3(self, tmp_path):
        spec = {"model": "finite_mixture",
                "atoms": [[[0.0, 1.0], [1.0, 0.0]]], "probs": [1.0]}
        path = tmp_path / "swap.json"
        path.write_text(json.dumps(spec))
        code = run(["influence", "--spec", str(path), "--replicas", "10",
                    "--tmax", "50", "--seed", "1"])
        assert code == EXIT_NO_CONVERGENCE

    @pytest.mark.parametrize("replicas", ["0", "-3"])
    @pytest.mark.parametrize("command", ["check-c", "speed2x2", "rate", "wisdom"])
    def test_replicas_below_one_is_usage_error(self, tmp_path, command, replicas):
        # sticky weights over a 3-cycle reach the Monte Carlo branch of check-c
        cycle = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
        spec = tmp_path / "ar1_cycle.json"
        spec.write_text(json.dumps({"model": "ar1_mixture", "xi": 0.5, "t0": cycle,
                                    "source": {"model": "fixed", "matrix": cycle}}))
        k4 = [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]
        dist = tmp_path / "k4.json"
        dist.write_text(json.dumps({"n": 4, "atoms": [{"adjacency": k4, "prob": 1.0}]}))
        argv = {
            "check-c": ["check-c", "--spec", str(spec)],
            "speed2x2": ["speed2x2"],
            "rate": ["rate", "--dist", str(dist)],
            "wisdom": ["wisdom", "--sizes", "3"],
        }[command]
        out = tmp_path / "out.csv"
        assert run(argv + ["--replicas", replicas, "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("tmax", ["0", "-3"])
    @pytest.mark.parametrize("command", ["influence", "wisdom"])
    def test_horizon_below_one_is_usage_error(self, tmp_path, command, tmax):
        argv = {
            "influence": ["influence", "--model", "ring", "--n", "3"],
            "wisdom": ["wisdom", "--sizes", "3"],
        }[command]
        out = tmp_path / "out.csv"
        assert run(argv + ["--replicas", "4", "--tmax", tmax, "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["disagree", "--model", "ring", "--n", "3", "--tmax", "-5", "--replicas", "100"],
        ["speed2x2", "--tcap", "0"],
        ["speed2x2", "--tcap", "-3"],
    ])
    def test_invalid_horizon_is_usage_error(self, tmp_path, argv):
        out = tmp_path / "out.csv"
        assert run(argv + ["--out", str(out)]) == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("cfg, flag", [
        ({"command": "energy", "format": "xml"}, "--format"),
        ({"command": "wisdom", "family": "islands"}, "--family"),
    ])
    def test_config_values_obey_choices(self, tmp_path, capsys, cfg, flag):
        out = tmp_path / "e.out"
        path = tmp_path / "c.json"
        path.write_text(json.dumps(dict(cfg, out=str(out))))
        assert run([cfg["command"], "--config", str(path)]) == EXIT_USAGE
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_config_values_obey_types(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"command": "speed2x2", "replicas": 10.5}))
        assert run(["speed2x2", "--config", str(path)]) == EXIT_USAGE
        assert "--replicas" in capsys.readouterr().err

    def test_missing_model_parameter_names_its_flag(self, capsys):
        assert run(["influence", "--model", "encounter2x2", "--eps", "0.3"]) == EXIT_USAGE
        assert "--pmeet" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, argv", [
        ("--spec", ["check-c", "--spec", "{}"]),
        ("--matrix", ["simulate", "--model", "fixed", "--matrix", "{}", "--p0", "1,0"]),
        ("--atoms", ["energy", "--mu", "atoms", "--atoms", "{}"]),
        ("--dist", ["pmax", "--dist", "{}"]),
        ("--spec-a", ["skeleton", "--spec-a", "{}", "--spec-b", "{}"]),
        ("--support", ["semigroup", "--support", "{}"]),
        ("--config", ["energy", "--config", "{}"]),
    ])
    @pytest.mark.parametrize("text", [None, "{not json"])
    def test_unreadable_input_file_is_usage_error_naming_it(self, tmp_path, capsys, flag, argv, text):
        path = tmp_path / "input.json"
        if text is not None:
            path.write_text(text)
        assert run([str(path) if a == "{}" else a for a in argv]) == EXIT_USAGE
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("cfg, key", [
        ({"command": "speed2x2", "replica": 10, "phi": 0.01}, "'replica'"),
        ({"command": "disagree", "model": "ring", "n": 3, "atom_tol": 1e-3}, "'atom_tol'"),
        ({"command": "energy", "quad-points": 256}, "'quad-points'"),
    ])
    def test_config_key_that_names_no_parameter_is_usage_error(self, tmp_path, capsys, cfg, key):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert run([cfg["command"], "--config", str(path)]) == EXIT_USAGE
        assert key in capsys.readouterr().err

    def test_config_that_is_not_an_object_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text("[1]")
        assert run(["energy", "--config", str(path)]) == EXIT_USAGE
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [(["skeleton"], "--spec-a"), (["semigroup"], "--support")])
    def test_missing_input_flag_is_named(self, capsys, argv, flag):
        assert run(argv) == EXIT_USAGE
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("doc, key", [
        ({"model": "fixed"}, "'matrix'"),
        ({"model": "ar1_mixture", "xi": 0.5, "t0": [[1.0]], "source": {"model": "dirichlet_rows"}}, "'alpha'"),
    ])
    def test_spec_without_a_key_names_it(self, tmp_path, capsys, doc, key):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        assert run(["check-c", "--spec", str(path)]) == EXIT_USAGE
        assert f"lacks key {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["check-c", "--model", "encounter2x2", "--eps", "2", "--pmeet", "0.5"],
        ["check-c", "--model", "ring", "--n", "1"],
        ["speed2x2", "--mu", "beta-indep", "--a", "-1", "--b", "1"],
        ["energy", "--mu", "beta-indep", "--a", "-1", "--b", "1"],
        ["pmax", "--islands", "2,3,0.3"],
    ])
    def test_bad_model_value_is_usage_error(self, capsys, argv):
        assert run(argv) == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    def test_internal_key_error_is_not_a_usage_error(self, monkeypatch):
        def broken(params):
            return {}["missing"]
        monkeypatch.setitem(cli._COMMANDS, "energy", broken)
        with pytest.raises(KeyError):
            run(["energy"])

    def test_internal_value_error_is_not_a_usage_error(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise ValueError("internal fault")
        monkeypatch.setattr(cli.engine, "estimate_influence", broken)
        assert run(["influence", "--model", "ring", "--n", "3"]) == 1
        assert "error: ValueError: internal fault" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["wisdom", "--sizes", "a,b"], "--sizes"),
        (["rate", "--model", "ring", "--n", "3", "--tgrid", "1:x"], "--tgrid"),
        (["simulate", "--model", "ring", "--n", "2", "--p0", "0.5,x"], "--p0"),
        (["conjugacy", "--model", "ring", "--n", "2", "--phi", "2,x"], "--phi"),
        (["simulate", "--model", "ring", "--n", "2"], "--p0"),
        (["simulate", "--model", "ring", "--n", "2", "--p0", "0.5,2"], "--p0"),
        (["simulate", "--model", "ring", "--n", "3", "--p0", "0.5,0.2"], "--p0"),
        (["pmax"], "--dist or --islands"),
        (["influence", "--model", "ring", "--n", "3", "--replicas", "0"], "replicas"),
    ])
    def test_bad_argument_is_usage_error_naming_it(self, capsys, argv, flag):
        assert run(argv) == EXIT_USAGE
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["semigroup", "skeleton"])
    def test_inputs_of_different_sizes_are_a_usage_error_naming_them(self, tmp_path, capsys, command):
        eye2, eye3 = np.eye(2).tolist(), np.eye(3).tolist()
        if command == "semigroup":
            inputs = {"--support": [eye2, eye3]}
        else:
            inputs = {"--spec-a": {"model": "fixed", "matrix": eye2}, "--spec-b": {"model": "fixed", "matrix": eye3}}
        argv = [command]
        for flag, doc in inputs.items():
            path = tmp_path / (flag.strip("-") + ".json")
            path.write_text(json.dumps(doc))
            argv += [flag, str(path)]
        assert run(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error:")
        assert all(flag in err for flag in inputs)

    def test_atom_masses_off_by_5e10_are_a_usage_error_naming_the_file(self, tmp_path, capsys):
        path = tmp_path / "atoms.json"
        path.write_text(json.dumps([{"x": 1.0, "y": 0.0, "mass": 0.5}, {"x": 0.0, "y": 1.0, "mass": 0.5 + 5e-10}]))
        assert run(["energy", "--mu", "atoms", "--atoms", str(path)]) == EXIT_USAGE
        assert str(path) in capsys.readouterr().err

    def test_unwritable_output_is_exit_1(self, tmp_path):
        out = tmp_path / "missing" / "deep" / "x.csv"
        code = run(["energy", "--mu", "uniform-indep", "--out", str(out)])
        assert code == 1


class TestInfluenceCommand:
    def test_encounter_produces_half_half(self, tmp_path):
        out = tmp_path / "inf.csv"
        code = run(["influence", "--model", "encounter2x2", "--eps", "0.3",
                    "--pmeet", "0.5", "--replicas", "500", "--seed", "7",
                    "--out", str(out)])
        assert code == EXIT_OK
        lines = read(out).splitlines()
        assert lines[0] == "replica,gap,pi_1,pi_2"
        assert len(lines) == 501  # one row per replica sample
        pis = np.array([[float(v) for v in ln.split(",")[2:]] for ln in lines[1:]])
        assert np.abs(pis.mean(axis=0) - 0.5).max() < 1e-6

    def test_replica_column_names_the_converged_replicas(self, tmp_path):
        # with t_max 100 some replicas fail; each row keeps its own replica's index
        out = tmp_path / "inf.csv"
        assert run(["influence", "--model", "ring", "--n", "5", "--replicas", "12", "--tmax", "100",
                    "--seed", "3", "--out", str(out)]) == EXIT_OK
        spec = ring_uniform_self(5)
        scans = {i: _scan(spec.start_state(replica_rng(3, i)), 100, GAP_TOL, True) for i in range(12)}
        want = [i for i, scan in scans.items() if scan[4] is not None]
        rows = [line.split(",") for line in read(out).splitlines()[1:]]
        assert len(want) < 12
        assert [int(row[0]) for row in rows] == want
        for row in rows:
            assert [float(v) for v in row[2:]] == scans[int(row[0])][0][0].tolist()

    def test_byte_identical_across_worker_counts(self, tmp_path):
        argv = ["influence", "--model", "ring", "--n", "4", "--replicas", "80",
                "--tmax", "3000", "--seed", "3"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(argv + ["--out", str(out1), "--workers", "1"]) == EXIT_OK
        assert run(argv + ["--out", str(out2), "--workers", "4"]) == EXIT_OK
        assert read(out1) == read(out2)

    def test_env_var_thread_override(self, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["influence", "--model", "encounter2x2", "--eps", "0.2",
                "--pmeet", "0.5", "--replicas", "50", "--seed", "5"]
        monkeypatch.setenv("DEGROOT_THREADS", "3")
        assert run(argv + ["--out", str(out1)]) == EXIT_OK
        monkeypatch.delenv("DEGROOT_THREADS")
        assert run(argv + ["--out", str(out2)]) == EXIT_OK
        assert read(out1) == read(out2)


class TestSimulate:
    def test_trajectory_csv(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = run(["simulate", "--model", "fixed", "--matrix", "-", "--p0", "1,0",
                    "--steps", "5", "--seed", "2", "--out", str(out)])
        # missing matrix file is a usage-class failure
        assert code != EXIT_OK

    def test_trajectory_with_spec(self, tmp_path):
        spec = {"model": "finite_mixture",
                "atoms": [[[0.5, 0.5], [0.5, 0.5]]], "probs": [1.0]}
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "sim.csv"
        code = run(["simulate", "--spec", str(path), "--p0", "1,0",
                    "--steps", "3", "--out", str(out)])
        assert code == EXIT_OK
        lines = read(out).splitlines()
        assert lines[0] == "t,p_1,p_2"
        final = [float(v) for v in lines[-1].split(",")[1:]]
        assert final == [0.5, 0.5]

    def test_roundoff_never_pushes_beliefs_out_of_range(self, capsys):
        # seed 6's first ring draw has a row summing to 1 + 1 ulp, so X_1 p0 exceeds 1
        argv = ["simulate", "--model", "ring", "--n", "5", "--p0", "1,1,1,1,1", "--steps", "200", "--seed", "6"]
        assert run(argv) == EXIT_OK
        assert "final=[1.0, 1.0, 1.0, 1.0, 1.0]" in capsys.readouterr().out


# The smallest parameters each --model accepts, as flags or --config values.
MINIMAL_MODEL_PARAMS = {
    "encounter2x2": {"eps": 0.3, "pmeet": 0.5},
    "two-point-swap": {"a": 0.4},
    "bernoulli2x2": {"x": 0.5, "pa": 0.5, "pb": 0.3},
    "ring": {"n": 3},
    "leader-follower": {"n": 3},
    "beta2x2": {"alpha": 1.0},
    "dirichlet": {"alpha_matrix": [[1.0, 2.0], [2.0, 1.0]]},
    "perturbed": {"matrix": [[0.5, 0.5], [0.5, 0.5]], "eps": 8.0},
    "islands": {"g": 2, "ps": 0.8, "pd": 0.3},
    "fixed": {"matrix": [[0.5, 0.5], [0.0, 1.0]]},
    "fixed-ring": {"n": 3},
    "mix-identity": {"n": 3, "zeta": 0.5},
}


def test_every_model_has_minimal_params():
    assert set(MINIMAL_MODEL_PARAMS) == set(_MODELS)


@pytest.mark.parametrize("model", sorted(_MODELS))
class TestModelTable:
    def test_spec_round_trips_through_its_document(self, model):
        spec = build_spec({"model": model, **MINIMAL_MODEL_PARAMS[model]})
        assert isinstance(spec, GeneratorSpec)
        copy = GeneratorSpec.from_dict(spec.to_dict())
        a, b = spec.start_state(21), copy.start_state(21)
        for _ in range(20):
            assert a.next_array().tobytes() == b.next_array().tobytes()

    def test_missing_parameter_is_usage_error(self, model):
        params = MINIMAL_MODEL_PARAMS[model]
        for name in params:
            partial = {"model": model, **{k: v for k, v in params.items() if k != name}}
            with pytest.raises(_UsageError, match=name):
                build_spec(partial)


class TestSpeedAndEnergy:
    def test_speed2x2_uniform_mean(self, tmp_path):
        out = tmp_path / "speed.json"
        code = run(["speed2x2", "--mu", "uniform-indep", "--phi", "1e-6",
                    "--replicas", "2000", "--seed", "3", "--format", "json",
                    "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(read(out))
        expected = -math.log(1e-6) / 1.5
        assert abs(doc["mean_t_phi"] - expected) / expected < 0.15

    def test_energy_values(self, tmp_path):
        out = tmp_path / "e.json"
        assert run(["energy", "--mu", "uniform-indep", "--format", "json",
                    "--out", str(out)]) == EXIT_OK
        assert json.loads(read(out))["i_mu"] == pytest.approx(1.5, abs=1e-9)
        assert run(["energy", "--mu", "beta-indep", "--a", "2", "--b", "2",
                    "--format", "json", "--out", str(out)]) == EXIT_OK
        assert json.loads(read(out))["i_mu"] == pytest.approx(1.75, abs=1e-4)

    def test_speed2x2_beta_indep(self, tmp_path):
        out = tmp_path / "speed.csv"
        assert run(["speed2x2", "--mu", "beta-indep", "--a", "2", "--b", "2",
                    "--replicas", "50", "--seed", "4", "--out", str(out)]) == EXIT_OK
        assert len(read(out).splitlines()) == 51


class TestPmaxCommand:
    def test_islands_file_round_trip(self, tmp_path):
        dist = islands_distribution(2, 0.8, 0.3)
        path = tmp_path / "islands.json"
        path.write_text(json.dumps(dist.to_dict()))
        out = tmp_path / "rep.json"
        code = run(["pmax", "--dist", str(path), "--format", "json", "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(read(out))
        assert doc["p_max"] == pytest.approx(0.7)
        assert set(doc) >= {"p_max", "pi_g_empty", "predicted_rate", "argmax_collection"}

    def test_islands_flag(self, tmp_path):
        out = tmp_path / "rep.json"
        code = run(["pmax", "--islands", "2,0.8,0.25", "--format", "json", "--out", str(out)])
        assert code == EXIT_OK
        assert json.loads(read(out))["p_max"] == pytest.approx(0.75)


class TestOtherCommands:
    def test_check_c(self, tmp_path):
        out = tmp_path / "c.json"
        code = run(["check-c", "--model", "ring", "--n", "4", "--format", "json",
                    "--out", str(out)])
        assert code == EXIT_OK
        assert json.loads(read(out))["verdict"] == "holds"

    def test_check_c_ignores_zero_probability_atoms(self, capsys):
        # with --pmeet 0 every draw is the identity, so no product turns positive
        argv = ["check-c", "--model", "encounter2x2", "--eps", "0.3", "--pmeet", "0"]
        assert run(argv) == EXIT_OK
        assert capsys.readouterr().out == "check-c: fails via skeleton_semigroup\n"

    def test_disagree(self, tmp_path):
        out = tmp_path / "d.json"
        code = run(["disagree", "--model", "two-point-swap", "--a", "0.4",
                    "--replicas", "300", "--tmax", "60", "--seed", "5",
                    "--format", "json", "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(read(out))
        assert doc["eta_estimate"] == 2

    def test_skeleton(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"model": "dirichlet_rows", "alpha": [[1, 1], [0, 1]]}))
        b.write_text(json.dumps({"model": "fixed", "matrix": [[0.5, 0.5], [0, 1]]}))
        out = tmp_path / "s.json"
        code = run(["skeleton", "--spec-a", str(a), "--spec-b", str(b),
                    "--format", "json", "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(read(out))
        assert doc["same_initial_skeleton"] is True
        assert doc["agree"] is True

    def test_semigroup(self, tmp_path):
        sup = tmp_path / "sup.json"
        sup.write_text(json.dumps([[[0, 1], [1, 0]], [[1, 0], [0, 1]]]))
        out = tmp_path / "sg.json"
        code = run(["semigroup", "--support", str(sup), "--format", "json", "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(read(out))
        assert doc["min_rank"] == 2
        assert doc["rank_one_atoms"] == []

    def test_conjugacy(self, tmp_path):
        out = tmp_path / "conj.json"
        code = run(["conjugacy", "--model", "beta2x2", "--alpha", "1.0",
                    "--replicas", "2000", "--seed", "9", "--format", "json",
                    "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(read(out))
        assert doc["pass"] is True

    def test_rate_two_atom(self, tmp_path):
        dist = {
            "n": 4,
            "atoms": [
                {"adjacency": [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]], "prob": 0.7},
                {"adjacency": [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], "prob": 0.3},
            ],
        }
        path = tmp_path / "dist.json"
        path.write_text(json.dumps(dist))
        out = tmp_path / "rate.json"
        code = run(["rate", "--dist", str(path), "--epsilon", "0.5",
                    "--tgrid", "1:20", "--replicas", "5000", "--seed", "11",
                    "--format", "json", "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(read(out))
        assert abs(doc["empirical_rate"] - abs(math.log(0.3))) / abs(math.log(0.3)) < 0.3

    def test_wisdom_csv_header(self, tmp_path):
        out = tmp_path / "w.csv"
        code = run(["wisdom", "--family", "mix-identity", "--sizes", "4,8",
                    "--replicas", "100", "--tmax", "200", "--seed", "13",
                    "--out", str(out)])
        assert code == EXIT_OK
        lines = read(out).splitlines()
        assert lines[0] == "n,mean_abs_error,q50,q90,e_max_pi,var_max_pi,convergence_fraction"
        assert len(lines) == 3

    def test_wisdom_fixed_ring_never_converges(self):
        # a fixed cyclic permutation keeps every product a permutation
        assert run(["wisdom", "--family", "fixed-ring", "--sizes", "3",
                    "--replicas", "4", "--tmax", "50"]) == EXIT_NO_CONVERGENCE


class TestConfigRoundTrip:
    def test_serialize_parse_identity_for_random_configs(self):
        rng = np.random.default_rng(17)
        commands = {
            "influence": lambda: {
                "model": "encounter2x2", "eps": float(rng.uniform(0.05, 0.95)),
                "pmeet": float(rng.uniform(0, 1)), "replicas": int(rng.integers(1, 10_000)),
                "tmax": int(rng.integers(1, 5000)), "seed": int(rng.integers(0, 2**63)),
                "format": "csv",
            },
            "speed2x2": lambda: {
                "mu": "uniform-indep", "phi": float(10.0 ** -rng.integers(2, 9)),
                "replicas": int(rng.integers(1, 5000)), "seed": int(rng.integers(0, 2**63)),
            },
            "pmax": lambda: {
                "islands": f"2,{rng.integers(1, 99)/100},{rng.integers(1, 99)/100}",
                "method": str(rng.choice(["subsets", "cuts"])),
            },
            "wisdom": lambda: {
                "family": "ring", "sizes": "4,8", "gamma": float(rng.uniform(0.3, 0.7)),
                "replicas": int(rng.integers(1, 500)), "seed": int(rng.integers(0, 2**63)),
            },
        }
        for _case in range(200):
            command = str(rng.choice(sorted(commands)))
            params = commands[command]()
            text = serialize_config(command, params)
            parsed_command, parsed = parse_config(text)
            assert parsed_command == command
            assert parsed == params

    def test_config_file_drives_run(self, tmp_path):
        cfg = {"command": "energy", "mu": "uniform-indep", "format": "json",
               "out": str(tmp_path / "e.json")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run(["energy", "--config", str(path)]) == EXIT_OK
        assert json.loads(read(tmp_path / "e.json"))["i_mu"] == pytest.approx(1.5)

    def test_explicit_flags_beat_config(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"command": "energy", "mu": "uniform-indep"}))
        assert run(["energy", "--config", str(path), "--mu", "arcsine-indep"]) == EXIT_OK
        assert "I_mu=1.3862943611" in capsys.readouterr().out
        # a parser default does not override the config value
        path.write_text(json.dumps({"command": "energy", "mu": "arcsine-indep"}))
        assert run(["energy", "--config", str(path)]) == EXIT_OK
        assert "I_mu=1.3862943611" in capsys.readouterr().out


def test_every_flag_readme_names_is_a_flag_of_some_subcommand():
    options = {opt for sub in cli.make_parser().commands.values() for action in sub._actions
               for opt in action.option_strings}
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    # lines that run pytest name pytest's flags
    lines = [line for line in read(readme).splitlines() if "pytest" not in line]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", "\n".join(lines)))
    assert named and named <= options, sorted(named - options)


class TestFloatFormatting:
    def test_seventeen_digits_round_trip(self):
        rng = np.random.default_rng(19)
        for _ in range(1000):
            x = float(rng.standard_normal() * 10.0 ** rng.integers(-12, 12))
            assert float(fmt_float(x)) == x

    def test_special_values(self):
        assert fmt_float(math.inf) == "inf"
        assert fmt_float(math.nan) == "nan"
