import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings

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
    run,
    serialize_config,
)
from degrootnet.engine import GAP_TOL
from degrootnet.errors import NumericalFailure
from degrootnet.fragmentation import islands_distribution
from degrootnet.generators import GeneratorSpec, ring_uniform_self
from degrootnet.seeding import replica_rng
from test_products import reference_scan


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

    @pytest.mark.parametrize("argv, outcome", [
        (["speed2x2", "--phi", "1e-6", "--tcap", "2", "--replicas", "50"],
         "CapHit: 50/50 replicas still above phi at t_cap=2"),
        (["rate", "--dist", "{c10}", "--epsilon", "0.5", "--tgrid", "1:2", "--replicas", "25"],
         "InsufficientEvents: fewer than 2 grid points"),
        (["semigroup", "--support", "{support}", "--max-len", "14"],
         "ExplosionGuard: semigroup exploration exceeded 4000 elements"),
    ], ids=["cap-hit", "insufficient-events", "explosion-guard"])
    def test_run_outcome_is_exit_3(self, tmp_path, capsys, argv, outcome):
        # valid input whose run ends without a result, within the limits the user chose
        argv = _inputs(tmp_path, argv)
        out = tmp_path / "out.csv"
        assert run(argv + ["--out", str(out)]) == EXIT_NO_CONVERGENCE
        assert f"{argv[0]}: {outcome}" in capsys.readouterr().out
        assert not out.exists()

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

    @pytest.mark.parametrize("argv", [
        ["wisdom", "--sizes", "1,5", "--replicas", "4"],
        ["wisdom", "--gamma", "0.9", "--sizes", "5", "--replicas", "4"],  # the signal support leaves [0, 1]
        ["rate", "--model", "ring", "--n", "3", "--epsilon", "2", "--replicas", "10", "--tgrid", "1:3"],
    ], ids=["wisdom-size-1", "wisdom-gamma-0.9", "rate-epsilon-2"])
    def test_argument_out_of_range_is_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out.csv"
        assert run(argv + ["--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error:")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["energy", "--mu", "beta-indep", "--a", "nan", "--b", "1"],
        ["wisdom", "--gamma", "nan", "--sizes", "3", "--replicas", "4"],
        ["check-c", "--model", "fixed"],
        ["influence", "--model", "fixed", "--replicas", "4"],
    ], ids=["energy-beta-a", "wisdom-gamma", "check-c-matrix", "influence-matrix"])
    def test_nan_parameter_is_usage_error(self, tmp_path, capsys, argv):
        matrix = tmp_path / "nan.json"
        matrix.write_text("[[NaN, NaN], [0.5, 0.5]]")
        if "fixed" in argv:
            argv = argv + ["--matrix", str(matrix)]
        out = tmp_path / "out.csv"
        assert run(argv + ["--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error:")
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

    @pytest.mark.parametrize("gap_tol", ["-1", "nan", "1"])
    @pytest.mark.parametrize("command", ["influence", "wisdom"])
    def test_negative_or_nan_gap_tol_is_usage_error(self, tmp_path, capsys, command, gap_tol):
        argv = {
            "influence": ["influence", "--model", "ring", "--n", "5"],
            "wisdom": ["wisdom", "--sizes", "3"],
        }[command]
        out = tmp_path / "out.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(argv + ["--replicas", "10", "--tmax", "100", "--gap-tol", gap_tol, "--out", str(out)])
        assert code == EXIT_USAGE
        assert "gap_tol must be >= 0" in capsys.readouterr().err
        assert not out.exists() and not caught

    def test_conjugacy_with_one_replica_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["conjugacy", "--model", "ring", "--n", "3", "--replicas", "1", "--tmax", "100",
                        "--out", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error: replicas must be >= 2")
        assert not out.exists() and not caught

    def test_conjugacy_with_one_converged_replica_is_no_convergence(self, tmp_path, capsys):
        # at seed 0 the two ring-3 replicas reach GAP_TOL at t = 32 and t = 38
        out = tmp_path / "out.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["conjugacy", "--model", "ring", "--n", "3", "--replicas", "2", "--tmax", "32",
                        "--seed", "0", "--out", str(out)])
        assert code == EXIT_NO_CONVERGENCE
        assert "only 1/2 replicas" in capsys.readouterr().out
        assert not out.exists() and not caught

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

    def test_config_for_another_subcommand_is_usage_error_naming_both(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"command": "energy", "mu": "arcsine-indep"}))
        assert run(["speed2x2", "--config", str(path), "--replicas", "10", "--phi", "0.01"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: bad config: ") and "'energy'" in err and "'speed2x2'" in err
        # the same file drives the subcommand it names
        assert run(["energy", "--config", str(path)]) == EXIT_OK
        assert "I_mu=1.3862943611" in capsys.readouterr().out

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
        (["simulate", "--model", "ring", "--n", "2", "--p0", "0.5,0.2", "--steps", "-2"], "--steps"),
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

    @pytest.mark.parametrize("atom, why", [
        ({"x": 5, "y": -3, "mass": 1}, "atom weights must lie in [0, 1], got (5.0, -3.0)"),
        ({"x": math.nan, "y": 0.2, "mass": 1}, "atom weights must lie in [0, 1], got (nan, 0.2)"),
        ({"x": 0.5, "y": 0.5, "mass": 1}, "atom at x = y = 0.5 makes the energy infinite"),
    ], ids=["outside-unit-square", "nan", "diagonal"])
    def test_bad_atom_weights_are_a_usage_error_naming_the_file(self, tmp_path, capsys, atom, why):
        path = tmp_path / "atoms.json"
        path.write_text(json.dumps([atom]))
        out = tmp_path / "e.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["energy", "--mu", "atoms", "--atoms", str(path), "--out", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: {path}: {why}\n"
        assert not out.exists() and not caught

    @pytest.mark.parametrize("spec_a, spec_b, flag, why", [
        ("markov", "fixed2", "--spec-a", "defined for iid processes"),
        ("fixed2", "ar1", "--spec-b", "defined for iid processes"),
        ("islands5", "fixed10", "--spec-a", "limited to g <= 4"),
        ("fixed10", "islands5", "--spec-b", "limited to g <= 4"),
    ], ids=["markov-a", "ar1-b", "islands5-a", "islands5-b"])
    def test_skeleton_law_outside_the_test_precondition_is_usage_error_naming_it(self, tmp_path, capsys, spec_a,
                                                                                   spec_b, flag, why):
        laws = {
            "markov": {"model": "finite_mixture", "atoms": [[[0.5, 0.5], [0.5, 0.5]], np.eye(2).tolist()],
                       "probs": [0.5, 0.5], "transition": [[0.5, 0.5], [0.5, 0.5]]},
            "ar1": {"model": "ar1_mixture", "xi": 0.5, "t0": [[0.5, 0.5], [0.5, 0.5]],
                    "source": {"model": "dirichlet_rows", "alpha": [[1, 1], [1, 1]]}},
            "islands5": {"model": "islands", "g": 5, "p_s": 0.5, "p_d": 0.3},
            "fixed2": {"model": "fixed", "matrix": np.full((2, 2), 0.5).tolist()},
            "fixed10": {"model": "fixed", "matrix": np.full((10, 10), 0.1).tolist()},
        }
        argv = ["skeleton"]
        for option, name in (("--spec-a", spec_a), ("--spec-b", spec_b)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(laws[name]))
            argv += [option, str(path)]
        out = tmp_path / "s.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(argv + ["--replicas", "10", "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {flag}: ") and why in err
        assert not out.exists() and not caught

    def test_skeleton_numerical_failure_in_the_run_is_exit_1(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise NumericalFailure("product lost its rows")
        # only the square of this pattern is all-true, so at horizon 1 the closure is open and replicas run
        path = tmp_path / "fixed.json"
        path.write_text(json.dumps({"model": "fixed", "matrix": [[0, 1], [0.5, 0.5]]}))
        monkeypatch.setattr(cli.engine, "_lockstep", broken)
        argv = ["skeleton", "--spec-a", str(path), "--spec-b", str(path), "--horizon", "1", "--replicas", "10"]
        assert run(argv) == 1
        assert "error: NumericalFailure: product lost its rows" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**70)])
    def test_seed_outside_64_bits_is_usage_error(self, tmp_path, capsys, seed):
        out = tmp_path / "pi.csv"
        argv = ["influence", "--model", "ring", "--n", "3", "--replicas", "20", "--out", str(out)]
        assert run(argv + ["--seed", seed]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"usage error: argument --seed: master seed must be in [0, 2**64), got {seed}\n")
        assert not out.exists()
        # a config value goes through the flag's type
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"command": "influence", "seed": int(seed)}))
        assert run(argv + ["--config", str(cfg)]) == EXIT_USAGE
        assert "master seed must be in [0, 2**64)" in capsys.readouterr().err
        assert not out.exists()

    def test_largest_64_bit_seed_is_accepted(self, tmp_path):
        argv = ["influence", "--model", "ring", "--n", "3", "--replicas", "20"]
        top, zero = tmp_path / "top.csv", tmp_path / "zero.csv"
        assert run(argv + ["--seed", str(2**64 - 1), "--out", str(top)]) == EXIT_OK
        assert run(argv + ["--seed", "0", "--out", str(zero)]) == EXIT_OK
        assert read(top) != read(zero)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"command": "influence", "seed": 2**64 - 1}))
        again = tmp_path / "again.csv"
        assert run(argv + ["--config", str(cfg), "--out", str(again)]) == EXIT_OK
        assert read(again) == read(top)

    def test_seed_that_is_no_integer_keeps_its_message(self, capsys):
        assert run(["energy", "--seed", "1.5"]) == EXIT_USAGE
        assert capsys.readouterr().err == "usage error: argument --seed: invalid int value: '1.5'\n"

    @pytest.mark.parametrize("mu", ["uniform-indep", "arcsine-indep"])
    def test_atoms_without_mu_atoms_is_usage_error(self, tmp_path, capsys, mu):
        path = tmp_path / "atoms.json"
        path.write_text(json.dumps([{"x": 0.3, "y": 0.5, "mass": 1}]))
        out = tmp_path / "e.csv"
        argv = ["energy", "--atoms", str(path), "--out", str(out)]
        assert run(argv + ["--mu", mu]) == EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: --atoms needs --mu atoms, not --mu {mu}\n"
        # the default --mu too
        assert run(argv) == EXIT_USAGE
        assert "--atoms needs --mu atoms" in capsys.readouterr().err
        assert not out.exists()
        assert run(argv + ["--mu", "atoms"]) == EXIT_OK

    def test_unwritable_output_is_exit_1(self, tmp_path):
        out = tmp_path / "missing" / "deep" / "x.csv"
        code = run(["energy", "--mu", "uniform-indep", "--out", str(out)])
        assert code == 1

    @pytest.mark.parametrize("argv, flag, why", [
        (["rate", "--model", "ring", "--n", "3", "--replicas", "20", "--tgrid", "1:3"], "--model ring",
         "symmetric with positive diagonals"),
        (["rate", "--spec", "{ar1.json}", "--replicas", "20"], "--spec", "requires an iid process"),
    ])
    def test_rate_law_outside_the_decay_precondition_is_usage_error_naming_it(self, tmp_path, capsys, argv, flag,
                                                                               why):
        ar1 = {"model": "ar1_mixture", "xi": 0.5, "t0": [[0.5, 0.5], [0.5, 0.5]],
               "source": {"model": "dirichlet_rows", "alpha": [[1, 1], [1, 1]]}}
        (tmp_path / "ar1.json").write_text(json.dumps(ar1))
        assert run([str(tmp_path / "ar1.json") if a == "{ar1.json}" else a for a in argv]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {flag}: ") and why in err

    def test_rate_numerical_failure_in_the_run_is_exit_1(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")
        path = tmp_path / "k4.json"
        path.write_text(json.dumps({"n": 4, "atoms": [{"adjacency": (1 - np.eye(4, dtype=int)).tolist(), "prob": 1.0}]}))
        monkeypatch.setattr(np.linalg, "svd", broken)
        assert run(["rate", "--dist", str(path), "--replicas", "20", "--tgrid", "1:3"]) == 1
        assert "error: NumericalFailure: SVD did not converge" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag, why", [
        (["--spec", "{fixed.json}"], "--spec", "spec has no alpha matrix; pass phi explicitly"),
        (["--spec", "{unbalanced.json}"], "--spec", "alpha row sums differ from column sums"),
        (["--config", "{dirichlet.json}"], "--model dirichlet", "alpha row sums differ from column sums"),
    ], ids=["no-alpha-spec", "unbalanced-spec", "unbalanced-model"])
    def test_conjugacy_law_without_a_balanced_alpha_is_usage_error_naming_it(self, tmp_path, capsys, argv, flag,
                                                                             why):
        docs = {
            "fixed.json": {"model": "fixed", "matrix": [[0.5, 0.5], [0.5, 0.5]]},
            "unbalanced.json": {"model": "dirichlet_rows", "alpha": [[1, 2], [1, 1]]},
            "dirichlet.json": {"command": "conjugacy", "model": "dirichlet", "alpha_matrix": [[1, 2], [1, 1]]},
        }
        for name, doc in docs.items():
            (tmp_path / name).write_text(json.dumps(doc))
        out = tmp_path / "out.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["conjugacy"] + [str(tmp_path / a[1:-1]) if a.startswith("{") else a for a in argv]
                       + ["--replicas", "20", "--tmax", "100", "--out", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: {flag}: {why}\n"
        assert not out.exists() and not caught

    def test_conjugacy_fault_in_the_run_is_exit_1(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise NumericalFailure("product lost its rows")
        monkeypatch.setattr(cli.wisdom, "estimate_influence", broken)
        assert run(["conjugacy", "--model", "beta2x2", "--alpha", "1", "--replicas", "20", "--tmax", "100"]) == 1
        assert "error: NumericalFailure: product lost its rows" in capsys.readouterr().err

    def test_pmax_law_past_both_enumeration_limits_is_usage_error_naming_dist(self, tmp_path, capsys):
        # 21 one-edge graphs on 17 vertices: more atoms than SUBSET_LIMIT = 20, more vertices than CUT_LIMIT = 16
        n, edges = 17, [(0, j) for j in range(1, 17)] + [(1, j) for j in range(2, 7)]
        atoms = []
        for k, (i, j) in enumerate(edges):
            adjacency = np.zeros((n, n), dtype=int)
            adjacency[i, j] = adjacency[j, i] = 1
            atoms.append({"adjacency": adjacency.tolist(), "prob": 0.2 if k == 0 else 0.04})
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"n": n, "atoms": atoms}))
        assert run(["pmax", "--dist", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: --dist: ") and "21 atoms exceed the subset limit 20" in err


# Small runs that exit 0, each with the float flags it reads.  "--p0[0]" names
# component 0 of a comma-separated list.  Model flags are read by build_spec
# alone, whichever subcommand runs, so simulate's runs sweep them for all.
FLOAT_FLAG_RUNS = [
    (["simulate", "--model", "encounter2x2", "--eps", "0.3", "--pmeet", "0.5", "--p0", "1,0", "--steps", "3"],
     ["--eps", "--pmeet", "--p0[0]"]),
    (["simulate", "--model", "two-point-swap", "--a", "0.4", "--p0", "1,0", "--steps", "3"], ["--a"]),
    (["simulate", "--model", "bernoulli2x2", "--x", "0.5", "--pa", "0.5", "--pb", "0.3", "--p0", "1,0",
      "--steps", "3"], ["--x", "--pa", "--pb"]),
    (["simulate", "--model", "beta2x2", "--alpha", "1", "--p0", "1,0", "--steps", "3"], ["--alpha"]),
    (["simulate", "--model", "islands", "--g", "2", "--ps", "0.8", "--pd", "0.3", "--p0", "1,0,1,0",
      "--steps", "3"], ["--ps", "--pd"]),
    (["simulate", "--model", "mix-identity", "--n", "3", "--zeta", "0.5", "--p0", "1,0,1", "--steps", "3"],
     ["--zeta"]),
    (["simulate", "--model", "perturbed", "--matrix", "{flat2}", "--eps", "8", "--p0", "1,0", "--steps", "3"],
     ["--eps"]),
    (["influence", "--model", "ring", "--n", "3", "--replicas", "4", "--tmax", "200", "--gap-tol", "1e-8"],
     ["--gap-tol"]),
    (["wisdom", "--family", "mix-identity", "--sizes", "3", "--zeta", "0.5", "--gamma", "0.5",
      "--signal-width", "0.25", "--replicas", "4", "--tmax", "500", "--gap-tol", "1e-8"],
     ["--zeta", "--gamma", "--signal-width", "--gap-tol"]),
    (["speed2x2", "--mu", "beta-indep", "--a", "1", "--b", "2", "--phi", "0.01", "--replicas", "20"],
     ["--a", "--b", "--phi"]),
    (["energy", "--mu", "beta-indep", "--a", "1", "--b", "2"], ["--a", "--b"]),
    (["rate", "--dist", "{k4}", "--epsilon", "0.5", "--tgrid", "1:3", "--replicas", "50"], ["--epsilon"]),
    (["conjugacy", "--model", "perturbed", "--matrix", "{flat2}", "--eps", "8", "--replicas", "20",
      "--tmax", "500", "--phi", "4,4"], ["--phi[0]"]),
    (["pmax", "--islands", "2,0.8,0.3"], ["--islands[1]", "--islands[2]"]),
]
# No float flag gives nan, inf or -inf a finite meaning, so every such run is a usage error.
NON_FINITE = ["nan", "inf", "-inf"]


def _float_flags(command):
    sub = cli.make_parser(command).commands[command]
    return {action.option_strings[0] for action in sub._actions if action.type is float}


def _sweep_cases():
    for argv, flags in FLOAT_FLAG_RUNS:
        for flag in flags:
            for value in NON_FINITE:
                yield pytest.param(argv, flag, value, id=f"{argv[0]}{flag}={value}({argv[2]})")


K4 = [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]
TWO_EDGES = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
INPUT_FILES = {
    "flat2": [[0.5, 0.5], [0.5, 0.5]],
    "k4": {"n": 4, "atoms": [{"adjacency": K4, "prob": 1.0}]},
    # C10's lazy-Metropolis mixture over K4 and two disjoint edges
    "c10": {"n": 4, "atoms": [{"adjacency": K4, "prob": 0.7}, {"adjacency": TWO_EDGES, "prob": 0.3}]},
    # two generic 2x2 matrices: their products of length <= 12 are all distinct
    "support": [[[0.7, 0.3], [0.2, 0.8]], [[0.4, 0.6], [0.9, 0.1]]],
}


def _inputs(tmp_path, argv):
    """argv with each "{name}" replaced by the path of INPUT_FILES[name], written under tmp_path."""
    paths = {}
    for name, doc in INPUT_FILES.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    return [a.format(**paths) for a in argv]


class TestNonFiniteFlags:
    def test_the_runs_sweep_every_float_flag(self):
        model_flags = _float_flags("simulate")
        for command in cli._SUBCOMMANDS:
            swept = {flag.split("[")[0] for argv, flags in FLOAT_FLAG_RUNS if argv[0] == command for flag in flags}
            want = _float_flags(command) - (model_flags if command != "simulate" else set())
            assert want <= swept, command

    @pytest.mark.parametrize("argv", [argv for argv, _ in FLOAT_FLAG_RUNS], ids=lambda argv: "-".join(argv[:3]))
    def test_base_run_succeeds(self, tmp_path, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(_inputs(tmp_path, argv) + ["--out", str(tmp_path / "out")]) == EXIT_OK

    @pytest.mark.parametrize("argv, flag, value", _sweep_cases())
    def test_non_finite_value_is_usage_error(self, tmp_path, capsys, argv, flag, value):
        # "--flag=-inf" keeps argparse from reading "-inf" as a flag
        argv = _inputs(tmp_path, argv)
        name, _, index = flag.partition("[")
        at = argv.index(name)
        parts = argv.pop(at + 1).split(",")
        parts[int(index[:-1]) if index else 0] = value
        argv[at] = f"{name}={','.join(parts)}"
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(argv + ["--out", str(out)])
        assert (code, [str(w.message) for w in caught]) == (EXIT_USAGE, [])
        assert capsys.readouterr().err.startswith("usage error:")
        assert not out.exists()


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
        scans = {i: reference_scan(spec.start_state(replica_rng(3, i)), 100, GAP_TOL, stop=True) for i in range(12)}
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

    def test_every_row_is_clipped_to_the_unit_interval(self, tmp_path):
        # the summary rounds to 6 digits; the rows must not carry the 1 + 1 ulp either
        out = tmp_path / "sim.csv"
        assert run(["simulate", "--model", "ring", "--n", "5", "--p0", "1,1,1,1,1", "--steps", "200", "--seed", "6",
                    "--out", str(out)]) == EXIT_OK
        values = [float(v) for line in read(out).splitlines()[1:] for v in line.split(",")[1:]]
        assert len(values) == 201 * 5 and all(0.0 <= v <= 1.0 for v in values)

    def test_fault_in_the_walk_is_exit_1(self, capsys, monkeypatch):
        # --p0 is checked before the walk; a fault in the walk itself is internal, not the user's
        def broken(*args, **kwargs):
            raise NumericalFailure("product lost its rows")
        monkeypatch.setattr(cli.engine, "_lockstep", broken)
        assert run(["simulate", "--model", "ring", "--n", "3", "--p0", "1,0,1", "--steps", "5"]) == 1
        assert "error: NumericalFailure: product lost its rows" in capsys.readouterr().err


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
            doc = json.loads(serialize_config(command, params))
            assert doc.pop("command") == command
            assert doc == params

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


# A comma-separated flag given in a config as a JSON list: the config, the flag,
# the list and its comma form.
LIST_CONFIGS = [
    ({"command": "simulate", "model": "ring", "n": 2, "steps": 3}, "p0", [1, 0], "1,0"),
    ({"command": "wisdom", "family": "ring", "replicas": 4, "tmax": 500}, "sizes", [3, 4], "3,4"),
    ({"command": "rate", "model": "encounter2x2", "eps": 0.3, "pmeet": 0.5, "epsilon": 0.1, "replicas": 50},
     "tgrid", [1, 2, 3], "1,2,3"),
    ({"command": "pmax"}, "islands", [2, 0.8, 0.3], "2,0.8,0.3"),
    ({"command": "conjugacy", "model": "ring", "n": 2, "replicas": 20, "tmax": 500}, "phi", [4, 4.5], "4,4.5"),
]


class TestConfigLists:
    def run_config(self, tmp_path, cfg, name):
        out, path = tmp_path / f"{name}.out", tmp_path / f"{name}.json"
        path.write_text(json.dumps(dict(cfg, out=str(out))))
        return run([cfg["command"], "--config", str(path)]), out

    @pytest.mark.parametrize("cfg, key, items, text", LIST_CONFIGS)
    def test_list_gives_the_bytes_of_its_comma_form(self, tmp_path, cfg, key, items, text):
        code, out = self.run_config(tmp_path, dict(cfg, **{key: items}), "list")
        want_code, want = self.run_config(tmp_path, dict(cfg, **{key: text}), "text")
        assert code == want_code == EXIT_OK
        assert out.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("cfg, key, items, text", LIST_CONFIGS)
    @pytest.mark.parametrize("bad", ["x", [1], None])
    def test_bad_list_element_is_usage_error_naming_the_flag(self, tmp_path, capsys, cfg, key, items, text, bad):
        code, out = self.run_config(tmp_path, dict(cfg, **{key: [*items[:-1], bad]}), "bad")
        assert code == EXIT_USAGE
        assert f"--{key}" in capsys.readouterr().err
        assert not out.exists()


class TestParser:
    @pytest.mark.parametrize("command", sorted(cli._SUBCOMMANDS))
    def test_one_subcommand_parser_has_the_full_parsers_flags(self, command):
        def flags(parser):
            return [(a.option_strings, a.dest, a.default, a.type, a.choices, a.required, a.help)
                    for a in parser.commands[command]._actions]

        full, one = cli.make_parser(), cli.make_parser(command)
        assert flags(one) == flags(full)
        # every name stays registered with its help
        assert one.format_help() == full.format_help()
        for argv in ([], ["bogus"]):
            with pytest.raises(cli._UsageError) as want:
                full.parse_args(argv)
            with pytest.raises(cli._UsageError) as got:
                one.parse_args(argv)
            assert str(got.value) == str(want.value)

    def test_run_builds_each_named_subcommand_once(self, capsys):
        cli.make_parser.cache_clear()
        for _ in range(3):
            assert run(["energy"]) == EXIT_OK
        info = cli.make_parser.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        assert cli.make_parser("energy") is cli.make_parser("energy")
        # an invalid subcommand builds the full parser: asking for it is then a hit
        assert run(["bogus"]) == EXIT_USAGE
        assert "invalid choice: 'bogus'" in capsys.readouterr().err
        assert cli.make_parser.cache_info().misses == 2
        cli.make_parser(None)
        assert cli.make_parser.cache_info().misses == 2
        assert list(cli._SUBCOMMANDS) == list(cli._COMMANDS)

    def test_config_run_leaves_the_cached_defaults_alone(self, tmp_path, capsys):
        def defaults():
            return [(a.dest, a.default) for a in cli.make_parser("energy").commands["energy"]._actions]

        assert run(["energy"]) == EXIT_OK
        before = defaults()
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"command": "energy", "mu": "beta-indep", "a": 2, "b": 3, "seed": 5}))
        assert run(["energy", "--config", str(path)]) == EXIT_OK
        assert defaults() == before
        assert cli.make_parser("energy").commands["energy"].get_default("mu") == "uniform-indep"

    @pytest.mark.parametrize("bad", [
        ["energy", "--mu", "beta-indep", "--a", "oops"],
        ["energy", "--seed", "-1"],
        ["energy", "--bogus"],
        ["energy", "--mu", "nope"],
    ])
    def test_usage_error_leaves_the_next_run_unchanged(self, tmp_path, capsys, bad):
        out = tmp_path / "e.json"
        argv = ["energy", "--mu", "arcsine-indep", "--format", "json", "--out", str(out)]
        assert run(argv) == EXIT_OK
        want = read(out)
        assert run(bad) == EXIT_USAGE
        out.unlink()
        assert run(argv) == EXIT_OK
        assert read(out) == want
        assert run(["energy"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[-1] == "energy: I_mu=1.5000000000"

    def test_importing_the_cli_builds_no_parser(self, tmp_path):
        script = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counted(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "from degrootnet import cli\n"
            "print(len(built), cli.make_parser.cache_info().currsize)\n"
            "cli.make_parser('energy')\n"
            "print(len(built))\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        out = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                             capture_output=True, text=True, check=True).stdout.splitlines()
        # one make_parser call builds the top-level parser and one per subcommand name
        assert out == ["0 0", str(1 + len(cli._SUBCOMMANDS))]

    def test_config_defaults_do_not_carry_into_the_next_run(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"command": "energy", "mu": "arcsine-indep"}))
        assert run(["energy", "--config", str(path)]) == EXIT_OK
        assert "I_mu=1.3862943611" in capsys.readouterr().out
        assert run(["energy"]) == EXIT_OK
        assert "I_mu=1.5000000000" in capsys.readouterr().out

    def test_a_config_run_between_plain_runs_changes_neither(self, tmp_path, capsys):
        assert run(["energy"]) == EXIT_OK
        assert "I_mu=1.5000000000" in capsys.readouterr().out
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"command": "energy", "mu": "arcsine-indep"}))
        assert run(["energy", "--config", str(path)]) == EXIT_OK
        assert "I_mu=1.3862943611" in capsys.readouterr().out
        assert run(["energy"]) == EXIT_OK
        assert "I_mu=1.5000000000" in capsys.readouterr().out


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
