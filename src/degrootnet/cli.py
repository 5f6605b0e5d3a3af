"""Command-line simulator: deterministic experiments, plot-ready output.

Every subcommand accepts flags, ``--config file.json`` holding the same
parameters, or both: a flag on the command line beats the config value,
which beats the default stated in ``_SUBCOMMANDS``; a config's ``command``
key, which serialize_config writes, must name the subcommand run.  A process
builds each subcommand's parser once, on the first run that names it.
``_MODELS`` maps each ``--model`` name to its constructor and the flags it
reads.  Results go to ``--out`` as CSV or JSON with floats printed at 17
significant digits, which round-trips doubles exactly.  Replica i of master
seed m (an integer in [0, 2**64)) uses the stream documented in
seeding.replica_seed and replicas run in index order; ``--workers`` is
accepted for compatibility and changes nothing.

Exit codes: 0 success, 1 internal error, 2 usage error, 3 when a run ends
without its result for a reason of the process or of a limit the user chose
(_RUN_OUTCOMES: reported, not crashed).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys

import numpy as np

from . import engine, fragmentation, generators, wisdom
from .errors import (BalanceViolation, CapHit, DegrootNetError, ExplosionGuard, InsufficientEvents, InvalidArgument,
                     NoConvergence, NotIid, SizeLimit, Unsupported)
from .matrices import StochasticMatrix

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3

# exit 3: no result within the horizon, cap, replicas or --max-len the user chose
_RUN_OUTCOMES = (NoConvergence, CapHit, InsufficientEvents, ExplosionGuard)


# --- float-exact serialization ----------------------------------------------


def fmt_float(x) -> str:
    if x != x:
        return "nan"
    if x == math.inf:
        return "inf"
    if x == -math.inf:
        return "-inf"
    return format(float(x), ".17g")


def _fmt_float_json(x) -> str:
    # the spellings the stdlib json parser accepts for non-finite values
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return format(float(x), ".17g")


def _json_text(obj, indent=0) -> str:
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {_json_text(v, indent + 2)}' for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ", ".join(_json_text(v, indent) for v in obj)
        return "[" + items + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float_json(obj)
    return json.dumps(obj)


def emit(rows_or_doc, fmt: str, path: str, header=None) -> None:
    """Write a result record: CSV rows with a fixed header, or a JSON doc."""
    if fmt == "csv":
        lines = [",".join(header)]
        for row in rows_or_doc:
            lines.append(",".join(fmt_float(v) if isinstance(v, float) else str(v) for v in row))
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        text = _json_text(rows_or_doc) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w") as fh:
        fh.write(text)


# --- model construction from flags/config ------------------------------------


class _UsageError(Exception):
    pass


@contextlib.contextmanager
def _user_input(what):
    """Report a fault in the user input ``what`` as a usage error that names it."""
    try:
        yield
    except KeyError as exc:
        raise _UsageError(f"{what} lacks key {exc}") from exc
    except (OSError, ValueError, TypeError, AttributeError, DegrootNetError) as exc:
        raise _UsageError(f"{what}: {exc}") from exc


def _items(value) -> list:
    """The elements of a comma-separated flag's value, as text.

    The value is the flag's text, split on commas, or a config's JSON list,
    each element read as the text it would have on the command line; so a
    list gives the values of its comma form.
    """
    return [str(v) for v in value] if isinstance(value, list) else str(value).split(",")


def _read_json(path, parse=lambda doc: doc):
    """``parse`` of the JSON document in the file ``path``."""
    with _user_input(path), open(path) as fh:
        return parse(json.load(fh))


# Each --model name: its constructor and the parameters it takes, in order.
# The wisdom --family names are the entries that take a size n (and zeta).
_MODELS = {
    "encounter2x2": (generators.encounter_2x2, ("eps", "pmeet")),
    "two-point-swap": (generators.two_point_swap, ("a",)),
    "bernoulli2x2": (generators.bernoulli_2x2, ("x", "pa", "pb")),
    "ring": (generators.ring_uniform_self, ("n",)),
    "leader-follower": (generators.LeaderFollower, ("n",)),
    "beta2x2": (lambda alpha: generators.DirichletRows(np.full((2, 2), float(alpha))), ("alpha",)),
    "dirichlet": (lambda alpha_matrix: generators.DirichletRows(np.asarray(alpha_matrix, dtype=float)),
                  ("alpha_matrix",)),
    "perturbed": (lambda matrix, eps: generators.PerturbedFixed(StochasticMatrix(matrix), eps),
                  ("matrix", "eps")),
    "islands": (generators.Islands, ("g", "ps", "pd")),
    "fixed": (lambda matrix: generators.Fixed(StochasticMatrix(matrix)), ("matrix",)),
    "fixed-ring": (lambda n: generators.Fixed(StochasticMatrix(np.roll(np.eye(n), 1, axis=1))), ("n",)),
    "mix-identity": (generators.mixing_identity_mixture, ("n", "zeta")),
}

# Each Beta-marginal --mu name of speed2x2 and energy: the (a, b) of both weights.
_BETA_MARGINALS = {
    "uniform-indep": lambda params: (1.0, 1.0),
    "arcsine-indep": lambda params: (0.5, 0.5),
    "beta-indep": lambda params: tuple(_required(params, "--mu beta-indep", ("a", "b")).values()),
}


def _required(params: dict, what: str, names) -> dict:
    """The named parameters; a usage error names every one that is missing."""
    missing = [name for name in names if params.get(name) is None]
    if missing:
        # alpha_matrix has no flag: it comes from --config only
        flags = [f"{name} in --config" if name == "alpha_matrix" else "--" + name.replace("_", "-") for name in missing]
        raise _UsageError(f"{what} needs {', '.join(flags)}")
    return {name: params[name] for name in names}


def build_spec(params: dict) -> generators.GeneratorSpec:
    """The generator named by --spec (a file or a document) or by --model."""
    doc = params.get("spec")
    if doc is not None:
        with _user_input("--spec"):
            return generators.GeneratorSpec.from_dict(_read_json(doc) if isinstance(doc, str) else doc)
    model = params.get("model")
    if model not in _MODELS:
        raise _UsageError(f"unknown or missing model {model!r}")
    make, names = _MODELS[model]
    values = _required(params, f"--model {model}", names)
    if isinstance(values.get("matrix"), str):
        values["matrix"] = _read_json(values["matrix"])
    with _user_input(f"--model {model}"):
        return make(*values.values())


def _law_flag(params: dict) -> str:
    """The flag that named the law build_spec built: --spec or --model NAME."""
    return "--spec" if params.get("spec") is not None else f"--model {params['model']}"


def _beta_marginals(params: dict):
    name = params["mu"]
    if name not in _BETA_MARGINALS:
        raise _UsageError(f"--mu {name!r} names no Beta marginal pair")
    return _BETA_MARGINALS[name](params)


def build_energy_mu(params: dict):
    if params.get("atoms") is not None and params["mu"] != "atoms":
        raise _UsageError(f"--atoms needs --mu atoms, not --mu {params['mu']}")
    if params["mu"] == "atoms":
        path = _required(params, "--mu atoms", ("atoms",))["atoms"]
        return _read_json(path, lambda doc: engine.AtomicWeightPairs(tuple(((d["x"], d["y"]), d["mass"]) for d in doc)))
    with _user_input(f"--mu {params['mu']}"):
        return engine.BetaMarginalPair(*_beta_marginals(params))


# --- argument parsing ---------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _master_seed(text: str) -> int:
    """A --seed value: an integer in [0, 2**64), which seeding would otherwise wrap."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError(f"master seed must be in [0, 2**64), got {seed}")
    return seed


def _add_common(p):
    p.add_argument("--config", default=None, help="JSON file with this subcommand's parameters")
    p.add_argument("--seed", type=_master_seed, default=0, help="master seed (64-bit unsigned)")
    p.add_argument("--out", default=None, help="output path (default: stdout summary only)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--workers", type=int, default=None,
                   help="accepted for compatibility; replicas run in index order in one thread")


def _add_model_flags(p):
    p.add_argument("--model", default=None, help=" | ".join(_MODELS))
    p.add_argument("--spec", default=None, help="generator spec JSON file")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--pmeet", type=float, default=None)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--pa", type=float, default=None)
    p.add_argument("--pb", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--zeta", type=float, default=None)
    p.add_argument("--g", type=int, default=None)
    p.add_argument("--ps", type=float, default=None)
    p.add_argument("--pd", type=float, default=None)
    p.add_argument("--matrix", default=None, help="JSON file holding a matrix")


# Each subcommand: its help, whether it takes the model flags, and its own flags.
_SUBCOMMANDS = {
    "simulate": ("evolve a belief vector and write the trajectory", True, (
        ("--p0", dict(default=None, help="comma-separated initial beliefs")),
        ("--steps", dict(type=int, default=100)),
    )),
    "influence": ("Monte Carlo influence-vector estimate", True, (
        ("--replicas", dict(type=int, default=1000)),
        ("--tmax", dict(type=int, default=2000)),
        ("--gap-tol", dict(type=float, default=engine.GAP_TOL)),
    )),
    "wisdom": ("consensus-error diagnostics across sizes", False, (
        ("--family", dict(choices=("fixed-ring", "leader-follower", "mix-identity", "ring"),
                          default="ring", help="a --model that takes only --n (and --zeta)")),
        ("--sizes", dict(default="5,10,20")),
        ("--gamma", dict(type=float, default=0.5)),
        ("--signal-width", dict(type=float, default=0.25)),
        ("--zeta", dict(type=float, default=0.5)),
        ("--replicas", dict(type=int, default=500)),
        ("--tmax", dict(type=int, default=20000)),
        ("--gap-tol", dict(type=float, default=engine.GAP_TOL)),
    )),
    "speed2x2": ("two-agent convergence times", False, (
        ("--mu", dict(default="uniform-indep", help="uniform-indep | arcsine-indep | beta-indep (with --a/--b)")),
        ("--a", dict(type=float, default=None)),
        ("--b", dict(type=float, default=None)),
        ("--phi", dict(type=float, default=1e-6)),
        ("--replicas", dict(type=int, default=2000)),
        ("--tcap", dict(type=int, default=None)),
    )),
    "energy": ("logarithmic energy of a 2x2 weight law", False, (
        ("--mu", dict(default="uniform-indep")),
        ("--a", dict(type=float, default=None)),
        ("--b", dict(type=float, default=None)),
        ("--atoms", dict(default=None, help="JSON list of {x, y, mass}")),
    )),
    "pmax": ("most likely disconnected collection", False, (
        ("--dist", dict(default=None, help="GraphDistribution JSON file")),
        ("--islands", dict(default=None, help="g,p_s,p_d triple, e.g. 2,0.8,0.3")),
        ("--method", dict(choices=("subsets", "cuts"), default=None,
                          help="accepted for compatibility; the smaller exact enumeration is chosen")),
    )),
    "rate": ("decay rate of the consensus-gap tail", True, (
        ("--dist", dict(default=None, help="GraphDistribution JSON (lazy-Metropolis coupling)")),
        ("--epsilon", dict(type=float, default=0.5)),
        ("--tgrid", dict(default="1:40")),
        ("--replicas", dict(type=int, default=20000)),
    )),
    "disagree": ("empirical law of the limiting product", True, (
        ("--replicas", dict(type=int, default=2000)),
        ("--tmax", dict(type=int, default=200)),
    )),
    "check-c": ("primitivity (consensus certificate) check", True, (
        ("--horizon", dict(type=int, default=64)),
        ("--replicas", dict(type=int, default=200)),
    )),
    "skeleton": ("same-topology consensus equivalence", False, (
        ("--spec-a", dict(required=False, default=None)),
        ("--spec-b", dict(required=False, default=None)),
        ("--horizon", dict(type=int, default=64)),
        ("--replicas", dict(type=int, default=200)),
    )),
    "semigroup": ("product closure of a finite support", False, (
        ("--support", dict(default=None, help="JSON list of matrices")),
        ("--max-len", dict(type=int, default=12)),
    )),
    "conjugacy": ("Dirichlet influence-law verification", True, (
        ("--replicas", dict(type=int, default=5000)),
        ("--tmax", dict(type=int, default=4000)),
        ("--phi", dict(default=None, help="comma-separated reference phi override")),
    )),
}


@functools.cache
def make_parser(command: str | None = None) -> _Parser:
    """The CLI parser; with ``command``, only that subcommand gets its flags.

    Every subcommand name is registered with its help either way, so the
    top-level help and the invalid-choice error do not depend on
    ``command``.  The parser is built on the first call for ``command`` and
    shared by every later run, so nothing may change it after that; a run
    with --config sets its config values as the defaults of a parser of its
    own, ``make_parser.__wrapped__(command)``.
    """
    parser = _Parser(prog="degrootnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, model_flags, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if command in (None, name):
            _add_common(p)
            if model_flags:
                _add_model_flags(p)
            for flag, kwargs in flags:
                p.add_argument(flag, **kwargs)
    parser.commands = sub.choices
    return parser


def _collect_params(argv, args) -> dict:
    """Parameters of a run: flags given in argv, then --config values, then parser defaults."""
    if args.config:
        doc = _read_json(args.config, dict)
        if doc.get("command", args.command) != args.command:
            raise _UsageError(f"the config is for {doc['command']!r}, not {args.command!r}")
        # the config values become defaults, so they go to a parser no other run shares
        parser = make_parser.__wrapped__(args.command)
        sub = parser.commands[args.command]
        typed = {action.dest for action in sub._actions if action.type is not None}
        values = {k.replace("-", "_"): v for k, v in doc.items() if k not in ("command", "config")}
        # a key that names no parameter would otherwise be ignored; alpha_matrix
        # is the one parameter with no flag, read by --model dirichlet
        known = {action.dest for action in sub._actions if action.default is not argparse.SUPPRESS}
        if "model" in known:
            known.add("alpha_matrix")
        unknown = [k for k in doc if k not in ("command", "config") and k.replace("-", "_") not in known]
        if unknown:
            raise _UsageError(f"{args.command} takes no parameter {', '.join(map(repr, unknown))}")
        # argparse applies a flag's type to string defaults only, so a typed
        # value goes in as the text it would have on the command line
        sub.set_defaults(**{k: str(v) if k in typed and v is not None else v
                            for k, v in values.items()})
        args = parser.parse_args(argv)
        # argparse checks choices only on argv; a config value becomes a default
        for action in sub._actions:
            value = getattr(args, action.dest, None)
            if action.choices is not None and value is not None and value not in action.choices:
                raise _UsageError(f"argument {'/'.join(action.option_strings)}: invalid choice: "
                                  f"{value!r} (choose from {', '.join(map(repr, action.choices))})")
    return {k: v for k, v in vars(args).items() if k != "config" and v is not None}


def serialize_config(command: str, params: dict) -> str:
    doc = {"command": command}
    doc.update({k: v for k, v in sorted(params.items())})
    return _json_text(doc)


# --- subcommand bodies --------------------------------------------------------
#
# Every flag with a parser default is present in params, so handlers read
# params[name]; flags that default to None are read with params.get(name).


def _cmd_simulate(params):
    spec = build_spec(params)
    with _user_input("--p0"):
        p0 = [float(v) for v in _items(params.get("p0", "")) if v != ""]
        if not p0:
            raise _UsageError("simulate needs --p0")
        engine._initial_beliefs(p0, spec.n)
    if params["steps"] < 0:
        raise InvalidArgument("--steps must be >= 0")
    path = engine.evolve(spec.start_state(params["seed"]), p0, params["steps"])
    rows = [(t, *p) for t, p in enumerate(path.tolist())]
    final = rows[-1][1:]
    header = ["t"] + [f"p_{i+1}" for i in range(spec.n)]
    doc = {"final": list(final), "steps": params["steps"]}
    summary = f"simulate: n={spec.n} steps={params['steps']} final={[round(v, 6) for v in final]}"
    return rows, header, doc, summary, EXIT_OK


def _cmd_influence(params):
    spec = build_spec(params)
    est = engine.estimate_influence(
        spec,
        replicas=params["replicas"],
        t_max=params["tmax"],
        gap_tol=params["gap_tol"],
        seed=params["seed"],
    )
    header = ["replica", "gap"] + [f"pi_{i+1}" for i in range(spec.n)]
    rows = [(i, float(g), *s) for i, s, g in zip(est.replica_index, est.samples, est.per_replica_gap)]
    doc = {
        "mean": list(est.mean),
        "variance": list(est.variance),
        "max_component_mean": est.max_component_mean,
        "failures": est.failures,
        "replicas": est.replicas,
    }
    summary = (f"influence: replicas={est.replicas} failures={est.failures} "
               f"mean={[round(v, 4) for v in est.mean]}")
    return rows, header, doc, summary, EXIT_OK


def _cmd_wisdom(params):
    with _user_input("--sizes"):
        sizes = tuple(int(s) for s in _items(params["sizes"]))
    with _user_input("wisdom"):
        cfg = wisdom.WisdomConfig(
            family=lambda n: build_spec(dict(params, model=params["family"], n=n)),
            sizes=sizes,
            signal_law=wisdom.UniformSignal(params["gamma"], params["signal_width"]),
            replicas=params["replicas"],
            t_max=params["tmax"],
            gap_tol=params["gap_tol"],
            seed=params["seed"],
        )
    res = wisdom.run_wisdom(cfg)
    header = ["n", "mean_abs_error", "q50", "q90", "e_max_pi", "var_max_pi", "convergence_fraction"]
    rows = [
        (r.n, r.mean_abs_error, r.q50, r.q90, r.e_max_pi, r.var_max_pi, r.convergence_fraction)
        for r in res.per_size
    ]
    doc = {"per_size": [dict(zip(header, row)) for row in rows]}
    worst = min(r.convergence_fraction for r in res.per_size)
    summary = f"wisdom: sizes={list(sizes)} min_convergence_fraction={worst:.3f}"
    code = EXIT_OK if worst >= 0.5 else EXIT_NO_CONVERGENCE
    return rows, header, doc, summary, code


def _speed_spec(params):
    a, b = _beta_marginals(params)
    with _user_input(f"--mu {params['mu']}"):
        return generators.DirichletRows(np.array([[a, b], [a, b]], dtype=float))


def _cmd_speed2x2(params):
    spec = _speed_spec(params)
    res = engine.convergence_time_2x2(
        spec,
        phi=params["phi"],
        replicas=params["replicas"],
        t_cap=params.get("tcap"),
        seed=params["seed"],
    )
    header = ["replica", "t_phi"]
    rows = list(enumerate(res.samples))
    doc = {"mean_t_phi": res.mean_t_phi, "capped": res.capped, "samples": list(res.samples)}
    summary = f"speed2x2: mean_t_phi={res.mean_t_phi:.4f} over {len(res.samples)} replicas"
    return rows, header, doc, summary, EXIT_OK


def _cmd_energy(params):
    mu = build_energy_mu(params)
    value = engine.log_energy(mu)
    doc = {"i_mu": value}
    summary = f"energy: I_mu={value:.10f}"
    return [(value,)], ["i_mu"], doc, summary, EXIT_OK


def _load_distribution(params):
    if params.get("dist"):
        return _read_json(params["dist"], fragmentation.GraphDistribution.from_dict)
    if params.get("islands"):
        with _user_input("--islands"):
            g, ps, pd = _items(params["islands"])
            return fragmentation.islands_distribution(int(g), float(ps), float(pd))
    raise _UsageError("need --dist or --islands")


def _cmd_pmax(params):
    dist = _load_distribution(params)
    try:
        report = fragmentation.p_max(dist)
    except SizeLimit as exc:  # raised before any enumeration: the law is past both limits
        raise _UsageError(f"--dist: {exc}") from exc
    doc = report.to_dict()
    header = ["p_max", "pi_g_empty", "predicted_rate"]
    rows = [(float(report.p_max), report.pi_g_empty, report.predicted_rate)]
    summary = f"pmax: p_max={float(report.p_max):.10g} rate={report.predicted_rate}"
    return rows, header, doc, summary, EXIT_OK


def _cmd_rate(params):
    if params.get("dist"):
        spec = fragmentation.metropolis_mixture(_load_distribution(params))
    else:
        spec = build_spec(params)
    grid = params["tgrid"]
    with _user_input("--tgrid"):
        if isinstance(grid, str) and ":" in grid:
            lo, hi = grid.split(":")
            t_grid = list(range(int(lo), int(hi) + 1))
        else:
            t_grid = [int(v) for v in _items(grid)]
    try:
        report = fragmentation.decay_rate_estimate(
            spec,
            epsilon=params["epsilon"],
            t_grid=t_grid,
            replicas=params["replicas"],
            seed=params["seed"],
        )
    except Unsupported as exc:  # raised only by the law checks, before any replica runs
        raise _UsageError(f"{'--dist' if params.get('dist') else _law_flag(params)}: {exc}") from exc
    header = ["t", "count", "logprob"]
    rows = list(zip(report.t_grid, report.counts, report.per_t_logprob))
    doc = {
        "empirical_rate": report.empirical_rate,
        "t_grid": list(report.t_grid),
        "counts": list(report.counts),
        "per_t_logprob": list(report.per_t_logprob),
    }
    summary = f"rate: empirical_rate={report.empirical_rate}"
    return rows, header, doc, summary, EXIT_OK


def _cmd_disagree(params):
    spec = build_spec(params)
    rep = engine.disagreement_degree(
        spec,
        replicas=params["replicas"],
        t_max=params["tmax"],
        seed=params["seed"],
    )
    header = ["rank", "frequency"]
    rows = sorted(rep.rank_histogram.items())
    doc = {
        "eta_estimate": rep.eta_estimate,
        "rank_histogram": {str(k): v for k, v in rep.rank_histogram.items()},
        "support_atoms": None if rep.support_atoms is None else [
            {"matrix": m.entries.tolist(), "frequency": f} for m, f in rep.support_atoms
        ],
    }
    summary = f"disagree: eta={rep.eta_estimate} histogram={rep.rank_histogram}"
    return rows, header, doc, summary, EXIT_OK


def _cmd_check_c(params):
    spec = build_spec(params)
    rep = engine.check_condition_c(
        spec,
        horizon=params["horizon"],
        replicas=params["replicas"],
        seed=params["seed"],
    )
    doc = {"verdict": rep.verdict, "method": rep.method, "evidence": rep.evidence, "horizon": rep.horizon}
    rows = [(rep.verdict, rep.method, rep.evidence, rep.horizon)]
    header = ["verdict", "method", "evidence", "horizon"]
    summary = f"check-c: {rep.verdict} via {rep.method}"
    return rows, header, doc, summary, EXIT_OK


def _load_spec_file(path):
    return _read_json(path, generators.GeneratorSpec.from_dict)


def _cmd_skeleton(params):
    spec_a, spec_b = map(_load_spec_file, _required(params, "skeleton", ("spec_a", "spec_b")).values())
    if spec_a.n != spec_b.n:
        raise _UsageError(f"--spec-a has n = {spec_a.n} agents but --spec-b has n = {spec_b.n}")
    try:
        rep = engine.skeleton_equivalence_test(
            spec_a, spec_b,
            horizon=params["horizon"],
            replicas=params["replicas"],
            seed=params["seed"],
        )
    except (NotIid, Unsupported) as exc:  # raised only by the law checks, before any replica runs
        # the test checks that both laws are iid, then reads A's support, then B's
        at_a = not spec_a.is_iid
        if isinstance(exc, Unsupported):
            try:
                spec_a.support()
            except Unsupported:
                at_a = True
        raise _UsageError(f"{'--spec-a' if at_a else '--spec-b'}: {exc}") from exc
    doc = {
        "same_initial_skeleton": rep.same_initial_skeleton,
        "verdict_a": rep.verdict_a.verdict,
        "verdict_b": rep.verdict_b.verdict,
        "agree": rep.agree,
    }
    rows = [(rep.same_initial_skeleton, rep.verdict_a.verdict, rep.verdict_b.verdict, rep.agree)]
    header = ["same_initial_skeleton", "verdict_a", "verdict_b", "agree"]
    summary = (f"skeleton: same={rep.same_initial_skeleton} "
               f"A={rep.verdict_a.verdict} B={rep.verdict_b.verdict} agree={rep.agree}")
    return rows, header, doc, summary, EXIT_OK


def _cmd_semigroup(params):
    mats = _read_json(_required(params, "semigroup", ("support",))["support"],
                      lambda doc: [StochasticMatrix(m) for m in doc])
    if len({m.n for m in mats}) > 1:
        raise _UsageError(f"--support matrices differ in size: n = {', '.join(str(m.n) for m in mats)}")
    rep = engine.semigroup_explore(mats, max_len=params["max_len"])
    doc = {
        "min_rank": rep.min_rank,
        "elements": rep.elements,
        "rank_one_atoms": [m.entries.tolist() for m in rep.rank_one_atoms],
        "skeletons": [s.mask.astype(int).tolist() for s in sorted(rep.skeletons, key=lambda s: s.mask.tobytes())],
    }
    rows = [(rep.min_rank, rep.elements, len(rep.rank_one_atoms), len(rep.skeletons))]
    header = ["min_rank", "elements", "rank_one_atoms", "skeletons"]
    summary = f"semigroup: elements={rep.elements} min_rank={rep.min_rank} rank_one={len(rep.rank_one_atoms)}"
    return rows, header, doc, summary, EXIT_OK


def _cmd_conjugacy(params):
    spec = build_spec(params)
    phi = params.get("phi")
    if phi is not None:
        with _user_input("--phi"):
            phi = [float(v) for v in _items(phi)]
    try:
        res = wisdom.dirichlet_conjugacy_test(
            spec,
            replicas=params["replicas"],
            seed=params["seed"],
            phi=phi,
            t_max=params["tmax"],
        )
    except (Unsupported, BalanceViolation) as exc:  # raised only by the law checks, before any replica runs
        raise _UsageError(f"{_law_flag(params)}: {exc}") from exc
    doc = dict(res)
    doc["phi"] = list(res["phi"])
    rows = [(res["pass"], res["mean_err"], res["var_err"])]
    header = ["pass", "mean_err", "var_err"]
    summary = f"conjugacy: pass={res['pass']} mean_err={res['mean_err']:.5f} var_err={res['var_err']:.6f}"
    return rows, header, doc, summary, EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "influence": _cmd_influence,
    "wisdom": _cmd_wisdom,
    "speed2x2": _cmd_speed2x2,
    "energy": _cmd_energy,
    "pmax": _cmd_pmax,
    "rate": _cmd_rate,
    "disagree": _cmd_disagree,
    "check-c": _cmd_check_c,
    "skeleton": _cmd_skeleton,
    "semigroup": _cmd_semigroup,
    "conjugacy": _cmd_conjugacy,
}


def run(argv) -> int:
    # argv[0] is the subcommand whenever the parse can succeed
    parser = make_parser(argv[0] if argv and argv[0] in _SUBCOMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        params = _collect_params(argv, args)
    except _UsageError as exc:
        print(f"usage error: bad config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        rows, header, doc, summary, code = _COMMANDS[args.command](params)
    except _RUN_OUTCOMES as exc:
        what = "no convergence" if isinstance(exc, NoConvergence) else type(exc).__name__
        print(f"{args.command}: {what}: {exc}")
        return EXIT_NO_CONVERGENCE
    except (_UsageError, InvalidArgument) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DegrootNetError, OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    out = params.get("out")
    if out:
        try:
            if params["format"] == "csv":
                emit(rows, "csv", out, header=header)
            else:
                emit(doc, "json", out)
        except OSError as exc:
            print(f"error: cannot write {out}: {exc}", file=sys.stderr)
            return EXIT_INTERNAL
    print(summary)
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
