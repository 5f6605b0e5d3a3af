"""Workload definitions: input files, job lists and output checks.

A job is one ``degrootnet`` CLI invocation.  Every job passes ``--workers``
explicitly and derives its ``--seed`` from the workload seed, so that at
the default seed 0 each job runs at its acceptance criterion's own seed.
This module uses only the standard library, so the check functions can be
imported without the program.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass

WORKLOADS = ("influence-long", "replica-churn", "certify-exact")
DEFAULT_SEED = 0
SEED_STRIDE = 100_000
MASK64 = (1 << 64) - 1

# Subcommands whose summed job time is reported as <name>_s.
TIMED_SUBCOMMANDS = ("influence", "conjugacy", "wisdom", "speed2x2", "rate",
                     "disagree", "check-c", "pmax")


def sub_metric(subcommand: str) -> str:
    return subcommand.replace("-", "_") + "_s"


def job_seed(base: int, seed: int) -> int:
    """Seed of one job: its criterion seed at seed 0, shifted otherwise."""
    return (base + SEED_STRIDE * seed) & MASK64


@dataclass(frozen=True)
class Job:
    id: str
    argv: tuple
    check: object  # callable(text) -> bool, raising counts as False

    @property
    def subcommand(self) -> str:
        return self.argv[0]


# --- input files --------------------------------------------------------------


def _h(kappa):
    return [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [kappa, 1.0 - kappa, 0.0]]


_G_PERM = [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
_K4 = [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]
_TWO_EDGES = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
_CYCLE6 = [[1.0 if j == (i + 1) % 6 else 0.0 for j in range(6)] for i in range(6)]

INPUTS = {
    # C12: the flat 2x2 network perturbed with epsilon = 8
    "flat2.json": [[0.5, 0.5], [0.5, 0.5]],
    # C07: stubborn-agent mixture of h(0.3) and a transposition
    "stubborn.json": {"model": "finite_mixture", "atoms": [_h(0.3), _G_PERM], "probs": [0.5, 0.5]},
    "stubborn_support.json": [_h(0.3), _G_PERM],
    # C10: lazy-Metropolis mixture over K4 and two disjoint edges, q = 0.3
    "c10_mixture.json": {"n": 4, "atoms": [{"adjacency": _K4, "prob": 0.7},
                                            {"adjacency": _TWO_EDGES, "prob": 0.3}]},
    "c10_k4.json": {"n": 4, "atoms": [{"adjacency": _K4, "prob": 1.0}]},
    # C04: one-sided listening pair
    "c04_random.json": {"model": "dirichlet_rows", "alpha": [[1.0, 1.0], [0.0, 1.0]]},
    "c04_fixed.json": {"model": "fixed", "matrix": [[0.5, 0.5], [0.0, 1.0]]},
    # sticky weights over a fixed 6-cycle: products stay permutations
    "ar1_cycle.json": {"model": "ar1_mixture", "xi": 0.5, "t0": _CYCLE6,
                       "source": {"model": "fixed", "matrix": _CYCLE6}},
}


def write_inputs(workdir: str) -> None:
    os.makedirs(workdir, exist_ok=True)
    for name, doc in INPUTS.items():
        with open(os.path.join(workdir, name), "w") as fh:
            json.dump(doc, fh)


# --- output checks ------------------------------------------------------------


def _rows(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _close(a, b, tol):
    return abs(float(a) - float(b)) <= tol


def check_influence(n, replicas, gap_tol):
    def check(text):
        header, rows = _rows(text)
        if header != ["replica", "gap"] + [f"pi_{i + 1}" for i in range(n)]:
            return False
        if not replicas / 2 <= len(rows) <= replicas:
            return False
        for row in rows:
            pi = [float(v) for v in row[2:]]
            if float(row[1]) > gap_tol or min(pi) < 0 or not _close(sum(pi), 1.0, 1e-9):
                return False
        return True
    return check


def check_conjugacy(max_mean_err, max_var_err):
    # phi = (4, 4): pi_1 ~ Beta(4, 4) with mean 1/2 and variance 1/36
    def check(text):
        header, rows = _rows(text)
        return (header == ["pass", "mean_err", "var_err"] and len(rows) == 1
                and float(rows[0][1]) < max_mean_err and float(rows[0][2]) < max_var_err)
    return check


def check_wisdom(sizes):
    def check(text):
        header, rows = _rows(text)
        return (header[0] == "n" and [int(r[0]) for r in rows] == list(sizes)
                and all(float(r[-1]) >= 0.5 and float(r[1]) < 0.25 for r in rows))
    return check


def check_speed(replicas):
    def check(text):
        header, rows = _rows(text)
        return (header == ["replica", "t_phi"] and len(rows) == replicas
                and all(int(r[1]) >= 0 for r in rows))
    return check


def check_rate(connected_always):
    def check(text):
        header, rows = _rows(text)
        counts = [int(r[1]) for r in rows]
        if header != ["t", "count", "logprob"] or len(rows) != 40:
            return False
        if any(a < b for a, b in zip(counts, counts[1:])):
            return False
        return counts[-1] == 0 if connected_always else counts[0] > 0
    return check


def check_disagree(text):
    header, rows = _rows(text)
    freqs = {int(r[0]): float(r[1]) for r in rows}
    return (header == ["rank", "frequency"] and _close(sum(freqs.values()), 1.0, 1e-9)
            and freqs.get(2, 0) >= 0.9)


def check_verdict(verdict, method):
    def check(text):
        _header, rows = _rows(text)
        return len(rows) == 1 and rows[0][0] == verdict and rows[0][1] == method
    return check


def check_skeleton(text):
    _header, rows = _rows(text)
    return rows == [["True", "fails", "fails", "True"]]


def check_pmax(text):
    _header, rows = _rows(text)
    return len(rows) == 1 and _close(rows[0][0], 0.7, 1e-12)


def check_semigroup(text):
    _header, rows = _rows(text)
    return rows == [["2", "6", "0", "4"]]


def check_energy(text):
    _header, rows = _rows(text)
    return len(rows) == 1 and _close(rows[0][0], math.log(4.0), 1e-3)


# --- job lists ----------------------------------------------------------------


def build_jobs(workload: str, seed: int, workdir: str, smoke: bool = False) -> list:
    """The job list of one workload; ``smoke`` shrinks replica counts."""
    def reps(full, small):
        return small if smoke else full

    def path(name):
        return os.path.join(workdir, name)

    def job(job_id, argv, base_seed, check):
        args = [str(a) for a in argv]
        args += ["--seed", str(job_seed(base_seed, seed)), "--out", path(job_id + ".csv")]
        if "--workers" not in args:
            args += ["--workers", "1"]
        return Job(job_id, tuple(args), check)

    if workload == "influence-long":
        r5, r20, rb, rc, rw = reps(200, 8), reps(20, 2), reps(600, 8), reps(600, 8), reps(60, 4)
        return [
            job("influence.ring5", ["influence", "--model", "ring", "--n", 5, "--replicas", r5,
                                    "--tmax", 2000], 1003, check_influence(5, r5, 1e-8)),
            job("influence.ring20", ["influence", "--model", "ring", "--n", 20, "--replicas", r20,
                                     "--tmax", 30000, "--gap-tol", "1e-6"], 1023,
                check_influence(20, r20, 1e-6)),
            job("influence.beta2x2", ["influence", "--model", "beta2x2", "--alpha", 1,
                                      "--replicas", rb, "--tmax", 300], 1002,
                check_influence(2, rb, 1e-8)),
            job("conjugacy.perturbed8", ["conjugacy", "--model", "perturbed", "--matrix",
                                         path("flat2.json"), "--eps", 8, "--replicas", rc,
                                         "--tmax", 500, "--workers", 2], 1021,
                check_conjugacy(0.05, 0.01) if not smoke else check_conjugacy(0.5, 0.25)),
            job("wisdom.ring", ["wisdom", "--family", "ring", "--sizes", "5,10",
                                "--replicas", rw], 1003, check_wisdom((5, 10))),
        ]
    if workload == "replica-churn":
        rs, rr, re, rd = reps(1000, 20), reps(4000, 400), reps(300, 10), reps(300, 100)
        return [
            job("speed2x2.uniform", ["speed2x2", "--mu", "uniform-indep", "--phi", "1e-6",
                                     "--replicas", rs], 1005, check_speed(rs)),
            job("speed2x2.arcsine", ["speed2x2", "--mu", "arcsine-indep", "--phi", "1e-6",
                                     "--replicas", rs], 1011, check_speed(rs)),
            job("rate.c10", ["rate", "--dist", path("c10_mixture.json"), "--epsilon", 0.5,
                             "--tgrid", "1:40", "--replicas", rr], 1010, check_rate(False)),
            job("rate.k4", ["rate", "--dist", path("c10_k4.json"), "--epsilon", 0.5,
                            "--tgrid", "1:40", "--replicas", rr], 1011, check_rate(True)),
            job("influence.encounter", ["influence", "--model", "encounter2x2", "--eps", 0.1,
                                        "--pmeet", 0.5, "--replicas", re, "--tmax", 500], 1001,
                check_influence(2, re, 1e-8)),
            job("disagree.stubborn", ["disagree", "--spec", path("stubborn.json"), "--tmax", 200,
                                      "--replicas", rd], 1007, check_disagree),
        ]
    if workload == "certify-exact":
        ri, ra = reps(40, 4), reps(50, 4)
        return [
            job("check_c.beta2x2", ["check-c", "--model", "beta2x2", "--alpha", 1], 3001,
                check_verdict("holds", "support_analytic")),
            job("check_c.ring6", ["check-c", "--model", "ring", "--n", 6], 3002,
                check_verdict("holds", "skeleton_semigroup")),
            job("check_c.islands", ["check-c", "--model", "islands", "--g", 3, "--ps", 0.8,
                                    "--pd", 0.3, "--replicas", ri], 3003,
                check_verdict("holds", "monte_carlo_positivity")),
            job("check_c.ar1_cycle", ["check-c", "--spec", path("ar1_cycle.json"),
                                      "--replicas", ra], 3004,
                check_verdict("undetermined", "contraction_integral")),
            job("skeleton.c04", ["skeleton", "--spec-a", path("c04_random.json"), "--spec-b",
                                 path("c04_fixed.json"), "--horizon", 32, "--replicas", 100],
                1004, check_skeleton),
            job("pmax.subsets", ["pmax", "--islands", "2,0.8,0.3"], 3005, check_pmax),
            job("pmax.cuts", ["pmax", "--islands", "3,0.8,0.3", "--method", "cuts"], 3006,
                check_pmax),
            job("semigroup.c07", ["semigroup", "--support", path("stubborn_support.json")], 1007,
                check_semigroup),
            job("energy.arcsine", ["energy", "--mu", "arcsine-indep"], 3007, check_energy),
        ]
    raise ValueError(f"unknown workload {workload!r}")
