"""The byte contract: CLI output files hash to their recorded SHA-256.

Every benchmark job (perfbench/jobs.py) runs once in process at workload
seeds 0 and 7, through the harness's own ``worker.run_job`` and
``worker.judge``, against ``perfbench/reference.json``.  A change that moves
output bytes on purpose re-records that file in a benchmark change, and this
test follows it.  ``PINNED`` fixes small runs of commands no benchmark job
covers, with hashes recorded before the serial product loops were folded
into engine._lockstep; a change that moves them says why.  Each of these
runs also replays from its own resolved parameters, written by
``cli.serialize_config`` and read back with ``--config``, to the same bytes.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

import pytest

from degrootnet import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import jobs as joblist  # noqa: E402
import worker  # noqa: E402

with open(os.path.join(PERFBENCH, "reference.json")) as fh:
    REFERENCE = json.load(fh)["hashes"]


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("workload", joblist.WORKLOADS)
def test_benchmark_jobs_match_the_recorded_hashes(tmp_path, workload, seed):
    joblist.write_inputs(str(tmp_path))
    golden = REFERENCE[str(seed)][workload]
    jobs = joblist.build_jobs(workload, seed, str(tmp_path))
    assert sorted(job.id for job in jobs) == sorted(golden)
    failures = {}
    for job in jobs:
        code, data, _seconds = worker.run_job(job, None)
        why = worker.judge(job, code, data, golden[job.id], None)
        if why is not None:
            failures[job.id] = why
    assert failures == {}


# name: (argv without --out, SHA-256 of the output file); input files are perfbench's
PINNED = {
    "simulate.ring4.csv": (["simulate", "--model", "ring", "--n", "4", "--p0", "0.1,0.9,0.4,0.6", "--steps", "40",
                            "--seed", "5", "--format", "csv"],
                           "fb50383f28bc64d91ff389d91299e74402ac7f4a6c88da6505538a0831b80ae7"),
    "simulate.ring4.json": (["simulate", "--model", "ring", "--n", "4", "--p0", "0.1,0.9,0.4,0.6", "--steps", "40",
                             "--seed", "5", "--format", "json"],
                            "c3787dd80f8a0141d23eedb61f38eaf9bc615286f837436cfcbaa0b7c3b3a37e"),
    "simulate.stubborn.csv": (["simulate", "--spec", "{stubborn.json}", "--p0", "1,0,0.5", "--steps", "30",
                               "--seed", "2", "--format", "csv"],
                              "afd8ef5346d86f0fc658b1bce893cde12d9886e23f62aa218077bc863961daa6"),
    "pmax.dist": (["pmax", "--dist", "{c10_mixture.json}", "--format", "json"],
                  "7d7d5c7673c292669ab2bce4eea385c7bf3cbf957362a59f224d0c8e6bc9f1f1"),
    "rate.model": (["rate", "--model", "mix-identity", "--n", "3", "--zeta", "0.5", "--replicas", "300",
                    "--tgrid", "1:10", "--seed", "3"],
                   "a84c5b4c104f9b200b5d7417a19a732833d2e825967f96187af95907f4f6029b"),
    "influence.islands": (["influence", "--model", "islands", "--g", "2", "--ps", "0.8", "--pd", "0.3",
                           "--replicas", "30", "--tmax", "500", "--seed", "4"],
                          "70b184d9b551947d7fb4c2c7b8015b390680022e922b0a07a7191fae5ae1f477"),
    "influence.leader-follower": (["influence", "--model", "leader-follower", "--n", "4", "--replicas", "30",
                                   "--tmax", "500", "--seed", "6"],
                                  "c55aee0bdd1e8df6755bfe4c4eeea89b691e599dcd5ea21a0d320bf469bb73bf"),
    "wisdom.mix-identity": (["wisdom", "--family", "mix-identity", "--sizes", "3,4", "--replicas", "30",
                             "--tmax", "2000", "--seed", "8"],
                            "117b5038662a1f8f055162259712201f6a47673d6c0e7e5336c633d5756854b0"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_runs_match_their_hashes(tmp_path, name):
    joblist.write_inputs(str(tmp_path))
    argv, digest = PINNED[name]
    argv = [str(tmp_path / a[1:-1]) if a.startswith("{") else a for a in argv]  # {name}: an input file
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(argv + ["--out", str(out)]) == cli.EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def replays_from_its_config(tmp_path, monkeypatch, argv):
    """Why the run of ``argv`` (with --out) and the run of its resolved config differ, or None."""
    command = argv[0]
    seen, handler = [], cli._COMMANDS[command]
    out = argv[argv.index("--out") + 1]
    with monkeypatch.context() as patch, contextlib.redirect_stdout(io.StringIO()):
        patch.setitem(cli._COMMANDS, command, lambda params: seen.append(params) or handler(params))
        if cli.run(argv) != cli.EXIT_OK:
            return "the run failed"
        params = dict(seen[0], out=str(tmp_path / "replayed"))
        config = tmp_path / "config.json"
        config.write_text(cli.serialize_config(command, params))
        if cli.run([command, "--config", str(config)]) != cli.EXIT_OK:
            return "the replay failed"
    if seen[1] != params:
        return f"resolved {seen[1]}, not {params}"
    with open(out, "rb") as fh:
        want = fh.read()
    return None if (tmp_path / "replayed").read_bytes() == want else "output bytes differ"


@pytest.mark.parametrize("workload", joblist.WORKLOADS)
def test_benchmark_jobs_replay_from_their_resolved_config(tmp_path, monkeypatch, workload):
    joblist.write_inputs(str(tmp_path))
    failures = {}
    for job in joblist.build_jobs(workload, 0, str(tmp_path)):
        why = replays_from_its_config(tmp_path, monkeypatch, list(job.argv))
        if why is not None:
            failures[job.id] = why
    assert failures == {}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_runs_replay_from_their_resolved_config(tmp_path, monkeypatch, name):
    joblist.write_inputs(str(tmp_path))
    argv = [str(tmp_path / a[1:-1]) if a.startswith("{") else a for a in PINNED[name][0]]
    assert replays_from_its_config(tmp_path, monkeypatch, argv + ["--out", str(tmp_path / "out")]) is None
