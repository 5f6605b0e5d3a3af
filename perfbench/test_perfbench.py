"""Self-tests of the benchmark harness.

The smoke test runs every workload's job list at minimal replica counts,
traced and untraced, and checks that every metric BENCHMARK.json names is
printed with its unit and lands in the JSON line; a broken harness fails
here in seconds.  Run with ``python3 -m pytest perfbench``.
"""

import hashlib
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import jobs as joblist  # noqa: E402
import worker  # noqa: E402


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _smoke(trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "all", "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _check_smoke(trace, kind):
    lines = _smoke(trace)
    doc = json.loads(lines[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] > 0
    declared = _declared(kind)
    for workload in joblist.WORKLOADS:
        for name, unit in declared.items():
            metric = doc["metrics"][f"{workload}/{name}"]
            assert metric["unit"] == unit
            assert isinstance(metric["value"], (int, float))
            pattern = rf"^\[{workload}\] {re.escape(name)} \S+ {re.escape(unit)}$"
            assert any(re.match(pattern, ln) for ln in lines), (workload, name)
    return lines


def test_smoke_end_to_end_metrics():
    lines = _check_smoke(0, "end_to_end")
    for workload in joblist.WORKLOADS:
        assert f"[{workload}] fail_frac 0.0 ratio" in lines


def test_smoke_per_layer_metrics_and_repeatable_counts():
    lines = _check_smoke(1, "per_layer")
    for workload in joblist.WORKLOADS:
        assert any(ln.startswith(f"[{workload}] counts repeat exactly") and ln.endswith("True")
                   for ln in lines)


def test_one_byte_change_is_a_failed_job(tmp_path, monkeypatch):
    from degrootnet import cli

    joblist.write_inputs(str(tmp_path))
    jobs = [j for j in joblist.build_jobs("certify-exact", 0, str(tmp_path), smoke=True)
            if j.id in ("energy.arcsine", "pmax.subsets")]
    clean = worker.run_pass(jobs, {}, {})
    assert clean["failures"] == []
    golden = {}
    for job in jobs:
        with open(worker.output_path(job), "rb") as fh:
            golden[job.id] = hashlib.sha256(fh.read()).hexdigest()

    original = cli.emit

    def emit_one_byte_off(rows_or_doc, fmt, path, header=None):
        original(rows_or_doc, fmt, path, header=header)
        if path.endswith("energy.arcsine.csv"):
            with open(path, "r+b") as fh:
                first = fh.read(1)
                fh.seek(0)
                fh.write(b"I" if first != b"I" else b"J")

    monkeypatch.setattr(cli, "emit", emit_one_byte_off)
    result = worker.run_pass(jobs, golden, {})
    assert [f["job"] for f in result["failures"]] == ["energy.arcsine"]
    assert "SHA-256" in result["failures"][0]["why"]
