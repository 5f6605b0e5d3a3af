"""One workload in one fresh, single-process interpreter.

Started by run.py.  ``main`` sets the BLAS and OpenMP thread variables to 1
before numpy loads, imports degrootnet from the checkout's ``src``, writes the
workload's input files, then feeds the jobs to ``degrootnet.cli.run`` one
after another (closed loop, one client) until the measuring time is used.
Prints one JSON document on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

import jobs as joblist

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CAL_STEPS = 5000


def clock():
    # CLOCK_MONOTONIC is system-wide, so run.py can compare it with its own.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def judge(job, code, data, golden, first):
    """Why one job failed, or None: exit code, output check and hashes."""
    if code != 0:
        return f"exit code {code}"
    digest = hashlib.sha256(data).hexdigest()
    if golden is not None and digest != golden:
        return "output differs from the recorded SHA-256"
    if first is not None and digest != first:
        return "output differs from an earlier pass of the same job"
    try:
        ok = job.check(data.decode())
    except (ValueError, IndexError, KeyError, UnicodeDecodeError):
        ok = False
    return None if ok else "output check failed"


def output_path(job):
    return job.argv[job.argv.index("--out") + 1]


def run_job(job, tracer):
    """Run one job; returns (exit code, output bytes, seconds)."""
    from degrootnet import cli

    out = output_path(job)
    if os.path.exists(out):
        os.remove(out)
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            if tracer is None:
                code = cli.run(list(job.argv))
            else:
                code = tracer.job(job.id, cli.run, list(job.argv))
    except Exception:  # a crash is a failed job, not a crashed benchmark
        traceback.print_exc()
        code = -1
    seconds = time.perf_counter() - start
    data = b""
    if os.path.exists(out):
        with open(out, "rb") as fh:
            data = fh.read()
    return code, data, seconds


def run_pass(jobs, golden, first_hashes, tracer=None):
    per_job = {}
    failures = []
    start = time.perf_counter()
    for job in jobs:
        before = tracer.snapshot() if tracer is not None else None
        code, data, seconds = run_job(job, tracer)
        why = judge(job, code, data, golden.get(job.id), first_hashes.get(job.id))
        first_hashes.setdefault(job.id, hashlib.sha256(data).hexdigest())
        if why is not None:
            failures.append({"job": job.id, "why": why})
            print(f"FAILED {job.id}: {why}", file=sys.stderr)
        per_job[job.id] = {"seconds": seconds}
        if tracer is not None:
            stats, counts = tracer.diff(before, tracer.snapshot())
            per_job[job.id]["stats"] = stats
            per_job[job.id]["counts"] = counts
    return {"wall_s": time.perf_counter() - start, "jobs": per_job, "failures": failures}


def traced_metrics(traced, plain):
    """Per-layer metrics: median over traced passes; counts must repeat."""
    from tracer import layer_metrics, repeatable_counts

    per_pass = [layer_metrics(p["stats"], p["counts"]) for p in traced]
    counts = [repeatable_counts(p["stats"], p["counts"]) for p in traced]
    # counts repeat, so they come from the first pass; times are medians
    metrics = {name: (value if unit in ("count", "B") else
                      statistics.median(m[name][0] for m in per_pass), unit)
               for name, (value, unit) in per_pass[0].items()}
    metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                   - statistics.median(p["wall_s"] for p in plain), "s")
    return metrics, all(c == counts[0] for c in counts[1:]), counts[0]


def calibrate():
    """Seconds taken by a fixed kernel with the program's mix of small numpy calls.

    A shared host can drift between speed regimes that last from seconds to
    minutes and move every pass time by up to ~1.8x.  The kernel slows
    down with the host but not with the program, so a pass time divided by
    the kernel time around it keeps program changes and drops host drift.
    """
    import numpy as np

    rng = np.random.default_rng(12345)
    alpha = np.ones((5, 5))
    prod = np.eye(5)
    seen = set()
    start = time.perf_counter()
    for i in range(CAL_STEPS):
        g = rng.gamma(alpha)
        prod = (g / g.sum(axis=1, keepdims=True)) @ prod
        if i % 64 == 63:
            prod = np.eye(5)
        seen.add((prod > 0.2).tobytes())
    return time.perf_counter() - start


def provenance():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=joblist.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--golden", default="{}", help="JSON {job id: sha256}")
    p.add_argument("--probe", action="store_true", help="stop once set-up is done")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)

    # before numpy loads, so that no layer starts more threads than nproc
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("DEGROOT_THREADS", None)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import degrootnet  # noqa: F401  (set-up includes the import)

    workdir = os.path.join(args.workdir, args.workload)
    joblist.write_inputs(workdir)
    jobs = joblist.build_jobs(args.workload, args.seed, workdir, smoke=args.smoke)
    ready = clock()
    cal = calibrate()
    if args.probe:
        print(json.dumps({"ready": ready, "cal_s": cal}))
        return 0

    golden = json.loads(args.golden)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    first_hashes = {}
    plain, traced = [], []
    start = time.perf_counter()
    cals = [cal]
    while True:
        # Traced and untraced passes alternate, so both see the same drift.
        use_trace = tracer is not None and len(traced) < len(plain)
        if use_trace:
            tracer.reset()
            tracer.install()
            try:
                result = run_pass(jobs, golden, first_hashes, tracer)
            finally:
                tracer.uninstall()
            result["stats"], result["counts"] = tracer.snapshot()
            result["spans"] = tracer.spans
            traced.append(result)
        else:
            plain.append(result := run_pass(jobs, golden, first_hashes))
        cals.append(calibrate())
        result["cal_s"] = (cals[-2] + cals[-1]) / 2
        elapsed = time.perf_counter() - start
        done = plain and (tracer is None or len(traced) >= 2)
        if done and elapsed + result["wall_s"] > args.seconds:
            break

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    doc = {
        "ready": ready,
        "cal_s": cal,
        "peak_rss_mb": rss_mb,
        "hashes": first_hashes,
        "plain": plain,
        "traced": traced,
        "provenance": provenance(),
    }
    if traced:
        doc["per_layer"], doc["counts_repeat"], doc["counts"] = traced_metrics(traced, plain)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
