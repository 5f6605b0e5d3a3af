"""degrootnet benchmark: Monte Carlo workloads through the CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload influence-long --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1
    python3 -m pytest perfbench            # smoke mode and self-tests

Each workload runs in its own fresh interpreter (perfbench/worker.py), which
feeds a fixed job list to ``degrootnet.cli.run`` one job after another and
checks every job's exit code, its output against a check of what the
subcommand must produce, and its output bytes against the SHA-256 recorded
in perfbench/reference.json for this seed (where one is recorded) and
against the job's own earlier passes.

With ``--trace 0`` the end-to-end metrics are measured with tracing off.
``ref_wall_s`` (the job list's wall time) and ``setup_s`` (fresh interpreter
until the first job can start) are scaled to a reference machine speed:
each is multiplied by REF_CAL_S over the time a fixed calibration kernel
(worker.calibrate) took in the same process right next to it.  That keeps
program changes and drops the shared host's speed drift; the raw times are
printed as ``wall_s`` and ``setup_raw_s``.

With ``--trace 1`` traced and untraced passes alternate; the per-layer
metrics come from the traced passes, their counts must repeat exactly
between traced passes, and ``trace.overhead_s`` is the difference of the
two wall times.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
result, with provenance, per-pass times and spans, is written to
perfbench/results/.

``--record`` stores the output hashes of this seed in reference.json; with
``--trace 1`` it also stores the per-call baseline.  Re-record only in a
change that alters output bytes on purpose, and say why in that change.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import jobs as joblist  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")
RESULTS = os.path.join(HERE, "results")
WORKDIR = os.path.join(HERE, ".work")
SETUP_PROBES = 6
WORKER_TIMEOUT_S = 170
# Kernel time (worker.calibrate) that defines the reference machine speed:
# about the kernel's time on a 2-core Intel Xeon with numpy 2.4 and one OpenBLAS thread.
REF_CAL_S = 0.125

MEASUREMENT_LIMITS = ("no hardware performance counters; no page-cache dropping or other "
                      "machine settings; every figure is measured from the benchmark's own "
                      "processes")


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class HarnessError(Exception):
    pass


def spawn_worker(args, workload, probe=False):
    """Run worker.py in a fresh interpreter; returns (start clock, parsed stdout)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", WORKDIR, "--golden", json.dumps(args.golden.get(workload, {}))]
    if probe:
        cmd.append("--probe")
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("DEGROOT_THREADS", None)
    start = clock()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise HarnessError(f"{workload}: worker exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise HarnessError(f"{workload}: worker exited with code {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise HarnessError(f"{workload}: worker printed nothing")
    return start, json.loads(lines[-1])


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return "unknown (not a git checkout)"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = os.path.join(ROOT, ".git", name)
    if os.path.exists(loose):
        with open(loose) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.exists(packed):
        with open(packed) as fh:
            for line in fh:
                if line.strip().endswith(" " + name):
                    return line.split()[0]
    return "unknown"


def machine():
    cpu, ram = "unknown", "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
        with open("/proc/meminfo") as fh:
            kib = next(int(ln.split()[1]) for ln in fh if ln.startswith("MemTotal"))
            ram = f"{kib / 1024 / 1024:.1f} GiB"
    except (OSError, StopIteration, ValueError):
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "ram": ram,
            "python": platform.python_version()}


def median(values):
    return statistics.median(values) if values else 0.0


def sub_times(passes, workload_jobs):
    """Median over passes of each subcommand's summed job time."""
    out = {}
    for sub in joblist.TIMED_SUBCOMMANDS:
        ids = [j.id for j in workload_jobs if j.subcommand == sub]
        if ids:
            out[joblist.sub_metric(sub)] = median([sum(p["jobs"][i]["seconds"] for i in ids)
                                                   for p in passes])
    return out


# (job, traced frame, baseline name): microseconds per call of that frame
PER_CALL = (
    ("influence.ring5", "generators.dirichlet_rows", "dirichlet_ring5_us_per_draw"),
    ("disagree.stubborn", "generators.finite_mixture", "finite_mixture_us_per_draw"),
    ("rate.c10", "seeding.stream", "stream_init_us"),
    ("check_c.islands", "matrices.dobrushin", "dobrushin_us_per_call"),
)


def per_call_baseline(traced):
    """The per-call costs ROADMAP items 2-4 start from: medians over traced passes."""
    out = {}
    for job_id, frame, name in PER_CALL:
        values = [1e6 * st[1] / st[0] for p in traced
                  if (st := p["jobs"].get(job_id, {}).get("stats", {}).get(frame))]
        if values:
            out[name] = median(values)
    islands = traced[0]["jobs"].get("check_c.islands")
    if islands:
        out["islands_closure_patterns"] = islands["counts"].get("engine.closure_patterns", 0)
    return out


def run_workload(args, workload):
    workload_jobs = joblist.build_jobs(workload, args.seed, os.path.join(WORKDIR, workload),
                                       smoke=args.smoke)

    def setup(start, doc):
        # (seconds, seconds at the reference speed of the calibration kernel)
        seconds = doc["ready"] - start
        return seconds, seconds * REF_CAL_S / doc["cal_s"]

    # set-up is sampled before and after the measured worker, so that a slow
    # spell of the machine does not hit every sample
    probes = 1 if args.smoke else SETUP_PROBES // 2
    setups = [setup(*spawn_worker(args, workload, probe=True)) for _ in range(probes)]
    start, doc = spawn_worker(args, workload)
    setups.append(setup(start, doc))
    setups += [setup(*spawn_worker(args, workload, probe=True)) for _ in range(probes)]

    plain, traced = doc["plain"], doc["traced"]
    passes = plain + traced
    attempted = sum(len(p["jobs"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    e2e = {
        "ref_wall_s": (median([p["wall_s"] * REF_CAL_S / p["cal_s"] for p in plain]), "s"),
        "setup_s": (median([ref for _raw, ref in setups]), "s"),
        "peak_rss_mb": (doc["peak_rss_mb"], "MiB"),
    }
    info = {"wall_s": (median([p["wall_s"] for p in plain]), "s"),
            "setup_raw_s": (median([raw for raw, _ref in setups]), "s"),
            "fail_frac": (len(failures) / attempted, "ratio")}
    info.update({k: (v, "s") for k, v in sub_times(plain, workload_jobs).items()})
    result = {
        "workload": workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "provenance": dict(git_commit=git_commit(), workload_seed=args.seed, **machine(),
                           **doc["provenance"], measurement_limits=MEASUREMENT_LIMITS),
        "passes": {"plain": len(plain), "traced": len(traced)},
        "setup_samples_s": [raw for raw, _ref in setups],
        "setup_ref_samples_s": [ref for _raw, ref in setups],
        "pass_wall_s": [p["wall_s"] for p in plain],
        "pass_cal_s": [p["cal_s"] for p in plain],
        "failures": failures,
        "hashes": doc["hashes"],
        "end_to_end": e2e,
        "info": info,
    }
    correct = not failures
    if args.trace:
        layers = {k: tuple(v) for k, v in doc["per_layer"].items()}
        repeat_ok, counts = doc["counts_repeat"], doc["counts"]
        # per-subcommand times of the untraced passes ride along, so every
        # workload reports the same per-layer names
        for sub in joblist.TIMED_SUBCOMMANDS:
            name = joblist.sub_metric(sub)
            layers[name] = (info.get(name, (0.0, "s"))[0], "s")
        result.update(per_layer=layers, counts_repeat=repeat_ok, counts=counts,
                      baseline=per_call_baseline(traced),
                      per_job_traced=traced[0]["jobs"],
                      spans=[p["spans"] for p in traced])
        correct = correct and repeat_ok
    result["correct"] = correct
    result["attempted"] = attempted
    result["failed"] = len(failures)
    return result


def print_result(result):
    w = result["workload"]
    for k, v in result["provenance"].items():
        print(f"[{w}] provenance.{k}: {v}")
    shown = result["per_layer"] if result["trace"] else {**result["end_to_end"], **result["info"]}
    for name, (value, unit) in shown.items():
        print(f"[{w}] {name} {value!r} {unit}")
    if result["trace"]:
        for k, v in result["baseline"].items():
            print(f"[{w}] baseline.{k} {v!r}")
        print(f"[{w}] counts repeat exactly across {result['passes']['traced']} traced passes: "
              f"{result['counts_repeat']}")
    print(f"[{w}] passes={result['passes']} attempted={result['attempted']} "
          f"failed={result['failed']}")


def write_result(result):
    os.makedirs(RESULTS, exist_ok=True)
    name = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    with open(os.path.join(RESULTS, name), "w") as fh:
        json.dump(result, fh, indent=1)


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def record(reference, results):
    for r in results:
        reference["hashes"].setdefault(str(r["seed"]), {})[r["workload"]] = dict(
            sorted(r["hashes"].items()))
        if r["trace"] and r["baseline"]:
            base = reference.setdefault("baseline", {})
            base.setdefault("per_call", {}).update(r["baseline"])
            base["provenance"] = r["provenance"]
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=joblist.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=joblist.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="minimal replica counts: checks the harness, not the program's speed")
    p.add_argument("--record", action="store_true",
                   help="store this seed's output hashes (and, traced, the per-call baseline)")
    args = p.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "degrootnet")):
        print("error: no src/degrootnet next to perfbench/; run from a degrootnet checkout",
              file=sys.stderr)
        return 2
    reference = load_reference()
    hashes = reference["hashes"].get(str(args.seed), {})
    args.golden = {} if (args.smoke or args.record) else hashes

    workloads = joblist.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for w in workloads:
            results.append(run_workload(args, w))
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for r in results:
        write_result(r)
        print_result(r)
    if args.record:
        if args.smoke or any(not r["correct"] for r in results):
            print("error: not recording from a smoke run or a run with failures", file=sys.stderr)
            return 1
        record(reference, results)

    key = "per_layer" if args.trace else "end_to_end"
    if len(results) == 1:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in results[0][key].items()}
    else:
        metrics = {f"{r['workload']}/{k}": {"value": v, "unit": u}
                   for r in results for k, (v, u) in r[key].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
