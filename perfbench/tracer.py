"""Per-layer tracing of degrootnet from outside the package.

The tracer replaces functions at the names where their callers look them
up (``engine.dobrushin_coefficient``, ``wisdom._scan``, ...) and restores
them on ``uninstall``.  Module entries are recorded as spans; per-draw and
per-matrix-call boundaries are aggregated into a call count and a summed
time.  A frame's self time is its duration minus the time its children
cover; children that run on pool threads of ``seeding.map_replicas`` are
counted by the union of their intervals, so overlapping threads are not
counted twice.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

from degrootnet import cli, engine, fragmentation, generators, matrices, seeding, wisdom

now = time.perf_counter

# Generator kinds the workloads draw from; each gets its own draw counters.
DRAW_KINDS = ("dirichlet_rows", "perturbed_fixed", "finite_mixture", "islands", "ar1_mixture")
ENGINE_ENTRIES = ("estimate_influence", "check_condition_c", "convergence_time_2x2",
                  "disagreement_degree", "skeleton_equivalence_test", "semigroup_explore",
                  "log_energy", "skeleton_closure", "scan")
MATRIX_CALLS = ("dobrushin", "numeric_rank", "boolean_product")
CHECK_C_METHODS = ("support_analytic", "skeleton_semigroup", "monte_carlo_positivity",
                   "contraction_integral")


def _union_length(intervals):
    total = 0.0
    end = -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class Tracer:
    """Frames, aggregates and spans of one traced pass."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._saved = []
        self._map_frame = None
        self._job_start = None
        self.reset()

    def reset(self):
        self.stats = {}    # name -> [calls, total_s, self_s]
        self.counts = {}   # name -> number
        self.spans = []    # (name, start_s, end_s, parent)

    # --- frames ---------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name, collect_children=False):
        frame = [name, now(), 0.0, [] if collect_children else None]
        self._stack().append(frame)
        return frame

    def _exit(self, frame, span):
        end = now()
        stack = self._stack()
        stack.pop()
        name, start, covered, intervals = frame
        if intervals:
            covered += _union_length(intervals)
        dur = end - start
        parent = stack[-1] if stack else None
        with self._lock:
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = [0, 0.0, 0.0]
            st[0] += 1
            st[1] += dur
            st[2] += dur - covered
            if parent is not None:
                parent[2] += dur
                if name.startswith("generators.") and parent[0].startswith("engine."):
                    self.counts["engine.steps"] = self.counts.get("engine.steps", 0) + 1
            elif self._map_frame is not None and threading.current_thread() is not self._main:
                self._map_frame[3].append((start, end))
            if span:
                self.spans.append((name, start, end, parent[0] if parent else None))

    def count(self, name, k=1):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + k

    def job(self, job_id, fn, *args):
        """Run one job as the root span of its frames."""
        self._job_start = now()
        frame = [f"job:{job_id}", self._job_start, 0.0, None]
        self._stack().append(frame)
        try:
            return fn(*args)
        finally:
            self._exit(frame, True)

    # --- wrappers -------------------------------------------------------------

    def _wrap(self, fn, name, span, on_result=None):
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame, span)
            if on_result is not None:
                on_result(result, args, kwargs)
            return result
        return wrapper

    def _patch(self, owner, attr, new):
        if isinstance(owner, dict):
            self._saved.append((owner, attr, owner[attr]))
            owner[attr] = new
        else:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

    def _patch_all(self, owners, attr, name, span, on_result=None):
        wrapped = self._wrap(getattr(owners[0], attr), name, span, on_result)
        for owner in owners:
            self._patch(owner, attr, wrapped)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        self._install_cli()
        self._install_seeding()
        self._install_generators()
        self._install_engine()
        self._install_fragmentation_wisdom()

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def _install_cli(self):
        for command, handler in list(cli._COMMANDS.items()):
            self._patch(cli._COMMANDS, command, self._wrap_handler(handler))
        for attr in ("build_spec", "_speed_spec", "_load_distribution", "_load_spec_file",
                     "build_energy_mu"):
            self._patch_all([cli], attr, "cli.build_spec", True)

        def emitted(_result, args, kwargs):
            path = kwargs.get("path", args[2] if len(args) > 2 else None)
            self.count("cli.emit_bytes", os.path.getsize(path))
        self._patch_all([cli], "emit", "cli.emit", True, emitted)

    def _wrap_handler(self, handler):
        inner = self._wrap(handler, "cli.handler", True)

        def wrapper(params):
            self.count("cli.parse_s", now() - self._job_start)
            return inner(params)
        return wrapper

    def _install_seeding(self):
        self._patch_all([seeding, wisdom], "replica_rng", "seeding.stream", False)
        original_map = seeding.map_replicas
        tracer = self

        def map_replicas(fn, replicas, master_seed, workers=1):
            frame = tracer._enter("seeding.map_replicas", collect_children=True)
            tracer._map_frame = frame
            replica = tracer._wrap(fn, "engine.replica", False)
            try:
                return original_map(replica, replicas, master_seed, workers)
            finally:
                tracer._map_frame = None
                tracer._exit(frame, True)
        self._patch(engine, "map_replicas", map_replicas)

        original_init = generators.GeneratorState.__init__

        def init(state, spec, seed):
            # Passing an existing Generator builds no new stream.
            if isinstance(seed, np.random.Generator):
                return original_init(state, spec, seed)
            frame = tracer._enter("seeding.stream")
            try:
                return original_init(state, spec, seed)
            finally:
                tracer._exit(frame, False)
        self._patch(generators.GeneratorState, "__init__", init)

    def _install_generators(self):
        original = generators.GeneratorState.next_array
        names = {}
        tracer = self

        def next_array(state):
            kind = state.spec.kind
            name = names.get(kind)
            if name is None:
                name = names[kind] = "generators." + kind
            frame = tracer._enter(name)
            try:
                return original(state)
            finally:
                tracer._exit(frame, False)
        self._patch(generators.GeneratorState, "next_array", next_array)

    def _install_engine(self):
        def influence_done(est, _a, _k):
            self.count("engine.replicas", est.replicas)
            self.count("engine.replicas_failed", est.failures)

        def speed_done(res, _a, _k):
            self.count("engine.replicas", len(res.samples))
            self.count("engine.replicas_failed", res.capped)

        def disagree_done(_rep, args, kwargs):
            self.count("engine.replicas", kwargs.get("replicas", args[1] if len(args) > 1 else 0))

        def check_c_done(rep, _a, _k):
            self.count("engine.check_c." + rep.method)

        def closure_done(result, _a, _k):
            verdict, evidence = result
            if verdict == "open":
                self.count("engine.closure_patterns", evidence)

        self._patch_all([engine, wisdom], "estimate_influence", "engine.estimate_influence",
                        True, influence_done)
        self._patch_all([engine], "check_condition_c", "engine.check_condition_c", True,
                        check_c_done)
        self._patch_all([engine], "convergence_time_2x2", "engine.convergence_time_2x2", True,
                        speed_done)
        self._patch_all([engine], "disagreement_degree", "engine.disagreement_degree", True,
                        disagree_done)
        for entry in ("skeleton_equivalence_test", "semigroup_explore", "log_energy"):
            self._patch_all([engine], entry, "engine." + entry, True)
        self._patch_all([engine], "_skeleton_closure", "engine.skeleton_closure", True,
                        closure_done)
        self._patch_all([engine, wisdom], "_scan", "engine.scan", False)
        self._patch_all([engine], "dobrushin_coefficient", "matrices.dobrushin", False)
        self._patch_all([engine, wisdom], "numeric_rank", "matrices.numeric_rank", False)
        self._patch_all([engine, matrices], "boolean_product", "matrices.boolean_product", False)

    def _install_fragmentation_wisdom(self):
        self._patch_all([fragmentation], "p_max", "fragmentation.p_max", True)
        self._patch_all([fragmentation], "p_max_by_cuts", "fragmentation.p_max", True)
        self._patch_all([fragmentation], "decay_rate_estimate", "fragmentation.decay_rate", True)
        self._patch_all([fragmentation], "_connected", "fragmentation.connected", False)

        def wisdom_done(res, args, kwargs):
            config = args[0] if args else kwargs["config"]
            for r in res.per_size:
                self.count("engine.replicas", config.replicas)
                self.count("engine.replicas_failed",
                           config.replicas - round(r.convergence_fraction * config.replicas))
        self._patch_all([wisdom], "run_wisdom", "wisdom.run_wisdom", True, wisdom_done)
        self._patch_all([wisdom], "dirichlet_conjugacy_test", "wisdom.conjugacy", True)

    # --- results --------------------------------------------------------------

    def snapshot(self):
        with self._lock:
            return ({k: tuple(v) for k, v in self.stats.items()}, dict(self.counts))

    @staticmethod
    def diff(before, after):
        stats0, counts0 = before
        stats1, counts1 = after
        stats = {}
        for k, v in stats1.items():
            v0 = stats0.get(k, (0, 0.0, 0.0))
            if v[0] != v0[0]:
                stats[k] = (v[0] - v0[0], v[1] - v0[1], v[2] - v0[2])
        counts = {k: v - counts0.get(k, 0) for k, v in counts1.items() if v != counts0.get(k, 0)}
        return stats, counts


def repeatable_counts(stats, counts):
    """The exact counts of a pass: calls per frame name plus integer counters."""
    out = {f"{k}.calls": v[0] for k, v in stats.items() if not k.startswith("job:")}
    out.update({k: v for k, v in counts.items() if isinstance(v, int)})
    return out


def layer_metrics(stats, counts):
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return stats.get(name, (0, 0.0, 0.0))[1]

    m = {
        "cli.parse_s": (counts.get("cli.parse_s", 0.0), "s"),
        "cli.build_spec_s": (total("cli.build_spec"), "s"),
        "cli.emit_s": (total("cli.emit"), "s"),
        "cli.emit_bytes": (counts.get("cli.emit_bytes", 0), "B"),
        "seeding.streams": (calls("seeding.stream"), "count"),
        "seeding.stream_init_s": (total("seeding.stream"), "s"),
        "seeding.map_replicas_self_s": (stats.get("seeding.map_replicas", (0, 0.0, 0.0))[2], "s"),
    }
    draws = [calls("generators." + k) for k in DRAW_KINDS]
    m["generators.draws"] = (sum(v[0] for k, v in stats.items() if k.startswith("generators.")),
                             "count")
    m["generators.draw_s"] = (sum(v[1] for k, v in stats.items() if k.startswith("generators.")),
                              "s")
    for kind, n in zip(DRAW_KINDS, draws):
        m[f"generators.{kind}.draws"] = (n, "count")
        m[f"generators.{kind}.draw_s"] = (total("generators." + kind), "s")
    for entry in ENGINE_ENTRIES:
        m[f"engine.{entry}.calls"] = (calls("engine." + entry), "count")
        m[f"engine.{entry}_s"] = (total("engine." + entry), "s")
    engine_self = sum(v[2] for k, v in stats.items() if k.startswith("engine."))
    # the boolean closure makes no product steps, so it stays out of the per-step cost
    step_self = engine_self - stats.get("engine.skeleton_closure", (0, 0.0, 0.0))[2]
    steps = counts.get("engine.steps", 0)
    m["engine.self_s"] = (engine_self, "s")
    m["engine.steps"] = (steps, "count")
    m["engine.self_us_per_step"] = (1e6 * step_self / steps if steps else 0.0, "us")
    m["engine.replicas"] = (counts.get("engine.replicas", 0), "count")
    m["engine.replicas_failed"] = (counts.get("engine.replicas_failed", 0), "count")
    m["engine.closure_patterns"] = (counts.get("engine.closure_patterns", 0), "count")
    for method in CHECK_C_METHODS:
        m[f"engine.check_c.{method}"] = (counts.get("engine.check_c." + method, 0), "count")
    for call in MATRIX_CALLS:
        m[f"matrices.{call}.calls"] = (calls("matrices." + call), "count")
        m[f"matrices.{call}_s"] = (total("matrices." + call), "s")
    m["fragmentation.p_max_s"] = (total("fragmentation.p_max"), "s")
    m["fragmentation.connectivity_checks"] = (calls("fragmentation.connected"), "count")
    m["fragmentation.decay_rate_s"] = (total("fragmentation.decay_rate"), "s")
    m["wisdom.run_wisdom_s"] = (total("wisdom.run_wisdom"), "s")
    m["wisdom.conjugacy_s"] = (total("wisdom.conjugacy"), "s")
    return m
