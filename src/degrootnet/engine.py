"""Belief evolution and consensus diagnostics.

The engine owns the left-product accumulation X^(t) = X_t ... X_1 and the
derived diagnostics (consensus gap, influence samples, condition checks,
convergence times, disagreement structure).

Products come from two loops that multiply and renormalize, through
matrices.renormalized, the same way.  _lockstep advances the replicas of a
Monte Carlo run together, one batched matmul per step, each on its stream
seeding.replica_rng(seed, i), and keeps each one's step and product at its
stop (O(replicas n^2) memory); every Monte Carlo entry point (here, in
wisdom and in fragmentation) keeps only its observer's own statistic and
the aggregation.  _products advances one caller's state and leaves its
stream exactly after the last step: accumulate reads it through _scan, and
tests use it as the serial oracle of _lockstep.  Both draw through
GeneratorSpec.draw_block, _lockstep in blocks of up to BLOCK draws per
replica and _products one draw at a time (next_array is a block of one); a
stream's draws do not depend on the block size, so the two loops see the
same matrices.

_scan_replicas, the lockstep form of _scan behind the influence samples,
computes the full consensus gap of a product only where the cheap two-row
bound max_j |P[0,j] - P[n//2,j]| is within gap_tol, and at t_max; it tests
positivity only until a replica's first strictly positive product.  Both
gates are exact: the bound never exceeds the gap in floating point, since
per column the exact spread is at least the exact difference of any two
rows and rounding is monotone, and positivity is a sticky OR.

Support products come from matrices._closure: check_condition_c reads it
through matrices._skeleton_closure, semigroup_explore with an epsilon net.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import (
    CapHit,
    DimensionMismatch,
    ExplosionGuard,
    InvalidArgument,
    InvalidProbability,
    NoConvergence,
    NotIid,
    SingularMass,
    Unsupported,
)
from .generators import GeneratorSpec, GeneratorState
from .matrices import (
    FAILS,
    HOLDS,
    PROB_TOL,
    SkeletonMask,
    StochasticMatrix,
    _closure,
    _skeleton_closure,
    # boolean_product, dobrushin_coefficient and numeric_rank are unused here;
    # they stay bound because perfbench/tracer.py patches them on this module.
    boolean_product,  # noqa: F401
    consensus_gaps,
    dobrushin_coefficient,  # noqa: F401
    dobrushin_coefficients,
    first_within,
    numeric_rank,  # noqa: F401
    numeric_ranks,
    renormalized,
    skeletons,
    strictly_positive,
)
# map_replicas is unused here; it stays bound because perfbench/tracer.py patches engine.map_replicas.
from .seeding import (  # noqa: F401
    first_uniforms,
    map_replicas,
    replica_rngs,
    replica_seed,
    replica_words,
    resumed_rng,
)

GAP_TOL = 1e-8
RENORM_EVERY = 64
# _lockstep runs CHUNK replicas at a time; their first block holds
# FIRST_BLOCK draws per replica, each later one twice as many up to BLOCK,
# and no block more than BLOCK_VALUES values (16 MiB)
CHUNK = 256
FIRST_BLOCK = 8
BLOCK = 32
GROUP = 16  # chunks whose array-drawn first blocks are computed in one pass (see _lockstep)
BLOCK_VALUES = 1 << 21
MAX_ATOMS = 64  # disagreement_degree reports atoms only up to this many
# disagreement_degree merges a limit product into an atom within this
# entrywise max distance: far above the roundoff of a t_max-step product,
# far below the distance between distinct atoms of the laws studied
ATOM_TOL = 1e-4
# semigroup_explore treats two products within this entrywise max distance
# as one element of its epsilon net
DEDUP_TOL = 1e-9
# Gauss-Legendre order per dyadic panel of log_energy's Beta-marginal
# integral: 8 nodes on each of 40 panels per axis
QUAD_ORDER = 8
NORM_FLOOR = 2.0**-33  # per agent: 2^20 times the 2^-53 unit roundoff

UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class BeliefState:
    """Initial signals plus the current belief vector of the linear dynamics."""

    p0: tuple
    p_t: tuple
    t: int = 0

    def __post_init__(self):
        for name, vec in (("p0", self.p0), ("p_t", self.p_t)):
            arr = np.asarray(vec, dtype=float)
            if arr.ndim != 1 or len(arr) < 1:
                raise DimensionMismatch(f"{name} must be a vector")
            if (arr < 0).any() or (arr > 1).any():
                raise InvalidProbability(f"{name} entries must lie in [0,1]")
        if len(self.p0) != len(self.p_t):
            raise DimensionMismatch("p0 and p_t must have equal length")

    @property
    def n(self):
        return len(self.p0)

    @classmethod
    def from_signals(cls, p0):
        vals = tuple(float(v) for v in p0)
        return cls(p0=vals, p_t=vals, t=0)


@dataclass(frozen=True)
class ProductAccumulator:
    """Running left product X^(t) with consensus diagnostics."""

    product: StochasticMatrix
    t: int
    consensus_gap: float
    strict_positive_seen: bool
    consensus_time: int | None


@dataclass(frozen=True)
class InfluenceEstimate:
    """Monte Carlo sample of the random influence vector pi.

    ``replica_index[k]`` is the replica whose product gave ``samples[k]``
    and ``per_replica_gap[k]``; replicas that failed to converge are absent.
    """

    samples: tuple
    replica_index: tuple
    per_replica_gap: tuple
    mean: tuple
    variance: tuple
    max_component_mean: float
    failures: int

    @property
    def replicas(self):
        return len(self.samples) + self.failures


@dataclass(frozen=True)
class DisagreementReport:
    eta_estimate: int
    rank_histogram: dict
    support_atoms: tuple | None


@dataclass(frozen=True)
class ConditionCReport:
    verdict: str
    method: str
    evidence: float
    horizon: int


@dataclass(frozen=True)
class SemigroupReport:
    skeletons: frozenset
    min_rank: int
    rank_one_atoms: tuple
    members: tuple

    @property
    def elements(self):
        return len(self.members)


@dataclass(frozen=True)
class Speed2x2Result:
    mean_t_phi: float
    samples: tuple
    capped: int


@dataclass(frozen=True)
class SkeletonEquivalenceReport:
    same_initial_skeleton: bool
    verdict_a: ConditionCReport
    verdict_b: ConditionCReport
    agree: bool


# --- core dynamics -----------------------------------------------------------


def _products(state: GeneratorState, t_max: int):
    """Yield the left products X^(t) = X_t ... X_1 for t = 1..t_max.

    Rows are renormalized to sum to 1 after every RENORM_EVERY-th step, the
    one roundoff policy for every product: between renormalizations each
    row sum drifts by at most about RENORM_EVERY * n unit roundoffs.  A
    draw is made only when the next product is requested, so a consumer
    that stops early leaves the stream exactly after its last step.
    """
    prod = np.eye(state.spec.n)
    for t in range(1, t_max + 1):
        prod = state.next_array() @ prod
        if t % RENORM_EVERY == 0:
            prod = renormalized(prod)
        yield prod


def _scan(state: GeneratorState, t_max: int, gap_tol: float,
          stop_when_converged: bool = False):
    """Observe the consensus gap and positivity of every X^(t).

    Returns (product, t, gap, strict_positive_seen, consensus_time).
    """
    n = state.spec.n
    prod = np.eye(n)
    strict_seen = False
    consensus_time = None
    gap = 1.0 if n > 1 else 0.0
    t_done = 0
    for t_done, prod in enumerate(_products(state, t_max), 1):
        gap = float(consensus_gaps(prod))
        strict_seen = strict_seen or bool(strictly_positive(prod))
        if consensus_time is None and gap <= gap_tol:
            consensus_time = t_done
            if stop_when_converged:
                break
    return renormalized(prod), t_done, gap, strict_seen, consensus_time


def _lockstep(spec: GeneratorSpec, replicas: int, seed: int, t_max: int, observe,
              multiply: bool = True, start=None, keep: bool = True) -> tuple:
    """Advance replicas 0..replicas-1 of master seed ``seed`` in lockstep for t = 1..t_max.

    Replica i's state is ``start(i, rng)`` on its stream
    seeding.replica_rng(seed, i), by default ``spec.start_state(rng)``.
    Replicas run CHUNK at a time, so the running stack does not grow with the
    replica count; seeding.replica_rngs builds the streams of a chunk in one
    pass of array arithmetic, and they are those of replica_rng (NumPy's
    SeedSequence and PCG64 seeding are fixed algorithms under NEP 19, and the
    tests check them against default_rng).  Each step expands one draw per
    replica from blocks of up to BLOCK draws (spec._block, from the replica's
    own stream; short first blocks keep short runs from drawing far past their
    stop) into one (R, n, n) stack with spec._expand and, with ``multiply``,
    left-multiplies the stack of running products by it in one batched matmul,
    renormalizing rows on the schedule of _products; the products are then
    bitwise those of _products.  ``observe(t, idx, stack)`` sees the products
    (without ``multiply``, the draws) of the replicas ``idx`` still running, in
    index order, and may return a boolean mask of those that are finished: they
    leave the stack.  The stack is reused, so an observer copies what it keeps.
    A replica may draw up to k - 1 matrices past its stop, from its own stream,
    so no other replica's output changes.

    A law whose block is nothing but uniforms (``spec._uniform_block``), with
    the default ``start``, builds no Generator for its first block: the first
    blocks of GROUP chunks at a time come from seeding.first_uniforms, NumPy's
    PCG64 seeding and output run on uint64 arrays, bitwise the values of
    ``random(k)``.  Most replicas of short runs stop within that block.  A
    replica still running when it ends gets its Generator then, advanced past
    the block by PCG64's own jump-ahead (seeding.resumed_rng), and draws every
    later block from it, so the blocks, their draws and the schedule are the
    same either way.

    Returns ``(products, stops)``: replica i stops at ``stops[i]``, the step
    where ``observe`` marked it finished, or t_max + 1 if it never did.
    ``products[i]`` is its product at min(stops[i], t_max) renormalized once,
    bitwise _scan's (the identity at t_max = 0), kept in O(replicas n^2)
    memory; without ``multiply`` or ``keep`` it is None.
    """
    n = spec.n
    arrays = start is None and spec._uniform_block
    if start is None:
        def start(i, rng):
            return spec.start_state(rng)

    kept = np.empty((replicas, n, n)) if multiply and keep else None
    stops = np.full(replicas, t_max + 1)
    for first in range(0, replicas, CHUNK):
        stop = min(first + CHUNK, replicas)
        idx = np.arange(first, stop)
        if not arrays:
            states = {i: start(i, rng) for i, rng in zip(range(first, stop), replica_rngs(seed, first, stop))}
        else:
            states = None  # until the first block runs out
            if first % (GROUP * CHUNK) == 0:
                base = first
                words = replica_words(seed, base, min(base + GROUP * CHUNK, replicas))
                uniforms = first_uniforms(words, min(FIRST_BLOCK, BLOCK, t_max))
        prod = np.broadcast_to(np.eye(n), (len(idx), n, n)).copy()
        spare = np.empty_like(prod)
        draws = np.zeros_like(prod)
        k = j = 0
        for t in range(1, t_max + 1):
            if j == k:
                if states is None and t > 1:
                    states = {i: start(i, resumed_rng(words[i - base], k)) for i in idx.tolist()}
                k = max(1, min(2 * k or FIRST_BLOCK, BLOCK, t_max - t + 1,
                               BLOCK_VALUES // (len(idx) * spec._width())))
                if states is None:
                    block = uniforms[first - base:stop - base, :k]
                else:
                    block = np.stack([spec._block(states[i], k) for i in idx.tolist()])
                j = 0
            x = spec._expand(block[:, j], draws)
            j += 1
            if multiply:
                prod, spare = np.matmul(x, prod, out=spare), prod
                if t % RENORM_EVERY == 0:
                    prod = renormalized(prod)
            done = observe(t, idx, prod if multiply else x)
            if done is not None and done.any():
                stops[idx[done]] = t
                if kept is not None:
                    kept[idx[done]] = renormalized(prod[done])
                running = ~done
                idx, prod, block = idx[running], prod[running], block[running]
                spare, draws = spare[:len(idx)], draws[:len(idx)]
                if not len(idx):
                    break
        if kept is not None:
            kept[idx] = renormalized(prod)
    return kept, stops


def _two_row_bound(prod: np.ndarray) -> np.ndarray:
    """max_j |P[0,j] - P[n//2,j]| of each product in the (R, n, n) stack (0 when n = 1).

    Never above consensus_gaps, in floating point too: per column the exact
    spread is at least the exact difference of any two rows, and rounding
    is monotone.  Row n//2 rather than row 1: in the ring and islands laws
    agents 0 and 1 are neighbours, whose rows agree long before the rest,
    so a bound on them would let the full gap run on many more steps.  At
    n <= 3 the pair is rows 0 and 1.
    """
    return np.abs(prod[:, 0] - prod[:, prod.shape[1] // 2]).max(axis=1)


def _scan_replicas(spec: GeneratorSpec, replicas: int, seed: int, t_max: int, gap_tol: float,
                   stop_when_converged: bool = False, start=None) -> tuple:
    """_scan of every replica in lockstep, as five arrays over the replicas (consensus time 0 for None).

    The observer does little on a typical step.  It computes the two-row
    bound (rows 0 and n//2) of each running product and the full gap only
    for the replicas whose bound is <= gap_tol and that have not yet
    converged, and for all of them at t_max.  It tests positivity only for
    the replicas that have not yet seen a strictly positive product.  It
    writes the gap only at a replica's stop, where _lockstep keeps t and
    the product.  The results stay bitwise those of _scan for two reasons.
    The bound never exceeds the gap in floating point (see _two_row_bound),
    so no first crossing of gap_tol is skipped.  And strict positivity is
    recorded as a sticky OR, so a test skipped once it has been seen
    changes nothing.
    """
    gaps = np.full(replicas, 1.0 if spec.n > 1 else 0.0)
    strict_seen = np.zeros(replicas, dtype=bool)
    consensus_time = np.zeros(replicas, dtype=int)  # 0 until the gap reaches gap_tol

    def observe(t, idx, prod):
        unseen = ~strict_seen[idx]
        if unseen.any():
            strict_seen[idx[unseen]] = strictly_positive(prod[unseen])
        fresh = consensus_time[idx] == 0
        check = (t == t_max) | (fresh & (_two_row_bound(prod) <= gap_tol))
        if not check.any():
            return None
        gap = np.full(len(idx), np.nan)  # never <= gap_tol where it is not computed
        gap[check] = consensus_gaps(prod[check])
        hit = fresh & (gap <= gap_tol)
        consensus_time[idx[hit]] = t
        done = (hit & stop_when_converged) | (t == t_max)
        gaps[idx[done]] = gap[done]
        return done

    prods, stops = _lockstep(spec, replicas, seed, t_max, observe, start=start)
    # every replica is marked at t_max, except at t_max = 0, where no step runs
    return prods, np.minimum(stops, t_max), gaps, strict_seen, consensus_time


def evolve(gen: GeneratorState, beliefs: BeliefState, steps: int) -> BeliefState:
    """Apply p <- X_t p for ``steps`` periods, clipped to [0,1] against roundoff."""
    if steps < 0:
        raise InvalidArgument("steps must be >= 0")
    if gen.spec.n != beliefs.n:
        raise DimensionMismatch("generator and belief dimensions differ")
    p = np.asarray(beliefs.p_t, dtype=float)
    for _ in range(steps):
        p = gen.next_array() @ p
    return BeliefState(p0=beliefs.p0, p_t=tuple(float(v) for v in np.clip(p, 0.0, 1.0)), t=beliefs.t + steps)


def accumulate(gen: GeneratorState, t_max: int, gap_tol: float = GAP_TOL,
               stop_when_converged: bool = False) -> ProductAccumulator:
    """Compute X^(t) by left composition up to t_max.

    Records the first time the consensus gap (max column spread) drops to
    gap_tol, and whether any partial product was strictly positive.  With
    ``stop_when_converged`` the scan ends at the consensus time; the
    recorded first-crossing time is the same either way.
    """
    if t_max < 1:
        raise InvalidArgument("t_max must be >= 1")
    prod, t, gap, strict_seen, consensus_time = _scan(gen, t_max, gap_tol, stop_when_converged)
    return ProductAccumulator(
        product=StochasticMatrix._trusted(prod),
        t=t,
        consensus_gap=gap,
        strict_positive_seen=strict_seen,
        consensus_time=consensus_time,
    )


def estimate_influence(spec: GeneratorSpec, replicas: int, t_max: int,
                       gap_tol: float = GAP_TOL, seed: int = 0) -> InfluenceEstimate:
    """Monte Carlo sample of pi: one converged product row per replica.

    Replicas whose product has not reached gap_tol by t_max count as
    failures; NoConvergence is raised when fewer than half converge,
    signalling consensus failure of the process rather than a bug.
    """
    if replicas < 1:
        raise InvalidArgument("replicas must be >= 1")
    if t_max < 1:
        raise InvalidArgument("t_max must be >= 1")

    prods, _, gaps, _, consensus_time = _scan_replicas(spec, replicas, seed, t_max, gap_tol, stop_when_converged=True)
    converged = np.flatnonzero(consensus_time)
    samples = prods[converged, 0]
    if len(samples) * 2 < replicas:
        raise NoConvergence(len(samples), replicas)
    return InfluenceEstimate(
        samples=tuple(map(tuple, samples.tolist())),
        replica_index=tuple(converged.tolist()),
        per_replica_gap=tuple(gaps[converged].tolist()),
        mean=tuple(samples.mean(axis=0).tolist()),
        variance=tuple(samples.var(axis=0, ddof=1).tolist()) if len(samples) > 1 else (0.0,) * spec.n,
        max_component_mean=float(samples.max(axis=1).mean()),
        failures=replicas - len(samples),
    )


# --- condition (C) -----------------------------------------------------------


def check_condition_c(spec: GeneratorSpec, horizon: int = 64, replicas: int = 200,
                      seed: int = 0) -> ConditionCReport:
    """Decide whether some finite left product is strictly positive with
    positive probability.

    Decision cascade: (a) a single draw is strictly positive with positive
    probability; (b) boolean closure of the support skeletons reaches (or
    provably never reaches) an all-true pattern; (c) Monte Carlo fraction
    of replicas whose partial product turns strictly positive by the
    horizon; (d) otherwise Undetermined via contraction_integral, with the
    least upper bound (mean + 3 SE) on the mean Dobrushin coefficient as
    evidence: a mean below 1 shows consensus, not strict positivity.  (a)
    and (b) take the draws to be iid, so other processes start at (c).  The
    condition is a tail event, certifiable one-sidedly by simulation.
    """
    if horizon < 1:
        raise InvalidArgument("horizon must be >= 1")
    if replicas < 1:
        raise InvalidArgument("replicas must be >= 1")
    try:
        desc = spec.support() if spec.is_iid else None
    except Unsupported:
        desc = None
    if desc is not None:
        if desc.kind == "continuous" and desc.strictly_positive_prob > 0.0:
            return ConditionCReport(HOLDS, "support_analytic", desc.strictly_positive_prob, horizon)
        verdict, evidence = _skeleton_closure(desc.skeletons, horizon)
        if verdict in (HOLDS, FAILS):
            return ConditionCReport(verdict, "skeleton_semigroup", float(evidence), horizon)

    # Monte Carlo branches share one pass: each replica records the
    # contraction coefficient of every partial product until one turns
    # strictly positive, and then leaves the pass.  The coefficients are
    # read only when no replica turned positive, so when all ran to the horizon.
    positive = np.zeros(replicas, dtype=bool)
    coefficients = np.empty((replicas, horizon))

    def observe(t, idx, prod):
        positive[idx] = strictly_positive(prod)
        coefficients[idx, t - 1] = dobrushin_coefficients(renormalized(prod))
        return positive[idx]

    _lockstep(spec, replicas, seed, horizon, observe, keep=False)
    if positive.any():
        return ConditionCReport(HOLDS, "monte_carlo_positivity", int(positive.sum()) / replicas, horizon)
    means = coefficients.sum(axis=0) / replicas
    sq_means = (coefficients * coefficients).sum(axis=0) / replicas
    ses = np.sqrt(np.maximum(sq_means - means**2, 0.0) / replicas)
    return ConditionCReport(UNDETERMINED, "contraction_integral", float((means + 3.0 * ses).min()), horizon)


def semigroup_explore(support, max_len: int, cap: int = 4000) -> SemigroupReport:
    """Breadth-first product generation from a finite support.

    Deduplicates elements by entrywise max distance DEDUP_TOL (an epsilon
    net) and reports every rank-one element found plus the minimal numeric
    rank.  A positive finding (rank-one element) is a certificate; absence is
    only evidence, since products are truncated at max_len.
    """
    if max_len < 1:
        raise InvalidArgument("max_len must be >= 1")
    atoms = [m.entries for m in support]
    if not atoms:
        raise InvalidArgument("support must be nonempty")
    if len({a.shape[0] for a in atoms}) > 1:
        raise DimensionMismatch(f"support matrices differ in size: n = {', '.join(str(a.shape[0]) for a in atoms)}")
    # the elements held so far are held[:count]
    held = np.empty((len(atoms),) + atoms[0].shape)
    count = 0

    def add(arr):
        nonlocal held, count
        if first_within(held[:count], arr, DEDUP_TOL) is not None:
            return False
        if count == len(held):
            held = np.concatenate((held, np.empty_like(held)))
        held[count] = arr
        count += 1
        return True

    for _ in _closure(atoms, np.matmul, add, max_len):
        if count > cap:
            raise ExplosionGuard(f"semigroup exploration exceeded {cap} elements")

    elements = held[:count]
    members = tuple(StochasticMatrix._trusted(e) for e in elements)
    ranks = numeric_ranks(np.array([m.entries for m in members]))
    return SemigroupReport(
        skeletons=frozenset(map(SkeletonMask, skeletons(elements))),
        min_rank=int(ranks.min()),
        rank_one_atoms=tuple(m for m, r in zip(members, ranks) if r == 1),
        members=members,
    )


# --- convergence speed -------------------------------------------------------


def default_t_cap(phi: float) -> int:
    return 50 * math.ceil(-math.log(phi))


def convergence_time_2x2(spec: GeneratorSpec, phi: float, replicas: int,
                         t_cap: int | None = None, seed: int = 0) -> Speed2x2Result:
    """Periods needed for a two-agent product to come within phi of consensus.

    Tracks the first-column spread x_t - y_t of X^(t), which for n = 2 is
    the running product of second eigenvalues and hence nonincreasing in
    magnitude; t_phi is the last period with |x_t - y_t| >= phi (0 when the
    first product is already within phi).
    """
    if spec.n != 2:
        raise DimensionMismatch("convergence_time_2x2 requires n = 2")
    if not 0.0 < phi < 1.0:
        raise InvalidArgument("phi must lie in (0,1)")
    if replicas < 1:
        raise InvalidArgument("replicas must be >= 1")
    if t_cap is None:
        t_cap = default_t_cap(phi)
    if t_cap < 1:
        raise InvalidArgument("t_cap must be >= 1")

    spread = np.ones(replicas)

    def observe(t, idx, x):
        spread[idx] *= x[:, 0, 0] - x[:, 1, 0]
        return np.abs(spread[idx]) < phi

    _, stops = _lockstep(spec, replicas, seed, t_cap, observe, multiply=False)
    samples = (stops - 1).tolist()  # t_cap where never within phi
    capped = samples.count(t_cap)  # a replica that comes within phi at t has t_phi = t - 1 < t_cap
    if capped > 0.01 * replicas:
        raise CapHit(f"{capped}/{replicas} replicas still above phi at t_cap={t_cap}")
    return Speed2x2Result(mean_t_phi=float(np.mean(samples)), samples=tuple(samples), capped=capped)


@dataclass(frozen=True)
class BetaMarginalPair:
    """Joint weight law with iid Beta(a,b) marginals on [0,1]^2.

    a = b = 1 is the independent-uniform case; a = b = 1/2 the arcsine one.
    """

    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise InvalidProbability("beta parameters must be positive")


@dataclass(frozen=True)
class AtomicWeightPairs:
    """Finitely many (x, y) weight atoms with masses."""

    atoms: tuple  # ((x, y), mass), ...

    def __post_init__(self):
        total = 0.0
        for (_xy, mass) in self.atoms:
            if mass < 0:
                raise InvalidProbability("atom masses must be nonnegative")
            total += mass
        if abs(total - 1.0) > PROB_TOL:
            raise InvalidProbability("atom masses must sum to 1")


def _gauss_panels(order: int):
    """Gauss-Legendre nodes/weights on [0,1] over 20 dyadic refinements per end."""
    x, w = np.polynomial.legendre.leggauss(order)
    lo = [0.0] + [2.0 ** (-k) for k in range(20, 0, -1)]
    breaks = lo + [1.0 - b for b in reversed(lo[:-1])]
    nodes, weights = [], []
    for a, b in zip(breaks[:-1], breaks[1:]):
        half = 0.5 * (b - a)
        nodes.append(a + half * (x + 1.0))
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


def log_energy(mu_2x2) -> float:
    """Expected log(1/|lambda_2|) of one 2x2 draw under the weight law mu.

    For Beta-marginal pairs the integral is computed in quantile space:
    with Q the marginal quantile function, the integrand splits into the
    exact uniform energy 3/2 plus a divided-difference correction
    -log((Q(u)-Q(v))/(u-v)) that is smooth across the diagonal, where it
    equals log f(Q(u)).  Tensor Gauss-Legendre on dyadically refined
    panels (QUAD_ORDER nodes each) then resolves the endpoint behavior of
    the quantile map.
    This branch is the package's one use of scipy, imported on its first call.
    """
    if isinstance(mu_2x2, AtomicWeightPairs):
        total = 0.0
        for (xy, mass) in mu_2x2.atoms:
            x, y = float(xy[0]), float(xy[1])
            if x == y:
                raise SingularMass(f"atom at x = y = {x} makes the energy infinite")
            total += mass * (-math.log(abs(x - y)))
        return total
    if not isinstance(mu_2x2, BetaMarginalPair):
        raise Unsupported("log_energy needs a BetaMarginalPair or AtomicWeightPairs descriptor")
    a, b = mu_2x2.a, mu_2x2.b
    u, w = _gauss_panels(QUAD_ORDER)
    from scipy.special import betaincinv, betaln

    q = betaincinv(a, b, u)
    # log density at the quantile points: the diagonal limit of the correction
    logf = (a - 1.0) * np.log(q) + (b - 1.0) * np.log1p(-q) - betaln(a, b)
    du = np.abs(u[:, None] - u[None, :])
    dq = np.abs(q[:, None] - q[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        psi = np.log(du) - np.log(dq)
    np.fill_diagonal(psi, logf)
    correction = float(w @ psi @ w)
    return 1.5 + correction


def lyapunov_exponent(spec: GeneratorSpec, t_max: int, replicas: int,
                      seed: int = 0) -> float:
    """Empirical decay rate of the distance to consensus up to horizon t_max.

    The distance is ||(I - J) P||_2 = ||P - 1 colmean(P)||_2, with P the
    row-renormalized X^(t) and J = (1/n) 11': 0 iff the rows of P agree,
    whatever the limit row pi, where ||P - J|| tends to ||1 (pi - u)||.  A
    replica stops at its time tau, the first t whose norm is below n *
    NORM_FLOOR (where the norm would measure rounding rather than the
    process), or t_max.  The rate is the pooled sum of log norms over the
    sum of the tau, exponentiated: by Wald's identity its ratio is
    consistent, where the mean of log(norm) / tau would overstate the rate
    because E[1/tau] > 1/E[tau].  A generator without contraction reports
    1, exact rank-one products 0.
    """
    if replicas < 1:
        raise InvalidArgument("replicas must be >= 1")
    if t_max < 1:
        raise InvalidArgument("t_max must be >= 1")

    def distance(p):
        return np.linalg.norm(p - p.mean(axis=1, keepdims=True), 2, axis=(1, 2))

    prods, stops = _lockstep(spec, replicas, seed, t_max,
                             lambda t, idx, prod: distance(renormalized(prod)) < spec.n * NORM_FLOOR)
    norms = distance(prods)  # at each replica's stop: the product there is renormalized once
    if (norms == 0.0).any():
        return 0.0
    return math.exp(float(np.log(norms).sum() / np.minimum(stops, t_max).sum()))


# --- disagreement ------------------------------------------------------------


def disagreement_degree(spec: GeneratorSpec, replicas: int, t_max: int,
                        seed: int = 0) -> DisagreementReport:
    """Empirical law of X^(t_max): modal numeric rank plus clustered atoms.

    The products X^(t_max) of ``replicas`` replicas are the sample.  The
    rank histogram counts their numeric ranks, and the modal rank is the
    estimate of the degree of disagreement eta.  The products are
    clustered in replica order: each joins the first atom within entrywise
    max distance ATOM_TOL or starts a new one.  Atoms and their
    frequencies are reported only when the products concentrate on at most
    MAX_ATOMS matrices; otherwise ``support_atoms`` is None.
    """
    if replicas < 100:
        raise InvalidArgument("disagreement_degree needs at least 100 replicas")
    if t_max < 0:
        raise InvalidArgument("t_max must be >= 0")

    prods, _ = _lockstep(spec, replicas, seed, t_max, lambda t, idx, prod: None)
    return _disagreement_report(prods)


def _disagreement_report(prods) -> DisagreementReport:
    """Rank histogram and clustered atoms of a sample of limit products, in replica order.

    The ranks are numeric_ranks' of the stack with its rows renormalized
    as StochasticMatrix._trusted does.
    """
    replicas = len(prods)
    rank_counts = Counter(numeric_ranks(renormalized(prods)).tolist())
    # the atoms found so far are atoms[:len(counts)]
    atoms = np.empty((MAX_ATOMS + 1,) + prods.shape[1:])
    counts: list[int] = []
    for prod in prods:
        k = first_within(atoms[:len(counts)], prod, ATOM_TOL)
        if k is not None:
            counts[k] += 1
            continue
        atoms[len(counts)] = prod
        counts.append(1)
        if len(counts) > MAX_ATOMS:
            break
    histogram = {r: c / replicas for r, c in sorted(rank_counts.items())}
    eta = max(rank_counts, key=lambda r: (rank_counts[r], -r))
    support_atoms = None
    if len(counts) <= MAX_ATOMS:
        order = np.argsort(counts)[::-1]
        support_atoms = tuple(
            (StochasticMatrix._trusted(atoms[k]), counts[k] / replicas) for k in order
        )
    return DisagreementReport(eta_estimate=int(eta), rank_histogram=histogram, support_atoms=support_atoms)


def cyclicity_check(support):
    """Search for a partition cycle that every support matrix respects.

    A witness is an ordered tuple (A_1, ..., A_m) of pairwise-disjoint
    nonempty agent sets, m >= 2, such that every matrix moves all of A_s's
    weight into A_{s+1} (indices mod m).  One exists iff some closed class
    of the union graph has period d >= 2 (Seneta 2006, ch. 1); the witness
    is that class's d cyclic classes, in order from the class of its
    smallest agent.  Breadth-first levels from each agent decide both: an
    agent is in a closed class iff every agent it reaches reaches it back,
    and the period is the gcd of level[u] + 1 - level[v] over the class's
    edges.
    """
    mats = [m.entries for m in support]
    if not mats:
        raise InvalidArgument("support must be nonempty")
    union = skeletons(np.array(mats)).any(axis=0)
    successors = [np.flatnonzero(row).tolist() for row in union]
    levels = []
    for root in range(len(successors)):
        level, order = {root: 0}, [root]
        for u in order:
            for v in successors[u]:
                if v not in level:
                    level[v] = level[u] + 1
                    order.append(v)
        levels.append(level)
    for root, level in enumerate(levels):
        if any(root not in levels[v] for v in level):
            continue
        period = math.gcd(*(level[u] + 1 - level[v] for u in level for v in successors[u]))
        if period >= 2:
            witness = [sorted(v for v in level if level[v] % period == k) for k in range(period)]
            return {"cyclic": True, "witness_partition": witness}
    return {"cyclic": False, "witness_partition": None}


def skeleton_equivalence_test(spec_a: GeneratorSpec, spec_b: GeneratorSpec,
                              horizon: int = 64, replicas: int = 200,
                              seed: int = 0) -> SkeletonEquivalenceReport:
    """Same initial social topology implies the same consensus verdict.

    Compares the skeleton sets of one draw from each iid process (atom-set
    equality for finite supports, declared masks for continuous ones), then
    runs the condition check on both and reports whether the verdicts agree.
    """
    if not spec_a.is_iid or not spec_b.is_iid:
        raise NotIid("skeleton equivalence is defined for iid processes")
    if spec_a.n != spec_b.n:
        raise DimensionMismatch("societies must have equal size")
    masks_a = set(spec_a.support().skeletons)
    masks_b = set(spec_b.support().skeletons)
    same = masks_a == masks_b
    va = check_condition_c(spec_a, horizon=horizon, replicas=replicas, seed=seed)
    vb = check_condition_c(spec_b, horizon=horizon, replicas=replicas, seed=replica_seed(seed, 1))
    return SkeletonEquivalenceReport(
        same_initial_skeleton=same,
        verdict_a=va,
        verdict_b=vb,
        agree=va.verdict == vb.verdict,
    )
