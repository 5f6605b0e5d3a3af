"""Belief evolution and consensus diagnostics.

The engine owns the left-product accumulation X^(t) = X_t ... X_1 and the
derived diagnostics (consensus gap, influence samples, condition checks,
convergence times, disagreement structure).

Products come from one loop, _lockstep, the only code in the package that
multiplies a draw into a product or a belief vector.  It advances the
replicas of a Monte Carlo run together, one batched matmul per step, each
on its stream seeding.replica_rng(seed, i), renormalizes rows through
matrices.renormalized, and keeps each one's step and product at its stop
(O(replicas n^2) memory); every Monte Carlo entry point (here, in wisdom
and in fragmentation) keeps only its observer's own statistic and the
aggregation.  The serial entry points run it as one replica whose state is
the caller's, always to their horizon, so the caller's stream ends just
after their last draw: accumulate reads its products through _scan, and
evolve (behind the CLI's simulate) walks a belief vector.  Draws come in
blocks of up to BLOCK per replica; a stream's draws do not depend on the
block size (GeneratorSpec.draw_block), so they are those that
GeneratorState.next_array makes one at a time.  Per-row work that a law can
do on a whole block (GeneratorSpec._rows: Dirichlet rows are normalized
there) runs once per block, and only the rest (_expand) once per step.

_scan_replicas, the lockstep form of _scan behind the influence samples,
stops each replica at its first step with gap <= gap_tol, through a
three-level gate that skips no first crossing (argued there).

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
    NumericalFailure,
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
    _singular_values,
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
    replica_seed,
    replica_words,
    resumed_rng,
)

GAP_TOL = 1e-8
RENORM_EVERY = 64
# _lockstep runs CHUNK replicas at a time; their first block holds
# FIRST_BLOCK draws per replica, each later one twice as many up to BLOCK,
# and no block of two or more draws more than BLOCK_VALUES values (16 MiB)
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
# as one element of its epsilon net, and stops past SEMIGROUP_CAP elements
DEDUP_TOL = 1e-9
SEMIGROUP_CAP = 4000
# Gauss-Legendre order per dyadic panel of log_energy's Beta-marginal
# integral: 8 nodes on each of 40 panels per axis
QUAD_ORDER = 8
NORM_FLOOR = 2.0**-33  # per agent: 2^20 times the 2^-53 unit roundoff

UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class ProductAccumulator:
    """Left product X^(t_max) with consensus diagnostics."""

    product: StochasticMatrix
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


def _scan(state: GeneratorState, t_max: int, gap_tol: float):
    """Observe the consensus gap and positivity of every X^(t) up to t_max, as one replica of _lockstep on ``state``.

    Returns (product, gap, strict_positive_seen, consensus_time): the product and gap at t_max, the
    product renormalized once, and the first t with gap <= gap_tol (None if none).
    """
    gap, strict_seen, consensus_time = (1.0 if state.spec.n > 1 else 0.0), False, None

    def observe(t, idx, prod):
        nonlocal gap, strict_seen, consensus_time
        gap = float(consensus_gaps(prod)[0])
        strict_seen = strict_seen or bool(strictly_positive(prod)[0])
        if consensus_time is None and gap <= gap_tol:
            consensus_time = t

    prods, _ = _lockstep(state.spec, 1, None, t_max, observe, start=lambda i, rng: state)
    return prods[0], gap, strict_seen, consensus_time


def _lockstep(spec: GeneratorSpec, replicas: int, seed: int | None, t_max: int, observe,
              multiply: bool = True, start=None, keep: bool = True) -> tuple:
    """Advance replicas 0..replicas-1 of master seed ``seed`` in lockstep for t = 1..t_max.

    Replica i's state is ``start(i, rng)`` on its stream
    seeding.replica_rng(seed, i), by default ``spec.start_state(rng)``; with
    seed None, ``start(i, None)``, which serial callers use to pass their state.
    Replicas run CHUNK at a time, so the running stack does not grow with the
    replica count.  The PCG64 seed words of GROUP chunks at a time come from
    seeding.replica_words in one pass of array arithmetic, and each replica's
    Generator from seeding.resumed_rng on its words; its stream is that of
    replica_rng (NumPy's SeedSequence and PCG64 seeding are fixed algorithms
    under NEP 19, and the tests check them against default_rng).  Each step
    expands one draw per replica from blocks of up to BLOCK draws
    (spec._block, from the replica's own stream; short first blocks keep
    short runs from drawing far past their stop; spec._rows readies each
    stacked (R, k, width) block once, in place) into one (R, n, n) stack
    with spec._expand and, with ``multiply``,
    left-multiplies the stack of running products by it in one batched matmul,
    renormalizing rows after every RENORM_EVERY-th step (row sums drift by at
    most about RENORM_EVERY * n unit roundoffs).  ``observe(t, idx, stack)``
    sees the products (without ``multiply``, the draws) of the replicas ``idx``
    still running, in index order, and may return a boolean mask of those that
    are finished: they leave the stack.  The stack is reused, so an observer
    copies what it keeps.  A replica run to t_max makes exactly t_max draws
    (no block holds more than t_max - t + 1); one that stops earlier may draw up
    to k - 1 past its stop, from its own stream, so no other replica's output changes.
    The budget of BLOCK_VALUES values caps k by the width of a block row: n * n
    for the first block, the bound of every law's rows (GeneratorSpec), and
    then that of the block just drawn.  The draws do not depend on k.

    A replica's Generator is built at the start of its chunk, except for a
    law whose block is nothing but uniforms (``spec._uniform_block``) with the
    default ``start``: the first blocks of GROUP chunks at a time come from
    seeding.first_uniforms on the same words, NumPy's PCG64 seeding and output
    run on uint64 arrays, bitwise the values of ``random(k)``.  Most replicas
    of short runs stop within that block.  A replica still running when it
    ends gets its Generator then, advanced past the block by PCG64's own
    jump-ahead, and draws every later block from it, so the blocks, their
    draws and the schedule are the same either way.

    Returns ``(products, stops)``: replica i stops at ``stops[i]``, the step
    where ``observe`` marked it finished, or t_max + 1 if it never did.
    ``products[i]`` is its product at min(stops[i], t_max) renormalized once
    (the identity at t_max = 0), kept in O(replicas n^2) memory; without
    ``multiply`` or ``keep`` it is None.
    """
    n = spec.n
    arrays = start is None and spec._uniform_block
    if start is None:
        def start(i, rng):
            return spec.start_state(rng)

    def started(idx, k):
        """{i: state} of the replicas ``idx``, each started on its stream past its first k draws."""
        return {i: start(i, None if seed is None else resumed_rng(words[i - base], k)) for i in idx.tolist()}

    kept = np.empty((replicas, n, n)) if multiply and keep else None
    stops = np.full(replicas, t_max + 1)
    width = n * n  # values per draw: a bound for the first block, then that of the block just drawn
    for first in range(0, replicas, CHUNK):
        stop = min(first + CHUNK, replicas)
        idx = np.arange(first, stop)
        if seed is not None and first % (GROUP * CHUNK) == 0:
            base = first
            words = replica_words(seed, base, min(base + GROUP * CHUNK, replicas))
            if arrays:
                uniforms = first_uniforms(words, min(FIRST_BLOCK, BLOCK, t_max))
        states = None if arrays else started(idx, 0)  # with arrays, None until the first block runs out
        prod = np.broadcast_to(np.eye(n), (len(idx), n, n)).copy()
        spare = np.empty_like(prod)
        draws = np.zeros_like(prod)
        k = j = 0
        for t in range(1, t_max + 1):
            if j == k:
                if states is None and t > 1:
                    states = started(idx, k)
                k = max(1, min(2 * k or FIRST_BLOCK, BLOCK, t_max - t + 1, BLOCK_VALUES // (len(idx) * width)))
                if states is None:
                    block = uniforms[first - base:stop - base, :k]
                else:
                    block = np.stack([spec._block(states[i], k) for i in idx.tolist()])
                block = spec._rows(block)
                width = block[0, 0].size
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

    The middle level of _scan_replicas' gate, which argues why it lies
    between the gate's entry and the consensus gap.  Row n//2 rather than
    row 1: in the ring and islands laws agents 0 and 1 are neighbours,
    whose rows agree long before the rest, so a bound on them would let the
    full gap run on many more steps.  At n <= 3 the pair is rows 0 and 1.
    """
    return np.abs(prod[:, 0] - prod[:, prod.shape[1] // 2]).max(axis=1)


def _scan_replicas(spec: GeneratorSpec, replicas: int, seed: int, t_max: int, gap_tol: float,
                   start=None) -> tuple:
    """Run each replica in lockstep until its consensus gap reaches gap_tol, or to t_max.

    Returns ``(stops, pis, gaps)``: replica i stops at ``stops[i]``, its
    first step with gap <= gap_tol, or t_max + 1 if it never converged;
    ``pis`` and ``gaps`` hold row 0 of the product and the gap at the stop
    of each converged replica, in index order.  These are bitwise those of
    a serial scan of each replica's stream stopped at its consensus time.

    The observer does little on a typical step.  It compares the one entry
    P[0,0] with P[n//2,0] across the running products, a reduction over the
    replica axis alone, and returns at once where none is within gap_tol;
    otherwise it computes the two-row bound max_j |P[0,j] - P[n//2,j]|
    (_two_row_bound), and the full gap only of the products whose bound is.
    No first crossing is skipped, because entry <= bound <= gap in floating
    point: the entry is one of the bound's terms, and per column the exact
    spread is at least the exact difference of any two rows, and rounding
    is monotone.  The bound stays behind the entry: the entry alone would
    send several times as many products to the full gap.
    """
    gaps = np.empty(replicas)
    h = spec.n // 2

    def observe(t, idx, prod):
        check = np.abs(prod[:, 0, 0] - prod[:, h, 0]) <= gap_tol
        if not check.any():
            return None
        check = _two_row_bound(prod) <= gap_tol
        if not check.any():
            return None
        gap = consensus_gaps(prod[check])
        hit = gap <= gap_tol
        done = check.copy()
        done[check] = hit
        gaps[idx[done]] = gap[hit]
        return done

    prods, stops = _lockstep(spec, replicas, seed, t_max, observe, start=start)
    converged = stops <= t_max
    return stops, prods[converged, 0], gaps[converged]


def _initial_beliefs(p0, n: int) -> np.ndarray:
    """``p0`` as a float vector of n beliefs in [0, 1] (NaN fails)."""
    arr = np.asarray(p0, dtype=float)
    if arr.ndim != 1 or len(arr) < 1:
        raise DimensionMismatch("p0 must be a vector")
    if len(arr) != n:
        raise DimensionMismatch(f"{len(arr)} beliefs for n = {n} agents")
    if not ((arr >= 0) & (arr <= 1)).all():  # NaN too
        raise InvalidProbability("p0 entries must lie in [0,1]")
    return arr


def evolve(gen: GeneratorState, p0, steps: int) -> np.ndarray:
    """The (steps + 1, n) belief path of p_t = clip(X_t p_(t-1), 0, 1), as one replica of _lockstep on ``gen``.

    Row 0 is p0 and row t is p_t; the clip holds beliefs in [0, 1] against
    roundoff.  p0 is checked before any draw, and ``gen`` ends just after
    its steps-th draw, so a path taken in chunks, each from the last row of
    the one before, is bitwise the path of one call, in O(chunk n) memory.
    """
    if steps < 0:
        raise InvalidArgument("steps must be >= 0")
    path = np.empty((steps + 1, gen.spec.n))
    path[0] = _initial_beliefs(p0, gen.spec.n)

    def observe(t, idx, x):
        np.clip(x[0] @ path[t - 1], 0.0, 1.0, out=path[t])

    _lockstep(gen.spec, 1, None, steps, observe, multiply=False, start=lambda i, rng: gen)
    return path


def accumulate(gen: GeneratorState, t_max: int, gap_tol: float = GAP_TOL) -> ProductAccumulator:
    """Compute X^(t_max) by left composition.

    Records the first time the consensus gap (max column spread) drops to
    gap_tol, and whether any partial product was strictly positive.  ``gen``
    ends just after its t_max-th draw.
    """
    if t_max < 1:
        raise InvalidArgument("t_max must be >= 1")
    if not 0 <= gap_tol < 1:  # NaN too
        raise InvalidArgument(f"gap_tol must be >= 0 and < 1 (no gap exceeds 1), got {gap_tol}")
    prod, gap, strict_seen, consensus_time = _scan(gen, t_max, gap_tol)
    return ProductAccumulator(
        product=StochasticMatrix._trusted(prod),
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
    if not 0 <= gap_tol < 1:  # NaN too
        raise InvalidArgument(f"gap_tol must be >= 0 and < 1 (no gap exceeds 1), got {gap_tol}")

    stops, samples, gaps = _scan_replicas(spec, replicas, seed, t_max, gap_tol)
    converged = np.flatnonzero(stops <= t_max)
    if len(samples) * 2 < replicas:
        raise NoConvergence(len(samples), replicas)
    return InfluenceEstimate(
        samples=tuple(map(tuple, samples.tolist())),
        replica_index=tuple(converged.tolist()),
        per_replica_gap=tuple(gaps.tolist()),
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

    # Monte Carlo branches share one pass: a replica leaves it once its
    # partial product turns strictly positive.  The contraction coefficients
    # are read only when no replica turned positive, so when all ran to the
    # horizon; they are recorded only until the first one does.
    positive = np.zeros(replicas, dtype=bool)
    coefficients = np.empty((replicas, horizon))

    def observe(t, idx, prod):
        positive[idx] = strictly_positive(prod)
        if not positive.any():
            coefficients[idx, t - 1] = dobrushin_coefficients(renormalized(prod))
        return positive[idx]

    _lockstep(spec, replicas, seed, horizon, observe, keep=False)
    if positive.any():
        return ConditionCReport(HOLDS, "monte_carlo_positivity", int(positive.sum()) / replicas, horizon)
    means = coefficients.sum(axis=0) / replicas
    sq_means = (coefficients * coefficients).sum(axis=0) / replicas
    ses = np.sqrt(np.maximum(sq_means - means**2, 0.0) / replicas)
    return ConditionCReport(UNDETERMINED, "contraction_integral", float((means + 3.0 * ses).min()), horizon)


def semigroup_explore(support, max_len: int) -> SemigroupReport:
    """Breadth-first product generation from a finite support.

    Deduplicates elements by entrywise max distance DEDUP_TOL (an epsilon
    net) and reports every rank-one element found plus the minimal numeric
    rank.  A positive finding (rank-one element) is a certificate; absence is
    only evidence, since products are truncated at max_len.  Raises
    ExplosionGuard once the net holds more than SEMIGROUP_CAP elements.
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
        if count > SEMIGROUP_CAP:
            raise ExplosionGuard(f"semigroup exploration exceeded {SEMIGROUP_CAP} elements")

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


def convergence_time_2x2(spec: GeneratorSpec, phi: float, replicas: int,
                         t_cap: int | None = None, seed: int = 0) -> Speed2x2Result:
    """Periods needed for a two-agent product to come within phi of consensus.

    Tracks the first-column spread x_t - y_t of X^(t), which for n = 2 is
    the running product of second eigenvalues and hence nonincreasing in
    magnitude; t_phi is the last period with |x_t - y_t| >= phi (0 when the
    first product is already within phi).  t_cap defaults to
    50 ceil(log(1/phi)) periods.
    """
    if spec.n != 2:
        raise DimensionMismatch("convergence_time_2x2 requires n = 2")
    if not 0.0 < phi < 1.0:
        raise InvalidArgument("phi must lie in (0,1)")
    if replicas < 1:
        raise InvalidArgument("replicas must be >= 1")
    if t_cap is None:
        t_cap = 50 * math.ceil(-math.log(phi))
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
        if not (0 < self.a < math.inf and 0 < self.b < math.inf):  # NaN too
            raise InvalidProbability("beta parameters must be positive and finite")


@dataclass(frozen=True)
class AtomicWeightPairs:
    """Finitely many (x, y) weight atoms in [0, 1]^2, off the diagonal, with masses."""

    atoms: tuple  # ((x, y), mass), ...

    def __post_init__(self):
        total = 0.0
        for (xy, mass) in self.atoms:
            if not mass >= 0:  # NaN too
                raise InvalidProbability("atom masses must be nonnegative")
            x, y = float(xy[0]), float(xy[1])
            if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):  # NaN too
                raise InvalidProbability(f"atom weights must lie in [0, 1], got ({x}, {y})")
            if x == y:
                raise SingularMass(f"atom at x = y = {x} makes the energy infinite")
            total += mass
        if not abs(total - 1.0) <= PROB_TOL:
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
    the quantile map.  Nodes above 1/2 read the quantile from the upper
    end, as 1 - Q(u), which keeps the precision near u = 1 that Q(u) itself
    rounds away when b is small.  A value that is still not finite (Beta
    parameters below about 0.02, or near 1e300) raises NumericalFailure.
    This branch is the package's one use of scipy, imported on its first call.
    """
    if isinstance(mu_2x2, AtomicWeightPairs):
        total = 0.0
        for (xy, mass) in mu_2x2.atoms:
            total += mass * (-math.log(abs(float(xy[0]) - float(xy[1]))))
        return total
    if not isinstance(mu_2x2, BetaMarginalPair):
        raise Unsupported("log_energy needs a BetaMarginalPair or AtomicWeightPairs descriptor")
    a, b = mu_2x2.a, mu_2x2.b
    u, w = _gauss_panels(QUAD_ORDER)
    from scipy.special import betaincinv, betaln

    # the nodes from k on lie above 1/2: each takes r = 1 - Q(u), the
    # Beta(b, a) quantile at 1 - u (X -> 1 - X swaps a and b), and two of
    # them differ by |r_i - r_j|
    k = int(np.searchsorted(u, 0.5, side="right"))
    r = betaincinv(b, a, 1.0 - u[k:])
    q = np.concatenate([betaincinv(a, b, u[:k]), 1.0 - r])
    du = np.abs(u[:, None] - u[None, :])
    dq = np.abs(q[:, None] - q[None, :])
    dq[k:, k:] = np.abs(r[:, None] - r[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        # log density at the quantile points: the diagonal limit of the correction
        log_q = np.concatenate([np.log(q[:k]), np.log1p(-r)])
        log_1mq = np.concatenate([np.log1p(-q[:k]), np.log(r)])
        logf = (a - 1.0) * log_q + (b - 1.0) * log_1mq - betaln(a, b)
        psi = np.log(du) - np.log(dq)
        np.fill_diagonal(psi, logf)
        value = 1.5 + float(w @ psi @ w)
    if not math.isfinite(value):
        raise NumericalFailure(f"log energy of Beta({a}, {b}) marginals is not finite: "
                               "their quantiles round to 0 or 1 at the quadrature nodes")
    return value


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
        return _singular_values(p - p.mean(axis=1, keepdims=True))[:, 0]

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


def iid_skeletons(spec: GeneratorSpec) -> set:
    """The skeleton set of one draw of an iid process: skeleton_equivalence_test's law check, for one law."""
    if not spec.is_iid:
        raise NotIid("skeleton equivalence is defined for iid processes")
    return set(spec.support().skeletons)


def skeleton_equivalence_test(spec_a: GeneratorSpec, spec_b: GeneratorSpec,
                              horizon: int = 64, replicas: int = 200,
                              seed: int = 0) -> SkeletonEquivalenceReport:
    """Same initial social topology implies the same consensus verdict.

    Compares the skeleton sets of one draw from each iid process (atom-set
    equality for finite supports, declared masks for continuous ones), then
    runs the condition check on both and reports whether the verdicts agree.
    """
    if spec_a.n != spec_b.n:
        raise DimensionMismatch("societies must have equal size")
    same = iid_skeletons(spec_a) == iid_skeletons(spec_b)
    va = check_condition_c(spec_a, horizon=horizon, replicas=replicas, seed=seed)
    vb = check_condition_c(spec_b, horizon=horizon, replicas=replicas, seed=replica_seed(seed, 1))
    return SkeletonEquivalenceReport(
        same_initial_skeleton=same,
        verdict_a=va,
        verdict_b=vb,
        agree=va.verdict == vb.verdict,
    )
