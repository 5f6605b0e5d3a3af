"""Collective-intelligence experiments across growing society sizes.

Runs consensus Monte Carlo over a family of generators indexed by n,
checks the Dirichlet-conjugacy predictions for balanced weight laws, and
evaluates the finite-support consensus-probability formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import GAP_TOL, _scan, estimate_influence
from .errors import (
    BalanceViolation,
    InvalidArgument,
    InvalidProbability,
    PreconditionUnmet,
    Unsupported,
)
from .generators import GeneratorSpec
from .matrices import PROB_TOL, RANK_REL_TOL, StochasticMatrix, is_balanced, numeric_rank
# replica_rng is unused here; it stays bound because perfbench/tracer.py patches wisdom.replica_rng.
from .seeding import map_replicas, replica_rng, replica_seed  # noqa: F401

# Finite-sample proxy for "the max influence share decays at a positive
# rate": fitted log-log slopes below this are treated as non-vanishing.
MIC3_SLOPE_FLOOR = 0.1


# --- signal laws -------------------------------------------------------------


@dataclass(frozen=True)
class UniformSignal:
    """Uniform(gamma - w, gamma + w); the support must stay inside [0,1]."""

    gamma: float
    half_width: float = 0.25

    def __post_init__(self):
        if self.half_width <= 0:
            raise InvalidProbability("half_width must be positive")
        if self.gamma - self.half_width < 0 or self.gamma + self.half_width > 1:
            raise InvalidProbability("signal support would leave [0,1]; clipping would bias the mean")

    @property
    def mean(self):
        return self.gamma

    @property
    def variance(self):
        return self.half_width**2 / 3.0

    def sample(self, rng, n):
        return rng.uniform(self.gamma - self.half_width, self.gamma + self.half_width, size=n)


@dataclass(frozen=True)
class BernoulliSignal:
    gamma: float

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise InvalidProbability("Bernoulli signals need gamma in (0,1) for positive variance")

    @property
    def mean(self):
        return self.gamma

    @property
    def variance(self):
        return self.gamma * (1.0 - self.gamma)

    def sample(self, rng, n):
        return (rng.random(n) < self.gamma).astype(float)


@dataclass(frozen=True)
class DiscreteSignal:
    """Finite support on [0,1] with given masses."""

    values: tuple
    probs: tuple

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        p = np.asarray(self.probs, dtype=float)
        if len(v) != len(p) or len(v) == 0:
            raise InvalidProbability("values and probs must align")
        if (v < 0).any() or (v > 1).any():
            raise InvalidProbability("signal values must lie in [0,1]")
        if (p < 0).any() or abs(p.sum() - 1.0) > PROB_TOL:
            raise InvalidProbability("signal masses must sum to 1")
        if self.variance <= 0:
            raise InvalidProbability("signal law needs positive variance")

    @property
    def mean(self):
        return float(np.dot(self.values, self.probs))

    @property
    def variance(self):
        v = np.asarray(self.values)
        return float(np.dot(self.probs, (v - self.mean) ** 2))

    def sample(self, rng, n):
        cum = np.cumsum(self.probs)
        idx = np.searchsorted(cum, rng.random(n), side="right")
        return np.asarray(self.values, dtype=float)[np.minimum(idx, len(self.values) - 1)]


# --- wisdom experiment -------------------------------------------------------


@dataclass(frozen=True)
class WisdomConfig:
    family: object            # callable n -> GeneratorSpec
    sizes: tuple
    gamma: float
    signal_law: object
    replicas: int
    t_max: int
    gap_tol: float = GAP_TOL
    seed: int = 0

    def __post_init__(self):
        if self.replicas < 1:
            raise InvalidArgument("replicas must be >= 1")
        if self.t_max < 1:
            raise InvalidArgument("t_max must be >= 1")
        if any(n < 2 for n in self.sizes):
            raise InvalidProbability("all sizes must be >= 2")
        if not 0.0 <= self.gamma <= 1.0:
            raise InvalidProbability("gamma must lie in [0,1]")
        if abs(self.signal_law.mean - self.gamma) > PROB_TOL:
            raise InvalidProbability("signal law mean must equal gamma")
        if self.signal_law.variance <= 0:
            raise InvalidProbability("signal law must have positive variance")


@dataclass(frozen=True)
class WisdomSizeResult:
    n: int
    mean_abs_error: float
    q50: float
    q90: float
    e_max_pi: float
    var_max_pi: float
    convergence_fraction: float


@dataclass(frozen=True)
class WisdomResult:
    per_size: tuple

    def by_n(self):
        return {r.n: r for r in self.per_size}


def run_wisdom(config: WisdomConfig) -> WisdomResult:
    """Consensus-error diagnostics per society size.

    Each replica draws signals with mean gamma, runs the product to the
    gap tolerance, and scores |pi . p0 - gamma|; the consensus value is
    read off the converged product, not a truncated trajectory.  A size
    whose replicas mostly fail to converge is reported with NaN error
    statistics rather than aborting the remaining sizes.
    """
    out = []
    for idx, n in enumerate(config.sizes):
        spec = config.family(n)

        def one(i, rng):
            p0 = np.clip(config.signal_law.sample(rng, n), 0.0, 1.0)
            prod, _, _gap, _sp, ctime = _scan(spec.start_state(rng), config.t_max, config.gap_tol,
                                              stop_when_converged=True)
            pi = prod[0]
            return None if ctime is None else (abs(float(pi @ p0) - config.gamma), float(pi.max()))

        results = map_replicas(one, config.replicas, replica_seed(config.seed, idx))
        errors = [r[0] for r in results if r is not None]
        max_pis = [r[1] for r in results if r is not None]
        frac = len(errors) / config.replicas
        if errors and 2 * len(errors) >= config.replicas:
            err = np.asarray(errors)
            mp = np.asarray(max_pis)
            out.append(WisdomSizeResult(
                n=n,
                mean_abs_error=float(err.mean()),
                q50=float(np.quantile(err, 0.5)),
                q90=float(np.quantile(err, 0.9)),
                e_max_pi=float(mp.mean()),
                var_max_pi=float(mp.var(ddof=1)) if len(mp) > 1 else 0.0,
                convergence_fraction=frac,
            ))
        else:
            # NoConvergence-class outcome for this size; keep going.
            out.append(WisdomSizeResult(
                n=n, mean_abs_error=math.nan, q50=math.nan, q90=math.nan,
                e_max_pi=math.nan, var_max_pi=math.nan, convergence_fraction=frac,
            ))
    return WisdomResult(per_size=tuple(out))


def check_mic3_rates(alpha_family, sizes) -> dict:
    """Log-log growth rates of the balance vector across society sizes.

    Fits sum(phi) ~ n^k and max_j phi_j / sum(phi) ~ n^(-m) by least
    squares; ``qualifies`` requires the fitted m to clear a small floor,
    since a ratio converging to a positive constant still fits a slightly
    positive slope at finite sizes.
    """
    if len(sizes) < 4:
        raise InvalidArgument("rate fitting needs at least 4 sizes")
    totals = []
    ratios = []
    for n in sizes:
        alpha = np.asarray(alpha_family(n), dtype=float)
        if not is_balanced(alpha):
            raise BalanceViolation(f"alpha for n={n} is not balanced")
        phi = alpha.sum(axis=1)
        totals.append(phi.sum())
        ratios.append(phi.max() / phi.sum())
    x = np.log(np.asarray(sizes, dtype=float))
    if np.ptp(x) == 0:
        return {"k_fit": 0.0, "m_fit": 0.0, "qualifies": False}
    k_fit = float(np.polyfit(x, np.log(totals), 1)[0])
    m_fit = float(-np.polyfit(x, np.log(ratios), 1)[0])
    return {"k_fit": k_fit, "m_fit": m_fit, "qualifies": m_fit > MIC3_SLOPE_FLOOR}


def dirichlet_conjugacy_test(spec: GeneratorSpec, replicas: int, seed: int = 0,
                             phi=None, t_max: int = 4000) -> dict:
    """Monte Carlo influence moments against the Dirichlet(phi) prediction.

    phi defaults to the generator's balance vector (row sums of its alpha),
    validated against the column sums; pass phi explicitly for processes
    such as the leader-follower network whose limit law is known to match
    a balanced reference despite having no alpha of their own.  Each
    replica runs to the consensus gap GAP_TOL.
    """
    if phi is None:
        alpha = getattr(spec, "alpha", None)
        if alpha is None:
            raise Unsupported("spec has no alpha matrix; pass phi explicitly")
        alpha = np.asarray(alpha, dtype=float)
        if not is_balanced(alpha):
            raise BalanceViolation("alpha row sums differ from column sums")
        phi = alpha.sum(axis=1)
    phi = np.asarray(phi, dtype=float)
    phi0 = float(phi.sum())
    target_mean = phi / phi0
    target_var = phi * (phi0 - phi) / (phi0**2 * (phi0 + 1.0))

    est = estimate_influence(spec, replicas=replicas, t_max=t_max, seed=seed)
    samples = np.asarray(est.samples)
    r = samples.shape[0]
    mean = samples.mean(axis=0)
    var = samples.var(axis=0, ddof=1)
    se_mean = samples.std(axis=0, ddof=1) / math.sqrt(r)
    centered = samples - mean
    m4 = (centered**4).mean(axis=0)
    se_var = np.sqrt(np.maximum(m4 - var**2, 0.0) / r)
    mean_ok = np.abs(mean - target_mean) <= 4.0 * se_mean
    var_ok = np.abs(var - target_var) <= 4.0 * se_var
    return {
        "phi": tuple(float(v) for v in phi),
        "mean_err": float(np.abs(mean - target_mean).max()),
        "var_err": float(np.abs(var - target_var).max()),
        "pass": bool(mean_ok.all() and var_ok.all()),
    }


def consensus_probability(k: int, phi_n: float) -> float:
    """Probability that n agents reach consensus with k iid support matrices.

    Equals sum_{j=0}^{k-1} C(k,j) (1-phi)^j phi^(k-j), the chance that the
    minimal rank among the k matrices is one; algebraically 1 - (1-phi)^k.
    """
    if k < 1:
        raise InvalidProbability("k must be >= 1")
    if not 0.0 <= phi_n <= 1.0:
        raise InvalidProbability("phi_n must lie in [0,1]")
    return float(sum(
        math.comb(k, j) * (1.0 - phi_n) ** j * phi_n ** (k - j)
        for j in range(k)
    ))


def mean_rank_one_test(spec: GeneratorSpec, replicas: int, t_max: int,
                       seed: int = 0, allow_no_positive: bool = False,
                       rank_rel_tol: float | None = None) -> dict:
    """Rank of the replica-averaged limit product.

    Requires at least one strictly positive partial product to have been
    observed, per the hypothesis behind averaging to a rank-one matrix;
    ``allow_no_positive`` bypasses the check for processes whose limits
    are known to have no positive atom (the two-point swap example).

    The default rank threshold scales with the Monte Carlo error of the
    average: singular values below a few multiples of 1/sqrt(replicas)
    are statistically indistinguishable from zero.  The top singular value
    always counts, since an average of row-stochastic matrices has one of
    at least 1, so the rank is never 0 even where that threshold reaches 1.
    """
    if replicas < 1:
        raise InvalidArgument("replicas must be >= 1")
    if rank_rel_tol is None:
        rank_rel_tol = max(RANK_REL_TOL, 4.0 / math.sqrt(replicas))
    scans = map_replicas(lambda i, rng: _scan(spec.start_state(rng), t_max, gap_tol=0.0),
                         replicas, seed)
    if not any(strict_seen for _, _, _, strict_seen, _ in scans) and not allow_no_positive:
        raise PreconditionUnmet("no strictly positive partial product observed")
    acc = scans[0][0]
    for prod, *_ in scans[1:]:
        acc = acc + prod
    mean = StochasticMatrix._trusted(acc / replicas)
    rank = max(1, numeric_rank(mean, rel_tol=rank_rel_tol).numeric_rank)
    return {"mean_limit": mean, "rank": rank}
