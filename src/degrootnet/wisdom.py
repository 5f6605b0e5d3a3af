"""Collective-intelligence experiments across growing society sizes.

Runs consensus Monte Carlo over a family of generators indexed by n,
checks the Dirichlet-conjugacy predictions for balanced weight laws, and
evaluates the finite-support consensus-probability formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# _scan is unused here; it stays bound because perfbench/tracer.py patches wisdom._scan.
from .engine import GAP_TOL, _lockstep, _scan, _scan_replicas, estimate_influence  # noqa: F401
from .errors import (
    BalanceViolation,
    InvalidArgument,
    InvalidProbability,
    NoConvergence,
    PreconditionUnmet,
    Unsupported,
)
from .generators import GeneratorSpec
from .matrices import RANK_REL_TOL, StochasticMatrix, is_balanced, numeric_rank, strictly_positive
# replica_rng is unused here; it stays bound because perfbench/tracer.py patches wisdom.replica_rng.
from .seeding import replica_rng, replica_seed  # noqa: F401

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
        if not self.half_width > 0:  # NaN too
            raise InvalidProbability("half_width must be positive")
        if not (self.gamma - self.half_width >= 0 and self.gamma + self.half_width <= 1):
            raise InvalidProbability("signal support would leave [0,1]; clipping would bias the mean")

    @property
    def mean(self):
        return self.gamma

    @property
    def variance(self):
        return self.half_width**2 / 3.0

    def sample(self, rng, n):
        return rng.uniform(self.gamma - self.half_width, self.gamma + self.half_width, size=n)


# --- wisdom experiment -------------------------------------------------------


@dataclass(frozen=True)
class WisdomConfig:
    family: object            # callable n -> GeneratorSpec
    sizes: tuple
    signal_law: object        # mean, variance and sample(rng, n); its mean is the target
    replicas: int
    t_max: int
    gap_tol: float = GAP_TOL
    seed: int = 0

    def __post_init__(self):
        if self.replicas < 1:
            raise InvalidArgument("replicas must be >= 1")
        if self.t_max < 1:
            raise InvalidArgument("t_max must be >= 1")
        if not 0 <= self.gap_tol < 1:  # NaN too
            raise InvalidArgument(f"gap_tol must be >= 0 and < 1 (no gap exceeds 1), got {self.gap_tol}")
        if any(n < 2 for n in self.sizes):
            raise InvalidArgument("all sizes must be >= 2")
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


def run_wisdom(config: WisdomConfig) -> WisdomResult:
    """Consensus-error diagnostics per society size.

    Each replica draws signals from the signal law, runs the product to the
    gap tolerance, and scores |pi . p0 - gamma| against the law's mean
    gamma; the consensus value is read off the converged product, not a
    truncated trajectory.  A size
    whose replicas mostly fail to converge is reported with NaN error
    statistics rather than aborting the remaining sizes.
    """
    gamma = config.signal_law.mean
    out = []
    for idx, n in enumerate(config.sizes):
        spec = config.family(n)

        p0s = np.empty((config.replicas, n))

        def start(i, rng):
            # each replica draws its signals first, then its networks
            p0s[i] = np.clip(config.signal_law.sample(rng, n), 0.0, 1.0)
            return spec.start_state(rng)

        stops, pis, _ = _scan_replicas(spec, config.replicas, replica_seed(config.seed, idx), config.t_max,
                                       config.gap_tol, start=start)
        err = np.abs(np.matmul(pis[:, None, :], p0s[stops <= config.t_max][:, :, None])[:, 0, 0] - gamma)
        mp = pis.max(axis=1)
        frac = len(err) / config.replicas
        if 2 * len(err) >= config.replicas:  # replicas >= 1, so err is not empty
            stats = dict(mean_abs_error=err.mean(), q50=np.quantile(err, 0.5), q90=np.quantile(err, 0.9),
                         e_max_pi=mp.mean(), var_max_pi=mp.var(ddof=1) if len(mp) > 1 else 0.0)
        else:
            # NoConvergence-class outcome for this size; keep going
            stats = dict.fromkeys(("mean_abs_error", "q50", "q90", "e_max_pi", "var_max_pi"), math.nan)
        out.append(WisdomSizeResult(n=n, convergence_fraction=frac, **{k: float(v) for k, v in stats.items()}))
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
    replica runs to the consensus gap GAP_TOL.  The sample variance needs
    two replicas: fewer is InvalidArgument, and fewer than two converged
    is NoConvergence.
    """
    if replicas < 2:
        raise InvalidArgument("replicas must be >= 2: the sample variance needs two samples")
    if phi is None:
        alpha = getattr(spec, "alpha", None)
        if alpha is None:
            raise Unsupported("spec has no alpha matrix; pass phi explicitly")
        alpha = np.asarray(alpha, dtype=float)
        if not is_balanced(alpha):
            raise BalanceViolation("alpha row sums differ from column sums")
        phi = alpha.sum(axis=1)
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (spec.n,) or not ((phi > 0) & (phi < math.inf)).all():  # NaN too
        raise InvalidArgument(f"phi must be {spec.n} positive finite values, got {phi.tolist()}")
    phi0 = float(phi.sum())
    target_mean = phi / phi0
    target_var = phi * (phi0 - phi) / (phi0**2 * (phi0 + 1.0))

    est = estimate_influence(spec, replicas=replicas, t_max=t_max, seed=seed)
    samples = np.asarray(est.samples)
    r = samples.shape[0]
    if r < 2:
        raise NoConvergence(r, replicas)
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
                       seed: int = 0, allow_no_positive: bool = False) -> dict:
    """Rank of the replica-averaged limit product.

    Requires at least one strictly positive partial product to have been
    observed, per the hypothesis behind averaging to a rank-one matrix;
    ``allow_no_positive`` bypasses the check for processes whose limits
    are known to have no positive atom (the two-point swap example).

    The relative rank threshold, max(RANK_REL_TOL, 4/sqrt(replicas)),
    scales with the Monte Carlo error of the average: singular values below
    a few multiples of 1/sqrt(replicas) are statistically indistinguishable
    from zero.  The top singular value always counts, since an average of
    row-stochastic matrices has one of at least 1, so the rank is never 0
    even where that threshold reaches 1.
    The scan reads no gap: it tests positivity until some product is
    strictly positive, and the products are _lockstep's at t_max.
    """
    if replicas < 1:
        raise InvalidArgument("replicas must be >= 1")
    if t_max < 1:
        raise InvalidArgument("t_max must be >= 1")
    strict_seen = False

    def observe(t, idx, prod):
        nonlocal strict_seen
        strict_seen = strict_seen or bool(strictly_positive(prod).any())

    prods, _ = _lockstep(spec, replicas, seed, t_max, observe)
    if not strict_seen and not allow_no_positive:
        raise PreconditionUnmet("no strictly positive partial product observed")
    mean = StochasticMatrix._trusted(prods.sum(axis=0) / replicas)
    rank = max(1, numeric_rank(mean, rel_tol=max(RANK_REL_TOL, 4.0 / math.sqrt(replicas))).numeric_rank)
    return {"mean_limit": mean, "rank": rank}
