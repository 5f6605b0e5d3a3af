"""Graph-support analysis: disconnected collections, p_max, and decay rates.

A disconnected collection is a set of realizable graphs whose edge union
is disconnected; p_max is the total probability of the most likely one.
Its |log| is the large-deviation decay rate of the consensus-gap tail for
symmetric positive-diagonal processes, so p_max doubles as a worst-case
homophily measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import _lockstep
from .errors import (
    DimensionMismatch,
    InsufficientEvents,
    InvalidArgument,
    InvalidProbability,
    SizeLimit,
    Unsupported,
)
from .generators import FiniteMixture, GeneratorSpec, islands_graph_atoms
from .matrices import PROB_TOL, ZERO_TOL, StochasticMatrix, _connected, spectral_norms

MIN_EVENTS = 20
# p_max enumerates at most 2^SUBSET_LIMIT atom subsets or 2^(CUT_LIMIT - 1) cuts.
SUBSET_LIMIT = 20
CUT_LIMIT = 16


class Graph:
    """Undirected simple graph as a symmetric boolean adjacency matrix.

    Self-weights live in interaction matrices, not here: the diagonal is
    required to be zero.
    """

    __slots__ = ("adjacency",)

    def __init__(self, adjacency):
        adj = np.array(adjacency, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise DimensionMismatch(f"adjacency must be square, got shape {adj.shape}")
        if not np.array_equal(adj, adj.T):
            raise InvalidProbability("adjacency must be symmetric")
        if adj.diagonal().any():
            raise InvalidProbability("adjacency must have a zero diagonal")
        adj.setflags(write=False)
        self.adjacency = adj

    @property
    def n(self):
        return self.adjacency.shape[0]

    def edges(self):
        iu = np.triu_indices(self.n, 1)
        return [(int(i), int(j)) for i, j in zip(*iu) if self.adjacency[i, j]]

    def __eq__(self, other):
        return isinstance(other, Graph) and np.array_equal(self.adjacency, other.adjacency)

    def __hash__(self):
        return hash((self.n, self.adjacency.tobytes()))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={len(self.edges())})"

    @classmethod
    def from_edges(cls, n, edges):
        adj = np.zeros((n, n), dtype=bool)
        for (u, v) in edges:
            adj[u, v] = adj[v, u] = True
        return cls(adj)


@dataclass(frozen=True)
class GraphDistribution:
    """Finite list of (graph, probability) atoms; atoms must be distinct.

    Probabilities may be floats or exact Fractions; downstream arithmetic
    follows the given type.
    """

    atoms: tuple

    def __post_init__(self):
        if not self.atoms:
            raise InvalidProbability("need at least one atom")
        n = self.atoms[0][0].n
        seen = set()
        total = 0
        for g, p in self.atoms:
            if g.n != n:
                raise DimensionMismatch("graph atoms must share a vertex set")
            if not p > 0:  # NaN too
                raise InvalidProbability("atom probabilities must be positive")
            if g in seen:
                raise InvalidProbability("atoms must be distinct")
            seen.add(g)
            total += p
        if not abs(float(total) - 1.0) <= PROB_TOL:
            raise InvalidProbability(f"atom probabilities sum to {float(total)}, not 1")

    @property
    def n(self):
        return self.atoms[0][0].n

    def to_dict(self):
        return {
            "n": self.n,
            "atoms": [
                {"adjacency": g.adjacency.astype(int).tolist(), "prob": float(p)}
                for g, p in self.atoms
            ],
        }

    @classmethod
    def from_dict(cls, doc):
        return cls(atoms=tuple((Graph(a["adjacency"]), a["prob"]) for a in doc["atoms"]))


@dataclass(frozen=True)
class FragmentationReport:
    p_max: float
    argmax_collection: tuple | None
    pi_g_empty: bool
    predicted_rate: float
    argmax_cut: tuple | None = None

    def to_dict(self):
        return {
            "p_max": float(self.p_max),
            "pi_g_empty": self.pi_g_empty,
            "predicted_rate": self.predicted_rate,
            "argmax_collection": None if self.argmax_collection is None else [
                g.adjacency.astype(int).tolist() for g in self.argmax_collection
            ],
            "argmax_cut": None if self.argmax_cut is None else list(self.argmax_cut),
        }


# The report of a law whose every disconnected collection is empty.
_NEVER_FRAGMENTS = FragmentationReport(p_max=0.0, argmax_collection=None,
                                       pi_g_empty=True, predicted_rate=math.inf)


def _rate(p):
    p = float(p)
    if p <= 0.0:
        return math.inf
    return abs(math.log(p))


def p_max(dist: GraphDistribution) -> FragmentationReport:
    """Most likely disconnected collection, by the smaller exact enumeration.

    Enumerates the 2^(n-1) vertex cuts when they are fewer than the
    2^atoms atom subsets, or when the atoms exceed SUBSET_LIMIT; otherwise
    the subsets, the only path for n > CUT_LIMIT.  Both are exhaustive, so
    they return the same p_max.
    """
    atoms, n = len(dist.atoms), dist.n
    if n <= CUT_LIMIT and (n - 1 < atoms or atoms > SUBSET_LIMIT):
        return _by_cuts(dist)
    if atoms > SUBSET_LIMIT:
        raise SizeLimit(f"{atoms} atoms exceed the subset limit {SUBSET_LIMIT} "
                        f"and n = {n} exceeds the cut limit {CUT_LIMIT}")
    return _by_subsets(dist)


def _by_subsets(dist: GraphDistribution) -> FragmentationReport:
    """Depth-first over atom subsets with superset pruning.

    Once a partial union is connected, adding graphs only adds edges, so
    the whole superset branch is skipped.
    """
    atoms = dist.atoms
    zero = atoms[0][1] * 0
    best = {"p": zero, "subset": None}

    def recurse(idx, union, prob, chosen):
        if chosen and _connected(union):
            # Adding graphs only adds edges: every superset is connected too.
            return
        if idx == len(atoms):
            if chosen and float(prob) > float(best["p"]):
                best["p"] = prob
                best["subset"] = list(chosen)
            return
        recurse(idx + 1, union, prob, chosen)
        g, p = atoms[idx]
        recurse(idx + 1, union | g.adjacency, prob + p, chosen + [idx])

    recurse(0, np.zeros((dist.n, dist.n), dtype=bool), zero, [])
    if best["subset"] is None:
        return _NEVER_FRAGMENTS
    collection = tuple(atoms[k][0] for k in best["subset"])
    return FragmentationReport(
        p_max=best["p"], argmax_collection=collection,
        pi_g_empty=False, predicted_rate=_rate(best["p"]),
    )


def _cut_sides(n: int) -> np.ndarray:
    """Every vertex cut (S, S^c) of 0..n-1, as a (2^(n-1) - 1, n) boolean table of the side S that holds vertex 0.

    Row c is the cut whose S holds vertex v + 1 iff bit v of c is set; the
    row of all ones, S = every vertex, is no cut and is left out.
    """
    rows = np.arange((1 << (n - 1)) - 1)
    side = np.ones((len(rows), n), dtype=bool)
    for v in range(n - 1):
        side[:, v + 1] = rows >> v & 1
    return side


def p_max_by_cuts(dist: GraphDistribution) -> FragmentationReport:
    """p_max by vertex-cut enumeration only."""
    if dist.n > CUT_LIMIT:
        raise SizeLimit(f"cut enumeration limited to n <= {CUT_LIMIT}")
    return _by_cuts(dist)


def _by_cuts(dist: GraphDistribution) -> FragmentationReport:
    """For every cut (S, S^c) the best disconnected collection avoiding it is
    exactly the set of atoms with no edge across, so p_max is the maximum
    over cuts of that set's total probability.

    The cuts are the rows of _cut_sides, in order; the first cut of the
    largest total wins, and each total adds its atoms' probabilities in atom
    order, so Fractions stay exact.
    """
    if all(_connected(g.adjacency) for g, _p in dist.atoms):
        return _NEVER_FRAGMENTS
    n = dist.n
    side = _cut_sides(n)
    crossing = (side[:, :, None] != side[:, None, :]).reshape(len(side), n * n)
    adjacency = np.array([g.adjacency for g, _p in dist.atoms]).reshape(-1, n * n)
    # avoids[k, c]: no edge of atom k crosses cut c
    avoids = adjacency.astype(np.int32) @ crossing.T.astype(np.int32) == 0
    zero = dist.atoms[0][1] * 0
    best_p = zero
    best = None
    for c, avoiding in enumerate(avoids.T):
        kept = np.flatnonzero(avoiding).tolist()
        total = zero
        for k in kept:
            total = total + dist.atoms[k][1]
        if kept and float(total) > float(best_p):
            best_p = total
            best = c, kept
    if best is None:
        return _NEVER_FRAGMENTS
    c, kept = best
    return FragmentationReport(
        p_max=best_p, argmax_collection=tuple(dist.atoms[k][0] for k in kept), pi_g_empty=False,
        predicted_rate=_rate(best_p), argmax_cut=tuple(np.flatnonzero(side[c]).tolist()),
    )


def bernoulli_edge_p_max(base: Graph, p) -> FragmentationReport:
    """p_max for iid edge deletion on a base graph: each edge kept w.p. p.

    The atoms are all 2^|E| subgraphs; over any cut, the collection of
    subgraphs with no edge across it has probability (1-p)^(edges across),
    so p_max = (1-p)^(minimum edge boundary).  For a connected k-regular
    base with edge connectivity k this is (1-p)^k.
    """
    if not (0 < float(p) <= 1):
        raise InvalidProbability("p must lie in (0,1]")
    n = base.n
    if n > 20:
        raise SizeLimit("cut enumeration limited to n <= 20")
    one = p * 0 + 1
    if float(p) == 1.0 or n == 1:  # the base graph is the only atom, or it has no cut
        if _connected(base.adjacency):
            return _NEVER_FRAGMENTS
        return FragmentationReport(p_max=one, argmax_collection=(base,),
                                   pi_g_empty=False, predicted_rate=0.0)
    # the first cut with the fewest edges across
    side = _cut_sides(n)
    across = np.zeros(len(side), dtype=np.int64)
    for u, v in base.edges():
        across += side[:, u] != side[:, v]
    c = int(across.argmin())
    value = (one - p) ** int(across[c])
    return FragmentationReport(
        p_max=value, argmax_collection=None, pi_g_empty=False,
        predicted_rate=_rate(value), argmax_cut=tuple(np.flatnonzero(side[c]).tolist()),
    )


def islands_distribution(g: int, p_s, p_d) -> GraphDistribution:
    """Exact finite graph distribution of the two-island model."""
    atoms = tuple((Graph(adj), prob) for adj, prob in islands_graph_atoms(g, p_s, p_d))
    return GraphDistribution(atoms=atoms)


def lazy_metropolis(graph: Graph) -> StochasticMatrix:
    """Lazy Metropolis weights: symmetric, stochastic, diagonal >= 1/2.

    Off-diagonal weight (1/2) / max(d_i, d_j) on edges, remainder on the
    diagonal; isolated vertices keep full self-weight.
    """
    adj = graph.adjacency
    n = graph.n
    deg = adj.sum(axis=1).astype(float)
    w = np.zeros((n, n))
    for (u, v) in graph.edges():
        w_uv = 0.5 / max(deg[u], deg[v])
        w[u, v] = w[v, u] = w_uv
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return StochasticMatrix(w)


def metropolis_mixture(dist: GraphDistribution) -> FiniteMixture:
    """IID generator over the lazy-Metropolis matrices of a graph law.

    Distinct graphs can map to the same weight matrix; probabilities merge.
    """
    merged = {}  # insertion-ordered: atoms keep the order of their first graph
    for g, p in dist.atoms:
        m = lazy_metropolis(g)
        merged.setdefault(m.entries.tobytes(), [m, 0.0])[1] += float(p)
    atoms = tuple(m for m, _ in merged.values())
    probs = tuple(p for _, p in merged.values())
    return FiniteMixture(atoms=atoms, probs=probs)


@dataclass(frozen=True)
class RateReport:
    empirical_rate: float
    per_t_logprob: tuple
    counts: tuple
    t_grid: tuple


def decay_rate_estimate(spec: GeneratorSpec, epsilon: float, t_grid, replicas: int,
                        seed: int = 0) -> RateReport:
    """Empirical decay rate of P(||X^(t) - (1/n)11'|| >= epsilon).

    Requires an iid process whose support is finite and made of symmetric
    atoms with positive diagonals, each checked to ZERO_TOL absolutely (no
    draw of a continuous law can be shown symmetric from finitely many).  The
    spectral norm of X^(t) - J is then nonincreasing in t, so each replica
    is scanned once up to its crossing time.  Each step takes one SVD per
    distinct product (matrices.spectral_norms): a law of k atoms has at most
    k^t, and replicas that share a product share its bytes, so the verdicts
    are bitwise those of an SVD per replica.  The slope is fit by least
    squares over grid times with at least 20 exceedance events; when the
    exceedance count is identically zero beyond some finite time, the
    process disconnects with probability zero and the rate is +inf.
    """
    if not 0.0 < epsilon <= 1.0:
        raise InvalidArgument("epsilon must lie in (0,1]")
    if replicas < 1:
        raise InvalidArgument("replicas must be >= 1")
    t_grid = sorted(set(int(t) for t in t_grid))
    if not t_grid or t_grid[0] < 1:
        raise InvalidArgument("t_grid must contain positive times")
    if not spec.is_iid:
        raise Unsupported("decay_rate_estimate requires an iid process")
    desc = spec.support()
    if desc.kind != "finite" or any(not np.allclose(e, e.T, rtol=0, atol=ZERO_TOL) or (np.diag(e) <= 0).any()
                                    for e in (atom.entries for atom in desc.atoms)):
        raise Unsupported("draws must be symmetric with positive diagonals, from a finite support")
    n = spec.n
    flat = np.full((n, n), 1.0 / n)
    t_max = t_grid[-1]

    def observe(t, idx, prod):
        return spectral_norms(prod - flat) < epsilon

    _, crossings = _lockstep(spec, replicas, seed, t_max, observe, keep=False)  # t_max + 1: no crossing by then
    counts = np.array([int((t < crossings).sum()) for t in t_grid])
    logprob = tuple(
        math.log(c / replicas) if c > 0 else -math.inf for c in counts
    )
    usable = [(t, lp) for t, lp, c in zip(t_grid, logprob, counts) if c >= MIN_EVENTS]
    if len(usable) >= 2:
        xs = np.array([t for t, _ in usable], dtype=float)
        ys = np.array([lp for _, lp in usable])
        slope = float(np.polyfit(xs, ys, 1)[0])
        rate = -slope
    elif counts.max() == 0 or counts[-1] == 0:
        # Exceedances die out entirely: the +inf marker case.
        rate = math.inf
    else:
        raise InsufficientEvents("fewer than 2 grid points with enough exceedance events")
    return RateReport(empirical_rate=rate, per_t_logprob=logprob,
                      counts=tuple(int(c) for c in counts), t_grid=tuple(t_grid))
