"""Network generating processes.

A GeneratorSpec is a declarative description of the random process that
emits the interaction matrices {X_t}: which matrices can occur, how often,
and with what temporal dependence.  A GeneratorState is a seeded stream
that actually produces the sequence; advancing two states built from the
same (seed, spec) yields bit-identical matrices.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EigenvectorFailure,
    InvalidProbability,
    NotStrictlyPositive,
    Unsupported,
)
from .matrices import (BALANCE_TOL, PROB_TOL, SkeletonMask, StochasticMatrix, _connected, is_balanced,
                       is_strictly_positive, renormalized, skeleton)

# DirichletRows' least positive alpha entry: below it the entry's gamma draw
# underflows to 0 with probability above 2^-53 (see DirichletRows)
MIN_ROW_ALPHA = 53 / 1075


@dataclass(frozen=True)
class SupportDescriptor:
    """What one draw can look like.

    kind "finite": every atom of positive probability, listed exactly once.
    kind "continuous": the possible skeleton masks (each occurring with
    positive probability) plus the probability that a single draw is
    entrywise strictly positive.
    """

    kind: str
    atoms: tuple = ()
    skeletons: tuple = ()
    strictly_positive_prob: float = 0.0


class GeneratorState:
    """Single-owner seeded stream of interaction matrices.

    Not safe for concurrent mutation; engine._lockstep advances the replicas
    of a run in lockstep chunks, each drawing from its own state.
    """

    __slots__ = ("spec", "rng", "last", "aux")

    def __init__(self, spec, seed):
        self.spec = spec
        self.rng = np.random.default_rng(seed)
        self.last = None      # previous matrix, for AR dependence
        self.aux = None       # previous support index, for Markov dependence

    def next_array(self) -> np.ndarray:
        return self.spec.draw_block(self, 1)[0]


class GeneratorSpec:
    """Base class for network generating processes."""

    kind = "abstract"
    # True when _block(state, k) is state.rng.random(k) and touches nothing else of
    # the state: engine._lockstep may then take a first block from seeding.first_uniforms
    _uniform_block = False

    @property
    def n(self) -> int:
        raise NotImplementedError

    @property
    def is_iid(self) -> bool:
        return True

    def start_state(self, seed) -> GeneratorState:
        return GeneratorState(self, seed)

    def draw_block(self, state: GeneratorState, k: int) -> np.ndarray:
        """The next k draws in stream order, as a (k, n, n) array.

        The one draw of every spec: ``next_array`` is a block of one.  The
        stream does not depend on the block size, so one block of k leaves
        the draws, the stream, ``aux`` and ``last`` where k blocks of one do.
        """
        return self._expand(self._rows(self._block(state, k)), np.zeros((k, self.n, self.n)))

    def _block(self, state: GeneratorState, k: int) -> np.ndarray:
        """The values behind the next k draws, one row per draw (k >= 1).

        Either the draws themselves or less, down to the stream call alone;
        ``_expand`` then turns the rows of all replicas back into matrices
        at once.
        """
        raise NotImplementedError

    def _width(self) -> int:
        """Values in one row of ``_block``."""
        return self.n * self.n

    def _rows(self, block: np.ndarray) -> np.ndarray:
        """A fresh (..., width) stack of ``_block`` rows made ready for ``_expand``, once per block.

        The identity here.  A law may move per-row work from ``_expand``,
        which runs once per step, into this, which runs once per block; it
        may write into ``block``, which nothing else reads.
        """
        return block

    def _expand(self, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The draws of a stack of r ``_rows`` rows, as an (r, n, n) array.

        ``out`` is an (r, n, n) buffer that was zero when first handed over
        and has since held only results of this method; the result may be
        written into it.
        """
        out[...] = rows
        return out

    def mean_matrix(self) -> StochasticMatrix:
        """Exact expectation of one draw under the generating process."""
        raise Unsupported(f"{self.kind} has no mean rule")

    def support(self) -> SupportDescriptor:
        raise Unsupported(f"{self.kind} has no support descriptor")

    def to_dict(self) -> dict:
        raise NotImplementedError

    @staticmethod
    def from_dict(doc: dict) -> "GeneratorSpec":
        kind = doc.get("model")
        if kind not in _REGISTRY:
            raise Unsupported(f"unknown generator model {kind!r}")
        return _REGISTRY[kind](doc)


def _finite_support(atoms) -> SupportDescriptor:
    return SupportDescriptor(kind="finite", atoms=tuple(atoms), skeletons=tuple(map(skeleton, atoms)))


@dataclass(frozen=True, eq=False)
class Fixed(GeneratorSpec):
    """Deterministic network: X_t = T every period."""

    matrix: StochasticMatrix
    kind = "fixed"

    @property
    def n(self):
        return self.matrix.n

    def _block(self, state, k):
        return np.broadcast_to(self.matrix.entries, (k, self.n, self.n))

    def mean_matrix(self):
        return self.matrix

    def support(self):
        return _finite_support((self.matrix,))

    def to_dict(self):
        return {"model": "fixed", "matrix": self.matrix.entries.tolist()}


@dataclass(frozen=True, eq=False)
class FiniteMixture(GeneratorSpec):
    """Finitely many interaction patterns drawn iid or with Markov dependence.

    ``probs`` is the marginal law of each draw.  With a ``transition``
    matrix over support indices the index sequence is a Markov chain started
    from ``probs``; stationarity then requires ``probs`` to be invariant for
    the transition, which is validated at construction.
    """

    atoms: tuple
    probs: tuple
    transition: tuple | None = None
    kind = "finite_mixture"

    def __post_init__(self):
        if not self.atoms:
            raise InvalidProbability("mixture needs at least one atom")
        n = self.atoms[0].n
        for a in self.atoms:
            if a.n != n:
                raise DimensionMismatch("mixture atoms must share a dimension")
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or len(p) != len(self.atoms):
            raise InvalidProbability("need one probability per atom")
        if not ((p >= 0).all() and abs(p.sum() - 1.0) <= PROB_TOL):  # NaN fails too
            raise InvalidProbability(f"mixture probs must be nonnegative and sum to 1, got {p.tolist()}")
        if self.transition is not None:
            tr = np.asarray(self.transition, dtype=float)
            k = len(self.atoms)
            if tr.shape != (k, k):
                raise DimensionMismatch("transition must be square over support indices")
            if not ((tr >= 0).all() and np.abs(tr.sum(axis=1) - 1.0).max() <= PROB_TOL):
                raise InvalidProbability("transition rows must be distributions")
            if np.abs(p @ tr - p).max() > BALANCE_TOL:
                raise InvalidProbability("probs must be stationary for the transition")
            object.__setattr__(self, "_tr_cum", np.cumsum(tr, axis=1))
        object.__setattr__(self, "_cum", np.cumsum(p))
        object.__setattr__(self, "_stack", np.stack([a.entries for a in self.atoms]))

    @property
    def n(self):
        return self.atoms[0].n

    @property
    def is_iid(self):
        return self.transition is None

    @property
    def _uniform_block(self):
        return self.transition is None

    def _index(self, cum, u):
        """Atom indices of uniforms ``u`` under cumulative law ``cum``."""
        return np.minimum(np.searchsorted(cum, u, side="right"), len(self.atoms) - 1)

    def _block(self, state, k):
        # iid: the uniforms, which _expand maps to atoms; Markov: atom indices
        u = state.rng.random(k)
        if self.transition is None:
            return u
        # each uniform's successor from every index, the start law last
        succ = [self._index(c, u).tolist() for c in (*self._tr_cum, self._cum)]
        i = len(self.atoms) if state.aux is None else state.aux
        idx = []
        for j in range(k):
            i = succ[i][j]
            idx.append(i)
        state.aux = i
        return np.array(idx)

    def _width(self):
        return 1

    def _expand(self, rows, out):
        if self.transition is None:
            rows = self._index(self._cum, rows)
        return np.take(self._stack, rows, axis=0, out=out)

    def mean_matrix(self):
        acc = np.zeros((self.n, self.n))
        for a, p in zip(self.atoms, self.probs):
            acc += float(p) * a.entries
        return StochasticMatrix._trusted(acc)

    def support(self):
        return _finite_support([a for a, p in zip(self.atoms, self.probs) if p > 0])

    def to_dict(self):
        doc = {
            "model": "finite_mixture",
            "atoms": [a.entries.tolist() for a in self.atoms],
            "probs": [float(p) for p in self.probs],
        }
        if self.transition is not None:
            doc["transition"] = [[float(p) for p in row] for row in self.transition]
        return doc


@dataclass(frozen=True, eq=False)
class DirichletRows(GeneratorSpec):
    """Independent Dirichlet rows, one concentration vector per row.

    A zero alpha entry is a structural zero: that weight is 0 almost surely,
    so the positive pattern of alpha is the common skeleton of every draw.
    Rows are sampled as independent Gamma draws normalized by their sum; a
    zero alpha entry gives 0 without consuming the stream.

    Every alpha entry must be 0 or finite and at least MIN_ROW_ALPHA =
    53/1075, and every row needs a positive one.  For a < 1, standard_gamma(a)
    is exactly 0.0 with probability about 2^(-1075 a), so above the bound
    support()'s skeleton alpha > 0 fails with probability below 2^-53 per
    entry and draw, and a row draws all zeros (0/0) more rarely still.

    When every positive alpha is the same, the gamma shape is stored as a
    Python float.  NumPy then skips checking and broadcasting an array of
    shapes on each call and draws the same variates: its loop calls the
    same per-variate sampler, in the same C order, either way.

    When every row of alpha has the same number m of positive entries, and
    m <= 2 or m = n, _rows normalizes each row of a whole block in place, by
    the sum of its m values, and _expand only scatters them: the same bits
    as summing and dividing the scattered (n, n) draw step by step, since
    it is the same elementwise add and divide done earlier.  A row of at
    most two values sums exactly in any order, since adding 0.0 is exact
    and fl(a + b) = fl(b + a), so m = 2 adds its two values.  A full row is
    the same contiguous values, summed in the same order.  Any other
    pattern leaves _rows the identity and sums full rows in _expand: NumPy
    need not add 3 <= m < n values in the order it adds them among the
    row's zeros (past its 8-value pairwise block it does not), and then
    the bits differ.
    """

    alpha: np.ndarray
    kind = "dirichlet_rows"

    def __post_init__(self):
        arr = np.array(self.alpha, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionMismatch(f"alpha must be square, got shape {arr.shape}")
        bad = np.argwhere(~((arr == 0) | (arr >= MIN_ROW_ALPHA) & (arr < np.inf)))  # negative, inf and NaN too
        if bad.size:
            i, j = map(int, bad[0])
            raise InvalidProbability(f"alpha entry ({i}, {j}) = {arr[i, j]:g} is neither 0 nor finite and at least "
                                     "53/1075: a smaller positive alpha draws 0 with probability above 2^-53")
        empty = np.flatnonzero(~arr.any(axis=1))
        if empty.size:
            raise InvalidProbability(f"alpha row {int(empty[0])} has no positive entry")
        arr.setflags(write=False)
        object.__setattr__(self, "alpha", arr)
        object.__setattr__(self, "_positive", np.nonzero(arr > 0))
        positive_alpha = arr[self._positive]
        object.__setattr__(self, "_positive_alpha", positive_alpha)
        constant = (positive_alpha == positive_alpha[0]).all()
        object.__setattr__(self, "_gamma_shape", float(positive_alpha[0]) if constant else positive_alpha)
        # positive entries per row when _rows normalizes rows in the block, else None
        counts = np.count_nonzero(arr, axis=1)
        m = int(counts[0])
        object.__setattr__(self, "_row_width", m if (counts == m).all() and (m <= 2 or m == self.n) else None)

    @property
    def n(self):
        return self.alpha.shape[0]

    @property
    def phi(self) -> np.ndarray:
        """Row sums of alpha; the Dirichlet parameter of pi when balanced."""
        return self.alpha.sum(axis=1)

    @property
    def balanced(self) -> bool:
        """True iff row sums of alpha equal column sums componentwise."""
        return is_balanced(self.alpha)

    def _block(self, state, k):
        # one gamma variate per positive alpha entry, in row-major order
        return state.rng.standard_gamma(self._gamma_shape, size=(k, self._positive_alpha.size))

    def _width(self):
        return self._positive_alpha.size

    def _rows(self, block):
        m = self._row_width
        if m is None:
            return block
        by_row = block.reshape(block.shape[:-1] + (self.n, m))
        sums = by_row[..., 0] + by_row[..., 1] if m == 2 else by_row.sum(axis=-1)
        np.divide(by_row, sums[..., None], out=by_row)
        return by_row.reshape(block.shape)

    def _expand(self, rows, out):
        # entries where alpha is zero are never written, so they stay zero
        i, j = self._positive
        out[:, i, j] = rows
        if self._row_width is None:
            out[:, i, j] = rows / out.sum(axis=2)[:, i]
        return out

    def mean_matrix(self):
        return StochasticMatrix._trusted(renormalized(self.alpha))

    def support(self):
        mask = SkeletonMask(self.alpha > 0)
        spp = 1.0 if mask.all_true() else 0.0
        return SupportDescriptor(kind="continuous", skeletons=(mask,), strictly_positive_prob=spp)

    def to_dict(self):
        return {"model": "dirichlet_rows", "alpha": self.alpha.tolist()}


class PerturbedFixed(DirichletRows):
    """Random fluctuations around a strictly positive fixed network T.

    The Dirichlet-rows process with alpha = epsilon * s_i * T_i, where s is
    the influence vector of T: the mean of every draw is T itself and the
    limiting influence vector is Dirichlet(phi), phi = epsilon * s.  Larger
    epsilon means smaller fluctuations.
    """

    kind = "perturbed_fixed"

    def __init__(self, matrix: StochasticMatrix, epsilon: float):
        if not 0 < epsilon < np.inf:  # NaN too
            raise InvalidProbability("epsilon must be positive and finite")
        if not is_strictly_positive(matrix):
            raise NotStrictlyPositive("perturbed_fixed requires a strictly positive T")
        s = _left_unit_eigenvector(matrix.entries)
        s.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "s", s)
        super().__init__(epsilon * s[:, None] * matrix.entries)

    @property
    def phi(self) -> np.ndarray:
        return self.epsilon * self.s

    def mean_matrix(self):
        return self.matrix

    def to_dict(self):
        return {"model": "perturbed_fixed", "matrix": self.matrix.entries.tolist(), "epsilon": self.epsilon}


@dataclass(frozen=True, eq=False)
class LeaderFollower(GeneratorSpec):
    """Two-step communication: a leader's draw steers every follower.

    One uniform x per period, and the draw is ``_branch(x)``.  Row 1 is
    (x, 1-x, 0, ...).  If x >= 1/2 the followers keep their own beliefs
    (identity rows); otherwise follower i pays full attention to agent
    i+1 (mod n).  Each branch has probability 1/2 and is affine in x with
    conditional mean 3/4 or 1/4, so the branches at 3/4 and 1/4 give the
    exact mean and the two skeletons.  Rows are correlated through the
    single draw, yet the limiting influence law matches the independent
    ring with uniform self-weights.
    """

    size: int
    kind = "leader_follower"
    _uniform_block = True

    def __post_init__(self):
        if self.size < 2:
            raise DimensionMismatch("leader_follower needs n >= 2")

    @property
    def n(self):
        return self.size

    def _branch(self, x) -> np.ndarray:
        """The draw for leader weight x, or the stack of draws for an array of them."""
        x = np.asarray(x, dtype=float)
        n = self.size
        out = np.zeros(x.shape + (n, n))
        out[..., 0, 0] = x
        out[..., 0, 1] = 1.0 - x
        followers = np.arange(1, n)
        keep = (x >= 0.5)[..., None]
        out[..., followers, followers] = keep
        out[..., followers, (followers + 1) % n] = ~keep
        return out

    def _block(self, state, k):
        return state.rng.random(k)

    def _width(self):
        return 1

    def _expand(self, rows, out):
        return self._branch(rows)

    def mean_matrix(self):
        return StochasticMatrix._trusted(0.5 * self._branch(0.75) + 0.5 * self._branch(0.25))

    def support(self):
        masks = tuple(SkeletonMask(self._branch(x) > 0) for x in (0.75, 0.25))
        return SupportDescriptor(kind="continuous", skeletons=masks, strictly_positive_prob=0.0)

    def to_dict(self):
        return {"model": "leader_follower", "n": self.size}


@dataclass(frozen=True, eq=False)
class Islands(GeneratorSpec):
    """Two islands of size g with within-island trees and one candidate cross link.

    Per draw: each island gets a uniformly random spanning tree whose g-1
    links are each kept with probability p_s; one uniformly random
    cross-island pair is linked with probability p_d.  The interaction
    matrix is the degree-normalized adjacency, with a self-loop added to
    any isolated agent so rows stay stochastic.

    The stream calls of that recipe are ``_calls``: 2g - 2 ``integers(g)``
    and 2g - 1 ``random()`` per draw.  A block reads its 3g - 2 PCG64 words
    per draw in one ``random_raw`` call and rebuilds those values bit for
    bit (``_raw_layout``, ``_lemire``), leaving the stream, its 32-bit
    buffer included, where the calls would; only a draw that NumPy would
    redraw, a chance below g 2^-32 per integer, sends the block back to the
    calls themselves.  A row holds the two Pruefer codes, the cross pair
    and the keep bits; ``_expand`` decodes the trees and weighs the graphs
    of all replicas at once.  The mean and the support both read ``_law``,
    the exact finite mixture over the graphs of ``islands_graph_atoms``
    (g <= 4), built once per spec.
    """

    g: int
    p_s: float
    p_d: float
    kind = "islands"

    def __post_init__(self):
        if self.g < 2:
            raise DimensionMismatch("islands needs g >= 2")
        for name, p in (("p_s", self.p_s), ("p_d", self.p_d)):
            if not 0.0 <= p <= 1.0:
                raise InvalidProbability(f"{name} must lie in [0,1], got {p}")

    @property
    def n(self):
        return 2 * self.g

    @property
    def homophily(self) -> bool:
        return self.p_s > self.p_d

    def _block(self, state, k):
        # one call for the block's 3g - 2 words per draw, read as the calls of _calls would read them
        bitgen = state.rng.bit_generator
        start = bitgen.state
        int_word, int_shift, uniform_word, last, w = _raw_layout(self.g, start["has_uint32"])
        words = bitgen.random_raw(k * w)
        base = np.arange(0, k * w, w)[:, None]
        halves = words[np.maximum(base + int_word, 0)] >> int_shift & 0xFFFFFFFF
        if start["has_uint32"]:
            halves[0, 0] = start["uinteger"]
        ints, rejected = _lemire(halves, self.g)
        if rejected:
            bitgen.state = start
            return self._serial_block(state.rng, k)
        end = bitgen.state
        end["uinteger"] = int(words[last - w] >> 32)
        bitgen.state = end
        keep = (words[base + uniform_word] >> 11) * 2.0**-53 < self._keep_below
        return np.concatenate([ints, keep], axis=1, dtype=np.int64)

    def _serial_block(self, rng, k):
        """The rows of ``_block`` from one stream call per value, in the order of ``_calls``."""
        rows = []
        for _ in range(k):
            ints, keep = [], []
            for bounded, p in _calls(self.g, self.p_s, self.p_d):
                if bounded:
                    ints.append(int(rng.integers(self.g)))
                else:
                    keep.append(rng.random() < p)
            rows.append(ints + keep)
        return np.array(rows, dtype=np.int64)

    @functools.cached_property
    def _keep_below(self):
        return np.array([p for bounded, p in _calls(self.g, self.p_s, self.p_d) if not bounded])

    def _width(self):
        return 4 * self.g - 3

    def _expand(self, rows, out):
        # rows: both Pruefer codes, the cross pair (i, j), then the keep bit of each tree edge and the cross link
        g, r = self.g, len(rows)
        trees = _pruefer_edges(rows[:, :2 * g - 4].reshape(2 * r, g - 2), g).reshape(r, 2 * g - 2, 2)
        trees += np.repeat([0, g], g - 1)[:, None]
        ends = np.concatenate([trees, (rows[:, 2 * g - 4:2 * g - 2] + [0, g])[:, None]], axis=1)
        rep, e = np.nonzero(rows[:, 2 * g - 2:])
        u, v = ends[rep, e].T
        adj = np.zeros((r, self.n, self.n), dtype=bool)
        adj[rep, u, v] = adj[rep, v, u] = True
        return _graph_to_row_weights(adj)

    @functools.cached_property
    def _law(self) -> FiniteMixture:
        adjs, probs = zip(*islands_graph_atoms(self.g, self.p_s, self.p_d))
        return FiniteMixture(atoms=tuple(map(StochasticMatrix._trusted, _graph_to_row_weights(np.array(adjs)))),
                             probs=probs)

    def mean_matrix(self):
        return self._law.mean_matrix()

    def support(self):
        return self._law.support()

    def to_dict(self):
        return {"model": "islands", "g": self.g, "p_s": self.p_s, "p_d": self.p_d}


class UndirectedDegree(FiniteMixture):
    """Random undirected graphs with a common degree sequence.

    The iid finite mixture whose atoms are the degree-normalized adjacency
    matrices of ``graphs``: each period one graph is drawn with its
    probability and every agent splits weight equally over its current
    neighbors.  Because the degree vector is the same for every graph,
    d/sum(d) is a common left unit vector of every atom and hence the
    almost-sure influence vector.
    """

    kind = "undirected_degree"

    def __init__(self, graphs, probs):
        adjs = tuple(np.array(a, dtype=bool) for a in graphs)
        for adj in adjs:
            if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
                raise DimensionMismatch("adjacency matrices must be square")
            if not np.array_equal(adj, adj.T) or adj.diagonal().any():
                raise InvalidProbability("adjacency must be symmetric with a zero diagonal")
            if not _connected(adj):
                raise InvalidProbability("every graph must be connected")
            if not np.array_equal(adj.sum(axis=1), adjs[0].sum(axis=1)):
                raise InvalidProbability("all graphs must share the degree vector")
            adj.setflags(write=False)
        object.__setattr__(self, "graphs", adjs)
        super().__init__(atoms=tuple(map(StochasticMatrix._trusted, _graph_to_row_weights(np.array(adjs)))),
                         probs=tuple(probs))

    @property
    def degrees(self) -> np.ndarray:
        return self.graphs[0].sum(axis=1).astype(float)

    def to_dict(self):
        return {
            "model": "undirected_degree",
            "graphs": [adj.astype(int).tolist() for adj in self.graphs],
            "probs": [float(p) for p in self.probs],
        }


@dataclass(frozen=True, eq=False)
class Ar1Mixture(GeneratorSpec):
    """Sticky weights: X_t = (1 - xi) X_{t-1} + xi Xi_t, started at X_0 = T0.

    Xi_t are iid draws from ``source``.  xi = 0 reproduces the fixed network
    T0, xi = 1 the iid source; intermediate xi interpolates with persistence.
    The start at T0 means the marginal law is only asymptotically stationary.
    """

    xi: float
    t0: StochasticMatrix
    source: GeneratorSpec
    kind = "ar1_mixture"

    def __post_init__(self):
        if not 0.0 <= self.xi <= 1.0:
            raise InvalidProbability("xi must lie in [0,1]")
        if self.t0.n != self.source.n:
            raise DimensionMismatch("T0 and source must share a dimension")
        if not self.source.is_iid:
            raise Unsupported("ar1_mixture source must be iid")

    @property
    def n(self):
        return self.t0.n

    @property
    def is_iid(self):
        return self.xi >= 1.0

    def _block(self, state, k):
        # a block of source draws, then the recurrence over it, in place:
        # out[j] = (1 - xi) out[j-1] + xi source[j], rounded as written
        prev = self.t0.entries if state.last is None else state.last
        out = np.empty((k, self.n, self.n))
        if self.xi == 0.0:
            out[...] = prev
        else:
            scaled = self.xi * self.source.draw_block(state, k)
            for j in range(k):
                prev = np.multiply(1.0 - self.xi, prev, out=out[j])
                prev += scaled[j]
        state.last = prev
        return out

    def mean_matrix(self):
        # Long-run (ergodic) mean: the source mean for xi > 0, T0 when frozen.
        if self.xi == 0.0:
            return self.t0
        return self.source.mean_matrix()

    def support(self):
        raise Unsupported("the stationary support of an AR(1) mixture has no finite description")

    def to_dict(self):
        return {
            "model": "ar1_mixture",
            "xi": self.xi,
            "t0": self.t0.entries.tolist(),
            "source": self.source.to_dict(),
        }


# --- named constructions ---------------------------------------------------


def ring_uniform_self(n: int) -> DirichletRows:
    """Ring where each agent keeps a Uniform(0,1) self-weight per period.

    Equals DirichletRows with alpha_ii = alpha_{i,i+1 mod n} = 1, so the
    balance vector is (2, ..., 2) and pi is Dirichlet(2, ..., 2).
    """
    if n < 2:
        raise DimensionMismatch("ring needs n >= 2")
    alpha = np.zeros((n, n))
    for i in range(n):
        alpha[i, i] = 1.0
        alpha[i, (i + 1) % n] = 1.0
    return DirichletRows(alpha)


def encounter_2x2(epsilon: float, p_meet: float, transition=None) -> FiniteMixture:
    """Two neighbors who meet at random; weight epsilon moves on encounters.

    Support is {I, ((1-eps, eps), (eps, 1-eps))}.  The default is iid with
    meet probability p_meet; pass a 2x2 ``transition`` over (stay-apart,
    meet) indices for correlated encounters.
    """
    if not 0.0 < epsilon < 1.0:
        raise InvalidProbability("epsilon must lie in (0,1)")
    if not 0.0 <= p_meet <= 1.0:
        raise InvalidProbability("p_meet must lie in [0,1]")
    eye = StochasticMatrix(np.eye(2))
    mix = StochasticMatrix([[1.0 - epsilon, epsilon], [epsilon, 1.0 - epsilon]])
    return FiniteMixture(atoms=(eye, mix), probs=(1.0 - p_meet, p_meet), transition=transition)


def two_point_swap(a: float) -> FiniteMixture:
    """Mass a on the identity and 1-a on the swap: mean ((a,1-a),(1-a,a))."""
    if not 0.0 < a < 1.0:
        raise InvalidProbability("a must lie in (0,1)")
    eye = StochasticMatrix(np.eye(2))
    swap = StochasticMatrix([[0.0, 1.0], [1.0, 0.0]])
    return FiniteMixture(atoms=(eye, swap), probs=(a, 1.0 - a))


def bernoulli_2x2(x: float, p_a: float, p_b: float) -> FiniteMixture:
    """Rows scaled Bernoulli: self-weights a_t = x Bern(p_a), b_t = x Bern(p_b)."""
    if not 0.0 < x <= 1.0:
        raise InvalidProbability("x must lie in (0,1]")
    for name, p in (("p_a", p_a), ("p_b", p_b)):
        if not 0.0 <= p <= 1.0:
            raise InvalidProbability(f"{name} must lie in [0,1]")

    def v(s, r):
        return StochasticMatrix([[s, 1.0 - s], [r, 1.0 - r]])

    atoms = (v(0, 0), v(0, x), v(x, 0), v(x, x))
    probs = ((1 - p_a) * (1 - p_b), (1 - p_a) * p_b, p_a * (1 - p_b), p_a * p_b)
    keep = [k for k, p in enumerate(probs) if p > 0]
    return FiniteMixture(atoms=tuple(atoms[k] for k in keep), probs=tuple(probs[k] for k in keep))


def mixing_identity_mixture(n: int, zeta: float) -> FiniteMixture:
    """Uniform-averaging matrix with probability zeta, identity otherwise."""
    if not 0.0 < zeta <= 1.0:
        raise InvalidProbability("zeta must lie in (0,1]")
    flat = StochasticMatrix(np.full((n, n), 1.0 / n))
    eye = StochasticMatrix(np.eye(n))
    if zeta == 1.0:
        return FiniteMixture(atoms=(flat,), probs=(1.0,))
    return FiniteMixture(atoms=(flat, eye), probs=(zeta, 1.0 - zeta))


# --- islands internals -------------------------------------------------------


def _calls(g, p_s, p_d):
    """The stream calls of one islands draw in order: (True, None) for ``rng.integers(g)``, (False, p)
    for the test ``rng.random() < p``.

    Per island a Pruefer code of g - 2 integers, then a keep test per tree edge; last the cross pair
    and its test.
    """
    tree = [(True, None)] * (g - 2) + [(False, p_s)] * (g - 1)
    return tree + tree + [(True, None), (True, None), (False, p_d)]


@functools.cache
def _raw_layout(g, buffered):
    """Where the values of one islands draw sit in its 3g - 2 PCG64 words.

    ``rng.random()`` is (word >> 11) 2^-53 of the next word.  ``rng.integers(g)`` takes a 32-bit
    half-word through PCG64's one-word buffer: the low half of a fresh word, whose high half is
    buffered for the next call.  A draw makes an even number of such calls, so the buffer is full
    (``buffered``) at its end iff at its start, and every draw of a block has the same layout.
    Returns the word index and shift of each integer's half-word (index ``last - w``, in the draw
    before, for the half buffered on entry), the word index of each uniform, the index ``last``
    of the draw's last integer word, and the word count w.
    """
    int_word, int_shift, uniform_word = [], [], []
    word, last = 0, None  # last: the word whose high half is buffered; None: a word of the draw before
    for bounded, _p in _calls(g, None, None):
        if not bounded:
            uniform_word.append(word)
            word += 1
        elif buffered:
            int_word.append(last)
            int_shift.append(32)
            buffered = False
        else:
            int_word.append(word)
            int_shift.append(0)
            last, word, buffered = word, word + 1, True
    int_word = [last - word if i is None else i for i in int_word]
    return np.array(int_word), np.array(int_shift, dtype=np.uint64), np.array(uniform_word), last, word


def _lemire(halves, g):
    """``rng.integers(g)`` of 32-bit draws (a uint64 array), and whether any draw would be redrawn.

    NumPy's bounded draw (Lemire, ACM TOMACS 2019): x becomes (x g) >> 32, and x is redrawn while
    (x g) mod 2^32 < 2^32 mod g.
    """
    m = halves * g
    return m >> 32, bool(((m & 0xFFFFFFFF) < (1 << 32) % g).any())


def _pruefer_edges(codes, g):
    """The labeled trees on g vertices with the Pruefer codes ``codes`` (m, g - 2), as (m, g - 1, 2) edges.

    The heap decode, once over all codes: step s joins the smallest leaf to ``codes[:, s]``, and
    the last two leaves, in order, make the final edge.
    """
    rows = np.arange(len(codes))
    degree = 1 + (codes[:, :, None] == np.arange(g)).sum(axis=1)
    edges = np.empty((len(codes), g - 1, 2), dtype=np.int64)
    for s, code in enumerate(codes.T):
        leaf = (degree == 1).argmax(axis=1)
        edges[:, s, 0], edges[:, s, 1] = leaf, code
        degree[rows, leaf] = 0
        degree[rows, code] -= 1
    edges[:, -1] = np.nonzero(degree == 1)[1].reshape(-1, 2)
    return edges


def _all_trees(g):
    """All labeled spanning trees on g vertices (g^(g-2) of them), in Pruefer code order."""
    codes = np.array(list(itertools.product(range(g), repeat=g - 2)), dtype=np.int64)
    return [list(map(tuple, tree)) for tree in _pruefer_edges(codes, g).tolist()]


def _island_edge_patterns(g, p_s):
    """Exact law of one island's realized edge set.

    Arithmetic follows the type of p_s, so Fraction inputs give exact
    rational probabilities.
    """
    one = p_s * 0 + 1
    trees = _all_trees(g)
    tree_prob = one / len(trees)
    out = {}
    for tree in trees:
        for keep_mask in itertools.product((False, True), repeat=len(tree)):
            kept = frozenset(e for e, keep in zip(tree, keep_mask) if keep)
            prob = tree_prob
            for keep in keep_mask:
                prob = prob * (p_s if keep else (one - p_s))
            out[kept] = out.get(kept, one * 0) + prob
    return list(out.items())


def islands_graph_atoms(g, p_s, p_d):
    """Exact finite graph distribution of the islands model.

    Yields (adjacency bool array, probability) with distinct graphs merged.
    Probabilities inherit the numeric type of p_s/p_d (floats or Fractions).
    Guarded to g <= 4; the pattern enumeration grows super-exponentially.
    """
    if g > 4:
        raise Unsupported("exact islands enumeration is limited to g <= 4")
    one = p_s * 0 + 1
    n = 2 * g
    patterns = _island_edge_patterns(g, p_s)
    cross_pairs = [(i, g + j) for i in range(g) for j in range(g)]
    cross_states = [(None, one - p_d)] + [(pair, p_d * (one / len(cross_pairs))) for pair in cross_pairs]
    merged = {}
    for e1, p1 in patterns:
        for e2, p2 in patterns:
            base = p1 * p2
            edges_base = [(u, v) for (u, v) in e1] + [(g + u, g + v) for (u, v) in e2]
            for cross, pc in cross_states:
                prob = base * pc
                if prob == 0:
                    continue
                edges = list(edges_base)
                if cross is not None:
                    edges.append(cross)
                key = frozenset(tuple(sorted(e)) for e in edges)
                merged[key] = merged.get(key, one * 0) + prob
    for key, prob in merged.items():
        adj = np.zeros((n, n), dtype=bool)
        for (u, v) in key:
            adj[u, v] = adj[v, u] = True
        yield adj, prob


def _graph_to_row_weights(adj: np.ndarray) -> np.ndarray:
    """Degree-normalized adjacency of each graph in an (..., n, n) stack; isolated agents get a self-loop first."""
    a = adj.astype(float)
    diagonal = np.arange(a.shape[-1])
    a[..., diagonal, diagonal] += ~adj.any(axis=-1)
    return renormalized(a)


def _left_unit_eigenvector(T: np.ndarray) -> np.ndarray:
    """Influence vector of a strictly positive fixed network, by power iteration."""
    n = T.shape[0]
    s = np.full(n, 1.0 / n)
    for _ in range(100000):
        nxt = s @ T
        nxt /= nxt.sum()
        if np.abs(nxt - s).max() < 1e-13:
            return nxt
        s = nxt
    raise EigenvectorFailure("left eigenvector iteration did not converge")


# --- serialization registry --------------------------------------------------


def _mk_fixed(doc):
    return Fixed(StochasticMatrix(doc["matrix"]))


def _mk_mixture(doc):
    atoms = tuple(StochasticMatrix(a) for a in doc["atoms"])
    tr = doc.get("transition")
    return FiniteMixture(atoms=atoms, probs=tuple(doc["probs"]), transition=tuple(map(tuple, tr)) if tr else None)


def _mk_dirichlet(doc):
    return DirichletRows(np.array(doc["alpha"], dtype=float))


def _mk_perturbed(doc):
    return PerturbedFixed(StochasticMatrix(doc["matrix"]), float(doc["epsilon"]))


def _mk_leader(doc):
    return LeaderFollower(int(doc["n"]))


def _mk_islands(doc):
    return Islands(int(doc["g"]), float(doc["p_s"]), float(doc["p_d"]))


def _mk_undirected(doc):
    return UndirectedDegree(tuple(np.array(a, dtype=bool) for a in doc["graphs"]), tuple(doc["probs"]))


def _mk_ar1(doc):
    return Ar1Mixture(float(doc["xi"]), StochasticMatrix(doc["t0"]), GeneratorSpec.from_dict(doc["source"]))


_REGISTRY = {
    "fixed": _mk_fixed,
    "finite_mixture": _mk_mixture,
    "dirichlet_rows": _mk_dirichlet,
    "perturbed_fixed": _mk_perturbed,
    "leader_follower": _mk_leader,
    "islands": _mk_islands,
    "undirected_degree": _mk_undirected,
    "ar1_mixture": _mk_ar1,
}
