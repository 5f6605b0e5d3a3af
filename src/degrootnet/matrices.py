"""Exact and numerical primitives for row-stochastic matrices.

Everything here is pure and operates on immutable values: validation,
products, zero-pattern skeletons, numeric ranks, contraction coefficients,
and the handful of spectral quantities the rest of the package needs.

_closure is the one breadth-first enumeration of support products, read by
the skeleton closure of condition (C), primitivity and engine.semigroup_explore.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, NegativeEntry, NumericalFailure, RowSumViolation

ROW_TOL = 1e-12
ZERO_TOL = 1e-12
RANK_REL_TOL = 1e-8
PROB_TOL = 1e-12
BALANCE_TOL = 1e-9

HOLDS = "holds"
FAILS = "fails"


class StochasticMatrix:
    """Dense n-by-n row-stochastic matrix.

    Row i holds the weights agent i places on all agents.  Entries are
    validated at construction and rows are renormalized to sum to 1 in
    working precision; the stored array is read-only afterwards.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        arr = np.array(entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise DimensionMismatch(f"expected a square matrix, got shape {arr.shape}")
        neg = np.argwhere(arr < 0.0)
        if neg.size:
            i, j = map(int, neg[0])
            raise NegativeEntry(i, j, float(arr[i, j]))
        sums = arr.sum(axis=1)
        bad = np.argwhere(np.abs(sums - 1.0) > ROW_TOL)
        if bad.size:
            i = int(bad[0][0])
            raise RowSumViolation(i, float(sums[i]))
        arr /= sums[:, None]
        arr.setflags(write=False)
        self.entries = arr

    @classmethod
    def _trusted(cls, arr: np.ndarray) -> "StochasticMatrix":
        # Internal constructor for arrays already known to be row-stochastic
        # (generator output, renormalized products).  Skips validation.
        obj = object.__new__(cls)
        arr = np.asarray(arr, dtype=float)
        arr = arr / arr.sum(axis=1, keepdims=True)
        arr.setflags(write=False)
        obj.entries = arr
        return obj

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def __repr__(self):
        return f"StochasticMatrix(n={self.n})"

    def __matmul__(self, other):
        return multiply(self, other)


class SkeletonMask:
    """Boolean zero-pattern of an interaction matrix (the social topology)."""

    __slots__ = ("mask",)

    def __init__(self, mask):
        arr = np.array(mask, dtype=bool)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionMismatch(f"expected a square mask, got shape {arr.shape}")
        arr.setflags(write=False)
        self.mask = arr

    @property
    def n(self) -> int:
        return self.mask.shape[0]

    def all_true(self) -> bool:
        return bool(self.mask.all())

    def __eq__(self, other):
        return isinstance(other, SkeletonMask) and np.array_equal(self.mask, other.mask)

    def __hash__(self):
        return hash((self.n, self.mask.tobytes()))

    def __repr__(self):
        return f"SkeletonMask({self.mask.astype(int).tolist()})"


@dataclass(frozen=True)
class RankReport:
    numeric_rank: int
    singular_values: tuple
    tol_used: float


def make_stochastic(entries) -> StochasticMatrix:
    """Validate and renormalize a raw array into a StochasticMatrix."""
    return StochasticMatrix(entries)


def multiply(a: StochasticMatrix, b: StochasticMatrix) -> StochasticMatrix:
    """Matrix product a.b; the engine composes left products as X_{t+1}.X^(t)."""
    if a.n != b.n:
        raise DimensionMismatch(f"cannot multiply {a.n}x{a.n} by {b.n}x{b.n}")
    return StochasticMatrix._trusted(a.entries @ b.entries)


def skeleton(m: StochasticMatrix) -> SkeletonMask:
    """Zero-pattern mask: true wherever an entry exceeds ZERO_TOL."""
    return SkeletonMask(m.entries > ZERO_TOL)


def same_skeleton(a: StochasticMatrix, b: StochasticMatrix) -> bool:
    """True iff the two matrices have the same social topology."""
    if a.n != b.n:
        raise DimensionMismatch(f"cannot compare {a.n}x{a.n} with {b.n}x{b.n}")
    return skeleton(a) == skeleton(b)


def is_strictly_positive(m: StochasticMatrix) -> bool:
    return bool((m.entries > ZERO_TOL).all())


def is_bistochastic(m: StochasticMatrix) -> bool:
    """True iff every column also sums to 1 within BALANCE_TOL."""
    return bool(np.abs(m.entries.sum(axis=0) - 1.0).max() <= BALANCE_TOL)


def is_balanced(alpha: np.ndarray) -> bool:
    """True iff the row sums of alpha equal its column sums within BALANCE_TOL."""
    return bool(np.abs(alpha.sum(axis=1) - alpha.sum(axis=0)).max() <= BALANCE_TOL)


def dobrushin_coefficient(m: StochasticMatrix) -> float:
    """Ergodic (contraction) coefficient of a stochastic matrix.

    c(m) = 1 - min over row pairs (i,k) of sum_j min(m[i,j], m[k,j]).
    Lies in [0,1]; equals 0 iff all rows are identical; is < 1 whenever
    the matrix is strictly positive.  Submultiplicative over products,
    so c bounds the consensus gap of a left product by the product of
    factor coefficients.
    """
    return float(dobrushin_coefficients(m.entries))


def dobrushin_coefficients(stack: np.ndarray) -> np.ndarray:
    """dobrushin_coefficient of each matrix in an (..., n, n) stack of row-stochastic arrays."""
    n = stack.shape[-1]
    if n == 1:
        return np.zeros(stack.shape[:-2])
    i, k = np.triu_indices(n, 1)
    overlap = np.minimum(stack[..., i, :], stack[..., k, :]).sum(axis=-1)
    return 1.0 - overlap.min(axis=-1)


def lambda2_2x2(m: StochasticMatrix) -> float:
    """Second eigenvalue a - b of a 2x2 stochastic matrix ((a,1-a),(b,1-b))."""
    if m.n != 2:
        raise DimensionMismatch(f"lambda2_2x2 requires n=2, got n={m.n}")
    return float(m.entries[0, 0] - m.entries[1, 0])


def numeric_rank(m: StochasticMatrix, rel_tol: float = RANK_REL_TOL) -> RankReport:
    """SVD-based rank with a relative singular-value threshold."""
    try:
        sv = np.linalg.svd(m.entries, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc
    tol_used = rel_tol * float(sv[0])
    rank = int((sv > tol_used).sum())
    return RankReport(numeric_rank=rank, singular_values=tuple(float(s) for s in sv), tol_used=tol_used)


def distance_to_rank_one(m: StochasticMatrix) -> float:
    """Max over columns of the column spread; 0 iff all rows are identical."""
    return float((m.entries.max(axis=0) - m.entries.min(axis=0)).max())


def wielandt_bound(n: int) -> int:
    """Exact power bound for boolean primitivity of an n x n pattern."""
    return (n - 1) * (n - 1) + 1


def skeleton_is_primitive(s: SkeletonMask, max_power: int | None = None) -> bool:
    """True iff some boolean power s^k with k <= max_power is all-true.

    Defaults to the Wielandt bound (n-1)^2 + 1, which is exact, so the
    default answer is a certificate in both directions.
    """
    if max_power is None:
        max_power = wielandt_bound(s.n)
    if max_power < 1:
        raise InvalidArgument("max_power must be >= 1")
    # one atom adds at most one pattern per power, so this cap never binds
    return _skeleton_closure([s], max_power, cap=max_power)[0] == HOLDS


def _closure(atoms, product, is_new, max_len: int):
    """Yield (length, element) for each new product of the atoms, shortest first.

    Level 1 offers the atoms; level L offers product(a, f) for every atom a
    and every element f new at level L-1, in (atom, frontier) order.
    ``is_new`` decides and records newness.  Ends after max_len levels or
    after a level that adds nothing; products are formed only on demand.
    """
    candidates = atoms
    for length in range(1, max_len + 1):
        frontier = []
        for element in candidates:
            if is_new(element):
                frontier.append(element)
                yield length, element
        if not frontier:
            return
        candidates = itertools.starmap(product, itertools.product(atoms, frontier))


def _skeleton_closure(masks, horizon: int, cap: int = 4096):
    """Boolean-product closure of support skeletons up to length ``horizon``.

    ("holds", length) once an all-true pattern appears; ("fails", length)
    when a length adds no pattern; ("open", patterns) once more than ``cap``
    patterns are held or the horizon is spent.  Exact for finite supports:
    the zero pattern of a product of nonnegative matrices is the boolean
    product of the factors' patterns.
    """
    atoms = list({m.mask.tobytes(): m.mask for m in masks}.values())
    seen = set()

    def is_new(mask):
        key = mask.tobytes()
        if key in seen:
            return False
        seen.add(key)
        return True

    length = 0
    for length, mask in _closure(atoms, boolean_product, is_new, horizon):
        if mask.all():
            return HOLDS, length
        if len(seen) > cap:
            return "open", len(seen)
    return (FAILS, length + 1) if length < horizon else ("open", len(seen))


def _connected(adj: np.ndarray) -> bool:
    """Depth-first connectivity of a symmetric boolean adjacency matrix."""
    n = adj.shape[0]
    if n <= 1:
        return True
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        u = stack.pop()
        for v in np.flatnonzero(adj[u]):
            if not seen[v]:
                seen[v] = True
                stack.append(int(v))
    return bool(seen.all())


def boolean_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean matrix product: (ab)[i,j] = OR_k (a[i,k] AND b[k,j])."""
    return (a.astype(np.uint8) @ b.astype(np.uint8)) > 0
