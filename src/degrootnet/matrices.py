"""Exact and numerical primitives for row-stochastic matrices.

Everything here is pure and operates on immutable values: validation,
products, zero-pattern skeletons, numeric ranks, contraction coefficients,
and the handful of spectral quantities the rest of the package needs.

Each numerical test a consensus verdict rests on is written once here, in a
form over (..., n, n) stacks: consensus_gaps, strictly_positive, skeletons,
numeric_ranks, spectral_norms and first_within, the duplicate match.  So is
the roundoff policy, renormalized: the row division of every product and
weight.

_closure is the one breadth-first enumeration of support products, read by
the skeleton closure of condition (C), primitivity and engine.semigroup_explore.
It forms each level as one batched product per atom over the stack of the
previous level's new elements, then tests the results one by one in order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NegativeEntry, NumericalFailure, RowSumViolation

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
        neg = np.argwhere(~(arr >= 0.0))  # NaN too
        if neg.size:
            i, j = map(int, neg[0])
            raise NegativeEntry(i, j, float(arr[i, j]))
        sums = arr.sum(axis=1)
        bad = np.argwhere(~(np.abs(sums - 1.0) <= ROW_TOL))
        if bad.size:
            i = int(bad[0][0])
            raise RowSumViolation(i, float(sums[i]))
        arr = renormalized(arr)
        arr.setflags(write=False)
        self.entries = arr

    @classmethod
    def _trusted(cls, arr: np.ndarray) -> "StochasticMatrix":
        # Internal constructor for arrays already known to be row-stochastic
        # (generator output, renormalized products).  Skips validation.
        obj = object.__new__(cls)
        arr = renormalized(np.asarray(arr, dtype=float))
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


def renormalized(stack: np.ndarray) -> np.ndarray:
    """A new (..., n, n) stack with each row divided by its sum; in place (/=) it gives the same bits."""
    return stack / stack.sum(axis=-1, keepdims=True)


def skeleton(m: StochasticMatrix) -> SkeletonMask:
    """Zero-pattern mask: true wherever an entry exceeds ZERO_TOL."""
    return SkeletonMask(skeletons(m.entries))


def skeletons(stack: np.ndarray) -> np.ndarray:
    """Boolean zero pattern of each matrix in an (..., n, n) stack: true wherever an entry exceeds ZERO_TOL."""
    return stack > ZERO_TOL


def is_strictly_positive(m: StochasticMatrix) -> bool:
    return bool(strictly_positive(m.entries))


def strictly_positive(stack: np.ndarray) -> np.ndarray:
    """is_strictly_positive of each matrix in an (..., n, n) stack."""
    return stack.min(axis=(-2, -1)) > ZERO_TOL


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


@functools.cache
def _row_pairs(n: int) -> tuple:
    """The row pairs i < k of an n-by-n matrix, ``np.triu_indices(n, 1)`` as read-only arrays."""
    pairs = np.triu_indices(n, 1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def dobrushin_coefficients(stack: np.ndarray) -> np.ndarray:
    """dobrushin_coefficient of each matrix in an (..., n, n) stack of row-stochastic arrays."""
    n = stack.shape[-1]
    if n == 1:
        return np.zeros(stack.shape[:-2])
    i, k = _row_pairs(n)
    overlap = np.minimum(stack[..., i, :], stack[..., k, :]).sum(axis=-1)
    return 1.0 - overlap.min(axis=-1)


def numeric_rank(m: StochasticMatrix, rel_tol: float = RANK_REL_TOL) -> RankReport:
    """SVD-based rank with a relative singular-value threshold."""
    sv, rank = _ranked_singular_values(m.entries, rel_tol)
    return RankReport(numeric_rank=int(rank), singular_values=tuple(sv.tolist()), tol_used=rel_tol * float(sv[0]))


def numeric_ranks(stack: np.ndarray) -> np.ndarray:
    """numeric_rank of each matrix in an (..., n, n) stack, from one batched SVD."""
    return _ranked_singular_values(stack, RANK_REL_TOL)[1]


def spectral_norms(stack: np.ndarray) -> np.ndarray:
    """The 2-norm of each matrix in an (r, n, n) stack, from one SVD per distinct matrix.

    Matrices are the same only when their bytes are, so -0.0 and 0.0 differ.
    The same bytes through the same batched LAPACK call give the same singular
    values, largest first, so each norm is bitwise NumPy's ord-2 norm of its
    matrix: the largest singular value of an SVD of every matrix.
    """
    r, n, _ = stack.shape
    keys = np.ascontiguousarray(stack).reshape(r, n * n).view(np.dtype((np.void, n * n * stack.itemsize)))[:, 0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return _singular_values(stack[first])[:, 0][inverse]


def _ranked_singular_values(stack: np.ndarray, rel_tol: float):
    """Singular values of each matrix in the stack, and how many exceed rel_tol times the largest."""
    sv = _singular_values(stack)
    return sv, (sv > rel_tol * sv[..., :1]).sum(axis=-1)


def _singular_values(stack: np.ndarray) -> np.ndarray:
    """Singular values of each matrix in an (..., n, n) stack, largest first: the package's one SVD."""
    try:
        return np.linalg.svd(stack, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc


def consensus_gaps(stack: np.ndarray) -> np.ndarray:
    """The consensus gap max_j (max_i P[i,j] - min_i P[i,j]) of each matrix P in an (..., n, n) stack."""
    return (stack.max(axis=-2) - stack.min(axis=-2)).max(axis=-1)


def first_within(items, x: np.ndarray, tol: float) -> int | None:
    """Index of the first matrix of an (m, n, n) stack ``items`` within entrywise max distance ``tol`` of ``x``, or None.

    A matrix whose distance is NaN is never within ``tol``.
    """
    if len(items) == 0:
        return None
    hits = np.abs(items - x).max(axis=(-2, -1)) <= tol
    k = int(hits.argmax())
    return k if hits[k] else None


def skeleton_is_primitive(s: SkeletonMask) -> bool:
    """True iff some boolean power s^k with k <= (n-1)^2 + 1 is all-true.

    That horizon is the Wielandt bound, which is exact, so the answer is a
    certificate in both directions.
    """
    wielandt = (s.n - 1) ** 2 + 1
    # one atom adds at most one pattern per power, so this cap never binds
    return _skeleton_closure([s], wielandt, cap=wielandt)[0] == HOLDS


def _closure(atoms, product, is_new, max_len: int):
    """Yield (length, element) for each new product of the atoms, shortest first.

    Level 1 offers the atoms; level L offers, atom a by atom a, the matrices
    of product(a, F), where F stacks the elements new at level L-1: so
    product(a, f) for every atom a and frontier element f, in (atom,
    frontier) order.  ``product`` must broadcast over the stack.  ``is_new``
    decides and records newness, one candidate at a time.  Ends after
    max_len levels or after a level that adds nothing; an atom's batch is
    formed only once the previous atom's has been read.
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
        stack = np.stack(frontier)
        candidates = (element for a in atoms for element in product(a, stack))


def _skeleton_closure(masks, horizon: int, cap: int = 4096):
    """Boolean-product closure of support skeletons up to length ``horizon``.

    ("holds", length) once an all-true pattern appears; ("fails", length)
    when a length adds no pattern; ("open", patterns) once more than ``cap``
    patterns are held or the horizon is spent.  Exact for finite supports:
    the zero pattern of a product of nonnegative matrices is the boolean
    product of the factors' patterns.
    """
    atoms = list({m.mask.tobytes(): m.mask for m in masks}.values())
    all_true = np.ones_like(atoms[0]).tobytes()
    seen = set()

    def is_new(mask):
        key = mask.tobytes()
        if key in seen:
            return False
        seen.add(key)
        return True

    length = 0
    for length, mask in _closure(atoms, boolean_product, is_new, horizon):
        if mask.tobytes() == all_true:
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
    """Boolean matrix product: (ab)[i,j] = OR_k (a[i,k] AND b[k,j]).

    Broadcasts over (..., n, n) stacks.  The count of k with both entries
    true is summed in float32, which never rounds a positive count to 0,
    at any n; BLAS does the sums.
    """
    return (a.astype(np.float32) @ b.astype(np.float32)) > 0
