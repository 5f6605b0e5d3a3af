import contextlib
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degrootnet import (
    dobrushin_coefficient,
    is_strictly_positive,
    make_stochastic,
    numeric_rank,
    skeleton,
    skeleton_is_primitive,
)
from degrootnet import matrices
from degrootnet.errors import NegativeEntry, NumericalFailure, RowSumViolation
from degrootnet.matrices import (
    SkeletonMask,
    _closure,
    _skeleton_closure,
    boolean_product,
    consensus_gaps,
    first_within,
    numeric_ranks,
    skeletons,
    spectral_norms,
    strictly_positive,
)


def h_matrix(kappa):
    return make_stochastic([[0, 0, 1], [0, 0, 1], [kappa, 1 - kappa, 0]])


def ring_shift(n):
    return make_stochastic(np.roll(np.eye(n), 1, axis=1))


def per_pair_closure(atoms, product, is_new, max_len):
    """The closure with one product per (atom, frontier element) pair, formed on demand: the oracle."""
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


def bytes_recorder():
    """An is_new that records each element's bytes, and the list of elements it was offered."""
    seen, offered = set(), []

    def is_new(element):
        key = element.tobytes()
        offered.append(key)
        if key in seen:
            return False
        seen.add(key)
        return True

    return is_new, offered


@contextlib.contextmanager
def svd_sizes():
    """The list of the sizes of the stacks that reach the package's SVD while the block runs."""
    sizes = []
    with mock.patch.object(matrices, "_singular_values", wraps=matrices._singular_values) as svd:
        svd.side_effect = lambda stack: sizes.append(len(stack)) or mock.DEFAULT
        yield sizes


@st.composite
def closure_atoms(draw):
    """One to four n x n atoms, n = 2..6: boolean masks, or stochastic matrices sparse or dense."""
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    boolean = draw(st.booleans())
    atoms = []
    for density in draw(st.lists(st.sampled_from([0.2, 0.5, 1.0]), min_size=1, max_size=4)):
        mask = rng.random((n, n)) < density
        mask[np.arange(n), rng.integers(0, n, n)] = True  # every row keeps a positive entry
        if boolean:
            atoms.append(mask)
        else:
            m = np.where(mask, rng.random((n, n)), 0.0)
            atoms.append(m / m.sum(axis=1, keepdims=True))
    return atoms, boolean


class TestMakeStochastic:
    def test_identity_accepted(self):
        m = make_stochastic([[1, 0], [0, 1]])
        assert np.array_equal(m.entries, np.eye(2))

    def test_flat_accepted(self):
        m = make_stochastic([[0.5, 0.5], [0.5, 0.5]])
        assert m.n == 2

    def test_row_sum_violation(self):
        with pytest.raises(RowSumViolation) as err:
            make_stochastic([[0.6, 0.5], [0, 1]])
        assert err.value.row == 0
        assert err.value.total == pytest.approx(1.1)

    def test_negative_entry(self):
        with pytest.raises(NegativeEntry) as err:
            make_stochastic([[1.2, -0.2], [0.5, 0.5]])
        assert (err.value.i, err.value.j) == (0, 1)

    def test_renormalizes_within_tolerance(self):
        m = make_stochastic([[0.5 + 2e-13, 0.5], [0.3, 0.7]])
        assert np.abs(m.entries.sum(axis=1) - 1.0).max() < 1e-15

    def test_entries_read_only(self):
        m = make_stochastic([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError):
            m.entries[0, 0] = 0.9


class TestSkeleton:
    def test_example_pair_masks(self):
        m = make_stochastic([[0.9, 0.1], [1, 0]])
        assert skeleton(m).mask.tolist() == [[True, True], [True, False]]
        m2 = make_stochastic([[2 / 3, 1 / 3], [1, 0]])
        assert skeleton(m2) == skeleton(m)

    def test_identity_mask(self):
        assert skeleton(make_stochastic(np.eye(3))).mask.tolist() == np.eye(3, dtype=bool).tolist()

    def test_same_skeleton_time_varying_pair(self):
        # agent 1 shifts weight over time but never to zero
        for t in range(1, 6):
            x = make_stochastic([[1 - 1 / (t + 1), 1 / (t + 1)], [1, 0]])
            y = make_stochastic([[2 / 3 - 1 / (4 * t), 1 / 3 + 1 / (4 * t)], [1, 0]])
            assert skeleton(x) == skeleton(y)

    def test_same_skeleton_counterexample_and_reflexive(self):
        eye = make_stochastic(np.eye(2))
        swap = make_stochastic([[0, 1], [1, 0]])
        assert skeleton(eye) != skeleton(swap)
        assert skeleton(swap) == skeleton(swap)

    def test_equivalence_relation_on_random_triples(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 5))
            mats = []
            for _k in range(3):
                raw = rng.random((n, n)) * (rng.random((n, n)) < 0.7)
                raw += np.eye(n) * 1e-3  # keep rows nonzero
                mats.append(make_stochastic(raw / raw.sum(axis=1, keepdims=True)))
            a, b, c = mats
            sa, sb, sc = skeleton(a), skeleton(b), skeleton(c)
            assert sa == sa
            assert (sa == sb) == (sb == sa)
            if sa == sb and sb == sc:
                assert sa == sc


class TestPredicates:
    def test_strictly_positive(self):
        assert is_strictly_positive(make_stochastic([[0.5, 0.5], [0.5, 0.5]]))
        assert not is_strictly_positive(make_stochastic(np.eye(2)))
        assert not is_strictly_positive(ring_shift(5))


class TestDobrushin:
    def test_reference_values(self):
        assert dobrushin_coefficient(make_stochastic([[0.3, 0.7], [0.3, 0.7]])) == 0.0
        assert dobrushin_coefficient(make_stochastic(np.eye(2))) == 1.0
        assert dobrushin_coefficient(make_stochastic([[0.5, 0.5], [0.25, 0.75]])) == pytest.approx(0.25)

    def test_submultiplicative_on_products(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            raws = rng.random((2, n, n)) + 1e-9
            a = make_stochastic(raws[0] / raws[0].sum(axis=1, keepdims=True))
            b = make_stochastic(raws[1] / raws[1].sum(axis=1, keepdims=True))
            assert dobrushin_coefficient(make_stochastic(a.entries @ b.entries)) <= (
                dobrushin_coefficient(a) * dobrushin_coefficient(b) + 1e-12
            )

    def test_strictly_positive_implies_contraction(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            raw = rng.random((n, n)) + 0.01
            m = make_stochastic(raw / raw.sum(axis=1, keepdims=True))
            assert is_strictly_positive(m)
            assert dobrushin_coefficient(m) < 1.0

    @pytest.mark.parametrize("n", range(1, 9))
    def test_stack_equals_the_pairwise_reference_bytewise(self, n):
        rng = np.random.default_rng(100 + n)
        for shape in ((), (3,), (2, 5)):
            raw = rng.random(shape + (n, n)) * (rng.random(shape + (n, n)) < 0.7)
            raw[..., np.arange(n), np.arange(n)] += 0.1
            stack = raw / raw.sum(axis=-1, keepdims=True)
            want = np.empty(shape)
            for index in np.ndindex(*shape):
                m = stack[index]
                overlaps = [np.minimum(m[i], m[k]).sum() for i in range(n) for k in range(i + 1, n)]
                want[index] = 1.0 - min(overlaps, default=1.0)
            got = matrices.dobrushin_coefficients(stack)
            assert got.shape == shape and got.tobytes() == want.tobytes()
        # the row pairs are built once per n and cannot be changed by a caller
        pairs = matrices._row_pairs(n)
        assert matrices._row_pairs(n) is pairs
        assert all(not index.flags.writeable for index in pairs)
        assert [index.tolist() for index in pairs] == [index.tolist() for index in np.triu_indices(n, 1)]


class TestRankAndGap:
    def test_rank_values(self):
        assert numeric_rank(make_stochastic([[0.3, 0.7], [0.3, 0.7]])).numeric_rank == 1
        assert numeric_rank(make_stochastic(np.eye(3))).numeric_rank == 3
        assert numeric_rank(h_matrix(0.5)).numeric_rank == 2

    def test_rank_report_threshold(self):
        rep = numeric_rank(make_stochastic(np.eye(3)))
        assert rep.tol_used == pytest.approx(1e-8 * rep.singular_values[0])
        assert sorted(rep.singular_values, reverse=True) == list(rep.singular_values)

    def test_gap_values(self):
        assert consensus_gaps(make_stochastic([[0.3, 0.7], [0.3, 0.7]]).entries) == 0.0
        assert consensus_gaps(make_stochastic(np.eye(2)).entries) == 1.0
        assert consensus_gaps(make_stochastic([[0.6, 0.4], [0.5, 0.5]]).entries) == pytest.approx(0.1)

    def test_gap_zero_iff_rank_one(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            row = rng.random(n) + 0.05
            row /= row.sum()
            rank_one = make_stochastic(np.tile(row, (n, 1)))
            assert consensus_gaps(rank_one.entries) <= 1e-15
            assert numeric_rank(rank_one).numeric_rank == 1
            raw = rng.random((n, n)) + 0.05
            generic = make_stochastic(raw / raw.sum(axis=1, keepdims=True))
            if numeric_rank(generic).numeric_rank > 1:
                assert consensus_gaps(generic.entries) > 1e-9


    def test_stack_forms_match_the_one_matrix_forms(self):
        rng = np.random.default_rng(11)
        stack = rng.dirichlet(np.ones(4), size=(30, 4))
        stack[rng.random((30, 4, 4)) < 0.2] = 0.0
        stack[::3] = stack[::3, :1]  # every third matrix is rank one
        stack += (stack.sum(axis=2, keepdims=True) == 0)
        ms = [make_stochastic(m) for m in stack / stack.sum(axis=2, keepdims=True)]
        stack = np.array([m.entries for m in ms])
        gaps, positive, masks, ranks = consensus_gaps(stack), strictly_positive(stack), skeletons(stack), numeric_ranks(stack)
        for k, m in enumerate(ms):
            assert gaps[k] == consensus_gaps(m.entries)
            assert positive[k] == is_strictly_positive(m)
            assert SkeletonMask(masks[k]) == skeleton(m)
            assert ranks[k] == numeric_rank(m).numeric_rank
        assert set(ranks[::3].tolist()) == {1} and positive.any() and not positive.all()


class TestSpectralNorms:
    @settings(max_examples=200, deadline=None)
    @given(r=st.integers(1, 40), n=st.one_of(st.just(1), st.integers(2, 20)), seed=st.integers(0, 2**32 - 1),
           copies=st.integers(0, 40), zeros=st.integers(0, 6))
    def test_bitwise_the_per_matrix_norm_from_one_svd_per_distinct_matrix(self, r, n, seed, copies, zeros):
        rng = np.random.default_rng(seed)
        stack = rng.standard_normal((r, n, n))
        for _ in range(copies):  # planted duplicates
            stack[rng.integers(r)] = stack[rng.integers(r)]
        for _ in range(zeros):  # signed zeros: a -0.0 copy of a 0.0 matrix is another key
            k, i, j = rng.integers(r), rng.integers(n), rng.integers(n)
            stack[k, i, j] = 0.0
            if r > 1 and rng.random() < 0.5:
                stack[(k + 1) % r] = stack[k]
                stack[(k + 1) % r, i, j] = -0.0
        with svd_sizes() as sizes:
            norms = spectral_norms(stack)
        assert norms.shape == (r,)
        assert norms.tobytes() == np.linalg.norm(stack, 2, axis=(1, 2)).tobytes()
        assert sizes == [len({m.tobytes() for m in stack})]

    def test_signed_zeros_are_distinct_matrices(self):
        stack = np.zeros((3, 2, 2))
        stack[1, 0, 1] = -0.0
        with svd_sizes() as sizes:
            assert spectral_norms(stack).tolist() == [0.0, 0.0, 0.0]
        assert sizes == [2]

    def test_svd_failure_is_a_numerical_failure(self, monkeypatch):
        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")
        monkeypatch.setattr(np.linalg, "svd", broken)
        with pytest.raises(NumericalFailure, match="SVD did not converge"):
            spectral_norms(np.eye(3)[None])


class TestFirstWithin:
    def test_first_match_within_the_tolerance_inclusive(self):
        base = np.zeros((2, 2))
        items = [base + 1.0, base + 0.25, base + 0.5, base + 0.75]
        assert first_within(items, base + 0.5, 0.25) == 1  # 0.25 and 0.75 are exactly 0.25 away
        assert first_within(items, base + 0.6, 0.1) == 2
        assert first_within(items, base + 2.5, 1.0) is None
        assert first_within([], base, 1.0) is None

    @settings(max_examples=300, deadline=None)
    @given(m=st.integers(0, 12), n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           tol=st.sampled_from([0.0, 0.25, 0.5]), nans=st.integers(0, 3))
    def test_stack_form_is_the_per_item_loop(self, m, n, seed, tol, nans):
        # quarter-grid entries make exact ties at the tolerance common; NaN entries never match
        rng = np.random.default_rng(seed)
        items = rng.integers(0, 3, (m, n, n)) / 4
        x = rng.integers(0, 3, (n, n)) / 4
        for _ in range(nans):
            target = items[rng.integers(m)] if m and rng.random() < 0.8 else x
            target[rng.integers(n), rng.integers(n)] = np.nan
        want = next((k for k, item in enumerate(items) if np.max(np.abs(item - x)) <= tol), None)
        assert first_within(items, x, tol) == want


class TestClosure:
    @settings(max_examples=150, deadline=None)
    @given(case=closure_atoms(), max_len=st.integers(1, 6), limit=st.integers(1, 400))
    def test_batched_levels_are_the_per_pair_products(self, case, max_len, limit):
        # the same (length, element) sequence bytewise, the same candidates offered, up to
        # an early stop after ``limit`` elements
        atoms, boolean = case
        product = boolean_product if boolean else np.matmul
        got_new, got_offered = bytes_recorder()
        want_new, want_offered = bytes_recorder()
        got = [(length, e.tobytes()) for length, e in itertools.islice(_closure(atoms, product, got_new, max_len), limit)]
        want = [(length, e.tobytes())
                for length, e in itertools.islice(per_pair_closure(atoms, product, want_new, max_len), limit)]
        assert got == want
        assert got_offered == want_offered

    @settings(max_examples=150, deadline=None)
    @given(case=closure_atoms(), horizon=st.integers(1, 12), cap=st.integers(1, 80))
    def test_skeleton_closure_verdict_is_the_per_pair_verdict(self, case, horizon, cap):
        atoms, _ = case
        masks = [SkeletonMask(a > 0) for a in atoms]
        got = _skeleton_closure(masks, horizon, cap)
        with mock.patch.object(matrices, "_closure", per_pair_closure):
            want = _skeleton_closure(masks, horizon, cap)
        assert got == want


class TestBooleanProduct:
    @pytest.mark.parametrize("n", [255, 256, 300])
    def test_counts_of_256_or_more_do_not_wrap(self, n):
        rng = np.random.default_rng(n)
        full = np.ones((n, n), dtype=bool)
        assert boolean_product(full, full).all()
        a = rng.random((n, n)) < 0.995
        b = rng.random((n, n)) < 0.01
        want = np.logical_or.reduce(a[:, :, None] & b[None, :, :], axis=1)
        assert np.array_equal(boolean_product(a, b), want)
        assert np.array_equal(boolean_product(a, full), np.logical_or.reduce(a, axis=1)[:, None].repeat(n, axis=1))

    def test_an_atom_times_a_stack_is_each_product(self):
        rng = np.random.default_rng(3)
        a = rng.random((5, 5)) < 0.4
        stack = rng.random((7, 5, 5)) < 0.4
        got = boolean_product(a, stack)
        for k in range(7):
            want = np.logical_or.reduce(a[:, :, None] & stack[k][None, :, :], axis=1)
            assert np.array_equal(got[k], want)


class TestPrimitivity:
    def test_all_true_mask(self):
        assert skeleton_is_primitive(SkeletonMask(np.ones((3, 3), dtype=bool)))

    def test_swap_mask_not_primitive(self):
        swap = SkeletonMask([[False, True], [True, False]])
        assert not skeleton_is_primitive(swap)

    def test_ring_with_self_loops(self):
        n = 5
        mask = np.roll(np.eye(n, dtype=bool), 1, axis=1) | np.eye(n, dtype=bool)
        assert skeleton_is_primitive(SkeletonMask(mask))

    def test_against_boolean_power_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(80):
            n = int(rng.integers(2, 6))
            mask = rng.random((n, n)) < 0.4
            for i in range(n):  # keep the pattern row-viable
                if not mask[i].any():
                    mask[i, int(rng.integers(n))] = True
            sk = SkeletonMask(mask)
            # oracle: plain boolean power iteration to the Wielandt bound
            power = mask.copy()
            primitive = power.all()
            for _k in range((n - 1) ** 2):
                power = boolean_product(power, mask)
                if power.all():
                    primitive = True
                    break
            assert skeleton_is_primitive(sk) == primitive
