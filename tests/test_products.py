"""The product loop engine._lockstep, the scans built on it, and the serial oracle they answer to.

reference_products and reference_scan are the serial oracle: a plain loop
that draws one matrix at a time through GeneratorState.next_array, written
out here rather than read from the engine.  The property tests compare
_lockstep with it bitwise across generator kinds, on one caller's stream
(accumulate's _scan) and on each replica's stream of a Monte Carlo run, and
the entry and the two-row bound that gate the lockstep scan's gap with the
gap itself, bit for bit.  The pinned values below were recorded before the scans were
routed through one loop; they cover outputs that no benchmark hash fixes,
so any change in the order of floating-point operations shows up here.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degrootnet import (
    Ar1Mixture,
    DirichletRows,
    FiniteMixture,
    Fixed,
    Islands,
    accumulate,
    check_condition_c,
    convergence_time_2x2,
    disagreement_degree,
    encounter_2x2,
    lyapunov_exponent,
    make_stochastic,
    mean_rank_one_test,
    ring_uniform_self,
    two_point_swap,
)
from degrootnet import engine
from degrootnet.engine import (
    HOLDS,
    RENORM_EVERY,
    _disagreement_report,
    _scan_replicas,
    _two_row_bound,
)
from degrootnet.matrices import ZERO_TOL, StochasticMatrix, consensus_gaps, numeric_rank
from degrootnet.seeding import replica_rng
from test_generators import all_models, block_models, row_sum_models

UNIT_ROUNDOFF = 2.0**-53


def reference_products(state, t_max):
    """Yield X^(t) for t = 1..t_max, drawing X_t only when X^(t) is requested."""
    prod = np.eye(state.spec.n)
    for t in range(1, t_max + 1):
        prod = state.next_array() @ prod
        if t % 64 == 0:  # the schedule written out, not read from the engine
            prod = prod / prod.sum(axis=1, keepdims=True)
        yield prod


def reference_scan(state, t_max, gap_tol, stop=False):
    """(product, t, gap, strict_positive_seen, consensus_time) of the serial loop on ``state``.

    The gap and positivity of every X^(t) up to t_max, or up to the first
    step with gap <= gap_tol with ``stop``; the product is the last one,
    renormalized once.
    """
    prod, t, strict_seen, consensus_time = np.eye(state.spec.n), 0, False, None
    gap = 1.0 if state.spec.n > 1 else 0.0
    for t, prod in enumerate(reference_products(state, t_max), 1):
        gap = float((prod.max(axis=0) - prod.min(axis=0)).max())
        strict_seen = strict_seen or bool((prod > ZERO_TOL).all())
        if consensus_time is None and gap <= gap_tol:
            consensus_time = t
            if stop:
                break
    return prod / prod.sum(axis=1, keepdims=True), t, gap, strict_seen, consensus_time


def stream_position(state):
    """Everything a later draw of ``state`` depends on."""
    last = None if state.last is None else state.last.tobytes()
    return state.rng.bit_generator.state, state.aux, last


def assert_accumulates_the_serial_scan(acc, scan):
    prod, _, gap, strict_seen, consensus_time = scan
    # StochasticMatrix._trusted renormalizes the product once more
    assert acc.product.entries.tobytes() == (prod / prod.sum(axis=1, keepdims=True)).tobytes()
    assert (acc.consensus_gap, acc.strict_positive_seen, acc.consensus_time) == (gap, strict_seen, consensus_time)


def lockstep_products(spec, seed, t_max):
    """Every product X^(1..t_max) that _lockstep makes on the stream spec.start_state(seed), and that state."""
    state, got = spec.start_state(seed), []
    engine._lockstep(spec, 1, 0, t_max, lambda t, idx, prod: got.append(prod[0].copy()),
                     start=lambda i, rng: state)
    return got, state


@st.composite
def dirichlet_rows(draw):
    n = draw(st.integers(2, 4))
    alpha = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                                   min_size=n * n, max_size=n * n))).reshape(n, n)
    alpha[np.arange(n), np.arange(n)] += 1.0  # every row needs a positive entry
    return DirichletRows(alpha)


@st.composite
def markov_mixture(draw):
    a = draw(st.floats(0.05, 0.95))
    b = draw(st.floats(0.05, 0.95))
    eps = draw(st.floats(0.05, 0.95))
    return encounter_2x2(eps, a / (a + b), transition=((1 - a, a), (b, 1 - b)))


@st.composite
def islands(draw):
    return Islands(draw(st.integers(2, 3)), draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0)))


@st.composite
def ar1(draw):
    n = draw(st.integers(2, 3))
    return Ar1Mixture(draw(st.floats(0.0, 1.0)), make_stochastic(np.full((n, n), 1.0 / n)),
                      DirichletRows(np.ones((n, n))))


SPECS = st.one_of(dirichlet_rows(), markov_mixture(), islands(), ar1())


def gap_slack(n):
    """(per step, extra at a renormalization): how far the computed consensus gap may rise in one step.

    Write u for the unit roundoff and g(k) = k u / (1 - k u) (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, ch. 3).  Let P be
    the computed X^(t-1) with column j's extremes M_j >= m_j, and a =
    fl(M_j - m_j) at most the gap read at t - 1.

    Draws.  Every row of a finite-mixture atom or a Dirichlet draw is its
    entries divided by their computed sum (StochasticMatrix, DirichletRows).
    A sum of at most n nonnegative terms is off by a factor within
    1 +- g(n - 1), and each quotient by one within 1 +- u, so the row sums
    r_i of a draw X lie in 1 +- d, d = (u + g(n - 1)) / (1 - g(n - 1)).
    Renormalizing a product (matrices.renormalized) is the same division,
    so its rows then sum to 1 +- d too.

    Drift.  With P's true row sums in [s_lo, s_hi], row i of X P sums to
    sum_k X_ik s_k, within r_i [s_lo, s_hi]; its computed entries are n-term
    dot products of nonnegative terms, each off by a factor within
    1 +- g(n).  So a step scales the row-sum range by at most (1 + d)(1 + g(n))
    (and (1 - d)(1 - g(n)) below), and from the identity or a renormalization
    (1 +- d) the row sums stay within 1 +- rho after up to RENORM_EVERY steps,
    1 + rho = (1 + d)^(RENORM_EVERY + 1) (1 + g(n))^RENORM_EVERY.  Entries are
    nonnegative, so every entry of every product is at most mu = 1 + rho.

    A step.  Exactly, (X P)_ij = sum_k X_ik P_kj lies in [r_i m_j, r_i M_j],
    and its computed value Q_ij within 1 +- g(n) of that, so column j of Q
    spreads at most (M_j - m_j) + 2 (d + g(n)) mu.  With M_j - m_j <= a / (1 - u),
    a <= (1 + u) mu, and the new spread read as fl(max - min) <= (1 + u)
    (max - min), the gap rises by at most
        step = mu (2 u (1 + u) / (1 - u) + 2 (1 + u) (d + g(n))).

    A renormalization step (t a multiple of RENORM_EVERY) then divides row i
    of Q by its computed sum, within (1 +- rho)(1 +- g(n - 1)), and rounds
    each quotient, so each entry is Q_ij times a factor in [lo, hi],
    hi = (1 + u) / ((1 - rho)(1 - g(n - 1))), lo = (1 - u) / ((1 + rho)(1 + g(n - 1))).
    Column j's spread grows by at most M (hi - 1) + m (1 - lo) <= (hi - lo) mu,
    and read in floating point the gap gains at most (1 + u)(hi - lo) mu more.
    """
    u = UNIT_ROUNDOFF

    def g(k):
        return k * u / (1 - k * u)

    d = (u + g(n - 1)) / (1 - g(n - 1))
    rho = (1 + d) ** (RENORM_EVERY + 1) * (1 + g(n)) ** RENORM_EVERY - 1
    mu = 1 + rho
    step = mu * (2 * u * (1 + u) / (1 - u) + 2 * (1 + u) * (d + g(n)))
    hi, lo = (1 + u) / ((1 - rho) * (1 - g(n - 1))), (1 - u) / ((1 + rho) * (1 + g(n - 1)))
    return step, (1 + u) * (hi - lo) * mu


@st.composite
def finite_mixtures(draw):
    """An iid mixture of one to four random stochastic atoms with random zero patterns, n = 2..6."""
    n, k = draw(st.integers(2, 6)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    atoms = rng.random((k, n, n)) * (rng.random((k, n, n)) < draw(st.sampled_from([0.3, 0.7, 1.0])))
    atoms[:, np.arange(n), rng.integers(0, n, size=n)] += 0.1  # every row needs a positive entry
    atoms /= atoms.sum(axis=2, keepdims=True)  # StochasticMatrix divides each row by its sum once more
    probs = rng.random(k) + 0.1
    return FiniteMixture(atoms=tuple(map(StochasticMatrix, atoms)), probs=tuple(probs / probs.sum()))


@st.composite
def sparse_dirichlet_rows(draw):
    """Dirichlet rows whose alpha has a random zero pattern, n = 2..6."""
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alpha = rng.choice([0.5, 1.0, 2.0, 5.0], size=(n, n)) * (rng.random((n, n)) < draw(st.sampled_from([0.3, 0.7])))
    alpha[np.arange(n), rng.integers(0, n, size=n)] = 1.0  # every row needs a positive entry
    return DirichletRows(alpha)


@st.composite
def stochastic_stacks(draw):
    """A (k, n, n) stack of row-stochastic matrices, some near or at consensus."""
    n, k = draw(st.integers(2, 12)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = rng.dirichlet(np.full(n, draw(st.sampled_from([0.1, 1.0, 10.0]))), size=(k, n))
    stack[rng.random((k, n, n)) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    shape = draw(st.sampled_from(["random", "near", "rows_0_half_equal", "consensus"]))
    if shape == "near":
        # a common row plus a perturbation a few units in the last place and up
        scale = draw(st.sampled_from([1e-17, 1e-15, 1e-12, 1e-9]))
        stack = stack[:, :1] + scale * rng.random((k, n, n))
    elif shape == "rows_0_half_equal":
        stack[:, n // 2] = stack[:, 0]
    elif shape == "consensus":
        stack[:] = stack[:, :1]
    stack += (stack.sum(axis=2, keepdims=True) == 0)  # a row of zeros becomes a row of ones
    return stack / stack.sum(axis=2, keepdims=True)


class TestTwoRowBound:
    @settings(max_examples=300, deadline=None)
    @given(stack=stochastic_stacks())
    def test_never_exceeds_the_gap_bitwise(self, stack):
        # the lockstep scan computes the full gap only where this bound is
        # within gap_tol, so a bound above the gap would skip a crossing
        bound, gap = _two_row_bound(stack), consensus_gaps(stack)
        # the scan's gate chain: the entry |P[0,0] - P[n//2,0]|, then the bound, then the gap
        entry = np.abs(stack[:, 0, 0] - stack[:, len(stack[0]) // 2, 0])
        for p, e, b, g in zip(stack, entry, bound, gap):
            assert g == float((p.max(axis=0) - p.min(axis=0)).max())  # _scan's gap
            assert e <= b <= g
            if np.array_equal(p[0], p[len(p) // 2]):
                assert b == 0.0
            if len(p) == 2:  # the two rows are the whole spread
                assert b == g
            if (p == p[0]).all():
                assert g == 0.0

    def test_one_agent(self):
        assert _two_row_bound(np.ones((3, 1, 1))).tolist() == consensus_gaps(np.ones((3, 1, 1))).tolist() == [0.0] * 3


class TestProducts:
    @settings(max_examples=40, deadline=None)
    @given(spec=SPECS, t_max=st.integers(0, 140), seed=st.integers(0, 2**32 - 1))
    def test_matches_reference_loop_bitwise(self, spec, t_max, seed):
        ref_state = spec.start_state(seed)
        got, state = lockstep_products(spec, seed, t_max)
        want = list(reference_products(ref_state, t_max))
        assert len(got) == t_max
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        # both streams stand at the same position afterwards
        assert state.next_array().tobytes() == ref_state.next_array().tobytes()

    @settings(max_examples=30, deadline=None)
    @given(spec=SPECS, t_max=st.integers(1, 140), gap_tol=st.sampled_from([0.0, 1e-3, 0.5]),
           seed=st.integers(0, 2**32 - 1))
    def test_accumulate_to_t_max_leaves_the_stream_after_its_last_draw(self, spec, t_max, gap_tol, seed):
        state, ref_state = spec.start_state(seed), spec.start_state(seed)
        assert_accumulates_the_serial_scan(accumulate(state, t_max, gap_tol=gap_tol),
                                           reference_scan(ref_state, t_max, gap_tol))
        assert stream_position(state) == stream_position(ref_state)

    def test_consensus_gap_never_increases(self):
        # Each row of X_t X^(t-1) is a convex combination of rows of X^(t-1), so
        # no column spread can grow.  In floating point an entry is an n-term
        # dot product of weights and entries at most 1, off by at most n unit
        # roundoffs, so the spread may grow by 2 n roundoffs per step
        # (renormalizing divides by row sums a few roundoffs from 1).
        for name, spec in all_models().items():
            tol = 2 * spec.n * UNIT_ROUNDOFF
            for seed in range(5):
                gap = 1.0 if spec.n > 1 else 0.0
                for t, prod in enumerate(lockstep_products(spec, seed, 3 * RENORM_EVERY + 5)[0], 1):
                    nxt = float((prod.max(axis=0) - prod.min(axis=0)).max())
                    assert nxt <= gap + tol, (name, seed, t, nxt - gap)
                    gap = nxt

    @settings(max_examples=40, deadline=None)
    @given(spec=st.one_of(finite_mixtures(), sparse_dirichlet_rows()), seed=st.integers(0, 2**32 - 1))
    def test_consensus_gap_rises_at_most_the_derived_slack(self, spec, seed):
        # past three renormalizations; see gap_slack for the derivation
        step, renorm = gap_slack(spec.n)
        gap = 1.0
        for t, prod in enumerate(lockstep_products(spec, seed, 3 * RENORM_EVERY + 5)[0], 1):
            nxt = float((prod.max(axis=0) - prod.min(axis=0)).max())
            assert nxt <= gap + step + (renorm if t % RENORM_EVERY == 0 else 0.0), (t, nxt - gap)
            gap = nxt

    def test_consensus_gap_rises_at_a_renormalization_within_its_slack(self):
        # the computed gap is not monotone: 21 of these 200 replicas rise by 2^-54
        # at t = 64, the first renormalization, 8 of them from gaps above 1e-12
        step, renorm = gap_slack(2)
        gaps, rises = np.ones(200), []

        def observe(t, idx, prod):
            nxt = consensus_gaps(prod)
            rises.extend((t, rise) for rise in (nxt - gaps)[nxt > gaps].tolist())
            gaps[:] = nxt

        engine._lockstep(encounter_2x2(0.3, 0.5), 200, 0, RENORM_EVERY, observe, keep=False)
        assert rises == [(RENORM_EVERY, 2.0**-54)] * 21
        assert 2.0**-54 <= step + renorm

    def test_row_sum_drift_stays_within_one_renormalization_period(self):
        # Between renormalizations each step moves a row sum by at most n unit
        # roundoffs (an n-term dot product), and renormalization resets it, so
        # the drift never reaches RENORM_EVERY * n roundoffs.
        n = 40
        bound = RENORM_EVERY * n * UNIT_ROUNDOFF
        drift = np.zeros(1)

        def observe(t, idx, prod):
            np.maximum(drift, np.abs(prod.sum(axis=2) - 1.0).max(), out=drift)

        engine._lockstep(ring_uniform_self(n), 1, 3, 30000, observe, keep=False)
        assert drift[0] < bound


def assert_matches_serial_scans(spec, replicas, seed, t_max, gap_tol, stops, pis, gaps):
    # each replica's stop is the serial scan's consensus time (t_max + 1 for None), and row 0
    # and the gap of each converged replica are the serial scan's at that time, bytewise
    assert stops.shape == (replicas,)
    converged = 0
    for i, stop in enumerate(stops.tolist()):
        prod, t, gap, _, consensus_time = reference_scan(spec.start_state(replica_rng(seed, i)), t_max, gap_tol,
                                                         stop=True)
        assert stop == (t_max + 1 if consensus_time is None else consensus_time), i
        if stop <= t_max:
            assert pis[converged].tobytes() == prod[0].tobytes(), i
            assert np.float64(gaps[converged]).tobytes() == np.float64(gap).tobytes(), i
            converged += 1
    assert len(pis) == len(gaps) == converged


class TestLockstep:
    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(block_models())), replicas=st.integers(1, 50),
           t_max=st.integers(0, 200), gap_tol=st.sampled_from([0.0, 1e-3, 1e-8]),
           small=st.booleans(), seed=st.integers(0, 2**32 - 1))
    # uniform laws, whose first blocks come from arrays: a horizon inside the first block, and
    # replicas that outlive it across a chunk and a group boundary (122 > GROUP * 7)
    @example(name="encounter2x2", replicas=40, t_max=engine.FIRST_BLOCK - 3, gap_tol=1e-3,
             small=False, seed=5)
    @example(name="leader_follower", replicas=40, t_max=engine.FIRST_BLOCK - 1, gap_tol=1e-3,
             small=False, seed=6)
    @example(name="encounter2x2", replicas=engine.GROUP * 7 + 10, t_max=40, gap_tol=1e-8,
             small=True, seed=7)
    @example(name="leader_follower", replicas=engine.GROUP * 7 + 10, t_max=30, gap_tol=1e-3,
             small=True, seed=8)
    # Dirichlet laws whose rows are summed from the block: a ring past NumPy's 8-value
    # pairwise block and across chunk boundaries, and a dense n = 12 law
    @example(name="ring12", replicas=12, t_max=560, gap_tol=1e-8, small=False, seed=9)
    @example(name="ring12", replicas=6, t_max=300, gap_tol=1e-3, small=False, seed=10)
    @example(name="ring12", replicas=17, t_max=260, gap_tol=1e-3, small=True, seed=11)
    @example(name="ring12", replicas=17, t_max=260, gap_tol=1e-3, small=True, seed=12)
    @example(name="dense12", replicas=17, t_max=80, gap_tol=1e-8, small=True, seed=13)
    # a block row of each other width under the small budget: 4g - 3 (islands) and n^2 (ar1, fixed)
    @example(name="islands", replicas=17, t_max=60, gap_tol=1e-8, small=True, seed=14)
    @example(name="ar1", replicas=17, t_max=60, gap_tol=1e-8, small=True, seed=15)
    @example(name="fixed", replicas=17, t_max=60, gap_tol=1e-8, small=True, seed=16)
    def test_matches_serial_scans_bytewise(self, name, replicas, t_max, gap_tol, small, seed):
        # small: chunks of 7 replicas, first blocks of 3 draws and a block budget that cuts
        # blocks to a few draws, down to one
        spec = {**block_models(), **row_sum_models()}[name]
        with mock.patch.multiple(engine, CHUNK=7 if small else engine.CHUNK,
                                 FIRST_BLOCK=3 if small else engine.FIRST_BLOCK,
                                 BLOCK_VALUES=60 if small else engine.BLOCK_VALUES):
            got = _scan_replicas(spec, replicas, seed, t_max, gap_tol)
        assert_matches_serial_scans(spec, replicas, seed, t_max, gap_tol, *got)

    @pytest.mark.parametrize("budget", ["default", "small"])
    @pytest.mark.parametrize("name", sorted(block_models()))
    def test_no_block_holds_more_than_the_value_budget(self, name, budget):
        # small: 60 values, which one draw of each of 5 replicas fits (the widest row, the ring's
        # at n = 5, holds 10 values), and which keeps every law's blocks below BLOCK draws
        spec = block_models()[name]
        rows, blocks = spec._rows, []

        def spy(block):
            blocks.append((block.shape[1], block.size))
            return rows(block)
        object.__setattr__(spec, "_rows", spy)
        limit, replicas = (60, 5) if budget == "small" else (engine.BLOCK_VALUES, engine.CHUNK + 5)
        with mock.patch.object(engine, "BLOCK_VALUES", limit):
            engine._lockstep(spec, replicas, 3, 100, lambda t, idx, prod: None, keep=False)
        assert blocks and max(size for _k, size in blocks) <= limit
        if budget == "small":
            assert max(k for k, _size in blocks) < engine.BLOCK

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted({**block_models(), **row_sum_models()})), replicas=st.integers(1, 30),
           t_max=st.integers(0, 100), p_stop=st.sampled_from([0.0, 0.02, 0.2]),
           p_quiet=st.sampled_from([0.0, 0.5, 1.0]), chunk=st.sampled_from([7, engine.CHUNK]),
           seed=st.integers(0, 2**32 - 1))
    @example(name="dirichlet_ring", replicas=engine.CHUNK + 3, t_max=9, p_stop=0.2, p_quiet=0.5,
             chunk=engine.CHUNK, seed=1)
    # Dirichlet laws whose rows are summed from the block, with replicas kept at t_max
    # past NumPy's 8-value pairwise block, in one chunk and across chunks
    @example(name="ring12", replicas=6, t_max=300, p_stop=0.0, p_quiet=0.0, chunk=engine.CHUNK, seed=10)
    @example(name="ring12", replicas=17, t_max=260, p_stop=0.0, p_quiet=0.0, chunk=7, seed=12)
    @example(name="dense12", replicas=17, t_max=80, p_stop=0.02, p_quiet=0.5, chunk=7, seed=13)
    def test_keeps_each_replica_product_at_its_stop(self, name, replicas, t_max, p_stop, p_quiet, chunk, seed):
        # the observer marks replica i done at step t where marks[i, t-1] < p_stop,
        # except on the quiet steps, where it returns None
        spec = {**block_models(), **row_sum_models()}[name]
        rng = np.random.default_rng(seed)
        marks, quiet = rng.random((replicas, t_max)), rng.random(t_max) < p_quiet
        marks[:, quiet] = 1.0

        def observe(t, idx, prod):
            return None if quiet[t - 1] else marks[idx, t - 1] < p_stop

        with mock.patch.object(engine, "CHUNK", chunk):
            prods, stops = engine._lockstep(spec, replicas, seed, t_max, observe)
        # a final column marks every replica at t_max + 1, the stop of a replica never marked,
        # whose product is the one at t_max
        marked = np.concatenate((marks < p_stop, np.ones((replicas, 1), dtype=bool)), axis=1)
        want_stops = marked.argmax(axis=1) + 1
        assert stops.tolist() == want_stops.tolist()
        assert prods.shape == (replicas, spec.n, spec.n)
        for i, stop in enumerate(want_stops.tolist()):
            prod = reference_scan(spec.start_state(replica_rng(seed, i)), min(stop, t_max), 0.0)[0]
            assert prods[i].tobytes() == prod.tobytes(), (name, i, stop)
        if t_max == 0:
            assert (prods == np.eye(spec.n)).all()
        # without multiply the observer sees the draws, and no product is kept
        no_prods, stops = engine._lockstep(spec, replicas, seed, t_max, observe, multiply=False)
        assert no_prods is None and stops.tolist() == want_stops.tolist()
        # without keep the observer sees the products, and none is kept
        no_prods, stops = engine._lockstep(spec, replicas, seed, t_max, observe, keep=False)
        assert no_prods is None and stops.tolist() == want_stops.tolist()

    @pytest.mark.parametrize("gap_tol", [0.0, 1e-8])
    @pytest.mark.parametrize("case", ["rows_0_1_equal", "column_0_equal", "column_0_zero", "one_agent", "no_steps"])
    def test_matches_serial_scans_where_the_bound_is_loose(self, case, gap_tol):
        # rows_0_1_equal: at n = 3 the bound compares rows 0 and n // 2 = 1,
        # so it is 0 on every step and the gap stays 1.  column_0_equal: at
        # n = 4 the entry gate compares P[0,0] and P[2,0], both 0 on every
        # step, while the bound and the gap stay 1.  column_0_zero: no agent
        # weighs agent 0, so every replica passes the gate on every step and
        # the bound and the gap decide
        spec, t_max = {
            "rows_0_1_equal": (Fixed(make_stochastic([[.5, .5, 0], [.5, .5, 0], [0, 0, 1]])), 3 * RENORM_EVERY),
            "column_0_equal": (Fixed(make_stochastic([[0, 1, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 0, 1]])),
                               3 * RENORM_EVERY),
            "column_0_zero": (DirichletRows(np.where(np.arange(4) > 0, [[1.0], [1.0], [0.5], [2.0]], 0.0)), 200),
            "one_agent": (Fixed(make_stochastic([[1.0]])), 70),
            "no_steps": (ring_uniform_self(4), 0),
        }[case]
        stops, pis, gaps = _scan_replicas(spec, 5, 13, t_max, gap_tol)
        assert_matches_serial_scans(spec, 5, 13, t_max, gap_tol, stops, pis, gaps)
        if case in ("rows_0_1_equal", "column_0_equal"):
            prod = reference_scan(spec.start_state(replica_rng(13, 0)), t_max, gap_tol)[0]
            bound = 0.0 if case == "rows_0_1_equal" else 1.0
            assert prod[0, 0] == prod[len(prod) // 2, 0]
            assert (_two_row_bound(prod[None]).tolist(), float(consensus_gaps(prod))) == ([bound], 1.0)
            assert stops.tolist() == [t_max + 1] * 5
        if case == "column_0_zero":
            assert (pis[:, 0] == 0.0).all() and (stops <= t_max).all()

    def test_two_agent_spread_matches_serial_draws(self):
        spec = DirichletRows(np.array([[0.5, 0.5], [0.5, 0.5]]))
        phi, t_cap = 1e-6, 60
        res = convergence_time_2x2(spec, phi=phi, replicas=300, t_cap=t_cap, seed=4)
        want = []
        for i in range(300):
            state = spec.start_state(replica_rng(4, i))
            spread, t_phi = 1.0, t_cap
            for t in range(1, t_cap + 1):
                x = state.next_array()
                spread *= x[0, 0] - x[1, 0]
                if abs(spread) < phi:
                    t_phi = t - 1
                    break
            want.append(t_phi)
        assert res.samples == tuple(want)
        assert res.capped == sum(1 for t_phi in want if t_phi == t_cap)

    @pytest.mark.parametrize("name", sorted(dict(all_models(), stubborn=None)))
    def test_disagreement_matches_serial_scans_bytewise(self, name):
        # stubborn: the mixture of h(0.3) and a transposition whose limits have two atoms
        h = make_stochastic([[0, 0, 1], [0, 0, 1], [0.3, 0.7, 0]])
        swap = make_stochastic([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        spec = dict(all_models(), stubborn=FiniteMixture(atoms=(h, swap), probs=(0.5, 0.5)))[name]
        for t_max, seed in [(0, 5), (1, 6), (70, 7)]:
            # 100 replicas in four chunks; the report's input is kept to compare it too
            with mock.patch.multiple(engine, CHUNK=32, _disagreement_report=mock.Mock(wraps=_disagreement_report)):
                got = disagreement_degree(spec, replicas=100, t_max=t_max, seed=seed)
                got_prods = engine._disagreement_report.call_args.args[0]
            prods = np.array([reference_scan(spec.start_state(replica_rng(seed, i)), t_max, 0.0)[0]
                              for i in range(100)])
            assert got_prods.tobytes() == prods.tobytes(), (name, t_max)
            want = _disagreement_report(prods)
            assert (got.eta_estimate, got.rank_histogram) == (want.eta_estimate, want.rank_histogram), (name, t_max)
            # the batched SVD ranks the products as numeric_rank does, one at a time
            ranks = [numeric_rank(StochasticMatrix._trusted(p)).numeric_rank for p in prods]
            assert got.rank_histogram == {r: ranks.count(r) / 100 for r in sorted(set(ranks))}, (name, t_max)
            assert (got.support_atoms is None) == (want.support_atoms is None), (name, t_max)
            for (m, mass), (m_want, mass_want) in zip(got.support_atoms or (), want.support_atoms or (), strict=True):
                assert m.entries.tobytes() == m_want.entries.tobytes(), (name, t_max)
                assert np.float64(mass).tobytes() == np.float64(mass_want).tobytes(), (name, t_max)

    @pytest.mark.parametrize("name", sorted(dict(all_models(), islands3=None)))
    def test_condition_c_positives_match_serial_scans(self, name):
        # is_iid False sends every spec to the Monte Carlo pass, where a replica
        # leaves the stack once its product turns strictly positive
        spec = dict(all_models(), islands3=Islands(3, 0.8, 0.3))[name]
        horizon, replicas, seed = 40, 30, 9
        with mock.patch.object(type(spec), "is_iid", False), mock.patch.object(engine, "CHUNK", 8):
            rep = check_condition_c(spec, horizon=horizon, replicas=replicas, seed=seed)
        positives = sum(reference_scan(spec.start_state(replica_rng(seed, i)), horizon, 0.0)[3]
                        for i in range(replicas))
        if positives:
            assert (rep.verdict, rep.method, rep.evidence) == (HOLDS, "monte_carlo_positivity", positives / replicas)
        else:
            assert rep.method == "contraction_integral"


class TestPinnedValues:
    def test_lyapunov_exponent(self):
        # the ring's limit row is random, so its rate of approach to consensus is well below 1
        assert lyapunov_exponent(ring_uniform_self(3), t_max=40, replicas=6, seed=11) == 0.5913285622482843
        assert lyapunov_exponent(encounter_2x2(0.3, 0.5), t_max=30, replicas=5, seed=2) == 0.6560660975440377

    def test_mean_rank_one_test(self):
        res = mean_rank_one_test(ring_uniform_self(3), replicas=40, t_max=130, seed=3)
        assert res["rank"] == 1
        row = [0.35800595101455546, 0.31396069794298903, 0.32803335104245557]
        assert res["mean_limit"].entries.tolist() == [row, row, row]
        res = mean_rank_one_test(two_point_swap(0.5), replicas=30, t_max=70, seed=4, allow_no_positive=True)
        assert res["rank"] == 1
        assert res["mean_limit"].entries.tolist() == [[0.5333333333333333, 0.4666666666666667],
                                                      [0.4666666666666667, 0.5333333333333333]]

    def test_accumulate_past_renormalizations(self):
        t0 = make_stochastic([[0.9, 0.1, 0.0], [0.0, 0.9, 0.1], [0.1, 0.0, 0.9]])
        acc = accumulate(Ar1Mixture(0.5, t0, ring_uniform_self(3)).start_state(5), t_max=150, gap_tol=1e-30)
        assert (acc.strict_positive_seen, acc.consensus_time) == (True, 69)
        assert acc.consensus_gap == 1.6653345369377348e-16
        assert acc.product.entries.ravel().tolist() == [
            0.29690871135703795, 0.20690972227893215, 0.4961815663640299,
            0.29690871135703795, 0.20690972227893217, 0.4961815663640299,
            0.29690871135703795, 0.20690972227893215, 0.49618156636402994,
        ]

    def test_accumulate_to_the_consensus_time(self):
        # t_max is the consensus time, 69, so these are also the values of a scan stopped there
        acc = accumulate(ring_uniform_self(4).start_state(9), t_max=69, gap_tol=1e-8)
        assert (acc.strict_positive_seen, acc.consensus_time) == (True, 69)
        assert acc.consensus_gap == 8.317438515703657e-09
        assert acc.product.entries.ravel().tolist() == [
            0.2535580687588877, 0.24847536533749878, 0.26080726786045744, 0.2371592980431561,
            0.2535580685579481, 0.24847536579719262, 0.2608072682570901, 0.23715929738776922,
            0.25355807108257, 0.24847535997269696, 0.2608072632395252, 0.2371593057052078,
            0.2535580704570364, 0.2484753614194126, 0.260807264485239, 0.23715930363831206,
        ]

    def test_stubborn_mixture_atom_masses(self):
        # C07's stubborn-agent mixture, recorded when the atom tolerance was an argument set to 1e-4
        h = make_stochastic([[0, 0, 1], [0, 0, 1], [0.3, 0.7, 0]])
        swap = make_stochastic([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        rep = disagreement_degree(FiniteMixture(atoms=(h, swap), probs=(0.5, 0.5)), replicas=400, t_max=200,
                                  seed=1007)
        assert [mass for _, mass in rep.support_atoms] == [0.3375, 0.3125, 0.19, 0.16]
        assert rep.rank_histogram == {2: 1.0}

    def test_disagreement_without_steps_keeps_identity(self):
        rep = disagreement_degree(ring_uniform_self(4), replicas=100, t_max=0)
        assert rep.eta_estimate == 4
        assert rep.rank_histogram == {4: 1.0}
        ((atom, freq),) = rep.support_atoms
        assert atom.entries.tolist() == np.eye(4).tolist()
        assert freq == 1.0

