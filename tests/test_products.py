"""The product loops engine._products and engine._lockstep, and the scans built on them.

The property tests compare _products bitwise with a plain reference loop
across generator kinds, the lockstep kernel bytewise with _scan on each
replica's stream, and the two-row bound that gates the lockstep scan's gap
with the gap itself, bit for bit.  The pinned values below were recorded before the scans
were routed through _products; they cover outputs that no benchmark hash
fixes, so any change in the order of floating-point operations shows up
here.
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
    _products,
    _scan,
    _scan_replicas,
    _two_row_bound,
)
from degrootnet.matrices import StochasticMatrix, consensus_gaps, numeric_rank, renormalized
from degrootnet.seeding import replica_rng
from test_generators import all_models, block_models

UNIT_ROUNDOFF = 2.0**-53


def reference_products(state, t_max):
    out = []
    prod = np.eye(state.spec.n)
    for t in range(1, t_max + 1):
        prod = state.next_array() @ prod
        if t % 64 == 0:  # the schedule written out, not read from the engine
            prod = prod / prod.sum(axis=1, keepdims=True)
        out.append(prod)
    return out


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
        for p, b, g in zip(stack, bound, gap):
            assert g == float((p.max(axis=0) - p.min(axis=0)).max())  # _scan's gap
            assert b <= g
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
        state = spec.start_state(seed)
        ref_state = spec.start_state(seed)
        got = list(_products(state, t_max))
        want = reference_products(ref_state, t_max)
        assert len(got) == t_max
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        # both streams stand at the same position afterwards
        assert state.next_array().tobytes() == ref_state.next_array().tobytes()

    @settings(max_examples=20, deadline=None)
    @given(spec=SPECS, stop=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
    def test_early_stop_makes_no_extra_draw(self, spec, stop, seed):
        state = spec.start_state(seed)
        ref_state = spec.start_state(seed)
        for t, _prod in enumerate(_products(state, 100), 1):
            if t == stop:
                break
        reference_products(ref_state, stop)
        assert state.next_array().tobytes() == ref_state.next_array().tobytes()

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
                for t, prod in enumerate(_products(spec.start_state(seed), 3 * RENORM_EVERY + 5), 1):
                    nxt = float((prod.max(axis=0) - prod.min(axis=0)).max())
                    assert nxt <= gap + tol, (name, seed, t, nxt - gap)
                    gap = nxt

    def test_row_sum_drift_stays_within_one_renormalization_period(self):
        # Between renormalizations each step moves a row sum by at most n unit
        # roundoffs (an n-term dot product), and renormalization resets it, so
        # the drift never reaches RENORM_EVERY * n roundoffs.
        n = 40
        bound = RENORM_EVERY * n * UNIT_ROUNDOFF
        drift = 0.0
        for prod in _products(ring_uniform_self(n).start_state(3), 30000):
            drift = max(drift, float(np.abs(prod.sum(axis=1) - 1.0).max()))
        assert drift < bound


class TestLockstep:
    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(block_models())), replicas=st.integers(1, 50),
           t_max=st.integers(0, 200), stop=st.booleans(), gap_tol=st.sampled_from([0.0, 1e-3, 1e-8]),
           small=st.booleans(), seed=st.integers(0, 2**32 - 1))
    # uniform laws, whose first blocks come from arrays: a horizon inside the first block, and
    # replicas that outlive it across a chunk and a group boundary (122 > GROUP * 7)
    @example(name="encounter2x2", replicas=40, t_max=engine.FIRST_BLOCK - 3, stop=True, gap_tol=1e-3,
             small=False, seed=5)
    @example(name="leader_follower", replicas=40, t_max=engine.FIRST_BLOCK - 1, stop=False, gap_tol=1e-3,
             small=False, seed=6)
    @example(name="encounter2x2", replicas=engine.GROUP * 7 + 10, t_max=40, stop=True, gap_tol=1e-8,
             small=True, seed=7)
    @example(name="leader_follower", replicas=engine.GROUP * 7 + 10, t_max=30, stop=True, gap_tol=1e-3,
             small=True, seed=8)
    def test_matches_serial_scans_bytewise(self, name, replicas, t_max, stop, gap_tol, small, seed):
        # small: chunks of 7 replicas, first blocks of 3 draws and a block budget that cuts
        # blocks to a few draws, down to one
        spec = block_models()[name]
        with mock.patch.multiple(engine, CHUNK=7 if small else engine.CHUNK,
                                 FIRST_BLOCK=3 if small else engine.FIRST_BLOCK,
                                 BLOCK_VALUES=60 if small else engine.BLOCK_VALUES):
            got = _scan_replicas(spec, replicas, seed, t_max, gap_tol, stop)
        assert all(len(column) == replicas for column in got)
        for i, (prod, t, gap, strict_seen, consensus_time) in enumerate(zip(*got)):
            want = _scan(spec.start_state(replica_rng(seed, i)), t_max, gap_tol, stop)
            assert prod.tobytes() == want[0].tobytes(), (name, i)
            assert np.float64(gap).tobytes() == np.float64(want[2]).tobytes(), (name, i)
            assert (t, strict_seen, consensus_time or None) == (want[1], want[3], want[4]), (name, i)

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(block_models())), replicas=st.integers(1, 30), t_max=st.integers(0, 100),
           p_stop=st.sampled_from([0.0, 0.02, 0.2]), p_quiet=st.sampled_from([0.0, 0.5, 1.0]),
           chunk=st.sampled_from([7, engine.CHUNK]), seed=st.integers(0, 2**32 - 1))
    @example(name="dirichlet_ring", replicas=engine.CHUNK + 3, t_max=9, p_stop=0.2, p_quiet=0.5,
             chunk=engine.CHUNK, seed=1)
    def test_keeps_each_replica_product_at_its_stop(self, name, replicas, t_max, p_stop, p_quiet, chunk, seed):
        # the observer marks replica i done at step t where marks[i, t-1] < p_stop,
        # except on the quiet steps, where it returns None
        spec = block_models()[name]
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
            prod = np.eye(spec.n)
            for prod in _products(spec.start_state(replica_rng(seed, i)), min(stop, t_max)):
                pass
            assert prods[i].tobytes() == renormalized(prod).tobytes(), (name, i, stop)
        if t_max == 0:
            assert (prods == np.eye(spec.n)).all()
        # without multiply the observer sees the draws, and no product is kept
        no_prods, stops = engine._lockstep(spec, replicas, seed, t_max, observe, multiply=False)
        assert no_prods is None and stops.tolist() == want_stops.tolist()
        # without keep the observer sees the products, and none is kept
        no_prods, stops = engine._lockstep(spec, replicas, seed, t_max, observe, keep=False)
        assert no_prods is None and stops.tolist() == want_stops.tolist()

    @pytest.mark.parametrize("stop", [True, False])
    @pytest.mark.parametrize("gap_tol", [0.0, 1e-8])
    @pytest.mark.parametrize("case", ["rows_0_1_equal", "one_agent", "no_steps"])
    def test_matches_serial_scans_where_the_bound_is_loose(self, case, gap_tol, stop):
        # rows_0_1_equal: at n = 3 the bound compares rows 0 and n // 2 = 1,
        # so it is 0 on every step and the gap stays 1
        spec, t_max = {
            "rows_0_1_equal": (Fixed(make_stochastic([[.5, .5, 0], [.5, .5, 0], [0, 0, 1]])), 3 * RENORM_EVERY),
            "one_agent": (Fixed(make_stochastic([[1.0]])), 70),
            "no_steps": (ring_uniform_self(4), 0),
        }[case]
        got = _scan_replicas(spec, 5, 13, t_max, gap_tol, stop)
        for i, (prod, t, gap, strict_seen, consensus_time) in enumerate(zip(*got)):
            want = _scan(spec.start_state(replica_rng(13, i)), t_max, gap_tol, stop)
            assert prod.tobytes() == want[0].tobytes(), i
            assert np.float64(gap).tobytes() == np.float64(want[2]).tobytes(), i
            assert (t, strict_seen, consensus_time or None) == (want[1], want[3], want[4]), i
        if case == "rows_0_1_equal":
            assert _two_row_bound(got[0][:1]).tolist() == [0.0]
            assert (got[2][0], got[4][0]) == (1.0, 0)

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
            prods = np.array([_scan(spec.start_state(replica_rng(seed, i)), t_max, 0.0)[0] for i in range(100)])
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
        positives = sum(_scan(spec.start_state(replica_rng(seed, i)), horizon, 0.0)[3] for i in range(replicas))
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
        res = mean_rank_one_test(ring_uniform_self(3), replicas=40, t_max=130, seed=3, rank_rel_tol=1e-3)
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
        assert (acc.t, acc.strict_positive_seen, acc.consensus_time) == (150, True, 69)
        assert acc.consensus_gap == 1.6653345369377348e-16
        assert acc.product.entries.ravel().tolist() == [
            0.29690871135703795, 0.20690972227893215, 0.4961815663640299,
            0.29690871135703795, 0.20690972227893217, 0.4961815663640299,
            0.29690871135703795, 0.20690972227893215, 0.49618156636402994,
        ]

    def test_accumulate_stops_at_consensus(self):
        acc = accumulate(ring_uniform_self(4).start_state(9), t_max=5000, gap_tol=1e-8,
                         stop_when_converged=True)
        assert (acc.t, acc.strict_positive_seen, acc.consensus_time) == (69, True, 69)
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

