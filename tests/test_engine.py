import itertools
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degrootnet import (
    Ar1Mixture,
    AtomicWeightPairs,
    BetaMarginalPair,
    DirichletRows,
    FiniteMixture,
    Fixed,
    Graph,
    GraphDistribution,
    UniformSignal,
    WisdomConfig,
    accumulate,
    check_condition_c,
    convergence_time_2x2,
    cyclicity_check,
    decay_rate_estimate,
    disagreement_degree,
    dobrushin_coefficient,
    encounter_2x2,
    estimate_influence,
    evolve,
    log_energy,
    lyapunov_exponent,
    make_stochastic,
    mean_rank_one_test,
    mixing_identity_mixture,
    multiply,
    ring_uniform_self,
    semigroup_explore,
    skeleton_equivalence_test,
    two_point_swap,
)
from degrootnet import engine, generators
from degrootnet.engine import FAILS, GAP_TOL, HOLDS, UNDETERMINED
from degrootnet.errors import (
    CapHit,
    DimensionMismatch,
    ExplosionGuard,
    InvalidProbability,
    NegativeEntry,
    NoConvergence,
    NotIid,
    SingularMass,
    Unsupported,
)
from degrootnet.generators import Islands, UndirectedDegree
from degrootnet.matrices import StochasticMatrix, dobrushin_coefficients, first_within, numeric_rank
from test_generators import all_models
from test_matrices import per_pair_closure
from test_products import stream_position


def flat(n):
    return make_stochastic(np.full((n, n), 1.0 / n))


def h_matrix(kappa):
    return make_stochastic([[0, 0, 1], [0, 0, 1], [kappa, 1 - kappa, 0]])


G_PERM = make_stochastic([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
SWAP = make_stochastic([[0, 1], [1, 0]])


def positive_diagonal_iid_specs():
    """The iid specs whose every draw has a positive diagonal, by name.

    Those of all_models(), plus three that fail both oracles: Fixed(I), a
    block-diagonal DirichletRows and an encounter model whose pair never meets.
    """
    block = np.zeros((4, 4))
    block[:2, :2] = block[2:, 2:] = 1.0
    specs = dict(all_models(), identity=Fixed(make_stochastic(np.eye(3))),
                 block_dirichlet=DirichletRows(block), no_meetings=encounter_2x2(0.3, 0.0))
    out = {}
    for name, spec in specs.items():
        try:
            masks = [s.mask for s in spec.support().skeletons] if spec.is_iid else []
        except Unsupported:
            continue
        if masks and all(m.diagonal().all() for m in masks):
            out[name] = spec
    assert list(out) == ["fixed", "encounter2x2", "dirichlet_ring", "dirichlet_dense", "perturbed",
                         "mix_identity", "identity", "block_dirichlet", "no_meetings"]
    return out


@st.composite
def random_supports(draw):
    """One to three n x n stochastic matrices, n = 2..6, each dense, sparse or rank one."""
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    support = []
    for kind in draw(st.lists(st.sampled_from(["dense", "sparse", "rank_one"]), min_size=1, max_size=3)):
        m = rng.dirichlet(np.ones(n), size=n)
        if kind == "sparse":
            m[rng.random((n, n)) < 0.6] = 0.0
            m[np.arange(n), rng.integers(0, n, n)] += 1.0  # every row keeps a positive entry
        elif kind == "rank_one":
            m[:] = m[0]
        support.append(make_stochastic(m / m.sum(axis=1, keepdims=True)))
    return support


def hg_mixture(kappa=0.3, r=0.5):
    return FiniteMixture(atoms=(h_matrix(kappa), G_PERM), probs=(r, 1 - r))


class TestEvolve:
    def test_identity_leaves_beliefs(self):
        spec = Fixed(make_stochastic(np.eye(3)))
        path = evolve(spec.start_state(0), [0.2, 0.5, 0.9], 10)
        assert path.tolist() == [[0.2, 0.5, 0.9]] * 11

    def test_flat_averages_in_one_step(self):
        spec = Fixed(flat(2))
        assert evolve(spec.start_state(0), [1.0, 0.0], 1).tolist() == [[1.0, 0.0], [0.5, 0.5]]

    def test_fixed_50_steps_matches_matrix_power_oracle(self):
        rng = np.random.default_rng(10)
        raw = rng.random((4, 4)) + 0.05
        t = make_stochastic(raw / raw.sum(axis=1, keepdims=True))
        p0 = rng.random(4)
        path = evolve(Fixed(t).start_state(0), p0, 50)
        oracle = np.linalg.matrix_power(t.entries, 50) @ p0
        assert np.abs(path[-1] - oracle).max() < 1e-10

    def test_steps_at_once_are_single_steps_clipped_every_step(self):
        # seed 6's first ring draw has a row summing to 1 + 1 ulp, which would lift a belief of 1 above 1
        for name, spec in dict(all_models(), ring5=ring_uniform_self(5)).items():
            for seed in (6, 7):
                at_once = spec.start_state(seed)
                path = evolve(at_once, [1.0] * spec.n, 40)
                assert path.shape == (41, spec.n) and path.max() <= 1.0, (name, seed)
                for chunk in (1, 10):
                    state, rows = spec.start_state(seed), [path[0]]
                    for _ in range(40 // chunk):
                        rows.extend(evolve(state, rows[-1], chunk)[1:])
                    assert np.array(rows).tobytes() == path.tobytes(), (name, seed, chunk)
                    # both streams stand after the 40th draw
                    assert stream_position(state) == stream_position(at_once), (name, seed, chunk)

    def test_belief_range_contracts_on_random_trajectories(self):
        rng = np.random.default_rng(11)
        specs = [ring_uniform_self(4), encounter_2x2(0.3, 0.5), mixing_identity_mixture(3, 0.5),
                 DirichletRows(np.ones((3, 3))), two_point_swap(0.4)]
        trials = 0
        for spec in specs:
            for k in range(200):
                state = spec.start_state(int(rng.integers(1 << 32)))
                p0 = rng.random(spec.n)
                path = evolve(state, p0, 15)
                spread = path.max(axis=1) - path.min(axis=1)
                assert (np.diff(spread) <= 1e-12).all()
                assert (path.min(axis=1) >= p0.min() - 1e-12).all()
                assert (path.max(axis=1) <= p0.max() + 1e-12).all()
                trials += 1
        assert trials == 1000

    @pytest.mark.parametrize("p0, error, message", [
        ([], DimensionMismatch, "p0 must be a vector"),
        ([[0.5, 0.5]], DimensionMismatch, "p0 must be a vector"),
        ([0.5, 0.5, 0.5], DimensionMismatch, "3 beliefs for n = 2 agents"),
        ([0.5, 1.5], InvalidProbability, "p0 entries must lie in [0,1]"),
    ])
    def test_p0_is_checked_before_any_draw(self, p0, error, message):
        state = ring_uniform_self(2).start_state(0)
        with mock.patch.object(engine, "_lockstep", side_effect=AssertionError("stepped")), \
                pytest.raises(error, match=re.escape(message)):
            evolve(state, p0, 5)


class TestAccumulate:
    def test_product_trajectory_consistency(self):
        rng = np.random.default_rng(12)
        for spec in [ring_uniform_self(4), encounter_2x2(0.2, 0.5),
                     Ar1Mixture(0.5, flat(3), DirichletRows(np.ones((3, 3))))]:
            for k in range(5):
                seed = int(rng.integers(1 << 32))
                t = int(rng.integers(1, 40))
                p0 = rng.random(spec.n)
                acc = accumulate(spec.start_state(seed), t, gap_tol=0.0)
                via_product = acc.product.entries @ p0
                walked = evolve(spec.start_state(seed), p0, t)[-1]
                assert np.abs(via_product - walked).max() < 1e-9

    def test_encounter_converges_before_200(self):
        spec = encounter_2x2(0.3, 0.5)
        for seed in range(30):
            acc = accumulate(spec.start_state(seed), 200, gap_tol=1e-6)
            assert acc.consensus_time is not None
            assert acc.consensus_gap <= 1e-6

    def test_fixed_swap_never_contracts(self):
        acc = accumulate(Fixed(SWAP).start_state(0), 50, gap_tol=1e-6)
        assert acc.consensus_time is None
        assert acc.consensus_gap == 1.0

    def test_gap_bounded_by_dobrushin_product_oracle(self):
        rng = np.random.default_rng(13)
        raw = rng.random((3, 3)) + 0.1
        t = make_stochastic(raw / raw.sum(axis=1, keepdims=True))
        c = dobrushin_coefficient(t)
        for steps in [1, 3, 7, 15]:
            acc = accumulate(Fixed(t).start_state(0), steps, gap_tol=0.0)
            assert acc.consensus_gap <= c**steps + 1e-9

    def test_gap_bounded_by_factor_coefficients_random(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            n = int(rng.integers(2, 5))
            t_len = int(rng.integers(1, 15))
            raws = rng.random((t_len, n, n)) + 0.02
            mats = [make_stochastic(r / r.sum(axis=1, keepdims=True)) for r in raws]
            prod = mats[0]
            bound = dobrushin_coefficient(mats[0])
            for m in mats[1:]:
                prod = multiply(m, prod)
                bound *= dobrushin_coefficient(m)
            gap = float((prod.entries.max(axis=0) - prod.entries.min(axis=0)).max())
            assert gap <= bound + 1e-9

    def test_strict_positive_seen(self):
        acc = accumulate(Fixed(flat(2)).start_state(0), 3, gap_tol=0.0)
        assert acc.strict_positive_seen
        acc = accumulate(Fixed(SWAP).start_state(0), 10, gap_tol=0.0)
        assert not acc.strict_positive_seen

    def test_consensus_iff_second_eigenvalue_of_the_mean_below_one(self):
        # Tahbaz-Salehi & Jadbabaie (IEEE TAC 2008): an iid process whose draws all
        # have a positive diagonal reaches consensus a.s. iff |lambda_2(E[X])| < 1.
        for name, spec in positive_diagonal_iid_specs().items():
            lambda2 = np.sort(np.abs(np.linalg.eigvals(spec.mean_matrix().entries)))[-2]
            contracts = bool(lambda2 < 1.0 - 1e-9)
            stops, _, _ = engine._scan_replicas(spec, 5, 0, 20000, GAP_TOL)
            assert (stops <= 20000).tolist() == [contracts] * 5, name


class TestInfluence:
    def test_bistochastic_equal_influence(self):
        spec = mixing_identity_mixture(3, 0.5)
        est = estimate_influence(spec, replicas=300, t_max=300, seed=3)
        assert est.failures == 0
        se = math.sqrt(max(max(est.variance), 1e-18) / 300)
        for v in est.mean:
            assert abs(v - 1 / 3) <= 3 * se + 1e-9

    def test_samples_are_unit_and_nonnegative(self):
        for spec in [encounter_2x2(0.3, 0.5), ring_uniform_self(4),
                     DirichletRows(np.ones((3, 3)))]:
            est = estimate_influence(spec, replicas=200, t_max=2000, seed=5)
            for s in est.samples:
                assert abs(sum(s) - 1.0) <= 1e-6
                assert min(s) >= -1e-9
                assert min(s) > 0.0  # condition holds for these generators

    def test_constant_left_eigenvector_pins_influence(self):
        # bistochastic atoms: s = 1/n solves s X = s for every atom
        spec = mixing_identity_mixture(4, 0.6)
        est = estimate_influence(spec, replicas=200, t_max=400, seed=7)
        for s in est.samples:
            assert np.abs(np.asarray(s) - 0.25).max() <= 1e-4

    def test_undirected_degree_influence(self):
        c4 = np.zeros((4, 4), dtype=bool)
        for u, v in [(0, 1), (1, 2), (2, 3), (3, 0)]:
            c4[u, v] = c4[v, u] = True
        crossed = np.zeros((4, 4), dtype=bool)
        for u, v in [(0, 2), (2, 1), (1, 3), (3, 0)]:
            crossed[u, v] = crossed[v, u] = True
        spec = UndirectedDegree(graphs=(c4, crossed), probs=(0.5, 0.5))
        est = estimate_influence(spec, replicas=200, t_max=2000, seed=9)
        target = spec.degrees / spec.degrees.sum()
        for s in est.samples:
            assert np.abs(np.asarray(s) - target).max() <= 1e-3

    def test_no_convergence_raises(self):
        with pytest.raises(NoConvergence):
            estimate_influence(Fixed(SWAP), replicas=20, t_max=100, seed=1)

    def test_bernoulli_weight_limit_masses(self):
        # scaled Bernoulli self-weights, x <= 1/2: the limit influence of
        # agent 1 is exactly 0 with probability p00/(1 - p10)
        from degrootnet import bernoulli_2x2

        x, pa, pb = 0.5, 0.3, 0.6
        est = estimate_influence(bernoulli_2x2(x, pa, pb), replicas=8000,
                                 t_max=600, seed=202)
        pis = np.array([s[0] for s in est.samples])
        p00, p10 = (1 - pa) * (1 - pb), pa * (1 - pb)
        target = p00 / (1 - p10)
        frac = (pis <= 1e-7).mean()
        se = math.sqrt(frac * (1 - frac) / len(pis))
        assert abs(frac - target) <= 3 * se

        # x = 1: pi is 0/1-valued with P(0) = (p00(1-p10)+p11 p01)/((1-p10)^2 - p01^2)
        est2 = estimate_influence(bernoulli_2x2(1.0, pa, pb), replicas=8000,
                                  t_max=600, seed=203)
        pis2 = np.array([s[0] for s in est2.samples])
        assert set(np.round(pis2, 6)) <= {0.0, 1.0}
        p01, p11 = (1 - pa) * pb, pa * pb
        target2 = (p00 * (1 - p10) + p11 * p01) / ((1 - p10) ** 2 - p01**2)
        frac2 = (pis2 <= 1e-7).mean()
        se2 = math.sqrt(frac2 * (1 - frac2) / len(pis2))
        assert abs(frac2 - target2) <= 3 * se2

    def test_erdos_uniform_special_case(self):
        # two one-sided listening matrices with x = 1/2: pi_1 is Uniform(0,1)
        up = make_stochastic([[0.5, 0.5], [0.0, 1.0]])
        down = make_stochastic([[1.0, 0.0], [0.5, 0.5]])
        spec = FiniteMixture(atoms=(up, down), probs=(0.5, 0.5))
        est = estimate_influence(spec, replicas=4000, t_max=400, seed=13)
        pis = np.array([s[0] for s in est.samples])
        assert pis.mean() == pytest.approx(0.5, abs=0.03)
        assert pis.var() == pytest.approx(1 / 12, rel=0.1)
        for q in (0.25, 0.75):
            assert np.quantile(pis, q) == pytest.approx(q, abs=0.03)


class TestConditionC:
    def test_dense_dirichlet_holds_analytically(self):
        rep = check_condition_c(DirichletRows(np.ones((3, 3))), horizon=16, replicas=50, seed=0)
        assert rep.verdict == HOLDS
        assert rep.method == "support_analytic"

    def test_identity_swap_support_fails(self):
        spec = two_point_swap(0.4)
        rep = check_condition_c(spec, horizon=32, replicas=50, seed=0)
        assert rep.verdict == FAILS
        assert rep.method == "skeleton_semigroup"

    def test_encounter_holds_via_skeleton(self):
        rep = check_condition_c(encounter_2x2(0.3, 0.5), horizon=16, replicas=50, seed=0)
        assert rep.verdict == HOLDS
        assert rep.method == "skeleton_semigroup"

    def test_ring_dirichlet_holds_via_skeleton(self):
        rep = check_condition_c(ring_uniform_self(5), horizon=32, replicas=50, seed=0)
        assert rep.verdict == HOLDS
        assert rep.method == "skeleton_semigroup"

    def test_ar1_holds_via_monte_carlo(self):
        spec = Ar1Mixture(0.5, make_stochastic([[0.9, 0.1], [0.1, 0.9]]), ring_uniform_self(2))
        rep = check_condition_c(spec, horizon=16, replicas=100, seed=0)
        assert rep.verdict == HOLDS
        assert rep.method == "monte_carlo_positivity"
        assert rep.evidence > 0

    def test_contraction_never_certifies_positivity(self):
        # every draw of both processes has all rows e3: no product is ever strictly positive
        alpha = np.zeros((3, 3))
        alpha[:, 2] = 1.0
        src = DirichletRows(alpha)
        rep = check_condition_c(src, replicas=50, seed=0)
        assert (rep.verdict, rep.method) == (FAILS, "skeleton_semigroup")
        t0 = make_stochastic(np.tile([0.0, 0.0, 1.0], (3, 1)))
        rep = check_condition_c(Ar1Mixture(0.5, t0, src), replicas=50, seed=0)
        assert (rep.verdict, rep.method) == (UNDETERMINED, "contraction_integral")
        assert rep.evidence == 0.0


    def test_zero_probability_atoms_are_ignored(self):
        # with p_meet = 0 every draw is the identity
        rep = check_condition_c(encounter_2x2(0.3, 0.0), replicas=50, seed=0)
        assert (rep.verdict, rep.method) == (FAILS, "skeleton_semigroup")

    def test_markov_mixture_is_decided_by_monte_carlo(self):
        # products of both atoms turn positive, but the identity transition never
        # switches atoms, so no realized product does
        a = make_stochastic([[0.5, 0.5], [0.0, 1.0]])
        b = make_stochastic([[1.0, 0.0], [0.5, 0.5]])
        spec = FiniteMixture(atoms=(a, b), probs=(0.5, 0.5), transition=((1.0, 0.0), (0.0, 1.0)))
        rep = check_condition_c(spec, horizon=200, replicas=200, seed=0)
        assert (rep.verdict, rep.method) == (UNDETERMINED, "contraction_integral")

    def test_contraction_evidence_equals_a_replica_by_replica_sum(self, monkeypatch):
        # the reference sums the recorded per-step coefficients one replica at a time;
        # with an identity transition each replica keeps its first atom, so they differ
        a = make_stochastic([[0.5, 0.5], [0.0, 1.0]])
        b = make_stochastic([[1.0, 0.0], [0.3, 0.7]])
        spec = FiniteMixture(atoms=(a, b), probs=(0.5, 0.5), transition=((1.0, 0.0), (0.0, 1.0)))
        steps = []

        def record(stack):
            steps.append(dobrushin_coefficients(stack))
            return steps[-1]
        monkeypatch.setattr(engine, "dobrushin_coefficients", record)
        rep = check_condition_c(spec, horizon=40, replicas=200, seed=0)
        assert (rep.method, len(steps)) == ("contraction_integral", 40)
        sums, sqsums = np.zeros(40), np.zeros(40)
        for cs in np.array(steps).T:
            sums += cs
            sqsums += cs * cs
        means = sums / 200
        ses = np.sqrt(np.maximum(sqsums / 200 - means**2, 0.0) / 200)
        assert rep.evidence == float((means + 3.0 * ses).min())

    def test_positive_diagonals_hold_iff_union_graph_is_strongly_connected(self):
        # With every skeleton's diagonal positive, a product of all atoms in turn
        # dominates each atom, so some product is positive iff the union graph is
        # strongly connected.
        for name, spec in positive_diagonal_iid_specs().items():
            union = np.logical_or.reduce([s.mask for s in spec.support().skeletons]).astype(np.int64)
            connected = bool(np.linalg.matrix_power(union, spec.n - 1).all())
            rep = check_condition_c(spec, replicas=50, seed=0)
            assert (rep.verdict == HOLDS) == connected, name

    def test_skeleton_closure_stops_at_its_cap(self):
        # the closure stops at the first pattern past the cap, then Monte Carlo decides
        spec = Islands(3, 0.8, 0.3)
        assert engine._skeleton_closure(spec.support().skeletons, 64) == ("open", 4097)
        rep = check_condition_c(spec, replicas=50, seed=0)
        assert (rep.verdict, rep.method) == (HOLDS, "monte_carlo_positivity")


class TestSemigroup:
    @settings(max_examples=80, deadline=None)
    @given(support=random_supports(), max_len=st.integers(1, 4))
    def test_ranks_match_numeric_rank_per_member(self, support, max_len):
        # the members are ranked in one batched SVD; each must get numeric_rank's answer
        rep = semigroup_explore(support, max_len=max_len)
        ranks = [numeric_rank(m).numeric_rank for m in rep.members]
        assert rep.min_rank == min(ranks)
        assert [m.entries.tobytes() for m in rep.rank_one_atoms] == [
            m.entries.tobytes() for m, r in zip(rep.members, ranks) if r == 1]

    @settings(max_examples=80, deadline=None)
    @given(support=random_supports(), max_len=st.integers(1, 5), cap=st.integers(1, 400))
    def test_members_and_guard_are_those_of_the_per_item_net(self, support, max_len, cap):
        # oracle: the per-pair closure, each candidate matched against a list item by item
        elements, offered = [], 0

        def add(arr):
            nonlocal offered
            offered += 1
            if any(np.max(np.abs(e - arr)) <= engine.DEDUP_TOL for e in elements):
                return False
            elements.append(arr)
            return True

        guard = False
        for _ in per_pair_closure([m.entries for m in support], np.matmul, add, max_len):
            if len(elements) > cap:
                guard = True
                break
        with mock.patch.object(engine, "SEMIGROUP_CAP", cap), \
                mock.patch.object(engine, "first_within", mock.Mock(wraps=first_within)) as spy:
            if guard:
                with pytest.raises(ExplosionGuard):
                    semigroup_explore(support, max_len)
                assert len(spy.call_args.args[0]) == cap  # it fires on element cap + 1
            else:
                rep = semigroup_explore(support, max_len)
                assert [m.entries.tobytes() for m in rep.members] == [
                    StochasticMatrix._trusted(e).entries.tobytes() for e in elements]
        assert spy.call_count == offered

    def test_idempotent_flat_support(self):
        rep = semigroup_explore([flat(2)], max_len=6)
        assert rep.elements == 1
        assert rep.min_rank == 1
        assert len(rep.rank_one_atoms) == 1

    def test_identity_swap_closure(self):
        rep = semigroup_explore([make_stochastic(np.eye(2)), SWAP], max_len=8)
        assert rep.min_rank == 2
        assert rep.rank_one_atoms == ()
        assert rep.elements == 2

    def test_max_len_below_one_is_rejected(self):
        with pytest.raises(ValueError, match="max_len"):
            semigroup_explore([flat(2)], max_len=0)

    def test_matrices_of_different_sizes_are_rejected_naming_them(self):
        with pytest.raises(DimensionMismatch, match="n = 2, 3"):
            semigroup_explore([make_stochastic(np.eye(2)), make_stochastic(np.eye(3))], max_len=4)

    def test_explosion_guard(self):
        rng = np.random.default_rng(15)
        raws = rng.random((2, 3, 3)) + 0.05
        dense = [make_stochastic(r / r.sum(axis=1, keepdims=True)) for r in raws]
        with mock.patch.object(engine, "SEMIGROUP_CAP", 50):
            with pytest.raises(ExplosionGuard, match="exceeded 50 elements"):
                semigroup_explore(dense, max_len=12)

    def test_h_g_closure_structure(self):
        kappa = 0.3
        rep = semigroup_explore([h_matrix(kappa), G_PERM], max_len=12)
        assert rep.rank_one_atoms == ()
        assert rep.min_rank == 2
        masks = {tuple(map(tuple, s.mask.astype(int).tolist())) for s in rep.skeletons}
        h_mask = tuple(map(tuple, [[0, 0, 1], [0, 0, 1], [1, 1, 0]]))
        q_mask = tuple(map(tuple, [[1, 1, 0], [1, 1, 0], [0, 0, 1]]))
        assert h_mask in masks
        assert q_mask in masks
        # closure = {h_k, h_{1-k}, q_k, q_{1-k}, g, I}: both parameters of
        # each limit type must be reachable
        def q_matrix(k):
            return np.array([[k, 1 - k, 0], [k, 1 - k, 0], [0, 0, 1.0]])

        assert rep.elements == 6
        for target in (h_matrix(kappa).entries, h_matrix(1 - kappa).entries,
                       q_matrix(kappa), q_matrix(1 - kappa)):
            assert any(np.allclose(target, m.entries) for m in rep.members)


class TestSpeed2x2:
    def test_flat_fixed_reaches_zero_immediately(self):
        res = convergence_time_2x2(Fixed(flat(2)), phi=1e-6, replicas=50, seed=1)
        assert res.mean_t_phi == 0.0
        assert set(res.samples) == {0}

    def test_identity_hits_cap(self):
        with pytest.raises(CapHit):
            convergence_time_2x2(Fixed(make_stochastic(np.eye(2))), phi=1e-6,
                                 replicas=50, t_cap=50, seed=1)

    def test_uniform_rate_matches_energy(self):
        # mean t_phi ~ (-log phi) / I for independent uniform weights, I = 3/2
        spec = DirichletRows(np.ones((2, 2)))
        phi = 1e-6
        res = convergence_time_2x2(spec, phi=phi, replicas=3000, seed=2)
        ratio = res.mean_t_phi * 1.5 / (-math.log(phi))
        assert 0.85 <= ratio <= 1.15

    def test_arcsine_slower_than_uniform(self):
        phi = 1e-6
        arcsine = DirichletRows(np.full((2, 2), 0.5))
        uniform = DirichletRows(np.ones((2, 2)))
        slow = convergence_time_2x2(arcsine, phi=phi, replicas=2000, seed=3)
        fast = convergence_time_2x2(uniform, phi=phi, replicas=2000, seed=4)
        assert slow.mean_t_phi > fast.mean_t_phi


def brute_energy_oracle(quantile, n_grid=1500):
    """Midpoint-rule double integral in quantile space with an analytic
    diagonal-cell correction (locally linear quantile map)."""
    h = 1.0 / n_grid
    u = (np.arange(n_grid) + 0.5) * h
    q = quantile(u)
    diff = np.abs(q[:, None] - q[None, :])
    np.fill_diagonal(diff, 1.0)
    total = -(np.log(diff)).sum() * h * h
    qprime = np.gradient(q, u)
    total += (h * h * (1.5 - np.log(qprime * h))).sum()
    return total


class TestLogEnergy:
    def test_uniform_value_and_oracle(self):
        assert log_energy(BetaMarginalPair(1, 1)) == pytest.approx(1.5, abs=1e-9)
        assert brute_energy_oracle(lambda u: u) == pytest.approx(1.5, abs=2e-3)

    def test_arcsine_value_and_oracle(self):
        from scipy.special import betaincinv

        val = log_energy(BetaMarginalPair(0.5, 0.5))
        assert val == pytest.approx(math.log(4.0), abs=1e-5)
        oracle = brute_energy_oracle(lambda u: betaincinv(0.5, 0.5, u))
        assert oracle == pytest.approx(math.log(4.0), abs=5e-3)

    def test_beta_values_frozen(self):
        assert log_energy(BetaMarginalPair(2, 2)) == pytest.approx(1.75, abs=1e-4)
        assert log_energy(BetaMarginalPair(5, 5)) == pytest.approx(2.160119, abs=1e-3)

    def test_beta_values_pinned_bitwise(self):
        # recorded when the quadrature order was derived from a quad_points argument of 256
        want = {0.5: "0x1.62e42fefa39e7p+0", 1: "0x1.8000000000000p+0",
                2: "0x1.c000000001344p+0", 5: "0x1.147ec7ecb8636p+1"}
        assert {a: log_energy(BetaMarginalPair(a, a)).hex() for a in want} == want

    def test_atom_pair_boundary_case(self):
        mu = AtomicWeightPairs(atoms=(((1.0, 0.0), 0.5), ((0.0, 1.0), 0.5)))
        assert log_energy(mu) == 0.0

    def test_diagonal_atom_rejected(self):
        with pytest.raises(SingularMass):
            log_energy(AtomicWeightPairs(atoms=(((0.3, 0.3), 1.0),)))

    def test_masses_sum_to_one_within_prob_tol(self):
        # the tolerance of every other probability sum in the package (1e-12)
        with pytest.raises(InvalidProbability):
            AtomicWeightPairs(atoms=(((1.0, 0.0), 0.5), ((0.0, 1.0), 0.5 + 5e-10)))
        AtomicWeightPairs(atoms=(((1.0, 0.0), 0.5), ((0.0, 1.0), 0.5 + 5e-13)))


class TestLyapunov:
    def test_flat_reports_zero(self):
        assert lyapunov_exponent(Fixed(flat(2)), t_max=20, replicas=5, seed=0) == 0.0

    def test_identity_reports_one(self):
        spec = Fixed(make_stochastic(np.eye(3)))
        assert lyapunov_exponent(spec, t_max=30, replicas=5, seed=0) == pytest.approx(1.0, abs=1e-9)

    def test_fixed_2x2_matches_lambda2_oracle(self):
        # equal-influence fixed network: the limit is the flat matrix, so
        # the norm sequence is exactly |lambda_2|^t
        t = make_stochastic([[0.75, 0.25], [0.25, 0.75]])
        lam = abs(0.75 - 0.25)
        # keep the horizon short enough that |lambda_2|^t stays above the
        # float rounding floor of entries near 1/2
        est = lyapunov_exponent(Fixed(t), t_max=40, replicas=3, seed=0)
        assert est == pytest.approx(lam, rel=0.02)
        oracle = np.linalg.matrix_power(t.entries, 30) - 0.5
        assert np.linalg.norm(oracle, 2) == pytest.approx(lam**30, rel=1e-6)


    def test_ring_reads_the_consensus_rate_not_the_distance_to_flat(self):
        # The ring's limit row is random, so ||X^(t) - J|| tends to a positive
        # limit and its rate creeps to 1 as t_max grows (0.9988 and 0.9999 at
        # these horizons).  Every replica's distance to consensus reaches the
        # norm floor by t = 132, at a rate near 0.83, so both horizons read
        # the same rate.
        short, long = (lyapunov_exponent(ring_uniform_self(5), t_max=t, replicas=50, seed=0) for t in (500, 5000))
        assert abs(short - long) < 1e-3
        assert max(short, long) < 0.9

    def test_long_horizon_reads_the_process_not_roundoff(self):
        # ||X^(t) - J|| = 0.4^(meetings so far), so the exact value is
        # exp(E log|lambda_2|) = 0.4^0.5.  Each replica's log value lies in
        # [log 0.4, 0], so by Hoeffding the mean of R of them is within the
        # first term of its expectation except with probability 1e-6; the
        # second bounds the bias of stopping at the floor (the 25th meeting).
        replicas = 200
        mu = 0.5 * math.log(0.4)
        tol = -math.log(0.4) * math.sqrt(math.log(2 / 1e-6) / (2 * replicas)) - mu / 25
        est = lyapunov_exponent(encounter_2x2(0.3, 0.5), t_max=500, replicas=replicas, seed=2)
        assert abs(math.log(est) - mu) <= tol

    def test_rate_is_not_biased_by_the_stopping_time(self):
        # Every replica stops at its 25th meeting (0.4^25 < 2 * NORM_FLOOR <
        # 0.4^24), so the pooled estimate is log(est) = 25 R log(0.4) / S,
        # where S, the sum of the stopping times, is the number of fair
        # coin flips up to the 25R-th meeting.  It misses mu by more than
        # 1% iff S < 50R/1.01 or S > 50R/0.99: probability 5.8e-7 by the
        # exact binomial tails at R = 5000.  The mean of the per-replica
        # 25 log(0.4) / tau overstates |mu| by about Var(tau)/E[tau]^2 = 2%.
        mu = 0.5 * math.log(0.4)
        est = lyapunov_exponent(encounter_2x2(0.3, 0.5), t_max=500, replicas=5000, seed=3)
        assert abs(math.log(est) - mu) <= 0.01 * abs(mu)

    def test_exact_rate_when_the_horizon_stops_half_the_replicas(self):
        # At t_max = 50 a replica stops at its 25th meeting or at t_max, so
        # each tau lies in [25, 50] and about 44% of them are t_max (fewer
        # than 25 meetings in 50 fair flips).  log(est) = log(0.4) M / S,
        # M the meetings and S the sum of the tau, both summed to the
        # stops; M - S/2 is a martingale of at most 50R steps of +-1/2.  So
        # by Azuma-Hoeffding and S >= 25R, log(est) misses mu = log(0.4)/2
        # by a relative delta with probability at most
        # 2 exp(-6.25 delta^2 R): 1e-6 at the delta below.
        replicas = 1000
        mu = 0.5 * math.log(0.4)
        delta = math.sqrt(math.log(2 / 1e-6) / (6.25 * replicas))
        est = lyapunov_exponent(encounter_2x2(0.3, 0.5), t_max=50, replicas=replicas, seed=5)
        assert abs(math.log(est) - mu) <= delta * abs(mu)


class TestDisagreement:
    def test_two_point_swap_masses(self):
        spec = two_point_swap(0.4)
        rep = disagreement_degree(spec, replicas=2000, t_max=101, seed=5)
        assert rep.eta_estimate == 2
        freq = {}
        for m, f in rep.support_atoms:
            key = "eye" if m.entries[0, 0] > 0.5 else "swap"
            freq[key] = freq.get(key, 0.0) + f
        assert freq["eye"] == pytest.approx(0.5, abs=0.05)
        assert freq["swap"] == pytest.approx(0.5, abs=0.05)

    def test_consensus_generator_has_eta_one(self):
        rep = disagreement_degree(encounter_2x2(0.3, 0.5), replicas=200, t_max=300, seed=6)
        assert rep.eta_estimate == 1
        assert rep.rank_histogram[1] == 1.0

    def test_rank_histogram_sums_to_one(self):
        rep = disagreement_degree(hg_mixture(), replicas=300, t_max=60, seed=7)
        assert sum(rep.rank_histogram.values()) == pytest.approx(1.0, abs=1e-9)

    def test_stabilizes_with_positive_diagonals(self):
        # atoms with >= n-1 positive diagonal entries: weak convergence
        a = make_stochastic([[0.5, 0.5, 0], [0.5, 0.5, 0], [0, 0, 1]])
        spec = FiniteMixture(atoms=(a, make_stochastic(np.eye(3))), probs=(0.5, 0.5))
        rep1 = disagreement_degree(spec, replicas=400, t_max=12, seed=8)
        rep2 = disagreement_degree(spec, replicas=400, t_max=24, seed=9)
        ranks = set(rep1.rank_histogram) | set(rep2.rank_histogram)
        tv = 0.5 * sum(
            abs(rep1.rank_histogram.get(r, 0.0) - rep2.rank_histogram.get(r, 0.0)) for r in ranks
        )
        assert tv <= 0.05


def enumerated_cyclicity(mats):
    """The partition search cyclicity_check once ran, kept as an oracle: first blocks
    by size, then in lexicographic order, followed through the union graph."""
    n = mats[0].shape[0]
    union_support = [frozenset(np.flatnonzero(np.any([m[i] > 1e-12 for m in mats], axis=0)).tolist())
                     for i in range(n)]

    def follow(block):
        out = set()
        for i in block:
            out |= union_support[i]
        return frozenset(out)

    for size in range(1, n + 1):
        for first in itertools.combinations(range(n), size):
            a1 = frozenset(first)
            for m in range(2, n + 1):
                blocks = [a1]
                ok = True
                for _ in range(m - 1):
                    nxt = follow(blocks[-1])
                    if not nxt or any(nxt & b for b in blocks):
                        ok = False
                        break
                    blocks.append(nxt)
                if ok and follow(blocks[-1]) <= a1:
                    return [sorted(b) for b in blocks]
    return None


def is_cyclicity_witness(support, blocks):
    """Two or more disjoint nonempty blocks, each sending all its weight into the next."""
    agents = [a for b in blocks for a in b]
    if len(blocks) < 2 or not all(blocks) or len(agents) != len(set(agents)):
        return False
    for s, block in enumerate(blocks):
        outside = np.ones(support[0].n, dtype=bool)
        outside[blocks[(s + 1) % len(blocks)]] = False
        if any((m.entries[np.ix_(block, outside)] > 0).any() for m in support):
            return False
    return True


class TestCyclicity:
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 6), k=st.integers(1, 3), density=st.floats(0.1, 0.7), seed=st.integers(0, 2**32 - 1))
    def test_agrees_with_the_partition_enumeration(self, n, k, density, seed):
        rng = np.random.default_rng(seed)
        support = []
        for _ in range(k):
            mask = rng.random((n, n)) < density
            mask[np.arange(n), rng.integers(n, size=n)] |= ~mask.any(axis=1)  # no empty row
            support.append(make_stochastic(mask / mask.sum(axis=1, keepdims=True)))
        res = cyclicity_check(support)
        assert res["cyclic"] == (enumerated_cyclicity([m.entries for m in support]) is not None)
        if res["cyclic"]:
            assert is_cyclicity_witness(support, res["witness_partition"])
        else:
            assert res["witness_partition"] is None

    def test_thirteen_agents_in_three_cyclic_classes(self):
        classes = [list(range(0, 5)), list(range(5, 9)), list(range(9, 13))]
        spread, to_first = np.zeros((13, 13)), np.zeros((13, 13))
        for s, block in enumerate(classes):
            nxt = classes[(s + 1) % 3]
            spread[np.ix_(block, nxt)] = 1.0 / len(nxt)
            to_first[block, nxt[0]] = 1.0
        res = cyclicity_check([make_stochastic(spread), make_stochastic(to_first)])
        assert res == {"cyclic": True, "witness_partition": classes}

    def test_swap_support_is_cyclic(self):
        res = cyclicity_check([SWAP])
        assert res["cyclic"]
        assert res["witness_partition"] == [[0], [1]]

    def test_identity_not_cyclic(self):
        res = cyclicity_check([make_stochastic(np.eye(2))])
        assert not res["cyclic"]

    def test_h_g_support_not_cyclic(self):
        res = cyclicity_check([h_matrix(0.3), G_PERM])
        assert not res["cyclic"]

    def test_cross_check_with_weak_convergence(self):
        # non-cyclic eta=2 support: empirical law of X^(t) settles; the
        # cyclic swap support alternates between two point masses instead
        spec = hg_mixture(0.3, 0.5)
        rep_a = disagreement_degree(spec, replicas=400, t_max=100, seed=10)
        rep_b = disagreement_degree(spec, replicas=400, t_max=101, seed=11)
        assert rep_a.eta_estimate == rep_b.eta_estimate == 2
        freqs_a = sorted(f for _m, f in rep_a.support_atoms)
        freqs_b = sorted(f for _m, f in rep_b.support_atoms)
        assert np.abs(np.asarray(freqs_a) - np.asarray(freqs_b)).max() < 0.1

        even = disagreement_degree(Fixed(SWAP), replicas=100, t_max=100, seed=12)
        odd = disagreement_degree(Fixed(SWAP), replicas=100, t_max=101, seed=13)
        atom_even = even.support_atoms[0][0].entries
        atom_odd = odd.support_atoms[0][0].entries
        assert np.abs(atom_even - atom_odd).max() == 1.0  # flips between I and swap


class TestSkeletonEquivalence:
    def test_one_sided_listening_pair(self):
        random_spec = DirichletRows(np.array([[1.0, 1.0], [0.0, 1.0]]))
        fixed_spec = Fixed(make_stochastic([[0.5, 0.5], [0.0, 1.0]]))
        rep = skeleton_equivalence_test(random_spec, fixed_spec, horizon=32, replicas=50, seed=0)
        assert rep.same_initial_skeleton
        assert rep.agree
        assert rep.verdict_a.verdict == FAILS
        assert rep.verdict_b.verdict == FAILS

    def test_identical_specs_agree(self):
        spec = encounter_2x2(0.2, 0.5)
        rep = skeleton_equivalence_test(spec, spec, horizon=16, replicas=30, seed=1)
        assert rep.same_initial_skeleton
        assert rep.agree

    def test_same_mask_different_alphas_both_hold(self):
        ring = ring_uniform_self(4)
        alpha = np.where(ring.alpha > 0, 3.5, 0.0)
        other = DirichletRows(alpha)
        rep = skeleton_equivalence_test(ring, other, horizon=32, replicas=50, seed=2)
        assert rep.same_initial_skeleton
        assert rep.verdict_a.verdict == HOLDS
        assert rep.verdict_b.verdict == HOLDS
        assert rep.agree

    def test_islands_law_is_enumerated_once_per_spec(self, monkeypatch):
        calls = []
        enumerate_atoms = generators.islands_graph_atoms

        def counted(*args):
            calls.append(args)
            return enumerate_atoms(*args)

        monkeypatch.setattr(generators, "islands_graph_atoms", counted)
        skeleton_equivalence_test(Islands(2, 0.8, 0.3), Islands(2, 0.3, 0.8), horizon=8, replicas=10, seed=3)
        assert len(calls) == 2

    def test_rejects_non_iid(self):
        ar1 = Ar1Mixture(0.5, flat(2), ring_uniform_self(2))
        with pytest.raises(NotIid):
            skeleton_equivalence_test(ar1, ring_uniform_self(2))


MONTE_CARLO_ENTRY_POINTS = {
    "check_condition_c": lambda r: check_condition_c(ring_uniform_self(3), replicas=r),
    "convergence_time_2x2": lambda r: convergence_time_2x2(encounter_2x2(0.3, 0.5), 0.1, replicas=r),
    "estimate_influence": lambda r: estimate_influence(ring_uniform_self(3), replicas=r, t_max=10),
    "lyapunov_exponent": lambda r: lyapunov_exponent(ring_uniform_self(3), t_max=10, replicas=r),
    "decay_rate_estimate": lambda r: decay_rate_estimate(encounter_2x2(0.3, 0.5), 0.5, [1, 2], replicas=r),
    "mean_rank_one_test": lambda r: mean_rank_one_test(ring_uniform_self(3), replicas=r, t_max=10),
    "WisdomConfig": lambda r: WisdomConfig(family=ring_uniform_self, sizes=(3,),
                                           signal_law=UniformSignal(0.5), replicas=r, t_max=10),
}


@pytest.mark.parametrize("replicas", [0, -3])
@pytest.mark.parametrize("entry", sorted(MONTE_CARLO_ENTRY_POINTS))
def test_monte_carlo_entry_points_reject_empty_runs(entry, replicas):
    with pytest.raises(ValueError, match="replicas must be >= 1"):
        MONTE_CARLO_ENTRY_POINTS[entry](replicas)


HORIZON_ENTRY_POINTS = {
    "estimate_influence": lambda t: estimate_influence(ring_uniform_self(3), replicas=4, t_max=t),
    "lyapunov_exponent": lambda t: lyapunov_exponent(ring_uniform_self(3), t_max=t, replicas=4),
    "mean_rank_one_test": lambda t: mean_rank_one_test(ring_uniform_self(3), replicas=4, t_max=t,
                                                       allow_no_positive=True),
    "WisdomConfig": lambda t: WisdomConfig(family=ring_uniform_self, sizes=(3,),
                                           signal_law=UniformSignal(0.5), replicas=4, t_max=t),
}


@pytest.mark.parametrize("t_max", [0, -3])
@pytest.mark.parametrize("entry", sorted(HORIZON_ENTRY_POINTS))
def test_monte_carlo_entry_points_reject_empty_horizons(entry, t_max):
    with pytest.raises(ValueError, match="t_max must be >= 1"):
        HORIZON_ENTRY_POINTS[entry](t_max)


GAP_TOL_ENTRY_POINTS = {
    "accumulate": lambda g: accumulate(ring_uniform_self(3).start_state(0), t_max=10, gap_tol=g),
    "estimate_influence": lambda g: estimate_influence(ring_uniform_self(3), replicas=4, t_max=10, gap_tol=g),
    "WisdomConfig": lambda g: WisdomConfig(family=ring_uniform_self, sizes=(3,), signal_law=UniformSignal(0.5),
                                           replicas=4, t_max=10, gap_tol=g),
}


@pytest.mark.parametrize("gap_tol", [-1.0, -5e-324, float("nan"), 1.0, float("inf")])
@pytest.mark.parametrize("entry", sorted(GAP_TOL_ENTRY_POINTS))
def test_monte_carlo_entry_points_reject_negative_or_nan_gap_tol(entry, gap_tol):
    # raised before any step: below 0 or NaN a scan would run every replica to t_max and
    # never converge, and at 1 or more every replica would "converge" at t = 1, since no
    # gap exceeds 1
    with mock.patch.object(engine, "_lockstep", side_effect=AssertionError("stepped")), \
            pytest.raises(ValueError, match="gap_tol must be >= 0 and < 1"):
        GAP_TOL_ENTRY_POINTS[entry](gap_tol)


def test_zero_gap_tol_stays_valid():
    acc = accumulate(Fixed(make_stochastic([[0.5, 0.5], [0.5, 0.5]])).start_state(0), t_max=3, gap_tol=0.0)
    assert acc.consensus_time == 1
    est = estimate_influence(Fixed(make_stochastic([[0.5, 0.5], [0.5, 0.5]])), replicas=4, t_max=3, gap_tol=0.0)
    assert est.failures == 0
    GAP_TOL_ENTRY_POINTS["WisdomConfig"](0.0)


INVALID_HORIZON_ENTRY_POINTS = {
    "disagreement_degree": lambda h: disagreement_degree(ring_uniform_self(3), replicas=100, t_max=h),
    "convergence_time_2x2": lambda h: convergence_time_2x2(encounter_2x2(0.3, 0.5), 0.1, replicas=4,
                                                           t_cap=h),
}


# disagreement_degree keeps t_max = 0, the identity start; t_cap counts periods from 1
@pytest.mark.parametrize("entry, horizon, message", [
    ("disagreement_degree", -1, "t_max must be >= 0"),
    ("disagreement_degree", -5, "t_max must be >= 0"),
    ("convergence_time_2x2", 0, "t_cap must be >= 1"),
    ("convergence_time_2x2", -3, "t_cap must be >= 1"),
])
def test_monte_carlo_entry_points_reject_invalid_horizons(entry, horizon, message):
    with pytest.raises(ValueError, match=message):
        INVALID_HORIZON_ENTRY_POINTS[entry](horizon)


NAN = float("nan")
HALVES = make_stochastic([[0.5, 0.5], [0.5, 0.5]])
NAN_CONSTRUCTORS = {
    "StochasticMatrix": (lambda: StochasticMatrix([[NAN, NAN], [0.5, 0.5]]), NegativeEntry),
    "FiniteMixture-probs": (lambda: FiniteMixture(atoms=(HALVES, HALVES), probs=(NAN, 1.0)), InvalidProbability),
    "FiniteMixture-transition": (lambda: FiniteMixture(atoms=(HALVES, HALVES), probs=(0.5, 0.5),
                                                       transition=((NAN, NAN), (0.5, 0.5))), InvalidProbability),
    "GraphDistribution": (lambda: GraphDistribution(atoms=((Graph([[0, 1], [1, 0]]), NAN),)), InvalidProbability),
    "AtomicWeightPairs": (lambda: AtomicWeightPairs(atoms=(((0.5, 0.5), NAN),)), InvalidProbability),
    "BetaMarginalPair-a": (lambda: BetaMarginalPair(NAN, 1.0), InvalidProbability),
    "BetaMarginalPair-b": (lambda: BetaMarginalPair(1.0, NAN), InvalidProbability),
    "UniformSignal-gamma": (lambda: UniformSignal(NAN), InvalidProbability),
    "UniformSignal-half_width": (lambda: UniformSignal(0.5, NAN), InvalidProbability),
    "evolve-p0": (lambda: evolve(Fixed(HALVES).start_state(0), [NAN, 0.5], 1), InvalidProbability),
}


@pytest.mark.parametrize("name", sorted(NAN_CONSTRUCTORS))
def test_constructors_reject_nan(name):
    # NaN compares false both ways, so each check is written to pass only on valid values
    build, error = NAN_CONSTRUCTORS[name]
    with pytest.raises(error):
        build()


INF = float("inf")
INFINITE_CONSTRUCTORS = {
    "DirichletRows": lambda: generators.DirichletRows(np.array([[INF, 1.0], [1.0, 1.0]])),
    "PerturbedFixed": lambda: generators.PerturbedFixed(HALVES, INF),
    "BetaMarginalPair-a": lambda: BetaMarginalPair(INF, 1.0),
    "BetaMarginalPair-b": lambda: BetaMarginalPair(1.0, INF),
}


@pytest.mark.parametrize("name", sorted(INFINITE_CONSTRUCTORS))
def test_constructors_reject_infinite_parameters(name):
    # an infinite alpha draws inf/inf = NaN rows, and an infinite Beta parameter a NaN energy
    with pytest.raises(InvalidProbability, match="finite"):
        INFINITE_CONSTRUCTORS[name]()
