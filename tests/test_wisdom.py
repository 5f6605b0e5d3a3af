import math

import numpy as np
import pytest

from degrootnet import (
    DirichletRows,
    Fixed,
    LeaderFollower,
    PerturbedFixed,
    UniformSignal,
    WisdomConfig,
    check_mic3_rates,
    consensus_probability,
    dirichlet_conjugacy_test,
    encounter_2x2,
    make_stochastic,
    mean_rank_one_test,
    mixing_identity_mixture,
    ring_uniform_self,
    run_wisdom,
    two_point_swap,
)
from degrootnet.errors import BalanceViolation, InvalidProbability, PreconditionUnmet


def flat(n):
    return make_stochastic(np.full((n, n), 1.0 / n))


def star_alpha(n):
    """Balanced star: one hub whose influence share never vanishes."""
    a = np.zeros((n, n))
    a[0, :] = 1.0
    a[:, 0] = 1.0
    np.fill_diagonal(a, 1.0)
    return a


def ring_alpha(n):
    return ring_uniform_self(n).alpha


class TestSignals:
    def test_uniform_requires_interior_support(self):
        with pytest.raises(InvalidProbability):
            UniformSignal(0.9, 0.25)
        sig = UniformSignal(0.5, 0.25)
        assert sig.variance == pytest.approx(0.25**2 / 3)


class TestRunWisdom:
    def test_mixing_identity_family_is_wise(self):
        cfg = WisdomConfig(
            family=lambda n: mixing_identity_mixture(n, 0.5),
            sizes=(4, 8, 16), signal_law=UniformSignal(0.5, 0.25),
            replicas=400, t_max=400, seed=3,
        )
        res = run_wisdom(cfg)
        errs = [r.mean_abs_error for r in res.per_size]
        assert errs[0] > errs[1] > errs[2]
        for r in res.per_size:
            # bistochastic atoms pin every influence weight at 1/n
            assert r.e_max_pi == pytest.approx(1.0 / r.n, abs=1e-6)
            assert r.convergence_fraction == 1.0

    def test_ring_e_max_pi_decreases_when_doubling(self):
        cfg = WisdomConfig(
            family=ring_uniform_self,
            sizes=(4, 8, 16), signal_law=UniformSignal(0.5, 0.25),
            replicas=300, t_max=4000, gap_tol=1e-6, seed=4,
        )
        res = run_wisdom(cfg)
        e_max = [r.e_max_pi for r in res.per_size]
        assert e_max[0] > e_max[1] > e_max[2]

    def test_fixed_shift_ring_never_converges(self):
        def fixed_ring(n):
            return Fixed(make_stochastic(np.roll(np.eye(n), 1, axis=1)))

        cfg = WisdomConfig(
            family=fixed_ring, sizes=(4, 6),
            signal_law=UniformSignal(0.5, 0.25), replicas=50, t_max=200, seed=5,
        )
        res = run_wisdom(cfg)
        for r in res.per_size:
            assert r.convergence_fraction == 0.0
            assert math.isnan(r.mean_abs_error)

    def test_prop2_surrogate_variance_rate(self):
        from degrootnet import estimate_influence

        sizes = (4, 8, 16)
        variances = []
        q90s = []
        for n in sizes:
            est = estimate_influence(ring_uniform_self(n), replicas=300, t_max=4000,
                                     gap_tol=1e-6, seed=6)
            variances.append(np.mean(est.variance))
            assert max(est.mean) <= 2.5 / n  # max mean influence vanishes
        cfg = WisdomConfig(
            family=ring_uniform_self, sizes=sizes,
            signal_law=UniformSignal(0.5, 0.25), replicas=300, t_max=4000,
            gap_tol=1e-6, seed=7,
        )
        res = run_wisdom(cfg)
        q90s = [r.q90 for r in res.per_size]
        d_fit = -np.polyfit(np.log(sizes), np.log(variances), 1)[0]
        assert d_fit > 1.0
        assert q90s[0] > q90s[-1]

    def test_star_family_not_wise(self):
        cfg = WisdomConfig(
            family=lambda n: DirichletRows(star_alpha(n)),
            sizes=(5, 9, 17), signal_law=UniformSignal(0.5, 0.25),
            replicas=400, t_max=2000, seed=8,
        )
        res = run_wisdom(cfg)
        for r in res.per_size:
            assert r.e_max_pi > 0.25  # hub keeps a non-vanishing share
        assert res.per_size[-1].q90 > 0.02


class TestMic3Rates:
    def test_ring_family_rates(self):
        res = check_mic3_rates(ring_alpha, (8, 16, 32, 64))
        assert res["k_fit"] == pytest.approx(1.0, abs=0.02)
        assert res["m_fit"] == pytest.approx(1.0, abs=0.02)
        assert res["qualifies"]

    def test_constant_sizes_do_not_qualify(self):
        res = check_mic3_rates(ring_alpha, (8, 8, 8, 8))
        assert res["k_fit"] == 0.0
        assert res["m_fit"] == 0.0
        assert not res["qualifies"]

    def test_star_ratio_levels_off(self):
        res = check_mic3_rates(star_alpha, (8, 16, 32, 64))
        assert not res["qualifies"]
        assert res["m_fit"] < 0.1

    def test_unbalanced_alpha_rejected(self):
        def lopsided(n):
            a = np.ones((n, n))
            a[0, 1] = 5.0
            return a

        with pytest.raises(BalanceViolation):
            check_mic3_rates(lopsided, (4, 8, 16, 32))


class TestConjugacy:
    def test_beta_weights_match_beta_2_2(self):
        spec = DirichletRows(np.ones((2, 2)))
        res = dirichlet_conjugacy_test(spec, replicas=4000, seed=9)
        assert res["phi"] == (2.0, 2.0)
        assert res["pass"]
        assert res["mean_err"] < 0.02
        assert res["var_err"] < 0.005

    def test_perturbed_fixed_matches_dirichlet_eps_s(self):
        spec = PerturbedFixed(flat(2), 8.0)
        res = dirichlet_conjugacy_test(spec, replicas=4000, seed=10)
        assert res["phi"] == pytest.approx((4.0, 4.0))
        assert res["pass"]

    def test_arcsine_weights_give_uniform_influence(self):
        # Beta(1/2,1/2) weights balance to phi = (1,1): pi_1 is Uniform(0,1)
        spec = DirichletRows(np.full((2, 2), 0.5))
        res = dirichlet_conjugacy_test(spec, replicas=4000, seed=22)
        assert res["phi"] == (1.0, 1.0)
        assert res["pass"]

    def test_leader_follower_shares_ring_limit(self):
        n = 3
        res = dirichlet_conjugacy_test(LeaderFollower(n), replicas=4000, seed=11,
                                       phi=[2.0] * n)
        assert res["pass"]

    def test_unbalanced_rejected(self):
        alpha = np.ones((2, 2))
        alpha[0, 1] = 3.0
        with pytest.raises(BalanceViolation):
            dirichlet_conjugacy_test(DirichletRows(alpha), replicas=100, seed=0)


class TestPerturbationBound:
    def test_chebyshev_union_bound_on_max_deviation(self):
        # wise fixed network: s = 1/n; the tail of max|pi_i - 1/n| is
        # bounded by (1 - sum s_i^2) / (eps tau^2)
        from degrootnet import estimate_influence

        n, eps, tau = 4, 32.0, 0.2
        spec = PerturbedFixed(flat(n), eps)
        est = estimate_influence(spec, replicas=2000, t_max=2000, seed=21)
        samples = np.asarray(est.samples)
        exceed = (np.abs(samples - 1.0 / n).max(axis=1) >= tau).mean()
        bound = (1.0 - n * (1.0 / n) ** 2) / (eps * tau**2)
        se = math.sqrt(max(exceed * (1 - exceed), 1e-12) / len(samples))
        assert exceed <= bound + 3 * se


class TestConsensusProbability:
    def test_two_matrix_closed_form(self):
        for phi in [0.1, 0.3, 0.8]:
            assert consensus_probability(2, phi) == pytest.approx(phi * (2 - phi), abs=1e-15)

    def test_certain_rank_one(self):
        for k in range(1, 6):
            assert consensus_probability(k, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_uniform_rank_value(self):
        assert consensus_probability(2, 0.25) == pytest.approx(0.4375, abs=1e-15)

    def test_binomial_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            k = int(rng.integers(1, 12))
            phi = float(rng.random())
            assert abs(consensus_probability(k, phi) - (1 - (1 - phi) ** k)) <= 1e-12

    def test_monotone_in_phi(self):
        grid = np.linspace(0, 1, 21)
        for k in (1, 2, 5):
            vals = [consensus_probability(k, p) for p in grid]
            assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_invalid_inputs(self):
        with pytest.raises(InvalidProbability):
            consensus_probability(0, 0.5)
        with pytest.raises(InvalidProbability):
            consensus_probability(2, 1.5)


class TestMeanRankOne:
    def test_two_point_swap_mean_is_flat(self):
        spec = two_point_swap(0.4)
        with pytest.raises(PreconditionUnmet):
            mean_rank_one_test(spec, replicas=200, t_max=60, seed=13)
        res = mean_rank_one_test(spec, replicas=2000, t_max=61, seed=13,
                                 allow_no_positive=True)
        assert np.abs(res["mean_limit"].entries - 0.5).max() < 0.05
        assert res["rank"] == 1

    def test_encounter_mean_rank_one(self):
        res = mean_rank_one_test(encounter_2x2(0.3, 0.5), replicas=200, t_max=300, seed=14)
        assert res["rank"] == 1

    def test_ring_mean_near_flat(self):
        res = mean_rank_one_test(ring_uniform_self(4), replicas=400, t_max=600, seed=15)
        assert res["rank"] == 1
        assert np.abs(res["mean_limit"].entries - 0.25).max() < 0.02

    def test_few_replicas_still_count_the_top_singular_value(self):
        # at 8 replicas the default threshold 4/sqrt(8) exceeds 1
        res = mean_rank_one_test(ring_uniform_self(3), replicas=8, t_max=130, seed=3)
        assert res["rank"] == 1
