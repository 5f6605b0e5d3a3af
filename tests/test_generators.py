import hashlib
import json
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degrootnet import (
    Ar1Mixture,
    DirichletRows,
    FiniteMixture,
    Fixed,
    GeneratorSpec,
    Islands,
    LeaderFollower,
    PerturbedFixed,
    UndirectedDegree,
    bernoulli_2x2,
    encounter_2x2,
    make_stochastic,
    mixing_identity_mixture,
    ring_uniform_self,
    sample_next,
    two_point_swap,
)
from degrootnet.cli import run
from degrootnet.errors import InvalidProbability, NotStrictlyPositive, Unsupported
from degrootnet.generators import _REGISTRY, _graph_to_row_weights


def flat(n):
    return make_stochastic(np.full((n, n), 1.0 / n))


def all_models():
    """One representative spec per model family, used by the shared invariants."""
    undirected = _undirected_pair()
    return {
        "fixed": Fixed(make_stochastic([[0.6, 0.4], [0.3, 0.7]])),
        "encounter2x2": encounter_2x2(0.3, 0.5),
        "two_point_swap": two_point_swap(0.4),
        "bernoulli2x2": bernoulli_2x2(0.5, 0.3, 0.6),
        "markov_encounter": encounter_2x2(0.3, 0.5, transition=((0.5, 0.5), (0.5, 0.5))),
        "dirichlet_ring": ring_uniform_self(5),
        "dirichlet_dense": DirichletRows(np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])),
        "perturbed": PerturbedFixed(flat(2), 8.0),
        "leader_follower": LeaderFollower(4),
        "islands": Islands(2, 0.8, 0.3),
        "undirected_degree": undirected,
        "mix_identity": mixing_identity_mixture(3, 0.5),
        "ar1": Ar1Mixture(0.5, make_stochastic([[0.9, 0.1], [0.1, 0.9]]), ring_uniform_self(2)),
    }


def block_models():
    """all_models() plus a Markov mixture whose transition rows differ from its start law."""
    sticky = encounter_2x2(0.3, 0.5, transition=((0.9, 0.1), (0.1, 0.9)))
    return dict(all_models(), sticky_markov=sticky)


def _undirected_pair():
    c4 = np.zeros((4, 4), dtype=bool)
    for u, v in [(0, 1), (1, 2), (2, 3), (3, 0)]:
        c4[u, v] = c4[v, u] = True
    crossed = np.zeros((4, 4), dtype=bool)
    for u, v in [(0, 2), (2, 1), (1, 3), (3, 0)]:
        crossed[u, v] = crossed[v, u] = True
    from degrootnet import UndirectedDegree

    return UndirectedDegree(graphs=(c4, crossed), probs=(0.5, 0.5))


class TestSampleNext:
    def test_fixed_returns_t_every_period(self):
        t = make_stochastic([[0.6, 0.4], [0.3, 0.7]])
        state = Fixed(t).start_state(0)
        for _ in range(5):
            assert np.array_equal(sample_next(state).entries, t.entries)

    def test_ar1_xi_zero_freezes_t0(self):
        t0 = make_stochastic([[0.9, 0.1], [0.2, 0.8]])
        spec = Ar1Mixture(0.0, t0, ring_uniform_self(2))
        state = spec.start_state(1)
        for _ in range(5):
            assert np.array_equal(sample_next(state).entries, t0.entries)

    def test_ar1_xi_one_is_iid_source(self):
        t0 = make_stochastic([[0.9, 0.1], [0.2, 0.8]])
        src = ring_uniform_self(2)
        spec = Ar1Mixture(1.0, t0, src)
        a = spec.start_state(7)
        b = src.start_state(7)
        for _ in range(5):
            assert np.array_equal(a.next_array(), b.next_array())

    def test_ar1_draw_is_convex_mixture(self):
        t0 = make_stochastic([[0.9, 0.1], [0.2, 0.8]])
        spec = Ar1Mixture(0.5, t0, ring_uniform_self(2))
        state = spec.start_state(3)
        prev = t0.entries
        for _ in range(4):
            x = state.next_array()
            # every entry at least (1-xi) * the previous matrix's entry
            assert (x >= 0.5 * prev - 1e-15).all()
            prev = x


class TestMeanMatrix:
    def test_mix_identity_mean(self):
        n, zeta = 4, 0.3
        expected = (1 - zeta) * np.eye(n) + zeta * np.full((n, n), 1.0 / n)
        assert np.allclose(mixing_identity_mixture(n, zeta).mean_matrix().entries, expected)

    def test_perturbed_mean_is_t(self):
        t = make_stochastic([[0.7, 0.3], [0.4, 0.6]])
        spec = PerturbedFixed(t, 4.0)
        assert np.allclose(spec.mean_matrix().entries, t.entries)

    def test_exact_fraction_probabilities(self):
        eye, swap = make_stochastic(np.eye(2)), make_stochastic([[0.0, 1.0], [1.0, 0.0]])
        mix = FiniteMixture(atoms=(eye, swap), probs=(Fraction(1, 2), Fraction(1, 2)))
        assert np.array_equal(mix.mean_matrix().entries, np.full((2, 2), 0.5))

    def test_two_point_swap_mean(self):
        a = 0.4
        assert np.allclose(two_point_swap(a).mean_matrix().entries, [[a, 1 - a], [1 - a, a]])

    def test_empirical_mean_within_5e3_all_models(self):
        for name, spec in all_models().items():
            draws = 100_000
            acc = np.zeros((spec.n, spec.n))
            if name == "ar1":
                # time average over one long path, burning in the start at T0
                state = spec.start_state(123)
                for _ in range(200):
                    state.next_array()
                for _ in range(draws):
                    acc += state.next_array()
            else:
                state = spec.start_state(123)
                for _ in range(draws):
                    acc += state.next_array()
            err = np.abs(acc / draws - spec.mean_matrix().entries).max()
            assert err < 5e-3, f"{name}: empirical mean off by {err}"


class TestSupport:
    def test_encounter_atoms(self):
        desc = encounter_2x2(0.3, 0.5).support()
        assert desc.kind == "finite"
        mats = sorted(a.entries.tolist() for a in desc.atoms)
        assert mats == sorted([np.eye(2).tolist(), [[0.7, 0.3], [0.3, 0.7]]])

    def test_two_point_swap_atoms(self):
        desc = two_point_swap(0.4).support()
        mats = sorted(a.entries.tolist() for a in desc.atoms)
        assert mats == sorted([np.eye(2).tolist(), [[0.0, 1.0], [1.0, 0.0]]])

    def test_zero_probability_atoms_are_not_listed(self):
        desc = encounter_2x2(0.3, 0.0).support()
        assert [a.entries.tolist() for a in desc.atoms] == [np.eye(2).tolist()]
        assert [s.mask.tolist() for s in desc.skeletons] == [np.eye(2, dtype=bool).tolist()]
        graphs = _undirected_pair().graphs
        desc = UndirectedDegree(graphs=graphs, probs=(0.0, 1.0)).support()
        assert [a.entries.tolist() for a in desc.atoms] == [(graphs[1] / 2.0).tolist()]

    def test_dirichlet_full_support(self):
        desc = DirichletRows(np.ones((3, 3))).support()
        assert desc.kind == "continuous"
        assert desc.strictly_positive_prob == 1.0
        assert desc.skeletons[0].all_true()

    def test_dirichlet_structural_zeros(self):
        desc = ring_uniform_self(4).support()
        assert desc.strictly_positive_prob == 0.0
        assert not desc.skeletons[0].all_true()

    def test_every_draw_lies_on_its_declared_support(self):
        # the exact condition-(C) verdicts rest on draws never leaving spec.support();
        # K7's weights 1/6 do not sum to exactly 1, so its atoms are renormalized
        k7 = ~np.eye(7, dtype=bool)
        specs = dict(all_models(), k7=UndirectedDegree(graphs=(k7,), probs=(1.0,)))
        for name, spec in specs.items():
            try:
                desc = spec.support()
            except Unsupported:
                continue
            atoms = {a.entries.tobytes() for a in desc.atoms}
            skeletons = {s.mask.tobytes() for s in desc.skeletons}
            state = spec.start_state(11)
            for _ in range(200):
                x = state.next_array()
                assert (x >= 0).all() and np.abs(x.sum(axis=1) - 1.0).max() < 1e-12, name
                if desc.kind == "finite":
                    assert x.tobytes() in atoms, name
                else:
                    assert (x > 0).tobytes() in skeletons, name

    def test_ar1_support_unsupported(self):
        spec = Ar1Mixture(0.5, flat(2), ring_uniform_self(2))
        with pytest.raises(Unsupported):
            spec.support()


def _ring_or_random_alpha(n, density, seed):
    """The ring alpha for density None, else a random alpha with that share of positive entries."""
    if density is None:
        return ring_uniform_self(n).alpha
    mask_rng = np.random.default_rng(seed)
    alpha = np.where(mask_rng.random((n, n)) < density, mask_rng.uniform(0.1, 3.0, (n, n)), 0.0)
    alpha[np.arange(n), np.arange(n)] += 1.0  # every row needs a positive entry
    return alpha


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class TestDirichletDraw:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 40), density=st.sampled_from([None, 0.1, 0.5, 0.9]), seed=st.integers(0, 2**32 - 1))
    def test_zero_alpha_draws_nothing(self, n, density, seed):
        # a zero alpha entry draws no gamma and gives a structural zero: the draw equals
        # rng.gamma over the full alpha, normalized, and leaves the stream at the same point
        alpha = _ring_or_random_alpha(n, density, seed)
        state = DirichletRows(alpha).start_state(seed)
        full = np.random.default_rng(seed)
        for _ in range(5):
            g = full.gamma(alpha)
            assert state.next_array().tobytes() == (g / g.sum(axis=1, keepdims=True)).tobytes()
        assert state.rng.random() == full.random()

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 40), density=st.sampled_from([None, 0.1, 0.5, 1.0]), seed=st.integers(0, 2**32 - 1))
    def test_standard_gamma_is_unit_scale_gamma(self, n, density, seed):
        # rng.standard_gamma(alpha) equals rng.gamma(alpha) bitwise and leaves the stream
        # at the same point, so a block sampler may call the cheaper standard_gamma
        alpha = _ring_or_random_alpha(n, density, seed)
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(5):
            assert fast.standard_gamma(alpha).tobytes() == slow.gamma(alpha).tobytes()
        assert fast.random() == slow.random()


class TestRingUniformSelf:
    def test_phi_and_balance(self):
        ring = ring_uniform_self(5)
        assert ring.phi.tolist() == [2.0] * 5
        assert ring.balanced

    def test_balance_flag_is_iff(self):
        lopsided = np.ones((3, 3))
        lopsided[0, 1] = 2.0
        assert not DirichletRows(lopsided).balanced
        barely = np.ones((3, 3))
        barely[0, 1] += 5e-10  # inside the 1e-9 band
        assert DirichletRows(barely).balanced

    def test_n2_weights_uniform(self):
        ring = ring_uniform_self(2)
        state = ring.start_state(11)
        xs = [state.next_array()[0, 0] for _ in range(20_000)]
        assert np.mean(xs) == pytest.approx(0.5, abs=0.01)
        assert np.var(xs) == pytest.approx(1 / 12, rel=0.05)

    def test_sampled_skeleton_is_cyclic_bidiagonal(self):
        n = 6
        ring = ring_uniform_self(n)
        state = ring.start_state(2)
        expected = (np.eye(n, dtype=bool) | np.roll(np.eye(n, dtype=bool), 1, axis=1))
        for _ in range(10):
            assert np.array_equal(state.next_array() > 0, expected)


class TestLeaderFollower:
    def test_branches(self):
        spec = LeaderFollower(5)
        state = spec.start_state(9)
        eye = np.eye(5)
        shift = np.roll(np.eye(5), 1, axis=1)
        saw_hi = saw_lo = False
        for _ in range(200):
            x = state.next_array()
            lead = x[0, 0]
            assert x[0, 1] == pytest.approx(1 - lead)
            if lead >= 0.5:
                assert np.array_equal(x[1:], eye[1:])
                saw_hi = True
            else:
                assert np.array_equal(x[1:], shift[1:])
                saw_lo = True
        assert saw_hi and saw_lo

    @pytest.mark.parametrize("n, digest", [
        (2, "2ddbe436863eab147c41777f06158e58b45c0946bc50369a73e2bccfa9db0c90"),
        (3, "a6c51647e1d1b8a6f7f39a5899d16efe6682a53b289cc39c49f71605bacb4c35"),
        (5, "defe955704701d662541af09d4cba90bc73b383b3be25c387617a54ee086e457"),
        (8, "79361041c0fa26e95e7033a5660629a4562a9a7197cc7e5d35d111bfbab0de41"),
    ])
    def test_mean_skeletons_and_draws_are_pinned(self, n, digest):
        # SHA-256 over the mean, both skeleton masks and the first 50 draws at seed 2024,
        # recorded when the draw, the mean and the skeletons were built by three separate rules
        spec = LeaderFollower(n)
        state = spec.start_state(2024)
        arrays = [spec.mean_matrix().entries] + [m.mask for m in spec.support().skeletons]
        assert _digest(arrays + [state.next_array() for _ in range(50)]) == digest

    def test_rows_correlated_through_single_draw(self):
        spec = LeaderFollower(4)
        state = spec.start_state(13)
        for _ in range(200):
            x = state.next_array()
            if x[1, 1] == 1.0:  # follower kept their own belief
                assert x[0, 0] >= 0.5


class TestPerturbedFixed:
    def test_requires_strictly_positive(self):
        with pytest.raises(NotStrictlyPositive):
            PerturbedFixed(make_stochastic(np.eye(2)), 2.0)

    def test_influence_vector_of_t(self):
        t = make_stochastic([[0.7, 0.3], [0.4, 0.6]])
        spec = PerturbedFixed(t, 2.0)
        s = spec.s
        assert np.allclose(s @ t.entries, s, atol=1e-12)
        assert s.sum() == pytest.approx(1.0)

    def test_alpha_balance(self):
        t = make_stochastic([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]])
        spec = PerturbedFixed(t, 8.0)
        alpha = spec.alpha
        assert np.abs(alpha.sum(axis=0) - alpha.sum(axis=1)).max() < 1e-9

    def test_large_epsilon_concentrates_on_s(self):
        t = make_stochastic([[0.7, 0.3], [0.4, 0.6]])
        tight = PerturbedFixed(t, 400.0)
        loose = PerturbedFixed(t, 4.0)
        dev_tight = max(
            np.abs(tight.start_state(s).next_array() - t.entries).max() for s in range(50)
        )
        devs_loose = [np.abs(loose.start_state(s).next_array() - t.entries).max() for s in range(50)]
        assert dev_tight < np.mean(devs_loose)
        assert dev_tight < 0.2


class TestIslands:
    def test_no_cross_when_pd_zero(self):
        spec = Islands(3, 0.7, 0.0)
        state = spec.start_state(4)
        cross = slice(3, 6)
        for _ in range(200):
            x = state.next_array()
            assert x[:3, cross].sum() == 0.0
            assert x[cross, :3].sum() == 0.0

    def test_homophily_flag(self):
        assert Islands(2, 0.8, 0.3).homophily
        assert not Islands(2, 0.3, 0.8).homophily

    def test_invalid_probability(self):
        with pytest.raises(InvalidProbability):
            Islands(2, 1.2, 0.1)

    @pytest.mark.parametrize("g, p_s, p_d, atoms, digest", [
        (2, 0.8, 0.3, 20, "f54e68948da6f1cf99f4afe3418ea5ceedb0be6c006a8aa59a4860d2ab46e860"),
        (3, 0.8, 0.3, 490, "5a85ea7a021bf6f3852a2ee98613535aee017ae17b0486cb80410cc0937b0352"),
        (4, 0.7, 0.2, 24548, "1ba976af38c3f95d956519299e1c5b1238e23f504418a4cc9d58484664a88024"),
    ])
    def test_mean_and_support_are_pinned(self, g, p_s, p_d, atoms, digest):
        # SHA-256 over the mean, the support atoms and their skeletons, recorded when
        # the mean and the support enumerated the graph law separately
        spec = Islands(g, p_s, p_d)
        sup = spec.support()
        assert len(sup.atoms) == atoms
        arrays = [spec.mean_matrix().entries] + [a.entries for a in sup.atoms] + [m.mask for m in sup.skeletons]
        assert _digest(arrays) == digest

    def test_exact_fraction_parameters_give_the_float_law(self):
        exact = Islands(2, Fraction(4, 5), Fraction(3, 10))
        assert np.abs(exact.mean_matrix().entries - Islands(2, 0.8, 0.3).mean_matrix().entries).max() < 1e-15
        assert len(exact.support().atoms) == 20

    @pytest.mark.parametrize("g, digest", [
        (2, "cfcbc10dffa670c1f9c4277b437c1d6a6648d0fbe44dc50d970efac04216b7c8"),
        (3, "d8e05b53c86ff45eb9dfe1a07ab0434116796868a0dcee8866d28991cf2865b4"),
        (4, "d1714548162b06faab0dd331d30d890ddadc07dc0260fe954e7497391823d7c0"),
    ])
    def test_draws_are_pinned(self, g, digest):
        # SHA-256 over 300 draws at seed 11 and the stream's next uniform, recorded when
        # g = 2 trees and isolated agents each took a branch of their own
        state = Islands(g, 0.6, 0.4).start_state(11)
        arrays = [state.next_array() for _ in range(300)]
        assert _digest(arrays + [np.array(state.rng.random())]) == digest

    def test_row_weights_are_pinned(self):
        # 40 random graphs for each n = 1..9, 231 of the 360 with an isolated agent
        rng = np.random.default_rng(17)
        adjs = []
        for n in range(1, 10):
            for _ in range(40):
                upper = np.triu(rng.random((n, n)) < 0.3, 1)
                adjs.append(upper | upper.T)
        assert sum(bool((~a.any(axis=1)).any()) for a in adjs) == 231
        digest = "dd7a1e9df16e8093f67687a9befb1b846baeb67822424c8fff03ef5fee5dfc15"
        assert _digest([_graph_to_row_weights(a) for a in adjs]) == digest

    def test_rows_stochastic_with_isolated_agents(self):
        spec = Islands(2, 0.1, 0.1)  # isolation is common
        state = spec.start_state(5)
        for _ in range(200):
            x = state.next_array()
            assert np.abs(x.sum(axis=1) - 1.0).max() < 1e-12


class TestUndirectedDegreeValidation:
    def test_rejects_mismatched_degrees(self):
        from degrootnet import UndirectedDegree

        path = np.zeros((3, 3), dtype=bool)
        path[0, 1] = path[1, 0] = path[1, 2] = path[2, 1] = True
        tri = np.ones((3, 3), dtype=bool) ^ np.eye(3, dtype=bool)
        with pytest.raises(InvalidProbability):
            UndirectedDegree(graphs=(path, tri), probs=(0.5, 0.5))

    def test_rejects_disconnected(self):
        from degrootnet import UndirectedDegree

        two = np.zeros((4, 4), dtype=bool)
        two[0, 1] = two[1, 0] = two[2, 3] = two[3, 2] = True
        with pytest.raises(InvalidProbability):
            UndirectedDegree(graphs=(two,), probs=(1.0,))


class TestBernoulli2x2:
    def test_atom_probabilities(self):
        spec = bernoulli_2x2(0.5, 0.3, 0.6)
        probs = {tuple(np.round(a.entries[:, 0], 6)): p for a, p in zip(spec.atoms, spec.probs)}
        assert probs[(0.0, 0.0)] == pytest.approx(0.7 * 0.4)
        assert probs[(0.0, 0.5)] == pytest.approx(0.7 * 0.6)
        assert probs[(0.5, 0.0)] == pytest.approx(0.3 * 0.4)
        assert probs[(0.5, 0.5)] == pytest.approx(0.3 * 0.6)


class TestMarkovDependence:
    def test_rejects_nonstationary_probs(self):
        eye = make_stochastic(np.eye(2))
        swap = make_stochastic([[0, 1], [1, 0]])
        with pytest.raises(InvalidProbability):
            FiniteMixture(atoms=(eye, swap), probs=(0.9, 0.1),
                          transition=((0.5, 0.5), (0.5, 0.5)))

    def test_stationary_marginal_preserved(self):
        spec = encounter_2x2(0.3, 0.5, transition=((0.8, 0.2), (0.2, 0.8)))
        state = spec.start_state(21)
        meets = 0
        for _ in range(20_000):
            x = state.next_array()
            meets += x[0, 0] != 1.0
        assert meets / 20_000 == pytest.approx(0.5, abs=0.02)


# SHA-256 of the first 50 next_array draws after 0 and 3 warm-up draws, per
# block_models() spec at seeds 11 and 2**32 + 5, recorded when every spec
# still drew single matrices with a sampler of its own beside its block draw
PINNED_DRAWS = {
    ("ar1", 11): ("62a031dacd58146b14a71228e5645f54d6aaaabeeb38afd9d1f5e32616fa1831",
                 "5f762001aba619fc3535cf5817cf4f457832456ffc3a86d32ad27d2c3a4aa0d2"),
    ("ar1", 4294967301): ("8c4e9b871293b0dfc2426136131f589e490c819182f8f151c9dbf66b29bfb982",
                         "c83f5672a4e48deedbd92c07e9d8b6c99e2b5c2bd7b62800a976262d4f0d9aa1"),
    ("bernoulli2x2", 11): ("1284a0a500490b5d11f6e431433b1d468916ffef64b6122398504b2d93d4cf9f",
                          "e37d49c2e7b7de9c85794673fb42244bb23c0bd608f57a12a8d8a339422e0e76"),
    ("bernoulli2x2", 4294967301): ("9dce166e8564da4c1c20265877ec715e0f8d1f610964ffbef3876e80bd48909d",
                                  "88ce00e6a9e66a23378d7f4578ba40a2c04ecc011a205845c697a766d5ab758a"),
    ("dirichlet_dense", 11): ("fc962a8c5faacc0261bd171da70a9b2e3d664c1ee1f3a7845ddd07a2c6c99201",
                             "0dfbb12ad20c7b2d9bc83cd10b38357607a35205ed61c33da5a7b688a949cdd4"),
    ("dirichlet_dense", 4294967301): ("a3fa0fbf6ddbcbe1541066501172af26d42b7ef519743c7bbd14ca0e07d85408",
                                     "47ec92cf11b6e74796f5e568c00e64318d87ef875872436c45c177e51cd4c178"),
    ("dirichlet_ring", 11): ("80322d22d4bae83f58d04e376a62df53d01297a1b16f73c2e9d6b1027808ea1a",
                            "fed731423f0921ba9bd8d48467ac792b3f623cbc3da5ebfef5aa12c0a5337589"),
    ("dirichlet_ring", 4294967301): ("a2e67bc686391474e29e3d1a89887be7c006e41fa170c06c1cbf84a9f62ba98c",
                                    "99053cce1e9a46b293b565e423b5a574543d3bfda1a6bfdfddae71add2585199"),
    ("encounter2x2", 11): ("f35bcd75861a85eb85593f077394609ae9393da641b591f48c24024f23b583e9",
                          "a142f06af8aa0f6c2100a9d712df8d1bfe13eecddf3d7ef1f6b71e0fae8bef3f"),
    ("encounter2x2", 4294967301): ("1cfb99b9847cdcab37094acea28add466c00a4827d134c9574c1eed04cdc4d68",
                                  "3021fc79027972c5dc0ff21f3230f64e3c7774bb11219b544d4580680240567a"),
    ("fixed", 11): ("3a455e628a8cda68da4049dacb7ab8f43a8e8636628b8c55e199f1985ece3f20",
                   "3a455e628a8cda68da4049dacb7ab8f43a8e8636628b8c55e199f1985ece3f20"),
    ("fixed", 4294967301): ("3a455e628a8cda68da4049dacb7ab8f43a8e8636628b8c55e199f1985ece3f20",
                           "3a455e628a8cda68da4049dacb7ab8f43a8e8636628b8c55e199f1985ece3f20"),
    ("islands", 11): ("bcc8e268560f40edadfbd5c092f2313033cf12f70afb794dca479e794f5fb078",
                     "7e5e991ce6637d44f07f405411ecaf9bdec3e51f69740dc1ea1a50121fd9a57e"),
    ("islands", 4294967301): ("6de3fecf89f9ca60e942ca9e5e4c1433d5480d8d334607a25d2994428b84c9da",
                             "f0a53ae23cbe87779abf1d716d2d754647edba0449837d39d15c6af984f3459b"),
    ("leader_follower", 11): ("f6c8ddef11b309540af7856fc1f6b3c6da9242bb26de45748c3a27343d90e878",
                             "c1ddd5c29a3becf6676547015e9d064c4a0fc60729b2858092a11fdcc9a50fcd"),
    ("leader_follower", 4294967301): ("a876ccc094cdaf9e113f45b79492ee154f3f306417c18d52b184b0f0532d9489",
                                     "e84c84310d995b00a7e20a6d2fcb684e72e569f2a05aa578a01fd21c9ea9209e"),
    ("markov_encounter", 11): ("f35bcd75861a85eb85593f077394609ae9393da641b591f48c24024f23b583e9",
                              "a142f06af8aa0f6c2100a9d712df8d1bfe13eecddf3d7ef1f6b71e0fae8bef3f"),
    ("markov_encounter", 4294967301): ("1cfb99b9847cdcab37094acea28add466c00a4827d134c9574c1eed04cdc4d68",
                                      "3021fc79027972c5dc0ff21f3230f64e3c7774bb11219b544d4580680240567a"),
    ("mix_identity", 11): ("00b12a9cd785a034a1b8eac0cf195a651989ecb717fca21fd93c7c5cd307f7e3",
                          "164d94cae6b520da48b9d779078ba11c8e4ee6723b6f5bc9e4c11134213da59e"),
    ("mix_identity", 4294967301): ("c9b8f996f499a968096a74837e802382e049aecb83b4e60e7c98842a7c872885",
                                  "94567628d913de0e92346ebfbc707745dfedc867b54d08739a9f5bf24ead6f80"),
    ("perturbed", 11): ("469f239aa125821170a2dfe5a4b424fab30564dc7eff22ce0b4bf376f8e03e1f",
                       "4510980b41b3f120bb33d074028757a1cf1a8dfed7d80978cfe3c741bfed0040"),
    ("perturbed", 4294967301): ("3b16596478498c4f2f7718e77abc7bd88d8356035a4636786519055ee7ce9078",
                               "a888065a5efb1d8226066f9f77f17772758242fdf8bfb9c64100956f0c4c860d"),
    ("sticky_markov", 11): ("ddf8ee53537ed0254e8c7f6265ce084ef8af0d3c1355859de3377e16557191d7",
                           "cb736323ed36f1aa565240c81cd5f69bdf6306d4a85820ca19aba1a2a2291609"),
    ("sticky_markov", 4294967301): ("9c1cdb78e261ee0d142cb90c98802d84810aee652cc200a6803aec1b3631d6b3",
                                   "b50ddd6d47cc5d8035255fc59ba34f91783988c636ce2992312f5382272b947e"),
    ("two_point_swap", 11): ("608446c608629cc2a0b5ee53d21ba96882fecb23f7fe4b00c094bb96a29a37bb",
                            "a41e5c16f01ea987dea5f5fd24bd7e56f02c8b0566f83f56c14d60f291c54364"),
    ("two_point_swap", 4294967301): ("4607f09917572dacb3e35e2a7fa1760d425dc509e7d35cfec425a6bfe93bf8a9",
                                    "53515a07abf21e3f2f65779fb7c6b03b1c34f479540be39da1bd61adaa277153"),
    ("undirected_degree", 11): ("6ea39e22fe66e4f8bda727f7c5a0fc302910987ba3a59864d0e32239f68d069b",
                               "482e4a070c6543b1ffeefb30f5790b4ee2b6197adc694821a9e1d3a71dd29385"),
    ("undirected_degree", 4294967301): ("3ab47ab2f00d687a1720f1ee5c9ad338309c15b8f0972bdf42efb49f386bd87b",
                                       "3d753be7aa9e2caf3c79de0c56a6aabc1adc06903ef0fb35c63cfd067c8f94f4"),
}


class TestDrawBlock:
    @pytest.mark.parametrize("name, seed", sorted(PINNED_DRAWS))
    @pytest.mark.parametrize("warmup", [0, 3])
    def test_draws_are_pinned(self, name, seed, warmup):
        state = block_models()[name].start_state(seed)
        for _ in range(warmup):
            state.next_array()
        assert _digest([state.next_array() for _ in range(50)]) == PINNED_DRAWS[name, seed][warmup > 0]

    def test_pins_cover_every_block_model(self):
        assert {name for name, _seed in PINNED_DRAWS} == set(block_models())

    @settings(max_examples=80, deadline=None)
    @given(name=st.sampled_from(sorted(block_models())), k=st.sampled_from([1, 7, 64]),
           warmup=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
    def test_equals_sequential_draws_bitwise(self, name, k, warmup, seed):
        # the stream does not depend on the block size: one block of k is k blocks of one
        spec = block_models()[name]
        state, serial = spec.start_state(seed), spec.start_state(seed)
        for _ in range(warmup):  # a block may start mid-stream, with aux and last set
            state.next_array()
            serial.next_array()
        block = spec.draw_block(state, k)
        want = [serial.next_array() for _ in range(k)]
        assert block.shape == (k, spec.n, spec.n)
        for got, x in zip(block, want):
            assert got.tobytes() == x.tobytes()
        assert state.aux == serial.aux
        assert (state.last is None) == (serial.last is None)
        if state.last is not None:
            assert state.last.tobytes() == serial.last.tobytes()
        # the stream stops where k single draws leave it
        assert state.rng.random() == serial.rng.random()


class TestStationarityAndDeterminism:
    IID_NAMES = ["encounter2x2", "two_point_swap", "dirichlet_ring", "perturbed",
                 "leader_follower", "islands", "undirected_degree"]

    @pytest.mark.slow
    def test_iid_marginals_match_at_t1_and_t50(self):
        models = all_models()
        seeds = 5000
        for name in self.IID_NAMES:
            spec = models[name]
            diffs = []
            for s in range(seeds):
                state = spec.start_state(s)
                x1 = state.next_array().copy()
                for _ in range(48):
                    state.next_array()
                x50 = state.next_array()
                diffs.append(x1 - x50)
            diffs = np.asarray(diffs)
            mean_diff = np.abs(diffs.mean(axis=0))
            se = diffs.std(axis=0, ddof=1) / np.sqrt(seeds)
            assert (mean_diff <= 3.0 * se + 1e-12).all(), f"{name} drifted: {mean_diff.max()}"

    def test_bit_for_bit_determinism(self):
        for name, spec in all_models().items():
            a = spec.start_state(42)
            b = spec.start_state(42)
            for _ in range(30):
                assert np.array_equal(a.next_array(), b.next_array()), name

    def test_ar1_rows_stochastic_for_all_xi(self):
        t0 = make_stochastic([[0.9, 0.1], [0.2, 0.8]])
        for xi in [0.0, 0.25, 0.5, 0.75, 1.0]:
            spec = Ar1Mixture(xi, t0, ring_uniform_self(2))
            state = spec.start_state(17)
            for _ in range(50):
                x = state.next_array()
                assert (x >= 0).all()
                assert np.abs(x.sum(axis=1) - 1.0).max() < 1e-12


def readme_spec_documents():
    """The generator documents listed under README "Model specs (JSON)"."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        text = fh.read()
    block = text.split("### Model specs (JSON)", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    # each document starts a line with "{"; its continuation lines are indented
    return [json.loads("{" + doc) for doc in block.split("\n{")[1:]]


def floats(doc):
    """``doc`` with every number as a float, so 1 and 1.0 compare equal."""
    if isinstance(doc, dict):
        return {k: floats(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [floats(v) for v in doc]
    if isinstance(doc, (int, float)) and not isinstance(doc, bool):
        return float(doc)
    return doc


class TestSerialization:
    def test_readme_documents_cover_every_model(self):
        assert sorted(doc["model"] for doc in readme_spec_documents()) == sorted(_REGISTRY)

    @pytest.mark.parametrize("doc", readme_spec_documents(), ids=lambda doc: doc["model"])
    def test_readme_document_round_trips_and_runs(self, tmp_path, doc):
        assert floats(GeneratorSpec.from_dict(doc).to_dict()) == floats(doc)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        assert run(["check-c", "--spec", str(path), "--replicas", "20"]) == 0

    def test_round_trip_reproduces_streams(self):
        for name, spec in all_models().items():
            clone = GeneratorSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
            a = spec.start_state(5)
            b = clone.start_state(5)
            for _ in range(10):
                assert np.array_equal(a.next_array(), b.next_array()), name

    def test_fraction_probs_round_trip_through_json(self):
        third = Fraction(1, 3)
        markov = FiniteMixture(atoms=(flat(2), make_stochastic(np.eye(2))), probs=(third, 2 * third),
                               transition=((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 4), Fraction(3, 4))))
        graphs = _undirected_pair().graphs
        for spec in (markov, UndirectedDegree(graphs=graphs, probs=(third, 2 * third))):
            clone = GeneratorSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
            assert clone.probs == (1 / 3, 2 / 3)
            a, b = spec.start_state(5), clone.start_state(5)
            for _ in range(10):
                assert np.array_equal(a.next_array(), b.next_array())
        # float probs serialize to the same bytes as the probs themselves
        spec = encounter_2x2(0.3, 0.5, transition=((0.5, 0.5), (0.5, 0.5)))
        assert json.dumps(spec.to_dict()) == json.dumps(
            {"model": "finite_mixture", "atoms": [a.entries.tolist() for a in spec.atoms],
             "probs": list(spec.probs), "transition": [list(row) for row in spec.transition]})

    def test_unknown_model_rejected(self):
        with pytest.raises(Unsupported):
            GeneratorSpec.from_dict({"model": "nope"})
