import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from degrootnet import (
    Graph,
    GraphDistribution,
    bernoulli_edge_p_max,
    decay_rate_estimate,
    islands_distribution,
    lazy_metropolis,
    metropolis_mixture,
    p_max,
    p_max_by_cuts,
)
from degrootnet.engine import CHUNK
from degrootnet.errors import InsufficientEvents, InvalidProbability, SizeLimit, Unsupported
from degrootnet.fragmentation import _by_cuts, _by_subsets
from degrootnet.generators import DirichletRows, FiniteMixture, Fixed, ring_uniform_self
from degrootnet.matrices import _connected, make_stochastic
from test_matrices import svd_sizes


def graph(n, edges):
    return Graph.from_edges(n, edges)


K4 = graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
TWO_EDGES = graph(4, [(0, 1), (2, 3)])
C4 = graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
K33 = graph(6, [(u, v + 3) for u in range(3) for v in range(3)])
CIRC8 = graph(8, [(i, (i + 1) % 8) for i in range(8)] + [(i, (i + 2) % 8) for i in range(8)])
CIRC20 = graph(20, [(i, (i + 1) % 20) for i in range(20)] + [(i, (i + 2) % 20) for i in range(20)])


def brute_p_max(dist):
    """Oracle: plain subset enumeration, no pruning."""
    best = None
    for r in range(1, len(dist.atoms) + 1):
        for combo in itertools.combinations(dist.atoms, r):
            if not _connected(np.logical_or.reduce([g.adjacency for g, _p in combo])):
                total = sum(p for _g, p in combo)
                if best is None or float(total) > float(best):
                    best = total
    return best


def edge_scan_by_cuts(dist):
    """Oracle: p_max, its collection and its cut, testing every edge of every atom against every cut.

    The cuts are the sides S that hold vertex 0, in the order of the binary number whose bit v says
    whether vertex v + 1 is in S; the first cut of the largest total wins.
    """
    best_p, best = dist.atoms[0][1] * 0, None
    for bits in itertools.product((False, True), repeat=dist.n - 1):
        members = {0} | {v + 1 for v, bit in enumerate(reversed(bits)) if bit}
        if len(members) == dist.n:
            continue
        kept = [k for k, (g, _p) in enumerate(dist.atoms)
                if not any((u in members) != (v in members) for u, v in g.edges())]
        total = dist.atoms[0][1] * 0
        for k in kept:
            total = total + dist.atoms[k][1]
        if kept and float(total) > float(best_p):
            best_p, best = total, (tuple(sorted(members)), tuple(dist.atoms[k][0] for k in kept))
    return best_p, best


class TestGraphBasics:
    def test_graph_validation(self):
        with pytest.raises(InvalidProbability):
            Graph([[0, 1], [0, 0]])  # asymmetric
        with pytest.raises(InvalidProbability):
            Graph([[1, 0], [0, 0]])  # self loop

    def test_islands_union_without_cross_is_disconnected(self):
        dist = islands_distribution(2, Fraction(3, 4), Fraction(1, 4))
        no_cross = [g for g, _p in dist.atoms
                    if not any(u < 2 <= v for u, v in g.edges())]
        assert not _connected(np.logical_or.reduce([g.adjacency for g in no_cross]))

    def test_connectivity(self):
        assert _connected(K4.adjacency)
        assert not _connected(graph(3, []).adjacency)
        assert _connected(graph(4, [(0, 1), (1, 2), (2, 3)]).adjacency)


class TestPMax:
    def test_single_connected_atom_empty_pi(self):
        rep = p_max(GraphDistribution(atoms=((K4, 1.0),)))
        assert rep.pi_g_empty
        assert rep.predicted_rate == math.inf
        assert rep.p_max == 0.0

    def test_two_atom_model(self):
        dist = GraphDistribution(atoms=((K4, 0.7), (TWO_EDGES, 0.3)))
        rep = p_max(dist)
        assert rep.p_max == pytest.approx(0.3)
        assert rep.argmax_collection == (TWO_EDGES,)
        assert rep.predicted_rate == pytest.approx(abs(math.log(0.3)))

    def test_size_limit(self):
        # 490 atoms are past the subset limit, but n = 6 has only 32 cuts
        dist = islands_distribution(3, 0.5, 0.5)
        assert len(dist.atoms) > 20
        assert p_max(dist).p_max == pytest.approx(0.5)
        # n = 17 is past the cut limit: 20 atoms still go through the subset search
        connected = ([graph(17, [(c, v) for v in range(17) if v != c]) for c in range(17)]
                     + [graph(17, [(i, (i + s) % 17) for i in range(17)]) for s in range(1, 5)])
        assert p_max(GraphDistribution(atoms=tuple((g, 1 / 20) for g in connected[:20]))).pi_g_empty
        with pytest.raises(SizeLimit):
            p_max(GraphDistribution(atoms=tuple((g, 1 / 21) for g in connected)))

    def test_pruning_soundness_random_cases(self):
        rng = np.random.default_rng(31)
        for _case in range(60):
            n = int(rng.integers(3, 6))
            n_atoms = int(rng.integers(1, 9))
            atoms = []
            seen = set()
            for _ in range(n_atoms):
                adj = np.triu((rng.random((n, n)) < 0.35), 1)
                g = Graph(adj | adj.T)
                if g not in seen:
                    seen.add(g)
                    atoms.append(g)
            raw = rng.random(len(atoms)) + 0.05
            probs = raw / raw.sum()
            dist = GraphDistribution(atoms=tuple(zip(atoms, probs)))
            pruned = _by_subsets(dist)
            oracle = brute_p_max(dist)
            if oracle is None:
                assert pruned.pi_g_empty
            else:
                assert pruned.p_max == pytest.approx(oracle, abs=1e-12)
            cuts = p_max_by_cuts(dist)
            assert cuts.pi_g_empty == pruned.pi_g_empty
            if not pruned.pi_g_empty:
                assert float(cuts.p_max) == pytest.approx(float(pruned.p_max), abs=1e-12)

    def test_cut_scan_is_the_edge_by_edge_scan(self):
        # exact equality: the kept atoms are summed in atom order, floats and Fractions alike
        rng = np.random.default_rng(33)
        dists = [islands_distribution(2, Fraction(4, 5), Fraction(3, 10)), islands_distribution(3, 0.8, 0.3)]
        for _case in range(40):
            n = int(rng.integers(2, 8))
            upper = np.triu(rng.random((int(rng.integers(1, 12)), n, n)) < 0.3, 1)
            atoms = list({Graph(a | a.T): None for a in upper})
            probs = rng.random(len(atoms)) + 0.05
            dists.append(GraphDistribution(atoms=tuple(zip(atoms, (probs / probs.sum()).tolist()))))
        for dist in dists:
            got = _by_cuts(dist)
            best_p, best = edge_scan_by_cuts(dist)
            if best is None:
                assert got.pi_g_empty
            else:
                assert (got.p_max, got.argmax_cut, got.argmax_collection) == (best_p, *best)

    def test_monotone_in_added_connected_atom(self):
        rng = np.random.default_rng(32)
        for _case in range(30):
            n = 4
            atoms = []
            seen = set()
            for _ in range(int(rng.integers(1, 6))):
                adj = np.triu((rng.random((n, n)) < 0.4), 1)
                g = Graph(adj | adj.T)
                if g not in seen and g != K4:
                    seen.add(g)
                    atoms.append(g)
            if not atoms:
                continue
            raw = rng.random(len(atoms)) + 0.05
            probs = raw / raw.sum()
            base = p_max(GraphDistribution(atoms=tuple(zip(atoms, probs))))
            lam = 0.3
            grown = GraphDistribution(
                atoms=tuple(zip(atoms, probs * (1 - lam))) + ((K4, lam),)
            )
            assert float(p_max(grown).p_max) <= float(base.p_max) + 1e-12


class TestIslandsClosedForm:
    def test_fifty_random_parameterizations_exact(self):
        rng = np.random.default_rng(33)
        for _case in range(50):
            g = int(rng.integers(2, 4))
            p_d = Fraction(int(rng.integers(1, 99)), 100)
            p_s = Fraction(int(rng.integers(int(p_d * 100), 100)), 100)  # homophily: p_s >= p_d
            dist = islands_distribution(g, p_s, p_d)
            rep = p_max(dist)
            assert rep.p_max == 1 - p_d  # exact rational equality

    def test_pd_zero_never_connects(self):
        dist = islands_distribution(2, Fraction(1, 2), Fraction(0))
        rep = p_max(dist)
        assert rep.p_max == 1
        assert rep.predicted_rate == 0.0

    def test_homophily_direction(self):
        values = []
        for pd in [Fraction(1, 10), Fraction(3, 10), Fraction(5, 10)]:
            rep = p_max(islands_distribution(2, Fraction(7, 10), pd))
            values.append(rep.p_max)
        assert values[0] > values[1] > values[2]


class TestRegularGraphs:
    def test_cycle_k2_exact_including_atoms(self):
        p = Fraction(3, 10)
        rep = bernoulli_edge_p_max(C4, p)
        assert rep.p_max == (1 - p) ** 2
        # cross-check by materializing all 16 subgraphs as explicit atoms
        edges = C4.edges()
        atoms = []
        for keep in itertools.product((False, True), repeat=len(edges)):
            sub = graph(4, [e for e, k in zip(edges, keep) if k])
            prob = math.prod(p if k else 1 - p for k in keep)
            atoms.append((sub, prob))
        rep2 = p_max(GraphDistribution(atoms=tuple(atoms)))
        assert rep2.p_max == (1 - p) ** 2

    def test_k33_and_circulant(self):
        p = Fraction(1, 4)
        assert bernoulli_edge_p_max(K33, p).p_max == (1 - p) ** 3
        assert bernoulli_edge_p_max(CIRC8, p).p_max == (1 - p) ** 4

    def test_circulant_on_twenty_vertices_exact(self):
        # C20(1, 2) is 4-regular with edge connectivity 4; a single vertex is the first cut of 4 edges
        rep = bernoulli_edge_p_max(CIRC20, Fraction(3, 10))
        assert rep.p_max == Fraction(7, 10) ** 4
        assert rep.argmax_cut == (0,)

    def test_single_vertex_never_fragments(self):
        rep = bernoulli_edge_p_max(graph(1, []), 0.5)
        assert (rep.p_max, rep.pi_g_empty, rep.predicted_rate) == (0.0, True, math.inf)


class TestMetropolis:
    def test_lazy_weights_shape(self):
        m = lazy_metropolis(K4)
        e = m.entries
        assert np.allclose(e, e.T)
        assert (np.diag(e) >= 0.5 - 1e-12).all()
        assert np.allclose(e.sum(axis=1), 1.0)
        # K4 off-diagonals are (1/2)/3
        assert e[0, 1] == pytest.approx(1 / 6)

    def test_isolated_vertex_keeps_self_weight(self):
        m = lazy_metropolis(TWO_EDGES)
        assert m.entries[0, 0] == pytest.approx(0.5)
        g = graph(3, [(0, 1)])
        m = lazy_metropolis(g)
        assert m.entries[2, 2] == 1.0

    def test_mixture_merges_duplicate_matrices(self):
        dist = GraphDistribution(atoms=((K4, 0.25), (TWO_EDGES, 0.75)))
        spec = metropolis_mixture(dist)
        assert len(spec.atoms) == 2
        assert spec.probs == (0.25, 0.75)


class TestDecayRate:
    def two_atom_spec(self, q):
        dist = GraphDistribution(atoms=((K4, 1.0 - q), (TWO_EDGES, q)))
        return metropolis_mixture(dist)

    def test_rate_matches_log_pmax(self):
        q = 0.3
        spec = self.two_atom_spec(q)
        rep = decay_rate_estimate(spec, epsilon=0.5, t_grid=range(1, 41),
                                  replicas=20000, seed=41)
        assert rep.empirical_rate == pytest.approx(abs(math.log(q)), rel=0.3)

    def test_memory_does_not_grow_by_a_product_per_replica(self):
        # A kept (4, 4) product is 128 B per replica, first blocks drawn for the whole run at once
        # over 96 B (seed words and uniforms); the stop array is 8 B.
        import tracemalloc

        spec = self.two_atom_spec(0.3)
        peaks = []
        tracemalloc.start()
        try:
            for replicas in (20000, 40000):
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                decay_rate_estimate(spec, epsilon=0.5, t_grid=range(1, 41), replicas=replicas, seed=1010)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert peaks[1] - peaks[0] < 32 * 20000, peaks

    def test_always_connected_reports_infinite_rate(self):
        spec = metropolis_mixture(GraphDistribution(atoms=((K4, 1.0),)))
        rep = decay_rate_estimate(spec, epsilon=0.5, t_grid=range(1, 11),
                                  replicas=500, seed=42)
        assert rep.empirical_rate == math.inf
        assert all(c == 0 for c in rep.counts)

    def test_one_svd_per_distinct_product(self):
        # the K4 control: all 4000 replicas hold the same product, and all cross at t = 1,
        # so each chunk hands the SVD one matrix
        spec = metropolis_mixture(GraphDistribution(atoms=((K4, 1.0),)))
        with svd_sizes() as sizes:
            rep = decay_rate_estimate(spec, epsilon=0.5, t_grid=range(1, 11), replicas=4000, seed=42)
        assert rep.empirical_rate == math.inf
        assert 0 < sum(sizes) <= math.ceil(4000 / CHUNK)

    def test_full_epsilon_counts_nonincreasing(self):
        spec = self.two_atom_spec(0.5)
        rep = decay_rate_estimate(spec, epsilon=1.0, t_grid=[1, 2, 4, 8],
                                  replicas=2000, seed=43)
        counts = list(rep.counts)
        assert counts == sorted(counts, reverse=True)
        assert all(c <= 2000 for c in counts)

    def test_insufficient_events(self):
        spec = self.two_atom_spec(0.5)
        with pytest.raises(InsufficientEvents):
            decay_rate_estimate(spec, epsilon=0.5, t_grid=[1, 2], replicas=25, seed=44)

    def test_rejects_asymmetric_support(self):
        from degrootnet.errors import Unsupported

        asym = Fixed(make_stochastic([[0.9, 0.1], [0.4, 0.6]]))
        with pytest.raises(Unsupported):
            decay_rate_estimate(asym, epsilon=0.5, t_grid=[1, 2], replicas=10, seed=0)

    def test_rejects_an_atom_asymmetric_by_less_than_a_relative_tolerance(self):
        # entries 4e-7 apart: np.allclose's default rtol of 1e-5 would call the atom symmetric
        near = make_stochastic([[0.5, 0.5], [0.5000004, 0.4999996]])
        spec = FiniteMixture(atoms=(near, make_stochastic(np.eye(2))), probs=(0.5, 0.5))
        with pytest.raises(Unsupported, match="symmetric with positive diagonals"):
            decay_rate_estimate(spec, epsilon=0.5, t_grid=range(1, 5), replicas=200)

    @pytest.mark.parametrize("spec", [ring_uniform_self(3), DirichletRows(np.ones((1, 1)))], ids=["ring3", "n1"])
    def test_rejects_a_support_that_is_not_finite(self, spec):
        with pytest.raises(Unsupported, match="symmetric with positive diagonals"):
            decay_rate_estimate(spec, epsilon=0.5, t_grid=range(1, 5), replicas=20)


class TestSerialization:
    def test_distribution_round_trip(self):
        dist = GraphDistribution(atoms=((K4, 0.7), (TWO_EDGES, 0.3)))
        doc = dist.to_dict()
        clone = GraphDistribution.from_dict(doc)
        assert clone.atoms[0][0] == K4
        assert clone.atoms[1][0] == TWO_EDGES
        assert clone.atoms[0][1] == pytest.approx(0.7)

    def test_report_to_dict_keys(self):
        rep = p_max(GraphDistribution(atoms=((K4, 0.7), (TWO_EDGES, 0.3))))
        doc = rep.to_dict()
        assert set(doc) >= {"p_max", "pi_g_empty", "predicted_rate", "argmax_collection"}
