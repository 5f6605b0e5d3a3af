"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; the Monte Carlo runs use fixed master
seeds so the suite is deterministic.  Run with `pytest tests/test_acceptance.py -s`
to see the per-criterion lines.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import degrootnet as dn
from degrootnet.engine import FAILS, _scan_replicas
from degrootnet.fragmentation import (
    Graph,
    GraphDistribution,
    bernoulli_edge_p_max,
    decay_rate_estimate,
    islands_distribution,
    metropolis_mixture,
    p_max,
)


def report(num, desc, checks):
    """checks: list of (label, bool). Prints one line and asserts all."""
    ok = all(flag for _label, flag in checks)
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {desc}"
    print(line)
    failed = [label for label, flag in checks if not flag]
    assert ok, f"criterion {num}: failed checks: {failed}"


def flat(n):
    return dn.make_stochastic(np.full((n, n), 1.0 / n))


def h_matrix(kappa):
    return dn.make_stochastic([[0, 0, 1], [0, 0, 1], [kappa, 1 - kappa, 0]])


G_PERM = dn.make_stochastic([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
K4 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
TWO_EDGES = Graph.from_edges(4, [(0, 1), (2, 3)])


def test_c01_bistochastic_consensus():
    spec = dn.encounter_2x2(0.1, 0.5)
    est = dn.estimate_influence(spec, replicas=2000, t_max=500, gap_tol=1e-8, seed=1001)
    worst = max(np.abs(np.asarray(s) - 0.5).max() for s in est.samples)
    report(1, "bistochastic encounter: every pi sample = (1/2, 1/2)", [
        ("consensus fraction = 1", est.failures == 0 and len(est.samples) == 2000),
        ("every sample within 1e-6 of (0.5, 0.5)", worst <= 1e-6),
    ])


def test_c02_dirichlet_conjugacy_beta22():
    spec = dn.DirichletRows(np.ones((2, 2)))
    est = dn.estimate_influence(spec, replicas=20000, t_max=300, gap_tol=1e-8, seed=1002)
    # False-fail probability under Beta(2,2) (normal approximation, 20000 replicas):
    # mean gate 0.01 = 6.3 SE, P = 2.5e-10; variance gate (kurtosis 15/7) = 13.2 SE, P = 6e-40.
    report(2, "uniform self-weights: pi_1 is Beta(2,2)", [
        ("mean within 0.01 of 0.5", abs(est.mean[0] - 0.5) <= 0.01),
        ("variance within 10% of 0.05", abs(est.variance[0] - 0.05) <= 0.1 * 0.05),
    ])


@pytest.mark.slow
def test_c03_ring_wisdom():
    target_var = 16.0 / 1100.0
    # False-fail probability under Dirichlet(2,...,2), whose marginals are Beta(2,8)
    # (normal approximation, 20000 replicas, union bound over the 5 components):
    # mean gates 0.01 = 11.7 SE, P = 5e-31; variance gates (kurtosis 3.49) = 13.4 SE, P = 2e-40.
    est5 = dn.estimate_influence(dn.ring_uniform_self(5), replicas=20000, t_max=2000,
                                 gap_tol=1e-8, seed=1003)
    checks = [
        (f"pi_{i+1} mean within 0.01 of 0.2", abs(est5.mean[i] - 0.2) <= 0.01)
        for i in range(5)
    ]
    checks += [
        (f"pi_{i+1} variance within 15% of 16/1100", abs(est5.variance[i] - target_var) <= 0.15 * target_var)
        for i in range(5)
    ]
    # E[max pi] across growing rings; replica counts shrink with n to keep
    # the full suite inside the runtime budget (separations are >> 3 SE: under
    # Dirichlet(2,...,2) the smallest, n = 20 to 40, is 43 SE)
    e_max = {5: est5.max_component_mean}
    for n, replicas in [(10, 1200), (20, 700), (40, 450)]:
        est = dn.estimate_influence(dn.ring_uniform_self(n), replicas=replicas,
                                    t_max=30000, gap_tol=1e-6, seed=1003 + n)
        e_max[n] = est.max_component_mean
    seq = [e_max[n] for n in (5, 10, 20, 40)]
    checks.append(("E[max pi] strictly decreasing over n in {5,10,20,40}",
                   all(a > b for a, b in zip(seq, seq[1:]))))
    report(3, "ring wisdom: Dirichlet(2,...,2) moments and shrinking max influence", checks)


def test_c04_one_sided_listening_limit():
    random_spec = dn.DirichletRows(np.array([[1.0, 1.0], [0.0, 1.0]]))
    fixed_spec = dn.Fixed(dn.make_stochastic([[0.5, 0.5], [0.0, 1.0]]))
    limit = np.array([[0.0, 1.0], [0.0, 1.0]])
    worst = 0.0
    for i in range(1000):
        acc = dn.accumulate(random_spec.start_state(20000 + i), 100, gap_tol=0.0)
        worst = max(worst, float(np.abs(acc.product.entries - limit).max()))
    acc_fixed = dn.accumulate(fixed_spec.start_state(0), 100, gap_tol=0.0)
    worst_fixed = float(np.abs(acc_fixed.product.entries - limit).max())
    eq = dn.skeleton_equivalence_test(random_spec, fixed_spec, horizon=32, replicas=100, seed=1004)
    report(4, "one-sided listening pair: common limit (0 1; 0 1), matching verdicts", [
        ("every random product within 1e-6 of the limit", worst <= 1e-6),
        ("fixed product within 1e-6 of the limit", worst_fixed <= 1e-6),
        ("same initial skeleton", eq.same_initial_skeleton),
        ("both fail strict positivity", eq.verdict_a.verdict == FAILS and eq.verdict_b.verdict == FAILS),
        ("verdicts agree", eq.agree),
    ])


def test_c05_convergence_time_uniform():
    phi = 1e-6
    res = dn.convergence_time_2x2(dn.DirichletRows(np.ones((2, 2))), phi=phi,
                                  replicas=2000, seed=1005)
    ratio = res.mean_t_phi * 1.5 / (-math.log(phi))
    # False-fail probability under the exact law (normal approximation, 2000 replicas):
    # t_phi + 1 is the first passage of sum -log|x - y|, x, y iid uniform (mean 3/2,
    # variance 5/4), over -log phi. By lattice convolution E[t_phi] = 8.99 and
    # Var[t_phi] = 5.14 (the renewal approximation agrees within 0.03), so the ratio has mean
    # 0.976 and SE 0.0055: the gate ends are 22.9 and 31.6 SE away, P = 6e-116.
    report(5, "two-agent convergence time matches the 1/I law (I = 3/2)", [
        (f"E[t_phi] * I / (-log phi) = {ratio:.4f} in [0.85, 1.15]", 0.85 <= ratio <= 1.15),
    ])


def test_c06_arcsine_slowest():
    phi = 1e-6
    energies = {}
    means = {}
    for label, a in [("arcsine", 0.5), ("uniform", 1.0), ("beta22", 2.0), ("beta55", 5.0)]:
        energies[label] = dn.log_energy(dn.BetaMarginalPair(a, a))
        spec = dn.DirichletRows(np.full((2, 2), a))
        means[label] = dn.convergence_time_2x2(spec, phi=phi, replicas=2000,
                                               seed=1006 + int(10 * a)).mean_t_phi
    order = ["arcsine", "uniform", "beta22", "beta55"]
    e_seq = [energies[k] for k in order]
    t_seq = [means[k] for k in order]
    # The energies are quadratures with no sampling error. False-fail probability of the
    # t_phi order under the exact laws (normal approximation, 2000 replicas per law, the
    # first passage of C05 with x, y iid Beta(a, a)): E[t_phi] = 9.89 / 8.99 / 7.59 / 6.03
    # and Var[t_phi] = 8.6 / 5.1 / 3.1 / 1.7 along the order, so the adjacent gaps are
    # 10.9 / 21.8 / 31.9 SE; union P = 5e-28.
    report(6, "arcsine weights contract slowest (smallest energy, largest t_phi)", [
        ("I(arcsine) = log 4 within 1e-3", abs(energies["arcsine"] - math.log(4.0)) <= 1e-3),
        ("I ordering arcsine < uniform < Beta(2,2) < Beta(5,5)",
         all(a < b for a, b in zip(e_seq, e_seq[1:]))),
        ("mean t_phi strictly decreasing along the same order",
         all(a > b for a, b in zip(t_seq, t_seq[1:]))),
    ])


@pytest.mark.slow
def test_c07_disagreement_masses():
    kappa, r = 0.3, 0.5
    spec = dn.FiniteMixture(atoms=(h_matrix(kappa), G_PERM), probs=(r, 1 - r))
    rep = dn.disagreement_degree(spec, replicas=20000, t_max=200, seed=1007)
    freqs = {"h03": 0.0, "h07": 0.0}
    for m, f in rep.support_atoms or ():
        if np.abs(m.entries - h_matrix(0.3).entries).max() < 1e-6:
            freqs["h03"] = f
        elif np.abs(m.entries - h_matrix(0.7).entries).max() < 1e-6:
            freqs["h07"] = f
    # False-fail probability (normal approximation): each frequency is Binomial(20000, p)
    # over 20000, so the 0.02 gates are 6.0 SE at p = 1/3 and 7.6 SE at p = 1/6,
    # P = 2.0e-9 and 3.2e-14. Every product holding an h atom has rank 2, so the rank
    # gate fails only if over 1% of replicas draw no h in 200 steps (2^-200 each).
    report(7, "stubborn-agent mixture: limit masses 1/3 and 1/6, second-degree disagreement", [
        ("freq(h_0.3) within 0.02 of 1/3", abs(freqs["h03"] - 1 / 3) <= 0.02),
        ("freq(h_0.7) within 0.02 of 1/6", abs(freqs["h07"] - 1 / 6) <= 0.02),
        ("rank 2 in at least 99% of replicas", rep.rank_histogram.get(2, 0.0) >= 0.99),
    ])


@pytest.mark.slow
def test_c08_two_point_disagreement():
    spec = dn.two_point_swap(0.4)
    rep = dn.disagreement_degree(spec, replicas=20000, t_max=101, seed=1008)
    masses = {"eye": 0.0, "swap": 0.0}
    for m, f in rep.support_atoms or ():
        if np.abs(m.entries - np.eye(2)).max() < 1e-6:
            masses["eye"] = f
        elif np.abs(m.entries - np.array([[0.0, 1.0], [1.0, 0.0]])).max() < 1e-6:
            masses["swap"] = f
    mr = dn.mean_rank_one_test(spec, replicas=20000, t_max=101, seed=1008,
                               allow_no_positive=True)
    # False-fail probability (normal approximation): the product is the swap to the power
    # Binomial(101, 0.6), so the identity frequency f is Binomial(20000, 1/2 - 1.3e-71)
    # over 20000, SE 0.0035, and the mean limit is ((f, 1-f), (1-f, f)). Every gate reads
    # |f - 1/2| on the same replicas: the mass gates 0.02 = 5.66 SE, P = 1.5e-8; the rank
    # gate (rank 1 iff |2f - 1| <= 4/sqrt(20000)) 4.0 SE, P = 6.3e-5; the mean gate
    # 0.01 = 2.83 SE, P = 4.7e-3, the largest of any gate here. It is stated, not loosened.
    report(8, "two-point swap: equal limit masses, flat rank-one average", [
        ("mass on identity within 0.02 of 0.5", abs(masses["eye"] - 0.5) <= 0.02),
        ("mass on swap within 0.02 of 0.5", abs(masses["swap"] - 0.5) <= 0.02),
        ("mean limit within 0.01 of the flat matrix",
         float(np.abs(mr["mean_limit"].entries - 0.5).max()) <= 0.01),
        ("numeric rank of the mean = 1", mr["rank"] == 1),
    ])


def test_c09_p_max_closed_forms():
    rng = np.random.default_rng(1009)
    islands_ok = True
    for _case in range(50):
        g = int(rng.integers(2, 4))
        p_d = Fraction(int(rng.integers(1, 99)), 100)
        p_s = Fraction(int(rng.integers(int(p_d * 100), 100)), 100)
        dist = islands_distribution(g, p_s, p_d)
        rep = p_max(dist)
        islands_ok &= rep.p_max == 1 - p_d
    p = Fraction(3, 10)
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    k33 = Graph.from_edges(6, [(u, v + 3) for u in range(3) for v in range(3)])
    circ8 = Graph.from_edges(8, [(i, (i + 1) % 8) for i in range(8)]
                             + [(i, (i + 2) % 8) for i in range(8)])
    regular_ok = (
        bernoulli_edge_p_max(c4, p).p_max == (1 - p) ** 2
        and bernoulli_edge_p_max(k33, p).p_max == (1 - p) ** 3
        and bernoulli_edge_p_max(circ8, p).p_max == (1 - p) ** 4
    )
    # k = 2 cross-checked against the explicit 16-atom enumeration
    edges = c4.edges()
    atoms = []
    for keep in itertools.product((False, True), repeat=len(edges)):
        sub = Graph.from_edges(4, [e for e, k in zip(edges, keep) if k])
        prob = math.prod(p if k else 1 - p for k in keep)
        atoms.append((sub, prob))
    atom_ok = p_max(GraphDistribution(atoms=tuple(atoms))).p_max == (1 - p) ** 2
    report(9, "fragmentation closed forms: islands 1 - p_d, regular graphs (1-p)^k", [
        ("islands enumeration exact for 50 random parameterizations", islands_ok),
        ("regular-graph enumeration exact for k in {2,3,4}", regular_ok),
        ("k = 2 exact on the explicit atom list", atom_ok),
    ])


@pytest.mark.slow
def test_c10_decay_rate():
    q = 0.3
    spec = metropolis_mixture(GraphDistribution(atoms=((K4, 1 - q), (TWO_EDGES, q))))
    rep = decay_rate_estimate(spec, epsilon=0.5, t_grid=range(1, 41),
                              replicas=200000, seed=1010)
    target = abs(math.log(q))
    # False-fail probability: the lazy-Metropolis K4 atom is (1/3)I + (2/3)J, so
    # ||X^(t) - J|| >= 0.5 exactly while every draw so far was the two-edge atom.
    # The exceedance counts are the thinning chain N_t ~ Binomial(N_{t-1}, 0.3)
    # from N_0 = 200000, with no finite-t bias.  Over 200000 simulated chains the
    # fitted rate had mean 1.2041 (target 1.2040) and SD 0.0233, so the 30% gate
    # is 15.5 SD away (normal tail below 1e-50).  The +inf control is
    # deterministic: ||X^(1) - J|| = 1/3 < 0.5 in every replica.
    control = metropolis_mixture(GraphDistribution(atoms=((K4, 1.0),)))
    rep_inf = decay_rate_estimate(control, epsilon=0.5, t_grid=range(1, 41),
                                  replicas=200000, seed=1011)
    report(10, "gap-tail decay rate |log p_max|, and the always-connected +inf marker", [
        (f"empirical rate {rep.empirical_rate:.4f} within 30% of |log 0.3|",
         abs(rep.empirical_rate - target) <= 0.3 * target),
        ("always-connected control reports +inf", rep_inf.empirical_rate == math.inf),
    ])


def test_c11_consensus_probability_formula():
    exact_ok = True
    for n in range(2, 11):
        phi = Fraction(1, n)
        lhs = sum(
            math.comb(2, j) * (1 - phi) ** j * phi ** (2 - j) for j in range(2)
        )
        exact_ok &= lhs == (2 - Fraction(1, n)) * Fraction(1, n)
        float_ok = abs(dn.consensus_probability(2, 1.0 / n) - (2 - 1.0 / n) / n) <= 2.5e-16
        exact_ok &= float_ok
    rng = np.random.default_rng(1012)
    identity_ok = True
    for _ in range(300):
        k = int(rng.integers(1, 12))
        phi = float(rng.random())
        identity_ok &= abs(dn.consensus_probability(k, phi) - (1 - (1 - phi) ** k)) <= 1e-12
    report(11, "consensus probability: (2 - 1/n)/n values and the binomial identity", [
        ("k=2 closed form exact for n in 2..10", exact_ok),
        ("sum form equals 1 - (1-phi)^k within 1e-12", identity_ok),
    ])


@pytest.mark.slow
def test_c12_perturbation_variance():
    checks = []
    for eps in (2.0, 8.0, 32.0):
        spec = dn.PerturbedFixed(flat(2), eps)
        est = dn.estimate_influence(spec, replicas=20000, t_max=500, gap_tol=1e-8,
                                    seed=1013 + int(eps))
        target = 0.25 / (eps + 1.0)
        # False-fail probability under pi_1 ~ Beta(eps/2, eps/2), kurtosis 3 - 6/(eps+3)
        # (normal approximation, 20000 replicas): the 10% variance gate is 15.8 / 11.7 / 10.5 SE
        # at eps = 2 / 8 / 32, P = 3e-56 / 9e-32 / 1.3e-25; union over the three, 1.3e-25.
        checks.append((f"eps={eps:g}: var(pi_1) within 10% of {target:.6f}",
                       abs(est.variance[0] - target) <= 0.1 * target))
    report(12, "perturbed fixed network: var(pi_i) = s_i(1-s_i)/(eps+1)", checks)


def test_c13_ar1_interpolation():
    n = 6
    t0 = dn.make_stochastic(0.95 * np.eye(n) + 0.05 * np.roll(np.eye(n), 1, axis=1))
    source = dn.ring_uniform_self(n)
    # No closed-form law; measured margins at these seeds.  The xi = 0 arm is
    # deterministic (the fixed T0 reaches the gap in 739 steps in every
    # replica), far above xi = 0.5 (mean 125.6).  xi = 1 against xi = 0.5
    # differ by 17.1 steps, 52 SE on the two sample variances.
    means = {}
    for xi in (0.0, 0.5, 1.0):
        spec = dn.Ar1Mixture(xi, t0, source)
        # replica i scans start_state(30000 + i), the kernel's stream unused
        scans = _scan_replicas(spec, 1000, 0, 5000, 1e-8, True,
                               start=lambda i, rng: spec.start_state(30000 + i))
        means[xi] = float(np.mean([ct if ct is not None else 5000 for *_, ct in scans]))
    report(13, "sticky-weight interpolation: xi = 1/2 beats both endpoints", [
        (f"mean t(xi=0.5) = {means[0.5]:.1f} < t(xi=0) = {means[0.0]:.1f}",
         means[0.5] < means[0.0]),
        (f"mean t(xi=0.5) = {means[0.5]:.1f} < t(xi=1) = {means[1.0]:.1f}",
         means[0.5] < means[1.0]),
    ])


def test_c14_property_suites():
    # The module invariants run as their own test files in this suite; this
    # criterion re-runs the cyclicity-vs-convergence cross-checks directly.
    swap = dn.make_stochastic([[0, 1], [1, 0]])
    res_swap = dn.cyclicity_check([swap])
    res_hg = dn.cyclicity_check([h_matrix(0.3), G_PERM])

    spec = dn.FiniteMixture(atoms=(h_matrix(0.3), G_PERM), probs=(0.5, 0.5))
    rep_a = dn.disagreement_degree(spec, replicas=500, t_max=100, seed=1014)
    rep_b = dn.disagreement_degree(spec, replicas=500, t_max=101, seed=1015)
    freqs_a = sorted(f for _m, f in rep_a.support_atoms)
    freqs_b = sorted(f for _m, f in rep_b.support_atoms)
    settled = float(np.abs(np.asarray(freqs_a) - np.asarray(freqs_b)).max()) < 0.1

    even = dn.disagreement_degree(dn.Fixed(swap), replicas=100, t_max=100, seed=1016)
    odd = dn.disagreement_degree(dn.Fixed(swap), replicas=100, t_max=101, seed=1017)
    alternates = float(np.abs(even.support_atoms[0][0].entries
                              - odd.support_atoms[0][0].entries).max()) == 1.0

    report(14, "property suites: cyclicity predicts (non-)convergence of the limit law", [
        ("swap support is cyclic", res_swap["cyclic"] and res_swap["witness_partition"] == [[0], [1]]),
        ("stubborn-agent support is not cyclic", not res_hg["cyclic"]),
        ("non-cyclic support: empirical limit law settles", settled),
        ("cyclic support: empirical law keeps alternating", alternates),
    ])
