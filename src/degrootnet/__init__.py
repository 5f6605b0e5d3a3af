"""DeGroot learning on randomly evolving networks.

Library plus CLI for simulating belief dynamics driven by random
row-stochastic interaction matrices: network generating processes,
left-product accumulation, consensus and influence diagnostics,
collective-intelligence experiments, and graph-fragmentation analysis.
"""

from .matrices import (
    RankReport,
    SkeletonMask,
    StochasticMatrix,
    dobrushin_coefficient,
    is_strictly_positive,
    make_stochastic,
    multiply,
    numeric_rank,
    skeleton,
    skeleton_is_primitive,
)
from .generators import (
    Ar1Mixture,
    DirichletRows,
    FiniteMixture,
    Fixed,
    GeneratorSpec,
    GeneratorState,
    Islands,
    LeaderFollower,
    PerturbedFixed,
    SupportDescriptor,
    UndirectedDegree,
    bernoulli_2x2,
    encounter_2x2,
    mixing_identity_mixture,
    ring_uniform_self,
    two_point_swap,
)
from .engine import (
    AtomicWeightPairs,
    BetaMarginalPair,
    ConditionCReport,
    DisagreementReport,
    InfluenceEstimate,
    ProductAccumulator,
    accumulate,
    check_condition_c,
    convergence_time_2x2,
    cyclicity_check,
    disagreement_degree,
    estimate_influence,
    evolve,
    log_energy,
    lyapunov_exponent,
    semigroup_explore,
    skeleton_equivalence_test,
)
from .wisdom import (
    UniformSignal,
    WisdomConfig,
    WisdomResult,
    check_mic3_rates,
    consensus_probability,
    dirichlet_conjugacy_test,
    mean_rank_one_test,
    run_wisdom,
)
from .fragmentation import (
    FragmentationReport,
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
from . import errors

__version__ = "0.1.0"
