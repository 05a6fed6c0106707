"""sievesim: Bernoulli sieve occupancy, perturbed random walks, and the
inverse-stable-subordinator limit law they share.

The package is organized around cross-validation: every quantity with a
closed form (moments, Laplace exponents, conditional formulas, exact
zero-decrement laws) is implemented next to at least one independent
Monte Carlo construction of the same object, and the verification suite
(:mod:`sievesim.acceptance`) pins the tolerances at which they must agree.
"""

from .chains import (
    ChainSpec,
    Pmf,
    barrier_chain_spec,
    chain_from_json,
    chain_to_json,
    counts_pmf,
    empirical_pmf,
    exact_zero_decrement_pmf,
    exact_zero_decrement_pmfs,
    geometric_pmf,
    mixed_poisson_diagnostic,
    sample_geometric_rep,
    sample_zero_decrements,
    sieve_chain_spec,
)
from .limitlaw import (
    AlphaBeta,
    levy_tail_mass,
    mittag_leffler_moment,
    phi_alpha,
    sample_levy_jump,
    sample_mittag_leffler,
    sample_subordinator_marginal,
    sample_z_expfunctional,
    sample_z_pathint,
    z_moment,
)
from .randkit import (
    RngStream,
    sample_uniform01,
)
from .sieve import (
    BetaW,
    ConstantW,
    FrequencySeq,
    LogParetoMixtureW,
    UniformW,
    empty_moments_given_freqs,
    normalization_ratio,
    sample_occupancy,
)
from .stats import (
    McEstimate,
    ks_one_sample,
    ks_two_sample,
    mc_accumulate,
    mc_merge,
    tv_distance,
)
from .walks import (
    ConstantLaw,
    ExponentialLaw,
    LogDecayLaw,
    ParetoLaw,
    PrwLaw,
    walk_functionals,
)

__version__ = "0.1.0"
