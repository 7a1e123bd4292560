"""Relaxed sequence sampling: walk-jump MCMC over continuous sequence logits.

The chain state is a logit matrix whose softmax rows are per-site token
marginals. A mixture kernel alternates Metropolis-adjusted Langevin walks
with masked-model-guided multi-site token swaps, targeting the Boltzmann
distribution of a pluggable differentiable energy. Ships with a toy masked
sequence model usable both discretely and on relaxed inputs, exact
detailed-balance verification tools, and an enumeration-backed benchmark
against plain gradient descent.
"""

__version__ = "0.1.0"

from .core import (
    Rng,
    argmax_decode,
    cross_entropy,
    decode_to_letters,
    kl_divergence,
    one_hot,
    row_marginals,
)
from .energy import (
    CompositeEnergy,
    CountingEnergy,
    EnergyModel,
    GaussianEnergy,
    LandscapeGenerationError,
    PairwiseContactEnergy,
    PlantedLandscape,
    TargetProfileEnergy,
    enumerate_discrete_energies,
    load_landscape,
    planted_landscape,
    save_landscape,
)
from .softplm import (
    MaskedSequenceModel,
    SoftPlmEnergy,
    calibrate_temperature,
    load_model,
    save_model,
)
from .sampler import (
    ChainState,
    ChainSummary,
    MaskLaw,
    MaskSamplingError,
    MoveRecord,
    SamplerConfig,
    ess_and_autocorr,
    jump_accept,
    jump_propose,
    mask_log_mass,
    mask_probabilities,
    run_chain,
    sample_mask,
    step,
    walk_accept,
    walk_propose,
)
from .verify import (
    Library,
    ValidationReport,
    enumerate_jump_flow,
    library_ranking,
    mixture_consistency,
    onehot_fidelity,
    run_validation_suite,
    spearman,
)
from .bench import (
    CampaignConfig,
    CampaignReport,
    cluster_sequences,
    designable_surrogate,
    mode_occupancy,
    run_campaign,
    run_rso,
)

__all__ = [name for name in dir() if not name.startswith("_")]
