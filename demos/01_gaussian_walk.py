"""Walk kernel warm-up: sample a known Gaussian and check the moments.

The quadratic energy E = ||x - c||^2 / (2 s^2) makes the Boltzmann target
exp(-beta E) an exact Gaussian with mean c and variance s^2 / beta, so every
number printed below has a closed-form reference. Step size adapts during
burn-in toward the healthy 40-60% acceptance band, then freezes.
"""

import numpy as np

from rss import GaussianEnergy, Rng, SamplerConfig, ess_and_autocorr, run_chain

L, K = 5, 4
beta = 1.0
scale = 1.0

center = Rng(2).normal((L, K))
energy = GaussianEnergy(center, scale)

cfg = SamplerConfig(
    beta=beta,
    eta=0.3,            # deliberately rough; adaptation fixes it
    p_jump=0.0,         # walk only
    steps=55_000,
    adapt_eta=True,
    burn_in=5_000,
)
summary = run_chain(center.copy(), cfg, energy, rng=Rng(123), snapshot_stride=1)

post = np.stack([s for (t, s) in summary.snapshots if t > cfg.burn_in])
print(f"steps run                : {summary.steps}")
print(f"energy evaluations       : {summary.energy_evaluations}")
print(f"adapted step size        : {summary.eta_final:.4f}")
print(f"post-burn-in acceptance  : {summary.acceptance('walk', post_burn_in=True):.3f} (target 0.40-0.60)")
print(f"worst |mean - center|    : {np.max(np.abs(post.mean(axis=0) - center)):.4f}")
print(f"worst |var/target - 1|   : {np.max(np.abs(post.var(axis=0) * beta / scale**2 - 1)):.4f}")

diag = ess_and_autocorr(summary.post_burn_in_energies())
print(f"energy-trace ESS         : {diag.ess:.0f} of {cfg.steps - cfg.burn_in} "
      f"(integrated autocorr time {diag.tau_int:.1f})")
