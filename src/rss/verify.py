"""Independent oracles and the masked-model validation suite.

Everything here is deterministic given (inputs, seed) and side-effect free.
The suite mirrors three checks on the relaxed model: one-hot fidelity
(discrete vs relaxed conditionals on exact one-hot contexts, plus the
substitution-score vs gradient-difference rank correlation), mixture
consistency (relaxed conditionals on blurred contexts vs Monte Carlo
marginalization of the discrete model), and library ranking (relaxed
cross-entropy scores vs discrete pseudo-NLL aggregates). The jump-flow
enumerator is the ground-truth detailed-balance check for the swap kernel.
"""

from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (LOG_FLOOR, Rng, RowSoftmax, _js, as_logits, cross_entropy, kl_divergence,
                   one_hot)
from .energy import EnergyModel
from .sampler import MaskLaw, SamplerConfig, mask_probabilities
from .softplm import MaskedSequenceModel

EPS_GRID_DEFAULT = (0.0, 0.2, 0.4, 0.6, 0.8)
BLUR_FRACTION = 0.3
LIBRARY_SITES = 3        # edited sites per library
OPTION_SIZE = 3          # token options per edited site
K_VARIANTS_DEFAULT = 256
K_MC_DEFAULT = 8


def _average_ranks(x: np.ndarray) -> np.ndarray:
    # 1-based ranks, tied values sharing the mean of their ranks; NaN
    # anywhere makes every rank NaN
    if np.isnan(x).any():
        return np.full(x.size, np.nan)
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], x.size]
    ranks = np.empty(x.size, dtype=np.float64)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def _logsumexp(terms) -> float:
    """log sum exp(terms) of finite terms, shifted by the largest."""
    a = np.asarray(terms, dtype=np.float64)
    top = a.max()
    return float(top + np.log(np.exp(a - top).sum()))


def spearman(a, b) -> float | None:
    """Rank correlation with average ranks on ties; None when undefined."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise ValueError("spearman needs two equal-length series of length >= 2")
    ra = _average_ranks(a)
    rb = _average_ranks(b)
    sa = ra - ra.mean()
    sb = rb - rb.mean()
    denom = np.sqrt((sa * sa).sum() * (sb * sb).sum())
    if denom == 0.0:
        return None
    return float((sa * sb).sum() / denom)


def _random_subset(length: int, count: int, rng: Rng) -> np.ndarray:
    # partial Fisher-Yates; deterministic given the stream
    idx = np.arange(length)
    for k in range(count):
        j = k + rng.integer(length - k)
        idx[k], idx[j] = idx[j], idx[k]
    return np.sort(idx[:count])


def random_sequences(length: int, vocab: int, count: int, rng: Rng) -> np.ndarray:
    return np.array(
        [[rng.integer(vocab) for _ in range(length)] for _ in range(count)],
        dtype=np.int64,
    )


# --- one-hot fidelity ---------------------------------------------------------


@dataclass
class FidelityReport:
    mean_kl: float
    spearman_mean: float | None     # None when no sequence gives a defined rho
    spearman_median: float | None
    sample_count: int


def onehot_fidelity(
    model: MaskedSequenceModel,
    sequences,
    rng: Rng,
    tau: float = 1.0,
) -> FidelityReport:
    """Discrete-vs-relaxed agreement on exact one-hot contexts.

    For one sampled site per sequence: KL between the discrete
    conditional and the relaxed conditional on the explicitly built one-hot
    marginal rows (zero by shared-path construction), and the Spearman
    correlation between the K-1 substitution scores
    delta(a->b) = -log p(b) + log p(a) from the discrete conditionals and
    the same differences taken from the relaxed loss gradient with respect
    to the site's marginal row (which is -log of the relaxed conditional,
    since the masked context excludes the site's own marginal).
    """
    sequences = np.asarray(sequences, dtype=np.int64)
    if sequences.ndim != 2 or sequences.shape[0] == 0:
        raise ValueError("sequences must be a nonempty (N, L) token matrix")
    length, vocab = model.shape
    kls = []
    rhos = []
    for tokens in sequences:
        discrete = model.conditionals_from_tokens(tokens, tau)
        relaxed = RowSoftmax(model.masked_logits(one_hot(tokens, vocab)) / tau)
        soft, soft_log = relaxed.q, relaxed.log_q
        site = rng.integer(length)
        kls.append(kl_divergence(discrete[site], soft[site]))
        native = tokens[site]
        others = [b for b in range(vocab) if b != native]
        disc_log = np.log(np.maximum(discrete[site], LOG_FLOOR))
        deltas = [-disc_log[b] + disc_log[native] for b in others]
        grads = [-soft_log[site, b] + soft_log[site, native] for b in others]
        rho = spearman(deltas, grads)
        if rho is not None:
            rhos.append(rho)
    return FidelityReport(
        mean_kl=float(np.mean(kls)),
        spearman_mean=float(np.mean(rhos)) if rhos else None,
        spearman_median=float(np.median(rhos)) if rhos else None,
        sample_count=len(kls),
    )


# --- mixture consistency --------------------------------------------------------


@dataclass
class MixtureRow:
    eps: float
    mean_js: float
    top1_agreement: float
    sample_count: int


def _blurred_marginals(tokens, blur_sites, eps: float, vocab: int) -> np.ndarray:
    marg = one_hot(tokens, vocab)
    marg[blur_sites] = (1.0 - eps) * marg[blur_sites] + eps / vocab
    return marg


def mixture_consistency(
    model: MaskedSequenceModel,
    sequences,
    rng: Rng,
    eps_grid=EPS_GRID_DEFAULT,
    k_mc: int = K_MC_DEFAULT,
    tau: float = 1.0,
) -> list[MixtureRow]:
    """Relaxed conditionals on blurred contexts vs Monte Carlo marginalization.

    Per sequence, a random ``BLUR_FRACTION`` of positions is mixed toward
    uniform by each eps in the grid; blur sites are re-drawn per sequence
    from this suite's own stream. The reference averages discrete
    conditionals over k_mc sequences drawn from the blurred marginals.
    Reports mean Jensen-Shannon divergence and top-1 agreement over all
    sites, one whole table at a time.
    """
    if k_mc < 1:
        raise ValueError("k_mc must be >= 1")
    sequences = np.asarray(sequences, dtype=np.int64)
    length, vocab = model.shape
    n_blur = max(1, round(BLUR_FRACTION * length))
    rows = []
    for eps in eps_grid:
        if not 0.0 <= eps < 1.0:
            raise ValueError("eps values must lie in [0, 1)")
        js_vals = []
        hits = 0
        total = 0
        for tokens in sequences:
            blur_sites = _random_subset(length, n_blur, rng)
            marg = _blurred_marginals(tokens, blur_sites, eps, vocab)
            p_soft = model.conditionals(marg, tau)
            p_mc = np.zeros_like(p_soft)
            for _ in range(k_mc):
                draw = tokens.copy()
                for site in blur_sites:
                    draw[site] = rng.categorical(marg[site])
                p_mc += model.conditionals_from_tokens(draw, tau)
            p_mc /= k_mc
            js_vals.append(_js(p_soft, p_mc))
            hits += int((np.argmax(p_soft, axis=1) == np.argmax(p_mc, axis=1)).sum())
            total += length
        rows.append(
            MixtureRow(
                eps=float(eps),
                mean_js=float(np.mean(np.concatenate(js_vals))),
                top1_agreement=hits / total,
                sample_count=total,
            )
        )
    return rows


# --- library ranking ------------------------------------------------------------


@dataclass
class Library:
    """A combinatorial variant library: edited sites and their token options."""

    tokens: np.ndarray        # base sequence, (L,)
    sites: np.ndarray         # edited positions
    options: list             # per edited position, list of candidate tokens


@dataclass
class RankingReport:
    spearman_mean: float | None
    spearman_best: float | None
    n_libraries: int
    undefined: bool = False


def random_libraries(length: int, vocab: int, count: int, rng: Rng) -> list[Library]:
    libs = []
    for _ in range(count):
        tokens = np.array([rng.integer(vocab) for _ in range(length)], dtype=np.int64)
        sites = _random_subset(length, LIBRARY_SITES, rng)
        options = [list(_random_subset(vocab, OPTION_SIZE, rng)) for _ in sites]
        libs.append(Library(tokens=tokens, sites=sites, options=options))
    return libs


def library_score_soft(
    model: MaskedSequenceModel, library: Library, tau: float = 1.0
) -> float:
    """Relaxed library score: cross-entropy of the design prior against the
    relaxed conditionals at the edited sites."""
    length, vocab = model.shape
    marg = one_hot(library.tokens, vocab)
    priors = {}
    for site, opts in zip(library.sites, library.options):
        row = np.zeros(vocab)
        row[list(opts)] = 1.0 / len(opts)
        marg[site] = row
        priors[int(site)] = row
    cond = model.conditionals(marg, tau)
    return float(sum(cross_entropy(priors[int(s)], cond[s]) for s in library.sites))


def library_ranking(
    model: MaskedSequenceModel,
    libraries,
    rng: Rng,
    k_variants: int = K_VARIANTS_DEFAULT,
    tau: float = 1.0,
) -> RankingReport:
    """Rank agreement between relaxed scores and discrete pseudo-NLL baselines.

    The baseline draws k_variants full variants per library (uniform over
    each site's options), scores each by the sum over edited sites of
    -log discrete conditional of the realized token, and aggregates by the
    mean and the best (minimum) over variants; each distinct variant is
    scored once. Returns the Spearman correlation of the relaxed score
    against each aggregate across libraries; a single library leaves the
    correlation undefined.
    """
    libraries = list(libraries)
    if k_variants < 1:
        raise ValueError("k_variants must be >= 1")
    soft_scores = []
    mean_scores = []
    best_scores = []
    for lib in libraries:
        for opts in lib.options:
            if len(opts) != OPTION_SIZE:
                warnings.warn(
                    f"library option list of size {len(opts)} (expected {OPTION_SIZE})",
                    stacklevel=2,
                )
        soft_scores.append(library_score_soft(model, lib, tau))
        nlls = []
        nll_of = {}                # variant bytes -> its NLL
        for _ in range(k_variants):
            variant = lib.tokens.copy()
            for site, opts in zip(lib.sites, lib.options):
                variant[site] = opts[rng.integer(len(opts))]
            key = variant.tobytes()
            if key not in nll_of:
                cond = model.conditionals_from_tokens(variant, tau)
                nll_of[key] = -float(
                    np.log(np.maximum(cond[lib.sites, variant[lib.sites]], LOG_FLOOR)).sum()
                )
            nlls.append(nll_of[key])
        mean_scores.append(float(np.mean(nlls)))
        best_scores.append(float(np.min(nlls)))

    if len(libraries) < 2:
        return RankingReport(None, None, len(libraries), undefined=True)
    rho_mean = spearman(soft_scores, mean_scores)
    rho_best = spearman(soft_scores, best_scores)
    return RankingReport(
        rho_mean, rho_best, len(libraries),
        undefined=rho_mean is None or rho_best is None,
    )


# --- jump-kernel flow enumeration ------------------------------------------------


@dataclass
class JumpFlowResult:
    log_forward: float
    log_reverse: float
    reachable: bool

    @property
    def forward(self) -> float:
        return float(np.exp(self.log_forward)) if self.reachable else 0.0

    @property
    def reverse(self) -> float:
        return float(np.exp(self.log_reverse)) if self.reachable else 0.0


def _swap_decomposition(delta: np.ndarray, gamma: float, tol: float):
    """Rows changed by a gamma-swap: (site, y_plus, y_minus) or None if the
    pair is not reachable by any single swap set."""
    core = []
    for i, row in enumerate(delta):
        if np.all(np.abs(row) <= tol):
            continue
        y_plus = int(np.argmax(row))
        y_minus = int(np.argmin(row))
        expected = np.zeros_like(row)
        expected[y_plus] += gamma
        expected[y_minus] -= gamma
        if y_plus == y_minus or np.any(np.abs(row - expected) > tol):
            return None
        core.append((i, y_plus, y_minus))
    return core


def enumerate_jump_flow(
    energy: EnergyModel,
    model: MaskedSequenceModel,
    cfg: SamplerConfig,
    logits_a: np.ndarray,
    logits_b: np.ndarray,
) -> JumpFlowResult:
    """Total probability flow of the jump kernel between two states.

    Sums, over every auxiliary realization (mask set, forward tokens,
    reference tokens) that maps one state to the other,
      exp(-beta E) * P(mask) * prod p_model(forward token) * (1/K)^|S| * alpha.
    P(mask) is the true mask law, computed here and not by the sampler: the
    Bernoulli product conditioned on 1 <= |S| <= s_max, log P(S) = sum_{i in S}
    o_i - log Z with log odds o_i = log p_i - log(1 - p_i) and Z summed over
    every such set. alpha is the acceptance as the sampler computes it, one
    ``MaskLaw`` per state pricing the site set under cfg.mask_mode. In ``exact``
    mode the two flows agree; in ``paper`` their log ratio is log Z(p(b)) - log Z(p(a)).

    A pair that changes c sites has sum_e C(L - c, e) K^e realizations per
    direction, e <= s_max - c (433,341 for one site at L = 48, K = 20, s_max = 3).
    """
    a = as_logits(logits_a, energy.shape)
    b = as_logits(logits_b, energy.shape)
    length, vocab = a.shape
    tol = 1e-9 * max(1.0, cfg.gamma)

    core = _swap_decomposition(b - a, cfg.gamma, tol)
    if core is None or len(core) > cfg.s_max:
        return JumpFlowResult(-np.inf, -np.inf, reachable=False)

    e_a, g_a = energy.evaluate(a)
    e_b, g_b = energy.evaluate(b)
    law_a = MaskLaw(mask_probabilities(g_a, cfg.kappa), cfg.s_max)
    law_b = MaskLaw(mask_probabilities(g_b, cfg.kappa), cfg.s_max)
    log_cond_a = model.log_conditionals_from_logits(a, cfg.tau)
    log_cond_b = model.log_conditionals_from_logits(b, cfg.tau)

    core_sites, y_plus, y_minus = np.array(core, dtype=np.int64).reshape(-1, 3).T
    identity_sites = [i for i in range(length) if i not in core_sites]
    log_k = float(np.log(vocab))

    def site_sets(pool, n):  # every n-subset of pool, one per row
        combos = list(itertools.combinations(pool, n))
        return np.array(combos, dtype=np.int64).reshape(len(combos), n)

    def directional_terms(e_from, e_to, law_from, law_to, lc_from, lc_to, core_fwd, core_ref):
        p_from = law_from.probs
        odds = np.log(np.maximum(p_from, LOG_FLOOR)) - np.log(np.maximum(1.0 - p_from, LOG_FLOOR))
        sums = [odds[site_sets(range(length), n)].sum(axis=1) for n in range(1, cfg.s_max + 1)]
        log_z = _logsumexp(np.concatenate(sums))
        terms = []
        for n_extra in range(cfg.s_max - core_sites.size + 1):
            # one row per choice of identity tokens on the extra sites
            idle = np.array(list(itertools.product(range(vocab), repeat=n_extra)), dtype=np.int64)
            fwd = np.hstack([np.tile(core_fwd, (len(idle), 1)), idle])
            ref = np.hstack([np.tile(core_ref, (len(idle), 1)), idle])
            for extra in site_sets(identity_sites, n_extra):
                sites = np.concatenate([core_sites, extra])
                if sites.size < 1:
                    continue
                log_fwd = lc_from[sites, fwd].sum(axis=1)
                log_alpha = np.minimum(
                    0.0,
                    -cfg.beta * (e_to - e_from)
                    + law_to.log_mass(sites, cfg.mask_mode)
                    - law_from.log_mass(sites, cfg.mask_mode)
                    + lc_to[sites, ref].sum(axis=1)
                    - log_fwd,
                )
                log_mask_true = odds[sites].sum() - log_z
                terms.append(-cfg.beta * e_from + log_mask_true + log_fwd - log_k * sites.size
                             + log_alpha)
        return np.concatenate(terms)

    forward = directional_terms(e_a, e_b, law_a, law_b, log_cond_a, log_cond_b, y_plus, y_minus)
    reverse = directional_terms(e_b, e_a, law_b, law_a, log_cond_b, log_cond_a, y_minus, y_plus)
    return JumpFlowResult(_logsumexp(forward), _logsumexp(reverse), reachable=True)


# --- suite driver and report serialization ----------------------------------------


@dataclass
class ValidationReport:
    name: str
    value: float | None
    sample_count: int
    config: dict


def run_validation_suite(
    model: MaskedSequenceModel,
    seed: int,
    n_sequences: int = 100,
    n_libraries: int = 20,
    tau: float = 1.0,
    k_mc: int = K_MC_DEFAULT,
    k_variants: int = K_VARIANTS_DEFAULT,
) -> dict[str, ValidationReport]:
    """All validation metric families on one model, reproducible from seed.

    Families and their protocol constants: one-hot fidelity (KL and the
    gradient-vs-substitution Spearman at one site per sequence), mixture
    consistency (BLUR_FRACTION blur, EPS_GRID_DEFAULT, k_mc reference draws), library
    ranking (LIBRARY_SITES sites with OPTION_SIZE options, k_variants draws).
    The arguments are checked before the first forward.
    """
    length, vocab = model.shape
    if length < LIBRARY_SITES or vocab < OPTION_SIZE:
        # a library edits LIBRARY_SITES sites with OPTION_SIZE distinct
        # tokens each; fidelity ranks K - 1 >= 2 substitutions
        raise ValueError(f"the validation suite needs L >= {LIBRARY_SITES} and "
                         f"K >= {OPTION_SIZE}, got L = {length}, K = {vocab}")
    if tau <= 0:
        raise ValueError("temperature tau must be positive")
    for key, count in (("n_sequences", n_sequences), ("k_mc", k_mc), ("k_variants", k_variants)):
        if count < 1:
            raise ValueError(f"{key} must be >= 1")
    if n_libraries < 0:
        raise ValueError("n_libraries must be >= 0")
    base_config = {
        "seed": seed,
        "L": length,
        "K": vocab,
        "tau": tau,
        "n_sequences": n_sequences,
    }
    reports: dict[str, ValidationReport] = {}

    def report(name, value, count, **config):
        reports[name] = ValidationReport(name, value, count, dict(base_config, **config))

    rng = Rng(seed)
    sequences = random_sequences(length, vocab, n_sequences, rng)

    fid = onehot_fidelity(model, sequences, Rng(seed + 1), tau=tau)
    for name, value in (("kl", fid.mean_kl), ("grad_spearman_mean", fid.spearman_mean),
                        ("grad_spearman_median", fid.spearman_median)):
        report(f"onehot_fidelity_{name}", value, fid.sample_count, sites_per_sequence=1)

    for row in mixture_consistency(model, sequences, Rng(seed + 2), k_mc=k_mc, tau=tau):
        for name, value in (("js", row.mean_js), ("top1", row.top1_agreement)):
            report(f"mixture_{name}_eps{row.eps:.1f}", value, row.sample_count,
                   blur_fraction=BLUR_FRACTION, eps_grid=list(EPS_GRID_DEFAULT), k_mc=k_mc,
                   eps=row.eps)

    lib_rng = Rng(seed + 3)
    libraries = random_libraries(length, vocab, n_libraries, lib_rng)
    ranking = library_ranking(model, libraries, lib_rng, k_variants=k_variants, tau=tau)
    for name, value in (("mean", ranking.spearman_mean), ("best", ranking.spearman_best)):
        report(f"library_spearman_{name}", value, ranking.n_libraries,
               n_libraries=n_libraries, option_size=OPTION_SIZE, k_variants=k_variants)
    return reports


def reports_to_json(reports: dict[str, ValidationReport], meta: dict | None = None) -> str:
    """Flat JSON object metric -> {value, n, config}, stable key order."""
    payload = {
        name: {"value": rep.value, "n": rep.sample_count, "config": rep.config}
        for name, rep in reports.items()
    }
    if meta:
        payload["_meta"] = meta
    return json.dumps(payload, indent=2, sort_keys=True)
