"""Differentiable energies over logit matrices.

Every model returns (value, gradient) from a single ``evaluate`` call so the
sampler can cache the pair. The structural surrogates here stand in for an
expensive folding objective: a unimodal profile-matching energy, a pairwise
coupling energy with tunable multimodality, and an analytic Gaussian used as
a correctness oracle for the walk kernel.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .core import Rng, RowSoftmax, as_simplex_rows, hamming_distance
from .textio import read_blocks, write_blocks


class EnergyModel(ABC):
    """Differentiable energy E(logits) with an analytic gradient.

    ``evaluate`` must be deterministic, side-effect free, and finite for all
    finite inputs; the gradient is validated against central differences in
    the test suite (rel. error < 1e-5 at seeded random points).

    ``evaluate`` takes a finite float64 array of ``self.shape`` and does not
    check it: the caller does, where the logits enter the program
    (``core.as_logits(logits, energy.shape)`` in ``ChainState.initialize``,
    ``run_rso`` and ``enumerate_jump_flow``).

    Every energy takes a second argument, ``rows``: the ``core.RowSoftmax``
    of the same logits, shared with the other terms of one evaluation, or
    None (the default). A term that reads the softmax reads it from
    ``rows`` (``rows or RowSoftmax(logits)``) and gives the same bits
    either way; it may leave there what the chain reuses (a prior's
    log-conditionals). A term that reads no softmax ignores ``rows``.
    """

    @property
    @abstractmethod
    def shape(self) -> tuple[int, int]:
        """(L, K) this model acts on."""

    @abstractmethod
    def evaluate(self, logits: np.ndarray,
                 rows: RowSoftmax | None = None) -> tuple[float, np.ndarray]:
        """Return (energy, gradient) at the given logit matrix."""


class CompositeEnergy(EnergyModel):
    """Weighted sum of a structural term and a prior term.

    E = structural + lam * prior, gradients likewise; each component is
    evaluated exactly once per call, both on one row softmax of the logits
    (``RowSoftmax``).
    """

    def __init__(self, structural: EnergyModel, prior: EnergyModel, lam: float):
        if not lam >= 0:  # written so that NaN fails too
            raise ValueError("prior weight lam must be >= 0")
        if structural.shape != prior.shape:
            raise ValueError(
                f"component shapes differ: structural {structural.shape}, prior {prior.shape}"
            )
        self.structural = structural
        self.prior = prior
        self.lam = float(lam)

    @property
    def shape(self) -> tuple[int, int]:
        return self.structural.shape

    def evaluate(self, logits: np.ndarray,
                 rows: RowSoftmax | None = None) -> tuple[float, np.ndarray]:
        rows = rows or RowSoftmax(logits)
        e_s, g_s = self.structural.evaluate(logits, rows)
        e_p, g_p = self.prior.evaluate(logits, rows)
        return e_s + self.lam * e_p, g_s + self.lam * g_p


class TargetProfileEnergy(EnergyModel):
    """Cross-entropy of desired per-site compositions against the marginals.

    E = sum_i H(target_i, q_i(logits)); minimized when every row marginal
    matches its target. Gradient per row is simply q_i - target_i. Unimodal,
    used as a smoke-test structural surrogate.
    """

    def __init__(self, targets: np.ndarray):
        targets = np.asarray(targets, dtype=np.float64)
        if targets.ndim != 2:
            raise ValueError("targets must be an (L, K) matrix")
        self.targets = as_simplex_rows(targets, "target rows")
        self.targets.flags.writeable = False

    @property
    def shape(self) -> tuple[int, int]:
        return self.targets.shape

    def evaluate(self, logits: np.ndarray,
                 rows: RowSoftmax | None = None) -> tuple[float, np.ndarray]:
        rows = rows or RowSoftmax(logits)
        value = float(-(self.targets * rows.log_q).sum())
        return value, rows.q - self.targets


class PairwiseContactEnergy(EnergyModel):
    """Bilinear coupling energy over marginals with per-site field terms.

    E = sum_{(i,j)} q_i^T M_ij q_j + sum_i q_i^T h_i. Couplings create
    barriers between distant token configurations, which is exactly what the
    jump kernel exists to cross. Also exposes the induced discrete energy
    at exact one-hot marginals: E(x) = sum M_ij[x_i, x_j] + sum h_i[x_i].
    """

    def __init__(self, contacts, fields: np.ndarray):
        fields = np.asarray(fields, dtype=np.float64)
        if fields.ndim != 2:
            raise ValueError("fields must be an (L, K) matrix")
        length, vocab = fields.shape
        idx_i, idx_j, mats = [], [], []
        for i, j, m in contacts:
            m = np.asarray(m, dtype=np.float64)
            if not (0 <= i < length and 0 <= j < length) or i == j:
                raise ValueError(f"contact ({i}, {j}) out of range or self-coupling")
            if m.shape != (vocab, vocab):
                raise ValueError(f"coupling for ({i}, {j}) must be {vocab}x{vocab}")
            idx_i.append(i)
            idx_j.append(j)
            mats.append(m)
        self.fields = fields
        self.idx_i = np.asarray(idx_i, dtype=np.int64)
        self.idx_j = np.asarray(idx_j, dtype=np.int64)
        self.couplings = (
            np.stack(mats) if mats else np.zeros((0, vocab, vocab), dtype=np.float64)
        )
        for arr in (self.fields, self.idx_i, self.idx_j, self.couplings):
            arr.flags.writeable = False

    @property
    def shape(self) -> tuple[int, int]:
        return self.fields.shape

    def evaluate(self, logits: np.ndarray,
                 rows: RowSoftmax | None = None) -> tuple[float, np.ndarray]:
        rows = rows or RowSoftmax(logits)
        q = rows.q
        value = float((q * self.fields).sum())
        dq = self.fields.copy()
        if self.couplings.shape[0]:
            qi = q[self.idx_i]
            qj = q[self.idx_j]
            value += float(np.einsum("ca,cab,cb->", qi, self.couplings, qj))
            np.add.at(dq, self.idx_i, np.einsum("cab,cb->ca", self.couplings, qj))
            np.add.at(dq, self.idx_j, np.einsum("cab,ca->cb", self.couplings, qi))
        return value, rows.backprop(dq)

    def discrete_energies(self, token_matrix: np.ndarray) -> np.ndarray:
        """Vectorized discrete energies for an (N, L) batch of sequences, with
        one summation order: a row scores the same bits in any batch."""
        toks = np.asarray(token_matrix, dtype=np.int64)
        length, vocab = self.shape
        if toks.ndim != 2 or toks.shape[1] != length:
            raise ValueError("token matrix must be (N, L)")
        if np.any(toks < 0) or np.any(toks >= vocab):
            raise ValueError(f"tokens must lie in [0, {vocab})")
        values = self.fields[np.arange(length), toks].sum(axis=1)
        if self.couplings.shape[0]:
            c_idx = np.arange(self.couplings.shape[0])
            gathered = self.couplings[c_idx, toks[:, self.idx_i], toks[:, self.idx_j]]
            # a running sum in contact order; on this Fortran-ordered gather
            # .sum(axis=1) is pairwise for N = 1, and each column is contiguous
            coupling = gathered[:, 0].copy()
            for column in range(1, gathered.shape[1]):
                coupling += gathered[:, column]
            values = values + coupling
        return values


class GaussianEnergy(EnergyModel):
    """Isotropic quadratic well: E = ||logits - center||^2 / (2 scale^2).

    The Boltzmann target exp(-beta E) is then Gaussian with mean ``center``
    and per-coordinate variance scale^2 / beta, giving analytic moments for
    walk-kernel correctness checks.
    """

    def __init__(self, center: np.ndarray, scale: float):
        center = np.asarray(center, dtype=np.float64)
        if center.ndim != 2:
            raise ValueError("center must be an (L, K) matrix")
        if not scale > 0:  # written so that NaN fails too
            raise ValueError("scale must be positive")
        self.scale = float(scale)
        if not 0.0 < self.scale * self.scale < np.inf:
            raise ValueError(f"scale must have a positive finite square, got {self.scale!r}")
        self.center = center
        self.center.flags.writeable = False

    @property
    def shape(self) -> tuple[int, int]:
        return self.center.shape

    def evaluate(self, logits: np.ndarray,
                 rows: RowSoftmax | None = None) -> tuple[float, np.ndarray]:
        diff = logits - self.center
        var = self.scale * self.scale
        return float((diff * diff).sum()) / (2.0 * var), diff / var


class CountingEnergy(EnergyModel):
    """Wrapper counting evaluate() calls; the unit of compute for benchmarks."""

    def __init__(self, inner: EnergyModel):
        self.inner = inner
        self.calls = 0

    @property
    def shape(self) -> tuple[int, int]:
        return self.inner.shape

    def evaluate(self, logits: np.ndarray,
                 rows: RowSoftmax | None = None) -> tuple[float, np.ndarray]:
        self.calls += 1
        return self.inner.evaluate(logits, rows)


class LandscapeGenerationError(RuntimeError):
    """Raised when a planted landscape fails its construction checks."""


class CertificationError(ValueError):
    """A mode fails a check of the certification contract (``_certified``);
    the message names the mode and the check."""


MAX_ENUMERATION = 10_000_000
PLANT_NOISE_SCALE = 0.05  # random fields and couplings, relative to the planted coupling
PLANT_RETRIES = 50        # fresh draws before planting gives up
SEPARATION_ATTEMPTS = 10_000  # candidate sequences per draw of separated modes
ENUMERATION_BLOCK = 16_384  # rows per block; its (rows, L) field table is 3 MB at most
DESIGNABLE_QUANTILE = 0.05  # designable: below this quantile of all K^L discrete energies
# the thresholds a landscape carries, the designable one among them
CURVE_QUANTILES = (0.01, 0.02, DESIGNABLE_QUANTILE, 0.1, 0.2, 0.3, 0.4, 0.5)


def _enumeration_size(length: int, vocab: int) -> int:
    """K^L, or a ValueError when it exceeds ``MAX_ENUMERATION``."""
    if vocab**length > MAX_ENUMERATION:
        raise ValueError(f"K^L = {vocab ** length} exceeds the enumeration cap {MAX_ENUMERATION}")
    return vocab**length


def enumerate_discrete_energies(energy: PairwiseContactEnergy) -> np.ndarray:
    """Discrete energies of every token sequence, in lexicographic order
    (position 0 most significant), the same bits as ``discrete_energies``.

    A block fixes the first L - m sites and spans the last m on a broadcast
    grid of K^m <= ENUMERATION_BLOCK rows. Its field table sums over its
    last axis as ``discrete_energies`` sums its (N, L) gather, and each
    contact adds its scalar, K-vector or K x K term to a running sum in
    contact order."""
    length, vocab = energy.shape
    total = _enumeration_size(length, vocab)
    m = 0
    while m < length and vocab ** (m + 1) <= ENUMERATION_BLOCK:
        m += 1
    fixed = length - m
    grid = np.ix_(*[np.arange(vocab)] * m)  # site fixed + a varies along axis a
    field_table = np.empty((vocab,) * m + (length,))
    for a in range(m):
        field_table[..., fixed + a] = energy.fields[fixed + a][grid[a]]
    out = np.empty(total, dtype=np.float64)
    rows = vocab**m
    for block, prefix in enumerate(itertools.product(range(vocab), repeat=fixed)):
        field_table[..., :fixed] = energy.fields[np.arange(fixed), prefix]
        values = field_table.sum(axis=-1)
        toks = prefix + grid
        terms = [mat[toks[i], toks[j]]
                 for mat, i, j in zip(energy.couplings, energy.idx_i, energy.idx_j)]
        if terms:
            coupling = np.broadcast_to(terms[0], values.shape).copy()
            for term in terms[1:]:
                coupling += term
            values = values + coupling
        out[block * rows : (block + 1) * rows] = values.ravel()
    return out


@dataclass
class PlantedLandscape:
    """A coupling energy whose modes meet the certification contract
    (``_certified``). It keeps the median and ``CURVE_QUANTILES`` quantiles
    (``thresholds``) of all discrete energies, not the table behind them."""

    energy: PairwiseContactEnergy
    modes: np.ndarray     # (M, L) planted token sequences
    seed: int
    depth: float
    median_energy: float
    thresholds: tuple     # one float per CURVE_QUANTILES entry


def _draw_separated_sequences(length, vocab, n_modes, rng: Rng):
    modes: list[np.ndarray] = []
    for _ in range(SEPARATION_ATTEMPTS):
        cand = np.array([rng.integer(vocab) for _ in range(length)], dtype=np.int64)
        if all(hamming_distance(cand, m) >= 2 for m in modes):
            modes.append(cand)
            if len(modes) == n_modes:
                return np.stack(modes)
    raise LandscapeGenerationError(
        f"could not draw {n_modes} sequences with pairwise Hamming >= 2"
    )


def planted_landscape(
    length: int,
    vocab: int,
    n_modes: int,
    depth: float,
    rng: Rng,
) -> PlantedLandscape:
    """Generate a coupling energy whose low-energy modes are known exactly.

    Each draw plants ``n_modes`` sequences pairwise Hamming >= 2 apart and
    is returned once it meets the certification contract (``_certified``,
    which raises ValueError on ``depth <= 0`` or ``K^L > MAX_ENUMERATION``).
    A draw whose modes fail (CertificationError) is redrawn,
    ``PLANT_RETRIES`` times at most, before LandscapeGenerationError, which
    names the last failure, is raised. This function checks only what it
    needs to draw: the mode count and ``length >= 2``.

    Construction plants attractive couplings between mode tokens on every
    site pair, strong enough to sink the modes ``depth`` below the bulk,
    plus small random fields/couplings (``PLANT_NOISE_SCALE`` of the planted
    strength) for roughness and tie-breaking.
    """
    if n_modes < 1 or n_modes > vocab**length:
        raise ValueError("mode count must be in [1, K^L]")
    if length < 2:
        raise ValueError("planted landscapes need length >= 2 for couplings")

    pairs = [(i, j) for i in range(length) for j in range(i + 1, length)]
    n_pairs = len(pairs)
    seed = rng.seed

    for _ in range(PLANT_RETRIES):
        modes = _draw_separated_sequences(length, vocab, n_modes, rng)
        # expected bulk-vs-mode gap per mode: ~ c * n_pairs * (1 - M/K^2)
        bulk_match = min(0.9, n_modes / (vocab * vocab))
        coupling_strength = 1.5 * depth / (n_pairs * (1.0 - bulk_match))
        noise = PLANT_NOISE_SCALE * coupling_strength

        contacts = []
        for i, j in pairs:
            m = noise * rng.normal((vocab, vocab))
            for mode in modes:
                m[mode[i], mode[j]] -= coupling_strength
            contacts.append((i, j, m))
        fields = noise * rng.normal((length, vocab))
        energy = PairwiseContactEnergy(contacts, fields)

        try:
            return _certified(energy, modes, seed, depth)
        except CertificationError as exc:
            reason = exc

    raise LandscapeGenerationError(
        f"landscape checks failed after {PLANT_RETRIES} attempts "
        f"(L={length}, K={vocab}, modes={n_modes}, depth={depth}); last failure: {reason}"
    )


def landscape_statistics(energy: PairwiseContactEnergy) -> tuple[float, tuple]:
    """The statistics step: the median and ``CURVE_QUANTILES`` quantiles of
    all discrete energies, from one ``K^L`` enumeration. The one place they
    are computed, where a DP over a path or tree contact map would plug in."""
    table = enumerate_discrete_energies(energy)
    return (float(np.median(table)),
            tuple(float(v) for v in np.quantile(table, CURVE_QUANTILES)))


def _certified(energy: PairwiseContactEnergy, modes, seed: int,
               depth: float) -> PlantedLandscape:
    """The certification contract of every ``PlantedLandscape``, in order:
    (1) ValueError unless ``depth > 0``, the modes are an (M, L) matrix of
    tokens in [0, K) pairwise Hamming >= 2 apart, and the statistics step
    can run; (2) each mode is a strict Hamming-1 minimum (one
    ``discrete_energies`` call on its L*K one-site variants); (3) the
    statistics step; (4) each mode lies at or below ``median - depth`` and
    below the ``DESIGNABLE_QUANTILE`` threshold. The first failure in (2) or
    (4) raises CertificationError naming the mode and the check, on which
    planting retries. Messages use the landscape file's names."""
    length, vocab = energy.shape
    if not depth > 0:  # written so that NaN fails too
        raise ValueError("depth must be positive")
    if modes.shape[1:] != (length,) or len(modes) < 1:
        raise ValueError(f"block [modes] must be M x {length} with M >= 1, got {modes.shape}")
    not_tokens = modes[~np.isin(modes, np.arange(vocab))]
    if not_tokens.size:
        raise ValueError(f"block [modes] holds {float(not_tokens[0])!r}, "
                         f"not a token in [0, {vocab})")
    modes = modes.astype(np.int64)
    for a, b in itertools.combinations(range(len(modes)), 2):
        apart = hamming_distance(modes[a], modes[b])
        if apart < 2:
            raise ValueError(f"modes {a} and {b} are Hamming {apart} apart, not >= 2")
    _enumeration_size(length, vocab)
    e_modes = []
    for m, mode in enumerate(modes):
        variants = np.tile(mode, (length, vocab, 1))  # [i, t]: mode with site i set to t
        variants[np.arange(length), :, np.arange(length)] = np.arange(vocab)
        scores = energy.discrete_energies(variants.reshape(-1, length)).reshape(length, vocab)
        e_modes.append(scores[0, mode[0]])
        scores[np.arange(length), mode] = np.inf
        ties = np.argwhere(scores <= e_modes[-1])
        if ties.size:
            site, token = ties[0]
            raise CertificationError(
                f"mode {m} is not a strict Hamming-1 minimum: site {site} set to token "
                f"{token} gives energy {float(scores[site, token])!r} <= the mode's "
                f"{float(e_modes[-1])!r}")
    median, thresholds = landscape_statistics(energy)
    designable = thresholds[CURVE_QUANTILES.index(DESIGNABLE_QUANTILE)]
    for m, e in enumerate(e_modes):
        if not e <= median - depth:
            raise CertificationError(f"mode {m} has energy {float(e)!r}, above median - depth "
                                     f"= {median - depth!r}")
        if not e < designable:
            raise CertificationError(f"mode {m} has energy {float(e)!r}, not below the "
                                     f"{DESIGNABLE_QUANTILE} quantile {designable!r}")
    return PlantedLandscape(energy, modes, seed, depth, median, thresholds)


# --- landscape file ---------------------------------------------------------
#
# The shared text-block format (rss.textio): header seed/L/K/contacts/modes/
# depth, then [fields] (L x K), one [contact i j] (K x K) per contact and
# [modes] (M x L tokens).

_LANDSCAPE_HEADER = {"seed": int, "L": int, "K": int, "contacts": int, "modes": int,
                     "depth": float}
_LANDSCAPE_BLOCKS = {"fields": ("L", "K", 1), "contact": ("K", "K", "contacts"),
                     "modes": ("modes", "L", 1)}


def save_landscape(landscape: PlantedLandscape, path, comment: str | None = None) -> None:
    energy = landscape.energy
    length, vocab = energy.shape
    header = {
        "seed": landscape.seed,
        "L": length,
        "K": vocab,
        "contacts": energy.couplings.shape[0],
        "modes": landscape.modes.shape[0],
        "depth": landscape.depth,
    }
    blocks = [("fields", energy.fields)]
    for c in range(energy.couplings.shape[0]):
        blocks.append((f"contact {energy.idx_i[c]} {energy.idx_j[c]}", energy.couplings[c]))
    blocks.append(("modes", landscape.modes))
    write_blocks(path, ["planted-landscape v1", comment], header, blocks)


def load_landscape(path) -> PlantedLandscape:
    """The landscape a file holds, once its blocks match its header and it
    meets the certification contract (``_certified``). Every failure, the
    contract's included, is a ValueError whose message starts with the path."""
    header, blocks = read_blocks(path, _LANDSCAPE_HEADER, _LANDSCAPE_BLOCKS)
    contacts, pairs = [], set()
    for tag, mat in blocks:
        name, *sites = tag.split()
        if name != "contact":
            continue
        try:
            i, j = map(int, sites)
        except ValueError:
            raise ValueError(f"{path}: block [{tag}] must name two integer sites") from None
        pair = (min(i, j), max(i, j))
        if pair in pairs:
            raise ValueError(f"{path}: block [{tag}] repeats the contact of sites "
                             f"{pair[0]} and {pair[1]}")
        pairs.add(pair)
        contacts.append((i, j, mat))
    arrays = dict(blocks)
    try:
        return _certified(PairwiseContactEnergy(contacts, arrays["fields"]),
                          arrays["modes"], header["seed"], header["depth"])
    except ValueError as exc:  # CertificationError included
        raise ValueError(f"{path}: {exc}") from None
