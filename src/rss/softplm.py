"""Toy masked sequence model and its relaxed (mixture-input) evaluation.

One frozen network serves both modes through a single code path that takes
per-site marginal rows: discrete mode feeds exact one-hot rows, relaxed mode
feeds softmax marginals of a logit matrix. Masked conditionals at site i are
produced by replacing that site's expected embedding with a mask embedding,
so conditionals never depend on the site's own marginal.

Architecture, per site i over context embeddings e_j = q_j @ embed:
    m_i      = mean_{j != i} (e_j + positional_j)        (0 when L == 1)
    h_i      = tanh(mix @ m_i + mask_embed + positional_i)
    logits_i = bias + readout^T h_i
    p_i      = softmax(logits_i / tau)
The leave-one-out mean is formed incrementally (total minus own term), so a
full conditional table costs O(L * (d^2 + d*K)).
"""

from __future__ import annotations

import numpy as np

from .core import Rng, RowSoftmax, one_hot, softmax_rows
from .energy import EnergyModel, _softmax_row_backprop
from .textio import read_blocks, write_blocks

LOG_TAU_LOW = float(np.log(0.05))
LOG_TAU_HIGH = float(np.log(20.0))
LOG_TAU_TOL = 1e-4      # calibration's golden-section tolerance in log tau


def _check_marginals(marginals: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    q = np.asarray(marginals, dtype=np.float64)
    if q.shape != shape:
        raise ValueError(f"marginal matrix must have shape {shape}, got {q.shape}")
    if not np.all(np.isfinite(q)) or np.any(q < 0):
        raise ValueError("marginal rows must be finite and nonnegative")
    if np.any(np.abs(q.sum(axis=1) - 1.0) > 1e-8):
        raise ValueError("marginal rows must sum to 1")
    return q


class MaskedSequenceModel:
    """Frozen toy network exposing masked per-site conditionals.

    Weights are immutable after construction; all methods are pure, so one
    model can serve many chains concurrently.
    """

    def __init__(self, embed, mask_embed, positional, mix, readout, bias):
        self.embed = np.asarray(embed, dtype=np.float64)
        self.mask_embed = np.asarray(mask_embed, dtype=np.float64)
        self.positional = np.asarray(positional, dtype=np.float64)
        self.mix = np.asarray(mix, dtype=np.float64)
        self.readout = np.asarray(readout, dtype=np.float64)
        self.bias = np.asarray(bias, dtype=np.float64)

        vocab, width = self.embed.shape
        length = self.positional.shape[0]
        if self.mask_embed.shape != (width,):
            raise ValueError("mask embedding width mismatch")
        if self.positional.shape != (length, width):
            raise ValueError("positional table must be (L, d)")
        if self.mix.shape != (width, width):
            raise ValueError("mixing matrix must be (d, d)")
        if self.readout.shape != (width, vocab):
            raise ValueError("readout must be (d, K)")
        if self.bias.shape != (vocab,):
            raise ValueError("bias must be (K,)")
        for arr in (self.embed, self.mask_embed, self.positional,
                    self.mix, self.readout, self.bias):
            if not np.all(np.isfinite(arr)):
                raise ValueError("model weights must be finite")
            arr.flags.writeable = False

    @classmethod
    def random(cls, length: int, vocab: int = 20, width: int = 16,
               rng: Rng | None = None) -> "MaskedSequenceModel":
        """Fresh frozen model with N(0, 1/sqrt(d)) weights from the given stream."""
        if length < 1 or vocab < 2 or width < 1:
            raise ValueError(f"a model needs L >= 1, K >= 2 and width >= 1, "
                             f"got L = {length}, K = {vocab}, width = {width}")
        if rng is None:
            rng = Rng(0)
        scale = 1.0 / np.sqrt(width)
        return cls(
            embed=scale * rng.normal((vocab, width)),
            mask_embed=scale * rng.normal((width,)),
            positional=scale * rng.normal((length, width)),
            mix=scale * rng.normal((width, width)),
            readout=scale * rng.normal((width, vocab)),
            bias=scale * rng.normal((vocab,)),
        )

    @property
    def shape(self) -> tuple[int, int]:
        return self.positional.shape[0], self.embed.shape[0]

    @property
    def width(self) -> int:
        return self.embed.shape[1]

    def scaled(self, factor: float) -> "MaskedSequenceModel":
        """Copy whose raw masked logits are multiplied by ``factor`` > 0."""
        if not factor > 0:  # written so that NaN fails too
            raise ValueError(f"scale factor must be > 0, got {factor!r}")
        return MaskedSequenceModel(
            self.embed, self.mask_embed, self.positional, self.mix,
            factor * self.readout, factor * self.bias,
        )

    # -- shared code path ---------------------------------------------------

    def masked_logits(self, marginals) -> np.ndarray:
        """Raw (untempered) masked logits at every site, (L, K), on marginal
        rows from a caller, which are checked here."""
        return self._forward(_check_marginals(marginals, self.shape))[0]

    def _forward(self, q: np.ndarray):
        # returns (logits, intermediates for backprop) on checked rows q
        z = q @ self.embed                       # (L, d)
        ctx = z + self.positional                # (L, d)
        # at L = 1 the difference is exactly 0.0: the empty mean is 0
        loo = (ctx.sum(axis=0)[None, :] - ctx) / max(q.shape[0] - 1, 1)
        pre = loo @ self.mix.T + self.mask_embed[None, :] + self.positional
        hidden = np.tanh(pre)                    # (L, d)
        logits = hidden @ self.readout + self.bias[None, :]
        return logits, hidden

    def conditionals(self, marginals, tau: float) -> np.ndarray:
        """Masked conditional table p_i(.|q; tau) for all sites, (L, K)."""
        if tau <= 0:
            raise ValueError("temperature tau must be positive")
        return softmax_rows(self.masked_logits(marginals) / tau)

    def log_conditionals(self, marginals, tau: float) -> np.ndarray:
        """log of ``conditionals``, exact in log space (no probability floor)."""
        if tau <= 0:
            raise ValueError("temperature tau must be positive")
        return _tempered_log_softmax(self.masked_logits(marginals), tau)

    # -- front doors: rows built here from checked input, not checked again -

    def conditionals_from_tokens(self, tokens, tau: float) -> np.ndarray:
        """Discrete mode: ``conditionals`` on the exact one-hot rows of a
        token sequence, whose tokens ``one_hot`` checks."""
        if tau <= 0:
            raise ValueError("temperature tau must be positive")
        q = one_hot(tokens, self.shape[1])
        if q.shape != self.shape:
            raise ValueError(f"token sequence must have length {self.shape[0]}")
        return softmax_rows(self._forward(q)[0] / tau)

    def log_conditionals_from_logits(self, logits, tau: float) -> np.ndarray:
        """``log_conditionals`` on the softmax rows of checked logits (a
        chain state or proposal) at a checked ``tau``."""
        return _tempered_log_softmax(self._forward(softmax_rows(logits))[0], tau)


def _tempered_log_softmax(logits: np.ndarray, tau: float) -> np.ndarray:
    scaled = logits / tau
    scaled = scaled - scaled.max(axis=1, keepdims=True)
    return scaled - np.log(np.exp(scaled).sum(axis=1, keepdims=True))


class SoftPlmEnergy(EnergyModel):
    """Alignment energy between relaxed marginals and masked conditionals.

    E(logits) = sum_i H(q_i, p_i(.|q; tau)) with q = softmax rows of the
    logits. The analytic gradient propagates through both pathways: the
    outer expectation over q_i and the dependence of every conditional on
    the other sites' expected embeddings.

    It leaves its log-conditionals on ``rows``, the tempered masked table
    p_i(.|q; tau) in log space, under the key ``(model, tau)``: the bits
    ``model.log_conditionals_from_logits(logits, tau)`` gives.
    """

    def __init__(self, model: MaskedSequenceModel, tau: float):
        if tau <= 0:
            raise ValueError("temperature tau must be positive")
        self.model = model
        self.tau = float(tau)

    @property
    def shape(self) -> tuple[int, int]:
        return self.model.shape

    def evaluate(self, logits: np.ndarray,
                 rows: RowSoftmax | None = None) -> tuple[float, np.ndarray]:
        model, tau = self.model, self.tau

        rows = rows or RowSoftmax(logits)
        q = rows.q
        raw, hidden = model._forward(q)
        log_p = _tempered_log_softmax(raw, tau)
        rows.log_conditionals[model, tau] = log_p
        p = np.exp(log_p)
        value = float(-(q * log_p).sum())

        # context pathway: dE/d(raw logits at site i) = (p_i - q_i) / tau
        g_raw = (p - q) / tau
        g_hidden = g_raw @ model.readout.T
        g_pre = (1.0 - hidden * hidden) * g_hidden
        g_loo = g_pre @ model.mix                       # rows: mix^T g_pre_i
        g_ctx = (g_loo.sum(axis=0)[None, :] - g_loo) / max(logits.shape[0] - 1, 1)
        dq_context = g_ctx @ model.embed.T

        # outer pathway: dE/dq_i holding conditionals fixed
        dq_outer = -log_p

        return value, _softmax_row_backprop(q, dq_outer + dq_context)


def golden_section_minimize(fn, lo: float, hi: float, tol: float) -> float:
    """Golden-section minimum of a unimodal scalar function on [lo, hi]."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def calibrate_temperature(
    model: MaskedSequenceModel,
    reference: MaskedSequenceModel,
    contexts,
) -> float:
    """Global temperature minimizing KL(reference conditional || model at tau).

    ``contexts`` is a list of (token sequence, site) pairs; reference
    conditionals are taken at temperature 1 on exact one-hot rows. The
    search is golden-section over log tau in [ln 0.05, ln 20] to
    ``LOG_TAU_TOL`` in log space.
    """
    contexts = list(contexts)
    if not contexts:
        raise ValueError("temperature calibration needs at least one context")
    if model.shape != reference.shape:
        raise ValueError(
            f"model shape {model.shape} differs from reference {reference.shape}"
        )

    ref_rows = []
    raw_rows = []
    for tokens, site in contexts:
        marg = one_hot(tokens, model.shape[1])
        ref_rows.append(reference.conditionals(marg, 1.0)[site])
        raw_rows.append(model.masked_logits(marg)[site])
    ref_rows = np.stack(ref_rows)
    raw_rows = np.stack(raw_rows)

    def objective(log_tau: float) -> float:
        log_p = _tempered_log_softmax(raw_rows, float(np.exp(log_tau)))
        # mean KL(ref || p); ref entropy term is constant but kept for clarity
        nz = ref_rows > 0
        return float(
            np.sum(ref_rows[nz] * (np.log(ref_rows[nz]) - log_p[nz])) / len(contexts)
        )

    log_tau = golden_section_minimize(objective, LOG_TAU_LOW, LOG_TAU_HIGH, LOG_TAU_TOL)
    return float(np.exp(log_tau))


# --- model weight file ------------------------------------------------------
#
# The shared text-block format (rss.textio): header L/K/d, then one block
# per weight array, its (rows, columns, count) below; vectors are one-row blocks.

_BLOCKS = {"embed": ("K", "d", 1), "mask": (1, "d", 1), "positional": ("L", "d", 1),
           "mix": ("d", "d", 1), "readout": ("d", "K", 1), "bias": (1, "K", 1)}


def save_model(model: MaskedSequenceModel, path) -> None:
    length, vocab = model.shape
    arrays = {
        "embed": model.embed,
        "mask": model.mask_embed[None, :],
        "positional": model.positional,
        "mix": model.mix,
        "readout": model.readout,
        "bias": model.bias[None, :],
    }
    header = {"L": length, "K": vocab, "d": model.width}
    write_blocks(path, ["masked-sequence-model v1"], header,
                 [(name, arrays[name]) for name in _BLOCKS])


def load_model(path) -> MaskedSequenceModel:
    """The model a file holds. Each block must have the shape its header's
    L, K and d give, and every weight must be finite (``MaskedSequenceModel``),
    or a ValueError whose message starts with the path is raised."""
    _, blocks = read_blocks(path, {"L": int, "K": int, "d": int}, _BLOCKS)
    arrays = dict(blocks)
    try:
        return MaskedSequenceModel(
            embed=arrays["embed"],
            mask_embed=arrays["mask"][0],
            positional=arrays["positional"],
            mix=arrays["mix"],
            readout=arrays["readout"],
            bias=arrays["bias"][0],
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
