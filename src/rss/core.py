"""Shared numeric primitives and the deterministic RNG used by every chain.

State is a real logit matrix of shape (L, K): L sequence positions, K
vocabulary tokens. Rows map to categorical marginals through a stabilized
softmax. Everything here is pure and operates on float64 arrays.
"""

from __future__ import annotations

import numpy as np

# Probabilities are clamped here before any log. The perturbation this
# introduces is < 1e-12 on every distribution the test suite touches.
LOG_FLOOR = 1e-300

# Fixed 20-letter display alphabet for decoded sequences (display only;
# tokens are integers 0..K-1 everywhere else).
DISPLAY_ALPHABET = "ACDEFGHIKLMNPQRSTVWY"


class Rng:
    """Deterministic random stream backed by numpy's PCG64.

    One Rng per chain; never share across threads. The same seed yields a
    bit-identical draw sequence for a given numpy version. Categorical and
    token draws consume exactly one uniform each (inverse CDF), so the
    draw order of every sampler operation is reproducible.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def normal(self, shape) -> np.ndarray:
        """Standard normal array of the given shape."""
        return self._gen.standard_normal(shape)

    def uniform(self) -> float:
        """One uniform draw in [0, 1)."""
        return float(self._gen.random())

    def uniforms(self, n: int) -> np.ndarray:
        return self._gen.random(n)

    def bernoulli(self, p: np.ndarray) -> np.ndarray:
        """Independent Bernoulli vector: one uniform per entry of p."""
        p = np.asarray(p, dtype=np.float64)
        return self.uniforms(p.shape[0]) < p

    def categorical(self, weights: np.ndarray) -> int:
        """Index drawn proportional to nonnegative weights (one uniform)."""
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("categorical weights must be a nonempty vector")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("categorical weights must be finite and nonnegative")
        cdf = np.cumsum(w)
        if cdf[-1] <= 0:
            raise ValueError("categorical weights sum to zero")
        return self.inverse_cdf(cdf)

    def inverse_cdf(self, cdf: np.ndarray) -> int:
        """Index of the first entry of ``cdf`` above one uniform times its
        last entry. Unchecked: ``cdf`` must be the cumulative sums, in index
        order, of nonnegative weights with a positive total."""
        idx = int(np.searchsorted(cdf, self.uniform() * cdf[-1], side="right"))
        return min(idx, cdf.size - 1)

    def integer(self, n: int) -> int:
        """Uniform token in [0, n) from a single uniform draw."""
        return min(int(self.uniform() * n), n - 1)


def as_logits(logits, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Validate and return a finite float64 (L, K) logit matrix, L >= 1, K >= 2.

    This is the check at every point where logits enter the program; with
    ``shape`` (an energy's shape) the matrix must also have that shape.
    """
    arr = np.asarray(logits, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"logit matrix must be 2-D, got shape {arr.shape}")
    length, vocab = arr.shape
    if length < 1 or vocab < 2:
        raise ValueError(f"logit matrix needs L >= 1 and K >= 2, got {arr.shape}")
    if shape is not None and arr.shape != shape:
        raise ValueError(f"logits shape {arr.shape} does not match energy shape {shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("logit matrix contains non-finite entries")
    return arr


def _softmax_parts(logits: np.ndarray) -> tuple:
    # (shifted, expd, norm) of RowSoftmax: the program's one row softmax
    shifted = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    return shifted, expd, expd.sum(axis=1, keepdims=True)


class RowSoftmax:
    """The one row softmax of a checked logit matrix (``softmax_rows`` is
    its ``q``), shared by every energy term of one evaluation
    (``EnergyModel.evaluate(logits, rows)``) and kept by its chain state.

    ``shifted`` (the logits less their row maxima), ``expd`` (their
    exponentials) and ``norm`` (the row sums of ``expd``) are computed on
    the first read of any part; ``q = expd / norm`` and ``log_q = shifted -
    log(norm)`` (finite where ``log(q)`` is -inf) on their own first reads,
    so a term that reads none takes no softmax. ``backprop`` takes dE/dq
    back to dE/dlogits. ``log_conditionals`` maps ``(model, tau)`` to the
    tempered masked-model log-conditionals a prior term computed on ``q``,
    which the chain reuses for its jumps.
    """

    def __init__(self, logits: np.ndarray):
        self.logits = logits
        self.log_conditionals = {}

    def __getattr__(self, name: str):
        # called only for an attribute not yet set: each part on first read
        if name not in ("shifted", "expd", "norm", "q", "log_q"):
            raise AttributeError(name)
        parts = vars(self)
        if "norm" not in parts:
            self.shifted, self.expd, self.norm = _softmax_parts(self.logits)
        if name == "q":
            self.q = self.expd / self.norm
        elif name == "log_q":
            self.log_q = self.shifted - np.log(self.norm)
        return parts[name]

    def backprop(self, dE_dq: np.ndarray) -> np.ndarray:
        """dE/dlogits from v = dE/dq: g_ik = q_ik * (v_ik - <v_i, q_i>)."""
        inner = (self.q * dE_dq).sum(axis=1, keepdims=True)
        return self.q * (dE_dq - inner)


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """``RowSoftmax(logits).q`` without the object: unchecked, for logits
    the program has already checked or built itself."""
    _, expd, norm = _softmax_parts(logits)
    return expd / norm


def row_marginals(logits) -> np.ndarray:
    """Per-row softmax of a logit matrix, computed with max subtraction.

    Each output row is a point on the (K-1)-simplex; rows sum to 1 within
    1e-12 and the result is invariant to adding a constant to any row.
    """
    return softmax_rows(as_logits(logits))


def argmax_decode(logits) -> np.ndarray:
    """Token sequence of per-row argmax indices; ties break to the lowest index."""
    arr = as_logits(logits)
    return np.argmax(arr, axis=1).astype(np.int64)


def one_hot(tokens, vocab: int) -> np.ndarray:
    """Exact one-hot simplex rows (entries 0.0 or 1.0) for integer tokens."""
    toks = np.asarray(tokens, dtype=np.int64)
    if toks.ndim != 1:
        raise ValueError("token sequence must be 1-D")
    if np.any(toks < 0) or np.any(toks >= vocab):
        raise ValueError(f"tokens must lie in [0, {vocab})")
    out = np.zeros((toks.size, vocab), dtype=np.float64)
    out[np.arange(toks.size), toks] = 1.0
    return out


def hamming_distance(a, b) -> int:
    return int((np.asarray(a) != np.asarray(b)).sum())


def as_simplex_rows(rows, name: str) -> np.ndarray:
    """Validate and return float64 ``rows`` whose rows (along the last
    axis) are finite, nonnegative and sum to 1 within 1e-8; ``name`` names
    them in the error. The one simplex check: each caller checks its shape."""
    arr = np.asarray(rows, dtype=np.float64)
    if not np.all(np.isfinite(arr)) or np.any(arr < 0):
        raise ValueError(f"{name} must be finite and nonnegative")
    if np.any(np.abs(arr.sum(axis=-1) - 1.0) > 1e-8):
        raise ValueError(f"{name} must sum to 1")
    return arr


def _check_simplex_pair(p, q):
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError(f"distribution lengths differ: {p.shape} vs {q.shape}")
    return as_simplex_rows(p, "p"), as_simplex_rows(q, "q")


def cross_entropy(p, q) -> float:
    """-sum_k p[k] log q[k], with q floored at 1e-300 before the log."""
    p, q = _check_simplex_pair(p, q)
    return float(-(p * np.log(np.maximum(q, LOG_FLOOR))).sum())


def _kl(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Unchecked KL(p || q) along the last axis; q floored at 1e-300, and
    p-zero terms contribute 0 (their log is taken at 1)."""
    log_p = np.log(np.where(p > 0, p, 1.0))
    return (p * (log_p - np.log(np.maximum(q, LOG_FLOOR)))).sum(axis=-1)


def kl_divergence(p, q) -> float:
    """KL(p || q) in nats; q floored at 1e-300, p-zero terms contribute 0."""
    return float(_kl(*_check_simplex_pair(p, q)))


def _js(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Unchecked Jensen-Shannon divergence along the last axis."""
    mid = 0.5 * (p + q)
    return 0.5 * _kl(p, mid) + 0.5 * _kl(q, mid)


def decode_to_letters(tokens) -> str:
    """Display form of a token sequence; only defined for K <= 20 vocabularies."""
    toks = np.asarray(tokens, dtype=np.int64)
    if np.any(toks < 0) or np.any(toks >= len(DISPLAY_ALPHABET)):
        raise ValueError("token out of range for the 20-letter display alphabet")
    return "".join(DISPLAY_ALPHABET[t] for t in toks)
