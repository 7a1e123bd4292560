"""Oracles the tests check the library against: independent reference
computations that the library itself never runs.

``finite_diff_gradient`` checks every analytic gradient, ``js_divergence``
and ``entropy`` score distributions, ``exact_mixture_reference`` is the
enumerated marginalization behind the mixture-consistency check, and
``size_table`` and ``normalized_size_law`` are two references for the jump
mask's size table (``rss.sampler.MaskLaw``).
"""

import itertools
import math

import numpy as np

from rss.core import _check_simplex_pair, _js, as_logits
from rss.softplm import MaskedSequenceModel
from rss.verify import _blurred_marginals


def entropy(p) -> float:
    """Shannon entropy in nats; 0 log 0 treated as 0."""
    p = np.asarray(p, dtype=np.float64)
    nz = p > 0
    return float(-(p[nz] * np.log(p[nz])).sum())


def js_divergence(p, q) -> float:
    """Jensen-Shannon divergence (natural log, midpoint mixture); in [0, ln 2]."""
    return float(_js(*_check_simplex_pair(p, q)))


def finite_diff_gradient(fn, logits, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a logit matrix.

    This is the independent oracle every analytic gradient in the package
    is checked against. O(2*L*K) function evaluations.
    """
    base = as_logits(logits)
    if h <= 0:
        raise ValueError("step h must be positive")
    grad = np.empty_like(base)
    work = base.copy()
    for i in range(base.shape[0]):
        for k in range(base.shape[1]):
            orig = work[i, k]
            work[i, k] = orig + h
            f_plus = fn(work)
            work[i, k] = orig - h
            f_minus = fn(work)
            work[i, k] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise ValueError(
                    f"non-finite function value while differencing entry ({i}, {k})"
                )
            grad[i, k] = (f_plus - f_minus) / (2.0 * h)
    return grad


def exact_mixture_reference(
    model: MaskedSequenceModel, tokens, blur_sites, eps: float, tau: float = 1.0
) -> np.ndarray:
    """Exact marginalization of discrete conditionals over blurred sites.

    Enumerates every assignment of the blurred positions weighted by the
    blurred marginals; feasible only for small vocab**len(blur_sites).
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    blur_sites = np.asarray(blur_sites, dtype=np.int64)
    length, vocab = model.shape
    marg = _blurred_marginals(tokens, blur_sites, eps, vocab)
    reference = np.zeros((length, vocab))
    for assignment in itertools.product(range(vocab), repeat=blur_sites.size):
        weight = float(np.prod([marg[s, a] for s, a in zip(blur_sites, assignment)]))
        if weight == 0.0:
            continue
        draw = tokens.copy()
        draw[blur_sites] = assignment
        reference += weight * model.conditionals_from_tokens(draw, tau)
    return reference


def size_table(probs, s_max: int) -> tuple[list, float]:
    """(table, z) of the unscaled size-table loop: ``table[i][k]`` =
    P(exactly k of sites 0..i-1 are picked), k <= s_max, and z = Z(p). Its
    entries sink into subnormals once Z(p) falls below about 1e-308."""
    cap = min(s_max, len(probs))
    row = [1.0] + [0.0] * cap
    table = [row]
    downward = range(cap, 0, -1)
    for p in np.asarray(probs, dtype=np.float64).tolist():
        q = 1.0 - p
        row = row.copy()
        for k in downward:
            row[k] = row[k] * q + row[k - 1] * p
        row[0] *= q
        table.append(row)
    return table, float(np.sum(row[1:]))


def normalized_size_law(probs, s_max: int) -> tuple[float, np.ndarray]:
    """(log Z(p), P(|S| = k | 1 <= |S| <= s_max) for k = 1..s_max) from the
    same recursion with each row divided by its sum and the log of that
    sum accumulated, so no entry underflows at any length."""
    dist = np.zeros(min(s_max, len(probs)) + 1)
    dist[0] = 1.0
    log_scale = 0.0
    for p in np.asarray(probs, dtype=np.float64):
        dist[1:] = dist[1:] * (1.0 - p) + dist[:-1] * p
        dist[0] *= 1.0 - p
        total = dist.sum()
        dist /= total
        log_scale += math.log(total)
    z = dist[1:].sum()
    return log_scale + math.log(z), dist[1:] / z
