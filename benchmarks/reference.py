"""The benchmark's own numpy implementations of the documented formulas.

Nothing here imports ``rss``: these are the independent computations the
benchmark checks the program's outputs against.

- Weight and profile draws: numpy's PCG64 generator seeded with the
  configured seed, ``standard_normal`` draws in the documented order.
- Masked model (README "The masked sequence model"): per site i over
  context rows e_j = q_j @ embed + positional_j,
      m_i = mean_{j != i} e_j,
      h_i = tanh(mix @ m_i + mask_embed + positional_i),
      p_i = softmax((bias + readout^T h_i) / tau).
- Energies: target-profile cross-entropy sum_i H(t_i, q_i), the ridge
  ||x||^2 / (2 s^2), and the SoftPlm term sum_i H(q_i, p_i(.|q; tau)).
- Planted landscapes: the text format of ``landscape.txt`` and the discrete
  energy sum_i h_i[x_i] + sum_(i,j) M_ij[x_i, x_j], enumerated over all K^L
  sequences.
"""

from __future__ import annotations

import numpy as np


def _normals(seed: int, shapes):
    gen = np.random.Generator(np.random.PCG64(seed))
    return [gen.standard_normal(shape) for shape in shapes]


def target_profile(seed: int, length: int, vocab: int) -> np.ndarray:
    """Target compositions: rows of |N(0, 1)| + 0.1, normalized to sum 1."""
    (raw,) = _normals(seed, [(length, vocab)])
    raw = np.abs(raw) + 0.1
    return raw / raw.sum(axis=1, keepdims=True)


def model_weights(seed: int, length: int, vocab: int, width: int) -> dict:
    """Masked-model weights, N(0, 1) draws scaled by 1/sqrt(width)."""
    names = ("embed", "mask_embed", "positional", "mix", "readout", "bias")
    shapes = ((vocab, width), (width,), (length, width), (width, width),
              (width, vocab), (vocab,))
    scale = 1.0 / np.sqrt(width)
    return {n: scale * a for n, a in zip(names, _normals(seed, shapes))}


def log_softmax_rows(x: np.ndarray) -> np.ndarray:
    s = x - x.max(axis=1, keepdims=True)
    return s - np.log(np.exp(s).sum(axis=1, keepdims=True))


def masked_log_conditionals(w: dict, q: np.ndarray, tau: float) -> np.ndarray:
    """log p_i(.|q; tau) for every site, with the context mean taken
    explicitly over j != i."""
    length = q.shape[0]
    ctx = q @ w["embed"] + w["positional"]
    out = np.empty((length, w["bias"].size))
    for i in range(length):
        others = np.delete(ctx, i, axis=0)
        mean = others.mean(axis=0) if length > 1 else np.zeros(ctx.shape[1])
        hidden = np.tanh(w["mix"] @ mean + w["mask_embed"] + w["positional"][i])
        out[i] = (w["bias"] + w["readout"].T @ hidden) / tau
    return log_softmax_rows(out)


def run_energy(x: np.ndarray, targets: np.ndarray, ridge_scale: float,
               lam: float, w: dict, tau: float) -> float:
    """Target-profile + ridge + lam * SoftPlm energy of a logit matrix."""
    log_q = log_softmax_rows(x)
    q = np.exp(log_q)
    profile = -(targets * log_q).sum()
    ridge = (x * x).sum() / (2.0 * ridge_scale * ridge_scale)
    prior = -(q * masked_log_conditionals(w, q, tau)).sum()
    return float(profile + ridge + lam * prior)


def parse_landscape(text: str) -> dict:
    """Reads the text of a ``planted-landscape v1`` file: header keys,
    [fields], one [contact i j] block per coupling, [modes]."""
    header, blocks, current = {}, [], None
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            current = (line[1:-1].split(), [])
            blocks.append(current)
        elif current is None:
            key, value = line.split(maxsplit=1)
            header[key] = value
        else:
            current[1].append([float(v) for v in line.split()])
    contacts = [(int(tag[1]), int(tag[2]), np.array(rows))
                for tag, rows in blocks if tag[0] == "contact"]
    by_tag = {tag[0]: np.array(rows) for tag, rows in blocks}
    return {
        "length": int(header["L"]),
        "vocab": int(header["K"]),
        "depth": float(header["depth"]),
        "fields": by_tag["fields"],
        "contacts": contacts,
        "modes": by_tag["modes"].astype(np.int64),
    }


def all_sequences(length: int, vocab: int) -> np.ndarray:
    """Every token sequence, (K^L, L), position 0 most significant."""
    grids = np.meshgrid(*[np.arange(vocab)] * length, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def discrete_energies(landscape: dict, seqs: np.ndarray) -> np.ndarray:
    sites = np.arange(landscape["length"])
    total = landscape["fields"][sites, seqs].sum(axis=1)
    for i, j, m in landscape["contacts"]:
        total = total + m[seqs[:, i], seqs[:, j]]
    return total
