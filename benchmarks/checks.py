"""Checks of one round's outputs against the benchmark's own computations.

Each ``check_*`` function takes the round's output directory (plus what the
round was asked to do) and returns ``(problems, attempted, failed)``:
``problems`` lists every wrong output, ``attempted`` and ``failed`` count
the round's operations. An output is compared with ``reference`` or with a
property the method must have, never with a stored copy of an earlier run.
"""

from __future__ import annotations

import functools
import json
import os

import numpy as np

import reference

ENERGY_RTOL = 1e-9
CONDITIONAL_ATOL = 1e-12
THRESHOLD_RTOL = 1e-9
CURVE_QUANTILES = (0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5)


def _data_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]


def read_trace(path: str) -> list[dict]:
    lines = _data_lines(path)
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        rows.append({
            "step": int(row["step"]),
            "kind": row["kind"],
            "energy": float(row["energy"]),
            "mask_size": int(row["mask_size"]),
        })
    return rows


def read_snapshots(path: str) -> list[tuple[int, np.ndarray]]:
    lines = _data_lines(path)
    header = dict(ln.split() for ln in lines[:2])
    length = int(header["L"])
    snaps = []
    pos = 2
    while pos < len(lines):
        step = int(lines[pos].strip("[]").split()[1])
        block = np.array([[float(v) for v in ln.split()]
                          for ln in lines[pos + 1: pos + 1 + length]])
        snaps.append((step, block))
        pos += 1 + length
    return snaps


def check_run(out: str, cfg: dict) -> tuple[list[str], int, int]:
    """``rss run`` of target-profile + ridge + lam * SoftPlm.

    Every jump row has 1 <= mask_size <= s_max and every walk row 0; the
    energy at each snapshot, recomputed by ``reference.run_energy``, matches
    trace.csv to ENERGY_RTOL; energy_evaluations == steps + 1. Steps the
    chain did not complete count as failed.
    """
    steps = cfg["steps"]
    problems = []
    rows = read_trace(os.path.join(out, "trace.csv"))
    for row in rows:
        size, kind = row["mask_size"], row["kind"]
        if kind == "walk" and size != 0:
            problems.append(f"walk step {row['step']} has mask_size {size}")
        elif kind == "jump" and not 1 <= size <= cfg["s_max"]:
            problems.append(f"jump step {row['step']} has mask_size {size}")
        elif kind not in ("walk", "jump"):
            problems.append(f"step {row['step']} has kind {kind!r}")
    failed = steps - len(rows)
    if failed:
        return problems, steps, failed

    by_step = {row["step"]: row["energy"] for row in rows}
    targets = reference.target_profile(cfg["landscape_seed"], cfg["length"], cfg["vocab"])
    weights = reference.model_weights(cfg["model_seed"], cfg["length"], cfg["vocab"],
                                      cfg["width"])
    snapshots = read_snapshots(os.path.join(out, "snapshots.txt"))
    if len(snapshots) != steps // cfg["snapshot_stride"]:
        problems.append(f"{len(snapshots)} snapshots for {steps} steps")
    for step, logits in snapshots:
        mine = reference.run_energy(logits, targets, cfg["ridge_scale"], cfg["lambda"],
                                    weights, cfg["tau"])
        theirs = by_step.get(step)
        if theirs is None or abs(mine - theirs) > ENERGY_RTOL * abs(mine):
            problems.append(f"energy at step {step}: trace {theirs!r}, recomputed {mine!r}")

    with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    if summary["energy_evaluations"] != steps + 1:
        problems.append(f"energy_evaluations {summary['energy_evaluations']} != {steps + 1}")
    return problems, steps, 0


@functools.lru_cache(maxsize=1)
def enumerate_landscape(text: str) -> tuple[dict, np.ndarray]:
    """The parsed landscape and the discrete energy of every sequence; kept
    for the next round, which writes the same landscape."""
    landscape = reference.parse_landscape(text)
    seqs = reference.all_sequences(landscape["length"], landscape["vocab"])
    return landscape, reference.discrete_energies(landscape, seqs)


def check_bench(out: str, cfg: dict) -> tuple[list[str], int, int]:
    """``rss bench``: compute parity with every per-seed count equal to the
    budget; designable threshold and curve thresholds equal to quantiles of
    the brute-force enumeration of landscape.txt; every planted mode at
    least ``depth`` below the median, below the threshold and a strict
    local minimum. Seeds in ``failed_seeds`` count as failed seed x method
    runs.
    """
    with open(os.path.join(out, "campaign.json"), encoding="utf-8") as fh:
        campaign = json.load(fh)
    methods = cfg["methods"]
    attempted = cfg["seeds"] * len(methods)
    problems = []
    failed = sum(len(campaign["methods"][m]["failed_seeds"]) for m in methods)
    if not campaign["compute_parity"]:
        problems.append("compute_parity is false")
    for m in methods:
        evals = campaign["methods"][m]["per_seed_energy_evals"]
        if any(e != cfg["step_budget"] for e in evals):
            problems.append(f"{m}: per-seed evaluations {evals} != {cfg['step_budget']}")

    with open(os.path.join(out, "landscape.txt"), encoding="utf-8") as fh:
        landscape, energies = enumerate_landscape(fh.read())
    length, vocab = landscape["length"], landscape["vocab"]
    threshold = float(np.quantile(energies, 0.05))
    theirs = campaign["config"]["designable_threshold"]
    if abs(threshold - theirs) > THRESHOLD_RTOL * abs(threshold):
        problems.append(f"designable_threshold {theirs!r}, enumerated {threshold!r}")
    for m in methods:
        curve = [row["threshold"] for row in campaign["methods"][m]["curve"]]
        mine = [float(np.quantile(energies, q)) for q in CURVE_QUANTILES]
        if len(curve) != len(mine) or not np.allclose(curve, mine, rtol=THRESHOLD_RTOL, atol=0):
            problems.append(f"{m}: curve thresholds differ from the enumeration")

    median = float(np.median(energies))
    powers = vocab ** np.arange(length - 1, -1, -1)
    for mode in landscape["modes"]:
        e_mode = energies[int(mode @ powers)]
        if not (e_mode <= median - landscape["depth"] and e_mode < threshold):
            problems.append(f"mode {mode.tolist()} at {e_mode!r} is not deep enough")
        for i in range(length):
            for tok in range(vocab):
                if tok != mode[i]:
                    neighbor = mode.copy()
                    neighbor[i] = tok
                    if energies[int(neighbor @ powers)] <= e_mode:
                        problems.append(f"mode {mode.tolist()} is not a strict local minimum")

    return problems, attempted, failed


def check_bench_ranking(campaigns: list[dict]) -> list[str]:
    """rss ahead of rso at equal evaluations: summed over the run's rounds,
    strictly more pooled designable sequences and more clusters. Summed,
    because a single seed can come close (a margin of 2 sequences in 80
    one-seed campaigns)."""
    problems = []
    for key in ("pooled_designable", "pooled_clusters"):
        rss = sum(c["methods"]["rss"][key] for c in campaigns)
        rso = sum(c["methods"]["rso"][key] for c in campaigns)
        if not rss > rso:
            problems.append(f"{key}: rss {rss} is not above rso {rso}")
    return problems


def check_validate(out: str, cfg: dict, conditionals, contexts) -> tuple[list[str], int, int]:
    """``rss validate``: one-hot KL exactly 0, gradient Spearman exactly 1,
    mixture JS at eps 0 <= 1e-12, and the model's conditionals on the
    benchmark's contexts equal to ``reference.masked_log_conditionals`` to
    CONDITIONAL_ATOL. A metric whose value is null counts as failed.
    """
    with open(os.path.join(out, "validation.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    values = {k: v["value"] for k, v in report.items() if k != "_meta"}
    failed = sum(v is None for v in values.values())
    problems = []
    if values.get("onehot_fidelity_kl") != 0.0:
        problems.append(f"onehot_fidelity_kl {values.get('onehot_fidelity_kl')!r} != 0")
    for key in ("onehot_fidelity_grad_spearman_mean", "onehot_fidelity_grad_spearman_median"):
        if values.get(key) != 1.0:
            problems.append(f"{key} {values.get(key)!r} != 1")
    js0 = values.get("mixture_js_eps0.0")
    if js0 is None or not js0 <= 1e-12:
        problems.append(f"mixture_js_eps0.0 {js0!r} > 1e-12")

    weights = reference.model_weights(cfg["model_seed"], cfg["length"], cfg["vocab"],
                                      cfg["width"])
    if conditionals is None or len(conditionals) != len(contexts["marginals"]):
        problems.append("model conditionals on the benchmark's contexts are missing")
    else:
        for q, theirs in zip(contexts["marginals"], conditionals):
            mine = np.exp(reference.masked_log_conditionals(weights, np.array(q),
                                                            contexts["tau"]))
            err = float(np.abs(mine - np.array(theirs)).max())
            if err > CONDITIONAL_ATOL:
                problems.append(f"conditionals differ from the reference by {err:.3g}")
    return problems, len(values), failed
