"""Sampler-vs-optimizer benchmark at matched compute on planted landscapes.

The baseline is plain gradient descent on the same energy (with or without
the masked-model prior term); the comparison pools decoded candidates from
both methods at identical snapshot counts and identical energy-evaluation
budgets, then scores unique designable sequences and Hamming-cluster
diversity against enumeration ground truth.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass

import numpy as np

from .core import Rng, argmax_decode, as_logits, hamming_distance
from .energy import (
    CURVE_QUANTILES,
    DESIGNABLE_QUANTILE,
    CompositeEnergy,
    CountingEnergy,
    EnergyModel,
    GaussianEnergy,
    PairwiseContactEnergy,
    PlantedLandscape,
)
from .sampler import ChainState, SamplerConfig, run_chain
from .softplm import MaskedSequenceModel, SoftPlmEnergy

METHODS = ("rss", "rso", "rso-noplm")
INIT_SCALE = 0.5      # every chain and descent starts from INIT_SCALE * N(0, 1) logits


@dataclass
class RsoTrajectory:
    states: list                  # logit matrices, one per step plus the start
    diverged: bool
    energy_evaluations: int


def run_rso(logits0, energy: EnergyModel, eta: float, steps: int) -> RsoTrajectory:
    """Deterministic gradient descent: logits <- logits - eta * grad.

    Every state including the final one is evaluated, each by one
    ``ChainState.evaluated`` (steps + 1 evaluations for a full run). The
    trajectory is truncated and flagged if a state's value or gradient, or
    a step, goes non-finite or the energy rises 100 steps in a row.
    """
    if not eta > 0:  # written so that NaN fails too
        raise ValueError("eta must be positive")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    counting = CountingEnergy(energy)
    state = ChainState.evaluated(as_logits(logits0, energy.shape).copy(), counting)
    states = [state.logits]
    diverged = False
    previous = np.inf
    rising = 0
    for _ in range(steps):
        rising = rising + 1 if state.energy > previous else 0
        if not state.finite or rising >= 100:
            diverged = True
            break
        previous = state.energy
        with np.errstate(over="ignore", invalid="ignore"):
            stepped = state.logits - eta * state.gradient
        if not np.all(np.isfinite(stepped)):
            diverged = True
            break
        state = ChainState.evaluated(stepped, counting)
        states.append(stepped)
    return RsoTrajectory(states=states, diverged=diverged, energy_evaluations=counting.calls)


def cluster_sequences(seqs, radius: int) -> np.ndarray:
    """Greedy leader clustering in input order.

    A sequence joins the first existing cluster whose leader is within
    Hamming distance <= radius, otherwise it founds a new cluster. Returns
    per-sequence cluster ids.
    """
    seqs = np.asarray(seqs, dtype=np.int64)
    if radius < 0:
        raise ValueError("radius must be >= 0")
    leaders: list[np.ndarray] = []
    labels = np.empty(seqs.shape[0], dtype=np.int64)
    for row, seq in enumerate(seqs):
        for cid, leader in enumerate(leaders):
            if hamming_distance(seq, leader) <= radius:
                labels[row] = cid
                break
        else:
            labels[row] = len(leaders)
            leaders.append(seq)
    return labels


def unique_sequences(seqs) -> np.ndarray:
    """De-duplicated rows in canonical (lexicographically sorted) order."""
    return np.unique(np.asarray(seqs, dtype=np.int64), axis=0)


def designable_surrogate(seqs, energy: PairwiseContactEnergy, threshold: float) -> np.ndarray:
    """Unique sequences whose discrete energy falls below ``threshold``.

    For a planted landscape the threshold is one of ``landscape.thresholds``.
    """
    uniq = unique_sequences(seqs)
    return uniq[energy.discrete_energies(uniq) < threshold]


def mode_occupancy(seqs, modes, radius: int) -> np.ndarray:
    """Counts of sequences within ``radius`` of each planted mode, plus 'other'.

    Sequences are assigned to the nearest mode by Hamming distance; ties go
    to the lowest mode index; anything farther than ``radius`` from every
    mode lands in the trailing 'other' bucket.
    """
    seqs = np.asarray(seqs, dtype=np.int64)
    modes = np.asarray(modes, dtype=np.int64)
    counts = np.zeros(modes.shape[0] + 1, dtype=np.int64)
    for seq in seqs:
        dists = (modes != seq[None, :]).sum(axis=1)
        best = int(np.argmin(dists))
        if dists[best] <= radius:
            counts[best] += 1
        else:
            counts[-1] += 1
    return counts


@dataclass
class CampaignConfig:
    """One benchmark campaign comparing methods on a single landscape."""

    landscape: PlantedLandscape
    sampler: SamplerConfig
    seeds: int
    step_budget: int                       # energy evaluations per seed
    methods: tuple = METHODS
    model: MaskedSequenceModel | None = None
    lam: float = 0.0                       # prior weight for rss / rso
    ridge_scale: float = 0.0               # confining quadratic term; 0 disables
    rso_eta: float | None = None           # defaults to sampler.eta
    snapshot_stride: int = 50
    seed0: int = 0

    def __post_init__(self):
        for method in self.methods:
            if method not in METHODS:
                raise ValueError(f"unknown method {method!r}")
        if not self.methods or len(set(self.methods)) < len(self.methods):
            raise ValueError(f"methods must be nonempty and distinct, got {list(self.methods)}")
        if self.seeds < 1:
            raise ValueError("seeds must be >= 1")
        if self.step_budget < 0:
            raise ValueError("step_budget must be >= 0")
        # `not x >= 0`, not `x < 0`, so that NaN fails too
        if not self.lam >= 0:
            raise ValueError("prior weight lam must be >= 0")
        # the ridge term's checks, here rather than in every seed
        compose_energy(self.landscape.energy, self.ridge_scale, None, 0.0, 1.0)
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")
        if self.seed0 < 0:
            raise ValueError(f"seed0 must be >= 0, got {self.seed0}")
        if self.rso_eta is not None and not self.rso_eta > 0:
            raise ValueError(f"rso_eta must be positive, got {self.rso_eta}")
        if self.lam > 0 and self.model is None and (
            "rss" in self.methods or "rso" in self.methods
        ):
            raise ValueError("lam > 0 requires a masked sequence model")
        if "rss" in self.methods and self.sampler.p_jump > 0 and self.model is None:
            raise ValueError("p_jump > 0 requires a masked sequence model")


@dataclass
class MethodResult:
    method: str
    per_seed_designable: list
    per_seed_clusters: list
    per_seed_energy_evals: list
    pooled_designable: int
    pooled_clusters: int
    failed_seeds: list
    failure_reasons: list                  # "<Type>: <message>" per failed seed
    curve: list                            # (threshold, count, rate) rows

    # the medians are None (JSON null) when no seed succeeded
    @property
    def median_designable(self) -> float | None:
        return float(np.median(self.per_seed_designable)) if self.per_seed_designable else None

    @property
    def median_clusters(self) -> float | None:
        return float(np.median(self.per_seed_clusters)) if self.per_seed_clusters else None

    @property
    def total_energy_evals(self) -> int:
        return int(sum(self.per_seed_energy_evals))


@dataclass
class CampaignReport:
    results: dict                          # method -> MethodResult
    compute_parity: bool
    config_echo: dict

    def to_json(self, meta: dict | None = None) -> str:
        payload = {
            "compute_parity": self.compute_parity,
            "config": self.config_echo,
            "methods": {
                name: {
                    "per_seed_designable": res.per_seed_designable,
                    "per_seed_clusters": res.per_seed_clusters,
                    "per_seed_energy_evals": res.per_seed_energy_evals,
                    "median_designable": res.median_designable,
                    "median_clusters": res.median_clusters,
                    "pooled_designable": res.pooled_designable,
                    "pooled_clusters": res.pooled_clusters,
                    "total_energy_evals": res.total_energy_evals,
                    "failed_seeds": res.failed_seeds,
                    # only where a seed failed, so clean campaigns keep their bytes
                    **({"failure_reasons": res.failure_reasons} if res.failed_seeds else {}),
                    "curve": [
                        {"threshold": t, "count": c, "rate": r}
                        for t, c, r in res.curve
                    ],
                }
                for name, res in sorted(self.results.items())
            },
        }
        if meta:
            payload["_meta"] = meta
        return json.dumps(payload, indent=2, sort_keys=True)

    def curve_csv(self) -> str:
        lines = ["method,threshold,designable_count,success_rate"]
        for name in sorted(self.results):
            for t, c, r in self.results[name].curve:
                lines.append(f"{name},{t!r},{c},{r!r}")
        return "\n".join(lines) + "\n"


def compose_energy(
    base: EnergyModel,
    ridge_scale: float,
    model: MaskedSequenceModel | None,
    lam: float,
    tau: float,
) -> EnergyModel:
    """base (+ ridge Gaussian, weight 1) (+ lam * SoftPlm at tau), nested in
    that order; a zero ridge_scale or lam leaves its term out."""
    if not ridge_scale >= 0:  # written so that NaN fails too
        raise ValueError("ridge_scale must be >= 0")
    if lam > 0 and model is None:
        raise ValueError("lam > 0 requires a masked sequence model")
    energy = base
    if ridge_scale > 0:
        # bounded coupling energies make exp(-beta E) improper over logit
        # space; a weak quadratic keeps the target normalizable without
        # touching the discrete landscape used for scoring
        energy = CompositeEnergy(energy, GaussianEnergy(np.zeros(base.shape), ridge_scale), 1.0)
    if lam != 0.0:
        energy = CompositeEnergy(energy, SoftPlmEnergy(model, tau), lam)
    return energy


def _run_one_seed(cfg: CampaignConfig, method: str, seed_index: int):
    """Returns (decoded candidate matrix, energy evaluations used). The
    candidates are the state at every ``snapshot_stride``-th step and the
    last state, which may repeat one; scoring reads unique rows only."""
    rng = Rng(cfg.seed0 + seed_index)
    shape = cfg.landscape.energy.shape
    logits0 = INIT_SCALE * rng.normal(shape)
    if cfg.step_budget == 0:
        return argmax_decode(logits0)[None, :], 0

    energy = compose_energy(
        cfg.landscape.energy, cfg.ridge_scale, cfg.model,
        0.0 if method == "rso-noplm" else cfg.lam, cfg.sampler.tau,
    )
    steps = cfg.step_budget - 1
    stride = cfg.snapshot_stride

    if method == "rss":
        chain_cfg = dataclasses.replace(cfg.sampler, steps=steps)
        summary = run_chain(
            logits0, chain_cfg, energy, model=cfg.model, rng=rng, snapshot_stride=stride,
        )
        states = [logits for _, logits in summary.snapshots] + [summary.final_state.logits]
        evals = summary.energy_evaluations
    else:
        eta = cfg.rso_eta if cfg.rso_eta is not None else cfg.sampler.eta
        traj = run_rso(logits0, energy, eta, steps)
        states = traj.states[stride::stride] + traj.states[-1:]
        evals = traj.energy_evaluations

    decoded = np.stack([argmax_decode(s) for s in states])
    return decoded, evals


def _run_task(cfg: CampaignConfig, method: str, seed_index: int):
    """``_run_one_seed``'s result, or its failure as "<Type>: <message>"."""
    try:
        return _run_one_seed(cfg, method, seed_index)
    except Exception as exc:  # one failed seed must not end the campaign
        return f"{type(exc).__name__}: {exc}"


_worker_cfg: CampaignConfig | None = None


def _init_worker(cfg: CampaignConfig) -> None:
    # a forked worker inherits cfg; tasks then carry only (method, seed_index)
    global _worker_cfg
    _worker_cfg = cfg


def _run_worker_task(task):
    return _run_task(_worker_cfg, *task)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_tasks(cfg: CampaignConfig, tasks: list) -> list:
    """``_run_task`` on every (method, seed_index), results in task order.

    The tasks are independent, so they run in a fork-context process pool
    of at most one worker per usable CPU, or in this process where there is
    one CPU or no ``fork``. Either way a seed's result is the same bits.
    ``fork``, not ``spawn``: a forked worker starts in about 10 ms with the
    config already in memory, where a spawned one re-imports ``rss`` and
    numpy (0.3-0.7 s for a pool of two), and rss starts no threads of its own.
    """
    # imported here, not at the top: `rss run` and `rss validate` start no
    # pool, and these modules add about 10 ms and 1 MB to every `import rss`
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    workers = min(len(tasks), _usable_cpus())
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [_run_task(cfg, *task) for task in tasks]
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=workers, mp_context=context,
                             initializer=_init_worker, initargs=(cfg,)) as pool:
        return list(pool.map(_run_worker_task, tasks))


def _cluster_count(seqs, radius: int) -> int:
    return int(cluster_sequences(seqs, radius).max() + 1) if seqs.shape[0] else 0


def run_campaign(cfg: CampaignConfig) -> CampaignReport:
    """Run every configured method over all seeds and build the report.

    Every threshold is one of ``landscape.thresholds``, which certified the
    landscape: the designable one is its ``DESIGNABLE_QUANTILE`` entry, and
    the curve has a row per entry. The campaign enumerates nothing. Each
    method's pooled unique candidates are scored once, and the designable
    count and the curve rows are read from those energies.

    The (method, seed) tasks run on every usable CPU (``_run_tasks``);
    their results are assembled in task order, so the report is the same
    bytes as a serial run. Per-seed failures are recorded with their reason
    and skipped, not fatal. Compute parity (identical per-seed evaluation
    counts across methods) is tracked from actual call counts and reported,
    never assumed.
    """
    landscape = cfg.landscape
    radius = landscape.energy.shape[0] // 4    # Hamming radius of a cluster
    threshold = landscape.thresholds[CURVE_QUANTILES.index(DESIGNABLE_QUANTILE)]

    tasks = [(m, i) for m in cfg.methods for i in range(cfg.seeds)]
    outcomes = iter(_run_tasks(cfg, tasks))
    results = {}
    for method in cfg.methods:
        per_designable, per_clusters, per_evals, failed, reasons = [], [], [], [], []
        pooled = []
        for seed_index in range(cfg.seeds):
            outcome = next(outcomes)
            if isinstance(outcome, str):
                failed.append(seed_index)
                reasons.append(outcome)
                continue
            decoded, evals = outcome
            per_evals.append(evals)
            pooled.append(decoded)
            designable = designable_surrogate(decoded, landscape.energy, threshold)
            per_designable.append(int(designable.shape[0]))
            per_clusters.append(_cluster_count(designable, radius))

        empty = np.zeros((0, landscape.energy.shape[0]), dtype=np.int64)
        pooled_unique = unique_sequences(np.concatenate(pooled or [empty]))
        pooled_energies = landscape.energy.discrete_energies(pooled_unique)
        pooled_designable = pooled_unique[pooled_energies < threshold]
        counts = [int((pooled_energies < thr).sum()) for thr in landscape.thresholds]
        n_unique = max(pooled_unique.shape[0], 1)  # an empty pool rates 0.0
        curve = [(thr, c, c / n_unique) for thr, c in zip(landscape.thresholds, counts)]

        results[method] = MethodResult(
            method=method,
            per_seed_designable=per_designable,
            per_seed_clusters=per_clusters,
            per_seed_energy_evals=per_evals,
            pooled_designable=int(pooled_designable.shape[0]),
            pooled_clusters=_cluster_count(pooled_designable, radius),
            failed_seeds=failed,
            failure_reasons=reasons,
            curve=curve,
        )

    parity = _check_parity(results)
    config_echo = {
        "seeds": cfg.seeds,
        "step_budget": cfg.step_budget,
        "methods": list(cfg.methods),
        "lam": cfg.lam,
        "ridge_scale": cfg.ridge_scale,
        "snapshot_stride": cfg.snapshot_stride,
        "cluster_radius": radius,
        "designable_quantile": DESIGNABLE_QUANTILE,
        "designable_threshold": threshold,
        "seed0": cfg.seed0,
        "init_scale": INIT_SCALE,
        "landscape_seed": landscape.seed,
        "landscape_shape": list(landscape.energy.shape),
        "landscape_modes": int(landscape.modes.shape[0]),
    }
    return CampaignReport(results=results, compute_parity=parity, config_echo=config_echo)


def _check_parity(results: dict) -> bool:
    eval_lists = [res.per_seed_energy_evals for res in results.values()]
    if not eval_lists:
        return True
    first = eval_lists[0]
    return all(lst == first for lst in eval_lists[1:])
