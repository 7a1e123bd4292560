"""Acceptance gate: every shipped guarantee at its stated tolerance.

Each criterion prints one [PASS]/[FAIL] line (run with `pytest -s` to see
them live). Criterion functions are deterministic given their internal
seeds and return a canonical report string; the final criterion re-runs
all of them and requires byte-identical reports.
"""

import hashlib
import json
import math
import os
import tempfile

import numpy as np

from rss.bench import CampaignConfig, run_campaign
from rss.cli import main as cli_main
from rss.core import Rng, one_hot, row_marginals
from rss.energy import (
    CompositeEnergy,
    GaussianEnergy,
    PairwiseContactEnergy,
    TargetProfileEnergy,
    planted_landscape,
)
from rss.sampler import (
    ChainState,
    SamplerConfig,
    WalkProposal,
    ess_and_autocorr,
    mask_normalizer,
    mask_probabilities,
    run_chain,
    walk_accept,
    walk_propose,
)
from rss.softplm import MaskedSequenceModel, SoftPlmEnergy
from rss.verify import (
    enumerate_jump_flow,
    mixture_consistency,
    onehot_fidelity,
    random_sequences,
)

from oracles import exact_mixture_reference, finite_diff_gradient, js_divergence

_CACHE: dict[int, tuple] = {}


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _get(n: int) -> tuple:
    if n not in _CACHE:
        _CACHE[n] = _CRITERIA[n]()
    return _CACHE[n]


def _emit(n: int, name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {name} ({detail})")
    assert ok, f"criterion {n} failed: {detail}"


# --- criterion 1: gradient correctness ---------------------------------------


def _criterion_1():
    length, vocab, width = 5, 4, 8
    rng = Rng(1001)
    msm = MaskedSequenceModel.random(length, vocab, width, rng)
    contacts = [
        (i, j, rng.normal((vocab, vocab)))
        for i in range(length)
        for j in range(i + 1, length)
    ]
    models = {
        "target_profile": TargetProfileEnergy(row_marginals(rng.normal((length, vocab)))),
        "pairwise_contact": PairwiseContactEnergy(contacts, rng.normal((length, vocab))),
        "gaussian": GaussianEnergy(rng.normal((length, vocab)), 1.4),
        "softplm": SoftPlmEnergy(msm, 0.8),
        "composite": CompositeEnergy(
            PairwiseContactEnergy(contacts, rng.normal((length, vocab))),
            SoftPlmEnergy(msm, 0.8),
            0.4,
        ),
    }
    rel, floor = 1e-5, 1e-8
    worst = {}
    point_rng = Rng(1002)
    for name, energy in models.items():
        w = 0.0
        for _ in range(100):
            logits = point_rng.normal((length, vocab))
            _, grad = energy.evaluate(logits)
            fd = finite_diff_gradient(lambda x: energy.evaluate(x)[0], logits)
            err = np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), floor / rel))
            w = max(w, err)
        worst[name] = w
    ok = all(w < rel for w in worst.values())
    detail = ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
    report = "|".join(f"{k}={_fmt(v)}" for k, v in sorted(worst.items()))
    return ok, detail, report


# --- criterion 2: walk detailed balance ---------------------------------------


def _criterion_2():
    length, vocab = 4, 5
    energy = GaussianEnergy(Rng(2001).normal((length, vocab)), 1.0)
    cfg = SamplerConfig(beta=1.3, eta=0.09)
    rng = Rng(2002)
    worst = 0.0
    for _ in range(1000):
        state = ChainState.initialize(rng.normal((length, vocab)), energy)
        prop = walk_propose(state, cfg, energy, rng)
        state2 = ChainState(prop.logits, prop.energy, prop.gradient)
        rev = WalkProposal(
            state.logits, state.energy, state.gradient,
            prop.log_q_reverse, prop.log_q_forward,
        )
        forward = -cfg.beta * state.energy + prop.log_q_forward + walk_accept(state, prop, cfg)
        reverse = -cfg.beta * prop.energy + prop.log_q_reverse + walk_accept(state2, rev, cfg)
        worst = max(worst, abs(forward - reverse))
    return worst < 1e-10, f"worst log-flow gap {worst:.2e} over 1000 pairs", _fmt(worst)


# --- criterion 3: jump detailed balance (enumerated) ---------------------------


def _jump_instance(length, vocab, seed):
    rng = Rng(seed)
    model = MaskedSequenceModel.random(length, vocab, 6, rng)
    contacts = [
        (i, j, rng.normal((vocab, vocab)))
        for i in range(length)
        for j in range(i + 1, length)
    ]
    structural = PairwiseContactEnergy(contacts, rng.normal((length, vocab)))
    energy = CompositeEnergy(
        CompositeEnergy(structural, GaussianEnergy(np.zeros((length, vocab)), 2.0), 1.0),
        SoftPlmEnergy(model, 1.0),
        0.25,
    )
    return energy, model, rng


def _criterion_3():
    worst_exact = 0.0
    worst_paper = 0.0
    pairs = 0
    for inst, (length, vocab) in enumerate([(3, 3), (3, 4), (4, 3), (4, 4)]):
        energy, model, rng = _jump_instance(length, vocab, 3001 + inst)
        gamma = 2.0
        for trial in range(13):
            if pairs >= 50:
                break
            a = rng.normal((length, vocab))
            b = a.copy()
            n_swap = 1 + trial % 2
            sites = []
            while len(sites) < n_swap:
                s = rng.integer(length)
                if s not in sites:
                    sites.append(s)
            for s in sites:
                y_plus = rng.integer(vocab)
                y_minus = (y_plus + 1 + rng.integer(vocab - 1)) % vocab
                b[s, y_plus] += gamma
                b[s, y_minus] -= gamma
            cfg_exact = SamplerConfig(beta=0.8, eta=0.1, gamma=gamma, kappa=0.5,
                                      s_max=2, mask_mode="exact")
            res = enumerate_jump_flow(energy, model, cfg_exact, a, b)
            assert res.reachable
            worst_exact = max(worst_exact, abs(res.log_forward - res.log_reverse))

            cfg_paper = SamplerConfig(beta=0.8, eta=0.1, gamma=gamma, kappa=0.5,
                                      s_max=2, mask_mode="paper")
            resp = enumerate_jump_flow(energy, model, cfg_paper, a, b)
            _, g_a = energy.evaluate(a)
            _, g_b = energy.evaluate(b)
            z_a = mask_normalizer(mask_probabilities(g_a, 0.5), 2)
            z_b = mask_normalizer(mask_probabilities(g_b, 0.5), 2)
            gap = (resp.log_forward - resp.log_reverse) - (math.log(z_b) - math.log(z_a))
            worst_paper = max(worst_paper, abs(gap))
            pairs += 1
    ok = worst_exact < 1e-10 and worst_paper < 1e-10 and pairs == 50
    detail = (f"{pairs} pairs; exact-mode gap {worst_exact:.2e}, "
              f"paper-mode normalizer identity gap {worst_paper:.2e}")
    return ok, detail, f"{_fmt(worst_exact)}|{_fmt(worst_paper)}"


# --- criterion 4: MALA sampling correctness -------------------------------------


def _criterion_4():
    center = Rng(2).normal((5, 4))  # L*K = 20 dims
    scale = 1.0
    energy = GaussianEnergy(center, scale)
    burn = 5000
    cfg = SamplerConfig(beta=1.0, eta=0.3, p_jump=0.0, steps=burn + 100_000,
                        adapt_eta=True, burn_in=burn)
    summary = run_chain(center.copy(), cfg, energy, rng=Rng(20260810), snapshot_stride=1)
    post = np.stack([s for (t, s) in summary.snapshots if t > burn])
    mean_err = float(np.max(np.abs(post.mean(axis=0) - center)))
    var_err = float(np.max(np.abs(post.var(axis=0) - scale**2 / cfg.beta) / (scale**2 / cfg.beta)))
    acc = summary.acceptance("walk", post_burn_in=True)
    ok = mean_err < 0.05 and var_err < 0.05 and 0.40 <= acc <= 0.60
    detail = f"mean err {mean_err:.4f} (<0.05), var rel err {var_err:.4f} (<5%), acceptance {acc:.3f} in [0.40, 0.60]"
    return ok, detail, f"{_fmt(mean_err)}|{_fmt(var_err)}|{_fmt(acc)}"


# --- criterion 5: mixture stationarity consistency --------------------------------


def _occupancy_run(landscape, energy, model, p_jump, seed, steps, burn):
    cfg = SamplerConfig(beta=1.0, eta=0.1, p_jump=p_jump, kappa=0.5, gamma=2.5,
                        tau=1.0, steps=steps, adapt_eta=True, burn_in=burn,
                        mask_mode="exact")
    summary = run_chain(0.5 * Rng(seed).normal(energy.shape), cfg, energy,
                        model=model, rng=Rng(seed), snapshot_stride=50)
    decoded = np.stack(
        [np.argmax(s, axis=1) for (t, s) in summary.snapshots if t > burn]
    )
    n_modes = landscape.modes.shape[0]
    cats = np.empty(decoded.shape[0], dtype=int)
    for i, seq in enumerate(decoded):
        dists = (landscape.modes != seq[None, :]).sum(axis=1)
        best = int(np.argmin(dists))
        cats[i] = best if dists[best] <= 1 else n_modes
    counts = np.bincount(cats, minlength=n_modes + 1)
    ess = np.empty(n_modes + 1)
    for c in range(n_modes + 1):
        res = ess_and_autocorr((cats == c).astype(float))
        ess[c] = len(cats) if res.degenerate else min(res.ess, len(cats))
    return counts, ess


def _criterion_5():
    landscape = planted_landscape(6, 4, 3, 2.5, Rng(42))
    ridge = GaussianEnergy(np.zeros((6, 4)), 2.5)
    energy = CompositeEnergy(landscape.energy, ridge, 1.0)
    model = MaskedSequenceModel.random(6, 4, 16, Rng(9))
    steps, burn = 100_000, 5000
    c_walk, e_walk = _occupancy_run(landscape, energy, model, 0.0, 101, steps, burn)
    c_mix, e_mix = _occupancy_run(landscape, energy, model, 0.2, 202, steps, burn)
    n_walk, n_mix = c_walk.sum(), c_mix.sum()
    worst_z = 0.0
    for k in range(len(c_walk)):
        pooled = (c_walk[k] + c_mix[k]) / (n_walk + n_mix)
        if not 0.0 < pooled < 1.0:
            continue
        sigma = math.sqrt(pooled * (1 - pooled) * (1 / e_walk[k] + 1 / e_mix[k]))
        z = abs(c_walk[k] / n_walk - c_mix[k] / n_mix) / sigma
        worst_z = max(worst_z, z)
    ok = worst_z < 3.0
    detail = (f"occupancy walk-only {c_walk.tolist()} vs walk-jump {c_mix.tolist()}, "
              f"max |z| {worst_z:.2f} (<3)")
    report = f"{c_walk.tolist()}|{c_mix.tolist()}|{_fmt(worst_z)}"
    return ok, detail, report


# --- criterion 6: one-hot fidelity exactness ----------------------------------------


def _criterion_6():
    model = MaskedSequenceModel.random(8, 5, 8, Rng(6001))
    seqs = random_sequences(8, 5, 25, Rng(6002))
    fid = onehot_fidelity(model, seqs, Rng(6003))
    rows = mixture_consistency(model, seqs, Rng(6004), eps_grid=(0.0,), k_mc=8)
    ok = (
        abs(fid.mean_kl) < 1e-12
        and abs(rows[0].mean_js) < 1e-12
        and rows[0].top1_agreement == 1.0
    )
    detail = (f"mean KL {fid.mean_kl:.2e} (<1e-12), eps=0 JS {rows[0].mean_js:.2e} "
              f"(<1e-12), top-1 {rows[0].top1_agreement}")
    report = f"{_fmt(fid.mean_kl)}|{_fmt(rows[0].mean_js)}|{_fmt(rows[0].top1_agreement)}"
    return ok, detail, report


# --- criterion 7: mixture-consistency oracle -----------------------------------------


def _criterion_7():
    model = MaskedSequenceModel.random(5, 4, 8, Rng(7001))
    tokens = np.array([0, 3, 1, 2, 2])
    blur_sites = np.array([1, 4])
    eps = 0.4
    exact = exact_mixture_reference(model, tokens, blur_sites, eps)
    marg = one_hot(tokens, 4)
    marg[blur_sites] = (1 - eps) * marg[blur_sites] + eps / 4

    rng = Rng(7002)
    k_mc = 10_000
    draws = np.empty((k_mc, 5, 4))
    for k in range(k_mc):
        x = tokens.copy()
        for site in blur_sites:
            x[site] = rng.categorical(marg[site])
        draws[k] = model.conditionals_from_tokens(x, 1.0)
    p_mc = draws.mean(axis=0)
    se = draws.std(axis=0) / math.sqrt(k_mc)
    converged = bool(np.all(np.abs(p_mc - exact) <= 3 * se + 1e-12))
    worst_gap = float(np.max(np.abs(p_mc - exact) - 3 * se))

    p_soft = model.conditionals(marg, 1.0)
    js_soft = float(np.mean([js_divergence(p_soft[i], exact[i]) for i in range(5)]))
    ok = converged and np.isfinite(js_soft)
    detail = (f"MC-vs-exact within 3 sigma (worst slack {worst_gap:.2e}), "
              f"relaxed-vs-exact JS {js_soft:.4f} finite")
    return ok, detail, f"{_fmt(worst_gap)}|{_fmt(js_soft)}"


# --- criterion 8: validation suite shape via the CLI -----------------------------------


_VALIDATE_INI = """
[run]
seed = 8001

[model]
seed = 8002
width = 16
length = 32
vocab = 20

[validate]
n_sequences = 100
n_libraries = 20
"""


def _criterion_8():
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "validate.ini")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(_VALIDATE_INI)
        out = os.path.join(tmp, "out")
        code = cli_main(["validate", "--config", cfg_path, "--out", out])
        with open(os.path.join(out, "validation.json"), "r", encoding="utf-8") as fh:
            blob = fh.read()
        payload = json.loads(blob)
        families = set(payload) - {"_meta"}
        expected = {"onehot_fidelity_kl", "onehot_fidelity_grad_spearman_mean",
                    "onehot_fidelity_grad_spearman_median",
                    "library_spearman_mean", "library_spearman_best"}
        for eps in (0.0, 0.2, 0.4, 0.6, 0.8):
            expected.add(f"mixture_js_eps{eps:.1f}")
            expected.add(f"mixture_top1_eps{eps:.1f}")
        mix_cfg = payload["mixture_js_eps0.4"]["config"]
        lib_cfg = payload["library_spearman_mean"]["config"]
        constants_ok = (
            mix_cfg["blur_fraction"] == 0.3
            and mix_cfg["eps_grid"] == [0.0, 0.2, 0.4, 0.6, 0.8]
            and lib_cfg["option_size"] == 3
            and lib_cfg["k_variants"] == 256
            and mix_cfg["n_sequences"] == 100
        )
        ok = code == 0 and expected <= families and constants_ok
        digest = hashlib.sha256(blob.encode()).hexdigest()
        detail = (f"exit {code}, {len(families)} metrics, protocol constants "
                  f"(blur 0.3, 5-point eps grid, 3 options, 256 variants) echoed")
        return ok, detail, digest


# --- criterion 9: mode-discovery benchmark ----------------------------------------------

# Frozen regression values recorded at the first verified run of this
# exact configuration (deterministic under the seeds below).
_FROZEN_CAMPAIGN = {
    "rss": {"median_designable": 11.5, "median_clusters": 11.0,
            "pooled_designable": 227, "pooled_clusters": 115},
    "rso": {"median_designable": 4.0, "median_clusters": 2.0,
            "pooled_designable": 36, "pooled_clusters": 14},
    "rso-noplm": {"median_designable": 4.0, "median_clusters": 2.0,
                  "pooled_designable": 37, "pooled_clusters": 13},
}


def _criterion_9():
    landscape = planted_landscape(8, 5, 5, 3.0, Rng(7))
    model = MaskedSequenceModel.random(8, 5, 16, Rng(3))
    sampler = SamplerConfig(beta=1.2, eta=0.1, p_jump=0.2, kappa=0.5, gamma=2.5,
                            tau=1.0, adapt_eta=True, burn_in=500, mask_mode="exact")
    cfg = CampaignConfig(landscape=landscape, sampler=sampler, seeds=20,
                         step_budget=4000, methods=("rss", "rso", "rso-noplm"),
                         model=model, lam=0.1, ridge_scale=2.5,
                         snapshot_stride=50, seed0=1000)
    report = run_campaign(cfg)
    rss_res = report.results["rss"]
    rso_res = report.results["rso"]
    ordering = (
        rss_res.median_designable >= rso_res.median_designable
        and rss_res.median_clusters >= rso_res.median_clusters
    )
    frozen_ok = True
    for method, frozen in _FROZEN_CAMPAIGN.items():
        res = report.results[method]
        frozen_ok = frozen_ok and (
            res.median_designable == frozen["median_designable"]
            and res.median_clusters == frozen["median_clusters"]
            and res.pooled_designable == frozen["pooled_designable"]
            and res.pooled_clusters == frozen["pooled_clusters"]
        )
    ok = report.compute_parity and ordering and frozen_ok and not any(
        res.failed_seeds for res in report.results.values()
    )
    detail = (
        f"parity {report.compute_parity}; median designable rss {rss_res.median_designable} "
        f">= rso {rso_res.median_designable}; median clusters rss {rss_res.median_clusters} "
        f">= rso {rso_res.median_clusters}; frozen regression {'ok' if frozen_ok else 'DRIFT'}"
    )
    return ok, detail, hashlib.sha256(report.to_json().encode()).hexdigest()


_CRITERIA = {
    1: _criterion_1,
    2: _criterion_2,
    3: _criterion_3,
    4: _criterion_4,
    5: _criterion_5,
    6: _criterion_6,
    7: _criterion_7,
    8: _criterion_8,
    9: _criterion_9,
}

_NAMES = {
    1: "gradient correctness (all energy models, 100 points, rel err < 1e-5)",
    2: "walk detailed balance (1000 pairs, log-space gap < 1e-10)",
    3: "jump detailed balance (50 enumerated pairs, both mask modes)",
    4: "MALA sampling correctness (Gaussian moments + acceptance band)",
    5: "mixture stationarity consistency (walk-only vs walk-jump occupancy)",
    6: "one-hot fidelity exactness (KL, JS, top-1 at eps = 0)",
    7: "mixture-consistency oracle (exhaustive enumeration vs Monte Carlo)",
    8: "validation suite shape (all metric families, protocol constants)",
    9: "mode-discovery benchmark (sampler >= optimizer at compute parity)",
}


def test_criterion_1():
    ok, detail, _ = _get(1)
    _emit(1, _NAMES[1], ok, detail)


def test_criterion_2():
    ok, detail, _ = _get(2)
    _emit(2, _NAMES[2], ok, detail)


def test_criterion_3():
    ok, detail, _ = _get(3)
    _emit(3, _NAMES[3], ok, detail)


def test_criterion_4():
    ok, detail, _ = _get(4)
    _emit(4, _NAMES[4], ok, detail)


def test_criterion_5():
    ok, detail, _ = _get(5)
    _emit(5, _NAMES[5], ok, detail)


def test_criterion_6():
    ok, detail, _ = _get(6)
    _emit(6, _NAMES[6], ok, detail)


def test_criterion_7():
    ok, detail, _ = _get(7)
    _emit(7, _NAMES[7], ok, detail)


def test_criterion_8():
    ok, detail, _ = _get(8)
    _emit(8, _NAMES[8], ok, detail)


def test_criterion_9():
    ok, detail, _ = _get(9)
    _emit(9, _NAMES[9], ok, detail)


def test_criterion_10_determinism():
    drifted = []
    for n in range(1, 10):
        _, _, first = _get(n)
        _, _, second = _CRITERIA[n]()
        if first != second:
            drifted.append(n)
    ok = not drifted
    _emit(10, "determinism (criteria 1-9 byte-identical on repeated runs)",
          ok, f"re-ran all criteria; drift in {drifted if drifted else 'none'}")
