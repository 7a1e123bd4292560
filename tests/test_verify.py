import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

import rss
import rss.verify
from rss.bench import compose_energy
from rss.core import Rng, one_hot
from rss.energy import (CompositeEnergy, GaussianEnergy, PairwiseContactEnergy,
                        TargetProfileEnergy)
from rss.sampler import (MaskLaw, SamplerConfig, mask_log_mass, mask_normalizer,
                         mask_probabilities)
from rss.softplm import MaskedSequenceModel, SoftPlmEnergy
from rss.verify import (
    EPS_GRID_DEFAULT,
    K_VARIANTS_DEFAULT,
    Library,
    enumerate_jump_flow,
    library_ranking,
    library_score_soft,
    mixture_consistency,
    onehot_fidelity,
    random_libraries,
    random_sequences,
    reports_to_json,
    run_validation_suite,
    spearman,
)

from oracles import exact_mixture_reference, js_divergence


class TestSpearman:
    def test_identity(self):
        a = [3.0, 1.0, 7.0, 2.0]
        assert spearman(a, a) == 1.0

    def test_reversal(self):
        a = np.array([3.0, 1.0, 7.0, 2.0])
        assert spearman(a, -a) == -1.0

    def test_hand_computed(self):
        assert abs(spearman([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) - 0.5) < 1e-15

    def test_ties_use_average_ranks(self):
        # scipy cross-check by construction: [1,1,2] ranks (1.5,1.5,3)
        rho = spearman([1.0, 1.0, 2.0], [5.0, 5.0, 9.0])
        assert abs(rho - 1.0) < 1e-12

    def test_matches_scipy_on_tied_inputs(self):
        gen = np.random.default_rng(6)
        for _ in range(200):
            n = int(gen.integers(3, 30))
            a = gen.integers(0, 5, n).astype(float)
            b = gen.integers(0, 5, n).astype(float)
            rho = spearman(a, b)
            ref = stats.spearmanr(a, b).statistic
            if rho is None:
                assert np.isnan(ref)
            else:
                assert abs(rho - ref) < 1e-12

    def test_constant_series_undefined(self):
        assert spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) is None

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            spearman([1.0], [1.0, 2.0])


@pytest.fixture(scope="module")
def model():
    return MaskedSequenceModel.random(8, 5, 8, Rng(60))


class TestOnehotFidelity:
    def test_mean_kl_exactly_zero(self, model):
        seqs = random_sequences(8, 5, 10, Rng(61))
        report = onehot_fidelity(model, seqs, Rng(62))
        assert abs(report.mean_kl) < 1e-12

    def test_grad_swap_spearman_high(self, model):
        seqs = random_sequences(8, 5, 10, Rng(63))
        report = onehot_fidelity(model, seqs, Rng(64))
        assert report.spearman_mean > 0.9
        assert report.spearman_median > 0.9

    def test_single_pair_sample_count(self, model):
        seqs = random_sequences(8, 5, 1, Rng(65))
        report = onehot_fidelity(model, seqs, Rng(66))
        assert report.sample_count == 1

    def test_two_forwards_per_sequence(self, model, monkeypatch):
        # one discrete and one relaxed forward feed all three tables
        calls = []
        forward = MaskedSequenceModel._forward

        def counted(self, q):
            calls.append(1)
            return forward(self, q)

        monkeypatch.setattr(MaskedSequenceModel, "_forward", counted)
        onehot_fidelity(model, random_sequences(8, 5, 6, Rng(68)), Rng(69))
        assert len(calls) == 2 * 6

    def test_empty_sequences_rejected(self, model):
        with pytest.raises(ValueError):
            onehot_fidelity(model, np.zeros((0, 8), dtype=np.int64), Rng(67))


class TestMixtureConsistency:
    def test_eps_zero_exact_agreement(self, model):
        seqs = random_sequences(8, 5, 5, Rng(68))
        rows = mixture_consistency(model, seqs, Rng(69), eps_grid=(0.0,), k_mc=4)
        assert rows[0].mean_js == 0.0
        assert rows[0].top1_agreement == 1.0

    def test_grid_rows_echoed(self, model):
        seqs = random_sequences(8, 5, 3, Rng(70))
        rows = mixture_consistency(model, seqs, Rng(71), k_mc=2)
        assert [row.eps for row in rows] == list(EPS_GRID_DEFAULT)

    def test_js_nondecreasing_in_eps(self, model):
        # regression property on this toy model; one inversion <= 1e-4 allowed
        seqs = random_sequences(8, 5, 20, Rng(72))
        rows = mixture_consistency(model, seqs, Rng(73), k_mc=8)
        js = [row.mean_js for row in rows]
        inversions = [js[i + 1] - js[i] for i in range(len(js) - 1) if js[i + 1] < js[i]]
        assert len(inversions) <= 1
        assert all(abs(gap) <= 1e-4 for gap in inversions)

    def test_monte_carlo_converges_to_exact_marginalization(self):
        # tiny instance: exhaustive enumeration over blurred assignments
        tiny = MaskedSequenceModel.random(5, 4, 8, Rng(74))
        tokens = np.array([0, 3, 1, 2, 2])
        blur_sites = np.array([1, 4])
        eps = 0.4
        exact = exact_mixture_reference(tiny, tokens, blur_sites, eps)
        marg = one_hot(tokens, 4)
        marg[blur_sites] = (1 - eps) * marg[blur_sites] + eps / 4

        rng = Rng(75)
        k_mc = 10_000
        draws = np.empty((k_mc, 5, 4))
        for k in range(k_mc):
            x = tokens.copy()
            for site in blur_sites:
                x[site] = rng.categorical(marg[site])
            draws[k] = tiny.conditionals_from_tokens(x, 1.0)
        p_mc = draws.mean(axis=0)
        se = draws.std(axis=0) / math.sqrt(k_mc)
        assert np.all(np.abs(p_mc - exact) <= 3 * se + 1e-12)

        # relaxed conditionals are a finite JS from the exact marginalization,
        # and the MC reference tracks the exact one within a factor of two
        p_soft = tiny.conditionals(marg, 1.0)
        js_exact = np.mean([js_divergence(p_soft[i], exact[i]) for i in range(5)])
        js_mc = np.mean([js_divergence(p_soft[i], p_mc[i]) for i in range(5)])
        assert np.isfinite(js_exact) and js_exact > 0
        assert js_mc <= 2 * js_exact
        assert js_exact <= 2 * js_mc

    def test_exact_reference_weights_sum(self):
        tiny = MaskedSequenceModel.random(4, 3, 6, Rng(76))
        tokens = np.array([0, 1, 2, 0])
        exact = exact_mixture_reference(tiny, tokens, np.array([0, 2]), 0.6)
        np.testing.assert_allclose(exact.sum(axis=1), 1.0, atol=1e-10)


class TestLibraryRanking:
    def test_single_library_flagged(self, model):
        libs = random_libraries(8, 5, 1, Rng(77))
        report = library_ranking(model, libs, Rng(78), k_variants=16)
        assert report.undefined
        assert report.spearman_mean is None

    def test_default_variant_count_is_256(self):
        assert K_VARIANTS_DEFAULT == 256

    def test_site_relabeling_symmetry(self):
        # sites 1 and 2 share positional terms; base tokens match there, so
        # editing one or the other is indistinguishable to the model
        rng = Rng(79)
        base = MaskedSequenceModel.random(6, 5, 8, rng)
        positional = base.positional.copy()
        positional[2] = positional[1]
        sym = MaskedSequenceModel(
            base.embed, base.mask_embed, positional, base.mix, base.readout, base.bias
        )
        tokens = np.array([0, 3, 3, 1, 4, 2])
        options = [[0, 2, 4]]
        lib_a = Library(tokens=tokens, sites=np.array([1]), options=options)
        lib_b = Library(tokens=tokens, sites=np.array([2]), options=options)
        score_a = library_score_soft(sym, lib_a)
        score_b = library_score_soft(sym, lib_b)
        assert abs(score_a - score_b) < 1e-12

    def test_rank_agreement_on_toy_model(self, model):
        # frozen threshold 0.8, derived from seeded oracle runs (see README)
        libs = random_libraries(8, 5, 20, Rng(80))
        report = library_ranking(model, libs, Rng(81), k_variants=256)
        assert report.n_libraries == 20
        assert report.spearman_mean >= 0.8

    def test_one_forward_per_distinct_variant(self, model, monkeypatch):
        # 3 edited sites with 3 options each: at most 27 distinct variants
        # and one relaxed score per library, whatever k_variants is
        calls = []
        forward = MaskedSequenceModel._forward

        def counted(self, q):
            calls.append(1)
            return forward(self, q)

        monkeypatch.setattr(MaskedSequenceModel, "_forward", counted)
        libs = random_libraries(8, 5, 2, Rng(83))
        library_ranking(model, libs, Rng(84), k_variants=256)
        assert len(calls) <= 2 * 28

    def test_warns_on_nonstandard_option_size(self, model):
        lib = Library(
            tokens=np.zeros(8, dtype=np.int64),
            sites=np.array([1]),
            options=[[0, 1]],
        )
        with pytest.warns(UserWarning):
            library_ranking(model, [lib, lib], Rng(82), k_variants=4)


def build_jump_instance(seed, length=3, vocab=3):
    rng = Rng(seed)
    model = MaskedSequenceModel.random(length, vocab, 6, rng)
    contacts = [(0, 1, rng.normal((vocab, vocab))), (1, 2, rng.normal((vocab, vocab)))]
    structural = PairwiseContactEnergy(contacts, rng.normal((length, vocab)))
    energy = CompositeEnergy(
        CompositeEnergy(structural, GaussianEnergy(np.zeros((length, vocab)), 2.0), 1.0),
        SoftPlmEnergy(model, 1.0),
        0.25,
    )
    return energy, model, rng


def random_swap_pair(rng, cfg, length, vocab, n_sites):
    a = rng.normal((length, vocab))
    b = a.copy()
    sites = np.sort(np.array([rng.integer(length)for _ in range(50)], dtype=np.int64))
    chosen = []
    for s in sites:
        if s not in chosen:
            chosen.append(int(s))
        if len(chosen) == n_sites:
            break
    for s in chosen:
        y_plus = rng.integer(vocab)
        y_minus = (y_plus + 1 + rng.integer(vocab - 1)) % vocab
        b[s, y_plus] += cfg.gamma
        b[s, y_minus] -= cfg.gamma
    return a, b


def brute_force_log_flow(energy, model, cfg, a, b):
    """log flow from a to b by the definition, one realization at a time:
    every site set as a 0/1 vector, its probability as the Bernoulli product
    normalized over the sets with 1 <= |S| <= s_max, every token pair per site."""
    length, vocab = a.shape
    (e_a, g_a), (e_b, g_b) = energy.evaluate(a), energy.evaluate(b)
    p_a = mask_probabilities(g_a, cfg.kappa)
    p_b = mask_probabilities(g_b, cfg.kappa)
    lc_a = model.log_conditionals_from_logits(a, cfg.tau)
    lc_b = model.log_conditionals_from_logits(b, cfg.tau)
    bits = [np.array(v, dtype=bool) for v in itertools.product((0, 1), repeat=length)
            if 1 <= sum(v) <= cfg.s_max]
    weights = np.array([np.prod(np.where(v, p_a, 1.0 - p_a)) for v in bits])
    flow = 0.0
    for member, weight in zip(bits, weights / weights.sum()):
        sites = np.flatnonzero(member)
        for fwd in itertools.product(range(vocab), repeat=sites.size):
            for ref in itertools.product(range(vocab), repeat=sites.size):
                proposed = a.copy()
                for site, y_plus, y_minus in zip(sites, fwd, ref):
                    if y_plus != y_minus:
                        proposed[site, y_plus] += cfg.gamma
                        proposed[site, y_minus] -= cfg.gamma
                if np.abs(proposed - b).max() > 1e-9:
                    continue
                log_draw = lc_a[sites, list(fwd)].sum()
                log_ratio = (-cfg.beta * (e_b - e_a)
                             + mask_log_mass(sites, p_b, cfg.s_max, cfg.mask_mode)
                             - mask_log_mass(sites, p_a, cfg.s_max, cfg.mask_mode)
                             + lc_b[sites, list(ref)].sum() - log_draw)
                flow += (math.exp(-cfg.beta * e_a + log_draw) * weight
                         * vocab ** -sites.size * math.exp(min(0.0, log_ratio)))
    return math.log(flow)


class TestEnumerateJumpFlow:
    def test_identity_pair_flows_equal(self):
        energy, model, rng = build_jump_instance(83)
        cfg = SamplerConfig(beta=1.0, eta=0.1, gamma=2.0, kappa=0.6, s_max=2)
        a = rng.normal((3, 3))
        res = enumerate_jump_flow(energy, model, cfg, a, a.copy())
        assert res.reachable
        assert abs(res.log_forward - res.log_reverse) < 1e-12

    def test_exact_mode_detailed_balance(self):
        energy, model, rng = build_jump_instance(84)
        cfg = SamplerConfig(beta=0.8, eta=0.1, gamma=2.0, kappa=0.5, s_max=2,
                            mask_mode="exact")
        worst = 0.0
        for trial in range(10):
            a, b = random_swap_pair(rng, cfg, 3, 3, 1 + trial % 2)
            res = enumerate_jump_flow(energy, model, cfg, a, b)
            assert res.reachable
            worst = max(worst, abs(res.log_forward - res.log_reverse))
        assert worst < 1e-10

    def test_paper_mode_mismatch_is_normalizer_ratio(self):
        energy, model, rng = build_jump_instance(85)
        cfg = SamplerConfig(beta=0.8, eta=0.1, gamma=2.0, kappa=0.5, s_max=2,
                            mask_mode="paper")
        for trial in range(5):
            a, b = random_swap_pair(rng, cfg, 3, 3, 1 + trial % 2)
            res = enumerate_jump_flow(energy, model, cfg, a, b)
            _, g_a = energy.evaluate(a)
            _, g_b = energy.evaluate(b)
            z_a = mask_normalizer(mask_probabilities(g_a, cfg.kappa), cfg.s_max)
            z_b = mask_normalizer(mask_probabilities(g_b, cfg.kappa), cfg.s_max)
            mismatch = res.log_forward - res.log_reverse
            assert abs(mismatch - (math.log(z_b) - math.log(z_a))) < 1e-10

    @pytest.mark.parametrize("mask_mode", ["exact", "paper"])
    def test_flows_match_brute_force_enumeration(self, mask_mode):
        # detailed balance holds on any subset of realizations taken in both
        # directions alike; the flows themselves are checked here
        energy, model, rng = build_jump_instance(89)
        cfg = SamplerConfig(beta=0.8, eta=0.1, gamma=2.0, kappa=0.5, s_max=2,
                            mask_mode=mask_mode)
        for trial in range(4):
            a, b = random_swap_pair(rng, cfg, 3, 3, 1 + trial % 2)
            res = enumerate_jump_flow(energy, model, cfg, a, b)
            assert abs(res.log_forward - brute_force_log_flow(energy, model, cfg, a, b)) < 1e-12
            assert abs(res.log_reverse - brute_force_log_flow(energy, model, cfg, b, a)) < 1e-12

    def test_two_mask_laws_per_call(self, monkeypatch):
        # one MaskLaw per state prices every site set of both directions
        built = []

        class CountedLaw(MaskLaw):
            def __init__(self, probs, s_max):
                built.append(s_max)
                super().__init__(probs, s_max)

        monkeypatch.setattr(rss.verify, "MaskLaw", CountedLaw)
        energy, model, rng = build_jump_instance(90)
        cfg = SamplerConfig(beta=0.8, eta=0.1, gamma=2.0, kappa=0.5, s_max=3)
        for n_sites in (1, 2, 3):
            built.clear()
            a, b = random_swap_pair(rng, cfg, 3, 3, n_sites)
            assert enumerate_jump_flow(energy, model, cfg, a, b).reachable
            assert built == [3, 3]

    def test_unreachable_pair_flagged(self):
        energy, model, rng = build_jump_instance(86)
        cfg = SamplerConfig(beta=1.0, eta=0.1, gamma=2.0, s_max=2)
        a = rng.normal((3, 3))
        b = a + 0.37  # not a gamma-swap of any site set
        res = enumerate_jump_flow(energy, model, cfg, a, b)
        assert not res.reachable
        assert res.forward == 0.0 and res.reverse == 0.0

    def test_rejects_logits_of_another_shape(self):
        energy, model, rng = build_jump_instance(88)
        cfg = SamplerConfig(beta=1.0, eta=0.1, s_max=2)
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(3, 3\)"):
            enumerate_jump_flow(energy, model, cfg, rng.normal((2, 3)), rng.normal((3, 3)))


# the run-32x20 sampler settings, at which chains draw masks with Z(p) far below 0.125
REALISTIC_CFG = SamplerConfig(beta=1.2, eta=0.1, gamma=2.5, kappa=0.4, s_max=3)


def build_realistic_pair(length, n_sites, seed):
    """The run-32x20 energy at length L with K = 20: target profile (seed 7),
    ridge 2.5 and 0.1 x SoftPlm (model seed 3, width 16); and a swap pair."""
    vocab = 20
    raw = np.abs(Rng(7).normal((length, vocab))) + 0.1
    model = MaskedSequenceModel.random(length, vocab, 16, Rng(3))
    energy = compose_energy(TargetProfileEnergy(raw / raw.sum(axis=1, keepdims=True)),
                            2.5, model, 0.1, REALISTIC_CFG.tau)
    a, b = random_swap_pair(Rng(seed), REALISTIC_CFG, length, vocab, n_sites)
    return energy, model, a, b


def log_normalizer(energy, logits, cfg):
    _, grad = energy.evaluate(logits)
    return math.log(mask_normalizer(mask_probabilities(grad, cfg.kappa), cfg.s_max))


class TestJumpFlowAtRealisticSizes:
    @pytest.mark.parametrize("length, n_sites", [(32, 1), (32, 2), (48, 1), (48, 2)])
    def test_both_mask_modes_at_1e_10(self, length, n_sites):
        energy, model, a, b = build_realistic_pair(length, n_sites, 900 + length + n_sites)
        log_z_a = log_normalizer(energy, a, REALISTIC_CFG)
        log_z_b = log_normalizer(energy, b, REALISTIC_CFG)
        assert max(log_z_a, log_z_b) < math.log(0.125)

        exact = enumerate_jump_flow(energy, model, REALISTIC_CFG, a, b)
        assert exact.reachable
        assert abs(exact.log_forward - exact.log_reverse) < 1e-10

        paper_cfg = dataclasses.replace(REALISTIC_CFG, mask_mode="paper")
        paper = enumerate_jump_flow(energy, model, paper_cfg, a, b)
        mismatch = paper.log_forward - paper.log_reverse
        assert abs(mismatch - (log_z_b - log_z_a)) < 1e-10

    def test_skewed_mask_mass_breaks_exact_balance(self, monkeypatch):
        # negative control: an acceptance whose mask mass carries a
        # state-dependent error must show up as a detailed-balance gap
        original = MaskLaw.log_mass

        def skewed(law, sites, mask_mode):
            return original(law, sites, mask_mode) + 1e-6 * float(np.sum(law.probs))

        monkeypatch.setattr(MaskLaw, "log_mass", skewed)
        for n_sites in (1, 2):
            energy, model, a, b = build_realistic_pair(32, n_sites, 932 + n_sites)
            res = enumerate_jump_flow(energy, model, REALISTIC_CFG, a, b)
            assert res.reachable
            assert abs(res.log_forward - res.log_reverse) > 1e-9


class TestSuite:
    def test_families_present_and_deterministic(self):
        tiny = MaskedSequenceModel.random(6, 4, 8, Rng(87))
        reports = run_validation_suite(tiny, seed=5, n_sequences=6, n_libraries=4,
                                       k_mc=3, k_variants=8)
        names = set(reports)
        assert {"onehot_fidelity_kl", "onehot_fidelity_grad_spearman_mean",
                "onehot_fidelity_grad_spearman_median",
                "library_spearman_mean", "library_spearman_best"} <= names
        for eps in EPS_GRID_DEFAULT:
            assert f"mixture_js_eps{eps:.1f}" in names
            assert f"mixture_top1_eps{eps:.1f}" in names
        blob1 = reports_to_json(reports)
        blob2 = reports_to_json(
            run_validation_suite(tiny, seed=5, n_sequences=6, n_libraries=4,
                                 k_mc=3, k_variants=8)
        )
        assert blob1 == blob2
        payload = json.loads(blob1)
        assert abs(payload["onehot_fidelity_kl"]["value"]) < 1e-12
        assert abs(payload["mixture_js_eps0.0"]["value"]) < 1e-12
        assert payload["mixture_top1_eps0.0"]["value"] == 1.0
        assert payload["onehot_fidelity_kl"]["config"]["seed"] == 5


def test_import_leaves_scipy_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(rss.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, rss, rss.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
