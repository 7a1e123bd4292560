import dataclasses
import io
import itertools
import math
import warnings

import numpy as np
import pytest
from scipy import stats

import rss.sampler
from rss.core import LOG_FLOOR, Rng
from rss.bench import compose_energy
from rss.energy import (
    CompositeEnergy,
    CountingEnergy,
    GaussianEnergy,
    PairwiseContactEnergy,
    TargetProfileEnergy,
)
from rss.sampler import (
    ChainState,
    JumpProposal,
    MaskLaw,
    MaskSamplingError,
    SamplerConfig,
    WalkProposal,
    ess_and_autocorr,
    jump_accept,
    jump_propose,
    load_snapshots,
    mask_log_mass,
    mask_normalizer,
    mask_probabilities,
    run_chain,
    sample_mask,
    save_snapshots,
    step,
    walk_accept,
    walk_propose,
)
from rss.softplm import MaskedSequenceModel, SoftPlmEnergy

from oracles import normalized_size_law, size_table

L, K = 4, 5


@pytest.fixture(scope="module")
def gaussian():
    return GaussianEnergy(Rng(50).normal((L, K)), 1.0)


@pytest.fixture(scope="module")
def model():
    return MaskedSequenceModel.random(L, K, 8, Rng(51))


class FlatEnergy(GaussianEnergy):
    """Constant energy with zero gradient everywhere."""

    def evaluate(self, logits, rows=None):
        return 1.25, np.zeros_like(logits)


class TestWalk:
    def test_zero_gradient_displacement_is_pure_noise(self):
        energy = FlatEnergy(np.zeros((L, K)), 1.0)
        cfg = SamplerConfig(beta=2.0, eta=0.3)
        state = ChainState.initialize(np.zeros((L, K)), energy)
        rng_a, rng_b = Rng(1), Rng(1)
        proposal = walk_propose(state, cfg, energy, rng_a)
        noise = rng_b.normal((L, K))
        np.testing.assert_array_equal(
            proposal.logits, math.sqrt(2 * cfg.eta / cfg.beta) * noise
        )

    def test_log_density_matches_scipy(self, gaussian):
        cfg = SamplerConfig(beta=1.7, eta=0.11)
        rng = Rng(2)
        state = ChainState.initialize(rng.normal((L, K)), gaussian)
        proposal = walk_propose(state, cfg, gaussian, rng)
        var = 2 * cfg.eta / cfg.beta
        mean = state.logits - cfg.eta * state.gradient
        oracle = stats.norm.logpdf(
            proposal.logits.ravel(), mean.ravel(), math.sqrt(var)
        ).sum()
        assert abs(proposal.log_q_forward - oracle) < 1e-10
        mean_rev = proposal.logits - cfg.eta * proposal.gradient
        oracle_rev = stats.norm.logpdf(
            state.logits.ravel(), mean_rev.ravel(), math.sqrt(var)
        ).sum()
        assert abs(proposal.log_q_reverse - oracle_rev) < 1e-10

    def test_large_beta_kills_noise(self, gaussian):
        rng = Rng(3)
        state = ChainState.initialize(rng.normal((L, K)), gaussian)
        cfg = SamplerConfig(beta=1e18, eta=0.05)
        proposal = walk_propose(state, cfg, gaussian, rng)
        drift = state.logits - cfg.eta * state.gradient
        np.testing.assert_allclose(proposal.logits, drift, atol=1e-7)

    def test_flat_energy_always_accepts(self):
        energy = FlatEnergy(np.zeros((L, K)), 1.0)
        cfg = SamplerConfig(beta=1.0, eta=0.2)
        rng = Rng(4)
        state = ChainState.initialize(rng.normal((L, K)), energy)
        proposal = walk_propose(state, cfg, energy, rng)
        assert walk_accept(state, proposal, cfg) == 0.0

    def test_non_finite_start_rejected(self):
        # a chain from such a state used to veto every proposal and run on
        class BrokenEnergy(GaussianEnergy):
            def evaluate(self, logits, rows=None):
                value, grad = super().evaluate(logits)
                return (value, grad * np.nan) if self.scale == 1.0 else (np.inf, grad)

        for scale in (1.0, 2.0):  # a NaN gradient, then an infinite energy
            with pytest.raises(ValueError, match="not finite"):
                ChainState.initialize(np.ones((L, K)), BrokenEnergy(np.zeros((L, K)), scale))

    def test_pointwise_detailed_balance(self, gaussian):
        cfg = SamplerConfig(beta=1.3, eta=0.09)
        rng = Rng(5)
        worst = 0.0
        for _ in range(200):
            state = ChainState.initialize(rng.normal((L, K)), gaussian)
            prop = walk_propose(state, cfg, gaussian, rng)
            state2 = ChainState(prop.logits, prop.energy, prop.gradient)
            rev = WalkProposal(
                state.logits, state.energy, state.gradient,
                prop.log_q_reverse, prop.log_q_forward,
            )
            forward = (
                -cfg.beta * state.energy + prop.log_q_forward
                + walk_accept(state, prop, cfg)
            )
            reverse = (
                -cfg.beta * prop.energy + prop.log_q_reverse
                + walk_accept(state2, rev, cfg)
            )
            worst = max(worst, abs(forward - reverse))
        assert worst < 1e-10

    def test_tiny_eta_accepts(self, gaussian):
        rng = Rng(6)
        state = ChainState.initialize(rng.normal((L, K)), gaussian)
        cfg = SamplerConfig(beta=1.0, eta=1e-12)
        proposal = walk_propose(state, cfg, gaussian, rng)
        assert walk_accept(state, proposal, cfg) > -1e-6

    def test_nonfinite_proposal_vetoed(self):
        class ExplodingEnergy(GaussianEnergy):
            def evaluate(self, logits, rows=None):
                value, grad = super().evaluate(logits)
                if abs(value) > 10.0:
                    return float("inf"), grad
                return value, grad

        energy = ExplodingEnergy(np.zeros((L, K)), 0.01)
        cfg = SamplerConfig(beta=1.0, eta=0.5)
        rng = Rng(7)
        state = ChainState(np.zeros((L, K)), 0.0, np.zeros((L, K)))
        vetoed = 0
        for _ in range(50):
            proposal = walk_propose(state, cfg, energy, rng)
            if not proposal.finite:
                vetoed += 1
                assert walk_accept(state, proposal, cfg) == -np.inf
        assert vetoed > 0

    def test_overflowing_logits_vetoed_before_evaluation(self, gaussian):
        # logits - eta * gradient overflows at one entry: the walk vetoes the
        # proposal without spending an evaluation on it, and without a warning
        gradient = np.zeros((L, K))
        gradient[1, 2] = 1e308
        state = ChainState(np.zeros((L, K)), 0.0, gradient)
        counting = CountingEnergy(gaussian)
        cfg = SamplerConfig(beta=1.0, eta=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            proposal = walk_propose(state, cfg, counting, Rng(80))
        assert not proposal.finite
        assert not np.all(np.isfinite(proposal.logits))
        assert walk_accept(state, proposal, cfg) == -np.inf
        assert counting.calls == 0


class TestMaskProbabilities:
    def test_formula_arithmetic(self):
        grad = np.zeros((2, 2))
        grad[0] = [3.0, 0.0]
        grad[1] = [0.0, 4.0]
        p = mask_probabilities(grad, kappa=1.0)
        np.testing.assert_allclose(p, [0.75, 1.0], atol=1e-8)

    def test_kappa_scales_max_row(self):
        grad = np.zeros((3, 2))
        grad[2] = [0.0, 2.0]
        p = mask_probabilities(grad, kappa=0.5)
        assert abs(p[2] - 0.5) < 1e-8

    def test_all_zero_gradient_fallback(self):
        p = mask_probabilities(np.zeros((5, 3)), kappa=0.8)
        np.testing.assert_array_equal(p, np.full(5, 0.8 / 5))


class TestSampleMask:
    def test_raw_masses_half_half(self):
        p = np.array([0.5, 0.5])
        assert abs(math.exp(mask_log_mass([0], p, 2, "paper")) - 0.25) < 1e-12
        assert abs(math.exp(mask_log_mass([1], p, 2, "paper")) - 0.25) < 1e-12
        assert abs(math.exp(mask_log_mass([0, 1], p, 2, "paper")) - 0.25) < 1e-12

    def test_exact_mode_arithmetic(self):
        p = np.array([0.5, 0.5])
        assert abs(mask_normalizer(p, 2) - 0.75) < 1e-12
        assert abs(mask_log_mass([0], p, 2, "exact") - math.log(0.25 / 0.75)) < 1e-12

    def test_masses_sum_to_one_over_every_subset(self):
        # exact mode gives a set the law never draws (|S| outside [1, s_max])
        # no mass; paper mode prices every set by the raw product, whose
        # masses over all subsets also sum to 1
        p = np.array([0.3, 0.4, 0.5, 0.2])
        subsets = [list(subset) for r in range(5)
                   for subset in itertools.combinations(range(4), r)]
        for s_max in (1, 2, 3, 4):
            exact = [mask_log_mass(sites, p, s_max, "exact") for sites in subsets]
            assert abs(math.fsum(map(math.exp, exact)) - 1.0) < 1e-12
            for sites, log_mass in zip(subsets, exact):
                assert (log_mass == -np.inf) == (not 1 <= len(sites) <= s_max)
            paper = [mask_log_mass(sites, p, s_max, "paper") for sites in subsets]
            assert abs(math.fsum(map(math.exp, paper)) - 1.0) < 1e-12
        assert mask_log_mass([], p, 2, "paper") == float(np.log(1.0 - p).sum())

    def test_normalizer_matches_subset_enumeration(self):
        rng = Rng(8)
        for _ in range(10):
            p = rng.uniforms(6) * 0.6
            for s_max in (1, 2, 3):
                brute = 0.0
                for r in range(1, s_max + 1):
                    for subset in itertools.combinations(range(6), r):
                        mass = 1.0
                        for i in range(6):
                            mass *= p[i] if i in subset else 1.0 - p[i]
                        brute += mass
                assert abs(mask_normalizer(p, s_max) - brute) < 1e-12

    def test_empirical_frequencies_match_exact_masses(self):
        # conditional law of iid Bernoulli draws given 1 <= |S| <= s_max
        p = np.array([0.35, 0.6])
        s_max = 2
        rng = Rng(9)
        n = 1_000_000
        draws = rng.uniforms(2 * n).reshape(n, 2) < p
        sizes = draws.sum(axis=1)
        valid = draws[(sizes >= 1) & (sizes <= s_max)]
        n_valid = valid.shape[0]
        for sites in ([0], [1], [0, 1]):
            member = np.zeros(2, dtype=bool)
            member[sites] = True
            freq = np.all(valid == member, axis=1).mean()
            exact = math.exp(mask_log_mass(sites, p, s_max, "exact"))
            sigma = math.sqrt(exact * (1 - exact) / n_valid)
            assert abs(freq - exact) < 3 * sigma + 1e-9

    def test_sample_mask_calls_match_exact_masses(self):
        p = np.array([0.35, 0.6])
        rng = Rng(10)
        counts = {}
        n = 20_000
        for _ in range(n):
            sites, _ = sample_mask(p, 2, rng, "exact")
            counts[tuple(sites)] = counts.get(tuple(sites), 0) + 1
        for sites, count in counts.items():
            exact = math.exp(mask_log_mass(list(sites), p, 2, "exact"))
            sigma = math.sqrt(exact * (1 - exact) / n)
            assert abs(count / n - exact) < 4 * sigma

    def test_respects_s_max(self):
        rng = Rng(11)
        p = np.full(6, 0.5)
        for _ in range(200):
            sites, _ = sample_mask(p, 2, rng, "exact")
            assert 1 <= sites.size <= 2

    def test_pathological_probabilities_error(self):
        # only Z(p) = 0 leaves no mask to draw
        rng = Rng(12)
        with pytest.raises(MaskSamplingError):
            sample_mask(np.zeros(4), 4, rng, "exact")
        with pytest.raises(MaskSamplingError):
            sample_mask(np.ones(5), 3, rng, "exact")
        # exact pricing needs Z(p) too; the raw product does not
        for sites in ([0], []):
            with pytest.raises(MaskSamplingError):
                mask_log_mass(sites, np.zeros(4), 4, "exact")
        assert mask_log_mass([0], np.zeros(4), 4, "paper") == math.log(LOG_FLOOR)

    def test_tiny_probabilities_draw_a_mask(self):
        # Z(p) is about 4e-12
        p = np.full(4, 1e-12)
        sites, log_mass = sample_mask(p, 4, Rng(12), "exact")
        assert sites.size == 1
        assert log_mass == mask_log_mass(sites, p, 4, "exact")

    def test_normalizer_bitwise_equals_numpy_recursion(self):
        def numpy_normalizer(probs, s_max):
            dist = np.zeros(min(s_max, probs.size) + 1)
            dist[0] = 1.0
            for q in probs:
                dist[1:] = dist[1:] * (1.0 - q) + dist[:-1] * q
                dist[0] *= 1.0 - q
            return float(dist[1:].sum())

        gen = np.random.default_rng(14)
        for _ in range(500):
            length = int(gen.integers(1, 40))
            p = gen.random(length) * gen.choice([1e-6, 1e-2, 0.2, 1.0])
            p[gen.integers(0, length)] = gen.choice([0.0, 1.0, p[0]])
            s_max = int(gen.integers(1, 12))
            assert mask_normalizer(p, s_max) == numpy_normalizer(p, s_max)

    def test_direct_draw_frequencies_at_length_48(self):
        # the law is checked on all 18,472 sets with |S| <= 3, at both ends of
        # Z(p): every eighth site likely and the rest not (Z ~ 3e-5), and
        # every site unlikely (Z ~ 0.61)
        length, s_max, n = 48, 3, 10_000
        sets = [s for r in range(1, s_max + 1)
                for s in itertools.combinations(range(length), r)]
        assert len(sets) == 18_472
        index = {s: i for i, s in enumerate(sets)}
        size = np.array([len(s) for s in sets])
        low_z = np.where(np.arange(length) % 8 == 0, 0.8, 0.2)
        high_z = np.full(length, 0.02)
        for p, seed in ((low_z, 21), (high_z, 22)):
            expected = n * np.exp([mask_log_mass(list(s), p, s_max, "exact") for s in sets])
            counts = np.zeros(len(sets))
            rng = Rng(seed)
            for _ in range(n):
                sites, _ = sample_mask(p, s_max, rng, "exact")
                counts[index[tuple(sites.tolist())]] += 1
            # cells expecting fewer than 5 draws are pooled by set size
            small = expected < 5
            obs = [counts[~small]] + [[counts[small & (size == r)].sum()] for r in (1, 2, 3)]
            exp = [expected[~small]] + [[expected[small & (size == r)].sum()] for r in (1, 2, 3)]
            obs, exp = np.concatenate(obs), np.concatenate(exp)
            keep = exp > 0
            assert stats.chisquare(obs[keep], exp[keep]).pvalue > 1e-3

    def test_paper_exact_differ_by_normalizer(self):
        rng = Rng(13)
        p = rng.uniforms(5) * 0.5
        sites = [1, 3]
        diff = mask_log_mass(sites, p, 2, "paper") - mask_log_mass(sites, p, 2, "exact")
        assert abs(diff - math.log(mask_normalizer(p, 2))) < 1e-12


class TestJump:
    def make_state(self, energy, rng):
        return ChainState.initialize(rng.normal(energy.shape), energy)

    def test_swap_arithmetic(self, gaussian, model):
        cfg = SamplerConfig(beta=1.0, eta=0.1, gamma=1.0, s_max=2)
        rng = Rng(14)
        state = self.make_state(gaussian, rng)
        proposal = jump_propose(state, cfg, gaussian, model, rng)
        delta = proposal.logits - state.logits
        changed = set(int(s) for s in proposal.sites)
        for i in range(L):
            if i not in changed:
                np.testing.assert_array_equal(delta[i], np.zeros(K))
        for site, y_plus, y_minus in zip(
            proposal.sites, proposal.forward_tokens, proposal.reference_tokens
        ):
            expected = np.zeros(K)
            expected[y_plus] += cfg.gamma
            expected[y_minus] -= cfg.gamma
            np.testing.assert_array_equal(delta[site], expected)

    def test_identity_swap_is_noop_and_accepted(self, gaussian, model):
        cfg = SamplerConfig(beta=1.0, eta=0.1, gamma=2.0, s_max=2)
        rng = Rng(15)
        state = self.make_state(gaussian, rng)
        probs = mask_probabilities(state.gradient, cfg.kappa)
        sites = np.array([1])
        log_cond = model.log_conditionals_from_logits(state.logits, cfg.tau)
        tokens = np.array([2])
        proposal = JumpProposal(
            logits=state.logits.copy(),
            energy=state.energy,
            gradient=state.gradient,
            sites=sites,
            forward_tokens=tokens,
            reference_tokens=tokens,
            log_mass_forward=mask_log_mass(sites, probs, cfg.s_max, cfg.mask_mode),
            log_plm_forward=float(log_cond[1, 2]),
        )
        np.testing.assert_array_equal(proposal.logits, state.logits)
        assert jump_accept(state, proposal, cfg, model) == 0.0

    def test_forward_token_frequencies(self):
        # single-site chain: the mask is always {0}, so y+ draws expose the
        # conditional distribution directly
        energy = GaussianEnergy(Rng(16).normal((1, K)), 1.0)
        model1 = MaskedSequenceModel.random(1, K, 8, Rng(17))
        cfg = SamplerConfig(beta=1.0, eta=0.1, gamma=1.5, kappa=0.9, s_max=1)
        rng = Rng(18)
        state = ChainState.initialize(Rng(19).normal((1, K)), energy)
        expected = np.exp(model1.log_conditionals_from_logits(state.logits, cfg.tau))[0]
        n = 100_000
        counts = np.zeros(K)
        for _ in range(n):
            proposal = jump_propose(state, cfg, energy, model1, rng)
            counts[proposal.forward_tokens[0]] += 1
        freq = counts / n
        sigma = np.sqrt(expected * (1 - expected) / n)
        assert np.all(np.abs(freq - expected) < 3 * sigma + 1e-9)

    def test_acceptance_formula_components(self, model):
        rng = Rng(20)
        contacts = [(0, 1, rng.normal((K, K))), (2, 3, rng.normal((K, K)))]
        energy = CompositeEnergy(
            PairwiseContactEnergy(contacts, rng.normal((L, K))),
            SoftPlmEnergy(model, 1.0),
            0.2,
        )
        # target must be confining for a realistic state; quadratic added
        energy = CompositeEnergy(energy, GaussianEnergy(np.zeros((L, K)), 2.0), 1.0)
        cfg = SamplerConfig(beta=0.9, eta=0.1, gamma=2.0, kappa=0.6, s_max=2)
        state = ChainState.initialize(rng.normal((L, K)), energy)
        proposal = jump_propose(state, cfg, energy, model, rng)
        log_alpha = jump_accept(state, proposal, cfg, model)
        # manual recomputation
        p_rev = mask_probabilities(proposal.gradient, cfg.kappa)
        lc_rev = model.log_conditionals_from_logits(proposal.logits, cfg.tau)
        manual = min(
            0.0,
            -cfg.beta * (proposal.energy - state.energy)
            + mask_log_mass(proposal.sites, p_rev, cfg.s_max, cfg.mask_mode)
            - proposal.log_mass_forward
            + float(lc_rev[proposal.sites, proposal.reference_tokens].sum())
            - proposal.log_plm_forward,
        )
        assert log_alpha == manual

    def test_overflowing_energy_vetoed_without_warning(self, model):
        # a swap of gamma = 1 on a Gaussian of scale 1e-160 overflows its
        # energy and gradient; the jump vetoes the proposal as a walk does,
        # and the overflow raises no RuntimeWarning
        energy = GaussianEnergy(np.zeros((L, K)), 1e-160)
        state = ChainState.initialize(np.zeros((L, K)), energy)
        cfg = SamplerConfig(beta=1.0, eta=0.1, gamma=1.0, s_max=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            proposal = jump_propose(state, cfg, energy, model, Rng(81))
            log_alpha = jump_accept(state, proposal, cfg, model)
        assert not np.array_equal(proposal.logits, state.logits)
        assert not proposal.finite and proposal.energy == np.inf
        assert log_alpha == -np.inf


class TestJumpTerms:
    """A state computes its mask probabilities, size table, Z(p) and
    masked-model log-conditionals once per (kappa, s_max, tau, model)."""

    def test_computed_once_per_state(self, monkeypatch):
        # p_jump = 1: the start state once, then each proposal once when it
        # is priced; an accepted proposal brings its terms to its next jump
        # and a rejected jump leaves the state's terms in place
        counts = {"mask_probabilities": 0, "log_conditionals_from_logits": 0}

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        counted(rss.sampler, "mask_probabilities")
        counted(MaskedSequenceModel, "log_conditionals_from_logits")
        length, vocab, steps = 8, 5, 300
        energy = GaussianEnergy(Rng(60).normal((length, vocab)), 1.0)
        model8 = MaskedSequenceModel.random(length, vocab, 8, Rng(61))
        cfg = SamplerConfig(beta=1.0, eta=0.1, p_jump=1.0, gamma=1.0, steps=steps)
        sink = io.StringIO()
        summary = run_chain(Rng(62).normal((length, vocab)), cfg, energy, model=model8,
                            rng=Rng(63), trace=sink)
        rows = [line.split(",") for line in sink.getvalue().strip().split("\n")[1:]]
        assert summary.moves("jump")[0] == steps
        assert 0 < summary.moves("jump")[1] < steps
        assert all(float(row[3]) > -math.inf for row in rows)  # every proposal finite
        assert counts == {"mask_probabilities": steps + 1,
                          "log_conditionals_from_logits": steps + 1}

    @pytest.mark.parametrize("change", ["kappa", "s_max", "tau", "model"])
    def test_reused_state_matches_fresh_state(self, gaussian, model, change):
        cfg = SamplerConfig(beta=1.0, eta=0.1, gamma=1.5, kappa=0.5, s_max=2)
        other = {"kappa": dataclasses.replace(cfg, kappa=0.9),
                 "s_max": dataclasses.replace(cfg, s_max=3),
                 "tau": dataclasses.replace(cfg, tau=1.7),
                 "model": cfg}[change]
        other_model = MaskedSequenceModel.random(L, K, 8, Rng(64)) if change == "model" else model
        logits = Rng(65).normal((L, K))
        reused = ChainState.initialize(logits, gaussian)
        fresh = ChainState.initialize(logits, gaussian)
        first = jump_propose(reused, cfg, gaussian, model, Rng(66))
        jump_accept(reused, first, cfg, model)

        # the two keys give different terms, so stale terms would show
        law, log_cond = reused.jump_terms(cfg, model)
        law2, log_cond2 = fresh.jump_terms(other, other_model)
        assert law.z != law2.z or not np.array_equal(log_cond, log_cond2)

        again = jump_propose(reused, other, gaussian, other_model, Rng(67))
        expected = jump_propose(fresh, other, gaussian, other_model, Rng(67))
        for name in ("logits", "sites", "forward_tokens", "reference_tokens"):
            np.testing.assert_array_equal(getattr(again, name), getattr(expected, name))
        assert again.log_mass_forward == expected.log_mass_forward
        assert again.log_plm_forward == expected.log_plm_forward
        # a proposal priced under the first config, then under the second
        jump_accept(reused, again, cfg, model)
        assert (jump_accept(reused, again, other, other_model)
                == jump_accept(fresh, expected, other, other_model))

    # the jump reads the log-conditionals a state's evaluation kept only
    # when the energy's prior is the jump's model at cfg.tau; a chain
    # without a prior term or with one at another tau runs its own forward
    @pytest.mark.parametrize("lam, prior_tau, own_forwards", [
        (0.1, 1.3, False), (0.0, 1.3, True), (0.1, 1.0, True),
    ], ids=["same-tau", "lam-zero", "other-tau"])
    def test_jump_reuses_only_its_own_model_at_its_tau(self, monkeypatch, lam, prior_tau,
                                                         own_forwards):
        length, vocab, steps = 8, 5, 120
        model8 = MaskedSequenceModel.random(length, vocab, 8, Rng(72))
        targets = np.abs(Rng(73).normal((length, vocab))) + 0.1
        base = TargetProfileEnergy(targets / targets.sum(axis=1, keepdims=True))
        energy = compose_energy(base, 2.0, model8, lam, prior_tau)
        cfg = SamplerConfig(beta=1.0, eta=0.1, p_jump=1.0, gamma=1.0, tau=1.3, steps=steps)
        logits0 = Rng(74).normal((length, vocab))

        # bit-equal to a fresh forward at every state the chain visits
        state, rng = ChainState.initialize(logits0, energy), Rng(75)
        for _ in range(steps):
            state, _ = step(state, cfg, energy, model8, rng)
            np.testing.assert_array_equal(state.jump_terms(cfg, model8)[-1],
                                          model8.log_conditionals_from_logits(state.logits,
                                                                              cfg.tau))

        counts = {"_forward": 0, "log_conditionals_from_logits": 0}
        for name in counts:
            def counted(*args, _name=name, _original=getattr(MaskedSequenceModel, name)):
                counts[_name] += 1
                return _original(*args)
            monkeypatch.setattr(MaskedSequenceModel, name, counted)
        summary = run_chain(logits0, cfg, energy, model=model8, rng=Rng(75))
        assert summary.moves("jump")[0] == steps
        own = steps + 1 if own_forwards else 0  # each state priced once, as above
        prior_forwards = summary.energy_evaluations if lam > 0 else 0
        assert counts == {"_forward": prior_forwards + own, "log_conditionals_from_logits": own}

    @pytest.mark.parametrize("p_jump", [0.0, 1.0])
    def test_accepted_proposal_is_the_next_state(self, gaussian, model, monkeypatch, p_jump):
        proposals = []
        for name in ("walk_propose", "jump_propose"):
            def recorder(*args, _propose=getattr(rss.sampler, name)):
                proposals.append(_propose(*args))
                return proposals[-1]
            monkeypatch.setattr(rss.sampler, name, recorder)
        cfg = SamplerConfig(beta=1.0, eta=0.1, p_jump=p_jump, gamma=1.0)
        state = ChainState.initialize(Rng(68).normal((L, K)), gaussian)
        rng = Rng(69)
        outcomes = set()
        for _ in range(100):
            next_state, record = step(state, cfg, gaussian, model, rng)
            assert next_state is (proposals[-1] if record.accepted else state)
            outcomes.add(record.accepted)
            state = next_state
        assert outcomes == {True, False}


def start_mask_probabilities(length: int) -> np.ndarray:
    """kappa 0.5 mask probabilities at the start of an L x 20 chain on target
    profile (seed 7) + ridge 2.5 + 0.1 x SoftPlm (width 16, seed 3), from
    0.5 x N(0, 1) logits (seed 1001). Z(p) falls below 1e-300 from about
    L = 1,830 on."""
    raw = np.abs(Rng(7).normal((length, 20))) + 0.1
    base = TargetProfileEnergy(raw / raw.sum(axis=1, keepdims=True))
    model = MaskedSequenceModel.random(length, 20, 16, Rng(3))
    energy = compose_energy(base, 2.5, model, 0.1, 1.0)
    state = ChainState.initialize(0.5 * Rng(1001).normal((length, 20)), energy)
    return mask_probabilities(state.gradient, 0.5)


class TestScaledMaskLaw:
    """The size table is kept in scaled form, so the mask law is right at
    every L; where no row is rescaled it has the unscaled loop's bits."""

    def test_table_bitwise_equals_unscaled_loop(self):
        gen = np.random.default_rng(90)
        undrawable = 0
        for case in range(300):
            length, s_max = int(gen.integers(1, 202)), int(gen.integers(1, 6))
            p = gen.random(length) * gen.choice([1e-6, 1e-2, 0.2, 1.0])
            if case % 10 == 0:  # no site can be picked, or more than s_max must be
                p = np.zeros(length) if case % 20 == 0 else np.where(
                    np.arange(length) <= s_max, 1.0, p)
            law = MaskLaw(p, s_max)
            table, z = size_table(p, s_max)
            assert law.exponents == [0] * (length + 1)
            assert np.array(law.table).tobytes() == np.array(table).tobytes()
            assert law.z == z
            assert law.log_z == (float(np.log(z)) if z > 0 else -np.inf)
            undrawable += z == 0.0
        assert undrawable >= 20

    @pytest.mark.parametrize("length", [2560, 8192])
    def test_log_z_and_size_law_at_long_lengths(self, length):
        p = start_mask_probabilities(length)
        law = MaskLaw(p, 3)
        log_z, sizes = normalized_size_law(p, 3)
        assert law.exponents[-1] < 0
        assert abs(law.log_z - log_z) < 1e-10
        np.testing.assert_allclose(np.array(law.table[-1][1:]) / law.z, sizes,
                                   rtol=0, atol=1e-10)
        sites = np.argsort(p)[-3:]
        assert abs(law.log_mass(sites, "exact")
                   - (law.log_mass(sites, "paper") - log_z)) < 1e-10
        # the unscaled loop sinks into subnormals here and loses log Z
        _, z = size_table(p, 3)
        assert z == 0.0 or abs(math.log(z) - log_z) > 100

    def test_draw_sizes_at_length_3072(self):
        p = start_mask_probabilities(3072)
        law = MaskLaw(p, 3)
        _, sizes = normalized_size_law(p, 3)
        n = 1000
        counts = np.zeros(3)
        rng = Rng(91)
        for _ in range(n):
            sites, log_mass = law.draw(rng, "exact")
            assert np.isfinite(log_mass)
            counts[sites.size - 1] += 1
        # sizes 1 and 2 expect about 2 draws together, so they are pooled
        obs = [counts[:2].sum(), counts[2]]
        exp = [n * sizes[:2].sum(), n * sizes[2]]
        assert stats.chisquare(obs, exp).pvalue > 1e-3

    def test_draw_across_a_rescaled_row(self):
        # sites all but sure to be picked (1 - p_i ~ 1e-16) take Z(p) to about
        # 1e-334 at L = 24, so row 20 of the size table is rescaled and the
        # draw lines its rows up across it; each set's frequency and log mass
        # match the law priced set by set in log space
        length, s_max, n = 24, 2, 10_000
        q = np.tile([1.0, 2.0, 3.0, 4.0], 6) * 2.0 ** -52
        p = 1.0 - q
        law = MaskLaw(p, s_max)
        assert law.exponents[20] < law.exponents[19] == 0
        sets = [s for r in range(1, s_max + 1) for s in itertools.combinations(range(length), r)]
        index = {s: i for i, s in enumerate(sets)}
        raw = np.array([np.log(np.where(np.isin(np.arange(length), s), p, q)).sum()
                        for s in sets])
        log_z = np.logaddexp.reduce(raw)
        assert abs(law.log_z - log_z) < 1e-10
        counts = np.zeros(len(sets))
        rng = Rng(96)
        for _ in range(n):
            sites, log_mass = law.draw(rng, "exact")
            counts[index[tuple(sites.tolist())]] += 1
            assert abs(log_mass - (raw[index[tuple(sites.tolist())]] - log_z)) < 1e-10
        expected = n * np.exp(raw - log_z)
        small = expected < 5  # the one-site sets, pooled
        obs = np.append(counts[~small], counts[small].sum())
        exp = np.append(expected[~small], expected[small].sum())
        assert stats.chisquare(obs, exp).pvalue > 1e-3

    def test_chain_at_length_4096(self):
        length = 4096
        energy = GaussianEnergy(np.zeros((length, K)), 1.0)
        model4096 = MaskedSequenceModel.random(length, K, 8, Rng(92))
        cfg = SamplerConfig(beta=1.0, eta=0.05, p_jump=0.5, gamma=1.0, steps=200)
        sink = io.StringIO()
        summary = run_chain(Rng(93).normal((length, K)), cfg, energy, model=model4096,
                            rng=Rng(94), trace=sink)
        rows = [line.split(",") for line in sink.getvalue().strip().split("\n")[1:]]
        jumps = [float(row[3]) for row in rows if row[1] == "jump"]
        assert len(jumps) == summary.moves("jump")[0] > 50
        assert all(math.isfinite(log_alpha) for log_alpha in jumps)
        law = summary.final_state.jump_terms(cfg, model4096)[0]
        assert law.exponents[-1] < 0
        assert abs(law.log_z - normalized_size_law(law.probs, cfg.s_max)[0]) < 1e-10


class TestStep:
    def test_pjump_zero_only_walks(self, gaussian, model):
        cfg = SamplerConfig(beta=1.0, eta=0.1, p_jump=0.0)
        rng = Rng(21)
        state = ChainState.initialize(rng.normal((L, K)), gaussian)
        for _ in range(500):
            state, record = step(state, cfg, gaussian, model, rng)
            assert record.kind == "walk"

    def test_pjump_one_only_jumps(self, model):
        energy = CompositeEnergy(
            GaussianEnergy(np.zeros((L, K)), 2.0),
            SoftPlmEnergy(model, 1.0),
            0.1,
        )
        cfg = SamplerConfig(beta=1.0, eta=0.1, p_jump=1.0, gamma=1.5)
        rng = Rng(22)
        state = ChainState.initialize(rng.normal((L, K)), energy)
        for _ in range(300):
            state, record = step(state, cfg, energy, model, rng)
            assert record.kind == "jump"

    def test_rejection_leaves_state_bit_identical(self, gaussian, model):
        cfg = SamplerConfig(beta=1.0, eta=2.5, p_jump=0.3, gamma=3.0)
        rng = Rng(23)
        state = ChainState.initialize(rng.normal((L, K)), gaussian)
        rejections = 0
        for _ in range(400):
            before = state.logits
            state, record = step(state, cfg, gaussian, model, rng)
            if not record.accepted:
                rejections += 1
                assert state.logits is before or np.array_equal(state.logits, before)
                assert np.array_equal(state.logits, before)
        assert rejections > 0

    def test_jump_without_model_raises(self, gaussian):
        cfg = SamplerConfig(beta=1.0, eta=0.1, p_jump=1.0)
        state = ChainState.initialize(np.zeros((L, K)), gaussian)
        with pytest.raises(ValueError):
            step(state, cfg, gaussian, None, Rng(24))


class TestRunChain:
    def test_jumping_chain_without_model_fails_before_evaluating(self):
        # it used to raise only at the first drawn jump, after trace rows
        class CountedEnergy(GaussianEnergy):
            calls = 0

            def evaluate(self, logits, rows=None):
                CountedEnergy.calls += 1
                return super().evaluate(logits)

        cfg = SamplerConfig(beta=1.0, eta=0.1, p_jump=0.2, steps=50)
        sink = io.StringIO()
        with pytest.raises(ValueError, match="p_jump > 0 requires a masked sequence model"):
            run_chain(Rng(70).normal((L, K)), cfg, CountedEnergy(np.zeros((L, K)), 1.0),
                      rng=Rng(71), trace=sink)
        assert sink.getvalue() == ""
        assert CountedEnergy.calls == 0

    def test_zero_steps(self, gaussian):
        cfg = SamplerConfig(beta=1.0, eta=0.1, steps=0, burn_in=5)
        logits0 = Rng(25).normal((L, K))
        summary = run_chain(logits0, cfg, gaussian, rng=Rng(26))
        assert summary.steps == 0
        assert summary.moves("walk") == (0, 0) and summary.moves("jump") == (0, 0)
        assert summary.acceptance("walk") is None
        assert summary.acceptance("jump", post_burn_in=True) is None
        assert summary.post_burn_in_energies().size == 0
        np.testing.assert_array_equal(summary.final_state.logits, logits0)
        assert summary.energy_evaluations == 1

    def test_gaussian_moments_short(self, gaussian):
        cfg = SamplerConfig(
            beta=1.0, eta=0.2, p_jump=0.0, steps=20_000,
            adapt_eta=True, burn_in=2000,
        )
        summary = run_chain(
            gaussian.center.copy(), cfg, gaussian, rng=Rng(27), snapshot_stride=1
        )
        post = np.stack([s for (t, s) in summary.snapshots if t > cfg.burn_in])
        assert np.max(np.abs(post.mean(axis=0) - gaussian.center)) < 0.12
        assert np.max(np.abs(post.var(axis=0) - 1.0)) < 0.12
        assert 0.35 < summary.acceptance("walk", post_burn_in=True) < 0.65

    def test_walk_jump_mixture_recovers_gaussian_moments(self, gaussian, model):
        # any acceptance-ratio bug in the jump kernel would bias these moments
        cfg = SamplerConfig(
            beta=1.0, eta=0.4, p_jump=0.25, gamma=1.5, kappa=0.5,
            steps=40_000, adapt_eta=True, burn_in=3000,
        )
        summary = run_chain(
            gaussian.center.copy(), cfg, gaussian, model=model, rng=Rng(270),
            snapshot_stride=1,
        )
        post = np.stack([s for (t, s) in summary.snapshots if t > cfg.burn_in])
        assert summary.moves("jump")[1] > 500
        assert np.max(np.abs(post.mean(axis=0) - gaussian.center)) < 0.12
        assert np.max(np.abs(post.var(axis=0) - 1.0)) < 0.12

    def test_eta_frozen_after_burn_in(self, gaussian):
        cfg = SamplerConfig(
            beta=1.0, eta=0.05, p_jump=0.0, steps=500, adapt_eta=True, burn_in=100
        )
        summary = run_chain(Rng(28).normal((L, K)), cfg, gaussian, rng=Rng(29))
        assert summary.eta_final != cfg.eta
        cfg2 = SamplerConfig(
            beta=1.0, eta=summary.eta_final, p_jump=0.0, steps=400, adapt_eta=False
        )
        summary2 = run_chain(Rng(28).normal((L, K)), cfg2, gaussian, rng=Rng(30))
        assert summary2.eta_final == cfg2.eta

    def test_energy_evaluation_count(self, gaussian, model):
        cfg = SamplerConfig(beta=1.0, eta=0.1, p_jump=0.4, steps=250, gamma=1.0)
        summary = run_chain(Rng(31).normal((L, K)), cfg, gaussian, model=model, rng=Rng(32))
        assert summary.energy_evaluations == cfg.steps + 1

    def test_move_counts_match_trace_rows(self, gaussian, model):
        cfg = SamplerConfig(beta=1.0, eta=0.1, p_jump=0.4, steps=200, gamma=1.0, burn_in=60)
        sink = io.StringIO()
        summary = run_chain(Rng(41).normal((L, K)), cfg, gaussian, model=model,
                            rng=Rng(42), trace=sink)
        rows = [line.split(",") for line in sink.getvalue().strip().split("\n")[1:]]
        for kind in ("walk", "jump"):
            for start in (0, cfg.burn_in):
                mine = [r for r in rows[start:] if r[1] == kind]
                expected = (len(mine), sum(r[4] == "1" for r in mine))
                assert summary.moves(kind, post_burn_in=start > 0) == expected
                assert expected[0] > 0
                assert summary.acceptance(kind, post_burn_in=start > 0) == (
                    expected[1] / expected[0])
        np.testing.assert_array_equal(
            summary.energies[1:], [float(r[2]) for r in rows])
        np.testing.assert_array_equal(summary.post_burn_in_energies(),
                                      summary.energies[cfg.burn_in + 1:])
        with pytest.raises(ValueError, match="move kind"):
            summary.moves("swap")

    def test_trace_csv(self, gaussian, tmp_path):
        cfg = SamplerConfig(beta=1.0, eta=0.1, p_jump=0.0, steps=20)
        sink = io.StringIO()
        summary = run_chain(Rng(33).normal((L, K)), cfg, gaussian, rng=Rng(34), trace=sink)
        lines = sink.getvalue().strip().split("\n")
        assert lines[0] == "step,kind,energy,log_alpha,accepted,mask_size"
        assert len(lines) == 21
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "walk"
        assert float(first[2]) == summary.energies[1]

    def test_debug_cache_check_passes(self, gaussian, model):
        # the cached (energy, gradient) equals a fresh evaluation every 10 steps
        cfg = SamplerConfig(beta=1.0, eta=0.1, p_jump=0.3, steps=120, gamma=1.0)
        state = ChainState.initialize(Rng(35).normal((L, K)), gaussian)
        rng = Rng(36)
        for t in range(cfg.steps):
            state, _ = step(state, cfg, gaussian, model, rng)
            if (t + 1) % 10 == 0:
                value, grad = gaussian.evaluate(state.logits)
                assert value == state.energy
                assert np.array_equal(grad, state.gradient)

    def test_determinism(self, gaussian, model):
        cfg = SamplerConfig(beta=1.0, eta=0.15, p_jump=0.25, steps=300, gamma=1.5)
        s1 = run_chain(Rng(37).normal((L, K)), cfg, gaussian, model=model, rng=Rng(38))
        s2 = run_chain(Rng(37).normal((L, K)), cfg, gaussian, model=model, rng=Rng(38))
        assert np.array_equal(s1.energies, s2.energies)
        assert np.array_equal(s1.final_state.logits, s2.final_state.logits)

    def test_snapshot_roundtrip(self, gaussian, tmp_path):
        cfg = SamplerConfig(beta=1.0, eta=0.1, p_jump=0.0, steps=100)
        summary = run_chain(Rng(39).normal((L, K)), cfg, gaussian, rng=Rng(40),
                            snapshot_stride=25)
        path = tmp_path / "snaps.txt"
        save_snapshots(path, summary.snapshots, (L, K))
        loaded = load_snapshots(path)
        assert [s for s, _ in loaded] == [s for s, _ in summary.snapshots]
        for (_, a), (_, b) in zip(loaded, summary.snapshots):
            np.testing.assert_array_equal(a, b)


class TestDiagnostics:
    def test_iid_series_ess_near_n(self):
        n = 10_000
        series = Rng(41).normal((n,))
        result = ess_and_autocorr(series)
        assert 0.8 * n <= result.ess <= 1.2 * n
        assert not result.degenerate

    def test_constant_series_flagged(self):
        result = ess_and_autocorr(np.full(100, 3.7))
        assert result.degenerate
        assert result.ess == 100.0

    def test_ar1_integrated_time(self):
        rho = 0.9
        n = 200_000
        rng = Rng(42)
        noise = rng.normal((n,))
        series = np.empty(n)
        series[0] = noise[0]
        for t in range(1, n):
            series[t] = rho * series[t - 1] + math.sqrt(1 - rho * rho) * noise[t]
        result = ess_and_autocorr(series)
        analytic = (1 + rho) / (1 - rho)  # 19
        assert abs(result.tau_int - analytic) / analytic < 0.25

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            ess_and_autocorr(np.arange(5.0))


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beta": 0.0, "eta": 0.1},
            {"beta": 1.0, "eta": -1.0},
            {"beta": 1.0, "eta": 0.1, "p_jump": 1.5},
            {"beta": 1.0, "eta": 0.1, "kappa": 0.0},
            {"beta": 1.0, "eta": 0.1, "gamma": 0.0},
            {"beta": 1.0, "eta": 0.1, "tau": 0.0},
            {"beta": 1.0, "eta": 0.1, "s_max": 0},
            {"beta": 1.0, "eta": 0.1, "mask_mode": "bogus"},
            {"beta": 1.0, "eta": 0.1, "steps": -1},
            {"beta": 1.0, "eta": 0.1, "burn_in": -2},
            {"beta": float("nan"), "eta": 0.1},
            {"beta": float("inf"), "eta": 0.1},
            {"beta": 1.0, "eta": float("inf")},
            {"beta": 1.0, "eta": 0.1, "gamma": float("nan")},
            {"beta": 1.0, "eta": 0.1, "tau": float("inf")},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SamplerConfig(**kwargs)
