import numpy as np
import pytest

from rss.core import Rng, one_hot, row_marginals
from rss.softplm import (
    MaskedSequenceModel,
    SoftPlmEnergy,
    calibrate_temperature,
    load_model,
    save_model,
)

from oracles import entropy, finite_diff_gradient

L, K, D = 6, 5, 8


@pytest.fixture(scope="module")
def model():
    return MaskedSequenceModel.random(L, K, D, Rng(77))


def random_marginals(rng, length=L, vocab=K):
    return row_marginals(rng.normal((length, vocab)))


def naive_masked_logits(model, z):
    # rebuilds each masked context from scratch, one site at a time, from
    # the per-site embedding rows z
    out = np.empty(model.shape)
    for i in range(model.shape[0]):
        terms = [z[j] + model.positional[j] for j in range(model.shape[0]) if j != i]
        mean = np.mean(terms, axis=0) if terms else np.zeros(model.width)
        pre = model.mix @ mean + model.mask_embed + model.positional[i]
        out[i] = np.tanh(pre) @ model.readout + model.bias
    return out


def naive_conditionals(model, marginals, tau):
    scaled = naive_masked_logits(model, marginals @ model.embed) / tau
    scaled -= scaled.max(axis=1, keepdims=True)
    return np.exp(scaled) / np.exp(scaled).sum(axis=1, keepdims=True)


class TestExpectedEmbeddings:
    # masked_logits must see each site as its mixture-weighted embedding
    # q_i @ embed; each test gives the reference those rows directly
    def test_onehot_selects_embedding_row(self, model):
        tokens = np.array([3, 0, 1, 4, 2, 3])
        np.testing.assert_allclose(
            model.masked_logits(one_hot(tokens, K)),
            naive_masked_logits(model, model.embed[tokens]), rtol=0, atol=1e-14,
        )

    def test_uniform_gives_column_means(self, model):
        q = np.full((L, K), 1.0 / K)
        np.testing.assert_allclose(
            model.masked_logits(q),
            naive_masked_logits(model, np.tile(model.embed.mean(axis=0), (L, 1))),
            rtol=0, atol=1e-14,
        )

    def test_matches_direct_sum(self, model):
        rng = Rng(1)
        q = random_marginals(rng)
        direct = np.array(
            [sum(q[i, k] * model.embed[k] for k in range(K)) for i in range(L)]
        )
        np.testing.assert_allclose(
            model.masked_logits(q), naive_masked_logits(model, direct), rtol=0, atol=1e-14,
        )


class TestConditionals:
    def test_shared_path_bitwise_identity(self, model):
        tokens = np.array([0, 4, 2, 1, 3, 0])
        via_tokens = model.conditionals_from_tokens(tokens, 1.0)
        via_marginals = model.conditionals(one_hot(tokens, K), 1.0)
        assert np.array_equal(via_tokens, via_marginals)

    def test_saturated_logits_reproduce_discrete(self, model):
        # logits large enough that softmax underflows to exact one-hot rows
        tokens = np.array([1, 1, 0, 4, 2, 3])
        saturated = 800.0 * one_hot(tokens, K)
        assert np.array_equal(row_marginals(saturated), one_hot(tokens, K))
        assert np.array_equal(
            model.conditionals(row_marginals(saturated), 1.0),
            model.conditionals_from_tokens(tokens, 1.0),
        )

    def test_high_temperature_flattens(self, model):
        rng = Rng(3)
        cond = model.conditionals(random_marginals(rng), 1e8)
        np.testing.assert_allclose(cond, 1.0 / K, atol=1e-6)

    def test_matches_naive_reimplementation(self, model):
        rng = Rng(4)
        q = random_marginals(rng)
        fast = model.conditionals(q, 0.9)
        slow = naive_conditionals(model, q, 0.9)
        np.testing.assert_allclose(fast, slow, atol=1e-12)

    def test_rows_are_simplices(self, model):
        rng = Rng(5)
        for _ in range(5):
            tokens = np.array([rng.integer(K) for _ in range(L)])
            cond = model.conditionals_from_tokens(tokens, 0.7)
            assert np.all(cond > 0)
            np.testing.assert_allclose(cond.sum(axis=1), 1.0, atol=1e-12)

    def test_equal_positional_rows_give_permutation_symmetry(self):
        rng = Rng(6)
        base = MaskedSequenceModel.random(4, K, D, rng)
        positional = base.positional.copy()
        positional[2] = positional[1]  # sites 1 and 2 indistinguishable
        sym = MaskedSequenceModel(
            base.embed, base.mask_embed, positional, base.mix, base.readout, base.bias
        )
        x = np.array([0, 3, 2, 1])
        y = np.array([0, 2, 3, 1])  # swap the context tokens at sites 1 and 2
        cx = sym.conditionals_from_tokens(x, 1.0)
        cy = sym.conditionals_from_tokens(y, 1.0)
        np.testing.assert_allclose(cx[0], cy[0], atol=1e-14)
        np.testing.assert_allclose(cx[3], cy[3], atol=1e-14)

    def test_token_out_of_range(self, model):
        with pytest.raises(ValueError):
            model.conditionals_from_tokens(np.array([0, 1, 2, 3, 4, K]), 1.0)

    def test_bad_tau(self, model):
        with pytest.raises(ValueError):
            model.conditionals(np.full((L, K), 1.0 / K), 0.0)

    def test_single_site_model(self):
        tiny = MaskedSequenceModel.random(1, K, D, Rng(8))
        cond = tiny.conditionals(np.full((1, K), 1.0 / K), 1.0)
        np.testing.assert_allclose(cond.sum(axis=1), 1.0, atol=1e-12)
        # at L = 1 the leave-one-out mean is empty, so only the mask
        # embedding and the site's positional row reach the readout
        expected = np.tanh(tiny.mask_embed + tiny.positional) @ tiny.readout + tiny.bias
        for marginals in (np.full((1, K), 1.0 / K), one_hot([2], K)):
            np.testing.assert_array_equal(tiny.masked_logits(marginals), expected)


class TestSoftPlmEnergy:
    def test_onehot_value_is_negative_log_likelihood(self, model):
        tokens = np.array([2, 0, 4, 1, 3, 2])
        energy = SoftPlmEnergy(model, 0.8)
        value, _ = energy.evaluate(800.0 * one_hot(tokens, K))
        cond = model.conditionals_from_tokens(tokens, 0.8)
        expected = -sum(np.log(cond[i, tokens[i]]) for i in range(L))
        assert abs(value - expected) < 1e-10

    def test_gradient_matches_central_differences(self, model):
        energy = SoftPlmEnergy(model, 0.8)
        rng = Rng(9)
        worst = 0.0
        for _ in range(50):
            logits = rng.normal((L, K))
            _, grad = energy.evaluate(logits)
            fd = finite_diff_gradient(lambda x: energy.evaluate(x)[0], logits)
            err = np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-3))
            worst = max(worst, err)
        assert worst < 1e-5

    def test_single_site_gradient_matches_central_differences(self):
        energy = SoftPlmEnergy(MaskedSequenceModel.random(1, K, D, Rng(8)), 0.8)
        rng = Rng(10)
        for _ in range(10):
            logits = rng.normal((1, K))
            _, grad = energy.evaluate(logits)
            fd = finite_diff_gradient(lambda x: energy.evaluate(x)[0], logits)
            assert np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-3)) < 1e-5

    def test_shift_invariance(self, model):
        energy = SoftPlmEnergy(model, 1.0)
        rng = Rng(10)
        logits = rng.normal((L, K))
        v0, _ = energy.evaluate(logits)
        v1, _ = energy.evaluate(logits + 13.5)
        assert abs(v0 - v1) < 1e-10

    def test_value_at_least_marginal_entropy(self, model):
        energy = SoftPlmEnergy(model, 1.0)
        rng = Rng(11)
        for _ in range(20):
            logits = rng.normal((L, K))
            value, _ = energy.evaluate(logits)
            floor = sum(entropy(row) for row in row_marginals(logits))
            assert value >= floor - 1e-10

    def test_deterministic(self, model):
        energy = SoftPlmEnergy(model, 0.6)
        logits = Rng(12).normal((L, K))
        v1, g1 = energy.evaluate(logits)
        v2, g2 = energy.evaluate(logits)
        assert v1 == v2
        assert np.array_equal(g1, g2)


class TestCalibration:
    def contexts(self, rng, n=40):
        return [
            (np.array([rng.integer(K) for _ in range(L)]), rng.integer(L))
            for _ in range(n)
        ]

    def test_identity_reference(self, model):
        tau = calibrate_temperature(model, model, self.contexts(Rng(13)))
        assert abs(tau - 1.0) < 1e-3

    def test_halved_logits_need_tau_two(self, model):
        reference = model.scaled(0.5)
        contexts = self.contexts(Rng(14))
        tau = calibrate_temperature(model, reference, contexts)
        assert abs(tau - 2.0) < 2e-2
        # grid-search oracle agrees
        grid = np.exp(np.linspace(np.log(0.05), np.log(20.0), 4001))

        def objective(t):
            total = 0.0
            for tokens, site in contexts:
                marg = one_hot(tokens, K)
                ref = reference.conditionals(marg, 1.0)[site]
                cand = model.conditionals(marg, t)[site]
                total += float(np.sum(ref * (np.log(ref) - np.log(cand))))
            return total / len(contexts)

        best = grid[int(np.argmin([objective(t) for t in grid]))]
        assert abs(tau - best) < 2e-2

    def test_local_optimality(self, model):
        reference = model.scaled(0.7)
        contexts = self.contexts(Rng(15), n=25)
        tau = calibrate_temperature(model, reference, contexts)

        def objective(t):
            total = 0.0
            for tokens, site in contexts:
                marg = one_hot(tokens, K)
                ref = reference.conditionals(marg, 1.0)[site]
                cand = model.conditionals(marg, t)[site]
                total += float(np.sum(ref * (np.log(ref) - np.log(cand))))
            return total / len(contexts)

        assert objective(tau) <= objective(1.1 * tau)
        assert objective(tau) <= objective(0.9 * tau)

    def test_empty_contexts_rejected(self, model):
        with pytest.raises(ValueError):
            calibrate_temperature(model, model, [])


class TestModelFile:
    def test_roundtrip_bit_exact(self, model, tmp_path):
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        for attr in ("embed", "mask_embed", "positional", "mix", "readout", "bias"):
            np.testing.assert_array_equal(getattr(loaded, attr), getattr(model, attr))
        path2 = tmp_path / "model2.txt"
        save_model(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_weights_frozen(self, model):
        with pytest.raises(ValueError):
            model.embed[0, 0] = 1.0

    @pytest.mark.parametrize("factor", [0.0, -1.0, float("nan")])
    def test_non_positive_scale_rejected(self, model, factor):
        with pytest.raises(ValueError, match="scale factor must be > 0"):
            model.scaled(factor)

    def test_zero_width_and_non_finite_weights_rejected(self, model):
        with pytest.raises(ValueError, match="width >= 1"):
            MaskedSequenceModel.random(4, 5, 0, Rng(0))
        bias = model.bias.copy()
        bias[0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            MaskedSequenceModel(model.embed, model.mask_embed, model.positional,
                                model.mix, model.readout, bias)
