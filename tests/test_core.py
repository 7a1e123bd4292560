import math

import mpmath
import numpy as np
import pytest

from rss.core import (
    Rng,
    argmax_decode,
    cross_entropy,
    decode_to_letters,
    kl_divergence,
    one_hot,
    row_marginals,
)

from oracles import entropy, finite_diff_gradient, js_divergence


def random_simplex(rng, k):
    w = -np.log(rng.uniforms(k))
    return w / w.sum()


class TestRowMarginals:
    def test_symmetric_row(self):
        out = row_marginals(np.zeros((1, 3)))
        np.testing.assert_allclose(out[0], [1 / 3, 1 / 3, 1 / 3], rtol=0, atol=1e-15)

    def test_analytic_softmax_shift_invariant(self):
        for c in (-5.0, 0.0, 17.25):
            out = row_marginals(np.array([[c, c + math.log(2.0)]]))
            np.testing.assert_allclose(out[0], [1 / 3, 2 / 3], atol=1e-14)

    def test_large_logit_no_overflow(self):
        out = row_marginals(np.array([[1000.0, 0.0, 0.0]]))
        assert out[0, 0] == 1.0 and out[0, 1] == 0.0 and out[0, 2] == 0.0

    def test_shift_invariance_property(self):
        rng = Rng(10)
        logits = rng.normal((7, 5))
        shifts = rng.normal((7, 1))
        base = row_marginals(logits)
        shifted = row_marginals(logits + shifts)
        np.testing.assert_allclose(shifted, base, atol=1e-12)

    def test_rows_on_simplex(self):
        rng = Rng(11)
        out = row_marginals(10.0 * rng.normal((20, 6)))
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_nonfinite_rejected(self):
        bad = np.zeros((2, 3))
        bad[1, 1] = np.inf
        with pytest.raises(ValueError):
            row_marginals(bad)


class TestArgmaxDecode:
    def test_constant_pattern(self):
        logits = np.tile([0.0, 1.0, 0.0], (4, 1))
        np.testing.assert_array_equal(argmax_decode(logits), [1, 1, 1, 1])

    def test_tie_breaks_low_index(self):
        assert argmax_decode(np.array([[2.0, 2.0, 0.0]]))[0] == 0

    def test_matches_per_row_scan(self):
        rng = Rng(12)
        logits = rng.normal((30, 8))
        expected = [max(range(8), key=lambda k: (logits[i, k], -k)) for i in range(30)]
        # brute force with explicit lowest-index tie break
        brute = []
        for row in logits:
            best = 0
            for k in range(1, 8):
                if row[k] > row[best]:
                    best = k
            brute.append(best)
        np.testing.assert_array_equal(argmax_decode(logits), brute)
        np.testing.assert_array_equal(argmax_decode(logits), expected)


class TestDivergences:
    def test_cross_entropy_onehot(self):
        p = np.array([0.0, 1.0, 0.0])
        q = np.array([0.25, 0.5, 0.25])
        assert abs(cross_entropy(p, q) - math.log(2.0)) < 1e-15

    def test_cross_entropy_uniform(self):
        k = 7
        u = np.full(k, 1.0 / k)
        assert abs(cross_entropy(u, u) - math.log(k)) < 1e-14

    def test_cross_entropy_matches_extended_precision_sum(self):
        rng = Rng(13)
        for _ in range(20):
            p = random_simplex(rng, 9)
            q = random_simplex(rng, 9)
            with mpmath.workdps(50):
                oracle = float(
                    -mpmath.fsum(mpmath.mpf(pi) * mpmath.log(mpmath.mpf(qi))
                                 for pi, qi in zip(p, q))
                )
            assert abs(cross_entropy(p, q) - oracle) < 1e-12

    def test_cross_entropy_length_mismatch(self):
        with pytest.raises(ValueError):
            cross_entropy(np.array([0.5, 0.5]), np.array([1 / 3, 1 / 3, 1 / 3]))

    def test_kl_js_zero_at_identity(self):
        rng = Rng(14)
        p = random_simplex(rng, 5)
        assert kl_divergence(p, p) == 0.0
        assert js_divergence(p, p) == 0.0

    def test_kl_analytic(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.5, 0.5])
        assert abs(kl_divergence(p, q) - math.log(2.0)) < 1e-15

    def test_js_symmetric_and_bounded(self):
        rng = Rng(15)
        for _ in range(30):
            p = random_simplex(rng, 6)
            q = random_simplex(rng, 6)
            a, b = js_divergence(p, q), js_divergence(q, p)
            assert abs(a - b) < 1e-14
            assert 0.0 <= a <= math.log(2.0) + 1e-15

    def test_js_bitwise_equals_nested_kl(self):
        # the single-check JS must give the same bits as the old form, which
        # called kl_divergence twice
        rng = Rng(17)
        for k in (2, 5, 20):
            for _ in range(200):
                p = random_simplex(rng, k)
                q = random_simplex(rng, k)
                p[rng.integer(k)] = 0.0
                p /= p.sum()
                mid = 0.5 * (p + q)
                old = 0.5 * kl_divergence(p, mid) + 0.5 * kl_divergence(q, mid)
                assert js_divergence(p, q) == old

    def test_invalid_simplex_rejected(self):
        with pytest.raises(ValueError):
            kl_divergence(np.array([0.7, 0.7]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            js_divergence(np.array([-0.2, 1.2]), np.array([0.5, 0.5]))

    def test_gibbs_inequality(self):
        # cross entropy >= entropy with equality iff p == q
        rng = Rng(16)
        for _ in range(50):
            p = random_simplex(rng, 8)
            q = random_simplex(rng, 8)
            assert cross_entropy(p, q) >= entropy(p) - 1e-10
            assert abs(cross_entropy(p, p) - entropy(p)) < 1e-12


class TestFiniteDiff:
    def test_quadratic(self):
        rng = Rng(17)
        logits = rng.normal((4, 3))
        grad = finite_diff_gradient(lambda x: float((x * x).sum()), logits)
        np.testing.assert_allclose(grad, 2.0 * logits, rtol=1e-6, atol=1e-9)

    def test_constant(self):
        grad = finite_diff_gradient(lambda x: 3.5, np.ones((3, 4)))
        np.testing.assert_array_equal(grad, np.zeros((3, 4)))

    def test_nonfinite_function_reported(self):
        def bad(x):
            return float("nan")

        with pytest.raises(ValueError, match=r"\(0, 0\)"):
            finite_diff_gradient(bad, np.zeros((2, 2)))


class TestRng:
    def test_bit_identical_streams(self):
        a, b = Rng(99), Rng(99)
        assert np.array_equal(a.normal((10, 3)), b.normal((10, 3)))
        assert a.uniform() == b.uniform()
        assert np.array_equal(a.uniforms(100), b.uniforms(100))
        w = np.array([0.2, 0.5, 0.3])
        assert [a.categorical(w) for _ in range(20)] == [b.categorical(w) for _ in range(20)]
        assert [a.integer(7) for _ in range(20)] == [b.integer(7) for _ in range(20)]

    def test_categorical_frequencies(self):
        rng = Rng(5)
        w = np.array([0.1, 0.6, 0.3])
        n = 20000
        draws = np.array([rng.categorical(w) for _ in range(n)])
        freq = np.bincount(draws, minlength=3) / n
        sigma = np.sqrt(w * (1 - w) / n)
        assert np.all(np.abs(freq - w) < 4 * sigma)

    def test_bernoulli_vector(self):
        rng = Rng(6)
        p = np.array([0.0, 1.0 - 1e-12, 0.5])
        draws = np.stack([rng.bernoulli(p) for _ in range(2000)])
        assert draws[:, 0].sum() == 0
        assert draws[:, 1].sum() == 2000
        assert 850 < draws[:, 2].sum() < 1150

    def test_negative_seed_rejected(self):
        # numpy's own message, "expected non-negative integer", names nothing
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            Rng(-1)

    def test_categorical_rejects_bad_weights(self):
        rng = Rng(7)
        with pytest.raises(ValueError):
            rng.categorical(np.array([0.0, -1.0]))
        with pytest.raises(ValueError):
            rng.categorical(np.array([0.0, 0.0]))


class TestHelpers:
    def test_one_hot_exact(self):
        out = one_hot([2, 0], 3)
        np.testing.assert_array_equal(out, [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        with pytest.raises(ValueError):
            one_hot([3], 3)

    def test_decode_to_letters(self):
        assert decode_to_letters([0, 1, 19]) == "ACY"
        with pytest.raises(ValueError):
            decode_to_letters([20])
