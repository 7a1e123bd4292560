import hashlib
import itertools
import re
import tracemalloc

import numpy as np
import pytest

import rss.energy as energy_module

from rss.core import Rng, RowSoftmax, one_hot, row_marginals
from rss.energy import (
    CURVE_QUANTILES,
    CertificationError,
    CompositeEnergy,
    CountingEnergy,
    GaussianEnergy,
    LandscapeGenerationError,
    PairwiseContactEnergy,
    PlantedLandscape,
    TargetProfileEnergy,
    enumerate_discrete_energies,
    landscape_statistics,
    load_landscape,
    planted_landscape,
    save_landscape,
)
from rss.bench import run_rso
from rss.sampler import ChainState
from rss.softplm import MaskedSequenceModel, SoftPlmEnergy

from oracles import finite_diff_gradient

L, K = 5, 4


def gradient_check(energy, rng, points=100, rel=1e-5, floor=1e-8):
    worst = 0.0
    for _ in range(points):
        logits = rng.normal(energy.shape)
        _, grad = energy.evaluate(logits)
        fd = finite_diff_gradient(lambda x: energy.evaluate(x)[0], logits)
        err = np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), floor / rel))
        worst = max(worst, err)
    return worst


def sequence_index(tokens, vocab):
    """Lexicographic index of a token sequence, position 0 most significant."""
    return int(sum(int(t) * vocab**p for p, t in enumerate(reversed(list(tokens)))))


def make_pairwise(rng, length=L, vocab=K):
    contacts = [
        (i, j, rng.normal((vocab, vocab)))
        for i in range(length)
        for j in range(i + 1, length)
    ]
    return PairwiseContactEnergy(contacts, rng.normal((length, vocab)))


@pytest.fixture(scope="module")
def models():
    rng = Rng(100)
    msm = MaskedSequenceModel.random(L, K, 8, rng)
    return {
        "target": TargetProfileEnergy(row_marginals(rng.normal((L, K)))),
        "pairwise": make_pairwise(rng),
        "gaussian": GaussianEnergy(rng.normal((L, K)), 1.4),
        "softplm": SoftPlmEnergy(msm, 0.7),
        "composite": CompositeEnergy(
            make_pairwise(rng), SoftPlmEnergy(msm, 0.7), 0.33
        ),
    }


@pytest.mark.parametrize("name", ["target", "pairwise", "gaussian", "softplm", "composite"])
def test_gradient_check_all_models(models, name):
    worst = gradient_check(models[name], Rng(200), points=20)
    assert worst < 1e-5, f"{name}: worst rel err {worst}"


class TestSharedRows:
    # every energy is evaluate(logits, rows=None); a shared RowSoftmax
    # changes no bit, and a term that reads no softmax leaves it untaken
    ENERGIES = ["target", "pairwise", "gaussian", "softplm", "composite", "counting"]

    @staticmethod
    def energy(models, name):
        return CountingEnergy(models["composite"]) if name == "counting" else models[name]

    @pytest.mark.parametrize("name", ENERGIES)
    def test_shared_rows_give_the_same_bits(self, models, name):
        energy = self.energy(models, name)
        logits = Rng(300).normal((L, K))
        value, grad = energy.evaluate(logits)
        rows = RowSoftmax(logits)
        shared_value, shared_grad = energy.evaluate(logits, rows)
        assert value == shared_value
        assert grad.tobytes() == shared_grad.tobytes()
        assert rows.q.tobytes() == row_marginals(logits).tobytes()

    @pytest.mark.parametrize("name", ["softplm", "composite", "counting"])
    def test_prior_keeps_its_log_conditionals(self, models, name):
        energy = self.energy(models, name)
        model = models["softplm"].model
        logits = Rng(301).normal((L, K))
        rows = RowSoftmax(logits)
        energy.evaluate(logits, rows)
        kept = rows.log_conditionals[model, 0.7]
        assert kept.tobytes() == model.log_conditionals_from_logits(logits, 0.7).tobytes()

    def test_gaussian_terms_leave_the_rows_unread(self, models):
        gaussian = models["gaussian"]
        ridge = CompositeEnergy(gaussian, GaussianEnergy(np.zeros((L, K)), 2.5), 1.0)
        logits = Rng(302).normal((L, K))
        for energy in (gaussian, ridge, CountingEnergy(ridge)):
            rows = RowSoftmax(logits)
            energy.evaluate(logits, rows)
            assert "q" not in vars(rows)


class TestComposite:
    def test_lambda_zero_equals_structural(self, models):
        comp = CompositeEnergy(models["pairwise"], models["softplm"], 0.0)
        logits = Rng(1).normal((L, K))
        e_c, g_c = comp.evaluate(logits)
        e_s, g_s = models["pairwise"].evaluate(logits)
        assert e_c == e_s
        np.testing.assert_array_equal(g_c, g_s)

    def test_zero_prior_identity(self, models):
        class ZeroEnergy(GaussianEnergy):
            def evaluate(self, logits, rows=None):
                return 0.0, np.zeros_like(logits)

        comp = CompositeEnergy(models["gaussian"], ZeroEnergy(np.zeros((L, K)), 1.0), 1.0)
        logits = Rng(2).normal((L, K))
        e_c, g_c = comp.evaluate(logits)
        e_s, g_s = models["gaussian"].evaluate(logits)
        assert e_c == e_s
        np.testing.assert_array_equal(g_c, g_s)

    def test_matches_manual_sum(self, models):
        rng = Rng(3)
        lam = 0.7312
        comp = CompositeEnergy(models["pairwise"], models["gaussian"], lam)
        logits = rng.normal((L, K))
        e, g = comp.evaluate(logits)
        e1, g1 = models["pairwise"].evaluate(logits)
        e2, g2 = models["gaussian"].evaluate(logits)
        assert abs(e - (e1 + lam * e2)) < 1e-12
        np.testing.assert_allclose(g, g1 + lam * g2, atol=1e-14)

    def test_components_evaluated_exactly_once(self, models):
        a = CountingEnergy(models["pairwise"])
        b = CountingEnergy(models["gaussian"])
        comp = CompositeEnergy(a, b, 0.5)
        comp.evaluate(Rng(4).normal((L, K)))
        assert a.calls == 1 and b.calls == 1

    def test_additive_decomposition(self, models):
        # two priors with weights lam1, lam2 decompose additively
        rng = Rng(5)
        logits = rng.normal((L, K))
        lam1, lam2 = 0.3, 0.9
        both = CompositeEnergy(
            CompositeEnergy(models["pairwise"], models["gaussian"], lam1),
            models["softplm"],
            lam2,
        )
        e, _ = both.evaluate(logits)
        e_s, _ = models["pairwise"].evaluate(logits)
        e_1, _ = models["gaussian"].evaluate(logits)
        e_2, _ = models["softplm"].evaluate(logits)
        assert abs(e - (e_s + lam1 * e_1 + lam2 * e_2)) < 1e-12

    def test_dim_mismatch_names_component(self, models):
        # logits are checked where they enter the program, not in evaluate
        small = GaussianEnergy(np.zeros((2, 2)), 1.0)
        comp = CompositeEnergy(models["pairwise"], models["gaussian"], 1.0)
        nan_logits = np.zeros((L, K))
        nan_logits[1, 2] = np.nan
        for enter in (lambda x: ChainState.initialize(x, comp),
                      lambda x: run_rso(x, comp, 0.1, 3)):
            with pytest.raises(ValueError, match=r"\(2, 2\).*\(5, 4\)"):
                enter(np.zeros((2, 2)))
            with pytest.raises(ValueError, match="non-finite"):
                enter(nan_logits)
        with pytest.raises(ValueError, match="shapes differ"):
            CompositeEnergy(models["pairwise"], small, 1.0)


class TestTargetProfile:
    def test_bitwise_equals_two_exp_formula(self):
        # the old evaluate: q from row_marginals, log q from a second exp
        rng = Rng(8)
        for scale in (0.1, 1.0, 30.0):
            targets = row_marginals(rng.normal((L, K)))
            energy = TargetProfileEnergy(targets)
            for _ in range(50):
                logits = scale * rng.normal((L, K))
                q = row_marginals(logits)
                shifted = logits - logits.max(axis=1, keepdims=True)
                log_q = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
                value, grad = energy.evaluate(logits)
                assert value == float(-(targets * log_q).sum())
                assert np.array_equal(grad, q - targets)


class TestPairwise:
    def test_transpose_swap_symmetry(self):
        rng = Rng(6)
        m = rng.normal((K, K))
        h = rng.normal((3, K))
        a = PairwiseContactEnergy([(0, 2, m)], h)
        b = PairwiseContactEnergy([(2, 0, m.T)], h)
        logits = rng.normal((3, K))
        ea, _ = a.evaluate(logits)
        eb, _ = b.evaluate(logits)
        assert abs(ea - eb) < 1e-12

    def test_discrete_energy_matches_saturated_logits(self):
        rng = Rng(7)
        energy = make_pairwise(rng)
        tokens = np.array([rng.integer(K) for _ in range(L)])
        saturated = 800.0 * one_hot(tokens, K)
        e_cont, _ = energy.evaluate(saturated)
        assert abs(energy.discrete_energies(tokens[None, :])[0] - e_cont) < 1e-12

    def test_discrete_energies_batch(self):
        # one row scores the same bits as in any batch: the 8x5 case is the
        # demo-04 shape (all 28 contacts), the 48x20 one has 240 contacts
        gen = np.random.default_rng(8)
        pairs = [(i, j) for i in range(48) for j in range(i + 1, 48)]
        sparse = [pairs[c] for c in gen.choice(len(pairs), 240, replace=False)]
        cases = [
            (make_pairwise(Rng(8)), 40),
            (make_pairwise(Rng(9), 8, 5), 2000),
            (PairwiseContactEnergy(
                [(i, j, gen.standard_normal((20, 20))) for i, j in sparse],
                gen.standard_normal((48, 20))), 2000),
        ]
        for energy, rows in cases:
            length, vocab = energy.shape
            batch = gen.integers(0, vocab, size=(rows, length))
            singles = [energy.discrete_energies(t[None, :])[0] for t in batch]
            np.testing.assert_array_equal(energy.discrete_energies(batch), singles)


    def test_negative_token_rejected(self):
        # a -1 would otherwise index token K - 1, and designable_surrogate
        # would score the row
        energy = make_pairwise(Rng(9))
        tokens = np.array([-1, 0, 1, 2, 3])
        with pytest.raises(ValueError):
            energy.discrete_energies(tokens[None, :])

def all_tokens(length, vocab):
    """Every token sequence as an (N, L) matrix, in lexicographic order."""
    return np.array(list(itertools.product(range(vocab), repeat=length)),
                    dtype=np.int64).reshape(-1, length)


class TestEnumeration:
    # the table must hold the bits discrete_energies gives each row of the
    # full token matrix; numpy's field sum unrolls by 8, so L < 8, L = 8 and
    # L > 8 are covered, each in one block (m = L) and in several

    @pytest.mark.parametrize("length, vocab, block", [
        (5, 4, 16_384),  # one block, L < 8
        (5, 4, 16),      # 64 blocks of 4^2 rows
        (8, 3, 16_384),  # one block, L = 8
        (8, 3, 30),      # 243 blocks of 3^3 rows
        (10, 3, 16_384), # 9 blocks of 3^8 rows, L > 8
        (11, 2, 16_384), # one block, L > 8
        (9, 2, 1),       # one row per block, m = 0
    ])
    def test_matches_discrete_energies(self, monkeypatch, length, vocab, block):
        monkeypatch.setattr(energy_module, "ENUMERATION_BLOCK", block)
        energy = make_pairwise(Rng(10 * length + vocab), length, vocab)
        table = enumerate_discrete_energies(energy)
        assert table.tobytes() == energy.discrete_energies(all_tokens(length, vocab)).tobytes()

    def test_no_contacts(self, monkeypatch):
        monkeypatch.setattr(energy_module, "ENUMERATION_BLOCK", 100)
        energy = PairwiseContactEnergy([], Rng(31).normal((9, 3)))
        table = enumerate_discrete_energies(energy)
        assert table.tobytes() == energy.discrete_energies(all_tokens(9, 3)).tobytes()

    def test_reversed_contacts_in_any_order(self, monkeypatch):
        # contacts with i > j read their table transposed, wherever i and j
        # fall: both fixed, one fixed, or both on the grid
        monkeypatch.setattr(energy_module, "ENUMERATION_BLOCK", 64)
        rng = Rng(32)
        pairs = [(6, 0), (1, 5), (4, 3), (2, 1), (0, 2), (6, 5), (3, 6), (5, 0)]
        energy = PairwiseContactEnergy([(i, j, rng.normal((4, 4))) for i, j in pairs],
                                       rng.normal((7, 4)))
        table = enumerate_discrete_energies(energy)
        assert table.tobytes() == energy.discrete_energies(all_tokens(7, 4)).tobytes()

    def test_loaded_landscape_with_reversed_contacts(self, tmp_path):
        land = planted_landscape(6, 4, 4, 2.0, Rng(3))
        energy = land.energy
        reversed_energy = PairwiseContactEnergy(
            [(j, i, m.T) for i, j, m in zip(energy.idx_i, energy.idx_j, energy.couplings)],
            energy.fields)
        path = tmp_path / "landscape.txt"
        save_landscape(PlantedLandscape(reversed_energy, land.modes, land.seed, land.depth,
                                        land.median_energy, land.thresholds), path)
        loaded = load_landscape(path)
        assert np.all(loaded.energy.idx_i > loaded.energy.idx_j)
        tokens = all_tokens(6, 4)
        table = enumerate_discrete_energies(loaded.energy)
        assert table.tobytes() == loaded.energy.discrete_energies(tokens).tobytes()
        assert table.tobytes() == enumerate_discrete_energies(land.energy).tobytes()

    def test_pinned_table_bytes(self):
        # the demo-04 landscape's table, as the (N, L) gathers computed it
        land = planted_landscape(8, 5, 5, 3.0, Rng(7))
        table = enumerate_discrete_energies(land.energy)
        assert hashlib.sha256(table.tobytes()).hexdigest() == (
            "7cbca47ab02b63c86bf43427b5bed09fa1b0250d00e0fca8936ffd48d0d07c7a")

    @pytest.mark.parametrize("shape", [(5, 4, 3, 2.0), (7, 3, 3, 2.0)], ids=["even", "odd"])
    def test_quantiles_read_as_single_calls(self, shape):
        land = planted_landscape(*shape, Rng(22))
        table = enumerate_discrete_energies(land.energy)
        assert land.thresholds == tuple(float(np.quantile(table, q)) for q in CURVE_QUANTILES)
        assert land.median_energy == float(np.median(table))


class TestPlantedLandscape:
    def test_single_mode_is_global_minimum(self):
        land = planted_landscape(4, 3, 1, 1.5, Rng(20))
        energies = enumerate_discrete_energies(land.energy)
        best = int(np.argmin(energies))
        assert best == sequence_index(land.modes[0], 3)

    def test_modes_pairwise_separated(self):
        land = planted_landscape(4, 3, 3, 1.0, Rng(21))
        modes = land.modes
        assert modes.shape == (3, 4)
        for i in range(3):
            for j in range(i + 1, 3):
                assert (modes[i] != modes[j]).sum() >= 2

    def test_modes_are_local_minima_below_median(self):
        land = planted_landscape(5, 4, 3, 2.0, Rng(22))
        energies = enumerate_discrete_energies(land.energy)
        median = np.median(energies)
        for mode in land.modes:
            e_mode = land.energy.discrete_energies(mode[None, :])[0]
            assert e_mode <= median - land.depth
            for i in range(5):
                for tok in range(4):
                    if tok == mode[i]:
                        continue
                    neighbor = mode.copy()
                    neighbor[i] = tok
                    assert land.energy.discrete_energies(neighbor[None, :])[0] > e_mode

    def test_large_depth_dominates_boltzmann_mass(self):
        def mode_mass(land, beta):
            # fraction of the discrete Boltzmann mass exp(-beta E) on the modes
            energies = enumerate_discrete_energies(land.energy)
            weights = np.exp(-beta * (energies - energies.min()))
            idx = [sequence_index(m, land.energy.shape[1]) for m in land.modes]
            return weights[idx].sum() / weights.sum()

        shallow = planted_landscape(4, 3, 2, 1.0, Rng(23))
        deep = planted_landscape(4, 3, 2, 8.0, Rng(23))
        assert mode_mass(deep, 1.0) > mode_mass(shallow, 1.0)
        assert mode_mass(deep, 1.0) > 0.5

    def test_keeps_its_enumerated_energies(self, tmp_path):
        land = planted_landscape(5, 4, 3, 2.0, Rng(22))
        energies = enumerate_discrete_energies(land.energy)
        assert not hasattr(land, "energies")  # the K^L table is not kept
        assert land.median_energy == float(np.median(energies))
        assert land.thresholds[2] == float(np.quantile(energies, 0.05))
        path = tmp_path / "landscape.txt"
        save_landscape(land, path)
        loaded = load_landscape(path)
        assert np.array([loaded.median_energy, *loaded.thresholds]).tobytes() == (
            np.array([land.median_energy, *land.thresholds]).tobytes())

    def test_statistics_step_gives_what_the_landscape_carries(self):
        land = planted_landscape(8, 5, 5, 3.0, Rng(7))
        median, thresholds = landscape_statistics(land.energy)
        assert np.array([median, *thresholds]).tobytes() == (
            np.array([land.median_energy, *land.thresholds]).tobytes())

    def test_certification_enumerates_once(self, monkeypatch):
        # seed 7's first draw fails the modes' Hamming-1 check, which runs
        # before any enumeration
        calls = []

        def counted(energy):
            calls.append(energy)
            return enumerate_discrete_energies(energy)

        monkeypatch.setattr(energy_module, "enumerate_discrete_energies", counted)
        planted_landscape(8, 5, 5, 3.0, Rng(7))
        assert len(calls) == 1

    def test_enumeration_memory_is_bounded(self):
        land = planted_landscape(8, 5, 5, 3.0, Rng(7))
        tracemalloc.start()
        try:
            energies = enumerate_discrete_energies(land.energy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert energies.nbytes == 8 * 5**8
        assert peak < 16e6

    def test_checks_decide_as_on_the_full_table(self, monkeypatch):
        # reference: enumerate first, then check every mode on the table
        def enumerate_then_check(energy, modes, seed, depth):
            length, vocab = energy.shape
            table = enumerate_discrete_energies(energy)
            median = float(np.median(table))
            threshold = float(np.quantile(table, 0.05))
            for mode in modes:
                e_mode = table[sequence_index(mode, vocab)]
                if not (e_mode <= median - depth and e_mode < threshold):
                    raise CertificationError("too shallow")
                for i in range(length):
                    for tok in range(vocab):
                        if tok == mode[i]:
                            continue
                        neighbor = mode.copy()
                        neighbor[i] = tok
                        if table[sequence_index(neighbor, vocab)] <= e_mode:
                            raise CertificationError("not a minimum")
            return PlantedLandscape(energy, modes, seed, depth, median,
                                    tuple(float(np.quantile(table, q)) for q in CURVE_QUANTILES))

        def outcomes():
            results = []
            for shape in [(3, 2, 4, 1.0), (3, 3, 4, 0.5), (4, 2, 3, 1.0),
                          (4, 4, 6, 1.0), (5, 5, 10, 2.0), (6, 4, 4, 0.2)]:
                for seed in range(4):
                    try:
                        land = planted_landscape(*shape, Rng(seed))
                        results.append((enumerate_discrete_energies(land.energy).tobytes(),
                                        land.modes.tobytes(), land.median_energy,
                                        land.thresholds))
                    except LandscapeGenerationError as exc:
                        # the reference names its own reasons
                        results.append(str(exc).partition("; last failure: ")[0])
            return results

        fresh = outcomes()
        monkeypatch.setattr(energy_module, "_certified", enumerate_then_check)
        assert fresh == outcomes()
        assert any(isinstance(r, str) for r in fresh)
        assert any(isinstance(r, tuple) for r in fresh)

    def test_mode_above_the_designable_threshold_is_named(self):
        # 000 is a strict Hamming-1 minimum at energy 0, at least depth below
        # the median, but the 11x valley holds the lowest 5% of the sequences
        fields = np.array([[0.0, 1.0, 1.0]] * 3)
        coupling = np.zeros((3, 3))
        coupling[1, 1] = -5.0
        energy = PairwiseContactEnergy([(0, 1, coupling)], fields)
        threshold = float(np.quantile(enumerate_discrete_energies(energy), 0.05))
        with pytest.raises(CertificationError) as info:
            energy_module._certified(energy, np.zeros((1, 3), dtype=np.int64), 0, 0.5)
        assert str(info.value) == (
            f"mode 0 has energy 0.0, not below the 0.05 quantile {threshold!r}")

    @pytest.mark.parametrize("shape", [(4, 2, 3, 1.0), (3, 3, 4, 0.5)])
    def test_generation_failure_names_the_last_reason(self, shape):
        with pytest.raises(LandscapeGenerationError) as info:
            planted_landscape(*shape, Rng(0))
        assert re.fullmatch(
            r"landscape checks failed after 50 attempts \(L=\d, K=\d, modes=\d, depth=[\d.]+\); "
            r"last failure: mode \d+ (is not a strict Hamming-1 minimum|has energy \S+, "
            r"above median - depth|has energy \S+, not below the 0.05 quantile).*",
            str(info.value))

    def test_generation_failure_raises(self):
        # more modes than sequences with pairwise Hamming >= 2 can exist
        with pytest.raises((LandscapeGenerationError, ValueError)):
            planted_landscape(2, 2, 4, 1.0, Rng(24))

    def test_enumeration_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            planted_landscape(30, 4, 2, 1.0, Rng(25))

    def test_roundtrip_bit_exact(self, tmp_path):
        land = planted_landscape(4, 3, 2, 1.5, Rng(26))
        path = tmp_path / "landscape.txt"
        save_landscape(land, path)
        loaded = load_landscape(path)
        np.testing.assert_array_equal(loaded.energy.fields, land.energy.fields)
        np.testing.assert_array_equal(loaded.energy.couplings, land.energy.couplings)
        np.testing.assert_array_equal(loaded.energy.idx_i, land.energy.idx_i)
        np.testing.assert_array_equal(loaded.modes, land.modes)
        assert loaded.seed == land.seed
        assert loaded.depth == land.depth
        # re-saving reproduces identical bytes
        path2 = tmp_path / "landscape2.txt"
        save_landscape(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    # a file without its depth line used to fail with KeyError: 'depth', and
    # a [modes] entry of 1.4 was read as token 1
    @pytest.mark.parametrize("old, new, message", [
        ("depth 1.5\n", "", "header line 'depth' is missing or not a number"),
        ("depth 1.5\n", "depth deep\n", "header line 'depth' is missing or not a number"),
        ("seed 26\n", "", "header line 'seed' is missing or not an integer"),
        ("seed 26\n", "seed 2.5\n", "header line 'seed' is missing or not an integer"),
        ("[modes]\n1 ", "[modes]\n1.4 ", "block [modes] holds 1.4, not a token in [0, 3)"),
        ("[modes]\n1 ", "[modes]\nnan ", "block [modes] holds nan, not a token in [0, 3)"),
        # each of these used to load, or to fail naming no file or not as a ValueError
        ("depth 1.5\n", "depth -50\n", "depth must be positive"),
        # the last of two depth lines used to win
        ("depth 1.5\n", "depth 2\ndepth 0.5\n", "header line 8 repeats 'depth'"),
        ("2 1 1 0\n", "1 0 0 2\n", "modes 0 and 1 are Hamming 0 apart, not >= 2"),
        ("2 1 1 0\n", "1 0 0 0\n", "modes 0 and 1 are Hamming 1 apart, not >= 2"),
        # a failed certificate used to give one sentence for every check
        ("2 1 1 0\n", "0 2 2 1\n",
         "mode 1 is not a strict Hamming-1 minimum: site 0 set to token 2 gives energy "
         "0.00439627783811565 <= the mode's 0.011157368981666693"),
        ("depth 1.5\n", "depth 50\n",
         "mode 0 has energy -2.791027427793472, above median - depth = -50.46308207813966"),
        ("1 0 0 2\n2 1 1 0\n", "1 0 0\n2 1 1\n",
         "block [modes] is 2 x 3, not modes x L = 2 x 4"),
        ("L 4\n", "L 9\n", "block [fields] is 4 x 3, not L x K = 9 x 3"),
        ("K 3\n", "K 7\n", "block [fields] is 4 x 3, not L x K = 4 x 7"),
        ("contacts 6\n", "contacts 3\n", "the file has 6 [contact] blocks, not contacts = 3"),
        ("[contact 0 1]\n", "[contact 0]\n",
         "block [contact 0] must name two integer sites"),
        ("[contact 0 1]\n", "[contact 0 9]\n",
         "contact (0, 9) out of range or self-coupling"),
        ("[contact 0 2]\n", "[contact 1 0]\n",
         "block [contact 1 0] repeats the contact of sites 0 and 1"),
    ], ids=["no-depth", "depth-word", "no-seed", "fractional-seed", "fractional-mode",
            "nan-mode", "negative-depth", "repeated-depth", "repeated-mode", "modes-one-apart",
            "not-a-minimum", "too-shallow", "short-mode-rows", "header-L", "header-K",
            "header-contacts", "contact-one-site", "contact-out-of-range",
            "repeated-contact-pair"])
    def test_malformed_file_names_file_and_problem(self, tmp_path, old, new, message):
        path = tmp_path / "landscape.txt"
        save_landscape(planted_landscape(4, 3, 2, 1.5, Rng(26)), path)
        text = path.read_text()
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))
        with pytest.raises(ValueError) as info:
            load_landscape(path)
        assert str(info.value) == f"{path}: {message}"
