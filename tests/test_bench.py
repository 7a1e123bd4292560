import hashlib
import json
import multiprocessing
import warnings

import numpy as np
import pytest

from rss import bench
from rss.bench import (
    CampaignConfig,
    cluster_sequences,
    compose_energy,
    designable_surrogate,
    mode_occupancy,
    run_campaign,
    run_rso,
    unique_sequences,
)
from rss.core import Rng
from rss.energy import (
    CompositeEnergy,
    GaussianEnergy,
    enumerate_discrete_energies,
    planted_landscape,
)
from rss.sampler import SamplerConfig
from rss.softplm import MaskedSequenceModel, SoftPlmEnergy


@pytest.fixture(scope="module")
def landscape():
    return planted_landscape(6, 4, 3, 2.0, Rng(90))


@pytest.fixture(scope="module")
def model():
    return MaskedSequenceModel.random(6, 4, 8, Rng(91))


class TestRunRso:
    def test_geometric_convergence_on_gaussian(self):
        rng = Rng(92)
        center = rng.normal((4, 3))
        scale = 1.5
        energy = GaussianEnergy(center, scale)
        eta = 0.4
        logits0 = center + rng.normal((4, 3))
        traj = run_rso(logits0, energy, eta, steps=30)
        rate = 1.0 - eta / scale**2
        r0 = np.linalg.norm(logits0 - center)
        for t, state in enumerate(traj.states):
            assert abs(np.linalg.norm(state - center) - rate**t * r0) < 1e-8

    def test_prior_weight_changes_trajectory_immediately(self, landscape, model):
        rng = Rng(93)
        logits0 = rng.normal((6, 4))
        bare = landscape.energy
        composite = CompositeEnergy(bare, SoftPlmEnergy(model, 1.0), 0.5)
        t_bare = run_rso(logits0, bare, 0.1, steps=3)
        t_comp = run_rso(logits0, composite, 0.1, steps=3)
        assert not np.array_equal(t_bare.states[1], t_comp.states[1])

    def test_zero_steps(self):
        energy = GaussianEnergy(np.zeros((3, 3)), 1.0)
        logits0 = Rng(94).normal((3, 3))
        traj = run_rso(logits0, energy, 0.1, steps=0)
        assert len(traj.states) == 1
        np.testing.assert_array_equal(traj.states[0], logits0)
        assert traj.energy_evaluations == 1

    def test_evaluation_count(self):
        energy = GaussianEnergy(np.zeros((3, 3)), 1.0)
        traj = run_rso(Rng(95).normal((3, 3)), energy, 0.1, steps=25)
        assert traj.energy_evaluations == 26
        assert len(traj.states) == 26

    def test_divergence_flagged(self):
        energy = GaussianEnergy(np.zeros((3, 3)), 1.0)
        # eta far above 2/curvature makes the quadratic iteration explode
        traj = run_rso(Rng(96).normal((3, 3)), energy, 250.0, steps=300)
        assert traj.diverged
        assert len(traj.states) < 301


class TestClustering:
    def test_all_identical_one_cluster(self):
        seqs = np.tile([1, 2, 3], (5, 1))
        labels = cluster_sequences(seqs, radius=1)
        assert labels.max() == 0

    def test_all_far_apart(self):
        seqs = np.array([[0, 0, 0], [1, 1, 1], [2, 2, 2]])
        labels = cluster_sequences(seqs, radius=1)
        assert labels.tolist() == [0, 1, 2]

    def test_hand_computed_example(self):
        # AAA, AAB, BBB with radius 1 -> {AAA, AAB}, {BBB}
        seqs = np.array([[0, 0, 0], [0, 0, 1], [1, 1, 1]])
        labels = cluster_sequences(seqs, radius=1)
        assert labels.tolist() == [0, 0, 1]

    def test_deterministic_given_order(self):
        rng = Rng(97)
        seqs = np.array([[rng.integer(4) for _ in range(6)] for _ in range(40)])
        a = cluster_sequences(seqs, radius=2)
        b = cluster_sequences(seqs, radius=2)
        np.testing.assert_array_equal(a, b)


class TestDesignableSurrogate:
    def test_threshold_below_minimum_empty(self, landscape):
        seqs = unique_sequences(landscape.modes)
        low = enumerate_discrete_energies(landscape.energy).min() - 1.0
        assert designable_surrogate(seqs, landscape.energy, low).shape[0] == 0

    def test_threshold_above_maximum_keeps_all_unique(self, landscape):
        rng = Rng(98)
        seqs = np.array([[rng.integer(4) for _ in range(6)] for _ in range(30)])
        high = enumerate_discrete_energies(landscape.energy).max() + 1.0
        expected = unique_sequences(seqs).shape[0]
        assert designable_surrogate(seqs, landscape.energy, high).shape[0] == expected

    def test_planted_modes_pass_default_quantile(self, landscape):
        kept = designable_surrogate(landscape.modes, landscape.energy, landscape.thresholds[2])
        assert kept.shape[0] == landscape.modes.shape[0]

    def test_deduplication_invariance(self, landscape):
        seqs = np.concatenate([landscape.modes, landscape.modes], axis=0)
        threshold = landscape.thresholds[2]
        once = designable_surrogate(landscape.modes, landscape.energy, threshold)
        twice = designable_surrogate(seqs, landscape.energy, threshold)
        np.testing.assert_array_equal(once, twice)

    def test_default_quantile_ignores_construction_quantile(self):
        # a landscape is certified and scored at the one 5% threshold
        built = planted_landscape(5, 4, 2, 2.0, Rng(3))
        energies = enumerate_discrete_energies(built.energy)
        all_seqs = np.array(np.unravel_index(np.arange(4**5), (4,) * 5)).T
        kept = designable_surrogate(all_seqs, built.energy, built.thresholds[2])
        assert kept.shape[0] == int((energies < np.quantile(energies, 0.05)).sum())
        assert kept.shape[0] == 52

    def test_empty_input_gives_empty_rows(self, landscape):
        empty = np.zeros((0, 6), dtype=np.int64)
        for rows in (unique_sequences(empty),
                     designable_surrogate(empty, landscape.energy, landscape.thresholds[-1])):
            assert rows.shape == (0, 6) and rows.dtype == np.int64

    def test_non_enumerable_energy_needs_explicit_threshold(self):
        from rss.energy import PairwiseContactEnergy

        huge = PairwiseContactEnergy([], np.zeros((30, 4)))  # 4^30 states
        seqs = np.zeros((2, 30), dtype=np.int64)
        kept = designable_surrogate(seqs, huge, threshold=1.0)
        assert kept.shape[0] == 1  # deduplicated, field energies all zero


class TestModeOccupancy:
    def test_counts(self, landscape):
        seqs = np.concatenate([landscape.modes, landscape.modes[:1]], axis=0)
        counts = mode_occupancy(seqs, landscape.modes, radius=0)
        assert counts[0] == 2
        assert counts[1] == 1 and counts[2] == 1
        assert counts[-1] == 0

    def test_far_sequences_are_other(self, landscape):
        far = (landscape.modes[0] + 2) % 4
        counts = mode_occupancy(far[None, :], landscape.modes, radius=1)
        assert counts[-1] == 1


class TestCampaign:
    def make_config(self, landscape, model, **overrides):
        sampler = SamplerConfig(
            beta=1.2, eta=0.1, p_jump=0.2, kappa=0.5, gamma=2.5, tau=1.0,
            adapt_eta=True, burn_in=100, mask_mode="exact",
        )
        defaults = dict(
            landscape=landscape,
            sampler=sampler,
            seeds=3,
            step_budget=600,
            methods=("rss", "rso"),
            model=model,
            lam=0.1,
            ridge_scale=2.5,
            snapshot_stride=50,
            seed0=12,
        )
        defaults.update(overrides)
        return CampaignConfig(**defaults)

    def test_compute_parity_tracked(self, landscape, model):
        report = run_campaign(self.make_config(landscape, model))
        assert report.compute_parity
        evals = {m: r.per_seed_energy_evals for m, r in report.results.items()}
        assert evals["rss"] == evals["rso"]
        assert all(v == 600 for v in evals["rss"])

    def test_zero_budget_counts_initial_state_only(self, landscape, model):
        report = run_campaign(self.make_config(landscape, model, step_budget=0, seeds=1))
        for res in report.results.values():
            assert res.per_seed_energy_evals == [0]
            assert res.per_seed_designable[0] in (0, 1)

    def test_determinism(self, landscape, model):
        r1 = run_campaign(self.make_config(landscape, model))
        r2 = run_campaign(self.make_config(landscape, model))
        assert r1.to_json() == r2.to_json()

    def test_report_serialization(self, landscape, model):
        report = run_campaign(self.make_config(landscape, model, seeds=2))
        payload = json.loads(report.to_json(meta={"version": "x"}))
        assert payload["_meta"]["version"] == "x"
        assert set(payload["methods"]) == {"rss", "rso"}
        csv = report.curve_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "method,threshold,designable_count,success_rate"
        assert len(lines) == 1 + 2 * 8  # two methods, eight thresholds

    def test_failed_seeds_keep_their_reason(self, monkeypatch):
        def fail(cfg, method, seed_index):
            raise KeyError(f"seed {seed_index}")

        monkeypatch.setattr(bench, "_run_one_seed", fail)
        landscape = planted_landscape(4, 3, 2, 1.0, Rng(0))
        cfg = self.make_config(landscape, None, seeds=2, methods=("rso",), lam=0.0)
        for cpus in (1, 2):  # in this process, then in two workers
            monkeypatch.setattr(bench, "_usable_cpus", lambda: cpus)
            res = run_campaign(cfg).results["rso"]
            assert res.failed_seeds == [0, 1]
            assert res.failure_reasons == ["KeyError: 'seed 0'", "KeyError: 'seed 1'"]
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no "Mean of empty slice"
                assert res.median_designable is None and res.median_clusters is None
            assert multiprocessing.active_children() == []

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="worker processes need fork")
    def test_workers_give_the_serial_bytes(self, landscape, model, monkeypatch):
        calls = []
        run_task = bench._run_task

        def counted(*args):
            calls.append(args[1:])
            return run_task(*args)

        monkeypatch.setattr(bench, "_run_task", counted)
        cfg = self.make_config(landscape, model, seeds=3, methods=("rss", "rso", "rso-noplm"))
        tasks = [(m, i) for m in cfg.methods for i in range(3)]
        reports = {}
        for cpus in (1, 2, 4):
            calls.clear()
            monkeypatch.setattr(bench, "_usable_cpus", lambda: cpus)
            reports[cpus] = run_campaign(cfg)
            # the serial run calls every task here, in order; a pool runs
            # them in its workers
            assert calls == (tasks if cpus == 1 else [])
            assert multiprocessing.active_children() == []
        for cpus in (2, 4):
            assert reports[cpus].to_json() == reports[1].to_json()
            assert reports[cpus].curve_csv() == reports[1].curve_csv()

    def test_rso_stop_off_stride_pinned(self, landscape, model):
        # at eta 40 every rso seed stops after 101 evaluations, at step 100,
        # which stride 37 does not divide: its candidates are steps 37, 74
        # and 100. sha256 taken with numpy 2.4 on x86-64 Linux.
        report = run_campaign(self.make_config(landscape, model, seeds=2, step_budget=300,
                                               rso_eta=40.0, snapshot_stride=37))
        assert report.results["rso"].per_seed_energy_evals == [101, 101]
        assert report.results["rss"].per_seed_energy_evals == [300, 300]
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == (
            "feac94aa99fb88c58e07de8eef313cb0e5d333f4c05a2c7c16f09d24c2fc7607")

    def test_invalid_method_rejected(self, landscape, model):
        with pytest.raises(ValueError):
            self.make_config(landscape, model, methods=("gibbs",))

    @pytest.mark.parametrize("key, value, message", [
        # a seed that raises is recorded as failed, so a bad seed0 used to
        # fail every seed quietly instead of the campaign
        ("seed0", -1, "seed0 must be >= 0, got -1"),
        # every rso seed used to fail at run time with "eta must be positive"
        ("rso_eta", -5.0, "rso_eta must be positive, got -5.0"),
        ("rso_eta", 0.0, "rso_eta must be positive, got 0.0"),
        ("rso_eta", float("nan"), "rso_eta must be positive, got nan"),
    ], ids=["seed0", "rso_eta-negative", "rso_eta-zero", "rso_eta-nan"])
    def test_value_rejected_up_front(self, landscape, model, key, value, message):
        with pytest.raises(ValueError, match=message):
            self.make_config(landscape, model, **{key: value})

    def test_cluster_radius_and_init_scale_echoed(self, landscape, model):
        # both are fixed, L // 4 and bench.INIT_SCALE, and campaign.json
        # still echoes them
        report = run_campaign(self.make_config(landscape, model, seeds=1, step_budget=0))
        assert report.config_echo["cluster_radius"] == landscape.energy.shape[0] // 4
        assert report.config_echo["init_scale"] == bench.INIT_SCALE == 0.5

    def test_lam_requires_model(self, landscape):
        with pytest.raises(ValueError):
            self.make_config(landscape, None, lam=0.5)

    def test_compose_energy_lam_requires_model(self, landscape):
        # it used to raise AttributeError on the missing model's shape
        with pytest.raises(ValueError, match="lam > 0 requires a masked sequence model"):
            compose_energy(landscape.energy, 0.0, None, 0.5, 1.0)

    @pytest.mark.parametrize("key", ["lam", "ridge_scale"])
    def test_nan_weight_rejected(self, landscape, model, key):
        # NaN used to pass `x < 0`; compose_energy then dropped a NaN ridge
        with pytest.raises(ValueError, match=f"{key} must be >= 0"):
            self.make_config(landscape, model, **{key: float("nan")})
        weights = {"lam": 0.0, "ridge_scale": 0.0, key: float("nan")}
        with pytest.raises(ValueError, match=f"{key} must be >= 0"):
            compose_energy(landscape.energy, weights["ridge_scale"], model, weights["lam"], 1.0)

    def test_jump_kernel_requires_model(self, landscape):
        # rss with p_jump > 0 needs the model even at lam = 0; rso does not
        with pytest.raises(ValueError, match="p_jump"):
            self.make_config(landscape, None, lam=0.0)
        self.make_config(landscape, None, lam=0.0, methods=("rso",))
        walk_only = SamplerConfig(beta=1.2, eta=0.1, p_jump=0.0)
        self.make_config(landscape, None, lam=0.0, sampler=walk_only)

    def test_curve_and_pooled_counts_match_enumeration(self, landscape, model):
        report = run_campaign(self.make_config(landscape, model, seeds=2))
        energies = enumerate_discrete_energies(landscape.energy)
        threshold = float(np.quantile(energies, 0.05))
        assert report.config_echo["designable_threshold"] == threshold
        for res in report.results.values():
            assert [t for t, _, _ in res.curve] == [
                float(np.quantile(energies, q))
                for q in (0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5)]
            counts = [c for _, c, _ in res.curve]
            assert counts == sorted(counts)
            assert counts[2] == res.pooled_designable  # the 5% row
