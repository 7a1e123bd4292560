import hashlib
import json
import os

import numpy as np
import pytest

from rss import bench
from rss.cli import main
from rss.core import Rng
from rss.energy import load_landscape, planted_landscape, save_landscape
from rss.softplm import MaskedSequenceModel, save_model


RUN_CONFIG = """
[run]
seed = 7
steps = {steps}
snapshot_stride = 10

[sampler]
beta = 1.0
eta = 0.1
p_jump = 0.2
gamma = 1.5

[energy]
kind = gaussian
length = 4
vocab = 5
scale = 1.0
ridge_scale = 0.0

[model]
seed = 3
width = 8
"""


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_tree(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = fh.read()
    return out


class TestRun:
    def test_zero_steps_exit_zero(self, tmp_path):
        cfg = write(tmp_path / "run.ini", RUN_CONFIG.format(steps=0))
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["steps"] == 0
        assert summary["walk_proposals"] == 0
        assert summary["jump_proposals"] == 0

    def test_outputs_present(self, tmp_path):
        cfg = write(tmp_path / "run.ini", RUN_CONFIG.format(steps=50))
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        names = set(os.listdir(out))
        assert {"trace.csv", "snapshots.txt", "sequences.txt",
                "summary.json", "resolved.ini"} <= names
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0].startswith("# rss-version=")
        assert trace[1] == "step,kind,energy,log_alpha,accepted,mask_size"
        assert len(trace) == 52
        seqs = (out / "sequences.txt").read_text().splitlines()
        assert len(seqs) == 1 + 5  # header + 50/10 snapshots

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write(tmp_path / "run.ini", RUN_CONFIG.format(steps=40))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["run", "--config", cfg, "--out", str(out2)]) == 0
        assert read_tree(out1) == read_tree(out2)

    def test_resolved_config_round_trips(self, tmp_path):
        cfg = write(tmp_path / "run.ini", RUN_CONFIG.format(steps=40))
        out1 = tmp_path / "a"
        assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
        out2 = tmp_path / "b"
        assert main(["run", "--config", str(out1 / "resolved.ini"), "--out", str(out2)]) == 0
        assert read_tree(out1) == read_tree(out2)

    def test_landscape_file_replays_planted_run(self, tmp_path):
        # kind = landscape-file on a planted run's landscape.txt runs the
        # same chain on the same energy
        text = TestPinnedBytes.CONFIG.format(p_jump=0.3)
        planted = tmp_path / "planted"
        assert main(["run", "--config", write(tmp_path / "a.ini", text),
                     "--out", str(planted)]) == 0
        loaded = tmp_path / "loaded"
        text = text.replace("kind = planted",
                            f"kind = landscape-file\nfile = {planted / 'landscape.txt'}")
        assert main(["run", "--config", write(tmp_path / "b.ini", text),
                     "--out", str(loaded)]) == 0
        assert not (loaded / "landscape.txt").exists()
        for name in ("trace.csv", "summary.json", "snapshots.txt", "sequences.txt"):
            assert (loaded / name).read_bytes() == (planted / name).read_bytes()

    def test_missing_beta_exit_two(self, tmp_path, capsys):
        bad = RUN_CONFIG.format(steps=10).replace("beta = 1.0\n", "")
        cfg = write(tmp_path / "run.ini", bad)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "beta" in capsys.readouterr().err

    def test_unknown_key_exit_two(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.ini", RUN_CONFIG.format(steps=10) + "\nbogus_key = 1\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "bogus_key" in capsys.readouterr().err

    def test_epsilon_is_unknown_key(self, tmp_path, capsys):
        # the mask-probability stabilizer is a constant, not a setting
        cfg = write(tmp_path / "run.ini", RUN_CONFIG.format(steps=10).replace(
            "gamma = 1.5", "gamma = 1.5\nepsilon = 1e-8"))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "unknown key 'epsilon' in section [sampler]" in capsys.readouterr().err

    def test_refuses_nonempty_outdir_without_force(self, tmp_path):
        cfg = write(tmp_path / "run.ini", RUN_CONFIG.format(steps=5))
        out = tmp_path / "out"
        out.mkdir()
        (out / "existing.txt").write_text("keep me")
        assert main(["run", "--config", cfg, "--out", str(out)]) == 1
        assert main(["run", "--config", cfg, "--out", str(out), "--force"]) == 0

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write(tmp_path / "run.ini", RUN_CONFIG.format(steps=30))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", cfg, "--out", str(out1)])
        main(["run", "--config", cfg, "--out", str(out2), "--seed", "8"])
        t1 = (out1 / "trace.csv").read_text()
        t2 = (out2 / "trace.csv").read_text()
        assert t1 != t2
        assert "seed=8" in t2.splitlines()[0]

    PLANTED_CONFIG = """
[run]
seed = 7
steps = 20
snapshot_stride = 10

[sampler]
beta = 1.0
eta = 0.1
p_jump = 0.2
gamma = 1.5

[energy]
kind = planted
length = 4
vocab = 3
modes = 2
depth = 1.5
landscape_seed = 2
ridge_scale = 2.0
lambda = 0.1

[model]
seed = 3
width = 8
"""

    def test_planted_energy_writes_landscape(self, tmp_path):
        cfg = write(tmp_path / "run.ini", self.PLANTED_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "landscape.txt").exists()

    def test_wide_vocab_sequences_dump_as_integers(self, tmp_path):
        cfg_text = RUN_CONFIG.format(steps=20).replace("vocab = 5", "vocab = 24")
        cfg = write(tmp_path / "run.ini", cfg_text)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "sequences.txt").read_text().splitlines()
        tokens = lines[1].split("\t")[1].split(" ")
        assert len(tokens) == 4
        assert all(t.isdigit() and int(t) < 24 for t in tokens)


class TestLongSequences:
    # At these lengths Z(p) is tiny, and every jump must still draw a mask
    # of 1 to s_max sites.
    CONFIG = """
[run]
seed = 1
steps = {steps}

[sampler]
beta = 1.0
eta = 0.1
p_jump = 0.2
kappa = 0.5

[energy]
kind = target-profile
length = {length}
vocab = 20
ridge_scale = 2.5
lambda = 0.1
"""

    def run_and_read_trace(self, tmp_path, length, steps):
        cfg = write(tmp_path / "run.ini", self.CONFIG.format(length=length, steps=steps))
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "trace.csv").read_text().splitlines()[2:]
        assert len(lines) == steps
        sizes = [int(ln.split(",")[5]) for ln in lines if ",jump," in ln]
        assert sizes and all(1 <= size <= 3 for size in sizes)

    def test_length_48_chain_completes(self, tmp_path):
        self.run_and_read_trace(tmp_path, 48, 300)

    def test_length_128_chain_completes(self, tmp_path):
        self.run_and_read_trace(tmp_path, 128, 100)


class TestPinnedBytes:
    # sha256 of summary.json and trace.csv for two short seeded runs, taken
    # with numpy 2.4 on x86-64 Linux. Any change to the draw protocol, the
    # acceptance arithmetic or the summary fields shows here; a change that
    # means to move them must record the old and new hashes and the reason.
    # "mixture": both kernels, adapt_eta, burn-in ends inside the run.
    # "walk-only": p_jump = 0, so jump_acceptance is null.
    # "paper": mostly jumps, priced by the raw Bernoulli product
    # (mask_mode = paper), with s_max 2 and the masked model at tau 1.3.
    # "gaussian": a Gaussian energy with its ridge and no prior (lambda 0),
    # so no term reads the row softmax and every jump runs its own forward.
    # "direct": the run-32x20 benchmark energy (target profile, L = 32,
    # K = 20, kappa 0.4), where Z(p) stays below 0.03 at every jump. Its
    # hashes were taken while masks with Z(p) >= 0.125 were still drawn by
    # rejection; they show that the size draw kept its bits on the chains
    # that already took the direct draw. Its snapshots.txt and sequences.txt
    # hashes guard the text writer.
    CONFIG = """
[run]
seed = 23
steps = 300
snapshot_stride = 50

[sampler]
beta = 4.0
eta = 0.02
p_jump = {p_jump}
kappa = 0.5
gamma = 2.5
adapt_eta = true
burn_in = 120

[energy]
kind = planted
length = 6
vocab = 4
modes = 3
depth = 2.0
landscape_seed = 5
ridge_scale = 1.0
lambda = 0.1

[model]
seed = 3
width = 8
"""
    DIRECT_CONFIG = """
[run]
seed = 31
steps = 300
snapshot_stride = 100

[sampler]
beta = 1.2
eta = 0.1
p_jump = 0.2
kappa = 0.4
gamma = 2.5
adapt_eta = true
burn_in = 100

[energy]
kind = target-profile
length = 32
vocab = 20
landscape_seed = 7
ridge_scale = 2.5
lambda = 0.1

[model]
seed = 3
width = 16
"""
    PINNED = {
        "mixture": (CONFIG.format(p_jump=0.3), {
            "summary.json":
                "f06075090b5d59bceda994244b1955d813fdbbcc1581067e2763e7f3a4e24dc1",
            "trace.csv":
                "d5a93f65b109b4f9a411244ab7302450c6cef4ca3c8c8d2c11647f689ae70d6e",
        }),
        "walk-only": (CONFIG.format(p_jump=0.0), {
            "summary.json":
                "a1e733eafae85c3defe1d23ac52b46f08137e24336278727a926e9f81bc35371",
            "trace.csv":
                "e3c6d47886439afa3779eb8212a75b33fc7b3236b9aba63d3b0467291498dba4",
        }),
        "paper": (CONFIG.format(p_jump="0.6\ns_max = 2\nmask_mode = paper\ntau = 1.3"), {
            "summary.json":
                "746913510f1ca6a5a8f1891568a1b50dc210d909437e05b1487b477d506f89ff",
            "trace.csv":
                "ceac9863f227703bdecdc8d9f1b7619a5f6892fa9bfe021d6f432645b385bbe1",
        }),
        "gaussian": (CONFIG.format(p_jump=0.3).replace("kind = planted", "kind = gaussian")
                     .replace("lambda = 0.1", "lambda = 0"), {
            "summary.json":
                "87794f9d83bb2dac00c433f8b27733e974680e562d360ab986575ff3ab7ba0bd",
            "trace.csv":
                "15f16690685a6ae60790890afe0b271c9527124b8425843f4050e93245ff8401",
        }),
        "direct": (DIRECT_CONFIG, {
            "summary.json":
                "70ae7ff1d245bd6080060d455fb8b6f196cd161347b50b18c12468a4b4c8ba95",
            "trace.csv":
                "fec2a8020dc28bea2a941688ef9cc27ed56841756fe7026823b3b7a92d51e71b",
            "snapshots.txt":
                "a0ac9b282610c8a84727d504b497bac158afc69ce5b726e17fcccd80b2a42cbe",
            "sequences.txt":
                "e8f2c43045691615cd053882cd622adf524d131d262763f4a14ae6303a95b3a5",
        }),
    }

    def run_case(self, tmp_path, name):
        config, pinned = self.PINNED[name]
        cfg = write(tmp_path / "run.ini", config)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        got = {file: hashlib.sha256((out / file).read_bytes()).hexdigest()
               for file in pinned}
        assert got == pinned
        return json.loads((out / "summary.json").read_text())

    @staticmethod
    def count_forwards(monkeypatch):
        """A one-element list that counts masked-model forwards."""
        forwards = [0]
        original = MaskedSequenceModel._forward

        def counted(model, q):
            forwards[0] += 1
            return original(model, q)
        monkeypatch.setattr(MaskedSequenceModel, "_forward", counted)
        return forwards

    def test_mixture_run(self, tmp_path):
        summary = self.run_case(tmp_path, "mixture")
        assert summary["walk_proposals"] > 0 and summary["jump_proposals"] > 0
        assert summary["min_energy_step"] > 0

    def test_walk_only_run(self, tmp_path):
        summary = self.run_case(tmp_path, "walk-only")
        assert summary["jump_proposals"] == 0
        assert summary["jump_acceptance"] is None
        assert summary["min_energy_step"] > 0

    def test_paper_mode_run(self, tmp_path):
        summary = self.run_case(tmp_path, "paper")
        assert summary["jump_proposals"] > summary["walk_proposals"]
        assert summary["jump_accepts"] > 0

    def test_gaussian_run_without_prior(self, tmp_path, monkeypatch):
        # no evaluation keeps log-conditionals, so every jump forwards on its
        # proposal, and on its current state unless an earlier jump did
        forwards = self.count_forwards(monkeypatch)
        summary = self.run_case(tmp_path, "gaussian")
        assert summary["jump_proposals"] > 0 and summary["jump_accepts"] > 0
        assert summary["jump_proposals"] < forwards[0] <= 2 * summary["jump_proposals"]

    def test_direct_draw_run(self, tmp_path):
        summary = self.run_case(tmp_path, "direct")
        assert summary["jump_proposals"] > 0 and summary["jump_accepts"] > 0

    def test_direct_run_forwards_once_per_evaluation(self, tmp_path, monkeypatch):
        # the prior runs at the chain's tau, so a jump reads the masked-model
        # log-conditionals of each state's counted evaluation
        forwards = self.count_forwards(monkeypatch)
        summary = self.run_case(tmp_path, "direct")
        assert forwards[0] == summary["energy_evaluations"] == 301

    # "bench": a two-seed rss/rso campaign on the same planted 6 x 4
    # landscape. It pins the designable counts, the clusters and every
    # curve row, as well as the landscape file.
    BENCH_CONFIG = """
[run]
seed = 29

[sampler]
beta = 4.0
eta = 0.02
p_jump = 0.3
kappa = 0.5
gamma = 2.5
adapt_eta = true
burn_in = 120

[model]
seed = 3
width = 8

[bench]
length = 6
vocab = 4
modes = 3
depth = 2.0
landscape_seed = 5
seeds = 2
step_budget = 300
methods = rss,rso
lam = 0.1
ridge_scale = 1.0
snapshot_stride = 25
"""
    BENCH_PINNED = {
        "campaign.json":
            "117503c00cef3eb01801555f95173a3a6cf1c10b3a2cde59b5f641d69c7f1e5c",
        "curve.csv":
            "ab6e68c16770510933cf973b2293653223234e24f4fa1b51d1ce153504870bc3",
        "landscape.txt":
            "0bab8bc2a0e7ee679bbeb712b7582d61052d98b41c2bdb4db27a19a32e20df93",
    }

    def test_bench(self, tmp_path):
        cfg = write(tmp_path / "bench.ini", self.BENCH_CONFIG)
        out = tmp_path / "out"
        assert main(["bench", "--config", cfg, "--out", str(out)]) == 0
        got = {file: hashlib.sha256((out / file).read_bytes()).hexdigest()
               for file in self.BENCH_PINNED}
        assert got == self.BENCH_PINNED
        methods = json.loads((out / "campaign.json").read_text())["methods"]
        assert all(m["pooled_designable"] > 0 for m in methods.values())

    # "validate": validation.json and validation.txt of the suite on a small
    # model with the default k_mc and k_variants, so library ranking draws
    # many repeated variants; same numpy and platform as above
    VALIDATE_CONFIG = """
[run]
seed = 31

[model]
seed = 5
width = 8
length = 8
vocab = 5

[validate]
n_sequences = 12
n_libraries = 4
"""
    VALIDATE_PINNED = {
        "validation.json":
            "2f03e5287f185a092763e1011db42d6e96a559a6618fdfaf013f8c06148e0d84",
        "validation.txt":
            "e702a7875db5305d23e8afb609e0d465fde9a1f0008598b55baa3936ca3ed46b",
    }

    def test_validate(self, tmp_path):
        cfg = write(tmp_path / "v.ini", self.VALIDATE_CONFIG)
        out = tmp_path / "out"
        assert main(["validate", "--config", cfg, "--out", str(out)]) == 0
        got = {file: hashlib.sha256((out / file).read_bytes()).hexdigest()
               for file in self.VALIDATE_PINNED}
        assert got == self.VALIDATE_PINNED


class TestValidate:
    CONFIG = """
[run]
seed = 11

[model]
seed = 5
width = 8
length = 8
vocab = 5

[validate]
n_sequences = 6
n_libraries = 4
k_mc = 3
k_variants = 8
"""

    def test_emits_all_metric_families(self, tmp_path):
        cfg = write(tmp_path / "v.ini", self.CONFIG)
        out = tmp_path / "out"
        assert main(["validate", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "validation.json").read_text())
        names = set(payload)
        assert "onehot_fidelity_kl" in names
        assert "onehot_fidelity_grad_spearman_mean" in names
        for eps in ("0.0", "0.2", "0.4", "0.6", "0.8"):
            assert f"mixture_js_eps{eps}" in names
            assert f"mixture_top1_eps{eps}" in names
        assert "library_spearman_mean" in names
        assert "library_spearman_best" in names
        text = (out / "validation.txt").read_text()
        assert "onehot_fidelity_kl" in text

    def test_pinned_bytes(self, tmp_path):
        # sha256 with non-default k_mc and k_variants, whose values each row's
        # config echoes; same numpy and platform as TestPinnedBytes
        cfg = write(tmp_path / "v.ini", self.CONFIG)
        out = tmp_path / "out"
        assert main(["validate", "--config", cfg, "--out", str(out)]) == 0
        got = {file: hashlib.sha256((out / file).read_bytes()).hexdigest()
               for file in ("validation.json", "validation.txt")}
        assert got == {
            "validation.json":
                "79604fb7282426e67f2901a6343ee32f5b23ed7eaefe8e1f17606b5109534083",
            "validation.txt":
                "260da48d4aec46376dd12b1efb7a87af2e5cd82508f643e5d706266e6f38b1ef",
        }

    def test_deterministic(self, tmp_path):
        cfg = write(tmp_path / "v.ini", self.CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["validate", "--config", cfg, "--out", str(out1)])
        main(["validate", "--config", cfg, "--out", str(out2)])
        assert read_tree(out1) == read_tree(out2)


class TestCalibrate:
    CONFIG = """
[run]
seed = 13

[model]
seed = 6
width = 8
length = 6
vocab = 5

[calibrate]
n_contexts = 30
"""

    def test_identity_reference_gives_tau_one(self, tmp_path):
        cfg = write(tmp_path / "c.ini", self.CONFIG)
        out = tmp_path / "out"
        assert main(["calibrate", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "calibration.json").read_text())
        assert abs(payload["tau_star"] - 1.0) < 1e-3

    def test_scaled_reference(self, tmp_path):
        cfg = write(tmp_path / "c.ini", self.CONFIG + "reference_scale = 0.5\n")
        out = tmp_path / "out"
        assert main(["calibrate", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "calibration.json").read_text())
        assert abs(payload["tau_star"] - 2.0) < 2e-2

    def test_reference_file_matches_reference_scale(self, tmp_path):
        model = MaskedSequenceModel.random(length=6, vocab=5, width=8, rng=Rng(6))
        reference = tmp_path / "reference.txt"
        save_model(model.scaled(0.5), reference)
        tau_star = []
        for extra in ("reference_scale = 0.5\n", f"reference_file = {reference}\n"):
            out = tmp_path / f"out{len(tau_star)}"
            cfg = write(tmp_path / "c.ini", self.CONFIG + extra)
            assert main(["calibrate", "--config", cfg, "--out", str(out)]) == 0
            tau_star.append(json.loads((out / "calibration.json").read_text())["tau_star"])
        assert tau_star[0] == tau_star[1]


class TestBench:
    CONFIG = """
[run]
seed = 17

[sampler]
beta = 1.2
eta = 0.1
p_jump = 0.2
gamma = 2.5
adapt_eta = true
burn_in = 100

[model]
seed = 4
width = 8

[bench]
length = 5
vocab = 4
modes = 2
depth = 2.0
landscape_seed = 3
seeds = 2
step_budget = 400
methods = rss,rso
lam = 0.1
ridge_scale = 2.0
snapshot_stride = 50
"""

    def test_bench_outputs_and_parity(self, tmp_path):
        cfg = write(tmp_path / "b.ini", self.CONFIG)
        out = tmp_path / "out"
        assert main(["bench", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "campaign.json").read_text())
        assert payload["compute_parity"] is True
        assert set(payload["methods"]) == {"rss", "rso"}
        assert not any("failure_reasons" in m for m in payload["methods"].values())
        csv = (out / "curve.csv").read_text().splitlines()
        assert csv[0].startswith("# rss-version=")
        assert csv[1] == "method,threshold,designable_count,success_rate"
        assert (out / "landscape.txt").exists()

    def test_landscape_comment_names_landscape_seed(self, tmp_path):
        # the run seed (17) differs from the landscape seed (3)
        cfg = write(tmp_path / "b.ini", self.CONFIG)
        out = tmp_path / "out"
        assert main(["bench", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "landscape.txt").read_text().splitlines()
        comment_seed = [ln for ln in lines if ln.startswith("# rss-version=")][0].split("seed=")[1]
        header_seed = [ln for ln in lines if ln.startswith("seed ")][0].split()[1]
        assert comment_seed == header_seed == "3"

    def test_deterministic(self, tmp_path):
        cfg = write(tmp_path / "b.ini", self.CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["bench", "--config", cfg, "--out", str(out1)])
        main(["bench", "--config", cfg, "--out", str(out2)])
        assert read_tree(out1) == read_tree(out2)

    def test_landscape_file_replays_planted_campaign(self, tmp_path):
        cfg = write(tmp_path / "a.ini", self.CONFIG)
        planted = tmp_path / "planted"
        assert main(["bench", "--config", cfg, "--out", str(planted)]) == 0
        cfg = write(tmp_path / "b.ini",
                    self.CONFIG + f"landscape_file = {planted / 'landscape.txt'}\n")
        loaded = tmp_path / "loaded"
        assert main(["bench", "--config", cfg, "--out", str(loaded)]) == 0
        assert not (loaded / "landscape.txt").exists()
        for name in ("campaign.json", "curve.csv"):
            assert (loaded / name).read_bytes() == (planted / name).read_bytes()

    # one designability rule: the 5% threshold that certified the landscape
    # is the one every method is scored with, and a landscape loaded from
    # its own file carries the same median and thresholds
    DEMO_04_CONFIG = """
[run]
seed = 1000

[sampler]
beta = 1.2
eta = 0.1
p_jump = 0.2
kappa = 0.5
gamma = 2.5
tau = 1.0
adapt_eta = true
burn_in = 500
mask_mode = exact

[model]
seed = 3
width = 16

[bench]
length = 8
vocab = 5
modes = 5
depth = 3.0
landscape_seed = 7
seeds = 2
step_budget = 4000
methods = rss,rso,rso-noplm
lam = 0.1
ridge_scale = 2.5
"""

    @pytest.mark.parametrize("config, planting", [
        ("pinned", (6, 4, 3, 2.0, 5)),
        ("demo-04", (8, 5, 5, 3.0, 7)),
    ], ids=["pinned", "demo-04"])
    def test_scored_at_the_certified_threshold(self, tmp_path, config, planting):
        text = {"pinned": TestPinnedBytes.BENCH_CONFIG, "demo-04": self.DEMO_04_CONFIG}[config]
        out = tmp_path / "out"
        assert main(["bench", "--config", write(tmp_path / "b.ini", text),
                     "--out", str(out)]) == 0
        *shape, seed = planting
        planted = planted_landscape(*shape, Rng(seed))
        campaign = json.loads((out / "campaign.json").read_text())
        assert campaign["config"]["designable_quantile"] == 0.05
        threshold = campaign["config"]["designable_threshold"]
        assert threshold == planted.thresholds[2]
        for method in campaign["methods"].values():
            row = method["curve"][2]
            assert row["threshold"] == threshold
            assert method["pooled_designable"] == row["count"]
        loaded = load_landscape(out / "landscape.txt")
        assert np.array([loaded.median_energy, *loaded.thresholds]).tobytes() == (
            np.array([planted.median_energy, *planted.thresholds]).tobytes())

    def test_failed_seeds_reported(self, tmp_path, capsys, monkeypatch):
        def fail(cfg, method, seed_index):
            raise KeyError(f"seed {seed_index}")

        monkeypatch.setattr(bench, "_run_one_seed", fail)
        cfg = write(tmp_path / "b.ini", self.CONFIG)
        out = tmp_path / "out"
        assert main(["bench", "--config", cfg, "--out", str(out)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"{method} seed {s} failed: KeyError: 'seed {s}'"
            for method in ("rso", "rss") for s in (0, 1)
        ]

        def reject(token):
            raise ValueError(f"invalid JSON constant {token}")

        text = (out / "campaign.json").read_text()
        methods = json.loads(text, parse_constant=reject)["methods"]
        assert methods["rss"]["median_designable"] is None
        assert methods["rso"]["median_clusters"] is None
        for method in ("rso", "rss"):
            assert methods[method]["failure_reasons"] == [
                f"KeyError: 'seed {s}'" for s in (0, 1)]


class TestConfigErrors:
    def test_unreadable_config(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "missing.ini"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_unknown_section(self, tmp_path, capsys):
        cfg = write(tmp_path / "x.ini", RUN_CONFIG.format(steps=1) + "\n[mystery]\nx = 1\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "mystery" in capsys.readouterr().err

    def test_bad_value_type(self, tmp_path, capsys):
        cfg = write(tmp_path / "x.ini",
                    RUN_CONFIG.format(steps=1).replace("beta = 1.0", "beta = fast"))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "beta" in capsys.readouterr().err

    def test_no_out_dir(self, tmp_path, capsys):
        cfg = write(tmp_path / "x.ini", RUN_CONFIG.format(steps=1))
        assert main(["run", "--config", cfg]) == 2

    # values that parse but that SamplerConfig, CampaignConfig or the prior
    # weight reject are configuration errors too

    def test_negative_beta_exit_two(self, tmp_path, capsys):
        cfg = write(tmp_path / "x.ini",
                    RUN_CONFIG.format(steps=1).replace("beta = 1.0", "beta = -1.0"))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "config error: beta must be positive\n"

    def test_negative_lambda_exit_two(self, tmp_path, capsys):
        cfg = write(tmp_path / "x.ini", RUN_CONFIG.format(steps=1).replace(
            "ridge_scale = 0.0", "ridge_scale = 0.0\nlambda = -0.1"))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "config error: prior weight lam must be >= 0\n"

    def test_zero_bench_seeds_exit_two(self, tmp_path, capsys):
        # and it leaves no landscape.txt behind
        cfg = write(tmp_path / "x.ini", TestBench.CONFIG.replace("seeds = 2", "seeds = 0"))
        assert main(["bench", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "config error: seeds must be >= 1\n"
        assert os.listdir(tmp_path / "o") == []

    def test_planted_run_negative_lambda_leaves_out_dir_empty(self, tmp_path, capsys):
        # a planted landscape is written only once the configuration is accepted
        cfg = write(tmp_path / "x.ini", TestPinnedBytes.CONFIG.format(p_jump=0.3).replace(
            "lambda = 0.1", "lambda = -0.1"))
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: prior weight lam must be >= 0\n"
        assert os.listdir(out) == []

    def test_negative_bench_lam_exit_two(self, tmp_path, capsys):
        # it used to fail every rss and rso seed and still exit 0
        cfg = write(tmp_path / "x.ini", TestBench.CONFIG.replace("lam = 0.1", "lam = -0.1"))
        assert main(["bench", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "config error: prior weight lam must be >= 0\n"

    # a 10 x 5 model file for the planted 6 x 4 energy: with no prior term
    # `rss run` used to fail at its first jump with a numpy error, after
    # writing landscape.txt and part of trace.csv, and `rss bench` failed
    # every seed

    def check_wrong_model_shape(self, tmp_path, capsys, command, text):
        model_file = tmp_path / "model.txt"
        save_model(MaskedSequenceModel.random(10, 5, 8, Rng(3)), model_file)
        cfg = write(tmp_path / "x.ini",
                    text.replace("[model]\n", f"[model]\nfile = {model_file}\n"))
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: model file {model_file} has shape (10, 5), "
            "but the energy has shape (6, 4)\n")
        assert os.listdir(out) == []

    def test_run_model_file_of_wrong_shape_exit_two(self, tmp_path, capsys):
        text = TestPinnedBytes.CONFIG.format(p_jump=0.3).replace("lambda = 0.1", "lambda = 0.0")
        self.check_wrong_model_shape(tmp_path, capsys, "run", text)

    def test_bench_model_file_of_wrong_shape_exit_two(self, tmp_path, capsys):
        self.check_wrong_model_shape(tmp_path, capsys, "bench", TestPinnedBytes.BENCH_CONFIG)

    def test_model_size_keys_exit_two_in_run_and_bench(self, tmp_path, capsys):
        # both commands size the model from the energy, so [model] length
        # and vocab would be ignored
        for command, text in (("run", TestPinnedBytes.CONFIG.format(p_jump=0.3)),
                              ("bench", TestPinnedBytes.BENCH_CONFIG)):
            for key in ("length", "vocab"):
                cfg = write(tmp_path / "x.ini",
                            text.replace("[model]\n", f"[model]\n{key} = 99\n"))
                assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
                assert f"unknown key '{key}' in section [model]" in capsys.readouterr().err

    # values that used to run wrong or leave files behind: each now exits 2
    # with an empty output directory

    def check_rejected(self, tmp_path, capsys, command, text, message):
        cfg = write(tmp_path / "x.ini", text)
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert os.listdir(out) == []

    def test_zero_run_snapshot_stride_exit_two(self, tmp_path, capsys):
        # it used to exit 1 after writing landscape.txt and trace.csv's header
        text = TestPinnedBytes.CONFIG.format(p_jump=0.3).replace(
            "snapshot_stride = 50", "snapshot_stride = 0")
        self.check_rejected(tmp_path, capsys, "run", text, "snapshot_stride must be >= 1")

    def test_zero_bench_snapshot_stride_exit_two(self, tmp_path, capsys):
        # it used to fail every seed on range() and still exit 0
        text = TestPinnedBytes.BENCH_CONFIG.replace("snapshot_stride = 25", "snapshot_stride = 0")
        self.check_rejected(tmp_path, capsys, "bench", text, "snapshot_stride must be >= 1")

    def test_negative_run_ridge_scale_exit_two(self, tmp_path, capsys):
        # it used to run with no ridge term and exit 0
        text = TestPinnedBytes.CONFIG.format(p_jump=0.3).replace(
            "ridge_scale = 1.0", "ridge_scale = -1.0")
        self.check_rejected(tmp_path, capsys, "run", text, "ridge_scale must be >= 0")

    def test_negative_bench_ridge_scale_exit_two(self, tmp_path, capsys):
        # it used to run with no ridge term and exit 0
        text = TestPinnedBytes.BENCH_CONFIG.replace("ridge_scale = 1.0", "ridge_scale = -2.5")
        self.check_rejected(tmp_path, capsys, "bench", text, "ridge_scale must be >= 0")

    def test_bench_ridge_scale_of_infinite_square_exit_two(self, tmp_path, capsys):
        # it used to run with a ridge of curvature exactly 0 and exit 0
        text = TestPinnedBytes.BENCH_CONFIG.replace("ridge_scale = 1.0", "ridge_scale = 1e160")
        self.check_rejected(tmp_path, capsys, "bench", text,
                            "scale must have a positive finite square, got 1e+160")

    # a masked model of width 0 used to give NaN energies in `rss run`
    # (summary.json held NaN tokens), unequal evaluation counts in `rss
    # bench`, tau_star at the edge of the search range in `rss calibrate`
    # and a numpy error in `rss validate`; in `rss calibrate`, L = 0 used to
    # exit 1 with a numpy error and K = 1 to exit 0 with tau_star at the edge

    @pytest.mark.parametrize("command, old, new, size", [
        ("run", "width = 8", "width = 0", "L = 4, K = 5, width = 0"),
        ("bench", "width = 8", "width = 0", "L = 6, K = 4, width = 0"),
        ("calibrate", "width = 8", "width = 0", "L = 6, K = 5, width = 0"),
        ("validate", "width = 8", "width = 0", "L = 8, K = 5, width = 0"),
        ("calibrate", "length = 6", "length = 0", "L = 0, K = 5, width = 8"),
        ("calibrate", "vocab = 5", "vocab = 1", "L = 6, K = 1, width = 8"),
    ], ids=["run-width", "bench-width", "calibrate-width", "validate-width",
            "calibrate-length", "calibrate-vocab"])
    def test_model_size_exit_two(self, tmp_path, capsys, command, old, new, size):
        text = {
            "run": RUN_CONFIG.format(steps=20).replace("p_jump = 0.2", "p_jump = 0.5")
                   .replace("ridge_scale = 0.0", "ridge_scale = 0.0\nlambda = 0.1"),
            "bench": TestPinnedBytes.BENCH_CONFIG,
            "calibrate": TestCalibrate.CONFIG,
            "validate": TestValidate.CONFIG,
        }[command]
        self.check_rejected(tmp_path, capsys, command, text.replace(old, new),
                            f"a model needs L >= 1, K >= 2 and width >= 1, got {size}")

    def test_non_finite_model_file_exit_two(self, tmp_path, capsys):
        model = MaskedSequenceModel.random(4, 5, 8, Rng(3))
        model_file = tmp_path / "model.txt"
        save_model(model, model_file)
        lines = model_file.read_text().splitlines()
        row = lines.index("[bias]") + 1
        lines[row] = " ".join(["nan"] + lines[row].split()[1:])
        model_file.write_text("\n".join(lines) + "\n")
        text = RUN_CONFIG.format(steps=5).replace("[model]\n", f"[model]\nfile = {model_file}\n")
        self.check_rejected(tmp_path, capsys, "run", text,
                            f"{model_file}: model weights must be finite")

    # values the validation suite, calibration, planting or a chain's start
    # reject: each used to exit 1, some after writing files

    @pytest.mark.parametrize("old, new, message", [
        ("n_libraries = 4", "n_libraries = 4\ntau = 0", "temperature tau must be positive"),
        ("k_mc = 3", "k_mc = 0", "k_mc must be >= 1"),
        ("k_variants = 8", "k_variants = 0", "k_variants must be >= 1"),
        ("n_sequences = 6", "n_sequences = 0", "n_sequences must be >= 1"),
        ("length = 8", "length = 2", "the validation suite needs L >= 3 and K >= 3, "
                                     "got L = 2, K = 5"),
        ("vocab = 5", "vocab = 2", "the validation suite needs L >= 3 and K >= 3, "
                                   "got L = 8, K = 2"),
        # it used to exit 0 and echo n_libraries = -2 into validation.json
        ("n_libraries = 4", "n_libraries = -2", "n_libraries must be >= 0"),
    ], ids=["tau", "k_mc", "k_variants", "n_sequences", "length", "vocab", "n_libraries"])
    def test_validate_value_exit_two(self, tmp_path, capsys, old, new, message):
        self.check_rejected(tmp_path, capsys, "validate", TestValidate.CONFIG.replace(old, new),
                            message)

    # a configured file that does not exist used to exit 1
    @pytest.mark.parametrize("command, key", [
        ("run", "[model] file"),
        ("bench", "[bench] landscape_file"),
        ("run", "[energy] file"),
        ("calibrate", "[calibrate] reference_file"),
    ], ids=["model", "landscape", "energy", "reference"])
    def test_missing_file_exit_two(self, tmp_path, capsys, command, key):
        missing = tmp_path / "missing.txt"
        section, name = key.split()
        text = {
            "[model] file": RUN_CONFIG.format(steps=5),
            "[bench] landscape_file": TestPinnedBytes.BENCH_CONFIG,
            "[energy] file": RUN_CONFIG.format(steps=5).replace(
                "kind = gaussian", "kind = landscape-file"),
            "[calibrate] reference_file": TestCalibrate.CONFIG,
        }[key].replace(f"{section}\n", f"{section}\n{name} = {missing}\n")
        self.check_rejected(tmp_path, capsys, command, text,
                            f"[Errno 2] No such file or directory: '{missing}'")

    # an empty [mask] block used to exit 1 with an IndexError naming no file
    def test_malformed_model_file_exit_two(self, tmp_path, capsys):
        path = tmp_path / "model.txt"
        save_model(MaskedSequenceModel.random(8, 5, 8, Rng(5)), path)
        lines = path.read_text().splitlines()
        del lines[lines.index("[mask]") + 1]
        path.write_text("\n".join(lines) + "\n")
        text = TestValidate.CONFIG.replace("[model]\n", f"[model]\nfile = {path}\n")
        self.check_rejected(tmp_path, capsys, "validate", text,
                            f"{path}: block [mask] is 0 x 0, not 1 x d = 1 x 8")

    # a landscape file without its depth line used to exit 1 with "error:
    # 'depth'", and a [modes] entry of 3.4 ran as token 3 and exited 0
    @pytest.mark.parametrize("command", ["run", "bench"])
    @pytest.mark.parametrize("old, new, message", [
        ("depth 2\n", "", "header line 'depth' is missing or not a number"),
        ("[modes]\n3 ", "[modes]\n3.4 ", "block [modes] holds 3.4, not a token in [0, 4)"),
        # each of these used to run, to exit 1, or to exit 2 naming no file
        ("depth 2\n", "depth -50\n", "depth must be positive"),
        ("depth 2\n", "depth 2\ndepth 0.5\n", "header line 8 repeats 'depth'"),
        ("1 3 3 3 1 1\n", "3 3 2 1 0 1\n", "modes 0 and 2 are Hamming 0 apart, not >= 2"),
        ("1 3 3 3 1 1\n", "3 3 2 1 0 0\n", "modes 0 and 2 are Hamming 1 apart, not >= 2"),
        ("1 3 3 3 1 1\n", "0 1 2 3 0 1\n",
         "mode 2 is not a strict Hamming-1 minimum: site 0 set to token 1 gives energy "
         "-1.6973510037326007 <= the mode's -1.015779287089813"),
        ("3 3 2 1 0 1\n1 0 0 3 2 0\n1 3 3 3 1 1\n", "3 3 2 1 0\n1 0 0 3 2\n1 3 3 3 1\n",
         "block [modes] is 3 x 5, not modes x L = 3 x 6"),
        ("L 6\n", "L 9\n", "block [fields] is 6 x 4, not L x K = 9 x 4"),
        ("K 4\n", "K 7\n", "block [fields] is 6 x 4, not L x K = 6 x 7"),
        ("contacts 15\n", "contacts 3\n", "the file has 15 [contact] blocks, not contacts = 3"),
        ("[contact 0 1]\n", "[contact 0]\n",
         "block [contact 0] must name two integer sites"),
        ("[contact 0 1]\n", "[contact 0 9]\n",
         "contact (0, 9) out of range or self-coupling"),
        ("[contact 0 2]\n", "[contact 1 0]\n",
         "block [contact 1 0] repeats the contact of sites 0 and 1"),
    ], ids=["no-depth", "fractional-mode", "negative-depth", "repeated-depth",
            "repeated-mode", "modes-one-apart", "not-a-minimum", "short-mode-rows", "header-L",
            "header-K", "header-contacts", "contact-one-site", "contact-out-of-range",
            "repeated-contact-pair"])
    def test_malformed_landscape_file_exit_two(self, tmp_path, capsys, command, old, new,
                                               message):
        path = tmp_path / "landscape.txt"
        save_landscape(planted_landscape(6, 4, 3, 2.0, Rng(5)), path)
        text = path.read_text()
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))
        config = {
            "run": TestPinnedBytes.CONFIG.format(p_jump=0.3).replace(
                "kind = planted", f"kind = landscape-file\nfile = {path}"),
            "bench": TestPinnedBytes.BENCH_CONFIG + f"landscape_file = {path}\n",
        }[command]
        self.check_rejected(tmp_path, capsys, command, config, f"{path}: {message}")

    # it used to exit 0 with tau_star 19.999, the edge of the search range
    @pytest.mark.parametrize("scale", ["0", "-1"])
    def test_non_positive_reference_scale_exit_two(self, tmp_path, capsys, scale):
        text = TestCalibrate.CONFIG + f"reference_scale = {scale}\n"
        self.check_rejected(tmp_path, capsys, "calibrate", text,
                            f"scale factor must be > 0, got {float(scale)!r}")

    def test_zero_calibrate_contexts_exit_two(self, tmp_path, capsys):
        text = TestCalibrate.CONFIG.replace("n_contexts = 30", "n_contexts = 0")
        self.check_rejected(tmp_path, capsys, "calibrate", text,
                            "temperature calibration needs at least one context")

    @pytest.mark.parametrize("command", ["run", "bench"])
    @pytest.mark.parametrize("old, new, message", [
        ("modes = 3", "modes = 0", "mode count must be in [1, K^L]"),
        ("depth = 2.0", "depth = 0.0", "depth must be positive"),
        ("length = 6", "length = 1", "planted landscapes need length >= 2 for couplings"),
        ("length = 6", "length = 12",
         "K^L = 16777216 exceeds the enumeration cap 10000000"),
    ], ids=["modes", "depth", "length", "cap"])
    def test_planting_value_exit_two(self, tmp_path, capsys, command, old, new, message):
        text = {"run": TestPinnedBytes.CONFIG.format(p_jump=0.3),
                "bench": TestPinnedBytes.BENCH_CONFIG}[command]
        self.check_rejected(tmp_path, capsys, command, text.replace(old, new), message)

    @pytest.mark.parametrize("old, new, shape", [
        ("length = 4", "length = 0", (0, 5)),
        ("vocab = 5", "vocab = 1", (4, 1)),
    ], ids=["length", "vocab"])
    def test_run_energy_shape_exit_two(self, tmp_path, capsys, old, new, shape):
        # it used to exit 1 after writing trace.csv's header
        self.check_rejected(tmp_path, capsys, "run", RUN_CONFIG.format(steps=5).replace(old, new),
                            f"logit matrix needs L >= 1 and K >= 2, got {shape}")

    # a non-finite number used to run: ridge_scale = nan wrote the trace of
    # ridge_scale = 0.0 and exited 0, beta = nan vetoed every walk and
    # accepted every jump, and [bench] lam = nan exited 1 with "compute
    # parity violated"
    @pytest.mark.parametrize("command, section, old, new", [
        ("run", "sampler", "beta = 4.0", "beta = nan"),
        ("run", "sampler", "beta = 4.0", "beta = inf"),
        ("run", "energy", "ridge_scale = 1.0", "ridge_scale = nan"),
        ("run", "energy", "lambda = 0.1", "lambda = nan"),
        ("bench", "bench", "lam = 0.1", "lam = nan"),
    ], ids=["beta-nan", "beta-inf", "ridge_scale-nan", "lambda-nan", "bench-lam-nan"])
    def test_non_finite_value_exit_two(self, tmp_path, capsys, command, section, old, new):
        text = {"run": TestPinnedBytes.CONFIG.format(p_jump=0.3),
                "bench": TestPinnedBytes.BENCH_CONFIG}[command]
        key, raw = new.split(" = ")
        (tmp_path / "o").mkdir()
        self.check_rejected(tmp_path, capsys, command, text.replace(old, new),
                            f"bad value for '{key}' in section [{section}]: "
                            f"expected a finite number, got '{raw}'")

    @pytest.mark.parametrize("methods, echo", [(",", "[]"), ("rso,rso", "['rso', 'rso']")],
                             ids=["empty", "repeated"])
    def test_bench_methods_exit_two(self, tmp_path, capsys, methods, echo):
        # an empty list used to write a campaign.json with no methods, and a
        # repeated one ran every rso seed twice
        text = TestPinnedBytes.BENCH_CONFIG.replace("methods = rss,rso", f"methods = {methods}")
        self.check_rejected(tmp_path, capsys, "bench", text,
                            f"methods must be nonempty and distinct, got {echo}")

    # configured values whose constructions were not checked before use:
    # each used to exit 1, and a negative bench seed exited 0 with two of
    # three seeds of every method failed and campaign.json scored from one
    @pytest.mark.parametrize("command, old, new, message", [
        ("run", "scale = 1.0", "scale = 0", "scale must be positive"),
        ("run", "scale = 1.0", "scale = -1", "scale must be positive"),
        ("run", "seed = 7", "seed = -1", "seed must be >= 0, got -1"),
        ("run", "seed = 3", "seed = -3", "seed must be >= 0, got -3"),
        ("validate", "seed = 5", "seed = -2", "seed must be >= 0, got -2"),
        ("validate", "seed = 11", "seed = -3", "seed must be >= 0, got -3"),
        ("calibrate", "seed = 13", "seed = -3", "seed must be >= 0, got -3"),
        ("bench", "landscape_seed = 5", "landscape_seed = -5", "seed must be >= 0, got -5"),
        ("bench", "seed = 29", "seed = -2", "seed0 must be >= 0, got -2"),
        # a negative rso_eta used to mean the sampler's eta
        ("bench", "snapshot_stride = 25", "snapshot_stride = 25\nrso_eta = -5.0",
         "rso_eta must be positive, got -5.0"),
    ], ids=["run-gaussian-scale-0", "run-gaussian-scale-negative", "run-seed", "run-model-seed",
            "validate-model-seed", "validate-seed", "calibrate-seed", "bench-landscape-seed",
            "bench-seed", "bench-rso-eta"])
    def test_construction_value_exit_two(self, tmp_path, capsys, command, old, new, message):
        text = {"run": RUN_CONFIG.format(steps=5),
                "validate": TestValidate.CONFIG,
                "calibrate": TestCalibrate.CONFIG,
                "bench": TestPinnedBytes.BENCH_CONFIG.replace("seeds = 2", "seeds = 3")}[command]
        assert text.count(old) == 1
        self.check_rejected(tmp_path, capsys, command, text.replace(old, new), message)

    @pytest.mark.parametrize("key", ["cluster_radius", "init_scale", "designable_quantile"])
    def test_removed_bench_key_exit_two(self, tmp_path, capsys, key):
        # the radius is always L // 4, the start scale bench.INIT_SCALE and
        # the designable quantile energy.DESIGNABLE_QUANTILE, which certified
        # the landscape
        text = TestPinnedBytes.BENCH_CONFIG + f"{key} = 1\n"
        out = tmp_path / "o"
        assert main(["bench", "--config", write(tmp_path / "x.ini", text),
                     "--out", str(out)]) == 2
        assert f"unknown key '{key}' in section [bench]" in capsys.readouterr().err
        assert not out.exists()
