"""The benchmark harness reaches into ``rss`` by name, README's configs are
read by ``rss``, every JSON file ``rss`` writes is read by other tools, and
the CI workflow drives the ``rss`` script: these tests fail when a change
deletes or renames a function the harness wraps or calls, when a README
config stops parsing, when a command writes a JSON file that strict parsers
reject, or when the workflow's console-script step fails."""

import importlib
import importlib.util
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from rss.cli import load_config, main
from rss.softplm import MaskedSequenceModel, save_model

ROOT = pathlib.Path(__file__).resolve().parents[1]
CHILD = ROOT / "benchmarks" / "child.py"

# the commands' main calls that child.py wraps (each workload's main_call)
MAIN_CALLS = [(f"cli.{name}", "rss.cli", name)
              for name in ("run_chain", "run_campaign", "run_validation_suite")]


def load_child(monkeypatch):
    # no bytecode cache is written next to the benchmark's files
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("benchmark_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child


def test_traced_names_resolve(monkeypatch):
    child = load_child(monkeypatch)
    assert child.TRACED
    missing = []
    for span, module_name, attr in child.TRACED + MAIN_CALLS:
        module = importlib.import_module(module_name)
        if "." in attr:
            # child.install wraps the method found in the class's own __dict__
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name, None)
            found = cls is not None and meth in vars(cls)
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"{span}: {module_name}.{attr}")
    assert missing == []


def test_readme_ini_blocks_load(tmp_path):
    # configparser keeps an inline "; comment" in the value, so a README
    # config that annotates a value that way does not load
    blocks = re.findall(r"^```ini\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"),
                        flags=re.S | re.M)
    assert blocks
    for index, block in enumerate(blocks):
        command = next((c for c in ("bench", "validate", "calibrate") if f"[{c}]" in block), "run")
        path = tmp_path / f"readme{index}.ini"
        path.write_text(block, encoding="utf-8")
        load_config(str(path), command)


SMALL_CONFIGS = {
    "run": """
[run]
seed = 3
steps = 40
snapshot_stride = 10

[sampler]
beta = 1.0
eta = 0.1
p_jump = 0.5

[energy]
kind = gaussian
length = 4
vocab = 5
lambda = 0.1

[model]
width = 4
""",
    "validate": """
[run]
seed = 3

[model]
width = 4
length = 5
vocab = 4

[validate]
n_sequences = 3
n_libraries = 3
k_mc = 2
k_variants = 4
""",
    "bench": """
[run]
seed = 3

[sampler]
beta = 1.0
eta = 0.1
p_jump = 0.3

[model]
width = 4

[bench]
length = 5
vocab = 4
modes = 2
depth = 2.0
seeds = 1
step_budget = 60
lam = 0.1
ridge_scale = 2.0
snapshot_stride = 20
""",
    "calibrate": """
[run]
seed = 3

[model]
width = 4
length = 5
vocab = 4

[calibrate]
n_contexts = 10
reference_scale = 0.5
""",
}


def test_json_outputs_are_strict_json(tmp_path):
    # Python's json writes NaN and Infinity, which JSON does not allow
    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    # a model whose weights are all zero gives uniform conditionals, so no
    # Spearman correlation of `rss validate` is defined: each reads null
    zero = tmp_path / "zero.model"
    save_model(MaskedSequenceModel(np.zeros((4, 4)), np.zeros(4), np.zeros((5, 4)),
                                   np.zeros((4, 4)), np.zeros((4, 4)), np.zeros(4)), zero)
    runs = [(command, command, text) for command, text in SMALL_CONFIGS.items()]
    runs.append(("validate", "validate-zero",
                 SMALL_CONFIGS["validate"].replace("[model]\n", f"[model]\nfile = {zero}\n")))
    for command, name, text in runs:
        config = tmp_path / f"{name}.ini"
        config.write_text(text, encoding="utf-8")
        out = tmp_path / name
        assert main([command, "--config", str(config), "--out", str(out)]) == 0
        written = sorted(out.glob("*.json"))
        assert written, command
        for path in written:
            json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)
    zero_report = json.loads((tmp_path / "validate-zero" / "validation.json").read_text(
        encoding="utf-8"))
    assert zero_report["onehot_fidelity_grad_spearman_mean"]["value"] is None


@pytest.mark.skipif(shutil.which("bash") is None, reason="needs bash")
def test_workflow_console_script_step(tmp_path):
    # the step's shell block, verbatim, as the runner's bash runs it, with
    # `rss` standing for `python -m rss.cli` on this checkout
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    step = re.search(r"^      - name: Console script\n(?:        #.*\n)*        run: \|\n"
                     r"((?:          .*\n|\n)+)", workflow, flags=re.M)
    script = tmp_path / "step.sh"
    script.write_text(textwrap.dedent(step.group(1)), encoding="utf-8")
    shim = tmp_path / "bin" / "rss"
    shim.parent.mkdir()
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m rss.cli "$@"\n', encoding="utf-8")
    shim.chmod(0o755)
    env = dict(os.environ, RUNNER_TEMP=str(tmp_path),
               PATH=os.pathsep.join([str(shim.parent), os.environ.get("PATH", "")]),
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    done = subprocess.run(["bash", "--noprofile", "--norc", "-eo", "pipefail", str(script)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    # the paper-mode pair ran under its settings and took jumps
    resolved = (tmp_path / "paper-a" / "resolved.ini").read_text(encoding="utf-8")
    assert {"mask_mode = paper", "s_max = 2", "tau = 1.3"} <= set(resolved.splitlines())
    assert ",jump," in (tmp_path / "paper-a" / "trace.csv").read_text(encoding="utf-8")
    assert (tmp_path / "run-neg-depth.err").read_text(encoding="utf-8") == (
        f"config error: {tmp_path}/neg-depth.txt: depth must be positive\n")


def test_workflow_runs_every_workload_and_demo():
    # a workload added to BENCHMARK.json or a demo added to demos/ must also
    # be run by CI; this reads the workflow and both sources, and edits none
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    loops = dict(re.findall(r"^ {10}for (workload|demo) in (.+); do$", workflow, flags=re.M))
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert loops["workload"].split() == [w["name"] for w in benchmark["workloads"]]
    demos = sorted(ROOT.glob("demos/*.py"))
    assert len(demos) == 4
    assert sorted(ROOT.glob(loops["demo"])) == demos
