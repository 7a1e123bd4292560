"""Shows that the benchmark's checks catch wrong outputs.

    python3 benchmarks/selftest.py

Runs one real round of each workload, confirms its checks pass, then
corrupts a copy of the outputs in one way at a time and confirms that each
corruption is reported. Also confirms that BENCHMARK.json names exactly
the metrics the benchmark prints, and that the benchmark refuses to run
(exit code other than 0, no result line) in a directory that holds only
BENCHMARK.json and the benchmark's own files. Exits 1 on the first miss.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import layers
import run


def edit_text(path: str, fn) -> None:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    new = fn(text)
    if new == text:
        raise AssertionError(f"corruption left {path} unchanged")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(new)


def edit_json(path: str, fn) -> None:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    fn(data)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def shift_trace_energy(text: str, step: int, delta: float) -> str:
    def repl(m):
        return f"{m.group(1)}{float(m.group(2)) + delta!r},"
    return re.sub(rf"(?m)^({step},\w+,)([^,]+),", repl, text, count=1)


def set_mask_size(text: str, kind: str, size: int) -> str:
    return re.sub(rf"(?m)^(\d+,{kind},.*,)\d+$", rf"\g<1>{size}", text, count=1)


def bump_logit(text: str) -> str:
    lines = text.split("\n")
    for i, line in enumerate(lines):
        if line.startswith("[snapshot"):
            values = lines[i + 1].split()
            values[0] = repr(float(values[0]) + 1e-6)
            lines[i + 1] = " ".join(values)
            return "\n".join(lines)
    return text


CORRUPTIONS = {
    "run-32x20": [
        ("snapshot energy off by 1e-6 in trace.csv", "trace.csv",
         lambda t: shift_trace_energy(t, 100, 1e-6)),  # the first snapshot's step
        ("jump row with mask_size 0", "trace.csv", lambda t: set_mask_size(t, "jump", 0)),
        ("jump row with mask_size s_max + 1", "trace.csv",
         lambda t: set_mask_size(t, "jump", 4)),
        ("walk row with mask_size 1", "trace.csv", lambda t: set_mask_size(t, "walk", 1)),
        ("snapshot logit moved by 1e-6", "snapshots.txt", bump_logit),
        ("energy_evaluations off by one", "summary.json",
         lambda d: d.update(energy_evaluations=d["energy_evaluations"] + 1)),
    ],
    "bench-8x5": [
        ("unequal per-seed evaluations", "campaign.json",
         lambda d: d["methods"]["rso"]["per_seed_energy_evals"].__setitem__(0, 3999)),
        ("compute parity false", "campaign.json", lambda d: d.update(compute_parity=False)),
        ("designable threshold off by 1e-6", "campaign.json",
         lambda d: d["config"].update(
             designable_threshold=d["config"]["designable_threshold"] + 1e-6)),
        ("curve threshold off by 1e-6", "campaign.json",
         lambda d: d["methods"]["rss"]["curve"][0].update(
             threshold=d["methods"]["rss"]["curve"][0]["threshold"] + 1e-6)),
        ("rss no better than rso", "campaign.json",
         lambda d: d["methods"]["rss"].update(
             pooled_designable=d["methods"]["rso"]["pooled_designable"])),
    ],
    "validate-32x20": [
        ("one-hot KL of 1e-17", "validation.json",
         lambda d: d["onehot_fidelity_kl"].update(value=1e-17)),
        ("gradient Spearman below 1", "validation.json",
         lambda d: d["onehot_fidelity_grad_spearman_mean"].update(value=1.0 - 1e-12)),
        ("mixture JS at eps 0 of 1e-11", "validation.json",
         lambda d: d["mixture_js_eps0.0"].update(value=1e-11)),
        ("conditionals off by 1e-9", None, None),
    ],
}


def expect(condition: bool, message: str) -> None:
    print(("ok    " if condition else "MISSED ") + message)
    if not condition:
        sys.exit(1)


def check_metric_names() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(e2e == run.END_TO_END, "BENCHMARK.json end_to_end matches the printed metrics")
    expect(per_layer == layers.PER_LAYER, "BENCHMARK.json per_layer matches the printed metrics")
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS),
           "BENCHMARK.json workloads match the benchmark's workloads")


def check_bare_directory() -> None:
    bare = os.path.join(run.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.HERE, os.path.join(bare, os.path.basename(run.HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, os.path.join(os.path.basename(run.HERE), "run.py"),
         "--workload", "bench-8x5", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"refuses to run without the program (exit {proc.returncode})")


def main() -> int:
    check_metric_names()
    check_bare_directory()
    base = os.path.join(run.OUT, "selftest")
    shutil.rmtree(base, ignore_errors=True)
    for name, corruptions in CORRUPTIONS.items():
        workload = run.WORKLOADS[name]
        result = run.run_round(workload, 1, 0, False, os.path.join(base, name), keep=True)
        expect(not result["problems"] and not result["failed"],
               f"{name}: real outputs pass ({result['problems'][:1]})")
        for label, filename, corrupt in corruptions:
            copy = result["out"] + "-corrupt"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(result["out"], copy)
            conditionals = result["timing"].get("conditionals")
            if filename is None:
                conditionals = json.loads(json.dumps(conditionals))
                conditionals[-1][0][0] += 1e-9
            elif filename.endswith(".json"):
                edit_json(os.path.join(copy, filename), corrupt)
            else:
                edit_text(os.path.join(copy, filename), corrupt)
            problems, _, _ = workload.check(copy, result["cfg"],
                                            dict(result["timing"], conditionals=conditionals),
                                            result["contexts"])
            problems += workload.check_run([workload.summary(copy)])
            expect(bool(problems), f"{name}: {label} -> {problems[:1]}")
        if name == "validate-32x20":
            copy = result["out"] + "-null"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(result["out"], copy)
            edit_json(os.path.join(copy, "validation.json"),
                      lambda d: d["library_spearman_best"].update(value=None))
            _, attempted, failed = workload.check(copy, result["cfg"], result["timing"],
                                                  result["contexts"])
            expect(failed == 1 and attempted == 15, f"{name}: a null metric counts as failed")
    shutil.rmtree(base)
    return 0


if __name__ == "__main__":
    sys.exit(main())
