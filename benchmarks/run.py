"""End-to-end and per-layer benchmark of the ``rss`` command line.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: ``rss`` is imported from ``src``
and from nowhere else. A run repeats rounds of one workload until about S
seconds have passed (at least MIN_ROUNDS). A round is one fresh process
(``child.py``) that runs one CLI command on inputs made from the seed and
the round number; its outputs are then checked (``checks.py``). BLAS and
OpenMP pools are held to one thread and ``RSS_THREADS`` is unset.

Untraced (``--trace 0``) runs report the end-to-end metrics, as medians
over rounds. Traced runs wrap every function in ``child.TRACED`` and report
the per-layer metrics of ``layers.PER_LAYER``. Either prints diagnostics
(step times, host steal ticks, CPU time against wall time) and then, as
its last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. Round outputs are removed once checked; the result and its
diagnostics stay in ``.bench_out/<workload>-seed<N>-trace<T>/result.json``
under the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 120

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# demo-04 sampler settings, shared by the chain workloads
SAMPLER = {
    "beta": 1.2, "eta": 0.1, "p_jump": 0.2, "kappa": 0.5, "gamma": 2.5,
    "tau": 1.0, "s_max": 3, "adapt_eta": True, "mask_mode": "exact",
}


def write_ini(path: str, sections: dict) -> None:
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        for key, value in values.items():
            text = ("true" if value else "false") if isinstance(value, bool) else str(value)
            lines.append(f"{key} = {text}")
        lines.append("")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


class Workload:
    """What every workload has: its CLI command and the name of the
    command's main call in ``rss.cli``; no extra contexts and no check that
    needs the whole run unless it says otherwise."""

    command = main_call = ""

    def contexts(self, seed: int, rnd: int, cfg: dict):
        return None

    def check_run(self, summaries: list[dict]) -> list[str]:
        return []

    def trace_diagnostics(self, rounds: list) -> dict:
        return {}


class RunWorkload(Workload):
    """``rss run``: one chain at L = 32, K = 20 on target-profile + ridge +
    lam * SoftPlm, p_jump = 0.2. The target profile (seed 7) and the model
    (seed 3) are fixed; the chain seed is seed * 1000 + round.

    kappa = 0.4 puts about 230 Bernoulli vectors into each mask draw, most
    of a jump's time. At kappa = 0.5 it is about 4,000, and the cost of a
    chain then varies so much between chain seeds that no run of this
    length gives a steady median (README, noise study)."""

    command, main_call = "run", "run_chain"
    STEPS = 1500

    def inputs(self, seed: int, rnd: int, path: str) -> dict:
        cfg = dict(steps=self.STEPS, snapshot_stride=100, length=32, vocab=20,
                   landscape_seed=7, model_seed=3, width=16, ridge_scale=2.5,
                   **{"lambda": 0.1}, tau=SAMPLER["tau"], s_max=SAMPLER["s_max"])
        write_ini(path, {
            "run": {"seed": seed * 1000 + rnd, "steps": cfg["steps"],
                    "snapshot_stride": cfg["snapshot_stride"]},
            "sampler": dict(SAMPLER, kappa=0.4, burn_in=300),
            "energy": {"kind": "target-profile", "length": 32, "vocab": 20,
                       "landscape_seed": cfg["landscape_seed"],
                       "ridge_scale": cfg["ridge_scale"], "lambda": cfg["lambda"]},
            "model": {"seed": cfg["model_seed"], "width": cfg["width"]},
        })
        return cfg

    def check(self, out: str, cfg: dict, timing: dict, contexts):
        return checks.check_run(out, cfg)

    def summary(self, out: str) -> dict:
        with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
            return {"evaluations": json.load(fh)["energy_evaluations"]}


class BenchWorkload(Workload):
    """``rss bench`` on the demo-04 campaign: planted 8 x 5 landscape (seed
    7), model seed 3, methods rss/rso/rso-noplm, lam = 0.1, ridge 2.5, 4,000
    evaluations per seed. One chain seed per round, (seed + 1) * 1000 +
    round, so that a run holds several rounds."""

    command, main_call = "bench", "run_campaign"
    SEEDS = 1

    def inputs(self, seed: int, rnd: int, path: str) -> dict:
        cfg = {"seeds": self.SEEDS, "step_budget": 4000,
               "methods": ["rss", "rso", "rso-noplm"]}
        write_ini(path, {
            "run": {"seed": (seed + 1) * 1000 + rnd * self.SEEDS},
            "sampler": dict(SAMPLER, burn_in=500),
            "model": {"seed": 3, "width": 16},
            "bench": {"length": 8, "vocab": 5, "modes": 5, "depth": 3.0,
                      "landscape_seed": 7, "seeds": cfg["seeds"],
                      "step_budget": cfg["step_budget"],
                      "methods": ",".join(cfg["methods"]), "lam": 0.1,
                      "ridge_scale": 2.5},
        })
        return cfg

    def check(self, out: str, cfg: dict, timing: dict, contexts):
        return checks.check_bench(out, cfg)

    def summary(self, out: str) -> dict:
        with open(os.path.join(out, "campaign.json"), encoding="utf-8") as fh:
            campaign = json.load(fh)
        return {"evaluations": sum(m["total_energy_evals"]
                                   for m in campaign["methods"].values()),
                "campaign": campaign}

    def check_run(self, summaries: list[dict]) -> list[str]:
        return checks.check_bench_ranking([s["campaign"] for s in summaries])

    def trace_diagnostics(self, rounds: list) -> dict:
        return {"campaign_s_per_seed": layers.campaign_seconds_per_seed(rounds)}


class ValidateWorkload(Workload):
    """``rss validate`` on the CLI's default model (L = 32, K = 20, width 16,
    model seed 0) with default suite settings; validation seed
    seed * 1000 + round. The benchmark also draws, per round, one-hot and
    blurred contexts on which the model's conditionals are checked."""

    command, main_call = "validate", "run_validation_suite"
    CONTEXTS = 3

    def inputs(self, seed: int, rnd: int, path: str) -> dict:
        cfg = {"length": 32, "vocab": 20, "width": 16, "model_seed": 0}
        write_ini(path, {"run": {"seed": seed * 1000 + rnd}})
        return cfg

    def contexts(self, seed: int, rnd: int, cfg: dict) -> dict:
        gen = np.random.Generator(np.random.PCG64([seed, rnd]))
        length, vocab = cfg["length"], cfg["vocab"]
        marginals = []
        for blurred in (False, True):
            for _ in range(self.CONTEXTS):
                q = np.eye(vocab)[gen.integers(0, vocab, length)]
                if blurred:
                    sites = gen.choice(length, round(0.3 * length), replace=False)
                    eps = gen.uniform(0.1, 0.9)
                    q[sites] = (1.0 - eps) * q[sites] + eps / vocab
                marginals.append(q.tolist())
        return {"tau": 1.0, "marginals": marginals}

    def check(self, out: str, cfg: dict, timing: dict, contexts):
        return checks.check_validate(out, cfg, timing.get("conditionals"), contexts)

    def summary(self, out: str) -> dict:
        return {"evaluations": 0}


WORKLOADS = {
    "run-32x20": RunWorkload(),
    "bench-8x5": BenchWorkload(),
    "validate-32x20": ValidateWorkload(),
}


def steal_ticks() -> int | None:
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def run_round(workload, seed: int, rnd: int, trace: bool, base: str,
              keep: bool = False) -> dict:
    """Runs and checks one round; ``keep`` leaves its outputs on disk."""
    out = os.path.join(base, f"round{rnd}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    config = os.path.join(out, "config.ini")
    cfg = workload.inputs(seed, rnd, config)
    spec = {
        "argv": [workload.command, "--config", config, "--out", os.path.join(out, "out")],
        "main": workload.main_call,
        "src": SRC,
        "timing": os.path.join(out, "timing.json"),
        "spans": os.path.join(out, "spans.npy") if trace else None,
        "contexts": None,
    }
    contexts = workload.contexts(seed, rnd, cfg)
    if contexts is not None:
        spec["contexts"] = os.path.join(out, "contexts.json")
        with open(spec["contexts"], "w", encoding="utf-8") as fh:
            json.dump(contexts, fh)
    spec_path = os.path.join(out, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)

    env = dict(os.environ, PYTHONPATH=SRC, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("RSS_THREADS", None)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), spec_path],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not os.path.exists(spec["timing"]):
        raise RuntimeError(f"round {rnd} did not complete (exit {proc.returncode}):\n"
                           + proc.stderr[-2000:])
    with open(spec["timing"], encoding="utf-8") as fh:
        timing = json.load(fh)
    try:
        problems, attempted, failed = workload.check(os.path.join(out, "out"), cfg, timing,
                                                     contexts)
        summary = workload.summary(os.path.join(out, "out"))
    except (OSError, ValueError, KeyError) as exc:
        problems, attempted, failed, summary = [f"unreadable outputs: {exc!r}"], 0, 0, None
    if timing["rc"] != 0:
        problems.append(f"rss {workload.command} exited with {timing['rc']}: "
                        + proc.stderr.strip()[-500:])
    result = {"timing": timing, "problems": problems, "attempted": attempted,
              "failed": failed, "summary": summary}
    if trace:
        result["round"] = layers.Round(np.load(spec["spans"]), timing["span_names"], timing)
    result.update(out=os.path.join(out, "out"), cfg=cfg, contexts=contexts)
    if not keep:
        shutil.rmtree(result["out"])
        if trace:
            os.remove(spec["spans"])
    return result


def step_diagnostics(results: list[dict]) -> dict:
    diag = {}
    for kind in ("walk", "jump"):
        ns = np.concatenate([np.asarray(r["timing"].get("step_ns", {}).get(kind, []), float)
                             for r in results])
        if ns.size:
            diag[f"{kind}_steps"] = int(ns.size)
            diag[f"{kind}_us_p50"] = float(np.median(ns)) / 1e3
            q = layers.tail_quantile(ns.size)
            if q is not None:
                diag[f"{kind}_us_tail"] = float(np.quantile(ns, q)) / 1e3
                diag[f"{kind}_tail_quantile"] = q
    evals_per_s = [r["summary"]["evaluations"] / r["timing"]["wall_s"]
                   for r in results if r["summary"] and r["summary"]["evaluations"]]
    if evals_per_s:
        diag["evals_per_s"] = statistics.median(evals_per_s)
    return diag


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "rss", "__init__.py")):
        print(f"no rss package under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    base = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(base, ignore_errors=True)

    steal0, start = steal_ticks(), time.monotonic()
    results = []
    while True:
        elapsed = time.monotonic() - start
        per_round = elapsed / len(results) if results else 0.0
        if len(results) >= MIN_ROUNDS and elapsed + per_round > args.seconds:
            break
        try:
            results.append(run_round(workload, args.seed, len(results), bool(args.trace), base))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"benchmark aborted: {exc}", file=sys.stderr)
            return 1
    elapsed = time.monotonic() - start
    steal1 = steal_ticks()

    timings = [r["timing"] for r in results]
    problems = [p for r in results for p in r["problems"]]
    if all(r["summary"] for r in results):
        problems += workload.check_run([r["summary"] for r in results])
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}")
    cpu = sum(t["cpu_s"] for t in timings)
    child_elapsed = sum(t["elapsed_s"] for t in timings)
    diagnostics = {
        "rounds": len(results),
        "run_s": elapsed,
        "steal_ticks": None if steal0 is None or steal1 is None else steal1 - steal0,
        "clock_ticks_per_s": os.sysconf("SC_CLK_TCK"),
        "child_cpu_over_wall": cpu / child_elapsed,
        "wall_s_per_round": [t["wall_s"] for t in timings],
        "setup_s_per_round": [t["setup_s"] for t in timings],
    }
    diagnostics.update(step_diagnostics(results))
    if args.trace:
        diagnostics["traced_wall_s"] = statistics.median(t["wall_s"] for t in timings)
        rounds = [r["round"] for r in results]
        diagnostics.update(workload.trace_diagnostics(rounds))
        values = layers.per_layer_metrics(rounds)
        units = layers.PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(t["setup_s"] for t in timings),
            "wall_s": statistics.median(t["wall_s"] for t in timings),
            "peak_rss_mb": statistics.median(t["peak_rss_mb"] for t in timings),
        }
        units = END_TO_END
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    with open(os.path.join(base, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"diagnostics": diagnostics, **result}, fh, indent=1)
    print("diagnostics " + json.dumps(diagnostics))
    for name, value in values.items():
        print(f"{name:64s} {value:14.6g} {units[name]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
