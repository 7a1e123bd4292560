"""Per-layer metrics from the spans of traced rounds.

A span is (name, parent, start, end) as recorded by ``child.Tracer``. Self
time is a span's duration minus the durations of its direct children.
Times are pooled over every span of a name in the run; ``.s`` metrics and
``.calls`` counts are per round and reported as the median over rounds;
``calls_per_*`` ratios pool all rounds. A layer the workload never enters
reads 0.
"""

from __future__ import annotations

import numpy as np

# name -> unit; the order is the order of BENCHMARK.json's per_layer list
PER_LAYER = {
    "core.as_logits.calls_per_step": "count",
    "core.row_marginals.calls_per_step": "count",
    "core.Rng.bernoulli.calls_per_mask": "count",
    "energy.PairwiseContactEnergy.evaluate.us_p50": "us",
    "energy.TargetProfileEnergy.evaluate.us_p50": "us",
    "energy.GaussianEnergy.evaluate.us_p50": "us",
    "energy.CompositeEnergy.evaluate.self_us_p50": "us",
    "energy.evaluate.calls": "count",
    "energy.planted_landscape.s": "s",
    "energy.enumerate_discrete_energies.s": "s",
    "softplm.SoftPlmEnergy.evaluate.self_us_p50": "us",
    "softplm.MaskedSequenceModel._forward.us_p50": "us",
    "softplm.MaskedSequenceModel._forward.calls_per_step": "count",
    "softplm.MaskedSequenceModel._forward.calls": "count",
    "softplm.MaskedSequenceModel.log_conditionals.calls_per_jump": "count",
    "sampler.step.walk_us_p50": "us",
    "sampler.step.walk_us_tail": "us",
    "sampler.step.jump_us_p50": "us",
    "sampler.step.jump_us_tail": "us",
    "sampler.step.self_us_p50": "us",
    "sampler.walk_propose.self_us_p50": "us",
    "sampler.walk_accept.us_p50": "us",
    "sampler.jump_propose.self_us_p50": "us",
    "sampler.jump_accept.self_us_p50": "us",
    "sampler.mask_probabilities.us_p50": "us",
    "sampler.sample_mask.self_us_p50": "us",
    "sampler.mask_log_mass.self_us_p50": "us",
    "sampler.mask_normalizer.us_p50": "us",
    "sampler.mask_normalizer.calls_per_jump": "count",
    "sampler.run_chain.self_us_per_step": "us",
    "bench.run_chain.s": "s",
    "bench.run_rso.us_per_eval": "us",
    "bench.designable_surrogate.s": "s",
    "bench.unique_sequences.s": "s",
    "bench.cluster_sequences.s": "s",
    "verify.onehot_fidelity.s": "s",
    "verify.onehot_fidelity.forward_calls": "count",
    "verify.mixture_consistency.s": "s",
    "verify.mixture_consistency.forward_calls": "count",
    "verify.library_ranking.s": "s",
    "verify.library_ranking.forward_calls": "count",
    "cli.import.s": "s",
    "cli.config.s": "s",
    "cli.write.s": "s",
}

FORWARD = "softplm.MaskedSequenceModel._forward"


def tail_quantile(n: int) -> float | None:
    """The highest quantile with at least ten samples beyond it; None below
    forty samples, where that quantile would be no tail."""
    return None if n < 40 else 1.0 - 10.0 / n


class Round:
    """The spans of one traced round, grouped by name."""

    def __init__(self, spans: np.ndarray, names: list[str], timing: dict):
        name_ids, parents, starts, ends = spans
        dur = ends - starts
        has_parent = parents >= 0
        child_time = np.bincount(parents[has_parent], weights=dur[has_parent],
                                 minlength=dur.size)
        self.timing = timing
        self.by_name = {}
        for nid, name in enumerate(names):
            idx = np.flatnonzero(name_ids == nid)
            self.by_name[name] = {
                "index": idx,
                "start": starts[idx],
                "end": ends[idx],
                "dur": dur[idx],
                "self": dur[idx] - child_time[idx],
            }
        # move kind of each step: a jump step is the parent of a jump_propose
        step_idx = self.get("sampler.step")["index"]
        jump_parents = parents[self.get("sampler.jump_propose")["index"]]
        self.step_is_jump = np.isin(step_idx, jump_parents)

    def get(self, name: str) -> dict:
        empty = np.zeros(0, dtype=np.int64)
        return self.by_name.get(name, {"index": empty, "start": empty, "end": empty,
                                       "dur": empty, "self": empty})

    def count_inside(self, name: str, outer: str) -> int:
        """Spans of ``name`` that start inside a span of ``outer`` (spans of
        one name never overlap, except recursion, which no traced name has)."""
        inner_starts = self.get(name)["start"]
        o = self.get(outer)
        if not inner_starts.size or not o["start"].size:
            return 0
        pos = np.searchsorted(o["start"], inner_starts, side="right") - 1
        ok = pos >= 0
        return int((inner_starts[ok] < o["end"][pos[ok]]).sum())

    def total_inside(self, name: str, outer: str) -> float:
        """Seconds in spans of ``name`` that start inside a span of ``outer``."""
        s = self.get(name)
        o = self.get(outer)
        if not s["start"].size or not o["start"].size:
            return 0.0
        pos = np.searchsorted(o["start"], s["start"], side="right") - 1
        ok = pos >= 0
        ok[ok] = s["start"][ok] < o["end"][pos[ok]]
        return float(s["dur"][ok].sum()) / 1e9


def _pooled(rounds, name: str, field: str) -> np.ndarray:
    return np.concatenate([r.get(name)[field] for r in rounds] or [np.zeros(0)])


def _p50_us(values: np.ndarray) -> float:
    return float(np.median(values)) / 1e3 if values.size else 0.0


def _tail_us(values: np.ndarray) -> float:
    q = tail_quantile(values.size)
    return float(np.quantile(values, q)) / 1e3 if q is not None else _p50_us(values)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(rounds: list[Round]) -> dict[str, float]:
    def count(name):
        return sum(r.get(name)["index"].size for r in rounds)

    def inside(name, outer):
        return sum(r.count_inside(name, outer) for r in rounds)

    def per_round(fn):
        return float(np.median([fn(r) for r in rounds]))

    def seconds(name):
        return per_round(lambda r: float(r.get(name)["dur"].sum()) / 1e9)

    def p50(name):
        return _p50_us(_pooled(rounds, name, "dur"))

    def self_p50(name):
        return _p50_us(_pooled(rounds, name, "self"))

    steps = count("sampler.step")
    jumps = count("sampler.jump_propose")
    step_dur = _pooled(rounds, "sampler.step", "dur")
    is_jump = np.concatenate([r.step_is_jump for r in rounds] or [np.zeros(0, bool)])

    def write_s(r: Round) -> float:
        # outputs written by the command after its main call returned
        main_end = max((r.get(n)["end"].max() for n in
                        ("sampler.run_chain", "bench.run_campaign", "verify.run_validation_suite")
                        if r.get(n)["end"].size), default=None)
        cmd_end = max((r.get(n)["end"].max() for n in
                       ("cli.cmd_run", "cli.cmd_bench", "cli.cmd_validate")
                       if r.get(n)["end"].size), default=None)
        return 0.0 if main_end is None or cmd_end is None else (cmd_end - main_end) / 1e9

    rso_evals = inside("energy.CountingEnergy.evaluate", "bench.run_rso")
    rso_seconds = sum(float(r.get("bench.run_rso")["dur"].sum()) for r in rounds) / 1e3
    run_chain_self = sum(float(r.get("sampler.run_chain")["self"].sum()) for r in rounds) / 1e3

    metrics = {
        "core.as_logits.calls_per_step": _ratio(inside("core.as_logits", "sampler.step"), steps),
        "core.row_marginals.calls_per_step":
            _ratio(inside("core.row_marginals", "sampler.step"), steps),
        "core.Rng.bernoulli.calls_per_mask":
            _ratio(inside("core.Rng.bernoulli", "sampler.sample_mask"),
                   count("sampler.sample_mask")),
        "energy.PairwiseContactEnergy.evaluate.us_p50":
            p50("energy.PairwiseContactEnergy.evaluate"),
        "energy.TargetProfileEnergy.evaluate.us_p50": p50("energy.TargetProfileEnergy.evaluate"),
        "energy.GaussianEnergy.evaluate.us_p50": p50("energy.GaussianEnergy.evaluate"),
        "energy.CompositeEnergy.evaluate.self_us_p50":
            self_p50("energy.CompositeEnergy.evaluate"),
        "energy.evaluate.calls":
            per_round(lambda r: r.get("energy.CountingEnergy.evaluate")["index"].size),
        "energy.planted_landscape.s": seconds("energy.planted_landscape"),
        "energy.enumerate_discrete_energies.s": per_round(
            lambda r: r.total_inside("energy.enumerate_discrete_energies", "bench.run_campaign")),
        "softplm.SoftPlmEnergy.evaluate.self_us_p50": self_p50("softplm.SoftPlmEnergy.evaluate"),
        FORWARD + ".us_p50": p50(FORWARD),
        FORWARD + ".calls_per_step": _ratio(inside(FORWARD, "sampler.step"), steps),
        FORWARD + ".calls": per_round(lambda r: r.get(FORWARD)["index"].size),
        "softplm.MaskedSequenceModel.log_conditionals.calls_per_jump":
            _ratio(inside("softplm.MaskedSequenceModel.log_conditionals", "sampler.step"), jumps),
        "sampler.step.walk_us_p50": _p50_us(step_dur[~is_jump]),
        "sampler.step.walk_us_tail": _tail_us(step_dur[~is_jump]),
        "sampler.step.jump_us_p50": _p50_us(step_dur[is_jump]),
        "sampler.step.jump_us_tail": _tail_us(step_dur[is_jump]),
        "sampler.step.self_us_p50": self_p50("sampler.step"),
        "sampler.walk_propose.self_us_p50": self_p50("sampler.walk_propose"),
        "sampler.walk_accept.us_p50": p50("sampler.walk_accept"),
        "sampler.jump_propose.self_us_p50": self_p50("sampler.jump_propose"),
        "sampler.jump_accept.self_us_p50": self_p50("sampler.jump_accept"),
        "sampler.mask_probabilities.us_p50": p50("sampler.mask_probabilities"),
        "sampler.sample_mask.self_us_p50": self_p50("sampler.sample_mask"),
        "sampler.mask_log_mass.self_us_p50": self_p50("sampler.mask_log_mass"),
        "sampler.mask_normalizer.us_p50": p50("sampler.mask_normalizer"),
        "sampler.mask_normalizer.calls_per_jump":
            _ratio(inside("sampler.mask_normalizer", "sampler.step"), jumps),
        "sampler.run_chain.self_us_per_step": _ratio(run_chain_self, steps),
        "bench.run_chain.s":
            per_round(lambda r: r.total_inside("sampler.run_chain", "bench.run_campaign")),
        "bench.run_rso.us_per_eval": _ratio(rso_seconds, rso_evals),
        "bench.designable_surrogate.s": seconds("bench.designable_surrogate"),
        "bench.unique_sequences.s": seconds("bench.unique_sequences"),
        "bench.cluster_sequences.s": seconds("bench.cluster_sequences"),
        "cli.import.s": per_round(lambda r: r.timing["import_s"]),
        "cli.config.s": seconds("cli.load_config"),
        "cli.write.s": per_round(write_s),
    }
    for fam in ("onehot_fidelity", "mixture_consistency", "library_ranking"):
        metrics[f"verify.{fam}.s"] = seconds(f"verify.{fam}")
        metrics[f"verify.{fam}.forward_calls"] = per_round(
            lambda r, fam=fam: r.count_inside(FORWARD, f"verify.{fam}"))
    return {name: metrics[name] for name in PER_LAYER}


def campaign_seconds_per_seed(rounds: list[Round]) -> dict[str, float]:
    """Median seconds per seed of each campaign method: ``rss`` is a
    ``run_chain`` span, ``rso`` a ``run_rso`` span with SoftPlm evaluations
    inside it, ``rso-noplm`` one without."""
    times = {"rss": [], "rso": [], "rso-noplm": []}
    for r in rounds:
        chains = r.get("sampler.run_chain")
        times["rss"] += list(chains["dur"] / 1e9)
        rso = r.get("bench.run_rso")
        plm_starts = r.get("softplm.SoftPlmEnergy.evaluate")["start"]
        for start, end, dur in zip(rso["start"], rso["end"], rso["dur"]):
            with_plm = bool(((plm_starts > start) & (plm_starts < end)).any())
            times["rso" if with_plm else "rso-noplm"].append(dur / 1e9)
    return {m: float(np.median(t)) for m, t in times.items() if t}
