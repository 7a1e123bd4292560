"""One round of a workload: a fresh process that imports ``rss`` and runs
one ``rss`` CLI command, timed from outside the program.

Usage: python3 child.py SPEC.json

SPEC holds the CLI argv, the name of the command's main call in
``rss.cli`` (``run_chain``, ``run_campaign`` or ``run_validation_suite``),
the ``src`` directory ``rss`` must be imported from, the path of the
timing file to write and, for a traced round, the path of the span file.

Set-up time runs from just before ``import rss`` to the entry of the main
call; wall time from there to the return of ``rss.cli.main``, outputs
included. Untraced rounds wrap only ``rss.sampler.step`` (per-step times,
split by move kind). Traced rounds wrap every function in ``TRACED`` under
each name the program looks it up by, and keep the spans in memory until
the command has returned.
"""

import functools
import json
import os
import resource
import sys
import time
from array import array

# (span name, module, attribute); a dotted attribute is a method of a class
TRACED = [
    ("core.as_logits", "rss.core", "as_logits"),
    ("core.row_marginals", "rss.core", "row_marginals"),
    ("core.Rng.bernoulli", "rss.core", "Rng.bernoulli"),
    ("energy.CountingEnergy.evaluate", "rss.energy", "CountingEnergy.evaluate"),
    ("energy.CompositeEnergy.evaluate", "rss.energy", "CompositeEnergy.evaluate"),
    ("energy.TargetProfileEnergy.evaluate", "rss.energy", "TargetProfileEnergy.evaluate"),
    ("energy.GaussianEnergy.evaluate", "rss.energy", "GaussianEnergy.evaluate"),
    ("energy.PairwiseContactEnergy.evaluate", "rss.energy", "PairwiseContactEnergy.evaluate"),
    ("energy.planted_landscape", "rss.energy", "planted_landscape"),
    ("energy.enumerate_discrete_energies", "rss.energy", "enumerate_discrete_energies"),
    ("softplm.SoftPlmEnergy.evaluate", "rss.softplm", "SoftPlmEnergy.evaluate"),
    ("softplm.MaskedSequenceModel._forward", "rss.softplm", "MaskedSequenceModel._forward"),
    ("softplm.MaskedSequenceModel.log_conditionals", "rss.softplm",
     "MaskedSequenceModel.log_conditionals"),
    ("sampler.run_chain", "rss.sampler", "run_chain"),
    ("sampler.step", "rss.sampler", "step"),
    ("sampler.walk_propose", "rss.sampler", "walk_propose"),
    ("sampler.walk_accept", "rss.sampler", "walk_accept"),
    ("sampler.jump_propose", "rss.sampler", "jump_propose"),
    ("sampler.jump_accept", "rss.sampler", "jump_accept"),
    ("sampler.mask_probabilities", "rss.sampler", "mask_probabilities"),
    ("sampler.sample_mask", "rss.sampler", "sample_mask"),
    ("sampler.mask_log_mass", "rss.sampler", "mask_log_mass"),
    ("sampler.mask_normalizer", "rss.sampler", "mask_normalizer"),
    ("bench.run_campaign", "rss.bench", "run_campaign"),
    ("bench.run_rso", "rss.bench", "run_rso"),
    ("bench.designable_surrogate", "rss.bench", "designable_surrogate"),
    ("bench.unique_sequences", "rss.bench", "unique_sequences"),
    ("bench.cluster_sequences", "rss.bench", "cluster_sequences"),
    ("verify.run_validation_suite", "rss.verify", "run_validation_suite"),
    ("verify.onehot_fidelity", "rss.verify", "onehot_fidelity"),
    ("verify.mixture_consistency", "rss.verify", "mixture_consistency"),
    ("verify.library_ranking", "rss.verify", "library_ranking"),
    ("cli.load_config", "rss.cli", "load_config"),
    ("cli.cmd_run", "rss.cli", "cmd_run"),
    ("cli.cmd_bench", "rss.cli", "cmd_bench"),
    ("cli.cmd_validate", "rss.cli", "cmd_validate"),
]


def replace_everywhere(old, new) -> None:
    """Point every name in ``rss.*`` that holds ``old`` (module globals and
    module-level dicts such as the CLI's command table) at ``new``."""
    for name, module in list(sys.modules.items()):
        if name != "rss" and not name.startswith("rss."):
            continue
        space = vars(module)
        for key, value in list(space.items()):
            if value is old:
                space[key] = new
            elif isinstance(value, dict) and not key.startswith("__"):
                for dkey, dvalue in list(value.items()):
                    if dvalue is old:
                        value[dkey] = new


def install(module_name: str, attr: str, make_wrapper) -> None:
    module = sys.modules[module_name]
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        setattr(cls, meth, make_wrapper(cls.__dict__[meth]))
    else:
        fn = getattr(module, attr)
        replace_everywhere(fn, make_wrapper(fn))


class Tracer:
    """Spans (name id, parent index, start ns, end ns) in flat arrays."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("q")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.stack = [-1]

    def wrapper_for(self, name: str):
        nid = len(self.names)
        self.names.append(name)
        name_ids, parents, starts, ends, stack = (
            self.name_ids, self.parents, self.starts, self.ends, self.stack)
        clock = time.perf_counter_ns

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = len(starts)
                name_ids.append(nid)
                parents.append(stack[-1])
                ends.append(0)
                stack.append(idx)
                starts.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    stack.pop()
            return traced
        return make

    def save(self, path: str) -> None:
        import numpy as np
        np.save(path, np.array([self.name_ids, self.parents, self.starts, self.ends],
                               dtype=np.int64))


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    import rss
    import rss.cli
    t_import = time.perf_counter()
    import numpy as np

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(rss.__file__).startswith(src + os.sep):
        print(f"rss imported from {rss.__file__}, not from {src}", file=sys.stderr)
        return 3

    timing = {"import_s": t_import - t0}
    tracer = None
    if spec.get("spans"):
        tracer = Tracer()
        for name, module_name, attr in TRACED:
            install(module_name, attr, tracer.wrapper_for(name))
    else:
        steps = {"walk": [], "jump": []}

        def time_steps(fn):
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                start = time.perf_counter_ns()
                out = fn(*args, **kwargs)
                steps[out[1].kind].append(time.perf_counter_ns() - start)
                return out
            return timed
        install("rss.sampler", "step", time_steps)
        timing["step_ns"] = steps

    captured = {}
    main_call = getattr(rss.cli, spec["main"])

    @functools.wraps(main_call)
    def entry(*args, **kwargs):
        captured["t_main"] = time.perf_counter()
        captured["args"] = args
        return main_call(*args, **kwargs)
    setattr(rss.cli, spec["main"], entry)

    rc = rss.cli.main(spec["argv"])
    t_end = time.perf_counter()

    usage = resource.getrusage(resource.RUSAGE_SELF)
    t_main = captured.get("t_main", t_end)
    timing.update(
        rc=rc,
        setup_s=t_main - t0,
        wall_s=t_end - t_main,
        cpu_s=(usage.ru_utime + usage.ru_stime) - (usage0.ru_utime + usage0.ru_stime),
        elapsed_s=t_end - t0,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )
    if tracer is not None:
        tracer.save(spec["spans"])
        timing["span_names"] = tracer.names
    if spec.get("contexts") and "args" in captured:
        # the validated model's conditionals on the benchmark's own contexts,
        # computed after the timed region
        model = captured["args"][0]
        with open(spec["contexts"], encoding="utf-8") as fh:
            contexts = json.load(fh)
        timing["conditionals"] = [
            model.conditionals(np.array(q), contexts["tau"]).tolist()
            for q in contexts["marginals"]
        ]
    with open(spec["timing"], "w", encoding="utf-8") as fh:
        json.dump(timing, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
