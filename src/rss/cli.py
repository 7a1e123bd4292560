"""Command-line front end: run / validate / bench / calibrate.

Configuration is INI-style text (key = value under [sections]); unknown
sections or keys are rejected, and every run echoes a fully-resolved copy
of its configuration (defaults filled in) into the output directory, so any
output can be reproduced byte-for-byte from its own echo. Exit codes:
0 success, 1 runtime failure (partial outputs flushed), 2 configuration
error: a value rejected while a command is built from its config.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import dataclasses
import json
import os
import sys
import typing

import numpy as np

from . import __version__
from .core import Rng, argmax_decode, as_logits, decode_to_letters
from .energy import (
    GaussianEnergy,
    PlantedLandscape,
    TargetProfileEnergy,
    load_landscape,
    planted_landscape,
    save_landscape,
)
from .bench import INIT_SCALE, CampaignConfig, compose_energy, run_campaign
from .sampler import SamplerConfig, run_chain, save_snapshots
from .softplm import MaskedSequenceModel, calibrate_temperature, load_model
from .textio import open_text, write_text
from .verify import (
    K_MC_DEFAULT,
    K_VARIANTS_DEFAULT,
    random_sequences,
    reports_to_json,
    run_validation_suite,
)


class ConfigError(Exception):
    """Configuration problem; maps to exit code 2."""


REQUIRED = object()
_RSO_ETA_UNSET = -1.0      # [bench] rso_eta's default: rso steps with the sampler's eta

_BOOL_WORDS = {"true": True, "yes": True, "1": True,
               "false": False, "no": False, "0": False}


def _parse_value(kind, raw: str):
    if kind is bool:
        word = raw.strip().lower()
        if word not in _BOOL_WORDS:
            raise ValueError(f"expected a boolean, got {raw!r}")
        return _BOOL_WORDS[word]
    value = kind(raw)
    if kind is float and not np.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


# [sampler] holds SamplerConfig's fields in their order, with their types
# and defaults, less steps, which `rss run` reads from [run]
_SAMPLER_TYPES = typing.get_type_hints(SamplerConfig)
_SAMPLER_SCHEMA = {
    f.name: (_SAMPLER_TYPES[f.name],
             REQUIRED if f.default is dataclasses.MISSING else f.default)
    for f in dataclasses.fields(SamplerConfig)
    if f.name != "steps"
}

# `rss run` and `rss bench` size the model from the energy; `validate` and
# `calibrate` have no energy and read its size from [model]
_MODEL_SCHEMA = {
    "file": (str, ""),
    "seed": (int, 0),
    "width": (int, 16),
}
_SIZED_MODEL_SCHEMA = dict(_MODEL_SCHEMA, length=(int, 32), vocab=(int, 20))

_SCHEMAS = {
    "run": {
        "run": {
            "seed": (int, REQUIRED),
            "steps": (int, REQUIRED),
            "out": (str, ""),
            "snapshot_stride": (int, 50),
        },
        "sampler": _SAMPLER_SCHEMA,
        "energy": {
            "kind": (str, REQUIRED),
            "length": (int, 8),
            "vocab": (int, 5),
            "scale": (float, 1.0),
            "modes": (int, 5),
            "depth": (float, 3.0),
            "landscape_seed": (int, 0),
            "file": (str, ""),
            "lambda": (float, 0.0),
            "ridge_scale": (float, 0.0),
        },
        "model": _MODEL_SCHEMA,
    },
    "validate": {
        "run": {"seed": (int, REQUIRED), "out": (str, "")},
        "model": _SIZED_MODEL_SCHEMA,
        "validate": {
            "n_sequences": (int, 100),
            "n_libraries": (int, 20),
            "tau": (float, 1.0),
            "k_mc": (int, K_MC_DEFAULT),
            "k_variants": (int, K_VARIANTS_DEFAULT),
        },
    },
    "calibrate": {
        "run": {"seed": (int, REQUIRED), "out": (str, "")},
        "model": _SIZED_MODEL_SCHEMA,
        "calibrate": {
            "n_contexts": (int, 200),
            "reference_file": (str, ""),
            "reference_scale": (float, 1.0),
        },
    },
    "bench": {
        "run": {"seed": (int, REQUIRED), "out": (str, "")},
        "sampler": _SAMPLER_SCHEMA,
        "model": _MODEL_SCHEMA,
        "bench": {
            "length": (int, 8),
            "vocab": (int, 5),
            "modes": (int, 5),
            "depth": (float, 3.0),
            "landscape_seed": (int, 0),
            "landscape_file": (str, ""),
            "seeds": (int, 20),
            "step_budget": (int, REQUIRED),
            "methods": (str, "rss,rso,rso-noplm"),
            "lam": (float, 0.0),
            "ridge_scale": (float, 0.0),
            "snapshot_stride": (int, 50),
            "rso_eta": (float, _RSO_ETA_UNSET),
        },
    },
}


def load_config(path: str, command: str) -> dict:
    """Parse and validate an INI config against the command's schema."""
    schema = _SCHEMAS[command]
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from exc

    values: dict[str, dict] = {}
    for section in parser.sections():
        if section not in schema:
            raise ConfigError(f"unknown section [{section}] in {path}")
        for key in parser[section]:
            if key not in schema[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}] of {path}")
    for section, keys in schema.items():
        values[section] = {}
        for key, (kind, default) in keys.items():
            if parser.has_option(section, key):
                raw = parser.get(section, key)
                try:
                    values[section][key] = _parse_value(kind, raw)
                except ValueError as exc:
                    raise ConfigError(
                        f"bad value for '{key}' in section [{section}]: {exc}"
                    ) from exc
            elif default is REQUIRED:
                raise ConfigError(
                    f"missing required key '{key}' in section [{section}]"
                )
            else:
                values[section][key] = default
    return values


def dump_resolved_config(values: dict, command: str, path: str) -> None:
    """Echo the fully-resolved config; the 'out' key is omitted so outputs
    are independent of where they were written."""
    schema = _SCHEMAS[command]
    lines = []
    for section in schema:
        lines.append(f"[{section}]")
        for key in schema[section]:
            if key != "out":
                lines.append(f"{key} = {_format_value(values[section][key])}")
        lines.append("")
    write_text(path, "\n".join(lines),
               [f"rss-version={__version__} resolved config for '{command}'"])


def _prepare_outdir(out: str, force: bool) -> None:
    if not out:
        raise ConfigError("no output directory: set [run] out or pass --out")
    if os.path.isdir(out) and os.listdir(out) and not force:
        raise RuntimeError(
            f"output directory {out!r} is not empty; pass --force to overwrite"
        )
    os.makedirs(out, exist_ok=True)


def _header(seed: int) -> str:
    return f"rss-version={__version__} seed={seed}"


def _meta(seed: int) -> dict:
    return {"version": __version__, "seed": seed}


@contextlib.contextmanager
def _configuring():
    """A command building what it runs from its config, before it writes:
    a ValueError on a configured value, or OSError on a configured file, exits 2."""
    try:
        yield
    except (ValueError, OSError) as exc:
        raise ConfigError(str(exc)) from exc


def _build_model(model_cfg: dict, shape: tuple[int, int] | None = None):
    """The configured masked model. ``shape`` is the energy's (L, K): a
    random model takes it, and a model file must have it. Without it the
    size comes from [model] length and vocab."""
    if model_cfg["file"]:
        model = load_model(model_cfg["file"])
        if shape is not None and model.shape != shape:
            raise ConfigError(f"model file {model_cfg['file']} has shape {model.shape}, "
                              f"but the energy has shape {shape}")
        return model
    length, vocab = shape if shape is not None else (model_cfg["length"], model_cfg["vocab"])
    return MaskedSequenceModel.random(length, vocab, model_cfg["width"], Rng(model_cfg["seed"]))


def _landscape(section: dict, path: str) -> PlantedLandscape:
    """Load ``path``, or plant from the section's keys."""
    if path:
        return load_landscape(path)
    return planted_landscape(section["length"], section["vocab"], section["modes"],
                             section["depth"], Rng(section["landscape_seed"]))


def _save_planted(landscape: PlantedLandscape, section: dict, out: str) -> None:
    """landscape.txt, once the command's configuration has been accepted."""
    save_landscape(landscape, os.path.join(out, "landscape.txt"),
                   comment=_header(section["landscape_seed"]))


def _build_base_energy(energy_cfg: dict):
    """The structural energy, and the landscape for landscape.txt when the
    kind is planted (None otherwise)."""
    kind = energy_cfg["kind"]
    length, vocab = energy_cfg["length"], energy_cfg["vocab"]
    if kind == "gaussian":
        return GaussianEnergy(np.zeros((length, vocab)), energy_cfg["scale"]), None
    if kind == "target-profile":
        rng = Rng(energy_cfg["landscape_seed"])
        raw = np.abs(rng.normal((length, vocab))) + 0.1
        return TargetProfileEnergy(raw / raw.sum(axis=1, keepdims=True)), None
    if kind == "planted":
        landscape = _landscape(energy_cfg, "")
        return landscape.energy, landscape
    if kind == "landscape-file":
        if not energy_cfg["file"]:
            raise ConfigError("energy kind 'landscape-file' needs the 'file' key")
        return _landscape(energy_cfg, energy_cfg["file"]).energy, None
    raise ConfigError(f"unknown energy kind {kind!r}")


def cmd_run(values: dict, out: str) -> int:
    seed = values["run"]["seed"]
    with _configuring():
        sampler_cfg = SamplerConfig(steps=values["run"]["steps"], **values["sampler"])
        if values["run"]["snapshot_stride"] < 1:
            raise ConfigError("snapshot_stride must be >= 1")
        base, planted = _build_base_energy(values["energy"])
        rng = Rng(seed)
        # no chain starts from a shape as_logits rejects (L < 1 or K < 2)
        logits0 = as_logits(INIT_SCALE * rng.normal(base.shape))
        # the jump kernel needs a model even when the prior weight is zero
        model = _build_model(values["model"], base.shape)
        energy = compose_energy(base, values["energy"]["ridge_scale"], model,
                                values["energy"]["lambda"], sampler_cfg.tau)
    if planted is not None:
        _save_planted(planted, values["energy"], out)

    shape = energy.shape

    with open_text(os.path.join(out, "trace.csv"), [_header(seed)]) as trace:
        summary = run_chain(
            logits0, sampler_cfg, energy, model=model, rng=rng,
            trace=trace, snapshot_stride=values["run"]["snapshot_stride"],
        )

    save_snapshots(os.path.join(out, "snapshots.txt"), summary.snapshots, shape,
                   comment=_header(seed))

    seq_lines = []
    for idx, (step_idx, logits) in enumerate(summary.snapshots):
        tokens = argmax_decode(logits)
        if shape[1] <= 20:
            text = decode_to_letters(tokens)
        else:
            text = " ".join(str(t) for t in tokens)
        seq_lines.append(f"{idx}\t{text}\n")
    write_text(os.path.join(out, "sequences.txt"), "".join(seq_lines), [_header(seed)])

    post = summary.post_burn_in_energies()
    min_step = int(np.argmin(summary.energies))   # the first minimum
    payload = {
        "_meta": _meta(seed),
        "steps": summary.steps,
        "min_energy": float(summary.energies[min_step]),
        "min_energy_step": min_step,
        "energy_mean_post_burn_in": float(post.mean()) if post.size else None,
        "energy_std_post_burn_in": float(post.std()) if post.size else None,
        "eta_final": summary.eta_final,
        "energy_evaluations": summary.energy_evaluations,
        "snapshot_count": len(summary.snapshots),
    }
    for kind in ("walk", "jump"):
        proposals, accepts = summary.moves(kind)
        payload.update({f"{kind}_proposals": proposals, f"{kind}_accepts": accepts,
                        f"{kind}_acceptance": summary.acceptance(kind)})
    write_text(os.path.join(out, "summary.json"), json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_validate(values: dict, out: str) -> int:
    seed = values["run"]["seed"]
    with _configuring():
        # the [validate] keys are the suite's keyword parameters
        model = _build_model(values["model"])
        reports = run_validation_suite(model, seed, **values["validate"])
    write_text(os.path.join(out, "validation.json"), reports_to_json(reports, meta=_meta(seed)))

    lines = ["metric\tvalue\tn"]
    for name in sorted(reports):
        rep = reports[name]
        value = "undefined" if rep.value is None else format(rep.value, ".6g")
        lines.append(f"{name}\t{value}\t{rep.sample_count}")
    write_text(os.path.join(out, "validation.txt"), "\n".join(lines) + "\n", [_header(seed)])
    return 0


def cmd_calibrate(values: dict, out: str) -> int:
    seed = values["run"]["seed"]
    ccfg = values["calibrate"]
    with _configuring():
        model = _build_model(values["model"])
        if ccfg["reference_file"]:
            reference = load_model(ccfg["reference_file"])
        elif ccfg["reference_scale"] != 1.0:
            reference = model.scaled(ccfg["reference_scale"])
        else:
            reference = model
        rng = Rng(seed)
        length, vocab = model.shape
        contexts = [
            (seq, rng.integer(length))
            for seq in random_sequences(length, vocab, ccfg["n_contexts"], rng)
        ]
        tau_star = calibrate_temperature(model, reference, contexts)
    payload = {
        "_meta": _meta(seed),
        "tau_star": tau_star,
        "n_contexts": ccfg["n_contexts"],
        "reference": ccfg["reference_file"] or f"model(scale={ccfg['reference_scale']})",
    }
    write_text(os.path.join(out, "calibration.json"),
               json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_bench(values: dict, out: str) -> int:
    seed = values["run"]["seed"]
    bcfg = values["bench"]
    with _configuring():
        sampler_cfg = SamplerConfig(**values["sampler"])
        landscape = _landscape(bcfg, bcfg["landscape_file"])
        campaign = CampaignConfig(
            landscape=landscape,
            sampler=sampler_cfg,
            seeds=bcfg["seeds"],
            step_budget=bcfg["step_budget"],
            methods=tuple(m.strip() for m in bcfg["methods"].split(",") if m.strip()),
            model=_build_model(values["model"], landscape.energy.shape),
            lam=bcfg["lam"],
            ridge_scale=bcfg["ridge_scale"],
            rso_eta=None if bcfg["rso_eta"] == _RSO_ETA_UNSET else bcfg["rso_eta"],
            snapshot_stride=bcfg["snapshot_stride"],
            seed0=seed,
        )
    if not bcfg["landscape_file"]:
        _save_planted(landscape, bcfg, out)
    report = run_campaign(campaign)

    write_text(os.path.join(out, "campaign.json"), report.to_json(meta=_meta(seed)))
    write_text(os.path.join(out, "curve.csv"), report.curve_csv(), [_header(seed)])

    for name, res in sorted(report.results.items()):
        for seed_index, reason in zip(res.failed_seeds, res.failure_reasons):
            print(f"{name} seed {seed_index} failed: {reason}", file=sys.stderr)

    if not report.compute_parity:
        print("compute parity violated: unequal energy-evaluation counts", file=sys.stderr)
        return 1
    return 0


_COMMANDS = {
    "run": cmd_run,
    "validate": cmd_validate,
    "bench": cmd_bench,
    "calibrate": cmd_calibrate,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rss",
        description="Walk-jump sampling over relaxed sequence logits",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("run", "run one sampling chain"),
        ("validate", "run the masked-model validation suite"),
        ("bench", "run a sampler-vs-optimizer benchmark campaign"),
        ("calibrate", "calibrate the relaxed-model temperature"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="INI configuration file")
        p.add_argument("--out", help="output directory (overrides [run] out)")
        p.add_argument("--seed", type=int, help="override the configured seed")
        p.add_argument("--force", action="store_true",
                       help="allow writing into a non-empty output directory")
    args = parser.parse_args(argv)

    try:
        values = load_config(args.config, args.command)
        if args.seed is not None:
            values["run"]["seed"] = args.seed
        out = args.out or values["run"].get("out", "")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        _prepare_outdir(out, args.force)
        status = _COMMANDS[args.command](values, out)
        dump_resolved_config(values, args.command, os.path.join(out, "resolved.ini"))
        return status
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure: partial outputs stay on disk
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
