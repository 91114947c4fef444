"""Config-driven experiment runner.

Subcommands: train, explain, evaluate, sanity, ablate, synth. Configs are
flat `key = value` text files with `[section]` headers; all randomness flows
from the seeds declared there, so every command is rerun-idempotent.

Exit codes: 0 ok, 2 configuration or file-format problem, 3 training abort,
4 shape mismatch.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import re
import sys

import numpy as np

from . import data as datamod
from . import metrics as metricsmod
from .baselines import ABLATION_VARIANTS, ablation_config
from .core import ConfigError, ShapeError, TrainConfig, parse_int_tuple
from .sampler import hard_topk
from .trainer import (CheckpointError, TrainingAbort, load_checkpoint,
                      nets_from_checkpoint, train)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TRAINING = 3
EXIT_SHAPE = 4


class ConfigFileError(ValueError):
    pass


# The keys each section accepts; those of [data] depend on its kind.
SYNTH_KEYS = ("kind", "d", "true_subset", "n", "noise_std", "seed")
DATA_KEYS = {**dict.fromkeys(datamod.SYNTH_KINDS, SYNTH_KEYS),
             "idx": ("kind", "images_path", "labels_path", "class_pair"),
             "file": ("kind", "path")}
SECTION_KEYS = {"model": ("hidden", "seed", "epochs", "learning_rate"),
                "train": tuple(f.name for f in dataclasses.fields(TrainConfig)),
                "run": ("out_dir", "explainer_hidden", "approx_hidden", "retrain_budget")}


def parse_config_file(path: str) -> dict:
    """`[section]` headers with `key = value` lines and `#` or `;` comments;
    returns nested dict. Unknown sections and keys raise ConfigFileError."""
    if not os.path.exists(path):
        raise ConfigFileError(f"config file not found: {path}")
    sections: dict = {}
    current = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = re.split("[#;]", raw, maxsplit=1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1].strip()
                sections.setdefault(current, {})
                continue
            if "=" not in line or current is None:
                raise ConfigFileError(f"{path}:{lineno}: expected 'key = value' "
                                      f"inside a section, got: {line}")
            key, _, val = line.partition("=")
            sections[current][key.strip()] = val.strip()
    for name, section in sections.items():
        if name == "data":
            # A missing or unknown kind is reported by the dataset builders.
            allowed = DATA_KEYS.get(section.get("kind"), section)
        elif name in SECTION_KEYS:
            allowed = SECTION_KEYS[name]
        else:
            raise ConfigFileError(f"{path}: unknown config section [{name}]")
        unknown = sorted(set(section) - set(allowed))
        if unknown:
            raise ConfigFileError(f"{path}: unknown [{name}] key(s): {', '.join(unknown)}")
    return sections


def _get(section: dict, key: str, conv, default=None, required=False):
    if key not in section:
        if required:
            raise ConfigFileError(f"missing required config key: {key}")
        return default
    try:
        return conv(section[key])
    except ValueError as exc:
        raise ConfigFileError(f"bad value for config key {key}: {exc}") from exc


def _synthetic_spec(section: dict, seed_override=None) -> datamod.SyntheticSpec:
    """The `[data]` section of a synthetic run as a SyntheticSpec."""
    return datamod.SyntheticSpec(
        d=_get(section, "d", int, required=True),
        true_subset=_get(section, "true_subset", parse_int_tuple, required=True),
        n=_get(section, "n", int, required=True),
        noise_std=_get(section, "noise_std", float, 0.0),
        kind=_get(section, "kind", str, required=True),
        seed=seed_override if seed_override is not None else _get(section, "seed", int, 0))


def build_dataset(cfg: dict):
    """Returns (train_set, val_set, test_set, true_subset or None)."""
    section = cfg.get("data", {})
    kind = _get(section, "kind", str, required=True)
    if kind in datamod.SYNTH_KINDS:
        ds, subset = datamod.generate_synthetic(_synthetic_spec(section))
        tr, va, te = datamod.split_dataset(ds)
        return tr, va, te, subset
    if kind == "idx":
        ds = datamod.load_idx_images(
            _get(section, "images_path", str, required=True),
            _get(section, "labels_path", str, required=True),
            tuple(_get(section, "class_pair", parse_int_tuple, required=True)))
        tr, va, te = datamod.split_dataset(ds)
        return tr, va, te, None
    if kind == "file":
        ds, subset = datamod.import_dataset(_get(section, "path", str, required=True))
        tr, va, te = datamod.split_dataset(ds)
        sel = None
        if subset:
            sel = datamod.SelectionSet(indices=tuple(sorted(subset)), d=ds.d)
        return tr, va, te, sel
    raise ConfigFileError(f"unknown data kind: {kind}")


def build_train_config(cfg: dict, seed_override=None) -> TrainConfig:
    """TrainConfig from the `[train]` section; unknown keys are rejected."""
    s = dict(cfg.get("train", {}))
    if seed_override is not None:
        s["seed"] = str(seed_override)
    try:
        return TrainConfig.from_strings(s)
    except ConfigError as exc:
        raise ConfigFileError(str(exc)) from exc


def build_model(cfg: dict, train_set):
    s = cfg.get("model", {})
    return datamod.train_given_model(
        train_set,
        hidden=_get(s, "hidden", parse_int_tuple, (32, 32)),
        seed=_get(s, "seed", int, 0),
        epochs=_get(s, "epochs", int, 30),
        learning_rate=_get(s, "learning_rate", float, 1e-3))


def _run_section(cfg: dict) -> dict:
    s = cfg.get("run", {})
    return {
        "out_dir": _get(s, "out_dir", str, "out"),
        "explainer_hidden": _get(s, "explainer_hidden", parse_int_tuple, (32, 32)),
        "approx_hidden": _get(s, "approx_hidden", parse_int_tuple, (32, 32)),
        "retrain_budget": _get(s, "retrain_budget", int, 20),
    }


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    cfg = parse_config_file(args.config)
    run = _run_section(cfg)
    out_dir = args.out or run["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    ds, subset = datamod.generate_synthetic(_synthetic_spec(cfg.get("data", {}), args.seed))
    path = os.path.join(out_dir, "dataset.txt")
    datamod.export_dataset(ds, subset, path)
    print(f"wrote {path} ({len(ds)} samples, d={ds.d})")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = parse_config_file(args.config)
    run = _run_section(cfg)
    out_dir = args.out or run["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    train_set, _, _, _ = build_dataset(cfg)
    config = build_train_config(cfg, seed_override=args.seed)
    model = build_model(cfg, train_set)
    datamod.save_model(model, os.path.join(out_dir, "model.bin"))
    train(train_set, model, config,
          explainer_hidden=run["explainer_hidden"],
          approx_hidden=run["approx_hidden"], out_dir=out_dir)
    print(f"wrote {os.path.join(out_dir, 'checkpoint.bin')}")
    return EXIT_OK


def cmd_explain(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    explainer, _ = nets_from_checkpoint(ckpt)
    model_path = args.model or os.path.join(os.path.dirname(args.checkpoint), "model.bin")
    model = datamod.load_model(model_path)
    ds, _ = datamod.import_dataset(args.data)
    if ds.d != ckpt.meta["d"]:
        raise ShapeError(f"checkpoint expects d={ckpt.meta['d']} but data has d={ds.d}")
    k = args.k if args.k is not None else ckpt.config.k
    y = model.evaluate(ds.X)
    z = explainer.score(ds.X, y)
    out_path = args.out or "explanations.txt"
    with open(out_path, "w", encoding="utf-8") as fh:
        for i in range(len(ds)):
            sel = hard_topk(z[i], k)
            idx_txt = ";".join(str(j) for j in sel.indices)
            score_txt = ";".join(f"{z[i][j]:.4f}" for j in sel.indices)
            fh.write(f"id={ds.ids[i]} selected={idx_txt} scores={score_txt}\n")
    print(f"wrote {out_path} ({len(ds)} records)")
    return EXIT_OK


def _load_run(args):
    cfg = parse_config_file(args.config)
    run = _run_section(cfg)
    train_set, _, test_set, _ = build_dataset(cfg)
    ckpt = load_checkpoint(args.checkpoint)
    if train_set.d != ckpt.meta["d"]:
        raise ShapeError(f"checkpoint expects d={ckpt.meta['d']} but data has d={train_set.d}")
    explainer, _ = nets_from_checkpoint(ckpt)
    model_path = os.path.join(os.path.dirname(args.checkpoint), "model.bin")
    if os.path.exists(model_path):
        model = datamod.load_model(model_path)
    else:
        model = build_model(cfg, train_set)
    return cfg, run, train_set, test_set, ckpt, explainer, model


def cmd_evaluate(args) -> int:
    cfg, run, train_set, test_set, ckpt, explainer, model = _load_run(args)
    report = metricsmod.evaluate_explainer(
        explainer, model, train_set, test_set, ckpt.config.k,
        retrain_budget=run["retrain_budget"], hidden=run["approx_hidden"],
        seed=ckpt.config.seed)
    out_dir = args.out or run["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "report.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report.serialize())
    print(report.serialize(), end="")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_sanity(args) -> int:
    cfg, run, train_set, test_set, ckpt, explainer, model = _load_run(args)
    rng = np.random.default_rng(ckpt.config.seed)
    score_model = metricsmod.sanity_tests(explainer, model, test_set, ckpt.config.k,
                                          mode="model-randomization", rng=rng)
    score_data = metricsmod.sanity_tests(
        explainer, model, test_set, ckpt.config.k, mode="data-randomization",
        rng=rng, train_set=train_set, config=ckpt.config,
        train_kwargs={"explainer_hidden": run["explainer_hidden"],
                      "approx_hidden": run["approx_hidden"]},
        model_builder=lambda ds: build_model(cfg, ds))
    out_dir = args.out or run["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "sanity.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"SANITY-MODEL={score_model:.2f}\nSANITY-DATA={score_data:.2f}\n")
    print(f"SANITY-MODEL={score_model:.2f}")
    print(f"SANITY-DATA={score_data:.2f}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    cfg = parse_config_file(args.config)
    run = _run_section(cfg)
    out_dir = args.out or run["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    train_set, _, test_set, _ = build_dataset(cfg)
    base = build_train_config(cfg, seed_override=args.seed)
    model = build_model(cfg, train_set)
    for variant in ABLATION_VARIANTS:
        config = ablation_config(variant, base)
        explainer, _, _ = train(train_set, model, config,
                                explainer_hidden=run["explainer_hidden"],
                                approx_hidden=run["approx_hidden"])
        report = metricsmod.evaluate_explainer(
            explainer, model, train_set, test_set, config.k,
            retrain_budget=run["retrain_budget"], hidden=run["approx_hidden"],
            seed=config.seed)
        slug = variant.replace("/", "").replace(" ", "-").lower()
        path = os.path.join(out_dir, f"report-{slug}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(report.serialize())
        print(f"{variant}: FS-M={report.fs_m:.2f} FU-A={report.fu_a:.2f} -> {path}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="meed", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, needs_config=True, needs_checkpoint=False, extra=()):
        p = sub.add_parser(name)
        if needs_config:
            p.add_argument("--config", required=True)
        if needs_checkpoint:
            p.add_argument("--checkpoint", required=True)
        else:  # a checkpoint brings its own seed
            p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        for flag, kwargs in extra:
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn)
        return p

    add("synth", cmd_synth)
    add("train", cmd_train)
    add("explain", cmd_explain, needs_config=False, needs_checkpoint=True,
        extra=[("--data", {"required": True}),
               ("--k", {"type": int, "default": None}),
               ("--model", {"default": None})])
    add("evaluate", cmd_evaluate, needs_checkpoint=True)
    add("sanity", cmd_sanity, needs_checkpoint=True)
    add("ablate", cmd_ablate)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigFileError, ConfigError, FileNotFoundError, CheckpointError,
            datamod.IdxParseError, datamod.ModelFileError, datamod.DatasetFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ShapeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except TrainingAbort as exc:
        print(f"training aborted: {exc}", file=sys.stderr)
        return EXIT_TRAINING


if __name__ == "__main__":
    sys.exit(main())
