"""Config-driven experiment runner.

Subcommands: train, explain, evaluate, sanity, ablate, synth. Configs are
flat `key = value` text files with `[section]` headers; all randomness flows
from the seeds declared there, so every command is rerun-idempotent.

Exit codes: 0 ok, 2 configuration, file or file-format problem, 3 training
abort, 4 shape mismatch.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import data as datamod
from . import metrics as metricsmod
from .baselines import ABLATION_VARIANTS, ablation_config
from .core import (ConfigError, ShapeError, TrainConfig, check_fields, from_strings, named_rng,
                   read_text)
from .trainer import (CheckpointError, TrainingAbort, load_checkpoint,
                      nets_from_checkpoint, train)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TRAINING = 3
EXIT_SHAPE = 4


@dataclass(frozen=True)
class ModelSection:
    """`[model]`: `train_given_model`'s arguments for the model to explain."""

    hidden: tuple = field(default=(32, 32), metadata={"ge": 1})
    seed: int = field(default=0, metadata={"ge": 0})
    epochs: int = field(default=30, metadata={"ge": 0})
    learning_rate: float = field(default=1e-3, metadata={"gt": 0})

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class RunSection:
    """`[run]`: the output directory, the nets' widths and FS-A/FU-A's epochs."""

    out_dir: str = "out"
    explainer_hidden: tuple = field(default=(32, 32), metadata={"ge": 1})
    approx_hidden: tuple = field(default=(32, 32), metadata={"ge": 1})
    retrain_budget: int = field(default=metricsmod.RETRAIN_BUDGET_DEFAULT, metadata={"ge": 1})

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class IdxSection:
    """`[data]` of kind idx: two classes of an IDX image/label file pair."""

    kind: str = field(metadata={"choices": ("idx",)})
    images_path: str
    labels_path: str
    class_pair: tuple = field(metadata={"ge": 0})

    def __post_init__(self):
        check_fields(self)
        if len(self.class_pair) != 2:
            raise ConfigError(f"class_pair must be two class labels, got {self.class_pair}")
        if self.class_pair[0] == self.class_pair[1]:
            raise ConfigError(f"class_pair must be two different labels, got {self.class_pair}")


@dataclass(frozen=True)
class FileSection:
    """`[data]` of kind file: a dataset text file as `meed synth` writes it."""

    kind: str = field(metadata={"choices": ("file",)})
    path: str

    def __post_init__(self):
        check_fields(self)


SECTIONS = {"model": ModelSection, "train": TrainConfig, "run": RunSection}
DATA_SECTIONS = {**dict.fromkeys(datamod.SYNTH_KINDS, datamod.SyntheticSpec),
                 "idx": IdxSection, "file": FileSection}


def parse_config_file(path: str) -> dict:
    """`[section]` headers over `key = value` lines (`#` or `;` comments) read
    into {section: dataclass}, the keys its fields ([data]'s class set by `kind`);
    an absent [model] or [run] defaults. Unknown keys or bad values: ConfigError."""
    sections: dict = {"model": {}, "run": {}}
    current = None
    for lineno, raw in enumerate(read_text(path, ConfigError).split("\n"), 1):
        line = re.split("[#;]", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            sections.setdefault(current, {})
            continue
        if "=" not in line or current is None:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value' "
                              f"inside a section, got: {line}")
        key, _, val = (part.strip() for part in line.partition("="))
        if key in sections[current]:
            raise ConfigError(f"{path}:{lineno}: config key {key} repeats in [{current}]")
        sections[current][key] = val
    for name, section in sections.items():
        cls = DATA_SECTIONS.get(section.get("kind")) if name == "data" else SECTIONS.get(name)
        if cls is None:
            raise ConfigError(f"{path}: unknown config section [{name}]" if name != "data" else
                              f"{path}: [data] kind must be one of {', '.join(DATA_SECTIONS)}")
        sections[name] = from_strings(cls, section, name)
    return sections


def build_dataset(cfg: dict):
    """Returns (train_set, val_set, test_set, true_subset or None)."""
    section = cfg.get("data")
    if isinstance(section, datamod.SyntheticSpec):
        ds, subset = datamod.generate_synthetic(section)
    elif isinstance(section, IdxSection):
        ds, subset = datamod.load_idx_images(section.images_path, section.labels_path,
                                             section.class_pair), None
    elif isinstance(section, FileSection):
        ds, indices = datamod.import_dataset(section.path)
        subset = datamod.SelectionSet(tuple(sorted(indices)), ds.d) if indices else None
    else:
        raise ConfigError("the config has no [data] section")
    return (*datamod.split_dataset(ds), subset)


def build_train_config(cfg: dict, seed_override=None) -> TrainConfig:
    """The `[train]` section, with `seed_override` as its seed when given."""
    if "train" not in cfg:
        raise ConfigError("the config has no [train] section")
    return cfg["train"] if seed_override is None else replace(cfg["train"], seed=seed_override)


def _out_dir(args, cfg: dict) -> str:
    """--out, else [run] out_dir, made if missing."""
    out_dir = args.out or cfg["run"].out_dir
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


def _write(args, cfg: dict, name: str, text: str) -> str:
    path = os.path.join(_out_dir(args, cfg), name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def build_model(cfg: dict, train_set):
    return datamod.train_given_model(train_set, **asdict(cfg["model"]))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    cfg = parse_config_file(args.config)
    spec = cfg.get("data")
    if not isinstance(spec, datamod.SyntheticSpec):
        raise ConfigError(f"synth needs a [data] kind of {', '.join(datamod.SYNTH_KINDS)}")
    ds, subset = datamod.generate_synthetic(spec if args.seed is None
                                            else replace(spec, seed=args.seed))
    path = os.path.join(_out_dir(args, cfg), "dataset.txt")
    datamod.export_dataset(ds, subset, path)
    print(f"wrote {path} ({len(ds)} samples, d={ds.d})")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = parse_config_file(args.config)
    run = cfg["run"]
    out_dir = _out_dir(args, cfg)
    train_set, _, _, _ = build_dataset(cfg)
    config = build_train_config(cfg, seed_override=args.seed)
    model = build_model(cfg, train_set)
    datamod.save_model(model, os.path.join(out_dir, "model.bin"))
    train(train_set, model, config, explainer_hidden=run.explainer_hidden,
          approx_hidden=run.approx_hidden, out_dir=out_dir)
    print(f"wrote {os.path.join(out_dir, 'checkpoint.bin')}")
    return EXIT_OK


def _check_width(ckpt, dataset) -> None:
    if dataset.d != ckpt.meta["d"]:
        raise ShapeError(f"checkpoint expects d={ckpt.meta['d']} but data has d={dataset.d}")


def cmd_explain(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    explainer, _ = nets_from_checkpoint(ckpt)
    model_path = args.model or os.path.join(os.path.dirname(args.checkpoint), "model.bin")
    model = datamod.load_model(model_path)
    ds, _ = datamod.import_dataset(args.data)
    _check_width(ckpt, ds)
    _, z, masks = metricsmod.score_set(explainer, model, ds,
                                       args.k if args.k is not None else ckpt.config.k)
    out_path = args.out or "explanations.txt"
    with open(out_path, "w", encoding="utf-8") as fh:
        for i in range(len(ds)):
            selected = np.flatnonzero(masks[i]).tolist()
            idx_txt = ";".join(str(j) for j in selected)
            score_txt = ";".join(f"{z[i][j]:.4f}" for j in selected)
            fh.write(f"id={ds.ids[i]} selected={idx_txt} scores={score_txt}\n")
    print(f"wrote {out_path} ({len(ds)} records)")
    return EXIT_OK


def _load_run(args):
    cfg = parse_config_file(args.config)
    run = cfg["run"]
    train_set, _, test_set, _ = build_dataset(cfg)
    ckpt = load_checkpoint(args.checkpoint)
    _check_width(ckpt, train_set)
    explainer, _ = nets_from_checkpoint(ckpt)
    model = datamod.load_model(os.path.join(os.path.dirname(args.checkpoint), "model.bin"))
    return cfg, run, train_set, test_set, ckpt, explainer, model


def cmd_evaluate(args) -> int:
    cfg, run, train_set, test_set, ckpt, explainer, model = _load_run(args)
    report = metricsmod.evaluate_explainer(
        explainer, model, train_set, test_set, ckpt.config.k,
        retrain_budget=run.retrain_budget, hidden=run.approx_hidden, seed=ckpt.config.seed)
    path = _write(args, cfg, "report.txt", report.serialize())
    print(report.serialize(), end="")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_sanity(args) -> int:
    cfg, run, train_set, test_set, ckpt, explainer, model = _load_run(args)
    metricsmod.require_rows(evaluation=test_set, training=train_set)
    k, x, rng = ckpt.config.k, test_set.X, named_rng(ckpt.config.seed, "sanity")
    _, _, masks = metricsmod.score_set(explainer, model, test_set, k)
    score_model = metricsmod.sanity_tests(explainer, model, x, masks, k, rng)
    # Data randomization, drawn from the rng after the model's: the test set's
    # masks against those of a model and an explainer retrained on permuted labels.
    shuffled = metricsmod.permuted_labels(train_set, rng)
    new_model = build_model(cfg, shuffled)
    new_explainer, _, _ = train(replace(shuffled, y_true=None), new_model, ckpt.config,
                                explainer_hidden=run.explainer_hidden,
                                approx_hidden=run.approx_hidden)
    score_data = metricsmod.mask_cosine(
        masks, metricsmod.explainer_masks(new_explainer, x, new_model.evaluate(x), k))
    text = f"SANITY-MODEL={score_model:.2f}\nSANITY-DATA={score_data:.2f}\n"
    path = _write(args, cfg, "sanity.txt", text)
    print(text, end="")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    cfg = parse_config_file(args.config)
    run = cfg["run"]
    train_set, _, test_set, _ = build_dataset(cfg)
    base = build_train_config(cfg, seed_override=args.seed)
    model = build_model(cfg, train_set)
    for variant in ABLATION_VARIANTS:
        config = ablation_config(variant, base)
        explainer, _, _ = train(train_set, model, config, explainer_hidden=run.explainer_hidden,
                                approx_hidden=run.approx_hidden)
        report = metricsmod.evaluate_explainer(
            explainer, model, train_set, test_set, config.k,
            retrain_budget=run.retrain_budget, hidden=run.approx_hidden, seed=config.seed)
        slug = variant.replace("/", "").replace(" ", "-").lower()
        path = _write(args, cfg, f"report-{slug}.txt", report.serialize())
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
    except (ConfigError, OSError, CheckpointError, datamod.IdxParseError,
            datamod.ModelFileError, datamod.DatasetFileError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SHAPE if isinstance(exc, ShapeError) else EXIT_CONFIG
    except TrainingAbort as exc:
        print(f"training aborted: {exc}", file=sys.stderr)
        return EXIT_TRAINING


if __name__ == "__main__":
    sys.exit(main())
