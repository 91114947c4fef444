"""Command-line pipeline: config parsing, exit codes and artifacts."""

import dataclasses
import json
import math
import os
import struct
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meed.cli import (EXIT_CONFIG, EXIT_OK, EXIT_SHAPE, FileSection, IdxSection, ModelSection,
                      RunSection, build_dataset, build_model, build_train_config, main,
                      parse_config_file)
from meed.baselines import FD_STEP
from meed.core import ConfigError, Mlp, TrainConfig, write_record
from meed.data import (MODEL_MAGIC, MODEL_VERSION, MlpModel, SyntheticSpec, export_dataset,
                       generate_synthetic, import_dataset, load_model)
from meed.metrics import MetricsReport
from meed.sampler import hard_topk
from meed.trainer import (CHECKPOINT_MAGIC, Adam, Checkpoint, load_checkpoint,
                          nets_from_checkpoint, save_checkpoint)
from tests.conftest import BAD_LAYER_LISTS, record_sections
from tests.helpers import write_idx_images, write_idx_labels

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "README.md")


CONFIG = """
# Small end-to-end run used by the CLI tests.
[data]
kind = sparse-logit
d = 6
true_subset = 0,1
n = 800
noise_std = 0.1
seed = 11

[model]
hidden = 8
seed = 0
epochs = 10

[train]
k = 2
epochs = 3
seed = 1
batch_size = 32

[run]
out_dir = {out}
explainer_hidden = 8
approx_hidden = 8
retrain_budget = 3
"""


@pytest.fixture
def run_dir(tmp_path):
    out = tmp_path / "out"
    config_path = tmp_path / "run.cfg"
    config_path.write_text(CONFIG.format(out=out))
    return str(config_path), str(out)


def test_parse_config_file(run_dir):
    config_path, _ = run_dir
    cfg = parse_config_file(config_path)
    assert cfg["data"].kind == "sparse-logit"
    assert cfg["train"].k == 2
    tc = build_train_config(cfg)
    assert tc.k == 2 and tc.epochs == 3 and tc.batch_size == 32


def _section_text(section) -> str:
    """`key = value` lines for every field of a section dataclass."""
    return "".join(f"{name} = {','.join(map(str, val)) if isinstance(val, tuple) else val}\n"
                   for name, val in dataclasses.asdict(section).items())


@pytest.mark.parametrize("name, section", [
    ("model", ModelSection(hidden=(5, 3), seed=2, epochs=4, learning_rate=0.5)),
    ("run", RunSection(out_dir="elsewhere", explainer_hidden=(4,), approx_hidden=(),
                       retrain_budget=7)),
    ("train", TrainConfig(k=3, epochs=2, seed=5, use_output_feedback=False)),
    ("data", SyntheticSpec(d=5, true_subset=(1, 3), n=9, kind="xor", noise_std=0.25, seed=4)),
    ("data", IdxSection(kind="idx", images_path="i.idx", labels_path="l.idx",
                        class_pair=(3, 8))),
    ("data", FileSection(kind="file", path="data.txt"))])
def test_each_section_reads_exactly_its_dataclass_fields(tmp_path, name, section):
    """Every field is a key and nothing else is, so a new field needs no key list."""
    path = tmp_path / "run.cfg"
    path.write_text(f"[{name}]\n" + _section_text(section))
    assert parse_config_file(str(path))[name] == section
    path.write_text(f"[{name}]\n" + _section_text(section) + "bogus = 1\n")
    with pytest.raises(ConfigError, match=rf"unknown \[{name}\] key\(s\): bogus"):
        parse_config_file(str(path))


def test_absent_keys_and_sections_take_the_documented_defaults(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[data]\nkind = xor\nd = 4\ntrue_subset = 0,1\nn = 10\n"
                    "[train]\nk = 2\nepochs = 1\n")
    cfg = parse_config_file(str(path))
    assert cfg["data"] == SyntheticSpec(d=4, true_subset=(0, 1), n=10, kind="xor",
                                        noise_std=0.0, seed=0)
    assert cfg["model"] == ModelSection(hidden=(32, 32), seed=0, epochs=30, learning_rate=1e-3)
    assert cfg["run"] == RunSection(out_dir="out", explainer_hidden=(32, 32),
                                    approx_hidden=(32, 32), retrain_budget=20)
    assert cfg["train"] == TrainConfig(k=2, epochs=1)


def test_readme_config_example_parses(tmp_path):
    block = open(README, encoding="utf-8").read().split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.cfg"
    path.write_text(block)
    cfg = parse_config_file(str(path))
    assert cfg["model"].hidden == (16,)
    train_set, _, _, subset = build_dataset(cfg)
    assert train_set.d == 6 and subset.indices == (0, 1)
    tc = build_train_config(cfg)
    assert (tc.k, tc.epochs, tc.seed, tc.batch_size) == (2, 25, 1, 32)
    assert (tc.lambda_u, tc.learning_rate) == (0.2, 2e-3)


# One value per TrainConfig field, each different from the field's default.
NON_DEFAULT = {"k": 3, "epochs": 5, "seed": 11, "tau": 0.25, "lambda_u": 0.5,
               "lambda_e": 0.125, "batch_size": 7, "learning_rate": 0.003,
               "loss_u": "sliced-wasserstein", "use_output_feedback": False,
               "prior_method": "grad", "n_projections": 9}


def test_every_train_config_field_round_trips(tmp_path):
    config = TrainConfig(**NON_DEFAULT)
    ckpt = Checkpoint(config=config,
                      meta={"d": 2, "c": 2, "explainer_hidden": (3,), "approx_hidden": ()},
                      explainer_params=np.zeros(2), a_selected_params=np.zeros(1),
                      a_unselected_params=np.zeros(0), epoch_counter=1, rng_states={},
                      optimizer_states={})
    save_checkpoint(ckpt, str(tmp_path / "ckpt.bin"))
    from_checkpoint = load_checkpoint(str(tmp_path / "ckpt.bin")).config
    section = "".join(f"{name} = {str(val).lower() if isinstance(val, bool) else val}\n"
                      for name, val in NON_DEFAULT.items())
    (tmp_path / "run.cfg").write_text("[train]\n" + section)
    from_cli = build_train_config(parse_config_file(str(tmp_path / "run.cfg")))
    for field in dataclasses.fields(TrainConfig):
        want = NON_DEFAULT[field.name]
        assert want != field.default, field.name
        for got in (getattr(from_checkpoint, field.name), getattr(from_cli, field.name)):
            assert got == want and type(got) is type(want), field.name


def test_unknown_train_key_exits_2(tmp_path):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(CONFIG.format(out=tmp_path / "out").replace("batch_size", "batch_sise"))
    with pytest.raises(ConfigError, match="batch_sise"):
        build_train_config(parse_config_file(str(cfg)))
    assert main(["train", "--config", str(cfg)]) == EXIT_CONFIG


@pytest.mark.parametrize("old, new, name", [
    ("noise_std = 0.1", "noise_sdt = 0.1", "noise_sdt"),
    ("hidden = 8", "hiden = 8", "hiden"),
    ("retrain_budget = 3", "retrain_budgt = 3", "retrain_budgt"),
    ("retrain_budget = 3", "retrain_budget = 3\nfusion = concat-embedded", "fusion"),
    ("batch_size = 32", "batch_size = 32\noptimizer = adam", "optimizer"),
    ("batch_size = 32", "batch_size = 32\ndecay = 0", "decay"),
    ("[run]", "[rnu]", "[rnu]"),
    # [data] keys depend on the kind: a synthetic key is unknown to kind = file.
    ("kind = sparse-logit", "kind = file\npath = data.txt", "true_subset")])
def test_unknown_config_key_or_section_exits_2(tmp_path, capsys, old, new, name):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(CONFIG.format(out=tmp_path / "out").replace(old, new))
    for command in ("synth", "train"):
        assert main([command, "--config", str(cfg)]) == EXIT_CONFIG
        assert name in capsys.readouterr().err


IDX_DATA = """[data]
kind = idx
images_path = {tmp}/images
labels_path = {tmp}/labels
class_pair = {pair}

"""


@pytest.mark.parametrize("command, old, new, argv, key", [
    ("train", "batch_size = 32", "batch_size = 32\nlambda_e = -1", [], "lambda_e"),
    ("train", "seed = 1\n", "seed = -1\n", [], "seed"),  # [train]
    ("train", "seed = 11\n", "seed = -1\n", [], "seed"),  # [data]
    ("train", "seed = 0\n", "seed = -1\n", [], "seed"),  # [model]
    ("train", "", "", ["--seed", "-1"], "seed"),
    ("synth", "", "", ["--seed", "-1"], "seed"),
    ("train", "\nhidden = 8\n", "\nhidden = -1\n", [], "hidden"),
    ("train", "explainer_hidden = 8", "explainer_hidden = 8,-2", [], "explainer_hidden"),
    ("train", "approx_hidden = 8", "approx_hidden = -1", [], "approx_hidden"),
    ("train", CONFIG.split("[model]")[0], IDX_DATA.format(tmp="{tmp}", pair="3"), [],
     "class_pair"),
    ("train", CONFIG.split("[model]")[0], IDX_DATA.format(tmp="{tmp}", pair="3,8,5"), [],
     "class_pair"),
    ("train", CONFIG.split("[model]")[0], IDX_DATA.format(tmp="{tmp}", pair="1,2"), [],
     "class pair (1, 2)"),
    ("train", CONFIG.split("[model]")[0], IDX_DATA.format(tmp="{tmp}", pair="3,3"), [],
     "class_pair"),
    ("train", "epochs = 10", "epochs = -5", [], "epochs"),  # [model]
    ("train", "epochs = 10", "epochs = 10\nlearning_rate = -1", [], "learning_rate"),
    ("train", "epochs = 10", "epochs = 10\nlearning_rate = 0", [], "learning_rate"),
    ("train", "retrain_budget = 3", "retrain_budget = -2", [], "retrain_budget"),
    ("evaluate", "retrain_budget = 3", "retrain_budget = 0", ["--checkpoint", "none.bin"],
     "retrain_budget"),
    ("train", "noise_std = 0.1", "noise_std = -0.1", [], "noise_std")])
def test_out_of_range_config_value_exits_2_naming_its_key(tmp_path, capsys, command, old, new,
                                                          argv, key):
    """Each of these ended in a traceback, or in exit 0 on an untrained model,
    an ascending step or unfitted FS-A/FU-A nets, before it was checked where
    it enters."""
    write_idx_images(np.zeros((4, 2, 2)), str(tmp_path / "images"))
    write_idx_labels(np.array([3, 8, 3, 8]), str(tmp_path / "labels"))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(CONFIG.format(out=tmp_path / "out").replace(old, new.format(tmp=tmp_path)))
    assert main([command, "--config", str(cfg)] + argv) == EXIT_CONFIG
    assert key in capsys.readouterr().err


# A valid instance of each class whose fields carry their ranges and choices.
CHECKED = [TrainConfig(k=2, epochs=1), ModelSection(), RunSection(),
           SyntheticSpec(d=4, true_subset=(0,), n=10, kind="xor")]


def _metadata_cases(section):
    """(field, value, valid) triples read off each field's metadata. Invalid:
    every non-finite float, the first value past a lower bound and an unknown
    choice. Valid: a `ge` bound itself, the first value past a `gt` bound and
    each choice."""
    types = typing.get_type_hints(type(section))
    for field in dataclasses.fields(section):
        meta, kind = field.metadata, types[field.name]
        wrap = (lambda v: (v,)) if kind is tuple else kind
        if kind is float:
            yield from ((field.name, v, False) for v in (math.nan, math.inf, -math.inf))
            above, below = ((lambda v: math.nextafter(v, math.inf)),
                            (lambda v: math.nextafter(v, -math.inf)))
        else:
            above, below = (lambda v: v + 1), (lambda v: v - 1)
        if "gt" in meta:
            yield field.name, wrap(meta["gt"]), False
            yield field.name, wrap(above(meta["gt"])), True
        if "ge" in meta:
            yield field.name, wrap(below(meta["ge"])), False
            yield field.name, wrap(meta["ge"]), True
        if "choices" in meta:
            yield field.name, "bogus", False
            yield from ((field.name, choice, True) for choice in meta["choices"])


@pytest.mark.parametrize("section, name, value, valid", [
    pytest.param(section, *case, id=f"{type(section).__name__}.{case[0]}={case[1]!r}")
    for section in CHECKED for case in _metadata_cases(section)])
def test_every_field_checks_its_range_and_choices(section, name, value, valid):
    if valid:
        assert getattr(dataclasses.replace(section, **{name: value}), name) == value
    else:
        with pytest.raises(ConfigError, match=rf"config key {name}: "):
            dataclasses.replace(section, **{name: value})


@pytest.mark.parametrize("old, new, key", [
    ("batch_size = 32", "batch_size = 32\ntau = nan", "tau"),
    ("batch_size = 32", "batch_size = 32\nlambda_u = nan", "lambda_u"),
    ("batch_size = 32", "batch_size = 32\nlambda_e = nan", "lambda_e"),
    ("batch_size = 32", "batch_size = 32\nlearning_rate = inf", "learning_rate"),
    ("epochs = 10", "epochs = 10\nlearning_rate = nan", "learning_rate"),  # [model]
    ("noise_std = 0.1", "noise_std = -inf", "noise_std")])
def test_non_finite_config_value_exits_2_naming_its_key(tmp_path, capsys, old, new, key):
    """NaN passed every range check (`nan <= 0` is False): training aborted
    with exit 3, or the model's outputs failed with exit 4."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(CONFIG.format(out=tmp_path / "out").replace(old, new))
    assert main(["train", "--config", str(cfg)]) == EXIT_CONFIG
    assert f"config key {key}: " in capsys.readouterr().err


@pytest.mark.parametrize("old, new, key", [("true_subset = 0,1", "true_subset =", "true_subset"),
                                           ("d = 6", "d = 0", "config key d: ")])
def test_empty_true_subset_or_d_below_1_exits_2_naming_its_key(tmp_path, capsys, old, new, key):
    """An empty true_subset ended in a ValueError traceback from SelectionSet."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(CONFIG.format(out=tmp_path / "out").replace(old, new))
    for command in ("synth", "train"):
        assert main([command, "--config", str(cfg)]) == EXIT_CONFIG
        assert key in capsys.readouterr().err


@pytest.mark.parametrize("old, new, key", [
    ("batch_size = 32", "batch_size = 32\nbatch_size = 16", "batch_size"),
    ("[run]", "[train]\nk = 3\n\n[run]", "k")])  # under a second [train] header
def test_repeated_config_key_exits_2_naming_it(tmp_path, capsys, old, new, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(CONFIG.format(out=tmp_path / "out").replace(old, new))
    with pytest.raises(ConfigError, match=rf"config key {key} repeats in \[train\]"):
        parse_config_file(str(cfg))
    assert main(["train", "--config", str(cfg)]) == EXIT_CONFIG
    assert f"config key {key} repeats" in capsys.readouterr().err


@pytest.mark.parametrize("header", ["#trueSubset=0;0", "#trueSubset=0;99"])
def test_dataset_file_with_a_bad_true_subset_exits_2(tmp_path, capsys, header):
    """A repeated or out-of-range index ended in a ValueError traceback."""
    data_path = tmp_path / "data.txt"
    data_path.write_text(f"{header}\na,0.5,1.0,1\nb,-0.5,2.0,0\n")
    cfg = tmp_path / "file.cfg"
    cfg.write_text(f"[data]\nkind = file\npath = {data_path}\n"
                   f"[train]\nk = 2\nepochs = 1\n[run]\nout_dir = {tmp_path / 'out'}\n")
    assert main(["train", "--config", str(cfg)]) == EXIT_CONFIG
    assert f"{data_path}:1: #trueSubset" in capsys.readouterr().err


def write_labelled_and_unlabelled_runs(tmp_path):
    """labelled.cfg and unlabelled.cfg over one small dataset file, with and
    without its labels; each config writes into its own out_dir."""
    ds, subset = generate_synthetic(SyntheticSpec(d=4, true_subset=(0, 1), n=40, noise_std=0.1,
                                                  kind="sparse-logit", seed=3))
    for name, data in (("labelled", ds), ("unlabelled", dataclasses.replace(ds, y_true=None))):
        export_dataset(data, subset, str(tmp_path / f"{name}.txt"))
        (tmp_path / f"{name}.cfg").write_text(
            f"[data]\nkind = file\npath = {tmp_path / name}.txt\n[model]\nhidden = 4\n"
            f"epochs = 1\n[train]\nk = 2\nepochs = 1\n[run]\nout_dir = {tmp_path / name}\n"
            "explainer_hidden = 4\napprox_hidden = 4\nretrain_budget = 1\n")


@pytest.mark.parametrize("command", ["train", "ablate", "sanity"])
def test_unlabelled_dataset_exits_2_where_true_labels_are_needed(tmp_path, capsys, command):
    """Fitting the model to explain and the data-randomization test read true
    labels; a dataset file with empty labels ended in a ValueError or a numpy
    AxisError traceback."""
    write_labelled_and_unlabelled_runs(tmp_path)
    argv = [command, "--config", str(tmp_path / "unlabelled.cfg")]
    if command == "sanity":
        assert main(["train", "--config", str(tmp_path / "labelled.cfg")]) == EXIT_OK
        argv += ["--checkpoint", str(tmp_path / "labelled" / "checkpoint.bin")]
    capsys.readouterr()
    assert main(argv) == EXIT_CONFIG
    assert "true labels" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["explain", "evaluate"])
def test_unlabelled_dataset_is_enough_where_true_labels_are_not_read(tmp_path, command):
    """Explanations and the fidelity report use the model's outputs only, so
    they run on the unlabelled file against a run trained on the labelled one."""
    write_labelled_and_unlabelled_runs(tmp_path)
    assert main(["train", "--config", str(tmp_path / "labelled.cfg")]) == EXIT_OK
    ckpt = str(tmp_path / "labelled" / "checkpoint.bin")
    out = tmp_path / ("explanations.txt" if command == "explain" else "unlabelled/report.txt")
    argv = (["explain", "--data", str(tmp_path / "unlabelled.txt"), "--out", str(out)]
            if command == "explain" else ["evaluate", "--config", str(tmp_path / "unlabelled.cfg")])
    assert main([*argv, "--checkpoint", ckpt]) == EXIT_OK
    assert out.read_text()


def write_one_class_run(tmp_path):
    """one.cfg over a dataset file whose every label is 0."""
    ds, subset = generate_synthetic(SyntheticSpec(d=4, true_subset=(0, 1), n=40, noise_std=0.1,
                                                  kind="sparse-logit", seed=3))
    export_dataset(dataclasses.replace(ds, y_true=np.zeros(len(ds), dtype=int)), subset,
                   str(tmp_path / "one.txt"))
    (tmp_path / "one.cfg").write_text(
        f"[data]\nkind = file\npath = {tmp_path / 'one.txt'}\n[model]\nhidden = 4\n"
        f"epochs = 1\n[train]\nk = 2\nepochs = 1\nloss_u = sliced-wasserstein\n"
        f"[run]\nout_dir = {tmp_path / 'one'}\nexplainer_hidden = 4\napprox_hidden = 4\n")
    return str(tmp_path / "one.cfg")


def test_one_class_dataset_exits_2_naming_the_class(tmp_path, capsys):
    """A model fit on labels that are all 0 has one output: the relativistic
    flip divided by c - 1 = 0 (exit 3) and the sliced-Wasserstein loss
    trained a meaningless explainer (exit 0)."""
    assert main(["train", "--config", write_one_class_run(tmp_path)]) == EXIT_CONFIG
    assert "labels are [0]" in capsys.readouterr().err
    assert not (tmp_path / "one" / "checkpoint.bin").exists()


def test_one_output_model_exits_4(tmp_path, capsys, monkeypatch):
    """Model outputs with c = 1 are rejected where outputs are checked."""
    monkeypatch.setattr("meed.cli.build_model", lambda cfg, train_set: MlpModel(
        Mlp(train_set.d, (4, 1), rng=np.random.default_rng(0))))
    assert main(["train", "--config", write_one_class_run(tmp_path)]) == EXIT_SHAPE
    assert "c >= 2" in capsys.readouterr().err
    assert not (tmp_path / "one" / "checkpoint.bin").exists()


def test_corrupt_checkpoint_exits_2(tmp_path):
    data_path = str(tmp_path / "data.txt")
    export_dataset(generate_synthetic(SyntheticSpec(d=6, true_subset=(0, 1), n=8,
                                                    noise_std=0.1, kind="sparse-logit",
                                                    seed=12))[0], None, data_path)
    for blob in (b"garbage", CHECKPOINT_MAGIC + b"\x01\x00"):
        bad = tmp_path / "checkpoint.bin"
        bad.write_bytes(blob)
        assert main(["explain", "--checkpoint", str(bad), "--data", data_path]) == EXIT_CONFIG


def test_synth_bad_true_subset_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(CONFIG.format(out=tmp_path / "out").replace("d = 6", "d = 4")
                   .replace("true_subset = 0,1", "true_subset = 0,9"))
    assert main(["synth", "--config", str(cfg)]) == EXIT_CONFIG


@pytest.mark.parametrize("key, value", [("retrain_budget", "abc"),
                                        ("explainer_hidden", "8,x"),
                                        ("approx_hidden", "wide")])
def test_bad_run_value_exits_2(tmp_path, capsys, key, value):
    cfg = tmp_path / "bad.cfg"
    lines = CONFIG.format(out=tmp_path / "out").splitlines()
    cfg.write_text("\n".join(f"{key} = {value}" if line.startswith(f"{key} =") else line
                             for line in lines))
    assert main(["train", "--config", str(cfg)]) == EXIT_CONFIG
    assert key in capsys.readouterr().err


def test_dataset_file_with_a_missing_label_exits_2(tmp_path, capsys):
    """A row with an empty label in a labelled file is an error, not the last class."""
    data_path = tmp_path / "data.txt"
    export_dataset(generate_synthetic(SyntheticSpec(d=6, true_subset=(0, 1), n=40,
                                                    noise_std=0.1, kind="sparse-logit",
                                                    seed=12))[0], None, str(data_path))
    lines = data_path.read_text().splitlines()
    lines[5] = lines[5].rsplit(",", 1)[0] + ","
    data_path.write_text("\n".join(lines) + "\n")
    cfg = tmp_path / "file.cfg"
    cfg.write_text(f"[data]\nkind = file\npath = {data_path}\n"
                   f"[train]\nk = 2\nepochs = 1\n[run]\nout_dir = {tmp_path / 'out'}\n")
    assert main(["train", "--config", str(cfg)]) == EXIT_CONFIG
    assert f"{data_path}:6" in capsys.readouterr().err


def test_malformed_idx_file_exits_2(tmp_path):
    for name in ("images", "labels"):
        (tmp_path / name).write_bytes(b"\x00\x00")
    cfg = tmp_path / "idx.cfg"
    cfg.write_text(f"[data]\nkind = idx\nimages_path = {tmp_path / 'images'}\n"
                   f"labels_path = {tmp_path / 'labels'}\nclass_pair = 3,8\n"
                   "[train]\nk = 2\nepochs = 1\n")
    assert main(["train", "--config", str(cfg)]) == EXIT_CONFIG


def test_non_finite_output_on_perturbed_row_exits_4(tmp_path, capsys, monkeypatch):
    """A black box answering NaN for one perturbed copy of row 0 under a `grad` prior."""
    class NanOnPerturbedRow:
        def __init__(self, model, row):
            self.net = model.net
            self.bad = row.copy()
            self.bad[0] += FD_STEP

        def evaluate(self, x):
            out = self.net.predict(np.atleast_2d(x))
            out[np.all(np.atleast_2d(x) == self.bad, axis=1)] = np.nan
            return out

        def randomize(self, rng):
            pass

    monkeypatch.setattr("meed.cli.build_model", lambda cfg, train_set: NanOnPerturbedRow(
        build_model(cfg, train_set), train_set.X[0]))
    cfg = tmp_path / "prior.cfg"
    cfg.write_text(CONFIG.format(out=tmp_path / "out")
                   .replace("batch_size = 32", "batch_size = 32\nprior_method = grad"))
    assert main(["train", "--config", str(cfg)]) == EXIT_SHAPE
    assert "perturbed copies of row 0" in capsys.readouterr().err


def test_parse_rejects_stray_lines(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("key = value\n")  # no section header
    with pytest.raises(ConfigError):
        parse_config_file(str(bad))


def test_missing_config_exits_2():
    assert main(["train", "--config", "/nonexistent.cfg"]) == EXIT_CONFIG


def test_bad_config_value_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[data]\nkind = sparse-logit\nd = six\n")
    assert main(["train", "--config", str(cfg)]) == EXIT_CONFIG


def test_config_that_is_not_utf8_exits_2_naming_the_path(tmp_path, capsys):
    """A byte that is not UTF-8 ended in a UnicodeDecodeError traceback."""
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"[train]\nk = \xff\n")
    assert main(["train", "--config", str(cfg)]) == EXIT_CONFIG
    assert f"{cfg}: not UTF-8 text" in capsys.readouterr().err


@pytest.fixture(scope="module")
def readme_config(tmp_path_factory):
    block = open(README, encoding="utf-8").read().split("```ini\n", 1)[1].split("```", 1)[0]
    return block.encode("utf-8"), str(tmp_path_factory.mktemp("fuzz") / "damaged.cfg")


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_damaged_readme_config_raises_config_error_or_parses(readme_config, data):
    """One to three bytes of README's config replaced by any byte: the reader
    either raises ConfigError or returns its sections."""
    blob, path = readme_config
    damaged = bytearray(blob)
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        damaged[data.draw(st.integers(0, len(blob) - 1), label="at")] = data.draw(
            st.integers(0, 255), label="byte")
    with open(path, "wb") as fh:
        fh.write(damaged)
    try:
        cfg = parse_config_file(path)
    except ConfigError:
        return
    assert {"model", "run"} <= set(cfg)


def test_synth_writes_dataset(run_dir):
    config_path, out = run_dir
    assert main(["synth", "--config", config_path]) == EXIT_OK
    assert os.path.exists(os.path.join(out, "dataset.txt"))


@pytest.fixture
def trained_dir(run_dir):
    config_path, out = run_dir
    assert main(["train", "--config", config_path]) == EXIT_OK
    return config_path, out


def test_train_writes_model_checkpoint_and_log(trained_dir):
    _, out = trained_dir
    for name in ("model.bin", "checkpoint.bin", "train.log"):
        assert os.path.exists(os.path.join(out, name))


def test_explain_writes_records(trained_dir, tmp_path):
    config_path, out = trained_dir
    spec = SyntheticSpec(d=6, true_subset=(0, 1), n=20, noise_std=0.1,
                         kind="sparse-logit", seed=12)
    ds, subset = generate_synthetic(spec)
    data_path = str(tmp_path / "explain_me.txt")
    export_dataset(ds, subset, data_path)
    out_path = str(tmp_path / "explanations.txt")
    code = main(["explain", "--checkpoint", os.path.join(out, "checkpoint.bin"),
                 "--data", data_path, "--out", out_path])
    assert code == EXIT_OK
    lines = open(out_path).read().strip().splitlines()
    assert len(lines) == 20
    for line in lines:
        assert line.startswith("id=") and "selected=" in line and "scores=" in line
        selected = line.split("selected=")[1].split(" ")[0].split(";")
        assert len(selected) == 2


def test_explain_on_readme_example_matches_a_per_row_hard_topk_reference(tmp_path):
    """The batched selection writes the same bytes as one `hard_topk` per row,
    and a k outside 1..d exits 2 before the output file is opened."""
    block = open(README, encoding="utf-8").read().split("```ini\n", 1)[1].split("```", 1)[0]
    out = tmp_path / "demo"
    config = tmp_path / "run.cfg"
    config.write_text(block.replace("out_dir = out/demo", f"out_dir = {out}"))
    assert main(["synth", "--config", str(config)]) == EXIT_OK
    assert main(["train", "--config", str(config)]) == EXIT_OK
    ckpt, data_path = str(out / "checkpoint.bin"), str(out / "dataset.txt")
    written = tmp_path / "explanations.txt"
    assert main(["explain", "--checkpoint", ckpt, "--data", data_path,
                 "--out", str(written)]) == EXIT_OK

    checkpoint = load_checkpoint(ckpt)
    explainer, _ = nets_from_checkpoint(checkpoint)
    ds, _ = import_dataset(data_path)
    z = explainer.score(ds.X, load_model(str(out / "model.bin")).evaluate(ds.X))
    reference = ""
    for i in range(len(ds)):
        sel = hard_topk(z[i], checkpoint.config.k).indices
        reference += (f"id={ds.ids[i]} selected={';'.join(str(j) for j in sel)} "
                      f"scores={';'.join(f'{z[i][j]:.4f}' for j in sel)}\n")
    assert written.read_bytes() == reference.encode("utf-8")

    for k in ("0", str(ds.d + 1)):
        bad = tmp_path / f"k{k}.txt"
        assert main(["explain", "--checkpoint", ckpt, "--data", data_path, "--k", k,
                     "--out", str(bad)]) == EXIT_CONFIG
        assert not bad.exists()


def test_explain_malformed_data_exits_2(trained_dir, tmp_path, capsys):
    _, out = trained_dir
    data_path = tmp_path / "ragged.txt"
    data_path.write_text("#trueSubset=0;1\na,1,2,3,4,5,6,1\nb,1,2,3,1\n")
    code = main(["explain", "--checkpoint", os.path.join(out, "checkpoint.bin"),
                 "--data", str(data_path)])
    assert code == EXIT_CONFIG
    assert f"{data_path}:3" in capsys.readouterr().err


def test_old_or_corrupt_files_exit_2(trained_dir, tmp_path, capsys):
    """A version-1 checkpoint, checkpoints whose parameters do not fit their
    architecture and a corrupt model.bin fail explain and evaluate with exit 2."""
    config_path, out = trained_dir
    data_path = str(tmp_path / "data.txt")
    export_dataset(generate_synthetic(SyntheticSpec(d=6, true_subset=(0, 1), n=8,
                                                    noise_std=0.1, kind="sparse-logit",
                                                    seed=12))[0], None, data_path)
    checkpoint = os.path.join(out, "checkpoint.bin")
    blob = open(checkpoint, "rb").read()
    old = tmp_path / "old" / "checkpoint.bin"
    old.parent.mkdir()
    old.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", 1) + blob[12:])
    header_len = struct.unpack_from("<Q", blob, 12)[0]
    header = json.loads(blob[20:20 + header_len])
    header["meta"]["explainer_hidden"] = [9]  # parameters no longer fit
    head = json.dumps(header).encode()
    misfit = tmp_path / "misfit" / "checkpoint.bin"
    misfit.parent.mkdir()
    misfit.write_bytes(blob[:12] + struct.pack("<Q", len(head)) + head
                       + blob[20 + header_len:])
    # A checkpoint from a release that still had a fusion option, whose
    # explainer read x alone while use_output_feedback was on.
    ckpt = load_checkpoint(checkpoint)
    x_only = Mlp(6, (8, 6)).n_params
    no_feedback = tmp_path / "no-feedback" / "checkpoint.bin"
    no_feedback.parent.mkdir()
    save_checkpoint(dataclasses.replace(
        ckpt, meta={**ckpt.meta, "fusion": "none"}, explainer_params=np.zeros(x_only),
        optimizer_states={**ckpt.optimizer_states, "explainer": Adam(1e-3, x_only).get_state()}),
        str(no_feedback))
    model_bin = os.path.join(out, "model.bin")
    with open(model_bin, "r+b") as fh:
        fh.truncate(14)
    for ckpt in (str(old), str(misfit), str(no_feedback), checkpoint):
        assert main(["explain", "--checkpoint", ckpt, "--data", data_path]) == EXIT_CONFIG
        assert main(["evaluate", "--config", config_path, "--checkpoint", ckpt]) == EXIT_CONFIG
        # Each damaged checkpoint fails before the corrupt model.bin is read.
        assert ("model.bin" in capsys.readouterr().err) == (ckpt == checkpoint)


def test_explain_rejects_a_model_file_layer_list_save_model_does_not_write(trained_dir,
                                                                          tmp_path, capsys):
    _, out = trained_dir
    data_path = str(tmp_path / "data.txt")
    export_dataset(generate_synthetic(SyntheticSpec(d=6, true_subset=(0, 1), n=8,
                                                    kind="sparse-logit", seed=12))[0],
                   None, data_path)
    model_path = str(tmp_path / "model.bin")
    for layers, n_params in BAD_LAYER_LISTS:
        write_record(model_path, MODEL_MAGIC, MODEL_VERSION, {"in_dim": 3, "layers": layers},
                     {"params": np.zeros(n_params)})
        assert main(["explain", "--checkpoint", os.path.join(out, "checkpoint.bin"),
                     "--data", data_path, "--model", model_path]) == EXIT_CONFIG
        assert "model.bin: bad model header" in capsys.readouterr().err


def test_explain_rejects_a_model_file_with_in_dim_0_with_exit_2(trained_dir, tmp_path, capsys):
    """A bias-only net used to load, then fail on the data's rows as a shape error (exit 4)."""
    _, out = trained_dir
    data_path = str(tmp_path / "data.txt")
    export_dataset(generate_synthetic(SyntheticSpec(d=6, true_subset=(0, 1), n=8,
                                                    kind="sparse-logit", seed=12))[0],
                   None, data_path)
    model_path = str(tmp_path / "model.bin")
    write_record(model_path, MODEL_MAGIC, MODEL_VERSION,
                 {"in_dim": 0, "layers": [["dense", 2], ["softmax"]]}, {"params": np.zeros(2)})
    assert main(["explain", "--checkpoint", os.path.join(out, "checkpoint.bin"),
                 "--data", data_path, "--model", model_path]) == EXIT_CONFIG
    assert "model.bin: bad model header" in capsys.readouterr().err


def test_explain_rejects_non_finite_model_or_checkpoint_vectors_with_exit_2(trained_dir,
                                                                           tmp_path, capsys):
    """A NaN parameter in model.bin or checkpoint.bin used to give scores=nan rows."""
    _, out = trained_dir
    data_path = str(tmp_path / "data.txt")
    export_dataset(generate_synthetic(SyntheticSpec(d=6, true_subset=(0, 1), n=8,
                                                    kind="sparse-logit", seed=12))[0],
                   None, data_path)
    for name in ("model.bin", "checkpoint.bin"):
        path = os.path.join(out, name)
        good = open(path, "rb").read()
        bad = bytearray(good)
        struct.pack_into("<d", bad, record_sections(good)[1] + 16, float("nan"))
        open(path, "wb").write(bytes(bad))
        capsys.readouterr()
        assert main(["explain", "--checkpoint", os.path.join(out, "checkpoint.bin"),
                     "--data", data_path, "--out", str(tmp_path / "expl.txt")]) == EXIT_CONFIG
        assert f"{name}: vector" in capsys.readouterr().err
        open(path, "wb").write(good)


def test_explain_rejects_non_finite_model_outputs_with_exit_4(trained_dir, tmp_path, capsys,
                                                              monkeypatch):
    _, out = trained_dir
    monkeypatch.setattr("meed.cli.datamod.load_model",
                        lambda path: NanEveryThirdRow(load_model(path)))
    data_path = str(tmp_path / "data.txt")
    export_dataset(generate_synthetic(SyntheticSpec(d=6, true_subset=(0, 1), n=8,
                                                    kind="sparse-logit", seed=12))[0],
                   None, data_path)
    assert main(["explain", "--checkpoint", os.path.join(out, "checkpoint.bin"),
                 "--data", data_path, "--out", str(tmp_path / "expl.txt")]) == EXIT_SHAPE
    assert "probability simplex" in capsys.readouterr().err


def test_explain_shape_mismatch_exits_4(trained_dir, tmp_path):
    config_path, out = trained_dir
    spec = SyntheticSpec(d=9, true_subset=(0, 1), n=8, noise_std=0.1,
                         kind="sparse-logit", seed=12)
    ds, subset = generate_synthetic(spec)
    data_path = str(tmp_path / "wrong_width.txt")
    export_dataset(ds, subset, data_path)
    code = main(["explain", "--checkpoint", os.path.join(out, "checkpoint.bin"),
                 "--data", data_path])
    assert code == EXIT_SHAPE


def test_directory_paths_exit_2(trained_dir, tmp_path, capsys):
    """A directory given as --config, --checkpoint or --data exits 2 naming it."""
    config_path, out = trained_dir
    ckpt = os.path.join(out, "checkpoint.bin")
    data_path = str(tmp_path / "data.txt")
    export_dataset(generate_synthetic(SyntheticSpec(d=6, true_subset=(0, 1), n=8,
                                                    noise_std=0.1, kind="sparse-logit",
                                                    seed=12))[0], None, data_path)
    folder = str(tmp_path)
    for argv in (["train", "--config", folder],
                 ["evaluate", "--config", folder, "--checkpoint", ckpt],
                 ["evaluate", "--config", config_path, "--checkpoint", folder],
                 ["explain", "--checkpoint", folder, "--data", data_path],
                 ["explain", "--checkpoint", ckpt, "--data", folder]):
        capsys.readouterr()
        assert main(argv) == EXIT_CONFIG, argv
        assert folder in capsys.readouterr().err, argv


def test_evaluate_and_sanity_need_the_runs_model_file(trained_dir, tmp_path, capsys):
    """Without model.bin beside the checkpoint both exit 2 naming it; no model
    is retrained from the current config."""
    config_path, out = trained_dir
    alone = tmp_path / "alone"
    alone.mkdir()
    ckpt = alone / "checkpoint.bin"
    ckpt.write_bytes(open(os.path.join(out, "checkpoint.bin"), "rb").read())
    for command in ("evaluate", "sanity"):
        capsys.readouterr()
        assert main([command, "--config", config_path, "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / command)]) == EXIT_CONFIG
        assert str(alone / "model.bin") in capsys.readouterr().err
        assert not (tmp_path / command).exists()


def test_evaluate_and_sanity_shape_mismatch_exit_4(trained_dir, tmp_path):
    config_path, out = trained_dir
    wide = tmp_path / "wide.cfg"
    wide.write_text(open(config_path).read().replace("d = 6", "d = 9"))
    for command in ("evaluate", "sanity"):
        code = main([command, "--config", str(wide),
                     "--checkpoint", os.path.join(out, "checkpoint.bin")])
        assert code == EXIT_SHAPE


class NanEveryThirdRow:
    """A black box that answers NaN for every third row it is given."""

    def __init__(self, model):
        self.net = model.net

    def evaluate(self, x):
        out = self.net.predict(np.atleast_2d(x))
        out[::3] = np.nan
        return out

    def randomize(self, rng):
        pass


def test_evaluate_sanity_and_ablate_reject_non_finite_model_outputs_with_exit_4(
        trained_dir, capsys, monkeypatch):
    config_path, out = trained_dir
    monkeypatch.setattr("meed.cli.datamod.load_model",
                        lambda path: NanEveryThirdRow(load_model(path)))
    monkeypatch.setattr("meed.cli.build_model", lambda cfg, train_set: NanEveryThirdRow(
        build_model(cfg, train_set)))
    ckpt = os.path.join(out, "checkpoint.bin")
    for argv in (["evaluate", "--checkpoint", ckpt], ["sanity", "--checkpoint", ckpt],
                 ["ablate"]):
        capsys.readouterr()
        assert main(argv + ["--config", config_path]) == EXIT_SHAPE, argv
        assert "probability simplex" in capsys.readouterr().err


def test_seed_option_only_on_commands_without_a_checkpoint(trained_dir, tmp_path, capsys):
    """explain, evaluate and sanity use the checkpoint's seed and reject --seed;
    synth keeps it."""
    config_path, out = trained_dir
    code = main(["synth", "--config", config_path, "--seed", "3", "--out", str(tmp_path)])
    assert code == EXIT_OK
    ckpt = os.path.join(out, "checkpoint.bin")
    for argv in (["explain", "--checkpoint", ckpt, "--data", str(tmp_path / "dataset.txt")],
                 ["evaluate", "--config", config_path, "--checkpoint", ckpt],
                 ["sanity", "--config", config_path, "--checkpoint", ckpt]):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "3"])
        assert exc.value.code == EXIT_CONFIG
        assert "--seed" in capsys.readouterr().err


def test_empty_test_split_exits_2(tmp_path, capsys):
    """At n=12 and data seed 0 the hash split leaves 10/2/0 rows: train runs,
    while evaluate, sanity and ablate stop with exit 2 naming the empty set."""
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(CONFIG.format(out=tmp_path / "out").replace("d = 6", "d = 4")
                   .replace("n = 800", "n = 12").replace("seed = 11", "seed = 0"))
    assert [len(split) for split in build_dataset(parse_config_file(str(cfg)))[:3]] == [10, 2, 0]
    assert main(["train", "--config", str(cfg)]) == EXIT_OK
    ckpt = str(tmp_path / "out" / "checkpoint.bin")
    for argv in (["evaluate", "--checkpoint", ckpt], ["sanity", "--checkpoint", ckpt],
                 ["ablate"]):
        capsys.readouterr()
        assert main(argv + ["--config", str(cfg)]) == EXIT_CONFIG
        assert "the evaluation set is empty" in capsys.readouterr().err


def test_empty_training_split_exits_2(tmp_path, capsys):
    """A dataset file whose every id hashes into the test split, against a
    run trained on another file: evaluate and sanity name the empty set."""
    write_labelled_and_unlabelled_runs(tmp_path)
    assert main(["train", "--config", str(tmp_path / "labelled.cfg")]) == EXIT_OK
    cfg = parse_config_file(str(tmp_path / "labelled.cfg"))
    _, _, test_set, _ = build_dataset(cfg)
    export_dataset(test_set, None, str(tmp_path / "test-only.txt"))
    (tmp_path / "test-only.cfg").write_text(
        (tmp_path / "labelled.cfg").read_text().replace("labelled.txt", "test-only.txt"))
    assert [len(split) for split in build_dataset(
        parse_config_file(str(tmp_path / "test-only.cfg")))[:3]] == [0, 0, len(test_set)]
    for command in ("evaluate", "sanity"):
        capsys.readouterr()
        assert main([command, "--config", str(tmp_path / "test-only.cfg"), "--checkpoint",
                     str(tmp_path / "labelled" / "checkpoint.bin")]) == EXIT_CONFIG
        assert "the training set is empty" in capsys.readouterr().err


def test_sanity_writes_the_same_bounded_scores_twice(trained_dir, tmp_path):
    """Data randomization permutes the true labels and retrains the model and
    the explainer, all from the checkpoint's seed: two runs write the same bytes."""
    config_path, out = trained_dir
    ckpt = os.path.join(out, "checkpoint.bin")
    texts = []
    for name in ("first", "second"):
        assert main(["sanity", "--config", config_path, "--checkpoint", ckpt,
                     "--out", str(tmp_path / name)]) == EXIT_OK
        texts.append((tmp_path / name / "sanity.txt").read_bytes())
    assert texts[0] == texts[1]
    scores = dict(line.split("=") for line in texts[0].decode().split())
    assert set(scores) == {"SANITY-MODEL", "SANITY-DATA"}
    assert 0.0 <= float(scores["SANITY-DATA"]) <= 100.0


def test_evaluate_and_sanity_print_the_same_sanity_model_score(trained_dir, tmp_path, capsys):
    """Both commands randomize the model from the checkpoint seed's "sanity"
    stream, so one checkpoint gives one SANITY-MODEL line."""
    config_path, out = trained_dir
    ckpt, lines = os.path.join(out, "checkpoint.bin"), []
    for command in ("evaluate", "sanity"):
        capsys.readouterr()
        assert main([command, "--config", config_path, "--checkpoint", ckpt,
                     "--out", str(tmp_path / command)]) == EXIT_OK
        lines.append([line for line in capsys.readouterr().out.splitlines()
                      if line.startswith("SANITY-MODEL=")])
    assert len(lines[0]) == 1 and lines[0] == lines[1]


def test_evaluate_writes_parseable_report(trained_dir):
    config_path, out = trained_dir
    code = main(["evaluate", "--config", config_path,
                 "--checkpoint", os.path.join(out, "checkpoint.bin")])
    assert code == EXIT_OK
    report = MetricsReport.parse(open(os.path.join(out, "report.txt")).read())
    assert 0.0 <= report.fs_m <= 100.0
    assert report.k == 2


def test_identical_seeds_give_identical_reports(trained_dir, tmp_path):
    config_path, out = trained_dir
    ckpt = os.path.join(out, "checkpoint.bin")
    main(["evaluate", "--config", config_path, "--checkpoint", ckpt])
    first = open(os.path.join(out, "report.txt")).read()
    other = str(tmp_path / "out2")
    main(["evaluate", "--config", config_path, "--checkpoint", ckpt, "--out", other])
    second = open(os.path.join(other, "report.txt")).read()
    a = MetricsReport.parse(first)
    b = MetricsReport.parse(second)
    for field in ("fs_m", "fu_m", "fs_a", "fu_a", "sen", "sanity_model"):
        assert getattr(a, field) == getattr(b, field)
