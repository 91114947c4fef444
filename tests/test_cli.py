"""Command-line pipeline: config parsing, exit codes and artifacts."""

import dataclasses
import json
import os
import struct

import numpy as np
import pytest

from meed.cli import (EXIT_CONFIG, EXIT_OK, EXIT_SHAPE, ConfigFileError, build_dataset,
                      build_model, build_train_config, main, parse_config_file)
from meed.baselines import FD_STEP
from meed.core import Mlp, TrainConfig, classifier_layers
from meed.data import SyntheticSpec, export_dataset, generate_synthetic
from meed.metrics import MetricsReport
from meed.trainer import (CHECKPOINT_MAGIC, Adam, Checkpoint, load_checkpoint,
                          save_checkpoint)

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
    assert cfg["data"]["kind"] == "sparse-logit"
    assert cfg["train"]["k"] == "2"
    tc = build_train_config(cfg)
    assert tc.k == 2 and tc.epochs == 3 and tc.batch_size == 32


def test_readme_config_example_parses(tmp_path):
    block = open(README, encoding="utf-8").read().split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.cfg"
    path.write_text(block)
    cfg = parse_config_file(str(path))
    assert cfg["model"]["hidden"] == "16"
    train_set, _, _, subset = build_dataset(cfg)
    assert train_set.d == 6 and subset.indices == (0, 1)
    tc = build_train_config(cfg)
    assert (tc.k, tc.epochs, tc.seed, tc.batch_size) == (2, 25, 1, 32)
    assert (tc.lambda_u, tc.learning_rate) == (0.2, 2e-3)


# One value per TrainConfig field, each different from the field's default.
NON_DEFAULT = {"k": 3, "epochs": 5, "seed": 11, "tau": 0.25, "lambda_u": 0.5,
               "lambda_e": 0.125, "batch_size": 7, "optimizer": "rmsprop",
               "learning_rate": 0.003, "decay": 0.01, "loss_u": "sliced-wasserstein",
               "use_output_feedback": False, "prior_method": "grad", "n_projections": 9}


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
    with pytest.raises(ConfigFileError, match="batch_sise"):
        build_train_config(parse_config_file(str(cfg)))
    assert main(["train", "--config", str(cfg)]) == EXIT_CONFIG


@pytest.mark.parametrize("old, new, name", [
    ("noise_std = 0.1", "noise_sdt = 0.1", "noise_sdt"),
    ("hidden = 8", "hiden = 8", "hiden"),
    ("retrain_budget = 3", "retrain_budgt = 3", "retrain_budgt"),
    ("retrain_budget = 3", "retrain_budget = 3\nfusion = concat-embedded", "fusion"),
    ("[run]", "[rnu]", "[rnu]"),
    # [data] keys depend on the kind: a synthetic key is unknown to kind = file.
    ("kind = sparse-logit", "kind = file\npath = data.txt", "true_subset")])
def test_unknown_config_key_or_section_exits_2(tmp_path, capsys, old, new, name):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(CONFIG.format(out=tmp_path / "out").replace(old, new))
    for command in ("synth", "train"):
        assert main([command, "--config", str(cfg)]) == EXIT_CONFIG
        assert name in capsys.readouterr().err


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
    with pytest.raises(ConfigFileError):
        parse_config_file(str(bad))


def test_missing_config_exits_2():
    assert main(["train", "--config", "/nonexistent.cfg"]) == EXIT_CONFIG


def test_bad_config_value_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[data]\nkind = sparse-logit\nd = six\n")
    assert main(["train", "--config", str(cfg)]) == EXIT_CONFIG


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
    x_only = Mlp(6, classifier_layers((8,), 6)).n_params
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


def test_evaluate_and_sanity_shape_mismatch_exit_4(trained_dir, tmp_path):
    config_path, out = trained_dir
    wide = tmp_path / "wide.cfg"
    wide.write_text(open(config_path).read().replace("d = 6", "d = 9"))
    for command in ("evaluate", "sanity"):
        code = main([command, "--config", str(wide),
                     "--checkpoint", os.path.join(out, "checkpoint.bin")])
        assert code == EXIT_SHAPE


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
