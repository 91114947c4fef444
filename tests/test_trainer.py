"""Alternating trainer, optimizers, checkpoint format and resume."""

import copy
import dataclasses
import json
import logging
import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meed.core import ConfigError, Mlp, ShapeError, TrainConfig, classifier_layers, named_rng
from meed.approximators import make_pair
from meed.baselines import FD_STEP
from meed.data import Dataset, MlpModel
from meed.explainer import ExplainerNet
from meed.sampler import sample_gumbel_batch
from meed.trainer import (CHECKPOINT_MAGIC, Checkpoint, CheckpointError,
                          TrainingAbort, approximator_step, explainer_step,
                          load_checkpoint, make_optimizer, nets_from_checkpoint,
                          save_checkpoint, train)
from tests.conftest import damage_record, record_sections


def small_problem(seed=0, n=48, d=6, c=2):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    logits = np.stack([x[:, 0] + x[:, 1], -(x[:, 0] + x[:, 1])], axis=1)
    y = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    return x, y


class FixedModel:
    """Deterministic stand-in model computed from the first two features."""

    def evaluate(self, x):
        x = np.atleast_2d(x)
        logits = np.stack([x[:, 0] + x[:, 1], -(x[:, 0] + x[:, 1])], axis=1)
        return np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)

    def randomize(self, rng):
        pass


def make_dataset(n=48, d=6, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    return Dataset(ids=[str(i) for i in range(n)], X=x)


@pytest.mark.parametrize("name", ["sgd", "rmsprop", "adadelta", "adam"])
def test_optimizers_descend_a_quadratic(name):
    config = TrainConfig(k=1, epochs=1, seed=0, optimizer=name,
                         learning_rate=0.05 if name != "adadelta" else 1.0)
    opt = make_optimizer(config, 3)
    params = np.array([2.0, -3.0, 1.0])
    # Adadelta's unitless updates start near sqrt(eps), so it needs more steps.
    for _ in range(5000 if name == "adadelta" else 300):
        opt.step(params, 2.0 * params)
    assert np.linalg.norm(params) < 0.2


def test_optimizer_state_round_trip():
    keys = {"sgd": {"t"}, "rmsprop": {"t", "avg"}, "adadelta": {"t", "acc_g", "acc_d"},
            "adam": {"t", "m", "v"}}
    for name, state_keys in keys.items():
        config = TrainConfig(k=1, epochs=1, seed=0, optimizer=name, decay=0.1)
        opt = make_optimizer(config, 4)
        params = np.ones(4)
        for _ in range(5):
            opt.step(params, params * 0.3)
        assert set(opt.get_state()) == state_keys
        twin = make_optimizer(config, 4)
        twin.set_state(copy.deepcopy(opt.get_state()))
        p1, p2 = params.copy(), params.copy()
        opt.step(p1, p1 * 0.3)
        twin.step(p2, p2 * 0.3)
        assert np.array_equal(p1, p2)


def step_inputs(config, seed=0):
    x, y = small_problem(seed)
    rng = named_rng(seed, "gumbel")
    xi = sample_gumbel_batch(len(x), x.shape[1], config.k, rng)
    init = named_rng(seed, "init")
    explainer = ExplainerNet(6, 2, hidden=(8,), rng=init)
    pair = make_pair(6, 2, (8,), init)
    opts = {"e": make_optimizer(config, explainer.n_params),
            "s": make_optimizer(config, pair.a_selected.n_params),
            "u": make_optimizer(config, pair.a_unselected.n_params)}
    return x, y, xi, explainer, pair, opts


def test_approximator_step_freezes_explainer():
    config = TrainConfig(k=2, epochs=1, seed=0)
    x, y, xi, explainer, pair, opts = step_inputs(config)
    before_e = explainer.parameters.copy()
    before_s = pair.a_selected.parameters.copy()
    before_u = pair.a_unselected.parameters.copy()
    approximator_step(pair, explainer, x, y, config, xi, opts["s"], opts["u"],
                      prior_r=None, m=0, sw_thetas=None, batch_id="t")
    assert np.array_equal(explainer.parameters, before_e)
    assert not np.array_equal(pair.a_selected.parameters, before_s)
    assert not np.array_equal(pair.a_unselected.parameters, before_u)


def test_explainer_step_freezes_approximators():
    config = TrainConfig(k=2, epochs=1, seed=0)
    x, y, xi, explainer, pair, opts = step_inputs(config)
    before_e = explainer.parameters.copy()
    before_s = pair.a_selected.parameters.copy()
    before_u = pair.a_unselected.parameters.copy()
    explainer_step(explainer, pair, x, y, config, xi, opts["e"],
                   prior_r=None, m=0, sw_thetas=None, batch_id="t")
    assert not np.array_equal(explainer.parameters, before_e)
    assert np.array_equal(pair.a_selected.parameters, before_s)
    assert np.array_equal(pair.a_unselected.parameters, before_u)


def test_non_finite_input_aborts_training():
    config = TrainConfig(k=2, epochs=1, seed=0)
    x, y, xi, explainer, pair, opts = step_inputs(config)
    x = x.copy()
    x[0, 0] = np.nan
    with pytest.raises(TrainingAbort):
        approximator_step(pair, explainer, x, y, config, xi, opts["s"], opts["u"],
                          prior_r=None, m=0, sw_thetas=None, batch_id="t")


def test_train_is_deterministic_per_seed():
    ds = make_dataset()
    config = TrainConfig(k=2, epochs=2, seed=5, batch_size=16)
    e1, p1, c1 = train(ds, FixedModel(), config, explainer_hidden=(8,), approx_hidden=(8,))
    e2, p2, c2 = train(ds, FixedModel(), config, explainer_hidden=(8,), approx_hidden=(8,))
    assert np.array_equal(e1.parameters, e2.parameters)
    assert np.array_equal(p1.a_selected.parameters, p2.a_selected.parameters)
    other = train(ds, FixedModel(),
                  TrainConfig(k=2, epochs=2, seed=6, batch_size=16),
                  explainer_hidden=(8,), approx_hidden=(8,))[0]
    assert not np.array_equal(e1.parameters, other.parameters)


def test_train_rejects_empty_or_oversized_k():
    config = TrainConfig(k=9, epochs=1, seed=0)
    with pytest.raises(ConfigError):
        train(make_dataset(d=6), FixedModel(), config)
    empty = Dataset(ids=[], X=np.zeros((0, 6)))
    with pytest.raises(ConfigError):
        train(empty, FixedModel(), TrainConfig(k=2, epochs=1, seed=0))


def test_train_rejects_invalid_model_outputs():
    ds = make_dataset()
    config = TrainConfig(k=2, epochs=1, seed=0)
    good = FixedModel().evaluate(ds.X)
    nan_row, inf_row = good.copy(), good.copy()
    nan_row[3, 0] = np.nan
    inf_row[3, 0] = np.inf
    for y in (np.full_like(good, 0.9), nan_row, inf_row, good[:-1], good.ravel()):
        with pytest.raises(ShapeError):
            train(Dataset(ids=ds.ids, X=ds.X, Y=y), FixedModel(), config)

    class OffSimplexModel(FixedModel):
        def evaluate(self, x):
            return np.full((len(x), 2), 0.9)

    with pytest.raises(ShapeError):
        train(ds, OffSimplexModel(), config)


@pytest.mark.parametrize("outputs_supplied", [False, True])
def test_train_rejects_non_finite_features(outputs_supplied):
    """A NaN feature is reported as the data's fault before any model call,
    whether train() computes the model outputs or they come with a prior."""
    ds = make_dataset(n=16, d=4)
    model = MlpModel(Mlp(4, classifier_layers((8,), 2), rng=np.random.default_rng(0)))
    y = model.evaluate(ds.X) if outputs_supplied else None
    ds.X[3, 1] = np.nan
    config = TrainConfig(k=2, epochs=1, prior_method="grad" if outputs_supplied else "none")
    with pytest.raises(ShapeError, match="features must be finite.*row 3 column 1"):
        train(Dataset(ids=ds.ids, X=ds.X, Y=y), model, config)


@pytest.mark.parametrize("shape", [(6,), (2, 3, 2)])
def test_train_rejects_features_that_are_not_rows(shape):
    ds = Dataset(ids=[str(i) for i in range(shape[0])], X=np.zeros(shape))
    with pytest.raises(ShapeError, match=r"\(n, d\) array"):
        train(ds, FixedModel(), TrainConfig(k=1, epochs=1))


def same_state(a, b) -> bool:
    """Equality of nested dicts whose leaves may be numpy arrays."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(same_state(a[k], b[k])
                                                                   for k in a)
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    return type(a) is type(b) and a == b


def same_checkpoint(a: Checkpoint, b: Checkpoint) -> bool:
    return (a.config == b.config and a.meta == b.meta and a.epoch_counter == b.epoch_counter
            and same_state(a.rng_states, b.rng_states)
            and same_state(a.optimizer_states, b.optimizer_states)
            and all(np.array_equal(getattr(a, f), getattr(b, f))
                    for f in ("explainer_params", "a_selected_params", "a_unselected_params")))


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    """(file bytes, loaded checkpoint, scratch path) of a small trained run."""
    config = TrainConfig(k=2, epochs=1, seed=3, batch_size=16)
    _, _, ckpt = train(make_dataset(), FixedModel(), config, explainer_hidden=(8,),
                       approx_hidden=(8,))
    path = str(tmp_path_factory.mktemp("ckpt") / "ckpt.bin")
    save_checkpoint(ckpt, path)
    return open(path, "rb").read(), load_checkpoint(path), path + ".corrupt"


def load_bytes(blob: bytes, path: str) -> Checkpoint:
    with open(path, "wb") as fh:
        fh.write(blob)
    return load_checkpoint(path)


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    ds = make_dataset()
    config = TrainConfig(k=2, epochs=1, seed=3, batch_size=16)
    _, _, ckpt = train(ds, FixedModel(), config, explainer_hidden=(8,),
                       approx_hidden=(8,))
    path = os.path.join(tmp_path, "ckpt.bin")
    save_checkpoint(ckpt, path)
    blob = open(path, "rb").read()
    assert blob.startswith(CHECKPOINT_MAGIC)
    loaded = load_checkpoint(path)
    assert loaded.config == ckpt.config
    assert loaded.meta == ckpt.meta
    assert loaded.epoch_counter == ckpt.epoch_counter
    assert np.array_equal(loaded.explainer_params, ckpt.explainer_params)
    assert np.array_equal(loaded.a_selected_params, ckpt.a_selected_params)
    assert np.array_equal(loaded.a_unselected_params, ckpt.a_unselected_params)
    assert same_state(loaded.rng_states, ckpt.rng_states)
    assert same_state(loaded.optimizer_states, ckpt.optimizer_states)
    second = os.path.join(tmp_path, "again.bin")
    save_checkpoint(loaded, second)
    assert open(second, "rb").read() == blob


def test_checkpoint_rejects_corrupt_blob(saved_checkpoint):
    blob, _, path = saved_checkpoint
    config_at, vector_at = record_sections(blob)[:2]
    oversized = bytearray(blob)
    struct.pack_into("<Q", oversized, vector_at + 8, 2**40)
    non_utf8 = bytearray(blob)
    non_utf8[config_at + 8] = 0xFF
    partial = b"epoch_counter=1\n"
    incomplete = (blob[:config_at] + struct.pack("<Q", len(partial)) + partial
                  + blob[vector_at:])
    header = json.loads(blob[config_at + 8:vector_at])
    del header["optimizer_t"]
    partial = json.dumps(header, sort_keys=True).encode()
    no_optimizer_t = (blob[:config_at] + struct.pack("<Q", len(partial)) + partial
                      + blob[vector_at:])
    version_1 = CHECKPOINT_MAGIC + struct.pack("<I", 1) + blob[12:]
    for bad in (b"NOTMEED!" + b"\x00" * 32, blob[:10], bytes(oversized), bytes(non_utf8),
                incomplete, blob + b"\x00", blob + bytes(16), no_optimizer_t, version_1):
        with pytest.raises(CheckpointError):
            load_bytes(bad, path)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_damaged_checkpoint_fails_with_checkpoint_error_or_loads_identically(
        saved_checkpoint, data):
    blob, original, path = saved_checkpoint
    damaged = damage_record(blob, data)
    try:
        loaded = load_bytes(damaged, path)
    except CheckpointError:
        return
    assert same_checkpoint(loaded, original)


def test_resume_matches_uninterrupted_trajectory(tmp_path):
    ds = make_dataset()
    model = FixedModel()
    full_cfg = TrainConfig(k=2, epochs=4, seed=9, batch_size=16)
    e_full, p_full, _ = train(ds, model, full_cfg, explainer_hidden=(8,),
                              approx_hidden=(8,))

    half_cfg = TrainConfig(k=2, epochs=2, seed=9, batch_size=16)
    _, _, half_ckpt = train(ds, model, half_cfg, explainer_hidden=(8,),
                            approx_hidden=(8,))
    path = os.path.join(tmp_path, "half.bin")
    save_checkpoint(half_ckpt, path)
    reloaded = load_checkpoint(path)
    resumed = Checkpoint(config=full_cfg,
                         meta=reloaded.meta,
                         explainer_params=reloaded.explainer_params,
                         a_selected_params=reloaded.a_selected_params,
                         a_unselected_params=reloaded.a_unselected_params,
                         epoch_counter=reloaded.epoch_counter,
                         rng_states=reloaded.rng_states,
                         optimizer_states=reloaded.optimizer_states)
    e_res, p_res, _ = train(ds, model, full_cfg, explainer_hidden=(8,),
                            approx_hidden=(8,), resume=resumed)
    assert np.array_equal(e_full.parameters, e_res.parameters)
    assert np.array_equal(p_full.a_selected.parameters, p_res.a_selected.parameters)
    assert np.array_equal(p_full.a_unselected.parameters, p_res.a_unselected.parameters)


def test_resume_restores_every_optimizer(tmp_path):
    """Save, load and resume continue the uninterrupted run for each optimizer,
    sgd included, which has a step count but no slot vectors."""
    ds = make_dataset()
    kwargs = dict(explainer_hidden=(8,), approx_hidden=(8,))
    for name in ("sgd", "rmsprop", "adadelta"):
        full_cfg = TrainConfig(k=2, epochs=3, seed=5, batch_size=16, optimizer=name)
        e_full, p_full, _ = train(ds, FixedModel(), full_cfg, **kwargs)
        _, _, half = train(ds, FixedModel(), dataclasses.replace(full_cfg, epochs=1), **kwargs)
        path = os.path.join(tmp_path, f"{name}.bin")
        save_checkpoint(half, path)
        resumed = dataclasses.replace(load_checkpoint(path), config=full_cfg)
        e_res, p_res, _ = train(ds, FixedModel(), full_cfg, resume=resumed, **kwargs)
        assert np.array_equal(e_full.parameters, e_res.parameters), name
        assert np.array_equal(p_full.a_selected.parameters, p_res.a_selected.parameters), name
        assert np.array_equal(p_full.a_unselected.parameters, p_res.a_unselected.parameters), name


def test_resume_rejects_damaged_runtime_state(saved_checkpoint):
    _, ckpt, _ = saved_checkpoint
    opts = ckpt.optimizer_states
    short_slot = {**opts["explainer"], "m": opts["explainer"]["m"][:-1]}
    for bad in (dataclasses.replace(ckpt, rng_states={}),
                dataclasses.replace(ckpt, rng_states={**ckpt.rng_states,
                                                      "data": {"bit_generator": "PCG64"}}),
                dataclasses.replace(ckpt, optimizer_states={k: v for k, v in opts.items()
                                                            if k != "a_selected"}),
                dataclasses.replace(ckpt, optimizer_states={**opts, "explainer": short_slot})):
        with pytest.raises(CheckpointError):
            train(make_dataset(), FixedModel(), ckpt.config, explainer_hidden=(8,),
                  approx_hidden=(8,), resume=bad)


def test_resume_appends_to_train_log(tmp_path):
    ds = make_dataset()
    full_cfg = TrainConfig(k=2, epochs=4, seed=9, batch_size=16)
    kwargs = dict(explainer_hidden=(8,), approx_hidden=(8,), out_dir=str(tmp_path))
    _, _, half = train(ds, FixedModel(), dataclasses.replace(full_cfg, epochs=2), **kwargs)
    train(ds, FixedModel(), full_cfg, resume=dataclasses.replace(half, config=full_cfg),
          **kwargs)
    log = open(os.path.join(tmp_path, "train.log")).read().splitlines()
    assert [line.split()[0] for line in log] == ["epoch=0", "epoch=1", "epoch=2", "epoch=3"]


def test_resume_rejects_mismatched_architecture():
    ds = make_dataset()
    config = TrainConfig(k=2, epochs=1, seed=0, batch_size=16)
    _, _, ckpt = train(ds, FixedModel(), config, explainer_hidden=(8,),
                       approx_hidden=(8,))
    with pytest.raises(CheckpointError):
        train(ds, FixedModel(), config, explainer_hidden=(12,),
              approx_hidden=(8,), resume=ckpt)


def test_nets_from_checkpoint_reproduce_scores():
    ds = make_dataset()
    config = TrainConfig(k=2, epochs=1, seed=2, batch_size=16)
    explainer, pair, ckpt = train(ds, FixedModel(), config, explainer_hidden=(8,),
                                  approx_hidden=(8,))
    rebuilt_e, rebuilt_pair = nets_from_checkpoint(ckpt)
    x = ds.X[:5]
    y = FixedModel().evaluate(x)
    assert np.array_equal(explainer.score(x, y), rebuilt_e.score(x, y))
    assert np.array_equal(pair.a_selected.predict(x), rebuilt_pair.a_selected.predict(x))


def test_train_writes_log_and_checkpoint(tmp_path):
    ds = make_dataset()
    config = TrainConfig(k=2, epochs=2, seed=1, batch_size=16)
    lines = []
    train(ds, FixedModel(), config, explainer_hidden=(8,), approx_hidden=(8,),
          out_dir=str(tmp_path), log_lines=lines)
    assert os.path.exists(os.path.join(tmp_path, "checkpoint.bin"))
    log = open(os.path.join(tmp_path, "train.log")).read().strip().splitlines()
    assert len(log) == 2 and len(lines) == 2
    for line in log:
        assert line.startswith("epoch=")
        assert "L_s=" in line and "L_u=" in line and "L_e=" in line and "seconds=" in line


def test_explainer_step_with_lambda_zero_ignores_unselected():
    config_zero = TrainConfig(k=2, epochs=1, seed=0, lambda_u=0.0)
    x, y, xi, explainer, pair, opts = step_inputs(config_zero)
    explainer_step(explainer, pair, x, y, config_zero, xi, opts["e"],
                   prior_r=None, m=0, sw_thetas=None, batch_id="t")
    after_zero = explainer.parameters.copy()

    config_one = TrainConfig(k=2, epochs=1, seed=0, lambda_u=1.0)
    x, y, xi, explainer, pair, opts = step_inputs(config_one)
    explainer_step(explainer, pair, x, y, config_one, xi, opts["e"],
                   prior_r=None, m=0, sw_thetas=None, batch_id="t")
    assert not np.array_equal(after_zero, explainer.parameters)


def test_sliced_wasserstein_training_smoke():
    ds = make_dataset(n=32)
    config = TrainConfig(k=2, epochs=1, seed=0, batch_size=16,
                         loss_u="sliced-wasserstein", n_projections=16)
    explainer, _, _ = train(ds, FixedModel(), config, explainer_hidden=(8,),
                            approx_hidden=(8,))
    z = explainer.score(ds.X, FixedModel().evaluate(ds.X))
    assert np.allclose(z.sum(axis=1), 1.0)


# ---------------------------------------------------------------------------
# Training with a prior
# ---------------------------------------------------------------------------

class EvaluateOnly:
    """A model behind `evaluate` only, so the prior uses central differences."""

    def __init__(self, model):
        self.model = model

    def evaluate(self, x):
        return self.model.evaluate(x)

    def randomize(self, rng):
        self.model.randomize(rng)


def prior_model():
    return MlpModel(Mlp(6, classifier_layers((8,), 2), rng=np.random.default_rng(4)))


@pytest.mark.parametrize("wrap", [lambda m: m, EvaluateOnly], ids=["exact", "evaluate-only"])
def test_train_with_prior_is_finite_and_resumes_bit_exact(tmp_path, wrap):
    ds = make_dataset()
    model = wrap(prior_model())
    full_cfg = TrainConfig(k=2, epochs=2, seed=4, batch_size=16, lambda_e=1.0,
                           prior_method="gradient-times-input")
    kwargs = dict(explainer_hidden=(8,), approx_hidden=(8,))
    lines = []
    _, _, full = train(ds, model, full_cfg, log_lines=lines, **kwargs)
    losses = [float(field.split("=")[1]) for line in lines for field in line.split()[1:4]]
    assert len(losses) == 6 and np.all(np.isfinite(losses))

    train(ds, model, dataclasses.replace(full_cfg, epochs=1), out_dir=str(tmp_path), **kwargs)
    half = load_checkpoint(os.path.join(tmp_path, "checkpoint.bin"))
    _, _, resumed = train(ds, model, full_cfg, resume=dataclasses.replace(half, config=full_cfg),
                          **kwargs)
    assert same_checkpoint(full, resumed)


def test_train_logs_prior_timing_once(caplog):
    ds = make_dataset()
    config = TrainConfig(k=2, epochs=1, seed=0, batch_size=16, prior_method="grad")
    with caplog.at_level(logging.INFO, logger="meed.trainer"):
        train(ds, prior_model(), config, explainer_hidden=(8,), approx_hidden=(8,))
    records = [r for r in caplog.records if r.name == "meed.trainer"]
    assert len(records) == 1 and records[0].levelno == logging.INFO
    assert "method=grad rows=48 seconds=" in records[0].getMessage()


def test_train_prints_nothing_at_default_log_levels():
    code = ("import numpy as np\n"
            "from meed.core import Mlp, TrainConfig, classifier_layers\n"
            "from meed.data import Dataset, MlpModel\n"
            "from meed.trainer import train\n"
            "x = np.random.default_rng(0).standard_normal((16, 4))\n"
            "model = MlpModel(Mlp(4, classifier_layers((4,), 2)))\n"
            "train(Dataset(ids=list(range(16)), X=x), model,\n"
            "      TrainConfig(k=2, epochs=1, prior_method='grad'),\n"
            "      explainer_hidden=(4,), approx_hidden=(4,))\n")
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "" and done.stderr == ""


def test_train_rejects_non_finite_output_on_perturbed_row():
    ds = make_dataset()

    class NanOnPerturbedRow(FixedModel):
        def evaluate(self, x):
            out = super().evaluate(x)
            bad = ds.X[5].copy()
            bad[0] += FD_STEP
            out[np.all(np.atleast_2d(x) == bad, axis=1)] = np.nan
            return out

    config = TrainConfig(k=2, epochs=1, seed=0, prior_method="grad")
    with pytest.raises(ShapeError, match="row 5"):
        train(ds, NanOnPerturbedRow(), config, explainer_hidden=(8,), approx_hidden=(8,))
