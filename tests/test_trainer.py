"""Alternating trainer, its Adam optimizer, checkpoint format and resume."""

import copy
import dataclasses
import hashlib
import json
import logging
import os
import struct
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meed import autodiff as ad
from meed import trainer
from meed.core import ConfigError, Mlp, ShapeError, TrainConfig, named_rng
from meed.approximators import cross_entropy_var, make_pair, relativistic_flip, sw_directions
from meed.baselines import FD_STEP
from meed.data import Dataset, MlpModel
from meed.explainer import ExplainerNet, fuse_prior_var, prior_constraint_loss_var
from meed.sampler import relaxed_topk_var, sample_gumbel_batch
from meed.trainer import (CHECKPOINT_MAGIC, CHECKPOINT_VERSION, FIT_BATCH_SIZE, Adam,
                          Checkpoint, CheckpointError, Optimizer, TrainingAbort, fit_classifier,
                          approximator_step, explainer_step, load_checkpoint,
                          nets_from_checkpoint, read_record, save_checkpoint, train)
from tests.conftest import damage_record, record_sections
from tests.helpers import (frozen_net_node, mul, record_sw_paths, sliced_wasserstein_node, sub,
                           two_class_sliced_wasserstein)


def small_problem(seed=0, n=48, d=6, c=2):
    """Features x (n, d) and softmax outputs y (n, c <= 3) of logits from
    features 0 and 1, and for a third class from feature 2."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    logits = np.stack([x[:, 0] + x[:, 1], -(x[:, 0] + x[:, 1]), x[:, 2]][:c], axis=1)
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


# Every optimizer the trainer can build; each is named by its class.
optimizers = pytest.mark.parametrize("optimizer", Optimizer.__subclasses__(),
                                     ids=lambda cls: cls.__name__.lower())


@optimizers
def test_optimizers_descend_a_quadratic(optimizer):
    opt = optimizer(0.05, 3)
    params = np.array([2.0, -3.0, 1.0])
    for _ in range(300):
        opt.step(params, 2.0 * params)
    assert np.linalg.norm(params) < 0.2


def test_optimizer_state_round_trip():
    opt = Adam(1e-3, 4)
    params = np.ones(4)
    for _ in range(5):
        opt.step(params, params * 0.3)
    assert set(opt.get_state()) == {"t", "m", "v"}
    twin = Adam(1e-3, 4)
    twin.set_state(copy.deepcopy(opt.get_state()))
    p1, p2 = params.copy(), params.copy()
    opt.step(p1, p1 * 0.3)
    twin.step(p2, p2 * 0.3)
    assert np.array_equal(p1, p2)


GRADIENTS = {
    "gaussian": lambda rng, t: rng.standard_normal(5),
    "alternating-sign": lambda rng, t: (-1.0) ** t * np.array([0.5, 1.0, 2.0, 4.0, 8.0]),
    "zero": lambda rng, t: np.zeros(5),
    "sparse": lambda rng, t: np.where(rng.random(5) < 0.2, rng.standard_normal(5), 0.0),
    "tiny": lambda rng, t: 1e-200 * rng.standard_normal(5),
    "huge": lambda rng, t: 1e100 * rng.standard_normal(5),
}


@pytest.mark.parametrize("kind", list(GRADIENTS))
def test_adam_step_is_the_textbook_update_bit_for_bit(kind):
    """The in-place step computes each float of Kingma & Ba's update as the
    formula does, from zero and tiny gradients (eps alone in the denominator)
    to huge ones."""
    opt, rng = Adam(0.01, 5), np.random.default_rng(3)
    params = np.linspace(-1.0, 1.0, 5)
    ref_params, m, v = params.copy(), np.zeros(5), np.zeros(5)
    b1, b2, eps = Adam.beta1, Adam.beta2, Adam.eps
    for t in range(1, 21):
        grad = GRADIENTS[kind](rng, t)
        opt.step(params, grad)
        m = b1 * m + (1 - b1) * grad
        v = b2 * v + (1 - b2) * grad * grad
        ref_params = ref_params - 0.01 * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        assert np.array_equal(params, ref_params), t
    assert opt.t == 20 and np.array_equal(opt.m, m) and np.array_equal(opt.v, v)


def test_adam_step_allocates_no_vector_of_its_size():
    n = 100_000
    opt, params, grad = Adam(1e-3, n), np.ones(n), np.full(n, 0.5)
    opt.step(params, grad)
    tracemalloc.start()
    try:
        opt.step(params, grad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n // 4


def step_inputs(config, seed=0, optimizer=Adam, c=2):
    x, y = small_problem(seed, c=c)
    rng = named_rng(seed, "gumbel")
    xi = sample_gumbel_batch(np.empty((config.k, *x.shape)), rng)
    init = named_rng(seed, "init")
    explainer = ExplainerNet(6, c, hidden=(8,), rng=init)
    pair = make_pair(6, c, (8,), init)
    opts = {"e": optimizer(config.learning_rate, explainer.n_params),
            "pair": optimizer(config.learning_rate, pair.net.n_params)}
    return x, y, xi, explainer, pair, opts


def tape_fit_classifier(x, targets, hidden, epochs, rng, learning_rate=1e-3):
    """The classifier fit as a loop over the autodiff tape: one Mlp node and
    one cross-entropy node per minibatch, then one Adam step."""
    net = Mlp(x.shape[1], (*hidden, targets.shape[1]), rng=rng)
    opt = Adam(learning_rate, net.n_params)
    n = x.shape[0]
    for _ in range(epochs):
        perm = rng.permutation(n)
        for lo in range(0, n, FIT_BATCH_SIZE):
            idx = perm[lo:lo + FIT_BATCH_SIZE]
            leaf = ad.Var(net.parameters)
            ad.backward(cross_entropy_var(targets[idx], net.forward_var(x[idx], leaf))[0])
            opt.step(net.parameters, leaf.grad)
    return net


def test_fit_classifier_equals_the_tape_loop_bit_for_bit():
    x, y = small_problem(n=70)  # 70 rows: each epoch ends on a short minibatch (64 + 6)
    assert 70 % FIT_BATCH_SIZE == 6
    fit = fit_classifier(x, y, (8, 4), 3, named_rng(2, "model"), learning_rate=1e-2)
    tape = tape_fit_classifier(x, y, (8, 4), 3, named_rng(2, "model"), learning_rate=1e-2)
    assert fit.nets == 1 and np.array_equal(fit.parameters, tape.parameters)


def test_stacked_fit_classifier_equals_one_fit_per_slice():
    x, y = small_problem(n=70)
    stack = np.stack([x, x * (x > 0.0)])
    fit = fit_classifier(stack, y, (8,), 3, named_rng(2, "init"))
    p = fit.n_params // 2
    assert fit.nets == 2
    for i in range(2):
        one = fit_classifier(stack[i], y, (8,), 3, named_rng(2, "init"))
        assert np.array_equal(fit.parameters[i * p:(i + 1) * p], one.parameters)
    assert not np.array_equal(fit.parameters[:p], fit.parameters[p:])


def scores(explainer, x, y, prior_r=None, m=0):
    """(leaf, z, z~) of one minibatch, formed as train() forms them."""
    leaf = ad.Var(explainer.parameters)
    z = explainer.score_var(x, y, leaf)
    return leaf, z, (z if prior_r is None else fuse_prior_var(z, prior_r, m))


def mask_values(explainer, x, y, xi, config):
    """The relaxed top-k mask values (n, d) of one minibatch without a prior."""
    return relaxed_topk_var(ad.Var(explainer.score(x, y)), xi, config.tau).value


def explainer_step_on(explainer, pair, x, y, config, xi, opt_e):
    """One explainer step on the mask drawn with noise xi from a fresh scoring pass."""
    leaf, z, z_tilde = scores(explainer, x, y)
    v = relaxed_topk_var(z_tilde, xi, config.tau)
    explainer_step(leaf, z, z_tilde, pair, x, y, config, v, opt_e, m=0, sw_thetas=None,
                   batch_id="t")


def test_train_scores_each_minibatch_once_and_steps_the_explainer_after(monkeypatch):
    """One explainer forward and one prior fusion per minibatch feed both
    steps, and the approximator step leaves the explainer as it was scored."""
    calls = {"forward": 0, "fuse": 0}
    scored = []
    forward, fuse, step = Mlp.forward, trainer.fuse_prior_var, trainer.approximator_step

    def counted_forward(net, *args, **kwargs):
        if isinstance(net, ExplainerNet):
            calls["forward"] += 1
            scored.append((net, net.parameters.copy()))
        return forward(net, *args, **kwargs)

    def counted_fuse(*args):
        calls["fuse"] += 1
        return fuse(*args)

    def checked_step(*args, **kwargs):
        out = step(*args, **kwargs)
        net, params = scored[-1]
        assert np.array_equal(net.parameters, params)
        return out

    monkeypatch.setattr(Mlp, "forward", counted_forward)
    monkeypatch.setattr(trainer, "fuse_prior_var", counted_fuse)
    monkeypatch.setattr(trainer, "approximator_step", checked_step)
    config = TrainConfig(k=2, epochs=2, seed=0, batch_size=16, prior_method="grad",
                         lambda_e=0.1)
    explainer, _, _ = train(make_dataset(), FixedModel(), config, explainer_hidden=(8,),
                            approx_hidden=(8,))
    assert calls == {"forward": 6, "fuse": 6}   # 48 rows in 3 minibatches, 2 epochs
    assert not np.array_equal(explainer.parameters, scored[0][1])


def test_train_draws_one_mask_per_minibatch_for_both_steps(monkeypatch):
    """One Gumbel draw and one relaxed top-k per minibatch, and the two steps
    read the same mask array: the approximator step its values, the explainer
    step the node over them."""
    calls = {"draw": 0, "relaxed": 0}
    read = {"approximator": [], "explainer": []}
    draw, relaxed = trainer.sample_gumbel_batch, trainer.relaxed_topk_var
    approx_step, expl_step = trainer.approximator_step, trainer.explainer_step

    def counted_draw(*args):
        calls["draw"] += 1
        return draw(*args)

    def counted_relaxed(*args):
        calls["relaxed"] += 1
        return relaxed(*args)

    def approx_reads(*args, **kwargs):
        read["approximator"].append(args[3])   # the mask values v
        return approx_step(*args, **kwargs)

    def expl_reads(*args, **kwargs):
        read["explainer"].append(args[7])      # the mask node v
        return expl_step(*args, **kwargs)

    monkeypatch.setattr(trainer, "sample_gumbel_batch", counted_draw)
    monkeypatch.setattr(trainer, "relaxed_topk_var", counted_relaxed)
    monkeypatch.setattr(trainer, "approximator_step", approx_reads)
    monkeypatch.setattr(trainer, "explainer_step", expl_reads)
    config = TrainConfig(k=2, epochs=2, seed=0, batch_size=16, prior_method="grad",
                         lambda_e=0.1)
    train(make_dataset(), FixedModel(), config, explainer_hidden=(8,), approx_hidden=(8,))
    assert calls == {"draw": 6, "relaxed": 6}   # 48 rows in 3 minibatches, 2 epochs
    assert len(read["approximator"]) == len(read["explainer"]) == 6
    assert all(a is e.value for a, e in zip(read["approximator"], read["explainer"]))


def test_train_draws_every_minibatch_into_one_buffer_and_frees_each_mask(monkeypatch):
    """Every Gumbel draw of one train(), the short last minibatch's too, fills
    the first draw's memory, and its relaxed top-k builds the races there. No
    earlier mask value array is alive when the next minibatch draws, and
    neither a mask nor the buffer is alive after train() returns."""
    buffer, masks, shapes = [], [], []
    draw, relaxed = trainer.sample_gumbel_batch, trainer.relaxed_topk_var

    def in_buffer(xi):
        return buffer and np.shares_memory(xi, buffer[0]())

    def checked_draw(*args):
        assert all(ref() is None for ref in masks), "an earlier mask is alive"
        xi = draw(*args)
        if not buffer:
            buffer.append(weakref.ref(xi if xi.base is None else xi.base))
        assert in_buffer(xi), "a draw outside the first draw's memory"
        shapes.append(xi.shape)
        return xi

    def kept_mask(*args):
        v = relaxed(*args)
        xi = args[1]
        assert in_buffer(xi) and np.array_equal(xi.max(axis=0), v.value), \
            "the mask's races are not in the buffer"
        masks.append(weakref.ref(v.value))
        return v

    monkeypatch.setattr(trainer, "sample_gumbel_batch", checked_draw)
    monkeypatch.setattr(trainer, "relaxed_topk_var", kept_mask)
    config = TrainConfig(k=2, epochs=2, seed=0, batch_size=20, prior_method="grad",
                         lambda_e=0.1)
    train(make_dataset(), FixedModel(), config, explainer_hidden=(8,), approx_hidden=(8,))
    assert shapes == [(2, 20, 6), (2, 20, 6), (2, 8, 6)] * 2   # 48 rows, 2 epochs
    assert len(masks) == 6 and all(ref() is None for ref in masks)
    assert buffer[0]() is None


def test_approximator_step_leaves_its_scores_and_steps_the_pair():
    """The explainer step continues the same mask node after it, so the step
    must not write the mask's values."""
    config = TrainConfig(k=2, epochs=1, seed=0)
    x, y, xi, explainer, pair, opts = step_inputs(config)
    v = mask_values(explainer, x, y, xi, config)
    before_v = v.copy()
    before_s = pair.a_selected.parameters.copy()
    before_u = pair.a_unselected.parameters.copy()
    approximator_step(pair, x, y, v, config, opts["pair"], sw_thetas=None, batch_id="t")
    assert np.array_equal(v, before_v)
    assert not np.array_equal(pair.a_selected.parameters, before_s)
    assert not np.array_equal(pair.a_unselected.parameters, before_u)


def test_explainer_step_freezes_approximators():
    config = TrainConfig(k=2, epochs=1, seed=0)
    x, y, xi, explainer, pair, opts = step_inputs(config)
    before_e = explainer.parameters.copy()
    before_s = pair.a_selected.parameters.copy()
    before_u = pair.a_unselected.parameters.copy()
    explainer_step_on(explainer, pair, x, y, config, xi, opts["e"])
    assert not np.array_equal(explainer.parameters, before_e)
    assert np.array_equal(pair.a_selected.parameters, before_s)
    assert np.array_equal(pair.a_unselected.parameters, before_u)


def test_non_finite_input_aborts_training():
    config = TrainConfig(k=2, epochs=1, seed=0)
    x, y, xi, explainer, pair, opts = step_inputs(config)
    x = x.copy()
    x[0, 0] = np.nan
    with pytest.raises(TrainingAbort):
        approximator_step(pair, x, y, mask_values(explainer, x, y, xi, config), config,
                          opts["pair"], sw_thetas=None, batch_id="t")


@pytest.mark.parametrize("loss_u", ["cross-entropy", "sliced-wasserstein"])
@pytest.mark.parametrize("step", ["approximator", "explainer"])
@pytest.mark.parametrize("loss", ["L_s", "L_u"])
def test_a_non_finite_loss_aborts_each_step_naming_it(loss_u, step, loss):
    """A NaN feature makes L_s non-finite (it reaches both approximators; L_s
    is checked first), and NaN weights in A_u only L_u. Either step then
    aborts before it updates anything, with a TrainingAbort naming the loss,
    the step and the batch."""
    config = TrainConfig(k=2, epochs=1, seed=0, loss_u=loss_u, n_projections=8)
    x, y, xi, explainer, pair, opts = step_inputs(config)
    thetas = sw_directions(2, 8, np.random.default_rng(1))
    if loss == "L_s":
        x = x.copy()
        x[0, 0] = np.nan
    else:
        pair.a_unselected.set_parameters(np.full(pair.a_unselected.n_params, np.nan))
    before = explainer.parameters.copy(), pair.net.parameters.copy()
    leaf, z, z_tilde = scores(explainer, x, y)
    v = relaxed_topk_var(z_tilde, xi, config.tau)
    with pytest.raises(TrainingAbort, match=f"^non-finite {loss} in {step} step, batch t$"):
        if step == "approximator":
            approximator_step(pair, x, y, v.value, config, opts["pair"], thetas, batch_id="t")
        else:
            explainer_step(leaf, z, z_tilde, pair, x, y, config, v, opts["e"], 0, thetas,
                           batch_id="t")
    assert np.array_equal(explainer.parameters, before[0])
    assert np.array_equal(pair.net.parameters, before[1], equal_nan=True)


def reachable_nodes(root) -> int:
    """Nodes that `ad.backward(root)` visits."""
    seen, stack = {id(root)}, [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


@pytest.mark.parametrize("loss_u", ["cross-entropy", "sliced-wasserstein"])
@pytest.mark.parametrize("prior, lambda_e, explainer_nodes",
                         [(False, 0.0, 5), (True, 0.0, 6), (True, 0.5, 8)])
def test_each_step_backpropagates_a_fixed_graph_for_either_adversary(
        monkeypatch, loss_u, prior, lambda_e, explainer_nodes):
    """The approximator step's graph is the pair's loss and the pair's
    outputs: 2 nodes, as the pair runs off the tape. The explainer step's is
    the pair's loss, the frozen pair's outputs as a node of the mask, the
    relaxed top-k, the scores and their parameter leaf: 5. A prior adds its
    fusion, and at lambda_e != 0 also the weighted constraint loss and the
    add that joins it."""
    counts, backward = [], ad.backward

    def counting(root):
        counts.append(reachable_nodes(root))
        backward(root)

    monkeypatch.setattr(ad, "backward", counting)
    config = TrainConfig(k=2, epochs=1, seed=0, loss_u=loss_u, n_projections=8,
                         lambda_e=lambda_e)
    x, y, xi, explainer, pair, opts = step_inputs(config)
    thetas = sw_directions(2, 8, np.random.default_rng(1))
    prior_r = np.full((len(x), 6), 1.0 / 6) if prior else None
    leaf, z, z_tilde = scores(explainer, x, y, prior_r, m=1)
    v = relaxed_topk_var(z_tilde, xi, config.tau)
    approximator_step(pair, x, y, v.value, config, opts["pair"], thetas)
    explainer_step(leaf, z, z_tilde, pair, x, y, config, v, opts["e"], 1, thetas)
    assert counts == [2, explainer_nodes]


def two_net_approximator_step(nets, explainer, x, y, config, xi, opt_s, opt_u, prior_r, m,
                              thetas):
    """The approximator update with A_s and A_u as two nets and two optimizers.
    The sliced Wasserstein adversary takes the two-class axis-0 form: the
    model and both nets output two classes on the simplex."""
    z = ad.Var(explainer.score(x, y))
    if prior_r is not None:
        z = fuse_prior_var(z, prior_r, m)
    v = relaxed_topk_var(z, xi, config.tau).value
    leaf_s, leaf_u = ad.Var(nets[0].parameters), ad.Var(nets[1].parameters)
    pred_s = nets[0].forward_var(x * v, leaf_s)
    pred_u = nets[1].forward_var(x * (1.0 - v), leaf_u)
    l_u = (cross_entropy_var(y, pred_u)[0] if config.loss_u == "cross-entropy"
           else sliced_wasserstein_node(y, pred_u, thetas, form=two_class_sliced_wasserstein))
    ad.backward(ad.add(cross_entropy_var(y, pred_s)[0], mul(l_u, config.lambda_u)))
    opt_s.step(nets[0].parameters, leaf_s.grad)
    opt_u.step(nets[1].parameters, leaf_u.grad)


def two_net_explainer_step(explainer, nets, x, y, config, xi, opt_e, prior_r, m, thetas):
    """The explainer update against A_s and A_u as two frozen nets, with the
    two-class axis-0 form of the sliced Wasserstein adversary."""
    leaf = ad.Var(explainer.parameters)
    z = explainer.score_var(x, y, leaf)
    l_e = None
    if prior_r is not None:
        z_tilde = fuse_prior_var(z, prior_r, m)
        l_e = prior_constraint_loss_var(z_tilde, z, m)[0]
        z = z_tilde
    v = relaxed_topk_var(z, xi, config.tau)
    pred_s = frozen_net_node(nets[0], mul(v, x))
    pred_u = frozen_net_node(nets[1], mul(sub(1.0, v), x))
    objective = cross_entropy_var(y, pred_s)[0]
    if config.loss_u == "cross-entropy":
        objective = ad.add(objective, mul(cross_entropy_var(relativistic_flip(y), pred_u)[0],
                                          config.lambda_u))
    else:
        objective = sub(objective, mul(sliced_wasserstein_node(
            y, pred_u, thetas, form=two_class_sliced_wasserstein), config.lambda_u))
    if config.lambda_e != 0.0 and l_e is not None:
        objective = ad.add(objective, mul(l_e, config.lambda_e))
    ad.backward(objective)
    opt_e.step(explainer.parameters, leaf.grad)


# Loss and prior-weight settings of the stacked-pair test; a "-prior" variant
# fuses a uniform prior into the scores, a "-saturated" one makes the model
# outputs exactly one-hot, so targets and flipped targets hold exact zeros, and
# a "-three-class" one has c = 3, where the softmax and its VJP take numpy's
# last-axis reductions rather than the two-column op.
PAIR_VARIANTS = {
    "cross-entropy": {},
    "cross-entropy-saturated": {},
    "cross-entropy-three-class": {},
    "cross-entropy-prior": dict(lambda_e=0.1),
    "sliced-wasserstein-prior": dict(loss_u="sliced-wasserstein", n_projections=8, lambda_e=1.0),
}


@optimizers
@pytest.mark.parametrize("variant", list(PAIR_VARIANTS))
def test_stacked_pair_steps_equal_the_two_net_steps(optimizer, variant):
    """Three minibatches of both updates move every parameter and optimizer
    slot exactly as A_s and A_u run as two nets with two optimizers."""
    config = TrainConfig(k=2, epochs=1, seed=0, lambda_u=0.7, tau=0.37, **PAIR_VARIANTS[variant])
    sliced = config.loss_u == "sliced-wasserstein"
    c = 3 if variant.endswith("-three-class") else 2
    x, y, _, explainer, pair, opts = step_inputs(config, optimizer=optimizer, c=c)
    if variant.endswith("-saturated"):
        y = np.eye(c)[y.argmax(axis=1)]
    twin_e = ExplainerNet(6, c, hidden=(8,), rng=np.random.default_rng(0))
    twin_e.set_parameters(explainer.parameters)
    nets = [Mlp(6, view.widths, parameters=view.parameters)
            for view in (pair.a_selected, pair.a_unselected)]
    twin_opts = [optimizer(config.learning_rate, n) for n in
                 (explainer.n_params, nets[0].n_params, nets[1].n_params)]
    prior_r = np.full((len(x), 6), 1.0 / 6) if variant.endswith("-prior") else None
    rng = np.random.default_rng(1)
    for m in range(3):
        xi = sample_gumbel_batch(np.empty((config.k, len(x), 6)), rng)   # feeds both steps
        thetas = sw_directions(2, 8, rng) if sliced else None
        leaf, z, z_tilde = scores(explainer, x, y, prior_r, m)
        v = relaxed_topk_var(z_tilde, xi.copy(), config.tau)
        approximator_step(pair, x, y, v.value, config, opts["pair"], thetas)
        explainer_step(leaf, z, z_tilde, pair, x, y, config, v, opts["e"], m, thetas)
        two_net_approximator_step(nets, twin_e, x, y, config, xi.copy(), *twin_opts[1:],
                                  prior_r, m, thetas)
        two_net_explainer_step(twin_e, nets, x, y, config, xi.copy(), twin_opts[0], prior_r, m,
                               thetas)
    assert explainer.parameters.tobytes() == twin_e.parameters.tobytes()
    assert pair.a_selected.parameters.tobytes() == nets[0].parameters.tobytes()
    assert pair.a_unselected.parameters.tobytes() == nets[1].parameters.tobytes()
    assert same_state(opts["e"].get_state(), twin_opts[0].get_state())
    for i, opt in enumerate(twin_opts[1:]):
        state = opt.get_state()
        assert state["t"] == opts["pair"].t
        for slot in opt.slots:
            assert np.array_equal(np.split(getattr(opts["pair"], slot), 2)[i], state[slot])


def test_checkpoint_holds_each_approximators_own_state():
    """One epoch of train() against the two-net steps fed the same streams:
    the checkpoint's per-net parameters are each net's own, and the pair's
    optimizer state is the two nets' states, A_s's half first."""
    ds, model = make_dataset(), FixedModel()
    config = TrainConfig(k=2, epochs=1, seed=4, batch_size=16)
    _, _, ckpt = train(ds, model, config, explainer_hidden=(8,), approx_hidden=(8,))
    init = named_rng(4, "init")
    explainer = ExplainerNet(6, 2, hidden=(8,), rng=init)
    nets = [Mlp(6, (8, 2), rng=init) for _ in range(2)]
    opts = [Adam(config.learning_rate, net.n_params) for net in (explainer, *nets)]
    gumbel, y = named_rng(4, "gumbel"), model.evaluate(ds.X)
    perm = named_rng(4, "data").permutation(len(ds.X))
    for lo in range(0, len(perm), 16):
        x, yb = ds.X[perm[lo:lo + 16]], y[perm[lo:lo + 16]]
        xi = sample_gumbel_batch(np.empty((2, len(x), 6)), gumbel)   # feeds both steps
        two_net_approximator_step(nets, explainer, x, yb, config, xi.copy(), *opts[1:], None, 0,
                                  None)
        two_net_explainer_step(explainer, nets, x, yb, config, xi.copy(), opts[0], None, 0, None)
    assert np.array_equal(ckpt.explainer_params, explainer.parameters)
    pair_state = ckpt.optimizer_states["pair"]
    for i, net in enumerate(("a_selected", "a_unselected")):
        assert np.array_equal(getattr(ckpt, f"{net}_params"), nets[i].parameters)
        assert same_state({slot: val if slot == "t" else np.split(val, 2)[i]
                           for slot, val in pair_state.items()}, opts[i + 1].get_state())
    assert same_state(ckpt.optimizer_states["explainer"], opts[0].get_state())


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


def test_train_builds_a_checkpoint_only_to_write_or_return_it(monkeypatch, tmp_path):
    """Without out_dir, train() builds one Checkpoint, the one it returns; with
    out_dir, one more per write (the start and each epoch), and the file holds
    the returned state."""
    built = []

    def counted(*args, **kwargs):
        built.append(Checkpoint(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(trainer, "Checkpoint", counted)
    ds, kwargs = make_dataset(), dict(explainer_hidden=(8,), approx_hidden=(8,))
    config = TrainConfig(k=2, epochs=2, seed=5, batch_size=16)
    for resume in (None, train(ds, FixedModel(), dataclasses.replace(config, epochs=1),
                               **kwargs)[2]):
        del built[:]
        _, _, ckpt = train(ds, FixedModel(), config, resume=resume, **kwargs)
        assert len(built) == 1 and built[0] is ckpt
    del built[:]
    _, _, ckpt = train(ds, FixedModel(), config, out_dir=str(tmp_path), **kwargs)
    assert len(built) == 4 and built[-1] is ckpt   # start, epochs 1 and 2, return
    monkeypatch.undo()
    assert same_checkpoint(load_checkpoint(str(tmp_path / "checkpoint.bin")), ckpt)


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
    model = MlpModel(Mlp(4, (8, 2), rng=np.random.default_rng(0)))
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
    version_2 = CHECKPOINT_MAGIC + struct.pack("<I", 2) + blob[12:]
    nan_param, inf_slot = bytearray(blob), bytearray(blob)
    struct.pack_into("<d", nan_param, vector_at + 16, float("nan"))
    struct.pack_into("<d", inf_slot, record_sections(blob)[-1] + 16, float("inf"))
    for bad in (b"NOTMEED!" + b"\x00" * 32, blob[:10], bytes(oversized), bytes(non_utf8),
                incomplete, blob + b"\x00", blob + bytes(16), no_optimizer_t, version_1,
                bytes(nan_param), bytes(inf_slot)):
        with pytest.raises(CheckpointError):
            load_bytes(bad, path)
    # Version 2 stored the pair's optimizer state as two per-net halves.
    with pytest.raises(CheckpointError, match="format version 2, library supports 3"):
        load_bytes(version_2, path)


@pytest.mark.parametrize("version", [1, 2, CHECKPOINT_VERSION + 1])
def test_checkpoint_of_another_format_version_is_refused_naming_it(saved_checkpoint, version):
    blob, _, path = saved_checkpoint
    with pytest.raises(CheckpointError, match=f"format version {version}, library supports "
                                              f"{CHECKPOINT_VERSION}"):
        load_bytes(CHECKPOINT_MAGIC + struct.pack("<I", version) + blob[12:], path)


def test_checkpoint_stores_one_state_per_optimizer(saved_checkpoint):
    """The file holds the explainer's Adam state and the approximator pair's,
    each as get_state() returns it: slots over all of its parameters and one
    step count per optimizer (3 minibatches of 16 rows ran)."""
    _, ckpt, path = saved_checkpoint
    save_checkpoint(ckpt, path)
    header, vectors = read_record(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, CheckpointError)
    assert header["optimizer_t"] == {"explainer": 3, "pair": 3}
    assert sorted(vectors) == ["a_selected", "a_unselected", "explainer", "explainer.m",
                               "explainer.v", "pair.m", "pair.v"]
    n_pair = len(ckpt.a_selected_params) + len(ckpt.a_unselected_params)
    for opt, n in (("explainer", len(ckpt.explainer_params)), ("pair", n_pair)):
        state = ckpt.optimizer_states[opt]
        assert state["t"] == 3 and state["m"].shape == state["v"].shape == (n,)
        assert np.array_equal(vectors[f"{opt}.m"], state["m"])


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


def test_resume_may_extend_epochs_only(tmp_path):
    """A 1-epoch checkpoint resumed under its config with more epochs continues
    the uninterrupted run bit for bit; any other change still raises."""
    ds = make_dataset()
    kwargs = dict(explainer_hidden=(8,), approx_hidden=(8,))
    full_cfg = TrainConfig(k=2, epochs=3, seed=9, batch_size=16)
    _, _, full = train(ds, FixedModel(), full_cfg, **kwargs)
    _, _, one = train(ds, FixedModel(), dataclasses.replace(full_cfg, epochs=1), **kwargs)
    path = os.path.join(tmp_path, "one.bin")
    save_checkpoint(one, path)
    _, _, resumed = train(ds, FixedModel(), full_cfg, resume=load_checkpoint(path), **kwargs)
    assert same_checkpoint(full, resumed)
    for bad in (dataclasses.replace(full_cfg, tau=0.25), dataclasses.replace(full_cfg, epochs=0)):
        with pytest.raises(CheckpointError):
            train(ds, FixedModel(), bad, resume=load_checkpoint(path), **kwargs)


def test_resume_restores_every_optimizer(tmp_path):
    """Save, load and resume continue the uninterrupted run: the explainer's
    and the approximator pair's optimizers both come back with their slots and
    step counts, under either approximator loss."""
    ds = make_dataset()
    kwargs = dict(explainer_hidden=(8,), approx_hidden=(8,))
    for extra in ({}, dict(loss_u="sliced-wasserstein", prior_method="grad", lambda_e=1.0)):
        full_cfg = TrainConfig(k=2, epochs=3, seed=5, batch_size=16, **extra)
        e_full, p_full, straight = train(ds, FixedModel(), full_cfg, **kwargs)
        _, _, half = train(ds, FixedModel(), dataclasses.replace(full_cfg, epochs=1), **kwargs)
        path = os.path.join(tmp_path, "half.bin")
        save_checkpoint(half, path)
        resumed = dataclasses.replace(load_checkpoint(path), config=full_cfg)
        e_res, p_res, final = train(ds, FixedModel(), full_cfg, resume=resumed, **kwargs)
        assert np.array_equal(e_full.parameters, e_res.parameters), extra
        assert np.array_equal(p_full.net.parameters, p_res.net.parameters), extra
        assert set(final.optimizer_states) == {"explainer", "pair"}
        assert same_state(final.optimizer_states, straight.optimizer_states), extra


def test_split_resume_writes_the_straight_run_checkpoint_byte_for_byte(tmp_path):
    ds = make_dataset()
    kwargs = dict(explainer_hidden=(8,), approx_hidden=(8,))
    full_cfg = TrainConfig(k=2, epochs=3, seed=5, batch_size=16)
    straight, split = (str(tmp_path / name) for name in ("straight", "split"))
    train(ds, FixedModel(), full_cfg, out_dir=straight, **kwargs)
    train(ds, FixedModel(), dataclasses.replace(full_cfg, epochs=1), out_dir=split, **kwargs)
    half = load_checkpoint(os.path.join(split, "checkpoint.bin"))
    _, pair, _ = train(ds, FixedModel(), full_cfg, out_dir=split, resume=half, **kwargs)
    blobs = [open(os.path.join(d, "checkpoint.bin"), "rb").read() for d in (straight, split)]
    assert blobs[0] == blobs[1]
    final = load_checkpoint(os.path.join(split, "checkpoint.bin"))
    assert np.array_equal(pair.net.parameters,
                          np.concatenate([final.a_selected_params, final.a_unselected_params]))


def test_two_resumes_from_one_checkpoint_object_write_identical_bytes(tmp_path):
    """Adam steps its slots in place, so a resume must copy the checkpoint's
    slots rather than step the caller's arrays."""
    ds = make_dataset()
    kwargs = dict(explainer_hidden=(8,), approx_hidden=(8,))
    full_cfg = TrainConfig(k=2, epochs=3, seed=5, batch_size=16)
    _, _, half = train(ds, FixedModel(), dataclasses.replace(full_cfg, epochs=1), **kwargs)
    half = dataclasses.replace(half, config=full_cfg)
    blobs = []
    for run in ("first", "second"):
        train(ds, FixedModel(), full_cfg, out_dir=str(tmp_path / run), resume=half, **kwargs)
        blobs.append((tmp_path / run / "checkpoint.bin").read_bytes())
    assert blobs[0] == blobs[1]


def _step_count(ckpt, t):
    explainer = {**ckpt.optimizer_states["explainer"], "t": t}
    return dataclasses.replace(ckpt, optimizer_states={**ckpt.optimizer_states,
                                                       "explainer": explainer})


IMPOSSIBLE_STATES = {
    "negative-epoch-counter": lambda ckpt: dataclasses.replace(ckpt, epoch_counter=-3),
    "negative-optimizer-step-count": lambda ckpt: _step_count(ckpt, -1),
    "d-below-1": lambda ckpt: dataclasses.replace(ckpt, meta={**ckpt.meta, "d": 0}),
    "c-below-1": lambda ckpt: dataclasses.replace(ckpt, meta={**ckpt.meta, "c": 0}),
    "explainer-width-below-1": lambda ckpt: dataclasses.replace(
        ckpt, meta={**ckpt.meta, "explainer_hidden": (8, 0)}),
    "approximator-width-below-1": lambda ckpt: dataclasses.replace(
        ckpt, meta={**ckpt.meta, "approx_hidden": (-2,)}),
}


@pytest.mark.parametrize("name", list(IMPOSSIBLE_STATES))
def test_checkpoint_reader_rejects_impossible_state(saved_checkpoint, name):
    """A counter below 0 or a width below 1 fails the read, naming the file,
    before a resume could run epochs from -3 or build a net of width 0."""
    _, ckpt, path = saved_checkpoint
    save_checkpoint(IMPOSSIBLE_STATES[name](ckpt), path)
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(path)
    assert str(exc.value).startswith(path)


@pytest.mark.parametrize("name", list(IMPOSSIBLE_STATES))
def test_resume_rejects_impossible_state_built_in_memory(saved_checkpoint, name):
    """train(resume=) runs the reader's counter and width checks on a
    checkpoint that never went through a file."""
    _, ckpt, _ = saved_checkpoint
    with pytest.raises(CheckpointError, match="widths must be >= 1 and the epoch counter"):
        train(make_dataset(), FixedModel(), ckpt.config, explainer_hidden=(8,),
              approx_hidden=(8,), resume=IMPOSSIBLE_STATES[name](ckpt))


def test_checkpoint_restore_writes_through_the_pair_views(saved_checkpoint):
    _, ckpt, _ = saved_checkpoint
    _, pair = nets_from_checkpoint(ckpt)
    assert np.array_equal(pair.net.parameters,
                          np.concatenate([ckpt.a_selected_params, ckpt.a_unselected_params]))
    assert np.shares_memory(pair.a_selected.parameters, pair.net.parameters)


def test_resume_rejects_damaged_runtime_state(saved_checkpoint):
    _, ckpt, _ = saved_checkpoint
    opts = ckpt.optimizer_states
    short_slot = {**opts["explainer"], "m": opts["explainer"]["m"][:-1]}
    for bad in (dataclasses.replace(ckpt, rng_states={}),
                dataclasses.replace(ckpt, rng_states={**ckpt.rng_states,
                                                      "data": {"bit_generator": "PCG64"}}),
                dataclasses.replace(ckpt, optimizer_states={k: v for k, v in opts.items()
                                                            if k != "pair"}),
                dataclasses.replace(ckpt, optimizer_states={**opts, "explainer": short_slot})):
        with pytest.raises(CheckpointError):
            train(make_dataset(), FixedModel(), ckpt.config, explainer_hidden=(8,),
                  approx_hidden=(8,), resume=bad)


PAIR_STATE_DAMAGE = {
    "without-t": lambda state: {k: v for k, v in state.items() if k != "t"},
    "without-m": lambda state: {k: v for k, v in state.items() if k != "m"},
    "without-v": lambda state: {k: v for k, v in state.items() if k != "v"},
    # The per-net layout of format version 2: A_s's half of each slot alone.
    "a_selected-half": lambda state: {k: v if k == "t" else np.split(v, 2)[0]
                                      for k, v in state.items()},
    "slot-one-too-long": lambda state: {**state, "v": np.append(state["v"], 0.0)},
}


@pytest.mark.parametrize("damage", list(PAIR_STATE_DAMAGE))
def test_resume_rejects_a_pair_state_that_does_not_fit(saved_checkpoint, damage):
    """The pair's one optimizer state must cover both approximators' parameters."""
    _, ckpt, _ = saved_checkpoint
    states = {**ckpt.optimizer_states,
              "pair": PAIR_STATE_DAMAGE[damage](ckpt.optimizer_states["pair"])}
    with pytest.raises(CheckpointError, match="optimizer state does not fit"):
        train(make_dataset(), FixedModel(), ckpt.config, explainer_hidden=(8,),
              approx_hidden=(8,), resume=dataclasses.replace(ckpt, optimizer_states=states))


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
    explainer_step_on(explainer, pair, x, y, config_zero, xi, opts["e"])
    after_zero = explainer.parameters.copy()

    config_one = TrainConfig(k=2, epochs=1, seed=0, lambda_u=1.0)
    x, y, xi, explainer, pair, opts = step_inputs(config_one)
    explainer_step_on(explainer, pair, x, y, config_one, xi, opts["e"])
    assert not np.array_equal(after_zero, explainer.parameters)


def test_sliced_wasserstein_training_smoke():
    ds = make_dataset(n=32)
    config = TrainConfig(k=2, epochs=1, seed=0, batch_size=16,
                         loss_u="sliced-wasserstein", n_projections=16)
    explainer, _, _ = train(ds, FixedModel(), config, explainer_hidden=(8,),
                            approx_hidden=(8,))
    z = explainer.score(ds.X, FixedModel().evaluate(ds.X))
    assert np.allclose(z.sum(axis=1), 1.0)


@pytest.mark.parametrize("loss_u", ["cross-entropy", "sliced-wasserstein"])
def test_train_on_three_classes_is_finite_and_deterministic(monkeypatch, tmp_path, loss_u):
    """train() explains a 3-output model with either adversary: every logged
    loss is finite, two runs write sha256-equal checkpoints, and every sliced
    Wasserstein call sorts once per projection (the closed form is two-class)."""
    paths = record_sw_paths(monkeypatch)
    model = MlpModel(Mlp(6, (8, 3), rng=np.random.default_rng(4)))
    config = TrainConfig(k=2, epochs=2, seed=3, batch_size=16, loss_u=loss_u,
                         n_projections=16)
    digests = []
    for run in ("a", "b"):
        lines = []
        train(make_dataset(), model, config, explainer_hidden=(8,), approx_hidden=(8,),
              out_dir=str(tmp_path / run), log_lines=lines)
        for line in lines:
            fields = dict(field.split("=") for field in line.split())
            assert all(np.isfinite(float(fields[key])) for key in ("L_s", "L_u", "L_e"))
        with open(tmp_path / run / "checkpoint.bin", "rb") as fh:
            digests.append(hashlib.sha256(fh.read()).hexdigest())
    assert digests[0] == digests[1]
    runs_epochs_batches_steps = 2 * 2 * 3 * 2
    assert paths == (["per-projection"] * runs_epochs_batches_steps
                     if loss_u == "sliced-wasserstein" else [])


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
    return MlpModel(Mlp(6, (8, 2), rng=np.random.default_rng(4)))


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
            "from meed.core import Mlp, TrainConfig\n"
            "from meed.data import Dataset, MlpModel\n"
            "from meed.trainer import train\n"
            "x = np.random.default_rng(0).standard_normal((16, 4))\n"
            "model = MlpModel(Mlp(4, (4, 2)))\n"
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
