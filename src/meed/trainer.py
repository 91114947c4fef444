"""Alternating adversarial training loop, optimizers, and checkpointing.

Every minibatch performs one approximator update (minimize L_s + lambda_u*L_u)
followed by one explainer update (minimize L_s + lambda_u*L~_u + lambda_e*L_e),
with fresh Gumbel noise per step and per sample. The epoch counter m drives
the prior warm-start decay.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .approximators import (ApproximatorPair, cross_entropy_var, make_pair,
                            relativistic_flip, sliced_wasserstein_var,
                            sw_directions)
from .baselines import prior_scores
from .core import (ConfigError, Mlp, ShapeError, TrainConfig, classifier_layers,
                   is_simplex, named_rng, read_record, write_record)
from .explainer import ExplainerNet, fuse_prior_var, prior_constraint_loss_var
from .sampler import relaxed_topk_var, sample_gumbel_batch

log = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"MEEDCKPT"
CHECKPOINT_VERSION = 2


class TrainingAbort(RuntimeError):
    """Raised when a loss goes non-finite; the last good checkpoint survives."""


class CheckpointError(ValueError):
    """Corrupt or incompatible checkpoint file."""


# ---------------------------------------------------------------------------
# Optimizers (flat parameter vectors, in-place updates)
# ---------------------------------------------------------------------------

class Optimizer:
    """In-place update of a flat parameter vector. `slots` names the
    per-parameter state vectors, saved with the step count `t`."""

    slots: tuple = ()

    def __init__(self, rate: float, n: int, decay: float = 0.0):
        self.rate, self.decay, self.t = rate, decay, 0
        for slot in self.slots:
            setattr(self, slot, np.zeros(n))

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        raise NotImplementedError

    def get_state(self) -> dict:
        return {"t": self.t, **{slot: getattr(self, slot).copy() for slot in self.slots}}

    def set_state(self, state: dict) -> None:
        """Raises KeyError or ValueError when `state` lacks an entry or a slot
        does not fit this optimizer's parameter count."""
        for slot in self.slots:
            vec = np.asarray(state[slot], dtype=np.float64)
            if vec.shape != getattr(self, slot).shape:
                raise ValueError(f"optimizer slot {slot} has shape {vec.shape}, "
                                 f"expected {getattr(self, slot).shape}")
            setattr(self, slot, vec)
        self.t = int(state["t"])


class Sgd(Optimizer):
    def step(self, params, grad):
        self.t += 1
        params -= self.rate / (1.0 + self.decay * self.t) * grad


class RmsProp(Optimizer):
    slots = ("avg",)
    rho, eps = 0.9, 1e-8

    def step(self, params, grad):
        self.t += 1
        self.avg = self.rho * self.avg + (1 - self.rho) * grad * grad
        params -= self.rate / (1.0 + self.decay * self.t) * grad / (np.sqrt(self.avg) + self.eps)


class Adadelta(Optimizer):
    """Ignores `decay`: its step size adapts per parameter."""

    slots = ("acc_g", "acc_d")
    rho, eps = 0.95, 1e-6

    def step(self, params, grad):
        self.t += 1
        self.acc_g = self.rho * self.acc_g + (1 - self.rho) * grad * grad
        delta = np.sqrt(self.acc_d + self.eps) / np.sqrt(self.acc_g + self.eps) * grad
        self.acc_d = self.rho * self.acc_d + (1 - self.rho) * delta * delta
        params -= self.rate * delta


class Adam(Optimizer):
    slots = ("m", "v")
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def step(self, params, grad):
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1 - self.beta2) * grad * grad
        mhat = self.m / (1 - self.beta1**self.t)
        vhat = self.v / (1 - self.beta2**self.t)
        params -= self.rate / (1.0 + self.decay * self.t) * mhat / (np.sqrt(vhat) + self.eps)


def make_optimizer(config: TrainConfig, n: int) -> Optimizer:
    cls = {"sgd": Sgd, "rmsprop": RmsProp, "adadelta": Adadelta, "adam": Adam}[config.optimizer]
    return cls(config.learning_rate, n, decay=config.decay)


def fit_classifier(x: np.ndarray, targets: np.ndarray, hidden: Sequence[int], epochs: int,
                   rng: np.random.Generator, learning_rate: float = 1e-3,
                   batch_size: int = 64) -> Mlp:
    """Softmax MLP fitted to `targets` (n, c) by minibatch Adam on cross-entropy.

    `rng` draws the initial weights first, then one permutation per epoch.
    """
    net = Mlp(x.shape[1], classifier_layers(hidden, targets.shape[1]), rng=rng)
    opt = Adam(learning_rate, net.n_params)
    n = x.shape[0]
    for _ in range(epochs):
        perm = rng.permutation(n)
        for lo in range(0, n, batch_size):
            idx = perm[lo:lo + batch_size]
            leaves = net.make_leaves()
            ad.backward(cross_entropy_var(targets[idx], net.forward_var(ad.Var(x[idx]), leaves)))
            opt.step(net.parameters, net.grad_from_leaves(leaves))
    return net


# ---------------------------------------------------------------------------
# Update steps
# ---------------------------------------------------------------------------

def _loss_u_var(y: np.ndarray, pred_u: ad.Var, config: TrainConfig,
                thetas: Optional[np.ndarray]) -> ad.Var:
    if config.loss_u == "cross-entropy":
        return cross_entropy_var(y, pred_u)
    return sliced_wasserstein_var(y, pred_u, thetas)


def approximator_step(pair: ApproximatorPair, explainer: ExplainerNet,
                      x: np.ndarray, y: np.ndarray, config: TrainConfig,
                      xi: np.ndarray, opt_s: Optimizer, opt_u: Optimizer,
                      prior_r: Optional[np.ndarray] = None, m: int = 0,
                      sw_thetas: Optional[np.ndarray] = None,
                      batch_id: str = "?") -> tuple:
    """One update of both approximators; explainer parameters stay frozen."""
    z = explainer.score(x, y)
    if prior_r is not None:
        z = fuse_prior_var(ad.Var(z), prior_r, m).value
    v = relaxed_topk_var(ad.Var(z), xi, config.tau).value
    leaves_s = pair.a_selected.make_leaves()
    leaves_u = pair.a_unselected.make_leaves()
    pred_s = pair.a_selected.forward_var(ad.Var(x * v), leaves_s)
    pred_u = pair.a_unselected.forward_var(ad.Var(x * (1.0 - v)), leaves_u)
    l_s = cross_entropy_var(y, pred_s)
    l_u = _loss_u_var(y, pred_u, config, sw_thetas)
    total = ad.add(l_s, ad.mul(l_u, config.lambda_u))
    for name, val in (("L_s", l_s.value), ("L_u", l_u.value)):
        if not np.isfinite(val):
            raise TrainingAbort(f"non-finite {name} in approximator step, batch {batch_id}")
    ad.backward(total)
    opt_s.step(pair.a_selected.parameters, pair.a_selected.grad_from_leaves(leaves_s))
    opt_u.step(pair.a_unselected.parameters, pair.a_unselected.grad_from_leaves(leaves_u))
    return float(l_s.value), float(l_u.value)


def explainer_objective(explainer: ExplainerNet, leaves: list, pair: ApproximatorPair,
                        x: np.ndarray, y: np.ndarray, config: TrainConfig,
                        xi: np.ndarray, prior_r: Optional[np.ndarray] = None, m: int = 0,
                        sw_thetas: Optional[np.ndarray] = None) -> tuple:
    """Graph of the explainer update's objective L_s + lambda_u*L~_u + lambda_e*L_e
    (minus lambda_u*L~_u for sliced-Wasserstein) over the explainer `leaves`;
    returns (objective, L_s, L~_u, L_e)."""
    z = explainer.score_var(x, y, leaves)
    if prior_r is not None:
        z_tilde = fuse_prior_var(z, prior_r, m)
        l_e = prior_constraint_loss_var(z_tilde, z, m)
    else:
        z_tilde = z
        l_e = ad.Var(0.0)
    v = relaxed_topk_var(z_tilde, xi, config.tau)
    pred_s = pair.a_selected.forward_var(ad.mul(v, x), pair.a_selected.make_leaves())
    pred_u = pair.a_unselected.forward_var(ad.mul(ad.sub(1.0, v), x),
                                           pair.a_unselected.make_leaves())
    l_s = cross_entropy_var(y, pred_s)
    if config.loss_u == "cross-entropy":
        # Relativistic variant: still minimize, against the flipped target.
        l_u_tilde = cross_entropy_var(relativistic_flip(y), pred_u)
        objective = ad.add(l_s, ad.mul(l_u_tilde, config.lambda_u))
    else:
        l_u_tilde = sliced_wasserstein_var(y, pred_u, sw_thetas)
        objective = ad.sub(l_s, ad.mul(l_u_tilde, config.lambda_u))
    if config.lambda_e != 0.0 and prior_r is not None:
        objective = ad.add(objective, ad.mul(l_e, config.lambda_e))
    return objective, l_s, l_u_tilde, l_e


def explainer_step(explainer: ExplainerNet, pair: ApproximatorPair,
                   x: np.ndarray, y: np.ndarray, config: TrainConfig,
                   xi: np.ndarray, opt_e: Optimizer,
                   prior_r: Optional[np.ndarray] = None, m: int = 0,
                   sw_thetas: Optional[np.ndarray] = None,
                   batch_id: str = "?") -> tuple:
    """One explainer update; approximator parameters stay frozen."""
    leaves = explainer.make_leaves()
    objective, l_s, l_u_tilde, l_e = explainer_objective(
        explainer, leaves, pair, x, y, config, xi, prior_r, m, sw_thetas)
    for name, val in (("L_s", l_s.value), ("L_u", l_u_tilde.value), ("L_e", l_e.value)):
        if not np.isfinite(val):
            raise TrainingAbort(f"non-finite {name} in explainer step, batch {batch_id}")
    ad.backward(objective)
    opt_e.step(explainer.parameters, explainer.grad_from_leaves(leaves))
    return float(l_s.value), float(l_u_tilde.value), float(l_e.value)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

@dataclass
class Checkpoint:
    config: TrainConfig
    meta: dict  # architecture: d, c, explainer_hidden, approx_hidden
    explainer_params: np.ndarray
    a_selected_params: np.ndarray
    a_unselected_params: np.ndarray
    epoch_counter: int
    rng_states: dict  # stream name -> numpy bit-generator state
    optimizer_states: dict  # net name -> Optimizer.get_state()


NETS = ("explainer", "a_selected", "a_unselected")


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    """Atomic, bit-exact binary serialization: the parameter vectors and every
    optimizer slot (named `<net>.<slot>`) as vectors, the rest in the header."""
    vectors = {net: getattr(ckpt, f"{net}_params") for net in NETS}
    for net, state in sorted(ckpt.optimizer_states.items()):
        vectors.update({f"{net}.{slot}": vec for slot, vec in state.items() if slot != "t"})
    header = {"config": asdict(ckpt.config), "meta": ckpt.meta,
              "epoch_counter": ckpt.epoch_counter, "rng_states": ckpt.rng_states,
              "optimizer_t": {net: state["t"] for net, state in ckpt.optimizer_states.items()}}
    write_record(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, header, vectors)


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint; any malformed or incompatible file raises CheckpointError."""
    header, vectors = read_record(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, CheckpointError)
    try:
        config = TrainConfig.from_strings({k: str(v) for k, v in header["config"].items()})
        arch = header["meta"]
        meta = {"d": int(arch["d"]), "c": int(arch["c"]),
                "explainer_hidden": tuple(int(h) for h in arch["explainer_hidden"]),
                "approx_hidden": tuple(int(h) for h in arch["approx_hidden"])}
        params = {f"{net}_params": vectors.pop(net) for net in NETS}
        optimizer_states = {net: {"t": int(t)} for net, t in header["optimizer_t"].items()}
        for name, vec in vectors.items():
            net, slot = name.split(".")
            optimizer_states[net][slot] = vec
        return Checkpoint(config=config, meta=meta, **params,
                          epoch_counter=int(header["epoch_counter"]),
                          rng_states=dict(header["rng_states"]),
                          optimizer_states=optimizer_states)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad checkpoint header: {exc!r}") from exc


# ---------------------------------------------------------------------------
# Full training loop
# ---------------------------------------------------------------------------

def build_explainer(meta: dict, config: TrainConfig,
                    rng: Optional[np.random.Generator] = None) -> ExplainerNet:
    return ExplainerNet(meta["d"], meta["c"], hidden=meta["explainer_hidden"],
                        use_output=config.use_output_feedback, rng=rng)


def nets_from_checkpoint(ckpt: Checkpoint) -> tuple:
    """Rebuild (explainer, pair) with the stored architecture and parameters;
    parameters that do not fit the stored architecture raise CheckpointError."""
    explainer = build_explainer(ckpt.meta, ckpt.config)
    pair = make_pair(ckpt.meta["d"], ckpt.meta["c"], ckpt.meta["approx_hidden"],
                     np.random.default_rng(0))
    try:
        explainer.set_parameters(ckpt.explainer_params)
        pair.a_selected.set_parameters(ckpt.a_selected_params)
        pair.a_unselected.set_parameters(ckpt.a_unselected_params)
    except ShapeError as exc:
        raise CheckpointError(f"checkpoint parameters do not fit its architecture: {exc}") from exc
    return explainer, pair


def compute_prior_scores(x: np.ndarray, y: np.ndarray, model,
                         method: str) -> np.ndarray:
    """(n, d) prior scores of every row of x for the class its model output y picks."""
    return prior_scores(model, x, np.argmax(y, axis=1), method)


def train(dataset, model, config: TrainConfig,
          explainer_hidden: Sequence[int] = (32, 32),
          approx_hidden: Sequence[int] = (32, 32),
          fusion: str = "concat-raw",
          out_dir: Optional[str] = None,
          resume: Optional[Checkpoint] = None,
          log_lines: Optional[list] = None) -> tuple:
    """Train explainer and approximators; returns (explainer, pair, checkpoint).

    `dataset` needs `.X` (n, d); model outputs are computed once and cached.
    With `resume`, continues the stored trajectory up to config.epochs.
    `fusion` is kept for callers that still pass it and accepts only
    "concat-raw"; `config.use_output_feedback` switches the output feedback.
    """
    if fusion != "concat-raw":
        raise ConfigError(f"unknown feedback fusion: {fusion}")
    x_all = np.asarray(dataset.X, dtype=np.float64)
    if x_all.ndim != 2:
        raise ShapeError(f"features must be an (n, d) array, got shape {x_all.shape}")
    n, d = x_all.shape
    if n == 0:
        raise ConfigError("dataset is empty")
    bad = np.argwhere(~np.isfinite(x_all))
    if len(bad):
        row, col = bad[0]
        raise ShapeError(f"features must be finite values, row {row} column {col} "
                         f"holds {x_all[row, col]}")
    if config.k > d:
        raise ConfigError(f"k={config.k} exceeds d={d}")
    y_all = getattr(dataset, "Y", None)
    if y_all is None:
        y_all = model.evaluate(x_all)
    y_all = np.asarray(y_all, dtype=np.float64)
    if y_all.ndim != 2 or y_all.shape[0] != n or not is_simplex(y_all):
        raise ShapeError(f"model outputs must be ({n}, c) rows of finite values on the "
                         f"probability simplex, got shape {y_all.shape}")
    c = y_all.shape[1]

    meta = {"d": d, "c": c, "explainer_hidden": tuple(explainer_hidden),
            "approx_hidden": tuple(approx_hidden)}

    rngs = {"data": named_rng(config.seed, "data"),
            "gumbel": named_rng(config.seed, "gumbel"),
            "perturb": named_rng(config.seed, "perturb")}
    init_rng = named_rng(config.seed, "init")

    if resume is not None:
        if resume.meta != meta or resume.config != config:
            raise CheckpointError("resume checkpoint does not match this run's configuration")
        explainer, pair = nets_from_checkpoint(resume)
        start_epoch = resume.epoch_counter
    else:
        explainer = build_explainer(meta, config, rng=init_rng)
        pair = make_pair(d, c, meta["approx_hidden"], init_rng)
        start_epoch = 0

    opts = {"explainer": make_optimizer(config, explainer.n_params),
            "a_selected": make_optimizer(config, pair.a_selected.n_params),
            "a_unselected": make_optimizer(config, pair.a_unselected.n_params)}
    if resume is not None:
        try:
            for name, gen in rngs.items():
                gen.bit_generator.state = resume.rng_states[name]
            for name, opt in opts.items():
                opt.set_state(resume.optimizer_states[name])
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
            raise CheckpointError(f"resume checkpoint's RNG or optimizer state does not fit "
                                  f"this run: {exc!r}") from exc

    tic = time.perf_counter()
    prior_all = None
    if config.prior_method != "none":
        prior_all = compute_prior_scores(x_all, y_all, model, config.prior_method)
    log.info("prior method=%s rows=%d seconds=%.3f", config.prior_method,
             0 if prior_all is None else n, time.perf_counter() - tic)

    def snapshot(epoch: int) -> Checkpoint:
        return Checkpoint(config=config, meta=meta,
                          explainer_params=explainer.parameters.copy(),
                          a_selected_params=pair.a_selected.parameters.copy(),
                          a_unselected_params=pair.a_unselected.parameters.copy(),
                          epoch_counter=epoch,
                          rng_states={name: gen.bit_generator.state for name, gen in rngs.items()},
                          optimizer_states={name: opt.get_state() for name, opt in opts.items()})

    ckpt = snapshot(start_epoch)
    ckpt_path = os.path.join(out_dir, "checkpoint.bin") if out_dir else None
    if ckpt_path:
        os.makedirs(out_dir, exist_ok=True)
        save_checkpoint(ckpt, ckpt_path)

    batch = config.batch_size
    for m in range(start_epoch, config.epochs):
        tic = time.perf_counter()
        perm = rngs["data"].permutation(n)
        sums = np.zeros(3)
        n_batches = 0
        for lo in range(0, n, batch):
            idx = perm[lo:lo + batch]
            xb, yb = x_all[idx], y_all[idx]
            rb = prior_all[idx] if prior_all is not None else None
            thetas = (sw_directions(c, config.n_projections, rngs["perturb"])
                      if config.loss_u == "sliced-wasserstein" else None)
            bid = f"epoch {m} offset {lo}"
            xi_a = sample_gumbel_batch(len(idx), d, config.k, rngs["gumbel"])
            l_s, l_u = approximator_step(pair, explainer, xb, yb, config, xi_a,
                                         opts["a_selected"], opts["a_unselected"],
                                         prior_r=rb, m=m, sw_thetas=thetas, batch_id=bid)
            xi_e = sample_gumbel_batch(len(idx), d, config.k, rngs["gumbel"])
            _, _, l_e = explainer_step(explainer, pair, xb, yb, config, xi_e,
                                       opts["explainer"], prior_r=rb, m=m,
                                       sw_thetas=thetas, batch_id=bid)
            sums += (l_s, l_u, l_e)
            n_batches += 1
        mean = sums / max(n_batches, 1)
        line = (f"epoch={m} L_s={mean[0]:.6f} L_u={mean[1]:.6f} "
                f"L_e={mean[2]:.6f} seconds={time.perf_counter() - tic:.3f}")
        if log_lines is not None:
            log_lines.append(line)
        if out_dir:
            with open(os.path.join(out_dir, "train.log"), "w" if m == 0 else "a",
                      encoding="utf-8") as fh:
                fh.write(line + "\n")
        ckpt = snapshot(m + 1)
        if ckpt_path:
            save_checkpoint(ckpt, ckpt_path)
    return explainer, pair, ckpt
