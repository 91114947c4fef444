"""Alternating adversarial training loop, its Adam optimizer, and checkpointing.

Every minibatch performs one approximator update (minimize L_s + lambda_u*L_u)
followed by one explainer update (minimize L_s + lambda_u*L~_u + lambda_e*L_e).
Both read one Gumbel sample per minibatch: one draw per sample, and one relaxed
top-k mask that the approximator step reads and the explainer step continues.
The epoch counter m drives the prior warm-start decay.
"""

from __future__ import annotations

import logging
import math
import os
import time
from dataclasses import asdict, dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .approximators import (ApproximatorPair, cross_entropy_grad, make_pair, pair_loss_var,
                            sw_directions)
from .baselines import prior_scores
from .core import (ConfigError, Mlp, ShapeError, TrainConfig, checked_features,
                   checked_outputs, from_strings, named_rng, read_record, write_record)
from .explainer import ExplainerNet, fuse_prior_var, prior_constraint_loss_var
from .sampler import relaxed_topk_var, sample_gumbel_batch

log = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"MEEDCKPT"
CHECKPOINT_VERSION = 3
FIT_BATCH_SIZE = 64  # minibatch rows of `fit_classifier`


class TrainingAbort(RuntimeError):
    """Raised when a loss goes non-finite; the last good checkpoint survives."""


class CheckpointError(ValueError):
    """Corrupt or incompatible checkpoint file."""


# ---------------------------------------------------------------------------
# Optimizer (flat parameter vectors, in-place updates)
# ---------------------------------------------------------------------------

class Optimizer:
    """In-place update of a flat parameter vector. `slots` names the
    per-parameter state vectors, saved with the step count `t`; a step updates
    them in place, through two scratch vectors allocated once and never saved."""

    slots: tuple = ()

    def __init__(self, rate: float, n: int):
        self.rate, self.t = rate, 0
        for slot in self.slots:
            setattr(self, slot, np.zeros(n))
        self._scratch = np.empty(n), np.empty(n)

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        raise NotImplementedError

    def get_state(self) -> dict:
        return {"t": self.t, **{slot: getattr(self, slot).copy() for slot in self.slots}}

    def set_state(self, state: dict) -> None:
        """Copies `state` into the slots; raises KeyError or ValueError when it
        lacks an entry or a slot does not fit this optimizer's parameter count."""
        for slot in self.slots:
            vec = np.asarray(state[slot], dtype=np.float64)
            if vec.shape != getattr(self, slot).shape:
                raise ValueError(f"optimizer slot {slot} has shape {vec.shape}, "
                                 f"expected {getattr(self, slot).shape}")
            getattr(self, slot)[...] = vec
        self.t = int(state["t"])


class Adam(Optimizer):
    slots = ("m", "v")
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def step(self, params, grad):
        self.t += 1
        delta, scratch = self._scratch
        np.multiply(grad, 1 - self.beta1, out=delta)
        self.m *= self.beta1
        self.m += delta
        self.v *= self.beta2
        np.multiply(grad, 1 - self.beta2, out=scratch)
        scratch *= grad
        self.v += scratch
        denom = np.sqrt(np.divide(self.v, 1 - self.beta2**self.t, out=scratch), out=scratch)
        denom += self.eps
        np.divide(self.m, 1 - self.beta1**self.t, out=delta)
        delta *= self.rate
        delta /= denom
        params -= delta


def fit_classifier(x: np.ndarray, targets: np.ndarray, hidden: Sequence[int], epochs: int,
                   rng: np.random.Generator, learning_rate: float = 1e-3) -> Mlp:
    """Softmax MLP fitted to `targets` (n, c) by Adam on cross-entropy, FIT_BATCH_SIZE rows a step.

    `rng` draws the initial weights first, then one permutation per epoch.
    An (m, n, d) stack of inputs fits m nets of one `Mlp` at once, each
    exactly as a fit of its own (n, d) slice from the same `rng` state.
    """
    widths = (*hidden, targets.shape[1])
    nets = len(x) if x.ndim == 3 else 1
    net = Mlp(x.shape[-1], widths, nets=nets,
              parameters=np.tile(Mlp(x.shape[-1], widths, rng=rng).parameters, nets))
    opt, grad = Adam(learning_rate, net.n_params), np.empty(net.n_params)
    n = x.shape[-2]
    for _ in range(epochs):
        perm = rng.permutation(n)
        for lo in range(0, n, FIT_BATCH_SIZE):
            idx = perm[lo:lo + FIT_BATCH_SIZE]
            out, saved = net.forward(x[..., idx, :])
            g_out = cross_entropy_grad(targets[idx], out)
            opt.step(net.parameters, net.backward(saved, g_out, inputs=False, out=grad)[1])
    return net


# ---------------------------------------------------------------------------
# Update steps
# ---------------------------------------------------------------------------

def _pair_stack(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The pair's (2, n, d) input for mask values v (n, d): A_s's v*x, then A_u's (1-v)*x."""
    return np.stack([v * x, (1.0 - v) * x])


def _pair_outputs(pair: ApproximatorPair, v: ad.Var, x: np.ndarray) -> ad.Var:
    """A_s's and A_u's outputs (2, n, c) on the stack of the mask v as one node
    of v. The nets are frozen: the VJP pulls g back to their inputs only, then
    to v as g_in[0]*x - g_in[1]*x."""
    out, saved = pair.net.forward(_pair_stack(v.value, x))

    def vjp(g):
        g_in = pair.net.backward(saved, g, weights=False)[0]
        return (g_in[0] * x - g_in[1] * x,)

    return ad.Var(out, (v,), vjp)


def _check_finite(losses: dict, step: str, batch_id: str) -> None:
    """Raises TrainingAbort naming the first non-finite loss of `losses`."""
    for name, val in losses.items():
        if not math.isfinite(val):
            raise TrainingAbort(f"non-finite {name} in {step} step, batch {batch_id}")


def approximator_step(pair: ApproximatorPair, x: np.ndarray, y: np.ndarray,
                      v: np.ndarray, config: TrainConfig, opt: Optimizer,
                      sw_thetas: Optional[np.ndarray] = None, batch_id: str = "?") -> tuple:
    """One update of both approximators on the relaxed mask values v (n, d),
    stepping `opt` over the pair's stacked parameters; only the loss is on the tape."""
    out, saved = pair.net.forward(_pair_stack(v, x))
    preds = ad.Var(out)
    total, l_s, l_u = pair_loss_var(y, preds, config.loss_u, config.lambda_u, sw_thetas)
    _check_finite({"L_s": l_s, "L_u": l_u}, "approximator", batch_id)
    ad.backward(total)
    opt.step(pair.net.parameters, pair.net.backward(saved, preds.grad, inputs=False)[1])
    return l_s, l_u


def explainer_objective(pair: ApproximatorPair, z: ad.Var, z_tilde: ad.Var,
                        x: np.ndarray, y: np.ndarray, config: TrainConfig, v: ad.Var,
                        m: int = 0, sw_thetas: Optional[np.ndarray] = None) -> tuple:
    """Graph of the explainer update's objective L_s + lambda_u*L~_u + lambda_e*L_e
    (minus lambda_u*L~_u for sliced-Wasserstein), continued from the explainer's
    scores z, the fused scores z_tilde (z itself when no prior is set) and the
    relaxed top-k mask v drawn from z_tilde; returns the objective node and
    the floats L_s, L~_u and L_e."""
    # Frozen approximators: gradients reach their inputs, not their weights.
    objective, l_s, l_u_tilde = pair_loss_var(y, _pair_outputs(pair, v, x), config.loss_u,
                                              config.lambda_u, sw_thetas, explainer=True)
    l_e = 0.0
    if z_tilde is not z:
        l_e_var, l_e = prior_constraint_loss_var(z_tilde, z, m, config.lambda_e)
        if config.lambda_e != 0.0:
            objective = ad.add(objective, l_e_var)
    return objective, l_s, l_u_tilde, float(l_e)


def explainer_step(leaf: ad.Var, z: ad.Var, z_tilde: ad.Var, pair: ApproximatorPair,
                   x: np.ndarray, y: np.ndarray, config: TrainConfig, v: ad.Var,
                   opt_e: Optimizer, m: int = 0, sw_thetas: Optional[np.ndarray] = None,
                   batch_id: str = "?") -> tuple:
    """One explainer update through `leaf`, the Var over the explainer's own
    parameter vector that z was scored from; approximator parameters stay frozen."""
    objective, l_s, l_u_tilde, l_e = explainer_objective(
        pair, z, z_tilde, x, y, config, v, m, sw_thetas)
    _check_finite({"L_s": l_s, "L_u": l_u_tilde, "L_e": l_e}, "explainer", batch_id)
    ad.backward(objective)
    opt_e.step(leaf.value, leaf.grad)
    return l_s, l_u_tilde, l_e


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
    optimizer_states: dict  # "explainer" or "pair" -> Optimizer.get_state()


NETS = ("explainer", "a_selected", "a_unselected")


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    """Atomic, bit-exact binary serialization: the parameter vectors and every
    optimizer slot (named `<optimizer>.<slot>`) as vectors, the rest in the header."""
    vectors = {net: getattr(ckpt, f"{net}_params") for net in NETS}
    for opt, state in sorted(ckpt.optimizer_states.items()):
        vectors.update({f"{opt}.{slot}": vec for slot, vec in state.items() if slot != "t"})
    header = {"config": asdict(ckpt.config), "meta": ckpt.meta,
              "epoch_counter": ckpt.epoch_counter, "rng_states": ckpt.rng_states,
              "optimizer_t": {opt: state["t"] for opt, state in ckpt.optimizer_states.items()}}
    write_record(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, header, vectors)


def check_counters_and_widths(ckpt: Checkpoint) -> Checkpoint:
    """`ckpt` itself; raises CheckpointError unless its epoch counter and every
    optimizer step count are >= 0 and every stored width is >= 1 (a missing
    step count is left to Optimizer.set_state)."""
    meta = ckpt.meta
    widths = (meta["d"], meta["c"], *meta["explainer_hidden"], *meta["approx_hidden"])
    counters = (ckpt.epoch_counter, *(s.get("t", 0) for s in ckpt.optimizer_states.values()))
    if min(widths) < 1 or min(counters) < 0:
        raise CheckpointError(f"architecture widths must be >= 1 and the epoch counter and "
                              f"optimizer step counts >= 0, got {widths} and {counters}")
    return ckpt


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint; any malformed or incompatible file raises CheckpointError."""
    header, vectors = read_record(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, CheckpointError)
    try:
        config = from_strings(TrainConfig, {k: str(v) for k, v in header["config"].items()}, "train")
        arch = header["meta"]
        meta = {"d": int(arch["d"]), "c": int(arch["c"]),
                "explainer_hidden": tuple(int(h) for h in arch["explainer_hidden"]),
                "approx_hidden": tuple(int(h) for h in arch["approx_hidden"])}
        params = {f"{net}_params": vectors.pop(net) for net in NETS}
        optimizer_states = {opt: {"t": int(t)} for opt, t in header["optimizer_t"].items()}
        for name, vec in vectors.items():
            opt, slot = name.split(".")
            optimizer_states[opt][slot] = vec
        return check_counters_and_widths(Checkpoint(
            config=config, meta=meta, **params, epoch_counter=int(header["epoch_counter"]),
            rng_states=dict(header["rng_states"]), optimizer_states=optimizer_states))
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
    With `resume`, continues the stored trajectory up to config.epochs; the
    stored config may differ from `config` in `epochs` only.
    `fusion` is kept for callers that still pass it and accepts only
    "concat-raw"; `config.use_output_feedback` switches the output feedback.
    """
    if fusion != "concat-raw":
        raise ConfigError(f"unknown feedback fusion: {fusion}")
    x_all = checked_features(dataset.X)
    n, d = x_all.shape
    if n == 0:
        raise ConfigError("dataset is empty")
    if config.k > d:
        raise ConfigError(f"k={config.k} exceeds d={d}")
    y_all = getattr(dataset, "Y", None)
    if y_all is None:
        y_all = model.evaluate(x_all)
    y_all = checked_outputs(y_all, n)
    c = y_all.shape[1]

    meta = {"d": d, "c": c, "explainer_hidden": tuple(explainer_hidden),
            "approx_hidden": tuple(approx_hidden)}

    rngs = {"data": named_rng(config.seed, "data"),
            "gumbel": named_rng(config.seed, "gumbel"),
            "perturb": named_rng(config.seed, "perturb")}
    init_rng = named_rng(config.seed, "init")

    if resume is not None:
        check_counters_and_widths(resume)
        if (resume.meta != meta or replace(resume.config, epochs=config.epochs) != config
                or config.epochs < resume.epoch_counter):
            raise CheckpointError(f"resume checkpoint does not match this run's configuration "
                                  f"(only epochs may differ, and not below the "
                                  f"{resume.epoch_counter} already run)")
        explainer, pair = nets_from_checkpoint(resume)
        start_epoch = resume.epoch_counter
    else:
        explainer = build_explainer(meta, config, rng=init_rng)
        pair = make_pair(d, c, meta["approx_hidden"], init_rng)
        start_epoch = 0

    opt_e = Adam(config.learning_rate, explainer.n_params)
    opt_pair = Adam(config.learning_rate, pair.net.n_params)
    if resume is not None:
        try:
            for name, gen in rngs.items():
                gen.bit_generator.state = resume.rng_states[name]
            opt_e.set_state(resume.optimizer_states["explainer"])
            opt_pair.set_state(resume.optimizer_states["pair"])
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
                          optimizer_states={"explainer": opt_e.get_state(),
                                            "pair": opt_pair.get_state()})

    ckpt_path = os.path.join(out_dir, "checkpoint.bin") if out_dir else None
    if ckpt_path:
        os.makedirs(out_dir, exist_ok=True)
        save_checkpoint(snapshot(start_epoch), ckpt_path)

    batch = config.batch_size
    # Each minibatch draws its (k, rows, d) noise into a prefix of this one
    # buffer, and its relaxed top-k builds the races there in place.
    noise = np.empty(config.k * min(batch, n) * d)
    for m in range(start_epoch, config.epochs):
        tic = time.perf_counter()
        perm = rngs["data"].permutation(n)
        sums = np.zeros(3)
        n_batches = 0
        for lo in range(0, n, batch):
            idx = perm[lo:lo + batch]
            xb, yb = x_all[idx], y_all[idx]
            thetas = (sw_directions(c, config.n_projections, rngs["perturb"])
                      if config.loss_u == "sliced-wasserstein" else None)
            bid = f"epoch {m} offset {lo}"
            # One scoring pass and one mask sample feed both steps: the
            # approximator step reads the mask's values and leaves the
            # explainer's parameters as they were scored; the explainer step
            # continues the mask's graph.
            leaf = ad.Var(explainer.parameters)
            z = explainer.score_var(xb, yb, leaf)
            z_tilde = z if prior_all is None else fuse_prior_var(z, prior_all[idx], m)
            shape = (config.k, len(idx), d)
            xi = sample_gumbel_batch(noise[:config.k * len(idx) * d].reshape(shape),
                                     rngs["gumbel"])
            v = relaxed_topk_var(z_tilde, xi, config.tau)
            l_s, l_u = approximator_step(pair, xb, yb, v.value, config, opt_pair,
                                         sw_thetas=thetas, batch_id=bid)
            _, _, l_e = explainer_step(leaf, z, z_tilde, pair, xb, yb, config, v, opt_e,
                                       m=m, sw_thetas=thetas, batch_id=bid)
            del leaf, z, z_tilde, v  # the graph ends with the minibatch
            sums += (l_s, l_u, l_e)
            n_batches += 1
        mean = sums / n_batches
        line = (f"epoch={m} L_s={mean[0]:.6f} L_u={mean[1]:.6f} "
                f"L_e={mean[2]:.6f} seconds={time.perf_counter() - tic:.3f}")
        if log_lines is not None:
            log_lines.append(line)
        if out_dir:
            with open(os.path.join(out_dir, "train.log"), "w" if m == 0 else "a",
                      encoding="utf-8") as fh:
                fh.write(line + "\n")
        if ckpt_path:
            save_checkpoint(snapshot(m + 1), ckpt_path)
    return explainer, pair, snapshot(config.epochs)
