"""Score network with model-output feedback, plus the prior warm start.

The prior fusion combines the explainer's scores z with an efficient
method's scores r through a naive-Bayes product whose prior influence
decays as the epoch counter m grows:

    z~_j  propto  (z_j^m * r_j)^(1/(m+1))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .core import ConfigError, Mlp, ShapeError, classifier_layers, is_simplex
from .sampler import Z_EPS

FUSION_MODES = ("concat-raw", "concat-embedded", "none")

# Embedding MLP for the model output before concatenation: three hidden
# relu layers of width 100.
EMBED_LAYERS = (("dense", 100), ("relu",), ("dense", 100), ("relu",), ("dense", 100), ("relu",))


@dataclass(frozen=True)
class PriorScores:
    r: np.ndarray
    source_method: str

    def __post_init__(self):
        r = np.asarray(self.r, dtype=np.float64)
        object.__setattr__(self, "r", r)
        if not is_simplex(r):
            raise ValueError("prior scores must lie on the probability simplex")


class ExplainerNet:
    """Maps (x, y) to a feature-importance distribution over d features."""

    def __init__(self, d: int, c: int, hidden: Sequence[int] = (32, 32),
                 feedback_fusion: str = "concat-raw",
                 rng: Optional[np.random.Generator] = None):
        if feedback_fusion not in FUSION_MODES:
            raise ConfigError(f"unknown feedback fusion: {feedback_fusion}")
        self.d = int(d)
        self.c = int(c)
        self.hidden = tuple(int(h) for h in hidden)
        self.feedback_fusion = feedback_fusion
        self.embed: Optional[Mlp] = None
        if feedback_fusion == "concat-embedded":
            self.embed = Mlp(c, EMBED_LAYERS, rng=rng)
            in_dim = self.d + self.embed.out_dim
        elif feedback_fusion == "concat-raw":
            in_dim = self.d + self.c
        else:
            in_dim = self.d
        self.backbone = Mlp(in_dim, classifier_layers(self.hidden, self.d), rng=rng)

    @property
    def n_params(self) -> int:
        n = self.backbone.n_params
        if self.embed is not None:
            n += self.embed.n_params
        return n

    @property
    def parameters(self) -> np.ndarray:
        if self.embed is None:
            return self.backbone.parameters.copy()
        return np.concatenate([self.embed.parameters, self.backbone.parameters])

    def set_parameters(self, vec: np.ndarray) -> None:
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (self.n_params,):
            raise ShapeError(f"expected {self.n_params} parameters, got {vec.shape}")
        if self.embed is None:
            self.backbone.set_parameters(vec)
        else:
            ne = self.embed.n_params
            self.embed.set_parameters(vec[:ne])
            self.backbone.set_parameters(vec[ne:])

    def _check(self, x: np.ndarray, y: np.ndarray):
        if x.shape[-1] != self.d:
            raise ShapeError(f"expected {self.d} features, got {x.shape[-1]}")
        if y.shape[-1] != self.c:
            raise ShapeError(f"expected {self.c} model outputs, got {y.shape[-1]}")

    def score(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Importance distribution z; batched when x is (n, d)."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        squeeze = x.ndim == 1
        if squeeze:
            x, y = x[None, :], y[None, :]
        self._check(x, y)
        if self.feedback_fusion == "none":
            inp = x
        elif self.feedback_fusion == "concat-raw":
            inp = np.concatenate([x, y], axis=1)
        else:
            inp = np.concatenate([x, self.embed.predict(y)], axis=1)
        z = self.backbone.predict(inp)
        return z[0] if squeeze else z

    def make_leaves(self) -> tuple:
        embed_leaves = self.embed.make_leaves() if self.embed is not None else []
        return embed_leaves, self.backbone.make_leaves()

    def score_var(self, x: np.ndarray, y: np.ndarray, leaves) -> ad.Var:
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        self._check(x, y)
        embed_leaves, backbone_leaves = leaves
        if self.feedback_fusion == "none":
            inp = ad.Var(x)
        elif self.feedback_fusion == "concat-raw":
            inp = ad.Var(np.concatenate([x, y], axis=1))
        else:
            emb = self.embed.forward_var(ad.Var(y), embed_leaves)
            inp = ad.concat([ad.Var(x), emb], axis=1)
        return self.backbone.forward_var(inp, backbone_leaves)

    def grad_from_leaves(self, leaves) -> np.ndarray:
        embed_leaves, backbone_leaves = leaves
        g = self.backbone.grad_from_leaves(backbone_leaves)
        if self.embed is None:
            return g
        return np.concatenate([self.embed.grad_from_leaves(embed_leaves), g])


# ---------------------------------------------------------------------------
# Prior fusion and constraint
# ---------------------------------------------------------------------------

def fuse_prior_var(z: ad.Var, r: np.ndarray, m: int) -> ad.Var:
    """Differentiable fusion for a batch: z (n, d), r (n, d) or (d,)."""
    if m < 0:
        raise ConfigError("epoch counter m must be >= 0")
    r = np.clip(np.asarray(r, dtype=np.float64), Z_EPS, None)
    logz = ad.log(ad.clamp_min(z, Z_EPS))
    logu = ad.mul(ad.add(ad.mul(logz, float(m)), np.log(r)), 1.0 / (m + 1.0))
    # Subtract the row max (a constant; it cancels in the normalization).
    shift = logu.value.max(axis=-1, keepdims=True)
    u = ad.exp(ad.sub(logu, shift))
    total = ad.sum_along(u, axis=1, keepdims=True)
    return ad.div(u, total)


def fuse_prior(z: np.ndarray, r, m: int) -> np.ndarray:
    """z~ propto (z^m r)^(1/(m+1)); m=0 returns the prior, m->inf returns z."""
    if m < 0:
        raise ConfigError("epoch counter m must be >= 0")
    z = np.asarray(z, dtype=np.float64)
    r_arr = r.r if isinstance(r, PriorScores) else np.asarray(r, dtype=np.float64)
    squeeze = z.ndim == 1
    zb = np.atleast_2d(z)
    out = fuse_prior_var(ad.Var(zb), np.atleast_2d(np.broadcast_to(r_arr, zb.shape)), m).value
    return out[0] if squeeze else out


def prior_constraint_loss_var(z_tilde: ad.Var, z: ad.Var, m: int) -> ad.Var:
    if m < 0:
        raise ConfigError("epoch counter m must be >= 0")
    return ad.mul(ad.mean_all(ad.absolute(ad.sub(z_tilde, z))), 1.0 / (m + 1.0))


def prior_constraint_loss(z_tilde: np.ndarray, z: np.ndarray, m: int) -> float:
    """Mean absolute error between z~ and z, faded by 1/(m+1)."""
    out = prior_constraint_loss_var(ad.Var(np.asarray(z_tilde, dtype=np.float64)),
                                    ad.Var(np.asarray(z, dtype=np.float64)), m)
    return float(out.value)
