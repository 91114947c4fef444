"""Score network with model-output feedback, plus the prior warm start.

The prior fusion combines the explainer's scores z with an efficient
method's scores r through a naive-Bayes product whose prior influence
decays as the epoch counter m grows:

    z~_j  propto  (z_j^m * r_j)^(1/(m+1))
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .core import ConfigError, Mlp, ShapeError
from .sampler import Z_EPS


class ExplainerNet(Mlp):
    """Maps (x, y) to a feature-importance distribution over d features.

    The network reads [x, y], the features followed by the model output, or
    x alone when `use_output` is off.
    """

    def __init__(self, d: int, c: int, hidden: Sequence[int] = (32, 32),
                 use_output: bool = True, rng: Optional[np.random.Generator] = None):
        self.d = int(d)
        self.c = int(c)
        self.use_output = bool(use_output)
        super().__init__(self.d + self.c if self.use_output else self.d,
                         (*hidden, self.d), rng=rng)

    def _input(self, x, y) -> np.ndarray:
        """[x, y] (or x) after checking the row counts and the feature and
        output widths."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.shape[:-1] != y.shape[:-1]:
            raise ShapeError(f"features {x.shape} and model outputs {y.shape} "
                             f"differ in their rows")
        if x.shape[-1] != self.d:
            raise ShapeError(f"expected {self.d} features, got {x.shape[-1]}")
        if y.shape[-1] != self.c:
            raise ShapeError(f"expected {self.c} model outputs, got {y.shape[-1]}")
        return np.concatenate([x, y], axis=-1) if self.use_output else x

    def score(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Importance distribution z; batched when x is (n, d)."""
        return self.predict(self._input(x, y))

    def score_var(self, x: np.ndarray, y: np.ndarray, leaf: ad.Var) -> ad.Var:
        """`score` as one tape node; `leaf` is a Var over the flat parameters."""
        return self.forward_var(self._input(x, y), leaf)


# ---------------------------------------------------------------------------
# Prior fusion and constraint
# ---------------------------------------------------------------------------

def fuse_prior_var(z: ad.Var, r: np.ndarray, m: int) -> ad.Var:
    """z~ propto (z^m r)^(1/(m+1)) for a batch: z (n, d), r (n, d) or (d,);
    m=0 returns the prior, m->inf returns z. One tape node."""
    if m < 0:
        raise ConfigError("epoch counter m must be >= 0")
    r = np.clip(np.asarray(r, dtype=np.float64), Z_EPS, None)
    inv = 1.0 / (m + 1.0)
    above = z.value > Z_EPS
    z_floor = np.maximum(z.value, Z_EPS)
    logu = (np.log(z_floor) * float(m) + np.log(r)) * inv
    # Subtract the row max (a constant; it cancels in the normalization).
    u = np.exp(logu - logu.max(axis=-1, keepdims=True))
    total = u.sum(axis=1, keepdims=True)
    out = u / total

    def vjp(g):
        g_u = g / total + (-g * out / total).sum(axis=1, keepdims=True)
        return (g_u * u * inv * float(m) / z_floor * above,)

    return ad.Var(out, (z,), vjp)


def prior_constraint_loss_var(z_tilde: ad.Var, z: ad.Var, m: int, weight: float = 1.0) -> tuple:
    """(node, L_e): L_e is the mean absolute error between z~ and z, faded by
    1/(m+1), and the node, one tape node, is weight * L_e."""
    if m < 0:
        raise ConfigError("epoch counter m must be >= 0")
    diff = z_tilde.value - z.value
    sign = np.sign(diff)
    inv = 1.0 / (m + 1.0)
    l_e = np.abs(diff).mean() * inv

    def vjp(g):
        g_tilde = g * weight * inv / diff.size * sign
        return g_tilde, -g_tilde

    return ad.Var(weight * l_e, (z_tilde, z), vjp), l_e
