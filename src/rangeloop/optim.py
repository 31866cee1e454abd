"""Adam optimizer over the model's name -> Tensor parameter dict."""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .tensor import Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # moment decays and denominator guard


class Adam:
    """Adam with bias-corrected moment estimates.

    Parameters are a name -> Tensor mapping, such as ``pl.init_model``
    returns; moments are kept per name so a checkpoint round trip (which
    rebuilds Tensor objects) does not disturb optimizer state association.
    """

    def __init__(self, params, lr: float = 5e-6):
        if lr < 0.0:
            raise ContractError(f"learning rate must be >= 0, got {lr}")
        self.params = dict(params)
        for name, p in self.params.items():
            if not isinstance(p, Tensor) or not p.requires_grad:
                raise ContractError(f"parameter {name!r} is not a trainable tensor")
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self) -> None:
        """Apply one update from accumulated grads, then zero the grads."""
        missing = [k for k in sorted(self.params) if self.params[k].grad is None]
        if missing:
            raise ContractError(f"adam step with no gradient for parameter {missing[0]!r}")
        self.t += 1
        c1 = 1.0 - BETA1**self.t
        c2 = 1.0 - BETA2**self.t
        for name in sorted(self.params):
            p = self.params[name]
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            mhat = m / c1
            vhat = v / c2
            p.data -= self.lr * mhat / (np.sqrt(vhat) + EPS)
        self.zero_grad()

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None
