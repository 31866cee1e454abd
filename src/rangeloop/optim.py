"""Adam optimizer over the model's name -> Tensor parameter dict."""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .tensor import Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # moment decays and denominator guard
CHUNK = 1 << 15  # elements per pass: 256 KiB per float64 array stays in cache


class Adam:
    """Adam with bias-corrected moment estimates.

    Parameters are a name -> Tensor mapping, such as ``pl.init_model``
    returns; moments are kept per name so a checkpoint round trip (which
    rebuilds Tensor objects) does not disturb optimizer state association.
    """

    def __init__(self, params, lr: float = 5e-6):
        if not 0 <= lr < np.inf:  # NaN fails too
            raise ContractError(f"learning rate must be finite and >= 0, got {lr}")
        self.params = dict(params)
        for name, p in self.params.items():
            if not isinstance(p, Tensor) or not p.requires_grad:
                raise ContractError(f"parameter {name!r} is not a trainable tensor")
            # the step walks the flat array in place
            p.data = np.asarray(p.data, order="C")
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        # two chunk-sized scratch arrays: a step allocates nothing and keeps
        # no second copy of the model
        size = min(CHUNK, max((p.data.size for p in self.params.values()), default=0))
        self._scratch = (np.empty(size), np.empty(size))

    def step(self) -> None:
        """Apply one update from accumulated grads, then zero the grads.

        In place, in the order of the expression
        ``p -= lr * (m / c1) / (sqrt(v / c2) + EPS)``, so the result is the
        same bit for bit as evaluating it with temporaries.  The update is
        elementwise, so each flat parameter is walked in ``CHUNK``-element
        slices that stay in cache across the expression's passes."""
        missing = [k for k in sorted(self.params) if self.params[k].grad is None]
        if missing:
            raise ContractError(f"adam step with no gradient for parameter {missing[0]!r}")
        self.t += 1
        c1 = 1.0 - BETA1**self.t
        c2 = 1.0 - BETA2**self.t
        num, den = self._scratch
        for name in sorted(self.params):
            p = self.params[name]
            flat = [a.reshape(-1) for a in (p.data, p.grad, self.m[name], self.v[name])]
            for lo in range(0, p.data.size, CHUNK):
                w, g, m, v = (a[lo:lo + CHUNK] for a in flat)
                n, d = num[:m.size], den[:m.size]
                m *= BETA1
                m += np.multiply(1.0 - BETA1, g, out=n)
                v *= BETA2
                np.multiply(g, g, out=d)
                v += np.multiply(1.0 - BETA2, d, out=d)
                np.divide(m, c1, out=n)
                n *= self.lr  # lr * mhat
                np.divide(v, c2, out=d)
                np.sqrt(d, out=d)
                d += EPS
                w -= np.divide(n, d, out=n)
        self.zero_grad()

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None
