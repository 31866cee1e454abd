"""Multi-direction sequence mixing block.

Each block normalizes the incoming token sequence, projects it to a widened
stream x and a gate stream z, then runs x through four branches: as-is,
rotated by a random start offset, reversed, and rotated-then-reversed.  The
rotation models the unknown heading a revisited place is seen from; training
with a random offset per step teaches the scan to tolerate it, and at
evaluation the offset is pinned to 0 so descriptors are deterministic.  Each
branch applies its own circular convolution and selective state-space scan,
is re-aligned to forward orientation, and is gated by SiLU(z); the sum is
projected back and added to the input (residual).

Parameters live in the model's name -> Tensor dict: block i's tensors under
"olm.L<i>" (e.g. "olm.L0.lin_x.weight"), each branch's convolution and scan
tensors under "olm.L<i>.<direction>", and the final normalization under
"olm.final_norm".  ``pipeline.param_layout`` gives their shapes and
initialisers.  A block takes no configuration: its token width is the rows
of its "lin_x.weight", and each scan reads its widths from its own tensors;
``olm_stack`` reads only the block count of the model's ``ModelConfig``.

Per branch, the hot kernels are one tape node each: the convolution and its
bias are a single GEMM (``tensor.conv1d_circular``), each projection is one
``tensor.linear`` and the scan is the fused ``ssm.selective_scan``, so a
branch records under twenty nodes, not hundreds.  The convolution keeps
channels innermost, so the (B, E, M) transpose of a branch's (B, M, E)
stream is a view it reads without a copy, and its output, transposed back,
is channels-last again.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import ssm
from . import tensor as tt
from .errors import ContractError, ShapeError

if TYPE_CHECKING:
    from .pipeline import ModelConfig

DIRECTIONS = ("forward", "forward_shifted", "backward", "backward_shifted")


def shift(x: tt.Tensor, a: int) -> tt.Tensor:
    """Rotate the sequence start: output position i holds input (i+a) mod M."""
    x = tt.as_tensor(x)
    m = x.shape[1]
    if not 0 <= a < m:
        raise ContractError(f"start offset {a} outside [0, {m})")
    if a == 0:
        return x
    return tt.roll(x, -a, axis=1)


def flip(x: tt.Tensor) -> tt.Tensor:
    """Reverse the sequence: output position i holds input M-1-i."""
    return tt.flip(tt.as_tensor(x), axis=1)


def olm_forward(t_prev: tt.Tensor, params: dict, rng: np.random.Generator,
                prefix: str = "olm.L0") -> tt.Tensor:
    """One mixing block, its tensors read from params under prefix:
    (B, M, D) -> (B, M, D), with D the rows of its "lin_x.weight".

    A generator makes it a training forward: exactly one integer is drawn
    from rng (the start offset, shared by both rotated branches).  With rng
    None (eval) nothing is drawn and the offset is 0.
    """
    def p(name):
        return params[f"{prefix}.{name}"]

    t_prev = tt.as_tensor(t_prev)
    d = p("lin_x.weight").shape[0]
    if t_prev.ndim != 3 or t_prev.shape[2] != d:
        raise ShapeError(
            f"block input must be (B, M, {d}), got {t_prev.shape} (token projection)"
        )

    m = t_prev.shape[1]
    tp = tt.layer_norm(t_prev, p("norm.gain"), p("norm.bias"))
    x = tt.linear(tp, p("lin_x.weight"), p("lin_x.bias"))
    z = tt.linear(tp, p("lin_z.weight"), p("lin_z.bias"))
    a = int(rng.integers(0, m)) if rng is not None else 0
    gate = tt.silu(z)

    total = None
    for name in DIRECTIONS:
        xo = x
        if name.endswith("shifted"):
            xo = shift(xo, a)
        if name.startswith("backward"):
            xo = flip(xo)
        stream = tt.transpose(xo, (0, 2, 1))
        stream = tt.silu(tt.conv1d_circular(stream, p(f"{name}.conv1d.weight"),
                                            p(f"{name}.conv1d.bias")))
        xp = tt.transpose(stream, (0, 2, 1))
        yo = ssm.selective_ssm(xp, params, f"{prefix}.{name}")
        if name.startswith("backward"):
            yo = flip(yo)
        if name.endswith("shifted"):
            yo = shift(yo, (m - a) % m)
        gated = tt.mul(yo, gate)
        total = gated if total is None else tt.add(total, gated)

    return tt.add(tt.linear(total, p("lin_T.weight"), p("lin_T.bias")), t_prev)


def olm_stack(t0: tt.Tensor, params: dict, cfg: ModelConfig,
              rng: np.random.Generator) -> tt.Tensor:
    """All cfg.olm_blocks blocks in order, then a final per-position
    normalization."""
    x = t0
    for i in range(cfg.olm_blocks):
        x = olm_forward(x, params, rng, f"olm.L{i}")
    return tt.layer_norm(x, params["olm.final_norm.gain"], params["olm.final_norm.bias"])
