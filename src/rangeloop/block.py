"""Multi-direction sequence mixing block.

Each block normalizes the incoming token sequence, projects it to a widened
stream x and a gate stream z, then runs four branches over x, each a
circular convolution and a selective state-space scan: as-is, rotated by a
random start offset, reversed, and rotated-then-reversed.  The rotation
models the unknown heading a revisited place is seen from; training with a
random offset per step teaches the scan to tolerate it, and at evaluation
the offset is pinned to 0 so descriptors are deterministic.  The four
orientations are step orders of one stream, not copies of it: a circular
convolution commutes with a rotation, and with a reversal once its taps are
mirrored (``conv1d_circular(reverse=True)``), so only the scan runs in the
branch's order.  The branch outputs, gated by SiLU(z), are summed,
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
branch records ten nodes, not hundreds.  The convolution keeps
channels innermost, so the (B, E, M) transpose of the (B, M, E) stream, one
view shared by the four branches, is read without a copy, and each output,
transposed back, is channels-last again.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import ssm
from . import tensor as tt
from .errors import ShapeError

if TYPE_CHECKING:
    from .pipeline import ModelConfig

DIRECTIONS = ("forward", "forward_shifted", "backward", "backward_shifted")


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

    xt = tt.transpose(x, (0, 2, 1))
    total = None
    for name in DIRECTIONS:
        order = np.roll(np.arange(m), -a if name.endswith("shifted") else 0)
        reverse = name.startswith("backward")
        stream = tt.silu(tt.conv1d_circular(xt, p(f"{name}.conv1d.weight"),
                                            p(f"{name}.conv1d.bias"), reverse))
        xp = tt.transpose(stream, (0, 2, 1))
        y = ssm.selective_ssm(xp, params, f"{prefix}.{name}",
                              order[::-1] if reverse else order)
        gated = tt.mul(y, gate)
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
