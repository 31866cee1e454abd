"""Multi-direction sequence mixing block.

Each block normalizes the incoming token sequence, projects it to a widened
stream x and a gate stream z, then runs four branches over x, each a
circular convolution and a selective state-space scan: as-is, rotated to
start at a given offset, reversed, and rotated-then-reversed.  The rotation
models the unknown heading a revisited place is seen from; ``training``
draws each block's offset at random per step to teach the scan to tolerate
it, and the eval forward uses 0; the block draws nothing.  The four
orientations are step orders of one stream, not copies of it: a circular
convolution commutes with a rotation, and with a reversal once its taps are
mirrored (``conv1d_circular(reverse=True)``), so only the scan runs in the
branch's order.  The branch outputs, gated by SiLU(z), are summed,
projected back and added to the input (residual).  The branches share
their inputs and nothing else until that sum, so a block whose branch
convolutions are large (``_CONCURRENT_MACS``) runs them side by side with
``tt.concurrent`` and adds their outputs in ``DIRECTIONS`` order as they
arrive: the sum, the tape and every gradient are the serial ones, bit for
bit.

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

from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from . import ssm
from . import tensor as tt
from .errors import ContractError, ShapeError

if TYPE_CHECKING:
    from .pipeline import ModelConfig

DIRECTIONS = ("forward", "forward_shifted", "backward", "backward_shifted")

# The four branches run concurrently (``tt.concurrent``) from this many
# branch-convolution multiply-adds, B*M*E*E*k, on.  Break-even, measured on a
# 2-vCPU Xeon VM with one BLAS thread, median of 30 alternating taped
# forward+backward passes of one block: 0.96x at 7.9e6 (the acceptance
# model's 5-scan tuple: E=64, M=128), 1.00x at 1.3e7 (E=512, M=16), 1.08x
# at 1.6e7 (E=64, B=10).  A paper-size scan (E=512, M=900) is 7.1e8 and
# runs its eval forward 1.58x faster.  Below, the branches run in order on
# the calling thread: the thread hand-offs cost more than they overlap.
_CONCURRENT_MACS = 15_000_000


def olm_forward(t_prev: tt.Tensor, params: dict, offset: int = 0,
                prefix: str = "olm.L0") -> tt.Tensor:
    """One mixing block, its tensors read from params under prefix:
    (B, M, D) -> (B, M, D), with D the rows of its "lin_x.weight".

    Both rotated branches start their scan at position ``offset`` mod M;
    0 is the eval forward.
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
    gate = tt.silu(z)

    xt = tt.transpose(x, (0, 2, 1))

    def branch(name):
        order = np.roll(np.arange(m), -offset if name.endswith("shifted") else 0)
        reverse = name.startswith("backward")
        stream = tt.silu(tt.conv1d_circular(xt, p(f"{name}.conv1d.weight"),
                                            p(f"{name}.conv1d.bias"), reverse))
        xp = tt.transpose(stream, (0, 2, 1))
        y = ssm.selective_ssm(xp, params, f"{prefix}.{name}",
                              order[::-1] if reverse else order)
        return tt.mul(y, gate)

    branches = [partial(branch, name) for name in DIRECTIONS]
    o, c, k = p(f"{DIRECTIONS[0]}.conv1d.weight").shape
    if t_prev.shape[0] * m * o * c * k >= _CONCURRENT_MACS:
        results = tt.concurrent(branches)
    else:
        results = (fn() for fn in branches)
    total = None
    for gated in results:
        total = gated if total is None else tt.add(total, gated)

    return tt.add(tt.linear(total, p("lin_T.weight"), p("lin_T.bias")), t_prev)


def olm_stack(t0: tt.Tensor, params: dict, cfg: ModelConfig,
              offsets=None) -> tt.Tensor:
    """All cfg.olm_blocks blocks in order, block i at offsets[i] (None: all 0,
    the eval forward), then a final per-position normalization."""
    offsets = (0,) * cfg.olm_blocks if offsets is None else offsets
    if len(offsets) != cfg.olm_blocks:
        raise ContractError(f"need one start offset per mixing block, got {len(offsets)}")
    x = t0
    for i, offset in enumerate(offsets):
        x = olm_forward(x, params, offset, f"olm.L{i}")
    return tt.layer_norm(x, params["olm.final_norm.gain"], params["olm.final_norm.bias"])
