"""Global descriptor head: learned-cluster aggregation plus an MLP.

The aggregation sums soft-assigned residuals over sequence positions, after
gathering the positions into one canonical row order.  Any permutation of the
token sequence, so a yaw shift, then leaves the descriptor bit-identical, not
just equal up to rounding: the property that makes retrieval insensitive to
the heading the sensor had when a place was revisited.

The head's tensors are the "gdg.*" entries of the model's name -> Tensor
dict; ``pipeline.param_layout`` gives their shapes and initialisers.
"""

from __future__ import annotations

import numpy as np

from . import tensor as tt
from .errors import DegenerateInputError, ShapeError


def netvlad_forward(seq: tt.Tensor, centers: tt.Tensor, assign_w: tt.Tensor,
                    assign_b: tt.Tensor) -> tt.Tensor:
    """Soft-assigned residual aggregation: (B, M, D) -> (B, K*D).

    alpha = softmax_K(seq @ assign_w + assign_b) per position; cluster k
    accumulates sum_m alpha_k(m) * (x_m - c_k).  Clusters are normalized
    individually (zero clusters stay zero), then the flattened vector is
    normalized once more.
    """
    seq = tt.as_tensor(seq)
    if seq.ndim != 3:
        raise ShapeError(f"token sequence must be (B, M, D), got {seq.shape}")
    bsz, _, d = seq.shape
    k = centers.shape[0]
    if centers.shape != (k, d) or assign_w.shape != (d, k):
        raise ShapeError(
            f"cluster table {centers.shape} / assignment {assign_w.shape} do not match D={d}"
        )
    # canonical order: rows sorted as byte strings, so only bit-identical
    # (interchangeable) rows tie and any permutation gathers to the same bits
    rows = np.ascontiguousarray(seq.data).view(np.dtype((np.void, 8 * d)))
    order = np.argsort(rows, axis=1)  # (B, M, 1)
    seq = tt.take_along(seq, order, axis=1)
    alpha = tt.softmax(tt.linear(seq, assign_w, assign_b), axis=-1)  # (B, M, K)
    weighted = tt.einsum2("bmk,bmd->bkd", alpha, seq)
    counts = tt.tsum(alpha, axis=1)  # (B, K)
    residuals = tt.sub(weighted, tt.einsum2("bk,kd->bkd", counts, centers))
    intra = tt.l2_normalize(residuals, axis=2)
    flat = tt.reshape(intra, (bsz, k * d))
    return tt.l2_normalize(flat, axis=1)


def gdg_forward(seq: tt.Tensor, params: dict) -> tt.Tensor:
    """Token sequence -> unit-norm (B, out) descriptor batch."""
    v = netvlad_forward(seq, params["gdg.centers"], params["gdg.assign.weight"],
                        params["gdg.assign.bias"])
    h = tt.silu(tt.linear(v, params["gdg.mlp1.weight"], params["gdg.mlp1.bias"]))
    g = tt.linear(h, params["gdg.mlp2.weight"], params["gdg.mlp2.bias"])
    if not np.all(np.isfinite(g.data)):
        rows = np.nonzero(~np.isfinite(g.data).all(axis=1))[0].tolist()
        raise DegenerateInputError(
            f"descriptor is not finite for batch rows {rows}"
        )
    norms = np.sqrt((g.data**2).sum(axis=1))
    if np.any(norms == 0.0):
        rows = np.nonzero(norms == 0.0)[0].tolist()
        raise DegenerateInputError(
            f"descriptor collapsed to the zero vector for batch rows {rows}"
        )
    return tt.l2_normalize(g, axis=1)
