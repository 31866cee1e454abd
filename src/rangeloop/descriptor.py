"""Global descriptor head: learned-cluster aggregation plus an MLP.

The aggregation sums soft-assigned residuals over sequence positions, after
gathering the positions into one canonical row order.  Any permutation of the
token sequence, so a yaw shift, then leaves the descriptor bit-identical, not
just equal up to rounding: the property that makes retrieval insensitive to
the heading the sensor had when a place was revisited.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tt
from .errors import ConfigError, DegenerateInputError, ShapeError


@dataclass(frozen=True)
class VladConfig:
    d: int  # token channel count
    k: int = 64  # cluster count
    hidden: int = 1024  # MLP hidden width
    out: int = 256  # descriptor dimension

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError(f"cluster count must be >= 1, got {self.k}")
        if self.out < 1 or self.hidden < 1 or self.d < 1:
            raise ConfigError(f"invalid dims d={self.d} hidden={self.hidden} out={self.out}")


class GdgParams:
    def __init__(self, centers, assign_w, assign_b, mlp_w1, mlp_b1, mlp_w2, mlp_b2):
        self.centers = centers  # (K, D)
        self.assign_w = assign_w  # (D, K)
        self.assign_b = assign_b  # (K,)
        self.mlp_w1 = mlp_w1  # (K*D, hidden)
        self.mlp_b1 = mlp_b1
        self.mlp_w2 = mlp_w2  # (hidden, out)
        self.mlp_b2 = mlp_b2

    def named(self, prefix: str = "gdg") -> dict:
        return {
            f"{prefix}.centers": self.centers,
            f"{prefix}.assign.weight": self.assign_w,
            f"{prefix}.assign.bias": self.assign_b,
            f"{prefix}.mlp1.weight": self.mlp_w1,
            f"{prefix}.mlp1.bias": self.mlp_b1,
            f"{prefix}.mlp2.weight": self.mlp_w2,
            f"{prefix}.mlp2.bias": self.mlp_b2,
        }


def init_gdg(rng: np.random.Generator, cfg: VladConfig) -> GdgParams:
    def uniform(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return tt.Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)

    return GdgParams(
        centers=tt.Tensor(rng.standard_normal((cfg.k, cfg.d)) * 0.1, requires_grad=True),
        assign_w=uniform((cfg.d, cfg.k), cfg.d),
        assign_b=tt.Tensor(np.zeros(cfg.k), requires_grad=True),
        mlp_w1=uniform((cfg.k * cfg.d, cfg.hidden), cfg.k * cfg.d),
        mlp_b1=tt.Tensor(np.zeros(cfg.hidden), requires_grad=True),
        mlp_w2=uniform((cfg.hidden, cfg.out), cfg.hidden),
        mlp_b2=tt.Tensor(np.zeros(cfg.out), requires_grad=True),
    )


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


def gdg_forward(seq: tt.Tensor, params: GdgParams, cfg: VladConfig) -> tt.Tensor:
    """Token sequence -> unit-norm (B, out) descriptor batch."""
    v = netvlad_forward(seq, params.centers, params.assign_w, params.assign_b)
    h = tt.silu(tt.linear(v, params.mlp_w1, params.mlp_b1))
    g = tt.linear(h, params.mlp_w2, params.mlp_b2)
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
