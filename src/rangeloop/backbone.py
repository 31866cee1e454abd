"""Convolutional feature extractor for range images.

Every convolution has width-kernel 1 and vertical stride only, so column j
of the output depends on column j of the input alone: circularly shifting
the image columns shifts the feature sequence by exactly the same amount.
A stage plan compresses the image height to 1, leaving a (B, W, C) token
sequence; sequential pyramid pooling (chained same-length circular max
pools) then spreads horizontal context without breaking that equivariance.

The model has one configuration, ``pipeline.ModelConfig``: the forwards
read its stage strides and pooling fields, and every channel count comes
from the weights they receive.  ``height_trace`` is the plan check that
``ModelConfig`` runs once when it is built.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

from . import tensor as tt
from .errors import ConfigError, ShapeError

if TYPE_CHECKING:
    from .pipeline import ModelConfig


def height_trace(stages, h: int) -> List[int]:
    """Heights after each (C, k, s) stage of a plan; must end at exactly 1."""
    trace = [h]
    for _, k, s in stages:
        if k > trace[-1]:
            raise ConfigError(
                f"stage plan dies at height {trace[-1]} < kernel {k}; trace so far {trace}"
            )
        trace.append((trace[-1] - k) // s + 1)
    if trace[-1] != 1:
        raise ConfigError(f"stage plan does not reach height 1: trace {trace}")
    return trace


def default_stages(h: int, c_final: int = 256) -> Tuple[Tuple[int, int, int], ...]:
    """Halving plan for power-of-two input heights: kernel 2, stride 2 per
    stage, channels doubling up to c_final (e.g. 64 rows: 1->16->...->256)."""
    n = 0
    hh = h
    while hh > 1:
        if hh % 2:
            raise ConfigError(f"no default plan for height {h}; provide stages explicitly")
        hh //= 2
        n += 1
    if n == 0:
        raise ConfigError("input height must exceed 1")
    stages = []
    for i in range(n):
        c = c_final if i == n - 1 else max(1, c_final // 2 ** (n - 2 - i))
        stages.append((c, 2, 2))
    return tuple(stages)


def spp_forward(x: tt.Tensor, params: dict, cfg: ModelConfig) -> tt.Tensor:
    """Pyramid pooling on a (B, C, M) stream."""
    levels = [x]
    for _ in range(cfg.spp_depth):
        levels.append(tt.maxpool1d_circular(levels[-1], cfg.spp_kernel))
    if cfg.spp_mode == "add":
        out = levels[0]
        for lv in levels[1:]:
            out = tt.add(out, lv)
        return out
    cat = tt.concat(levels, axis=1)
    return tt.conv1d_circular(cat, params["backbone.spp.weight"], params["backbone.spp.bias"])


def backbone_forward(x: tt.Tensor, params: dict, cfg: ModelConfig) -> tt.Tensor:
    """(B, C_in, H, W) image batch -> (B, W, C) token sequence; H must be
    the model's cfg.h rows and W at least one column."""
    x = tt.as_tensor(x)
    if x.ndim != 4:
        raise ConfigError(f"backbone input must be (B, C, H, W), got {x.shape}")
    if x.shape[2] != cfg.h:
        raise ShapeError(f"range image has {x.shape[2]} rows, the model expects {cfg.h}")
    if x.shape[3] == 0:
        raise ShapeError("range image has no columns")
    for i, (_, _, s) in enumerate(cfg.stages):
        x = tt.silu(tt.conv_vertical(x, params[f"backbone.s{i}.weight"],
                                     params[f"backbone.s{i}.bias"], stride_h=s))
    bsz, c, _, m = x.shape
    seq = spp_forward(tt.reshape(x, (bsz, c, m)), params, cfg)
    return tt.transpose(seq, (0, 2, 1))
