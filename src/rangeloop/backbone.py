"""Convolutional feature extractor for range images.

Every convolution has width-kernel 1 and vertical stride only, so column j
of the output depends on column j of the input alone: circularly shifting
the image columns shifts the feature sequence by exactly the same amount.
A stage plan compresses the image height to 1, leaving a (B, W, C) token
sequence; sequential pyramid pooling (chained same-length circular max
pools) then spreads horizontal context without breaking that equivariance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from . import tensor as tt
from .errors import ConfigError


@dataclass(frozen=True)
class SppConfig:
    kernel: int = 5
    depth: int = 3
    mode: str = "concat"

    def __post_init__(self):
        if self.kernel % 2 == 0 or self.kernel < 1:
            raise ConfigError(f"pooling kernel must be odd, got {self.kernel}")
        if self.depth < 1:
            raise ConfigError(f"pooling depth must be >= 1, got {self.depth}")
        if self.mode not in ("concat", "add"):
            raise ConfigError(f"spp mode must be concat or add, got {self.mode!r}")


@dataclass(frozen=True)
class BackboneConfig:
    stages: Tuple[Tuple[int, int, int], ...]  # (out_channels, kernel_h, stride_h)
    spp: SppConfig = field(default_factory=SppConfig)

    def __post_init__(self):
        if not self.stages:
            raise ConfigError("backbone needs at least one stage")
        for c, k, s in self.stages:
            if c < 1 or k < 1 or s < 1:
                raise ConfigError(f"invalid stage ({c}, {k}, {s})")

    @property
    def out_channels(self) -> int:
        return self.stages[-1][0]

    def height_trace(self, h: int) -> List[int]:
        """Heights after each stage; must end at exactly 1."""
        trace = [h]
        for _, k, s in self.stages:
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


def _spp_channels_first(x: tt.Tensor, params: dict, cfg: SppConfig) -> tt.Tensor:
    """Pyramid pooling on a (B, C, M) stream."""
    levels = [x]
    for _ in range(cfg.depth):
        levels.append(tt.maxpool1d_circular(levels[-1], cfg.kernel))
    if cfg.mode == "add":
        out = levels[0]
        for lv in levels[1:]:
            out = tt.add(out, lv)
        return out
    cat = tt.concat(levels, axis=1)
    return tt.add_channel_bias(tt.conv1d_circular(cat, params["backbone.spp.weight"]),
                               params["backbone.spp.bias"])


def spp_forward(seq: tt.Tensor, params: dict, cfg: SppConfig) -> tt.Tensor:
    """Pyramid pooling on a (B, M, D) token sequence."""
    x = tt.transpose(seq, (0, 2, 1))
    out = _spp_channels_first(x, params, cfg)
    return tt.transpose(out, (0, 2, 1))


def backbone_forward(x: tt.Tensor, params: dict, cfg: BackboneConfig) -> tt.Tensor:
    """(B, C_in, H, W) image batch -> (B, W, C) token sequence."""
    x = tt.as_tensor(x)
    if x.ndim != 4:
        raise ConfigError(f"backbone input must be (B, C, H, W), got {x.shape}")
    cfg.height_trace(x.shape[2])
    for i, (_, _, s) in enumerate(cfg.stages):
        x = tt.conv_vertical(x, params[f"backbone.s{i}.weight"], stride_h=s)
        x = tt.silu(tt.add_channel_bias(x, params[f"backbone.s{i}.bias"]))
    bsz, c, _, m = x.shape
    seq = tt.reshape(x, (bsz, c, m))
    seq = _spp_channels_first(seq, params, cfg.spp)
    return tt.transpose(seq, (0, 2, 1))
