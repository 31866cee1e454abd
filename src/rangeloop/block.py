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

Per branch, the two hot kernels are one tape node each: the convolution is
a single GEMM (``tensor.conv1d_circular``) and the scan is the fused
``ssm.selective_scan``, so a branch records a few dozen nodes, not hundreds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ssm
from . import tensor as tt
from .errors import ConfigError, ContractError, ShapeError

DIRECTIONS = ("forward", "forward_shifted", "backward", "backward_shifted")


@dataclass(frozen=True)
class OlmConfig:
    d: int  # token channel count
    e: int = 0  # widened channel count; 0 means 2*d
    n: int = 16  # state dimension per channel
    l: int = 1  # block count
    conv_kernel: int = 3

    def __post_init__(self):
        if self.l < 1:
            raise ConfigError(f"block count must be >= 1, got {self.l}")
        if self.n < 1:
            raise ConfigError(f"state dimension must be >= 1, got {self.n}")
        if self.e and self.e < self.d:
            raise ConfigError(f"widened dim {self.e} must be >= token dim {self.d}")
        if self.conv_kernel % 2 == 0:
            raise ConfigError(f"branch conv kernel must be odd, got {self.conv_kernel}")

    @property
    def e_eff(self) -> int:
        return self.e if self.e else 2 * self.d

    @property
    def rank(self) -> int:
        return ssm.dt_rank_for(self.d)


class OlmBlockParams:
    def __init__(self, norm_gain, norm_bias, lin_x_w, lin_x_b, lin_z_w, lin_z_b,
                 directions, lin_t_w, lin_t_b):
        self.norm_gain = norm_gain
        self.norm_bias = norm_bias
        self.lin_x_w = lin_x_w
        self.lin_x_b = lin_x_b
        self.lin_z_w = lin_z_w
        self.lin_z_b = lin_z_b
        self.directions = directions  # name -> (conv_w, conv_b, SsmParams)
        self.lin_t_w = lin_t_w
        self.lin_t_b = lin_t_b

    def named(self, prefix: str) -> dict:
        out = {
            f"{prefix}.norm.gain": self.norm_gain,
            f"{prefix}.norm.bias": self.norm_bias,
            f"{prefix}.lin_x.weight": self.lin_x_w,
            f"{prefix}.lin_x.bias": self.lin_x_b,
            f"{prefix}.lin_z.weight": self.lin_z_w,
            f"{prefix}.lin_z.bias": self.lin_z_b,
            f"{prefix}.lin_T.weight": self.lin_t_w,
            f"{prefix}.lin_T.bias": self.lin_t_b,
        }
        for name in DIRECTIONS:
            conv_w, conv_b, sp = self.directions[name]
            out[f"{prefix}.{name}.conv1d.weight"] = conv_w
            out[f"{prefix}.{name}.conv1d.bias"] = conv_b
            out.update(sp.named(f"{prefix}.{name}"))
        return out


class OlmParams:
    def __init__(self, blocks, final_gain, final_bias):
        self.blocks = list(blocks)
        self.final_gain = final_gain
        self.final_bias = final_bias

    def named(self, prefix: str = "olm") -> dict:
        out = {}
        for i, blk in enumerate(self.blocks):
            out.update(blk.named(f"{prefix}.L{i}"))
        out[f"{prefix}.final_norm.gain"] = self.final_gain
        out[f"{prefix}.final_norm.bias"] = self.final_bias
        return out


def _uniform(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(fan_in)
    return tt.Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def init_block(rng: np.random.Generator, cfg: OlmConfig) -> OlmBlockParams:
    d, e, k = cfg.d, cfg.e_eff, cfg.conv_kernel
    directions = {}
    for name in DIRECTIONS:
        conv_w = _uniform(rng, (e, e, k), e * k)
        conv_b = tt.Tensor(np.zeros(e), requires_grad=True)
        directions[name] = (conv_w, conv_b, ssm.init_ssm_params(rng, e, cfg.n, cfg.rank))
    return OlmBlockParams(
        norm_gain=tt.Tensor(np.ones(d), requires_grad=True),
        norm_bias=tt.Tensor(np.zeros(d), requires_grad=True),
        lin_x_w=_uniform(rng, (d, e), d),
        lin_x_b=tt.Tensor(np.zeros(e), requires_grad=True),
        lin_z_w=_uniform(rng, (d, e), d),
        lin_z_b=tt.Tensor(np.zeros(e), requires_grad=True),
        directions=directions,
        lin_t_w=_uniform(rng, (e, d), e),
        lin_t_b=tt.Tensor(np.zeros(d), requires_grad=True),
    )


def init_olm(rng: np.random.Generator, cfg: OlmConfig) -> OlmParams:
    blocks = [init_block(rng, cfg) for _ in range(cfg.l)]
    return OlmParams(
        blocks=blocks,
        final_gain=tt.Tensor(np.ones(cfg.d), requires_grad=True),
        final_bias=tt.Tensor(np.zeros(cfg.d), requires_grad=True),
    )


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


def olm_forward(t_prev: tt.Tensor, params: OlmBlockParams, cfg: OlmConfig,
                rng: np.random.Generator) -> tt.Tensor:
    """One mixing block: (B, M, D) -> (B, M, D).

    A generator makes it a training forward: exactly one integer is drawn
    from rng (the start offset, shared by both rotated branches).  With rng
    None (eval) nothing is drawn and the offset is 0.
    """
    t_prev = tt.as_tensor(t_prev)
    if t_prev.ndim != 3 or t_prev.shape[2] != cfg.d:
        raise ShapeError(
            f"block input must be (B, M, {cfg.d}), got {t_prev.shape} (token projection)"
        )
    m = t_prev.shape[1]
    tp = tt.layer_norm(t_prev, params.norm_gain, params.norm_bias)
    x = tt.linear(tp, params.lin_x_w, params.lin_x_b)
    z = tt.linear(tp, params.lin_z_w, params.lin_z_b)
    a = int(rng.integers(0, m)) if rng is not None else 0
    gate = tt.silu(z)

    total = None
    for name in DIRECTIONS:
        conv_w, conv_b, sp = params.directions[name]
        xo = x
        if name.endswith("shifted"):
            xo = shift(xo, a)
        if name.startswith("backward"):
            xo = flip(xo)
        stream = tt.transpose(xo, (0, 2, 1))
        stream = tt.silu(tt.add_channel_bias(tt.conv1d_circular(stream, conv_w), conv_b))
        xp = tt.transpose(stream, (0, 2, 1))
        yo = ssm.selective_ssm(xp, sp)
        if name.startswith("backward"):
            yo = flip(yo)
        if name.endswith("shifted"):
            yo = shift(yo, (m - a) % m)
        gated = tt.mul(yo, gate)
        total = gated if total is None else tt.add(total, gated)

    return tt.add(tt.linear(total, params.lin_t_w, params.lin_t_b), t_prev)


def olm_stack(t0: tt.Tensor, params: OlmParams, cfg: OlmConfig,
              rng: np.random.Generator) -> tt.Tensor:
    """All blocks in order, then a final per-position normalization."""
    x = t0
    for blk in params.blocks:
        x = olm_forward(x, blk, cfg, rng)
    return tt.layer_norm(x, params.final_gain, params.final_bias)
