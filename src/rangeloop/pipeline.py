"""Full model assembly: range image -> tokens -> mixed sequence -> descriptor.

A scan's range image (1, H, W) runs through the vertical-conv backbone to a
(W, C) token sequence, through the stack of multi-direction mixing blocks,
and into the aggregation head, yielding one unit-norm descriptor per scan.
This module owns the model configuration, the parameter layout and
checkpoint loading, so the trainer, embedder, and CLI all agree on what "the
model" is.

``ModelConfig`` is the model's one configuration.  It checks every field
when it is built and stores its stage plan resolved, so ``io.config_pairs``
writes it to a file as it is.  The backbone and the stack read its strides,
pooling and block count; every other size a layer needs it reads from the
weights it is given, and ``param_layout`` is the one place that derives
those weight shapes from the configuration.

The parameters are one dict from checkpoint name to Tensor
("backbone.s0.weight", "olm.L0.backward_shifted.proj_Δ.weight", "gdg.centers",
...); each layer's forward reads its tensors from it by name, and
``io.save_checkpoint`` writes it as it is.  ``param_layout`` lists every
name with its shape and initialiser, in the order ``init_model`` draws them;
``load_model`` checks a checkpoint against the same list and draws nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import backbone as bb
from . import block as bk
from . import descriptor as dsc
from . import io
from . import ssm
from . import tensor as tt
from .errors import ConfigError, ContractError


@dataclass(frozen=True)
class ModelConfig:
    h: int = 64  # range image rows
    w: int = 900  # range image columns
    # backbone plan, one (C, k, s) per stage; empty becomes the default halving plan
    stages: tuple = field(default=(), metadata={"key": "stage"})
    spp_kernel: int = 5
    spp_depth: int = 3
    spp_mode: str = "concat"
    olm_blocks: int = 1
    olm_e: int = 0  # widened channels; 0 means 2x the token width
    olm_n: int = 16
    olm_conv_kernel: int = 3
    vlad_k: int = 64
    mlp_hidden: int = 1024
    out_dim: int = 256

    def __post_init__(self):
        if self.h < 2 or self.w < 2:
            raise ConfigError(f"sensor grid must be at least 2x2, got {self.h}x{self.w}")
        for stage in self.stages:
            if len(stage) != 3:
                raise ConfigError(f"a stage must be (C, k, s), got {stage!r}")
        if self.vlad_k < 1:
            raise ConfigError(f"cluster count must be >= 1, got {self.vlad_k}")
        if self.mlp_hidden < 1 or self.out_dim < 1:
            raise ConfigError(
                f"invalid head dims mlp_hidden={self.mlp_hidden} out_dim={self.out_dim}")
        stages = tuple(tuple(s) for s in self.stages) or bb.default_stages(self.h)
        object.__setattr__(self, "stages", stages)
        if self.spp_kernel % 2 == 0 or self.spp_kernel < 1:
            raise ConfigError(f"pooling kernel must be odd, got {self.spp_kernel}")
        if self.spp_depth < 1:
            raise ConfigError(f"pooling depth must be >= 1, got {self.spp_depth}")
        if self.spp_mode not in ("concat", "add"):
            raise ConfigError(f"spp mode must be concat or add, got {self.spp_mode!r}")
        for c, k, s in stages:
            if c < 1 or k < 1 or s < 1:
                raise ConfigError(f"invalid stage ({c}, {k}, {s})")
        bb.height_trace(stages, self.h)  # the plan must flatten h rows
        if self.olm_blocks < 1:
            raise ConfigError(f"block count must be >= 1, got {self.olm_blocks}")
        if self.olm_n < 1:
            raise ConfigError(f"state dimension must be >= 1, got {self.olm_n}")
        if self.olm_e and self.olm_e < self.token_dim:
            raise ConfigError(
                f"widened dim {self.olm_e} must be >= token dim {self.token_dim}")
        if self.olm_conv_kernel < 1 or self.olm_conv_kernel % 2 == 0:
            raise ConfigError(
                f"branch conv kernel must be odd and >= 1, got {self.olm_conv_kernel}")

    @property
    def token_dim(self) -> int:
        return self.stages[-1][0]


# --------------------------------------------------------------------------
# parameter layout
#
# An initialiser maps (rng, shape) to a tensor's starting array.  Constant
# ones (zeros, ones, the A_log table) draw nothing from rng.


def _uniform(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _zeros(rng, shape):
    return np.zeros(shape)


def _ones(rng, shape):
    return np.ones(shape)


def _centers(rng, shape):
    return rng.standard_normal(shape) * 0.1


def _a_log(rng, shape):
    """Slow decaying states: A = -exp(A_log) = -n for state n = 1..N."""
    e, n = shape
    return np.log(np.tile(np.arange(1, n + 1, dtype=np.float64), (e, 1)))


def _dt_bias(rng, shape):
    """Step sizes softplus-landed in [1e-3, 1e-1], log-uniformly."""
    dt = np.exp(rng.uniform(np.log(1e-3), np.log(1e-1), size=shape))
    return np.log(np.expm1(dt))


def _affine(name, shape, fan_in, bias):
    """"<name>.weight" of shape, uniform in +-1/sqrt(fan_in), then its zero
    "<name>.bias" of length bias."""
    return [(f"{name}.weight", shape, partial(_uniform, fan_in=fan_in)),
            (f"{name}.bias", (bias,), _zeros)]


def _norm(name, d):
    return [(f"{name}.gain", (d,), _ones), (f"{name}.bias", (d,), _zeros)]


def param_layout(cfg: ModelConfig) -> list:
    """Every tensor of cfg's model as (name, shape, initialiser), in the
    order ``init_model`` draws them: the backbone stages and SPP compressor,
    each mixing block (its four branches, then its own tensors), the final
    normalization, then the aggregation head."""
    d = cfg.token_dim
    e = cfg.olm_e or 2 * d  # widened channels
    n, r, kw = cfg.olm_n, ssm.dt_rank_for(d), cfg.olm_conv_kernel
    layout = []
    c_in = 1  # the range channel
    for i, (c_out, kh, _) in enumerate(cfg.stages):
        layout += _affine(f"backbone.s{i}", (c_out, c_in, kh, 1), c_in * kh, c_out)
        c_in = c_out
    if cfg.spp_mode == "concat":
        c_cat = (cfg.spp_depth + 1) * d
        layout += _affine("backbone.spp", (d, c_cat, 1), c_cat, d)
    for i in range(cfg.olm_blocks):
        block = f"olm.L{i}"
        for direction in bk.DIRECTIONS:
            branch = f"{block}.{direction}"
            layout += [*_affine(f"{branch}.conv1d", (e, e, kw), e * kw, e),
                       (f"{branch}.A_log", (e, n), _a_log),
                       (f"{branch}.D", (e,), _ones),
                       *_affine(f"{branch}.proj_BC", (e, r + 2 * n), e, r + 2 * n),
                       (f"{branch}.proj_Δ.weight", (r, e), partial(_uniform, fan_in=r)),
                       (f"{branch}.proj_Δ.bias", (e,), _dt_bias)]
        layout += [*_norm(f"{block}.norm", d),
                   *_affine(f"{block}.lin_x", (d, e), d, e),
                   *_affine(f"{block}.lin_z", (d, e), d, e),
                   *_affine(f"{block}.lin_T", (e, d), e, d)]
    layout += _norm("olm.final_norm", d)
    k, hidden, out = cfg.vlad_k, cfg.mlp_hidden, cfg.out_dim
    layout += [("gdg.centers", (k, d), _centers),
               *_affine("gdg.assign", (d, k), d, k),
               *_affine("gdg.mlp1", (k * d, hidden), k * d, hidden),
               *_affine("gdg.mlp2", (hidden, out), hidden, out)]
    return layout


def init_model(cfg: ModelConfig, seed: int) -> dict:
    """The model's parameters: one name -> Tensor dict, keyed by the
    checkpoint names, each tensor drawn from one generator in layout order."""
    rng = np.random.default_rng(seed)
    return {name: tt.Tensor(init(rng, shape), requires_grad=True)
            for name, shape, init in param_layout(cfg)}


def model_forward(x, params: dict, cfg: ModelConfig, offsets=None,
                  bypass_olm: bool = False) -> tt.Tensor:
    """(B, 1, H, W) scaled range images -> (B, out_dim) unit descriptors.

    offsets holds one start offset per mixing block, the position its
    rotated branches scan from (a training forward; ``training`` draws
    them).  offsets None is the eval forward, every offset 0.  bypass_olm
    skips the mixing stack entirely, leaving the exactly shift-invariant
    backbone+aggregation path.
    """
    tokens = bb.backbone_forward(x, params, cfg)
    if not bypass_olm:
        tokens = bk.olm_stack(tokens, params, cfg, offsets)
    return dsc.gdg_forward(tokens, params)


def prepare_batch(images) -> tt.Tensor:
    """Stack RangeImage objects into a (B, 1, H, W) network input batch."""
    arrays = [ri.network_input() for ri in images]
    return tt.Tensor(np.stack(arrays, axis=0))


def describe_images(images, params: dict, cfg: ModelConfig,
                    bypass_olm: bool = False) -> np.ndarray:
    """Eval-mode descriptors for an iterable of RangeImage, one forward each:
    an (n, cfg.out_dim) array, (0, cfg.out_dim) for no images."""
    rows = []
    for ri in images:
        out = model_forward(prepare_batch([ri]), params, cfg, bypass_olm=bypass_olm)
        rows.append(out.data[0])
    return np.stack(rows, axis=0) if rows else np.zeros((0, cfg.out_dim))


# --------------------------------------------------------------------------
# checkpoints


def load_model(path, cfg: ModelConfig) -> dict:
    """The parameters of ``cfg``'s model with the values a checkpoint (as
    ``io.save_checkpoint`` writes the dict) holds for them.  Names and shapes
    are checked against ``param_layout(cfg)``; nothing is drawn, and the
    checkpoint's arrays become the parameters without a copy."""
    arrays = io.load_checkpoint(path)
    layout = param_layout(cfg)
    names = {name for name, _, _ in layout}
    missing = sorted(names - set(arrays))
    extra = sorted(set(arrays) - names)
    if missing or extra:
        raise ContractError(
            f"{path}: checkpoint does not match the model configuration"
            f" (missing {missing[:3]}, unexpected {extra[:3]})"
        )
    params = {}
    for name, shape, _ in layout:
        value = arrays[name]
        if value.shape != shape:
            raise ContractError(
                f"{path}: tensor {name!r} has shape {value.shape}, expected {shape}"
            )
        if not np.isfinite(value).all():
            raise ContractError(f"{path}: tensor {name!r} is not finite")
        params[name] = tt.Tensor(value, requires_grad=True)
    return params

