"""Full model assembly: range image -> tokens -> mixed sequence -> descriptor.

A scan's range image (1, H, W) runs through the vertical-conv backbone to a
(W, C) token sequence, through the stack of multi-direction mixing blocks,
and into the aggregation head, yielding one unit-norm descriptor per scan.
This module owns model configuration, initialization, checkpoint loading,
and the config-file encoding, so the trainer, embedder, and CLI all agree on
what "the model" is.

The parameters are one dict from checkpoint name to Tensor
("backbone.s0.weight", "olm.L0.backward_shifted.proj_Δ.weight", "gdg.centers",
...); each layer's forward reads its tensors from it by name, and
``io.save_checkpoint`` writes it as it is.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import backbone as bb
from . import block as bk
from . import descriptor as dsc
from . import io
from . import tensor as tt
from .errors import ConfigError, ContractError


@dataclass(frozen=True)
class ModelConfig:
    h: int = 64  # range image rows
    w: int = 900  # range image columns
    # backbone plan, one (C, k, s) per stage; empty means the default halving plan
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

    def backbone_config(self) -> bb.BackboneConfig:
        stages = tuple(tuple(s) for s in self.stages) or bb.default_stages(self.h)
        spp = bb.SppConfig(kernel=self.spp_kernel, depth=self.spp_depth, mode=self.spp_mode)
        cfg = bb.BackboneConfig(stages=stages, spp=spp)
        cfg.height_trace(self.h)  # fail fast if the plan cannot flatten h rows
        return cfg

    @property
    def token_dim(self) -> int:
        return self.backbone_config().out_channels

    def olm_config(self) -> bk.OlmConfig:
        return bk.OlmConfig(d=self.token_dim, e=self.olm_e, n=self.olm_n,
                            l=self.olm_blocks, conv_kernel=self.olm_conv_kernel)

    def vlad_config(self) -> dsc.VladConfig:
        return dsc.VladConfig(d=self.token_dim, k=self.vlad_k,
                              hidden=self.mlp_hidden, out=self.out_dim)


def init_model(cfg: ModelConfig, seed: int) -> dict:
    """The model's parameters: one name -> Tensor dict, keyed by the
    checkpoint names ("backbone.*", then "olm.*", then "gdg.*")."""
    rng = np.random.default_rng(seed)
    return {**bb.init_backbone(rng, cfg.backbone_config()),
            **bk.init_olm(rng, cfg.olm_config()),
            **dsc.init_gdg(rng, cfg.vlad_config())}


def model_forward(x, params: dict, cfg: ModelConfig,
                  rng: np.random.Generator = None,
                  bypass_olm: bool = False) -> tt.Tensor:
    """(B, 1, H, W) scaled range images -> (B, out_dim) unit descriptors.

    A generator makes it a training forward: each mixing block draws its
    start offset from rng.  rng None is the eval forward, offset 0.
    bypass_olm skips the mixing stack entirely, leaving the exactly
    shift-invariant backbone+aggregation path.
    """
    tokens = bb.backbone_forward(x, params, cfg.backbone_config())
    if not bypass_olm:
        tokens = bk.olm_stack(tokens, params, cfg.olm_config(), rng)
    return dsc.gdg_forward(tokens, params, cfg.vlad_config())


def prepare_batch(images) -> tt.Tensor:
    """Stack RangeImage objects into a (B, 1, H, W) network input batch."""
    arrays = [ri.network_input() for ri in images]
    return tt.Tensor(np.stack(arrays, axis=0))


def describe_images(images, params: dict, cfg: ModelConfig,
                    bypass_olm: bool = False) -> np.ndarray:
    """Eval-mode descriptors for a list of RangeImage, one forward per scan."""
    rows = []
    for ri in images:
        out = model_forward(prepare_batch([ri]), params, cfg, bypass_olm=bypass_olm)
        rows.append(out.data[0])
    return np.stack(rows, axis=0)


# --------------------------------------------------------------------------
# checkpoints


def load_model(path, cfg: ModelConfig) -> dict:
    """The parameters of ``cfg``'s model with the values a checkpoint (as
    ``io.save_checkpoint`` writes the dict) holds for them."""
    arrays = io.load_checkpoint(path)
    params = init_model(cfg, seed=0)
    missing = sorted(set(params) - set(arrays))
    extra = sorted(set(arrays) - set(params))
    if missing or extra:
        raise ContractError(
            f"{path}: checkpoint does not match the model configuration"
            f" (missing {missing[:3]}, unexpected {extra[:3]})"
        )
    for name, t in params.items():
        if arrays[name].shape != t.data.shape:
            raise ContractError(
                f"{path}: tensor {name!r} has shape {arrays[name].shape}, "
                f"expected {t.data.shape}"
            )
        t.data = arrays[name]
    return params


# --------------------------------------------------------------------------
# config files


def save_model_config(path, cfg: ModelConfig) -> None:
    """Write `cfg` with its stage plan resolved, so an empty plan is stored
    as the default halving plan it stands for."""
    resolved = replace(cfg, stages=cfg.backbone_config().stages)
    io.save_kv(path, io.config_pairs(resolved))


def load_model_config(path) -> ModelConfig:
    return io.config_from_pairs(ModelConfig, io.load_kv_pairs(path))
