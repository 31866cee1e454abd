"""Where the yaw robustness comes from, layer by layer.

A yaw rotation of the sensor becomes a circular column shift of the range
image.  The backbone convolves only along the height axis, so the token
sequence shifts along with the input (equivariance).  The aggregation head
sums over positions in a permutation-proof order, so its descriptor does
not move at all (invariance).  The sequence-mixing stack in between is
where exactness ends and training takes over.  This script trains
nothing: it prints the backbone's equivariance gap and the head's
invariance for a freshly initialised model, then the descriptor drift under
input column shifts with the stack bypassed and with the untrained stack.
"""

import argparse

import numpy as np

from rangeloop import backbone as bb
from rangeloop import descriptor as dsc
from rangeloop import pipeline as pl
from rangeloop import tensor as tt


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)

    cfg = pl.ModelConfig(h=16, w=128,
                         stages=((8, 2, 2), (16, 2, 2), (16, 2, 2), (32, 2, 2)),
                         spp_mode="add", olm_n=4, vlad_k=8, mlp_hidden=64,
                         out_dim=32)
    params = pl.init_model(cfg, seed=args.seed)
    x = rng.random((1, 1, cfg.h, cfg.w))
    shifts = (1, cfg.w // 4, cfg.w // 2)

    print(f"model: {cfg.h}x{cfg.w} image -> {cfg.token_dim}-channel tokens "
          f"-> {cfg.out_dim}-dim descriptor\n")

    tokens = bb.backbone_forward(tt.Tensor(x), params, cfg).data
    print("backbone equivariance: shift input columns, compare shifted tokens")
    for s in shifts:
        moved = bb.backbone_forward(tt.Tensor(np.roll(x, s, axis=3)), params, cfg).data
        gap = np.max(np.abs(moved - np.roll(tokens, s, axis=1)))
        print(f"  shift {s:3d}: max gap {gap:.2e}")

    print("\naggregation invariance: shift the token sequence itself")
    seq = rng.standard_normal((1, cfg.w, cfg.token_dim))
    base = dsc.gdg_forward(tt.Tensor(seq), params).data
    for s in shifts:
        moved = dsc.gdg_forward(tt.Tensor(np.roll(seq, s, axis=1)), params).data
        same = np.array_equal(base, moved)
        print(f"  shift {s:3d}: descriptor bit-identical = {same}")

    print("\nfull pipeline: descriptor distance under input column shifts")
    d_bypass = pl.model_forward(tt.Tensor(x), params, cfg, bypass_olm=True).data
    d_full = pl.model_forward(tt.Tensor(x), params, cfg).data
    for s in shifts:
        xs = tt.Tensor(np.roll(x, s, axis=3))
        gap_b = np.linalg.norm(
            pl.model_forward(xs, params, cfg, bypass_olm=True).data - d_bypass)
        gap_f = np.linalg.norm(pl.model_forward(xs, params, cfg).data - d_full)
        print(f"  shift {s:3d}: bypassed {gap_b:.2e}, with mixing stack {gap_f:.2e}")
    print("\nthe bypassed path is exact; the mixing stack trades that for "
          "expressiveness\nand recovers robustness statistically through its "
          "shift augmentation during training.")


if __name__ == "__main__":
    main()
