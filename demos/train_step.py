"""One training step at a time, timed by phase, with the process's peak RSS.

    python3 demos/train_step.py --size acceptance|paper --steps N

Each step is a taped forward, ``tt.backward`` and ``Adam.step`` on random
range images.  The mixing blocks' start offsets are drawn as
``training.train`` draws them: one per block, before the forward and the
loss's draws.  The script prints them with each phase's wall time and the
tape's node count per step, the count per op kind, then ``ru_maxrss`` of
its own process.  A node's kind is the op that recorded it, the first part
of its adjoint's ``__qualname__`` (``linear.<locals>.fn`` is ``linear``),
read before ``backward`` spends the tape.  Run it in a fresh process to read a
step's peak memory.

* ``acceptance``: the acceptance model (16x128 images, 32-d descriptor) on
  one 1+2+2 tuple under the hard-mining loss, as the training benchmark
  steps it.
* ``paper``: ``ModelConfig()`` (64x900 images, 256-d descriptor) at batch 1.
  One image makes no tuple, so the loss is the descriptor's dot product
  with a fixed random vector.
"""

import argparse
import collections
import resource
import sys
import time

import numpy as np

from rangeloop import pipeline as pl
from rangeloop import tensor as tt
from rangeloop import training as tr
from rangeloop.optim import Adam
from rangeloop.rangeview import RangeImage

ACCEPTANCE = pl.ModelConfig(h=16, w=128, stages=((8, 2, 2), (16, 2, 2), (16, 2, 2),
                                                 (32, 2, 2)),
                            spp_mode="add", olm_n=4, vlad_k=8, mlp_hidden=64, out_dim=32)


def random_batch(rng, n, h, w):
    """``n`` range images of uniform ranges with a fifth of pixels invalid."""
    images = []
    for _ in range(n):
        r = rng.uniform(1.0, 40.0, size=(h, w))
        r[rng.random(size=(h, w)) < 0.2] = -1.0
        images.append(RangeImage(r, r_max=50.0))
    return pl.prepare_batch(images)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--size", choices=("acceptance", "paper"), default="acceptance")
    ap.add_argument("--steps", type=int, default=3)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    model = ACCEPTANCE if args.size == "acceptance" else pl.ModelConfig()
    rng = np.random.default_rng(args.seed)
    params = pl.init_model(model, seed=args.seed)
    batch = random_batch(rng, 5 if args.size == "acceptance" else 1, model.h, model.w)
    tcfg = tr.TrainConfig(loss="imtrihard", k_p=2, k_n=2)
    proj = tt.Tensor(rng.standard_normal(model.out_dim))
    adam = Adam(params, lr=1e-4)
    n_values = sum(p.size for p in params.values())
    print(f"{args.size} model: {len(params)} tensors, {n_values:,} values; "
          f"batch {batch.shape[0]} of {model.h}x{model.w}")

    for step in range(args.steps):
        offsets = [int(rng.integers(0, model.w)) for _ in range(model.olm_blocks)]
        t0 = time.perf_counter()
        with tt.Tape() as tape:
            desc = pl.model_forward(batch, params, model, offsets)
            if args.size == "acceptance":
                loss = tr.tuple_loss(desc, 2, tcfg, rng)
            else:
                loss = tt.tsum(tt.mul(desc, proj))
        t1 = time.perf_counter()
        kinds = collections.Counter(node.backward.__qualname__.split(".")[0]
                                    for node in tape._nodes)
        tt.backward(loss, tape)
        t2 = time.perf_counter()
        adam.step()
        t3 = time.perf_counter()
        print(f"step {step}: loss {float(loss.data):.6f}, forward {t1 - t0:.3f} s, "
              f"backward {t2 - t1:.3f} s, adam {t3 - t2:.3f} s, "
              f"tape nodes {len(tape)}, offsets {offsets}")
        print("  nodes by kind: " + ", ".join(f"{k} {n}" for k, n in sorted(kinds.items())))

    # ru_maxrss is KiB on Linux and bytes on macOS
    scale = 1 if sys.platform == "darwin" else 1024
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale
    print(f"peak RSS (ru_maxrss): {peak / 2**20:.1f} MiB")


if __name__ == "__main__":
    main()
