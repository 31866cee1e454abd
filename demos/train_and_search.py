"""Miniature end-to-end run: world, labels, training, retrieval, metrics.

Builds a small synthetic world, mines overlap-supervised tuples, trains
the descriptor model for a few epochs with the hard-mining loss, embeds
every scan, and evaluates loop closure by searching each scan against all
earlier ones.  Takes on the order of a minute on a laptop.
"""

import argparse
import tempfile

import numpy as np

from rangeloop import pipeline as pl
from rangeloop import rangeview as rvw
from rangeloop import retrieval as rt
from rangeloop import synthworld as sw
from rangeloop import training as tr


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--epochs", type=int, default=3)
    args = ap.parse_args()

    spec = sw.WorldSpec(seed=args.seed, n_places=6, visits_per_place=3,
                        h=8, w=64, n_obstacles=6)
    world = sw.generate_world(spec)
    cfg = spec.projection_config()
    images = {i: rvw.build_range_image(s, cfg)
              for i, s in enumerate(world.scans)}
    print(f"world: {len(world.scans)} scans over {spec.n_places} places")

    n = len(world.scans)
    labels = rvw.label_pairs(images, world.poses, world.scans, range(n))
    tuples = rvw.build_tuples(labels, threshold=0.3, k_p=2, k_n=2,
                              seed=args.seed, ids=sorted(images))
    print(f"labels: {n * (n - 1) // 2} pairs, {len(labels)} overlapping, "
          f"tuples: {len(tuples)}")

    model = pl.ModelConfig(h=8, w=64, stages=((8, 2, 2), (16, 2, 2), (16, 2, 2)),
                           spp_mode="add", olm_n=2, vlad_k=4, mlp_hidden=32,
                           out_dim=16)
    params = pl.init_model(model, seed=args.seed)
    tcfg = tr.TrainConfig(loss="imtrihard", lr=5e-4, epochs=args.epochs,
                          k_p=2, k_n=2, seed=args.seed)
    with tempfile.TemporaryDirectory() as ckpt_dir:
        reports = tr.train(tuples, images, params, model, tcfg, ckpt_dir,
                           log=print)

    print("\nepoch summary:")
    for r in reports:
        print(f"  epoch {r.epoch}: mean loss {r.mean_loss:.4f}, "
              f"val F1max {r.val_f1max:.3f}")

    desc = pl.describe_images([images[i] for i in sorted(images)], params, model)
    db = rt.DescriptorDb(sorted(images), desc)
    protocol = rt.EvalProtocol(kind="loop_closure", overlap_threshold=0.3,
                               window=spec.n_places)
    report = rt.eval_loop_closure(db, labels, protocol)
    print(f"\nloop closure over {report.n_queries} queries "
          f"({report.n_scored} scored):")
    print(f"  AUC {report.auc:.3f}  F1max {report.f1max:.3f}  "
          f"Recall@1 {report.recall1:.3f}")

    query = 0
    hits = rt.db_search(db, desc[query], k=4)
    print(f"\nnearest neighbors of scan {query} "
          f"(place {world.place_ids[query]}):")
    for cand, dist in hits:
        marker = "self" if cand == query else f"place {world.place_ids[cand]}"
        print(f"  scan {cand:2d}  distance {dist:.4f}  ({marker})")


if __name__ == "__main__":
    main()
