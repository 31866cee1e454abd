"""Tour of the synthetic test world: places, revisits, and overlap labels.

Generates a small world of box/cylinder scenes, renders LiDAR scans at
jittered revisit poses (printing the wall time and the share of
(ray, obstacle) tests the caster's azimuth cull keeps), projects them to
range images, and prints the overlap matrix that the training pipeline
mines its tuples from, with how many pairs the labeller culls by the
sensor gap and its wall time.  Ends with the exact yaw property the whole
design rests on: rotating the sensor by a whole number of pixel columns
rolls the range image.
"""

import argparse
import math
import time

import numpy as np

from rangeloop import rangeview as rvw
from rangeloop import synthworld as sw


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--places", type=int, default=4)
    ap.add_argument("--visits", type=int, default=3)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    spec = sw.WorldSpec(seed=args.seed, n_places=args.places,
                        visits_per_place=args.visits, h=16, w=128)
    start = time.perf_counter()
    world = sw.generate_world(spec)
    elapsed = time.perf_counter() - start
    cfg = spec.projection_config()
    print(f"world: {args.places} places x {args.visits} visits, "
          f"{len(world.scans)} scans, image {cfg.h}x{cfg.w}")

    # each obstacle is tested only against the rays whose azimuth can reach it
    places = sw.build_places(spec, np.random.default_rng(spec.seed))
    dirs = sw.beam_directions(cfg)
    kept = total = 0
    for pose, pid in zip(world.poses, world.place_ids):
        mask = sw.reach_mask(pose.translation, dirs @ pose.rotation.T,
                             places[pid].obstacles)
        kept += int(mask.sum())
        total += mask.size
    print(f"generate_world: {elapsed * 1e3:.1f} ms; the azimuth cull keeps "
          f"{kept:,} of {total:,} (ray, obstacle) tests ({kept / total:.1%})")

    sizes = [len(s) for s in world.scans]
    print(f"returns per scan: min {min(sizes)}, max {max(sizes)}")

    images = [rvw.build_range_image(s, cfg) for s in world.scans]
    occupancy = [float(ri.valid.mean()) for ri in images]
    print(f"pixel occupancy: {min(occupancy):.2f} .. {max(occupancy):.2f}")

    # overlap(a, b): the fraction of a's pixels that scan b also explains.
    # Revisits of the same place overlap heavily; distinct places in this
    # world are farther apart than the range cap, so they share nothing.
    n = len(world.scans)
    print("\noverlap matrix (query rows, first visit columns):")
    header = "      " + "".join(f"p{j:<5d}" for j in range(args.places))
    print(header)
    for i in range(n):
        row = []
        for j in range(args.places):
            ov = rvw.compute_overlap(images[i], world.poses[i],
                                     world.scans[j], world.poses[j])
            row.append(f"{ov:5.2f} ")
        print(f"scan {i:2d} place {world.place_ids[i]}: " + "".join(row))

    # only pairs whose sensors lie within reach of each other are reprojected
    start = time.perf_counter()
    labels = rvw.label_pairs(images, world.poses, world.scans, range(n))
    elapsed = time.perf_counter() - start
    uncut = len(rvw.pairs_in_reach(images, world.poses, world.scans))
    pairs = n * (n - 1) // 2
    print(f"\nlabel_pairs: {pairs} pairs, {pairs - uncut} culled by the range gap, "
          f"{uncut} reprojected, {len(labels)} overlapping, {elapsed * 1e3:.1f} ms")
    tuples = rvw.build_tuples(labels, threshold=0.3, k_p=2, k_n=2, seed=args.seed,
                              ids=range(n))
    print(f"mined {len(tuples)} training tuples at threshold 0.3")
    t = tuples[0]
    print(f"first tuple: query {t.query}, positives {t.positives}, "
          f"negatives {t.negatives}")

    # the exact yaw property: a sensor rotation by k * (2 pi / w) around
    # the vertical axis rolls the range image by k columns, bit for bit
    place = places[0]
    pose = world.poses[0]
    k = cfg.w // 4
    yawed = rvw.Pose(rotation=pose.rotation @ _rot_z(2.0 * math.pi * k / cfg.w),
                     translation=pose.translation)
    base = rvw.build_range_image(sw.render_scan(spec, place, pose), cfg)
    turned = rvw.build_range_image(sw.render_scan(spec, place, yawed), cfg)
    gap = np.max(np.abs(turned.ranges - np.roll(base.ranges, k, axis=1)))
    print(f"\nquarter-turn yaw vs column roll by {k}: max gap {gap:.2e}")


def _rot_z(yaw):
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


if __name__ == "__main__":
    main()
