"""Command line interface.

One binary with subcommands covering the full workflow: generate a synthetic
dataset, project scans to range images, label overlaps, train, embed, search,
evaluate, benchmark, and run the built-in invariant suite.

Exit codes: 0 success, 1 failed selfcheck, 2 contract violation (bad
arguments, malformed files, mismatched shapes) or out of memory, 3 degenerate
input detected during processing.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import List, Tuple

import numpy as np

from . import io
from . import pipeline as pl
from . import rangeview as rvw
from . import retrieval as rt
from . import synthworld as sw
from . import training as tr
from .errors import ContractError, DegenerateInputError
from .selfcheck import run_selfcheck


def _indexed_files(dir_path: str, suffix: str) -> List[Tuple[int, str]]:
    """(index, path) pairs for files ending in suffix, indexed by the last
    integer in the file name, sorted by index."""
    if not os.path.isdir(dir_path):
        raise ContractError(f"not a directory: {dir_path}")
    out = []
    for name in sorted(os.listdir(dir_path)):
        if not name.endswith(suffix):
            continue
        nums = re.findall(r"\d+", name)
        if not nums:
            raise ContractError(f"cannot infer a scan index from {name!r}")
        out.append((int(nums[-1]), os.path.join(dir_path, name)))
    if not out:
        raise ContractError(f"no *{suffix} files under {dir_path}")
    ids = [i for i, _ in out]
    if len(set(ids)) != len(ids):
        raise ContractError(f"duplicate scan indices under {dir_path}")
    return sorted(out)


def _load_config(cls, path: str):
    return io.config_from_pairs(cls, io.load_kv_pairs(path))


def _split_config(path: str):
    """One config file holds both the model geometry and the training
    schedule; keys are disjoint, so they partition cleanly."""
    train_keys = {key for key, _ in io.config_pairs(tr.TrainConfig())}
    pairs = io.load_kv_pairs(path)
    return (
        io.config_from_pairs(pl.ModelConfig, [p for p in pairs if p[0] not in train_keys]),
        io.config_from_pairs(tr.TrainConfig, [p for p in pairs if p[0] in train_keys]),
    )


def _model_config_near(ckpt: str, explicit: str | None) -> pl.ModelConfig:
    path = explicit or os.path.join(os.path.dirname(ckpt) or ".", "model.kv")
    if not os.path.isfile(path):
        raise ContractError(
            f"no model geometry at {path}; pass --config or keep model.kv "
            "next to the checkpoint"
        )
    return _load_config(pl.ModelConfig, path)


# --------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    spec = _load_config(sw.WorldSpec, args.spec)
    world = sw.generate_world(spec)
    sw.save_world(args.out, world)
    io.save_kv(os.path.join(args.out, "sensor.kv"),
               io.config_pairs(spec.projection_config()))
    print(f"wrote {len(world.scans)} scans "
          f"({spec.n_places} places x {spec.visits_per_place} visits) to {args.out}")
    return 0


def cmd_project(args) -> int:
    cfg = _load_config(rvw.ProjectionConfig, args.config)
    files = _indexed_files(args.scans, ".bin")
    io.refuse_used_dir(args.out, "*.omrv")
    os.makedirs(args.out, exist_ok=True)
    for idx, path in files:
        ri = rvw.build_range_image(io.load_scan(path), cfg)
        io.save_range_image(os.path.join(args.out, f"range_{idx:04d}.omrv"), ri)
    print(f"projected {len(files)} scans to {args.out}")
    return 0


def cmd_overlaps(args) -> int:
    cfg = _load_config(rvw.ProjectionConfig, args.config)
    files = _indexed_files(args.scans, ".bin")
    poses = io.load_poses(args.poses)
    if len(poses) != len(files):
        raise ContractError(f"{len(poses)} poses for {len(files)} scans")
    scans = [io.load_scan(p) for _, p in files]
    images = [rvw.build_range_image(s, cfg) for s in scans]
    labels = rvw.label_pairs(images, poses, scans, [i for i, _ in files])
    io.save_labels(args.out, labels)
    n = len(files)
    print(f"labeled {n * (n - 1) // 2} pairs to {args.out}, {len(labels)} of them overlapping")
    return 0


def cmd_train(args) -> int:
    model_cfg, train_cfg = _split_config(args.config)
    images = {i: io.load_range_image(p) for i, p in _indexed_files(args.data, ".omrv")}
    labels = io.load_labels(args.labels)
    tuples = rvw.build_tuples(labels, train_cfg.overlap_threshold,
                              train_cfg.k_p, train_cfg.k_n, train_cfg.seed, ids=list(images))
    if not tuples:
        raise ContractError("no training tuples survive the overlap threshold")
    tr.check_inputs(tuples, images, model_cfg)
    params = pl.init_model(model_cfg, seed=train_cfg.seed)
    os.makedirs(args.out, exist_ok=True)
    io.save_kv(os.path.join(args.out, "model.kv"), io.config_pairs(model_cfg))
    tr.train(tuples, images, params, model_cfg, train_cfg, args.out, log=print)
    print(f"checkpoints and report.csv written to {args.out}")
    return 0


def cmd_embed(args) -> int:
    cfg = _model_config_near(args.ckpt, args.config)
    params = pl.load_model(args.ckpt, cfg)
    files = _indexed_files(args.ranges, ".omrv")
    for i, path in files:  # each id checked before any forward, to name its file
        try:
            io.check_db_ids([i])
        except ContractError as exc:
            raise ContractError(f"{path}: {exc}") from None
    ids, paths = zip(*files)
    # each image is read when it is described, so one is held at a time
    descriptors = pl.describe_images((io.load_range_image(p) for p in paths), params, cfg)
    io.save_descriptor_db(args.out, ids, descriptors)
    print(f"embedded {len(ids)} scans ({cfg.out_dim}-dim) to {args.out}")
    return 0


def cmd_search(args) -> int:
    db = rt.DescriptorDb.load(args.db)
    queries = rt.DescriptorDb.load(args.query)
    if queries.dim != db.dim:
        raise ContractError(f"query dim {queries.dim} != database dim {db.dim}")
    rows = ((qid, rank, cid, dist)
            for qid, hits in zip(queries.ids, rt.db_search_all(db, queries.descriptors, args.k))
            for rank, (cid, dist) in enumerate(hits, start=1))
    sys.stdout.write(io.report_text(("query_id", "rank", "candidate_id", "distance"), rows))
    return 0


def cmd_eval_loop(args) -> int:
    db = rt.DescriptorDb.load(args.db)
    poses = io.load_poses(args.poses)
    if len(poses) != len(db):
        raise ContractError(f"{len(poses)} poses for {len(db)} descriptors")
    labels = io.load_labels(args.labels)
    protocol = _load_config(rt.EvalProtocol, args.protocol)
    if protocol.kind != "loop_closure":
        raise ContractError(f"protocol kind {protocol.kind!r} is not loop_closure")
    report = rt.eval_loop_closure(db, labels, protocol)
    sys.stdout.write(io.report_text(("metric", "value"), report.rows()))
    return 0


def cmd_eval_place(args) -> int:
    db = rt.DescriptorDb.load(args.db)
    query_db = rt.DescriptorDb.load(args.query_db)
    positions = []
    for path, session in ((args.poses_a, db), (args.poses_b, query_db)):
        poses = io.load_poses(path)
        if len(poses) != len(session):
            raise ContractError(f"{len(poses)} poses for {len(session)} descriptors")
        positions.append(np.array([p.translation[:2] for p in poses]).reshape(-1, 2))
    pos_a, pos_b = positions
    protocol = _load_config(rt.EvalProtocol, args.protocol)
    if protocol.kind != "place_recognition":
        raise ContractError(
            f"protocol kind {protocol.kind!r} is not place_recognition"
        )
    report = rt.eval_place_recognition(db, query_db, pos_a, pos_b, protocol)
    sys.stdout.write(io.report_text(("metric", "value"), report.rows()))
    return 0


def cmd_selfcheck(args) -> int:
    results = run_selfcheck(log=print)
    failed = [r for r in results if not r.ok]
    total = sum(r.seconds for r in results)
    print(f"{len(results) - len(failed)}/{len(results)} checks passed in {total:.3f} s")
    return 1 if failed else 0


def cmd_bench(args) -> int:
    cfg = _model_config_near(args.ckpt, args.config)
    params = pl.load_model(args.ckpt, cfg)
    rows = rt.bench(params, cfg, reps=args.reps)
    sys.stdout.write(io.report_text(rt.BenchRow, rows))
    return 0


# --------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rangeloop",
        description="LiDAR place recognition: range images, state-space "
                    "descriptors, retrieval, and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scan dataset")
    p.add_argument("--spec", required=True, help="world spec (key=value file)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("project", help="project raw scans to range images")
    p.add_argument("--scans", required=True, help="directory of scan_*.bin")
    p.add_argument("--config", required=True, help="sensor geometry (key=value)")
    p.add_argument("--out", required=True, help="output directory for .omrv")
    p.set_defaults(fn=cmd_project)

    p = sub.add_parser("overlaps", help="compute pairwise overlap labels")
    p.add_argument("--scans", required=True, help="directory of scan_*.bin")
    p.add_argument("--poses", required=True, help="pose file (one 3x4 per line)")
    p.add_argument("--config", required=True, help="sensor geometry (key=value)")
    p.add_argument("--out", required=True, help="output label file")
    p.set_defaults(fn=cmd_overlaps)

    p = sub.add_parser("train", help="train the descriptor model")
    p.add_argument("--config", required=True,
                   help="model geometry + training schedule (key=value)")
    p.add_argument("--data", required=True, help="directory of .omrv images")
    p.add_argument("--labels", required=True, help="overlap label file")
    p.add_argument("--out", required=True, help="checkpoint directory")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("embed", help="embed range images into a descriptor db")
    p.add_argument("--ckpt", required=True, help="checkpoint file (.omck)")
    p.add_argument("--ranges", required=True, help="directory of .omrv images")
    p.add_argument("--out", required=True, help="output database (.omdb)")
    p.add_argument("--config", help="model geometry (defaults to model.kv "
                                    "next to the checkpoint)")
    p.set_defaults(fn=cmd_embed)

    p = sub.add_parser("search", help="k nearest neighbors for each query")
    p.add_argument("--db", required=True, help="database (.omdb)")
    p.add_argument("--query", required=True, help="query descriptors (.omdb)")
    p.add_argument("--k", required=True, type=int, help="neighbors per query")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("eval-loop", help="loop-closure evaluation")
    p.add_argument("--db", required=True, help="trajectory descriptors (.omdb)")
    p.add_argument("--poses", required=True,
                   help="trajectory poses (consistency check)")
    p.add_argument("--labels", required=True, help="overlap label file")
    p.add_argument("--protocol", required=True, help="protocol (key=value)")
    p.set_defaults(fn=cmd_eval_loop)

    p = sub.add_parser("eval-place", help="cross-session place recognition")
    p.add_argument("--db", required=True, help="database session (.omdb)")
    p.add_argument("--query-db", required=True, help="query session (.omdb)")
    p.add_argument("--poses-a", required=True, help="database session poses")
    p.add_argument("--poses-b", required=True, help="query session poses")
    p.add_argument("--protocol", required=True, help="protocol (key=value)")
    p.set_defaults(fn=cmd_eval_place)

    p = sub.add_parser("selfcheck", help="run the built-in invariant suite")
    p.set_defaults(fn=cmd_selfcheck)

    p = sub.add_parser("bench", help="wall-time report (informational)")
    p.add_argument("--ckpt", required=True, help="checkpoint file (.omck)")
    p.add_argument("--reps", type=int, default=10, help="repetitions per row")
    p.add_argument("--config", help="model geometry (defaults to model.kv "
                                    "next to the checkpoint)")
    p.set_defaults(fn=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DegenerateInputError as exc:
        print(f"degenerate input: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
