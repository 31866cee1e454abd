"""The four workloads, each driven through the package's public functions.

A workload builds its inputs from the seed in ``setup`` (called several
times, so set-up time can be reported as a median), does one unit-counted
operation per ``op`` call, and checks properties any correct build keeps in
``checks``, outside the timed region.  ``prepare`` runs before each ``op``
and is not timed.  ``unit`` names what ``op`` counts and ``alias`` the
issue's name for the workload's rate of it.  Each is one closed-loop client: the next operation
starts when the previous one has returned.
"""

from __future__ import annotations

import functools
import os

import numpy as np

from rangeloop import io
from rangeloop import pipeline as pl
from rangeloop import rangeview as rvw
from rangeloop import retrieval as rt
from rangeloop import synthworld as sw
from rangeloop import training as tr

import trajectory


class CheckFailed(Exception):
    pass


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


class Workload:
    min_ops = 1  # timed operations a run does even when time is up
    alloc_metric = None  # per-layer metric filled by alloc_op under tracemalloc

    def prepare(self) -> None:
        pass


class EmbedPaper(Workload):
    """Paper-size descriptors of ray-cast 64x900 scans, one scan per call."""

    unit, alias = "scan", "embed_scans_per_s"

    # two scans described in turn, so three calls describe the first twice
    min_ops = 3
    alloc_metric = "pipeline.describe_images.alloc_peak_mb"

    def setup(self, seed: int, work_dir: str) -> None:
        spec = sw.WorldSpec(seed=seed, n_places=2, visits_per_place=1, h=64, w=900)
        world = sw.generate_world(spec)
        pcfg = spec.projection_config()
        self.images = [rvw.build_range_image(s, pcfg) for s in world.scans]
        self.cfg = pl.ModelConfig()
        self.params = pl.init_model(self.cfg, seed)
        # warm-up: every layer once, on a 64-column crop of the first scan
        crop = rvw.RangeImage(ranges=self.images[0].ranges[:, :64].copy(),
                              r_max=self.images[0].r_max)
        pl.describe_images([crop], self.params, self.cfg)
        self.outputs = []  # (scan index, descriptor)

    def op(self) -> int:
        i = len(self.outputs) % len(self.images)
        desc = pl.describe_images([self.images[i]], self.params, self.cfg)
        self.outputs.append((i, desc[0]))
        return 1

    def alloc_op(self) -> None:
        pl.describe_images([self.images[0]], self.params, self.cfg)

    def checks(self):
        return [("finite_unit_norm", self._check_unit_norm),
                ("repeat_bit_identical", self._check_repeat),
                ("bypass_roll_invariant", self._check_roll)]

    def _check_unit_norm(self):
        for i, d in self.outputs:
            require(bool(np.all(np.isfinite(d))), f"scan {i}: non-finite descriptor")
            gap = abs(float(np.linalg.norm(d)) - 1.0)
            require(gap <= 1e-12, f"scan {i}: norm off by {gap:.3e}")

    def _check_repeat(self):
        first = {}
        repeats = 0
        for i, d in self.outputs:
            if i in first:
                repeats += 1
                require(np.array_equal(first[i], d), f"scan {i}: descriptor changed")
            else:
                first[i] = d
        require(repeats > 0, "no scan was described twice")

    def _check_roll(self):
        img = self.images[0]
        rolled = rvw.RangeImage(ranges=np.roll(img.ranges, img.w // 4, axis=1),
                                r_max=img.r_max)
        d0, d1 = pl.describe_images([img, rolled], self.params, self.cfg,
                                    bypass_olm=True)
        # the tolerance of the package's own yaw-invariance criterion: a
        # conv summed in another order may move the last bits
        gap = float(np.max(np.abs(d0 - d1)))
        require(gap < 1e-9, f"bypassed descriptor moved by {gap:.3e} under a column roll")


TRAIN_MODEL = dict(h=16, w=128, stages=((8, 2, 2), (16, 2, 2), (16, 2, 2), (32, 2, 2)),
                   spp_mode="add", olm_n=4, vlad_k=8, mlp_hidden=64, out_dim=32)
CHECK_STEPS = 5  # steps of the check run whose losses must repeat


class TrainSmall(Workload):
    """``training.train`` on the acceptance model over the default world,
    one epoch per call, so validation and the checkpoint writes weigh in
    the rate as they do in training."""

    unit, alias = "step", "train_steps_per_s"
    alloc_metric = "training.step.alloc_peak_mb"

    def __init__(self):
        self.traces = []  # per train call, the loss of each step
        self._current = []
        original = tr.tuple_loss

        @functools.wraps(original)
        def recorded(*args, **kwargs):
            loss = original(*args, **kwargs)
            self._current.append(float(loss.data))
            return loss

        tr.tuple_loss = recorded

    def setup(self, seed: int, work_dir: str) -> None:
        spec = sw.WorldSpec(seed=seed)
        world = sw.generate_world(spec)
        pcfg = spec.projection_config()
        images = [rvw.build_range_image(s, pcfg) for s in world.scans]
        n = len(images)
        labels = [rvw.OverlapLabel(query=a, cand=b, overlap=rvw.compute_overlap(
                      images[a], world.poses[a], world.scans[b], world.poses[b]))
                  for a in range(n) for b in range(a + 1, n)]
        self.tuples = rvw.build_tuples(labels, 0.3, k_p=2, k_n=2, seed=seed)
        self.images = dict(enumerate(images))
        self.cfg = pl.ModelConfig(**TRAIN_MODEL)
        self.tcfg = tr.TrainConfig(loss="imtrihard", lr=1e-4, epochs=1,
                                   k_p=2, k_n=2, seed=seed)
        self.epoch_steps = len(tr.split_validation(self.tuples)[0])
        self.seed = seed
        self.out_dir = work_dir
        self.prepare()
        self._train(1)  # warm-up

    def prepare(self) -> None:
        self.params = pl.init_model(self.cfg, self.seed)

    def _train(self, steps: int) -> list:
        """The loss of every step of one ``train`` call; 0 steps is an epoch."""
        self._current = []
        tr.train(self.tuples, self.images, self.params, self.cfg, self.tcfg,
                 self.out_dir, max_steps=steps)
        return self._current

    def op(self) -> int:
        self.traces.append(self._train(0))
        return self.epoch_steps

    def alloc_op(self) -> None:
        self.prepare()
        self._train(1)

    def checks(self):
        return [("losses_finite", self._check_finite),
                ("loss_trace_bit_identical", self._check_identical)]

    def _check_finite(self):
        require(len(self.traces) > 0, "no train call completed")
        for trace in self.traces:
            require(len(trace) == self.epoch_steps,
                    f"{len(trace)} losses for {self.epoch_steps} steps")
            require(bool(np.all(np.isfinite(trace))), "non-finite loss")

    def _check_identical(self):
        # one more, shorter call from the same initial parameters must
        # repeat the first losses of every timed call
        self.prepare()
        again = self._train(CHECK_STEPS)
        for trace in self.traces:
            require(trace[:CHECK_STEPS] == again, "loss trace differs between calls")


class LabelWorld(Workload):
    """Range images plus all-pairs overlap labels, as ``rangeloop overlaps``."""

    unit, alias = "pair", "label_pairs_per_s"

    min_ops = 2  # labels are compared across passes
    n_places = 50
    visits = 3

    def setup(self, seed: int, work_dir: str) -> None:
        self.spec = sw.WorldSpec(seed=seed, n_places=self.n_places,
                                 visits_per_place=self.visits)
        self.world = sw.generate_world(self.spec)
        self.pcfg = self.spec.projection_config()
        self.path = os.path.join(work_dir, "labels.txt")
        self.passes = []
        # warm-up on the first three scans
        w = self.world
        img = rvw.build_range_image(w.scans[0], self.pcfg)
        for b in (1, 2):
            rvw.compute_overlap(img, w.poses[0], w.scans[b], w.poses[b])

    def prepare(self) -> None:
        # the checks use the first pass and the latest, which op appends;
        # holding no more keeps peak RSS the same however many ops run
        del self.passes[1:]

    def op(self) -> int:
        scans, poses = self.world.scans, self.world.poses
        images = [rvw.build_range_image(s, self.pcfg) for s in scans]
        labels = []
        for a in range(len(scans)):
            for b in range(a + 1, len(scans)):
                ov = rvw.compute_overlap(images[a], poses[a], scans[b], poses[b])
                labels.append(rvw.OverlapLabel(query=a, cand=b, overlap=ov))
        io.save_labels(self.path, labels)
        self.passes.append(labels)
        return len(labels)

    def checks(self):
        return [("overlap_zero_across_places", self._check_places),
                ("self_overlap_is_one", self._check_self),
                ("labels_identical_across_passes", self._check_passes),
                ("label_file_round_trip", self._check_file)]

    def _check_places(self):
        pid = self.world.place_ids
        for lab in self.passes[-1]:
            if pid[lab.query] == pid[lab.cand]:
                require(lab.overlap > 0.0, f"revisit pair {lab.query},{lab.cand} has 0 overlap")
            else:
                require(lab.overlap == 0.0,
                        f"pair {lab.query},{lab.cand} of different places overlaps {lab.overlap!r}")

    def _check_self(self):
        w = self.world
        for i in range(0, len(w.scans), len(w.scans) // 5):
            img = rvw.build_range_image(w.scans[i], self.pcfg)
            ov = rvw.compute_overlap(img, w.poses[i], w.scans[i], w.poses[i])
            require(ov == 1.0, f"scan {i} overlaps itself by {ov!r}")

    def _check_passes(self):
        require(len(self.passes) > 1, "fewer than two passes to compare")
        require(self.passes[-1] == self.passes[0], "labels differ between passes")

    def _check_file(self):
        require(io.load_labels(self.path) == self.passes[-1],
                "label file does not read back as written")


class LoopEval(Workload):
    """Load, search every query and run both protocols on a trajectory."""

    unit, alias = "query", "eval_queries_per_s"
    min_ops = 2  # reports are compared across calls
    k = 20
    oracle_queries = 25

    def setup(self, seed: int, work_dir: str) -> None:
        self.traj = trajectory.make_trajectory(seed)
        self.db_path = os.path.join(work_dir, "trajectory.omdb")
        self.labels_path = os.path.join(work_dir, "labels.txt")
        io.save_descriptor_db(self.db_path, self.traj.ids, self.traj.descriptors)
        io.save_labels(self.labels_path, self.traj.labels)
        self.loop = rt.EvalProtocol(kind="loop_closure", window=100)
        self.place = rt.EvalProtocol(kind="place_recognition", distance_threshold=10.0)
        self.results = []
        # warm-up: load, and search a few queries
        db = rt.DescriptorDb.load(self.db_path)
        for q in db.descriptors[:5]:
            rt.db_search(db, q, self.k)

    def prepare(self) -> None:
        del self.results[1:]  # as in LabelWorld.prepare

    def op(self) -> int:
        db = rt.DescriptorDb.load(self.db_path)
        labels = io.load_labels(self.labels_path)
        hits = [rt.db_search(db, q, self.k) for q in db.descriptors]
        loop = rt.eval_loop_closure(db, labels, self.loop)
        p = trajectory.N_PLACES
        ref = rt.DescriptorDb(db.ids[:p], db.descriptors[:p])
        query = rt.DescriptorDb(db.ids[p:], db.descriptors[p:])
        pos = self.traj.positions
        place = rt.eval_place_recognition(ref, query, pos[:p], pos[p:], self.place)
        self.results.append((db, hits, loop, place))
        return len(db)

    def checks(self):
        return [("omdb_round_trip", self._check_round_trip),
                ("topk_matches_oracle", self._check_oracle),
                ("loop_pr_curve_nondegenerate", self._check_loop),
                ("place_recall_ordered", self._check_place),
                ("reports_identical_across_calls", self._check_repeat)]

    def _check_round_trip(self):
        db = self.results[-1][0]
        require(db.ids == self.traj.ids, "database ids changed in the round trip")
        want = self.traj.descriptors.astype("<f4").astype(np.float64)
        require(np.array_equal(db.descriptors, want),
                "database descriptors differ from the float32 cast")

    def _check_oracle(self):
        db, hits, _, _ = self.results[-1]
        ids = np.asarray(db.ids)
        for qi in np.linspace(0, len(db) - 1, self.oracle_queries).astype(int):
            dists = np.sqrt(np.sum((db.descriptors - db.descriptors[qi]) ** 2, axis=1))
            order = np.lexsort((ids, dists))[: self.k]
            got = hits[qi]
            require([c for c, _ in got] == ids[order].tolist(),
                     f"query {qi}: top-{self.k} ids differ from the oracle")
            require(np.allclose([d for _, d in got], dists[order], rtol=0, atol=1e-9),
                    f"query {qi}: top-{self.k} distances differ from the oracle")

    def _check_loop(self):
        loop = self.results[-1][2]
        require(loop.n_positive_queries > 0, "no query has a true loop")
        # the all-true short cut reports exactly 1.0 without a PR curve
        require(0.0 < loop.auc < 1.0, f"degenerate PR curve, AUC {loop.auc!r}")
        require(0.0 < loop.recall1 < 1.0, f"recall@1 {loop.recall1!r} is not informative")

    def _check_place(self):
        place = self.results[-1][3]
        require(place.n_evaluated > 0, "no place-recognition query was evaluated")
        require(0.0 < place.ar1 <= place.ar5 <= place.ar20 <= 1.0,
                f"recalls out of order: {place.ar1!r}, {place.ar5!r}, {place.ar20!r}")

    def _check_repeat(self):
        require(len(self.results) > 1, "fewer than two calls to compare")
        first, last = self.results[0], self.results[-1]
        require(last[1:] == first[1:], "search or evaluation results differ between calls")


WORKLOADS = {
    "embed_paper": EmbedPaper,
    "train_small": TrainSmall,
    "label_world": LabelWorld,
    "loop_eval": LoopEval,
}
