"""Exit checks for the whole pipeline: ten numbered acceptance criteria.

Each test prints one pass/fail line with its wall time (visible under
``pytest -s``).  Tolerances are pinned in the assertions.  Wherever possible
the expected values come from independent oracles: hand-computed closed
forms, brute-force reimplementations, finite differences, and exact
geometric identities.  Criterion 10 is informational: it reports timings
and asserts only that the report is well formed.
"""

import inspect
import math
import tempfile
import time
from contextlib import contextmanager

import numpy as np
import pytest

from rangeloop import backbone as bb
from rangeloop import block as ob
from rangeloop import descriptor as dsc
from rangeloop import io as rio
from rangeloop import pipeline as pl
from rangeloop import rangeview as rvw
from rangeloop import retrieval as rt
from rangeloop import selfcheck as sc
from rangeloop import ssm
from rangeloop import synthworld as sw
from rangeloop import tensor as tt
from rangeloop import training as tr


@contextmanager
def _criterion(idx, name):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"[{idx:2d}] {name}: FAIL ({time.time() - t0:.1f}s)")
        raise
    print(f"[{idx:2d}] {name}: PASS ({time.time() - t0:.1f}s)")


def _rot_z(yaw):
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


@pytest.fixture(scope="module")
def default_world():
    spec = sw.WorldSpec()
    world = sw.generate_world(spec)
    cfg = spec.projection_config()
    images = {i: rvw.build_range_image(s, cfg) for i, s in enumerate(world.scans)}
    return spec, world, cfg, images


# --------------------------------------------------------------------------
# brute-force metric oracles (independent loop-based reimplementations)


def _bruteforce_pr(scores):
    n_pos = sum(1 for _, t in scores if t)
    points = []
    f1max = 0.0
    for t in sorted({s for s, _ in scores}, reverse=True):
        tp = sum(1 for s, lab in scores if s >= t and lab)
        fp = sum(1 for s, lab in scores if s >= t and not lab)
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / n_pos
        if p + r:
            f1max = max(f1max, 2 * p * r / (p + r))
        points.append((r, p))
    points.insert(0, (0.0, points[0][1]))
    auc = sum((r1 - r0) * (p0 + p1) / 2
              for (r0, p0), (r1, p1) in zip(points, points[1:]))
    return auc, f1max


def _rank1_auc(scores):
    """AUC of rank-1 retrieval scores; all-true lists short-circuit to 1.0
    because pr_metrics needs both classes."""
    labels = [t for _, t in scores]
    if all(labels):
        return 1.0
    if not any(labels):
        return 0.0
    return rt.pr_metrics(scores)[0]


class TestAcceptance:
    def test_01_recurrence_convolution_duality(self):
        with _criterion(1, "LTI recurrence equals kernel convolution"):
            t0 = time.time()
            rng = np.random.default_rng(42)
            worst = 0.0
            for _ in range(50):
                e = int(rng.integers(1, 5))
                n = int(rng.integers(1, 9))
                m = int(rng.integers(2, 65))
                delta = rng.uniform(0.05, 0.9, size=e)
                a = -np.exp(rng.standard_normal((e, n)) * 0.5)
                b = rng.standard_normal(n)
                c = rng.standard_normal(n)
                d = rng.standard_normal(e)
                x = rng.standard_normal((1, m, e))

                abar = np.exp(delta[:, None] * a)
                bbar = delta[:, None] * b[None, :]
                kern = ssm.lti_kernel(abar, bbar, c, m)
                y_conv = ssm.causal_conv(x, kern) + d * x

                dssm = ssm.discretize(np.broadcast_to(delta, (1, m, e)), a, b,
                                      mode="euler")
                y_scan = ssm.scan_sequential(dssm, c, d, x)
                worst = max(worst, float(np.max(np.abs(y_scan - y_conv))))
            assert worst < 1e-10, f"duality gap {worst:.3e}"
            assert time.time() - t0 < 5.0

    def test_02_parallel_scan_equivalence(self):
        with _criterion(2, "parallel scan equals sequential scan"):
            t0 = time.time()
            rng = np.random.default_rng(42)
            worst = 0.0
            for m in (1, 7, 64, 900):
                e, n = 3, 4
                delta = rng.uniform(1e-3, 1e-1, size=(1, m, e))
                a = -rng.uniform(0.2, 2.0, size=(e, n))
                b = rng.standard_normal((1, m, n))
                c = rng.standard_normal((1, m, n))
                d = rng.standard_normal(e)
                x = rng.standard_normal((1, m, e))
                dssm = ssm.discretize(delta, a, b, mode="zoh")
                seq = ssm.scan_sequential(dssm, c, d, x)
                par = ssm.scan_parallel(dssm, c, d, x)
                worst = max(worst, float(np.max(np.abs(seq - par))))
            assert worst < 1e-10, f"scan mismatch {worst:.3e}"
            assert time.time() - t0 < 5.0

    def test_03_gradient_suite(self):
        with _criterion(3, "finite-difference gradient suite"):
            t0 = time.time()
            rng = np.random.default_rng(42)
            a2 = rng.standard_normal((3, 4))
            b2 = rng.standard_normal((3, 4))
            # The draws marked "kept" fed cases of ops that are gone; they
            # stay so that every later input, the mixing block's included,
            # is drawn as before.
            rng.uniform(0.5, 2.0, size=(3, 4))  # kept
            rng.random((3, 4))  # kept
            sep = (rng.permutation(12).astype(float) - 5.5).reshape(3, 4)
            x3 = rng.standard_normal((2, 6, 4))
            order = np.argsort(x3[:, :, :1], axis=1)  # a row permutation
            w2 = rng.standard_normal((4, 5)) * 0.5
            b1 = rng.standard_normal(5)
            xc = rng.standard_normal((2, 3, 8))
            rng.standard_normal((2, 3, 8))  # kept
            wc = rng.standard_normal((5, 3, 3)) * 0.4
            sepc = (rng.permutation(48).astype(float) - 23.5).reshape(2, 3, 8)
            xv = rng.standard_normal((2, 3, 6, 5))
            wv = rng.standard_normal((4, 3, 3, 1)) * 0.4
            gain = rng.uniform(0.5, 1.5, size=4)
            beta = rng.standard_normal(4)
            # fused scan over more than one block of steps, every input free
            m_s = ssm._SCAN_CHUNK + 6
            scan_in = [rng.standard_normal((2, m_s, 3)),
                       rng.uniform(0.05, 0.8, size=(2, m_s, 3)),
                       np.log(rng.uniform(0.2, 2.0, size=(3, 4))),
                       np.concatenate([rng.standard_normal((2, m_s, 4)),
                                       rng.standard_normal((2, m_s, 4))], axis=2),
                       rng.standard_normal(3)]
            rng.standard_normal((3, 4)), rng.standard_normal((4, 5))  # kept
            es_b = rng.standard_normal((4, 5))
            rng.standard_normal((1, 4))  # kept

            cases = [
                ("add", lambda a, b: tt.add(a, b), [a2, b2]),
                ("sub", lambda a, b: tt.sub(a, b), [a2, b2]),
                ("mul", lambda a, b: tt.mul(a, b), [a2, b2]),
                ("silu", lambda a: tt.silu(a), [a2]),
                ("softplus", lambda a: tt.softplus(a), [a2]),
                ("relu", lambda a: tt.relu(a), [sep]),
                ("einsum2", lambda a, b: tt.einsum2("bme,en->bmn", a, b),
                 [x3, es_b]),
                ("linear", lambda x, w, b: tt.linear(x, w, b), [x3, w2, b1]),
                ("tsum", lambda a: tt.tsum(a, axis=1), [x3]),
                ("tmean", lambda a: tt.tmean(a, axis=(0, 2)), [x3]),
                ("take_along", lambda a: tt.take_along(a, order, axis=1), [x3]),
                ("tmax", lambda a: tt.tmax(a, axis=0), [sep]),
                ("tmin", lambda a: tt.tmin(a, axis=1), [sep]),
                ("reshape", lambda a: tt.reshape(a, (4, 3)), [a2]),
                ("transpose", lambda a: tt.transpose(a, (1, 0)), [a2]),
                ("concat", lambda a, b: tt.concat([a, b], axis=0), [a2, b2]),
                ("narrow", lambda a: tt.narrow(a, 1, 1, 2), [a2]),
                ("conv_vertical", lambda x, w, b: tt.conv_vertical(x, w, b, stride_h=2),
                 [xv, wv, b1[:4]]),
                ("conv1d_circular", lambda x, w, b: tt.conv1d_circular(x, w, b),
                 [xc, wc, b1]),
                ("conv1d_circular", lambda x, w, b: tt.conv1d_circular(x, w, b, reverse=True),
                 [xc, wc, b1]),
                ("maxpool1d_circular", lambda x: tt.maxpool1d_circular(x, 3),
                 [sepc]),
                ("layer_norm", lambda x, g, b: tt.layer_norm(x, g, b),
                 [x3, gain, beta]),
                ("softmax", lambda x: tt.softmax(x, axis=-1), [x3]),
                ("l2_normalize", lambda x: tt.l2_normalize(x, axis=-1), [x3]),
                # two ops recorded on worker threads, spliced into the tape
                ("concurrent", lambda a, b: tt.add(*tt.concurrent(
                    [lambda: tt.mul(a, b), lambda: tt.silu(b)])), [a2, b2]),
                ("selective_scan", ssm.selective_scan, scan_in),
                ("selective_scan",
                 lambda *t: ssm.selective_scan(*t, np.roll(np.arange(m_s), -5)[::-1]),
                 scan_in),
            ]
            # one case per public differentiable op, so a new op without a
            # finite-difference case fails here
            ops = {name for name, fn in vars(tt).items()
                   if inspect.isfunction(fn) and fn.__module__ == tt.__name__
                   and not name.startswith("_")}
            ops -= {"as_tensor", "active_tape", "backward"}
            assert {name for name, _, _ in cases} == ops | {"selective_scan"}
            # projections come from a generator per case, so the mixing
            # block's inputs below draw from rng whatever the case list holds
            for name, op, arrays in cases:
                try:
                    sc.check_grads(op, arrays, np.random.default_rng(7))
                except AssertionError as exc:
                    raise AssertionError(f"{name}: {exc}") from None

            # full mixing block on a (1, 8, 4) toy: gradient w.r.t. the input
            # and every parameter array, every entry
            model = pl.ModelConfig(h=2, stages=((4, 2, 2),), olm_n=2, olm_conv_kernel=3)
            params = {name: t.data for name, t in pl.init_model(model, seed=42).items()
                      if name.startswith("olm.L0.")}
            names = sorted(params)

            def block(x, *tensors):
                return ob.olm_forward(x, dict(zip(names, tensors)))

            x_b = rng.standard_normal((1, 8, 4)) * 0.5
            sc.check_grads(block, [x_b] + [params[k] for k in names], rng)
            assert time.time() - t0 < 60.0

    def test_04_exact_yaw_properties(self):
        with _criterion(4, "exact yaw shift properties"):
            cfg = pl.ModelConfig(h=8, w=24,
                                 stages=((8, 2, 2), (16, 2, 2), (16, 2, 2)),
                                 olm_n=2, vlad_k=4, mlp_hidden=16, out_dim=8)
            params = pl.init_model(cfg, seed=42)
            rng = np.random.default_rng(42)
            shifts = (1, cfg.w // 4, cfg.w // 2)

            # (a) backbone + pooling: column shift of the input shifts the
            # token sequence identically
            x = rng.random((2, 1, cfg.h, cfg.w))
            tokens = bb.backbone_forward(tt.Tensor(x), params, cfg).data
            for s in shifts:
                shifted = bb.backbone_forward(
                    tt.Tensor(np.roll(x, s, axis=3)), params, cfg).data
                gap = float(np.max(np.abs(shifted - np.roll(tokens, s, axis=1))))
                assert gap < 1e-12, f"backbone equivariance gap {gap:.3e} at shift {s}"

            # (b) descriptor aggregation: shifting the token sequence leaves
            # the descriptor bit-identical
            seq = rng.standard_normal((1, cfg.w, cfg.token_dim))
            base = dsc.gdg_forward(tt.Tensor(seq), params).data
            for s in shifts:
                rolled = dsc.gdg_forward(tt.Tensor(np.roll(seq, s, axis=1)), params).data
                assert np.array_equal(base, rolled), f"aggregation differs at shift {s}"

            # (c) full pipeline with the mixing stack bypassed
            xb = rng.random((1, 1, cfg.h, cfg.w))
            d0 = pl.model_forward(tt.Tensor(xb), params, cfg, bypass_olm=True).data
            for s in shifts:
                ds = pl.model_forward(tt.Tensor(np.roll(xb, s, axis=3)),
                                      params, cfg, bypass_olm=True).data
                gap = float(np.max(np.abs(d0 - ds)))
                assert gap < 1e-9, f"descriptor shift gap {gap:.3e} at shift {s}"

    def test_05_loss_hand_values_and_mining(self):
        with _criterion(5, "loss hand values and mining oracle"):
            rng = np.random.default_rng(42)

            # hard-mining loss on integer-coordinate descriptors:
            # pos d^2 {1, 4}, neg d^2 {2, 3}, alpha=0.25, lam=1e-4,
            # k_p = k_n = 2  ->  1e-4*2.5 + 2*(0.25+4) - 2*2 = 4.50025
            q = np.zeros(3)
            p1 = np.array([1.0, 0.0, 0.0])
            p2 = np.array([2.0, 0.0, 0.0])
            n1 = np.array([1.0, 1.0, 0.0])
            n2 = np.array([1.0, 1.0, 1.0])
            cfg = tr.TrainConfig(alpha=0.25, lam=1e-4)
            loss = tr.imtrihard_loss(np.stack([q, p1, p2, n1, n2]), 2, cfg.alpha, cfg.lam)
            assert abs(float(loss.data) - 4.50025) < 1e-12

            # far negatives push the pre-clamp value negative; hinge floors it
            far = np.array([100.0, 0.0, 0.0])
            assert float(tr.imtrihard_loss(np.stack([q, p1, far]), 1,
                                           cfg.alpha, cfg.lam).data) == 0.0

            # singleton closed form: lam*d_p + (alpha + d_p) - d_n, clamped
            for _ in range(20):
                gq = rng.standard_normal(4)
                gp = rng.standard_normal(4)
                gn = rng.standard_normal(4)
                d_p = float(np.sum((gq - gp) ** 2))
                d_n = float(np.sum((gq - gn) ** 2))
                want = max(cfg.lam * d_p + (cfg.alpha + d_p) - d_n, 0.0)
                got = float(tr.imtrihard_loss(np.stack([gq, gp, gn]), 1,
                                              cfg.alpha, cfg.lam).data)
                assert abs(got - want) < 1e-12

            # paired hinge on singleton sets: d^2(q,p)=1, d^2(q,n)=4 -> 0;
            # swapped -> 3.3; equal distances -> alpha
            tcfg = tr.TrainConfig(alpha=0.3, loss="triplet")
            e1 = np.array([1.0, 0.0])
            e2 = np.array([2.0, 0.0])
            zero = np.zeros(2)
            r = np.random.default_rng(0)
            assert float(tr.triplet_loss(np.stack([zero, e1, e2]), 1, tcfg.alpha,
                                         r).data) == 0.0
            got = float(tr.triplet_loss(np.stack([zero, e2, e1]), 1, tcfg.alpha, r).data)
            assert abs(got - 3.3) < 1e-12
            got = float(tr.triplet_loss(np.stack([zero, e1, np.array([-1.0, 0.0])]), 1,
                                        tcfg.alpha, r).data)
            assert abs(got - 0.3) < 1e-12

            # the hard-mining loss selects the exhaustive argmax/argmin with
            # ties to the lowest index, on 100 random sets with quantized
            # coordinates
            for _ in range(100):
                dim = int(rng.integers(1, 4))
                n_p = int(rng.integers(1, 7))
                n_n = int(rng.integers(1, 7))
                gq = rng.integers(0, 3, size=dim).astype(float)
                pos = [rng.integers(0, 3, size=dim).astype(float) for _ in range(n_p)]
                neg = [rng.integers(0, 3, size=dim).astype(float) for _ in range(n_n)]
                hp, hn = sc._loss_selection(np.stack([gq, *pos, *neg]), n_p)
                best_p, best_pd = 0, -1.0
                for i, g in enumerate(pos):
                    d = float(np.sum((gq - g) ** 2))
                    if d > best_pd:
                        best_p, best_pd = i, d
                best_n, best_nd = 0, float("inf")
                for i, g in enumerate(neg):
                    d = float(np.sum((gq - g) ** 2))
                    if d < best_nd:
                        best_n, best_nd = i, d
                assert (hp, hn) == (best_p, best_n)

    def test_06_end_to_end_overfit_and_trend(self, default_world):
        with _criterion(6, "end-to-end overfit and convergence trend"):
            t0 = time.time()
            spec, world, pcfg, images = default_world
            n = len(world.scans)
            labels = []
            for a in range(n):
                for b in range(a + 1, n):
                    labels.append(rvw.OverlapLabel(
                        query=a, cand=b,
                        overlap=rvw.compute_overlap(images[a], world.poses[a],
                                                    world.scans[b], world.poses[b])))

            # overfit clause: 200 hard-mining steps on the default world
            model = pl.ModelConfig(h=16, w=128,
                                   stages=((8, 2, 2), (16, 2, 2), (16, 2, 2),
                                           (32, 2, 2)),
                                   spp_mode="add", olm_n=4, vlad_k=8,
                                   mlp_hidden=64, out_dim=32)
            tuples = rvw.build_tuples(labels, 0.3, k_p=2, k_n=2, seed=42)
            params = pl.init_model(model, seed=42)
            tcfg = tr.TrainConfig(loss="imtrihard", lr=1e-4, epochs=10,
                                  k_p=2, k_n=2, seed=42)
            with tempfile.TemporaryDirectory() as d:
                tr.train(tuples, images, params, model, tcfg, d, max_steps=200)

            td = pl.describe_images([images[i] for i in range(n)], params, model)
            hits = 0
            for i in range(n):
                dist = np.sqrt(np.sum((td - td[i]) ** 2, axis=1))
                dist[i] = np.inf
                hits += world.place_ids[int(np.argmin(dist))] == world.place_ids[i]
            assert hits == n, f"training-set rank-1 hits {hits}/{n}"

            # held-out revisits: one fresh jittered pose and one exact
            # reverse-heading pose per place, truth by geometric overlap
            rng_h = np.random.default_rng(777)
            places = sw.build_places(spec, np.random.default_rng(spec.seed))
            held_images, held_poses, held_kind = [], [], []
            for pid, place in enumerate(places):
                pose_j = sw.visit_pose(spec, place, rng_h)
                held_images.append(rvw.build_range_image(
                    sw.render_scan(spec, place, pose_j), pcfg))
                held_poses.append(pose_j)
                held_kind.append("jitter")
                base = world.poses[pid]
                pose_r = rvw.Pose(rotation=base.rotation @ _rot_z(math.pi),
                                  translation=base.translation)
                held_images.append(rvw.build_range_image(
                    sw.render_scan(spec, place, pose_r), pcfg))
                held_poses.append(pose_r)
                held_kind.append("reverse")
            hd = pl.describe_images(held_images, params, model)
            scores, reverse_scores = [], []
            for qi in range(len(held_images)):
                dist = np.sqrt(np.sum((td - hd[qi]) ** 2, axis=1))
                top = int(np.argmin(dist))
                ov = rvw.compute_overlap(held_images[qi], held_poses[qi],
                                         world.scans[top], world.poses[top])
                entry = (-float(dist[top]), ov > 0.3)
                scores.append(entry)
                if held_kind[qi] == "reverse":
                    reverse_scores.append(entry)
            auc = _rank1_auc(scores)
            auc_rev = _rank1_auc(reverse_scores)
            assert auc >= 0.95, f"held-out AUC {auc:.3f}"
            assert auc_rev >= 0.95, f"reverse-heading AUC {auc_rev:.3f}"
            overfit_s = time.time() - t0
            assert overfit_s < 900.0, f"overfit clause took {overfit_s:.0f}s"

            # trend clause: same world and seed, capacity-limited model so
            # the validation score is not saturated at the start; the
            # hard-mining loss must reach the paired-hinge run's best
            # validation F1max in strictly fewer epochs
            weak = pl.ModelConfig(h=16, w=128,
                                  stages=((8, 2, 2), (8, 2, 2), (16, 2, 2),
                                          (16, 2, 2)),
                                  spp_mode="add", olm_n=2, vlad_k=2,
                                  mlp_hidden=8, out_dim=3)
            tuples6 = rvw.build_tuples(labels, 0.3, k_p=2, k_n=6, seed=42)

            def val_series(kind):
                wparams = pl.init_model(weak, seed=42)
                wcfg = tr.TrainConfig(loss=kind, lr=2e-5, epochs=8,
                                      k_p=2, k_n=6, seed=42)
                with tempfile.TemporaryDirectory() as d:
                    reports = tr.train(tuples6, images, wparams, weak, wcfg, d)
                return [r.val_f1max for r in reports]

            tri = val_series("triplet")
            imt = val_series("imtrihard")
            best_tri = max(tri)
            ep_tri = tri.index(best_tri) + 1
            reached = [i + 1 for i, v in enumerate(imt) if v >= best_tri]
            assert reached, f"hard mining never reached {best_tri:.3f}: {imt}"
            assert reached[0] < ep_tri, (
                f"no convergence advantage: reached at {reached[0]}, "
                f"paired hinge best at {ep_tri}")

    def test_07_metric_bruteforce_oracles(self):
        with _criterion(7, "metric brute-force oracles"):
            t0 = time.time()
            rng = np.random.default_rng(42)

            for _ in range(200):
                n = int(rng.integers(2, 40))
                scores = [(float(rng.normal()), bool(rng.random() < 0.5))
                          for _ in range(n)]
                labs = [t for _, t in scores]
                if all(labs) or not any(labs):
                    scores[0] = (scores[0][0], not scores[0][1])
                assert rt.pr_metrics(scores) == _bruteforce_pr(scores)

            for _ in range(200):
                nq = int(rng.integers(1, 8))
                rankings = [rng.permutation(30).tolist() for _ in range(nq)]
                truths = [set(rng.choice(30, size=rng.integers(0, 4),
                                         replace=False).tolist())
                          for _ in range(nq)]
                k = int(rng.integers(1, 10))
                got_frac, got_excl = rt.recall_at(rankings, truths, k)
                hits = cons = 0
                for ranked, truth in zip(rankings, truths):
                    if not truth:
                        continue
                    cons += 1
                    hits += any(c in truth for c in ranked[:k])
                if cons == 0:
                    assert math.isnan(got_frac)
                else:
                    assert got_frac == hits / cons
                assert got_excl == nq - cons

            for _ in range(200):
                rows = int(rng.integers(1, 50))
                dim = int(rng.integers(1, 6))
                mat = rng.integers(-2, 3, size=(rows, dim)).astype(float)
                ids = rng.permutation(200)[:rows].tolist()
                db = rt.DescriptorDb(ids, mat)
                q = rng.integers(-2, 3, size=dim).astype(float)
                k = int(rng.integers(1, rows + 5))
                got = rt.db_search(db, q, k=k)
                dists = np.sqrt(np.sum((mat - q) ** 2, axis=1))
                want = sorted(zip(dists, ids))[:k]
                assert [(i, d) for d, i in want] == got
            assert time.time() - t0 < 10.0

    def test_08_overlap_reprojection_oracle(self, default_world):
        with _criterion(8, "overlap reprojection oracle"):
            spec, world, pcfg, images = default_world

            def oracle(ri_a, pose_a, points_b, pose_b, eps_rel=0.05):
                """Per-point reimplementation: transform each return of b
                into a's frame with plain floats, bin it into a's image,
                keep the nearest per pixel, then count agreeing pixels."""
                cfg = ri_a.config
                ra_rot, ra_t = pose_a.rotation, pose_a.translation
                rb_rot, rb_t = pose_b.rotation, pose_b.translation
                pix = {}
                for p in np.asarray(points_b, dtype=np.float64):
                    w = [rb_rot[j, 0] * p[0] + rb_rot[j, 1] * p[1]
                         + rb_rot[j, 2] * p[2] + rb_t[j] for j in range(3)]
                    rel = [w[j] - ra_t[j] for j in range(3)]
                    loc = [ra_rot[0, i] * rel[0] + ra_rot[1, i] * rel[1]
                           + ra_rot[2, i] * rel[2] for i in range(3)]
                    r = math.sqrt(loc[0] ** 2 + loc[1] ** 2 + loc[2] ** 2)
                    if r <= 0.0 or r > cfg.r_max:
                        continue
                    u = math.floor(0.5 * (1.0 - math.atan2(loc[1], loc[0])
                                          / math.pi) * cfg.w)
                    if u == cfg.w:
                        u = 0
                    u = min(max(u, 0), cfg.w - 1)
                    pitch = math.asin(min(max(loc[2] / r, -1.0), 1.0))
                    v = math.floor((1.0 - (pitch + cfg.f_up) / cfg.f) * cfg.h)
                    if v < 0 or v >= cfg.h:
                        continue
                    if (v, u) not in pix or r < pix[(v, u)]:
                        pix[(v, u)] = r
                agree = n_valid = 0
                for vv in range(cfg.h):
                    for uu in range(cfg.w):
                        r_a = float(ri_a.ranges[vv, uu])
                        if r_a <= 0.0:
                            continue
                        n_valid += 1
                        r_b = pix.get((vv, uu))
                        if r_b is not None and abs(r_b - r_a) <= eps_rel * r_a:
                            agree += 1
                return agree / n_valid if n_valid else 0.0

            n_places = spec.n_places
            pairs = ([(i, i + n_places) for i in range(10)]
                     + [(i, i + 2 * n_places) for i in range(5)]
                     + [(2 * i, 2 * i + 1) for i in range(5)])
            assert len(pairs) == 20
            for a, b in pairs:
                got = rvw.compute_overlap(images[a], world.poses[a],
                                          world.scans[b], world.poses[b])
                want = oracle(images[a], world.poses[a],
                              world.scans[b], world.poses[b])
                assert got == want, f"pair ({a}, {b}): {got} vs oracle {want}"

            for i in range(5):
                got = rvw.compute_overlap(images[i], world.poses[i],
                                          world.scans[i], world.poses[i])
                assert got == 1.0, f"identity overlap of scan {i} is {got}"

    def test_09_determinism_and_selfcheck(self):
        with _criterion(9, "bit-exact determinism and selfcheck"):
            spec = sw.WorldSpec(n_places=4, visits_per_place=2, h=8, w=32,
                                n_obstacles=4)
            world = sw.generate_world(spec)
            pcfg = spec.projection_config()
            images = {i: rvw.build_range_image(s, pcfg)
                      for i, s in enumerate(world.scans)}
            labels = []
            for a in range(len(world.scans)):
                for b in range(a + 1, len(world.scans)):
                    labels.append(rvw.OverlapLabel(
                        query=a, cand=b,
                        overlap=rvw.compute_overlap(images[a], world.poses[a],
                                                    world.scans[b],
                                                    world.poses[b])))
            tuples = rvw.build_tuples(labels, 0.3, k_p=2, k_n=2, seed=42)
            cfg = pl.ModelConfig(h=8, w=32,
                                 stages=((8, 2, 2), (8, 2, 2), (8, 2, 2)),
                                 olm_n=2, vlad_k=2, mlp_hidden=8, out_dim=4)

            def run_once(out_dir):
                params = pl.init_model(cfg, seed=42)
                tcfg = tr.TrainConfig(loss="imtrihard", lr=5e-4, epochs=2,
                                      k_p=2, k_n=2, seed=42)
                tr.train(tuples, images, params, cfg, tcfg, out_dir)
                desc = pl.describe_images([images[i] for i in sorted(images)],
                                          params, cfg)
                rio.save_descriptor_db(f"{out_dir}/db.omdb", sorted(images),
                                       desc)

            with tempfile.TemporaryDirectory() as d1, \
                    tempfile.TemporaryDirectory() as d2:
                run_once(d1)
                run_once(d2)
                for name in ("final.omck", "report.csv", "db.omdb"):
                    with open(f"{d1}/{name}", "rb") as f:
                        blob1 = f.read()
                    with open(f"{d2}/{name}", "rb") as f:
                        blob2 = f.read()
                    assert blob1 == blob2, f"{name} differs between runs"

            results = sc.run_selfcheck()
            bad = [r.name for r in results if not r.ok]
            assert not bad, f"selfcheck failures: {bad}"

    def test_10_throughput_report(self):
        with _criterion(10, "throughput report (informational)"):
            cfg = pl.ModelConfig()
            assert (cfg.h, cfg.w, cfg.out_dim) == (64, 900, 256)
            params = pl.init_model(cfg, seed=42)
            rows = rt.bench(params, cfg, reps=1)
            by_name = {r.name: r for r in rows}
            assert set(by_name) == {"descriptor_extraction", "db_search_1000",
                                    "db_search_all_1000_per_query",
                                    "scan_sequential_m900",
                                    "scan_parallel_m900",
                                    "selective_scan_m900"}
            for r in rows:
                assert r.mean_s > 0.0
                print(f"     {r.name}: {r.mean_s * 1e3:.2f} ms"
                      f"{' (low confidence)' if r.low_confidence else ''}")
            speedup = (by_name["scan_sequential_m900"].mean_s
                       / by_name["scan_parallel_m900"].mean_s)
            print(f"     parallel scan speedup at length 900: {speedup:.1f}x")
            fused = (by_name["scan_sequential_m900"].mean_s
                     / by_name["selective_scan_m900"].mean_s)
            print(f"     fused scan speedup at length 900: {fused:.1f}x")
