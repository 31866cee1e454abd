"""Built-in invariant suite: fast, dependency-free diagnostics.

Each check exercises one structural guarantee of the pipeline (gradient
correctness, scan equivalence, shift properties, metric conventions,
determinism) on a small fixed instance.  ``run_selfcheck`` executes the whole
registry and reports per-check pass/fail and wall time; the command-line
entry point exits 0 only when every check passes.

``check_grads`` is the project's one finite-difference gradient probe: the
gradient check here, the unit tests and acceptance criterion 3 all call it.
"""

from __future__ import annotations

import time
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from . import block as ob
from . import pipeline as pl
from . import rangeview as rvw
from . import retrieval as rt
from . import ssm
from . import synthworld as sw
from . import tensor as tt
from . import training as tr
from .io import save_checkpoint, load_checkpoint


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str
    seconds: float  # wall time of the check


def _toy_model() -> Tuple[dict, pl.ModelConfig]:
    cfg = pl.ModelConfig(h=8, w=24, stages=((8, 2, 2), (16, 2, 2), (16, 2, 2)),
                         olm_n=2, vlad_k=4, mlp_hidden=16, out_dim=8)
    return pl.init_model(cfg, seed=42), cfg


# The probe's central-difference step and its bound on each entry's relative
# error |analytic - numeric| / max(1, |analytic|, |numeric|).
_FD_STEP = 1e-5
_FD_TOL = 1e-4


def check_grads(op: Callable, arrays: List[np.ndarray], rng: np.random.Generator) -> float:
    """Tape gradients of ``op`` against central differences, every entry of
    every input: the full Jacobian, not a sample of it.

    ``op`` maps one Tensor per array to a Tensor.  It runs once under a tape,
    then its output is contracted to a scalar against a projection drawn
    from ``rng``, so every output entry weighs in, not just their sum.  Each
    entry of each input's gradient is compared with a central difference of
    that scalar at step ``_FD_STEP``.  Raises ``AssertionError`` naming the input
    and the flat index of its worst entry when that entry's relative error
    reaches ``_FD_TOL``, or naming an input that got no gradient.  Returns
    the worst error; the caller's arrays are not changed.
    """
    arrays = [np.array(a, dtype=np.float64, order="C") for a in arrays]
    inputs = [tt.Tensor(a.copy(), requires_grad=True) for a in arrays]
    with tt.Tape() as tape:
        out = op(*inputs)
        proj = rng.standard_normal(out.shape)
        loss = tt.tsum(tt.mul(out, tt.Tensor(proj)))
    tt.backward(loss, tape)

    def scalar() -> float:
        return float(np.sum(op(*[tt.Tensor(a) for a in arrays]).data * proj))

    worst = 0.0
    for k, (a, inp) in enumerate(zip(arrays, inputs)):
        if inp.grad is None:
            raise AssertionError(f"input {k} got no gradient")
        flat = a.reshape(-1)
        numeric = np.empty(flat.size)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + _FD_STEP
            up = scalar()
            flat[i] = keep - _FD_STEP
            down = scalar()
            flat[i] = keep
            numeric[i] = (up - down) / (2.0 * _FD_STEP)
        analytic = inp.grad.reshape(-1)
        err = np.abs(analytic - numeric) / np.maximum(
            1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
        i = int(np.argmax(err))
        if not err[i] < _FD_TOL:
            raise AssertionError(
                f"input {k}: relative gradient error {err[i]:.3e} at flat index {i}")
        worst = max(worst, float(err[i]))
    return worst


def check_autodiff_gradients() -> str:
    rng = np.random.default_rng(42)
    x = rng.standard_normal((2, 6, 4))
    w = rng.standard_normal((4, 4)) * 0.5
    g = rng.standard_normal(4)
    b = rng.standard_normal(4)
    cw = rng.standard_normal((4, 4, 3)) * 0.3
    lb = rng.standard_normal(4)
    cb = rng.standard_normal(4)

    def op(xt, wt, gt, bt, cwt, lbt, cbt):
        y = tt.layer_norm(xt, gt, bt)
        y = tt.silu(tt.linear(y, wt, lbt))
        y = tt.conv1d_circular(tt.transpose(y, (0, 2, 1)), cwt, cbt)
        return tt.softmax(tt.transpose(y, (0, 2, 1)), axis=-1)

    worst = check_grads(op, [x, w, g, b, cw, lb, cb], rng)
    # the fused scan over a full first block of steps and a ragged second one
    m = ssm._SCAN_CHUNK + 6
    scan_in = [rng.standard_normal((1, m, 2)), rng.uniform(0.05, 0.8, size=(1, m, 2)),
               np.log(rng.uniform(0.2, 2.0, size=(2, 3))),
               np.concatenate([rng.standard_normal((1, m, 3)) for _ in "BC"], axis=2),
               rng.standard_normal(2)]
    worst = max(worst, check_grads(ssm.selective_scan, scan_in, rng))
    return f"max rel err {worst:.2e}"


def check_scan_equivalence() -> str:
    """The parallel scan and the fused selective scan against the
    sequential recurrence (zero-order hold and Euler operators)."""
    rng = np.random.default_rng(42)
    worst_par = worst_fused = 0.0
    for m in (1, 7, 70):
        e, n = 3, 4
        delta = rng.uniform(1e-3, 1e-1, size=(2, m, e))
        a_log = np.log(rng.uniform(0.2, 2.0, size=(e, n)))
        a = -np.exp(a_log)
        b = rng.standard_normal((2, m, n))
        c = rng.standard_normal((2, m, n))
        d = rng.standard_normal(e)
        x = rng.standard_normal((2, m, e))
        dssm = ssm.discretize(delta, a, b, mode="zoh")
        seq = ssm.scan_sequential(dssm, c, d, x)
        par = ssm.scan_parallel(dssm, c, d, x)
        worst_par = max(worst_par, float(np.max(np.abs(seq - par))))
        euler = ssm.discretize(delta, a, b, mode="euler")
        seq = ssm.scan_sequential(euler, c, d, x)
        fused = ssm.selective_scan(x, delta, a_log, np.concatenate([b, c], axis=2), d).data
        worst_fused = max(worst_fused, float(np.max(np.abs(seq - fused))))
    worst = max(worst_par, worst_fused)
    if worst >= 1e-10:
        raise AssertionError(f"scan mismatch {worst:.3e} >= 1e-10")
    return f"max |seq - par| {worst_par:.2e}, max |seq - fused| {worst_fused:.2e}"


def check_recurrence_convolution_duality() -> str:
    rng = np.random.default_rng(42)
    e, n, m = 3, 4, 32
    delta = np.full((1, m, e), 0.05)
    a = -rng.uniform(0.2, 2.0, size=(e, n))
    b = rng.standard_normal(n)
    c = rng.standard_normal(n)
    x = rng.standard_normal((1, m, e))
    dssm = ssm.discretize(delta, a, b, mode="zoh")
    rec = ssm.scan_sequential(dssm, c, np.zeros(e), x)
    kernel = ssm.lti_kernel(dssm.abar[0, 0], dssm.bbar[0, 0], c, m)
    conv = ssm.causal_conv(x, kernel)
    worst = float(np.max(np.abs(rec - conv)))
    if worst >= 1e-10:
        raise AssertionError(f"duality mismatch {worst:.3e} >= 1e-10")
    return f"max |rec - conv| {worst:.2e}"


def check_branch_order_identity() -> str:
    """Each mixing-block branch alone, at offset 0 and a drawn one, is bit for
    bit ``take_along`` into its step order, conv and scan as is, and back."""
    params, cfg = _toy_model()
    p = {k.removeprefix("olm.L0."): t for k, t in params.items()}
    m, drawn = 11, int(np.random.default_rng(0).integers(0, 11))  # 9
    x = tt.Tensor(np.random.default_rng(42).standard_normal((1, m, cfg.token_dim)))
    tp = tt.layer_norm(x, p["norm.gain"], p["norm.bias"])
    xs = tt.linear(tp, p["lin_x.weight"], p["lin_x.bias"])
    gate = tt.silu(tt.linear(tp, p["lin_z.weight"], p["lin_z.bias"]))
    for keep in ob.DIRECTIONS:
        alone = {k: tt.Tensor(np.zeros(t.shape)) if ".conv1d." in k and f".{keep}." not in k
                 else t for k, t in params.items()}
        for a, rng in ((0, None), (drawn, np.random.default_rng(0))):
            got = ob.olm_forward(x, alone, rng).data
            order = (np.arange(m) + (a if keep.endswith("shifted") else 0)) % m
            order = order[::-1] if keep.startswith("backward") else order
            xo = tt.transpose(tt.take_along(xs, order[None, :, None], axis=1), (0, 2, 1))
            conv = tt.conv1d_circular(xo, p[f"{keep}.conv1d.weight"], p[f"{keep}.conv1d.bias"])
            xp = tt.transpose(tt.silu(conv), (0, 2, 1))
            yo = ssm.selective_ssm(xp, params, "olm.L0." + keep)
            y = tt.take_along(yo, np.argsort(order)[None, :, None], axis=1)
            want = tt.add(tt.linear(tt.mul(y, gate), p["lin_T.weight"], p["lin_T.bias"]), x)
            if not np.array_equal(got, want.data):
                raise AssertionError(f"{keep} branch at offset {a} differs from the composition")
    return f"exact for {len(ob.DIRECTIONS)} directions at offsets 0 and {drawn}"


def check_zero_block_passthrough() -> str:
    params, cfg = _toy_model()
    for value in params.values():
        value.data[...] = 0.0
    x = tt.Tensor(np.random.default_rng(7).standard_normal((2, 6, cfg.token_dim)))
    out = ob.olm_forward(x, params, None)  # eval mode consumes no rng
    if not np.array_equal(out.data, x.data):
        raise AssertionError("zero-weight block is not an exact identity")
    return "bitwise identity"


def check_backbone_shift_equivariance() -> str:
    params, cfg = _toy_model()
    from . import backbone as bb
    rng = np.random.default_rng(42)
    x = rng.random((1, 1, cfg.h, cfg.w))
    base = bb.backbone_forward(tt.Tensor(x), params, cfg).data
    worst = 0.0
    for s in (1, cfg.w // 4, cfg.w // 2):
        out = bb.backbone_forward(tt.Tensor(np.roll(x, s, axis=3)), params, cfg).data
        worst = max(worst, float(np.max(np.abs(out - np.roll(base, s, axis=1)))))
    if worst >= 1e-12:
        raise AssertionError(f"equivariance error {worst:.3e} >= 1e-12")
    return f"max err {worst:.2e}"


def check_descriptor_shift_invariance() -> str:
    from . import descriptor as gd
    params, cfg = _toy_model()
    seq = np.random.default_rng(42).standard_normal((1, 16, cfg.token_dim))
    base = gd.gdg_forward(tt.Tensor(seq), params).data
    for s in (1, 4, 8):
        out = gd.gdg_forward(tt.Tensor(np.roll(seq, s, axis=1)), params).data
        if not np.array_equal(out, base):
            raise AssertionError(f"descriptor changed under shift {s}")
    return "bit-exact under shifts"


def _toy_images(cfg: pl.ModelConfig, count: int, seed: int = 42):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        ranges = rng.uniform(1.0, 40.0, size=(cfg.h, cfg.w))
        ranges[rng.random((cfg.h, cfg.w)) < 0.2] = rvw.SENTINEL
        out.append(rvw.RangeImage(ranges=ranges, r_max=50.0))
    return out


def check_bypassed_pipeline_shift_invariance() -> str:
    params, cfg = _toy_model()
    base_img = _toy_images(cfg, 1)[0]
    base = pl.describe_images([base_img], params, cfg, bypass_olm=True)
    worst = 0.0
    for s in (1, cfg.w // 4, cfg.w // 2):
        shifted = rvw.RangeImage(ranges=np.roll(base_img.ranges, s, axis=1),
                                 r_max=base_img.r_max)
        out = pl.describe_images([shifted], params, cfg, bypass_olm=True)
        worst = max(worst, float(np.max(np.abs(out - base))))
    if worst >= 1e-9:
        raise AssertionError(f"invariance error {worst:.3e} >= 1e-9")
    return f"max err {worst:.2e}"


def check_loss_hand_values() -> str:
    def rows(*d2, dim=8):
        """Query at zero, then one row at squared distance d for each d."""
        out = np.zeros((1 + len(d2), dim))
        out[1:, 0] = np.sqrt(d2)
        return out

    loss = tr.imtrihard_loss(rows(1.0, 4.0, 2.0, 3.0), 2, alpha=0.25, lam=1e-4)
    if abs(float(loss.data) - 4.50025) >= 1e-12:
        raise AssertionError(f"hard-mining loss {float(loss.data)!r} != 4.50025")
    tl = tr.triplet_loss(rows(1.0, 2.0), 1, alpha=0.25, rng=np.random.default_rng(42))
    want = max(1.0 - 2.0 + 0.25, 0.0)
    if abs(float(tl.data) - want) >= 1e-12:
        raise AssertionError(f"paired hinge {float(tl.data)!r} != {want}")
    return "closed-form values match"


def _loss_selection(desc, n_p: int) -> Tuple[int, int]:
    """(positive, negative) that ``imtrihard_loss`` selects from a (1+P+N, D)
    tuple matrix, read from the gradient it sends to each candidate row.

    With lam 0 and a margin far above every distance, the hinge is active and
    only the max/min terms remain, so exactly the selected positive and the
    selected negative receive gradient.  One more coordinate, 0 for the query
    and 1 for every candidate, adds exactly 1 to the squared distances of
    integer-valued rows (order and ties unchanged) and keeps a candidate that
    sits on the query from hiding its gradient.
    """
    desc = np.asarray(desc, dtype=np.float64)
    lifted = np.concatenate([desc, np.ones((len(desc), 1))], axis=1)
    lifted[0, -1] = 0.0
    x = tt.Tensor(lifted, requires_grad=True)
    with tt.Tape() as tape:
        loss = tr.imtrihard_loss(x, n_p, alpha=1e6, lam=0.0)
    tt.backward(loss, tape)
    hit = np.flatnonzero(np.any(x.grad[1:] != 0.0, axis=1))
    if float(loss.data) <= 0.0 or len(hit) != 2 or not hit[0] < n_p <= hit[1]:
        raise AssertionError(f"loss selects rows {hit.tolist()} of a {n_p}-positive tuple")
    return int(hit[0]), int(hit[1]) - n_p


def check_hard_mining_brute_force() -> str:
    rng = np.random.default_rng(42)
    for _ in range(20):
        q = rng.standard_normal(6)
        pos = [rng.standard_normal(6) for _ in range(int(rng.integers(1, 6)))]
        neg = [rng.standard_normal(6) for _ in range(int(rng.integers(1, 6)))]
        ip, jn = _loss_selection(np.stack([q, *pos, *neg]), len(pos))
        d_p = [np.sum((q - p) ** 2) for p in pos]
        d_n = [np.sum((q - n) ** 2) for n in neg]
        if ip != d_p.index(max(d_p)) or jn != d_n.index(min(d_n)):
            raise AssertionError("loss selection disagrees with exhaustive search")
    return "20 random sets exact"


def check_metric_hand_values() -> str:
    auc, f1 = rt.pr_metrics([(0.9, True), (0.8, True), (0.2, False), (0.1, False)])
    if auc != 1.0 or f1 != 1.0:
        raise AssertionError(f"perfect separation scored ({auc}, {f1})")
    _, f1 = rt.pr_metrics([(0.9, True), (0.8, False), (0.4, True)])
    if abs(f1 - 0.8) >= 1e-12:
        raise AssertionError(f"three-point F1max {f1!r} != 0.8")
    frac, excluded = rt.recall_at([[3, 1], [2, 9]], [{1}, set()], 1)
    if frac != 0.0 or excluded != 1:
        raise AssertionError("recall cutoff/exclusion convention broken")
    return "conventions match"


def check_search_sort_oracle() -> str:
    rng = np.random.default_rng(42)
    ids = rng.permutation(1000)[:200].tolist()
    # real-valued rows, integer rows with many exact ties at the k-th
    # distance, and rows of norm near 1e30 and 1e-30 (the filter's float32
    # image must scale both into range) searched from a small row
    mixed = rng.standard_normal((200, 5)) * np.resize([1e30, 1e-30], (200, 1))
    for mat, q in ((rng.standard_normal((200, 5)), rng.standard_normal(5)),
                   (rng.integers(-1, 2, size=(200, 3)).astype(float), np.zeros(3)),
                   (mixed, mixed[1] + 1e-31)):
        got = rt.db_search(rt.DescriptorDb(ids, mat), q, k=10)
        dists = np.sqrt(np.sum((mat - q) ** 2, axis=1))
        want = [(i, d) for d, i in sorted(zip(dists, ids))[:10]]
        if got != want:
            raise AssertionError("search disagrees with full sort")
    return "top-10 exact, with ties and mixed magnitudes"


def check_overlap_identity() -> str:
    spec = sw.WorldSpec(n_places=2, visits_per_place=2, h=8, w=64,
                        place_spacing=120.0)
    world = sw.generate_world(spec)
    cfg = spec.projection_config()
    ri = rvw.build_range_image(world.scans[0], cfg)
    same = rvw.compute_overlap(ri, world.poses[0], world.scans[0], world.poses[0])
    if same != 1.0:
        raise AssertionError(f"self overlap {same} != 1.0")
    revisit = rvw.compute_overlap(ri, world.poses[0], world.scans[2],
                                  world.poses[2])
    if not revisit > 0.3:
        raise AssertionError(f"revisit overlap {revisit} <= 0.3")
    return f"identity 1.0, revisit {revisit:.2f}"


def check_ray_projection_roundtrip() -> str:
    spec = sw.WorldSpec(n_places=2, visits_per_place=1, h=8, w=64,
                        place_spacing=120.0)
    world = sw.generate_world(spec)
    cfg = spec.projection_config()
    scan = world.scans[0]
    u, v, r, valid = rvw.project_points(scan[:, :3], cfg)
    if not valid.all():
        raise AssertionError("a cast point fell outside the image")
    img = rvw.build_range_image(scan, cfg)
    if int(img.valid.sum()) != len(scan):
        raise AssertionError("cast points collided in the image")
    if not np.array_equal(img.ranges[v, u], r):
        raise AssertionError("reprojected ranges differ from cast ranges")
    return f"{len(scan)} points, one pixel each"


def exhaustive_scans(spec: sw.WorldSpec, world: sw.WorldData) -> List[np.ndarray]:
    """The scans of ``world``, generated from ``spec``, cast again visit by
    visit with the exhaustive loop `synthworld.cast_rays_exhaustive`."""
    places = sw.build_places(spec, np.random.default_rng(spec.seed))
    cfg = spec.projection_config()
    dirs = sw.beam_directions(cfg)
    scans = []
    for pose, pid in zip(world.poses, world.place_ids):
        t = sw.cast_rays_exhaustive(pose.translation, dirs @ pose.rotation.T,
                                    places[pid].obstacles)
        scans.append(sw._points(dirs, t[None], cfg.r_max)[0])
    return scans


def grazing_directions(origin: np.ndarray, obstacles, offsets) -> np.ndarray:
    """Rays from ``origin`` at each offset (radians) beside the azimuth of
    every box corner and cylinder tangent, level and tilted."""
    azimuths = []
    for obs in obstacles:
        if isinstance(obs, sw.Box):
            azimuths += [np.arctan2(y - origin[1], x - origin[0])
                         for x in (obs.lo[0], obs.hi[0]) for y in (obs.lo[1], obs.hi[1])]
        else:
            dist = np.hypot(obs.cx - origin[0], obs.cy - origin[1])
            if dist > abs(obs.radius):
                bearing = np.arctan2(obs.cy - origin[1], obs.cx - origin[0])
                half = np.arcsin(abs(obs.radius) / dist)
                azimuths += [bearing - half, bearing + half]
    pp, yy = np.meshgrid([0.0, 0.1, -0.1], np.add.outer(azimuths, offsets).ravel(),
                         indexing="ij")
    return np.stack([np.cos(pp) * np.cos(yy), np.cos(pp) * np.sin(yy), np.sin(pp)],
                    axis=-1).reshape(-1, 3)


def check_ray_cast_cull() -> str:
    spec = sw.WorldSpec(seed=2024, n_places=3, visits_per_place=2, h=8, w=64,
                        place_spacing=120.0)
    world = sw.generate_world(spec)
    for k, (got, want) in enumerate(zip(world.scans, exhaustive_scans(spec, world))):
        if got.shape != want.shape or not np.array_equal(got.view(np.uint64),
                                                         want.view(np.uint64)):
            raise AssertionError(f"scan {k} differs from the exhaustive caster")
    # a box across the -pi/pi seam, a cylinder around the sensor, seeded
    # boxes and cylinders, and rays within 1e-12 rad and within a few ulp
    # of every box corner and cylinder tangent
    rng = np.random.default_rng(11)
    origin = np.array([0.3, -0.2, 0.5])
    obstacles = [sw.Box(lo=(-12.0, -1.0, -2.0), hi=(-10.0, 1.0, 3.0)),
                 sw.Cylinder(cx=0.0, cy=0.0, radius=30.0, z0=-5.0, z1=5.0)]
    for k, (x, y, size) in enumerate(rng.uniform([-25, -25, 0.3], [25, 25, 3], (24, 3))):
        obstacles.append(
            sw.Cylinder(cx=x, cy=y, radius=size, z0=-2.0, z1=2.0) if k % 2 else
            sw.Box(lo=(x - size, y - 0.5 * size, -2.0), hi=(x + size, y + size, 2.0)))
    offsets = np.concatenate([[-1e-12, 1e-12], np.linspace(-4e-15, 4e-15, 9)])
    dirs = np.concatenate([rng.standard_normal((256, 3)),
                           grazing_directions(origin, obstacles, offsets)])
    got = sw.cast_rays(origin, dirs, obstacles)
    want = sw.cast_rays_exhaustive(origin, dirs, obstacles)
    if not np.array_equal(got.view(np.uint64), want.view(np.uint64)):
        raise AssertionError("culled ray casting differs from the exhaustive loop")
    return (f"{len(world.scans)} scans and {len(dirs)} grazing or random rays "
            "bit-identical to the exhaustive caster")


def check_clamped_loss_zero_gradient() -> str:
    """A clamped hinge sends zero to every parameter, the premise on which
    ``train`` skips the backward of a step whose loss is 0.0.  On the
    acceptance model (test_06's), a tuple whose positives are copies of the
    query's image and whose margin is half the gap to its nearest negative reads
    exactly 0.0 under both losses; the full sweep must then leave every
    parameter gradient all zeros."""
    cfg = pl.ModelConfig(h=16, w=128, stages=((8, 2, 2), (16, 2, 2), (16, 2, 2), (32, 2, 2)),
                         spp_mode="add", olm_n=4, vlad_k=8, mlp_hidden=64, out_dim=32)
    params = pl.init_model(cfg, seed=42)
    query, *others = _toy_images(cfg, 3)
    images = dict(enumerate([query, query, query, *others]))
    tup = rvw.TrainingTuple(query=0, positives=(1, 2), negatives=(3, 4))
    for kind in tr.LOSS_KINDS:
        rng = np.random.default_rng(0)
        with tt.Tape() as tape:
            desc = tr._forward_tuple(tup, images, params, cfg, rng)
            d = np.sum((desc.data[1:] - desc.data[0]) ** 2, axis=1)
            alpha = 0.5 * float(np.min(d[2:]) - np.max(d[:2]))
            if not alpha > 0.0:
                raise AssertionError(f"negatives sit no farther than positives: {d.tolist()}")
            loss = tr.tuple_loss(desc, 2, tr.TrainConfig(loss=kind, alpha=alpha), rng)
        if float(loss.data) != 0.0:
            raise AssertionError(f"{kind} loss of an easy tuple is {float(loss.data)!r}, not 0.0")
        tt.backward(loss, tape)
        for name in sorted(params):
            grad = params[name].grad
            if grad is None or np.any(grad):
                raise AssertionError(f"{kind}: a clamped loss sends a nonzero or no "
                                     f"gradient to {name!r}")
            params[name].grad = None
    return (f"{' and '.join(tr.LOSS_KINDS)} read 0.0 on an easy tuple; "
            f"all {len(params)} gradients zero")


def check_descriptor_determinism() -> str:
    params, cfg = _toy_model()
    images = _toy_images(cfg, 3)
    a = pl.describe_images(images, params, cfg)
    b = pl.describe_images(images, params, cfg)
    if not np.array_equal(a, b):
        raise AssertionError("repeated description is not bit-identical")
    return "bit-identical repeats"


def check_checkpoint_roundtrip() -> str:
    import tempfile
    import os
    params, cfg = _toy_model()
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "model.omck")
        save_checkpoint(path, params)
        back = load_checkpoint(path)
    if set(back) != set(params):
        raise AssertionError("checkpoint name set changed in roundtrip")
    for name, value in params.items():
        want = value.data.astype(np.float32).astype(np.float64)
        if not np.array_equal(back[name], want):
            raise AssertionError(f"checkpoint value drifted for {name}")
    return f"{len(params)} arrays exact"


CHECKS: Tuple[Tuple[str, Callable[[], str]], ...] = (
    ("autodiff_gradients", check_autodiff_gradients),
    ("scan_equivalence", check_scan_equivalence),
    ("recurrence_convolution_duality", check_recurrence_convolution_duality),
    ("branch_order_identity", check_branch_order_identity),
    ("zero_block_passthrough", check_zero_block_passthrough),
    ("backbone_shift_equivariance", check_backbone_shift_equivariance),
    ("descriptor_shift_invariance", check_descriptor_shift_invariance),
    ("bypassed_pipeline_shift_invariance", check_bypassed_pipeline_shift_invariance),
    ("loss_hand_values", check_loss_hand_values),
    ("hard_mining_brute_force", check_hard_mining_brute_force),
    ("metric_hand_values", check_metric_hand_values),
    ("search_sort_oracle", check_search_sort_oracle),
    ("overlap_identity", check_overlap_identity),
    ("ray_projection_roundtrip", check_ray_projection_roundtrip),
    ("ray_cast_cull", check_ray_cast_cull),
    ("clamped_loss_zero_gradient", check_clamped_loss_zero_gradient),
    ("descriptor_determinism", check_descriptor_determinism),
    ("checkpoint_roundtrip", check_checkpoint_roundtrip),
)


def run_selfcheck(log: Optional[Callable[[str], None]] = None) -> List[CheckResult]:
    results = []
    for name, fn in CHECKS:
        t0 = time.perf_counter()
        try:
            ok, detail = True, fn() or ""
        except Exception as exc:  # a failing invariant must not stop the rest
            ok, detail = False, str(exc)
        results.append(CheckResult(name, ok, detail, time.perf_counter() - t0))
        if log is not None:
            r = results[-1]
            log(f"{'ok  ' if r.ok else 'FAIL'} {r.name}: {r.detail} ({r.seconds:.3f} s)")
    return results
