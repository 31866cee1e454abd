"""Projection geometry, overlap ground truth, and tuple mining."""

import dataclasses
import gc
import math
import warnings
import weakref

import numpy as np
import pytest

from rangeloop import errors, io, rangeview
from rangeloop import retrieval as rt
from rangeloop import synthworld as sw
from rangeloop.rangeview import (
    OverlapLabel,
    Pose,
    ProjectionConfig,
    build_range_image,
    build_tuples,
    compute_overlap,
    overlap_table,
    project_points,
)


def default_cfg(w=900, h=64, fov=np.radians(45.0), r_max=50.0):
    return ProjectionConfig(w=w, h=h, f_up=fov / 2, f_down=fov / 2, r_max=r_max)


def identity_pose():
    return Pose(rotation=np.eye(3), translation=np.zeros(3))


class TestProjectPoint:
    def test_forward_axis_lands_center(self):
        u, v, r, valid = project_points(np.array([[10.0, 0.0, 0.0]]), default_cfg())
        assert valid[0] and (u[0], v[0], r[0]) == (450, 32, 10.0)

    def test_left_axis_quarter_turn(self):
        u, _, _, valid = project_points(np.array([[0.0, 10.0, 0.0]]), default_cfg())
        assert valid[0] and u[0] == 225

    def test_scalar_azimuth_evaluation(self):
        u, _, r, valid = project_points(np.array([[3.0, 4.0, 0.0]]), default_cfg())
        assert valid[0] and r[0] == 5.0
        assert u[0] == 317

    def test_origin_rejected(self):
        assert not project_points(np.array([[0.0, 0.0, 0.0]]), default_cfg())[3][0]

    def test_beyond_range_cap_rejected(self):
        assert not project_points(np.array([[60.0, 0.0, 0.0]]), default_cfg(r_max=50.0))[3][0]

    def test_outside_vertical_fov_rejected(self):
        cfg = default_cfg()
        assert not project_points(np.array([[1.0, 0.0, 5.0]]), cfg)[3][0]
        assert not project_points(np.array([[1.0, 0.0, -5.0]]), cfg)[3][0]

    def test_rear_seam_wraps_to_column_zero(self):
        # azimuth exactly pi maps to u = 0; exactly -pi is the same ray
        u, _, _, valid = project_points(np.array([[-10.0, 0.0, 0.0]]), default_cfg())
        assert valid[0] and u[0] == 0

    def test_all_projected_pixels_in_bounds(self):
        rng = np.random.default_rng(42)
        cfg = default_cfg()
        pts = rng.uniform(-60.0, 60.0, size=(100_000, 3))
        u, v, _, valid = project_points(pts, cfg)
        assert valid.any()
        assert u[valid].min() >= 0 and u[valid].max() < cfg.w
        assert v[valid].min() >= 0 and v[valid].max() < cfg.h

    def test_non_finite_rows_project_silently_like_the_cloud_alone(self):
        rng = np.random.default_rng(7)
        cfg = default_cfg()
        cloud = rng.uniform(-40.0, 40.0, size=(500, 3))
        nan, inf = np.nan, np.inf
        bad = np.array([[nan, 1.0, 1.0], [1.0, nan, 1.0], [1.0, 1.0, nan],
                        [inf, 0.0, 0.0], [0.0, -inf, 0.0], [0.0, 0.0, inf],
                        [nan, inf, -inf]])
        mixed = np.concatenate([cloud[:250], bad, cloud[250:]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = build_range_image(mixed, cfg)
            u, v, r, valid = project_points(mixed, cfg)
        want = build_range_image(cloud, cfg)
        assert got.ranges.tobytes() == want.ranges.tobytes()
        assert not valid[250:257].any()
        wu, wv, wr, wvalid = project_points(cloud, cfg)
        keep = np.r_[0:250, 257:len(mixed)]
        np.testing.assert_array_equal(valid[keep], wvalid)
        np.testing.assert_array_equal(u[keep][wvalid], wu[wvalid])
        np.testing.assert_array_equal(v[keep][wvalid], wv[wvalid])
        np.testing.assert_array_equal(r[keep], wr)


def _project_points_reference(points, cfg):
    """`project_points` as it read before its passes were fused: every mask
    applied, u clamped, the pitch clipped with `np.clip`."""
    pts = np.asarray(points, dtype=np.float64)
    x, y, zc = pts[:, 0], pts[:, 1], pts[:, 2]
    r = np.sqrt(x * x + y * y + zc * zc)
    hit = (r > 0.0) & (r <= cfg.r_max)
    x, y, zc = np.where(hit, x, 1.0), np.where(hit, y, 0.0), np.where(hit, zc, 0.0)
    safe_r = np.where(hit, r, 1.0)
    u = np.floor(0.5 * (1.0 - np.arctan2(y, x) / np.pi) * cfg.w).astype(np.int64)
    u[u == cfg.w] = 0
    u = np.clip(u, 0, cfg.w - 1)
    pitch = np.arcsin(np.clip(zc / safe_r, -1.0, 1.0))
    v = np.floor((1.0 - (pitch + cfg.f_up) / cfg.f) * cfg.h).astype(np.int64)
    valid = hit & (v >= 0) & (v < cfg.h)
    return u, v, r, valid


class TestProjectionPinned:
    """`project_points` returns the reference's (u, v, r, valid) bit for bit,
    on both sides of its all-hit shortcut."""

    @staticmethod
    def _assert_pinned(points, cfg):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = project_points(points, cfg)
        with np.errstate(invalid="ignore"):
            want = _project_points_reference(points, cfg)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
        return got

    @pytest.mark.parametrize("fov", [np.radians(45.0), math.pi])
    def test_all_hit_cloud(self, fov):
        cfg = default_cfg(fov=fov)
        rng = np.random.default_rng(11)
        pts = rng.uniform(-28.0, 28.0, size=(5000, 4))
        assert self._assert_pinned(pts, cfg)[3].any()
        r = np.sqrt(np.square(pts[:, :3]).sum(axis=1))
        assert ((r > 0.0) & (r <= cfg.r_max)).all()

    def test_cloud_with_misses_nan_and_inf_rows(self):
        cfg = default_cfg()
        rng = np.random.default_rng(12)
        pts = rng.uniform(-60.0, 60.0, size=(5000, 3))
        pts[::97] = 0.0
        pts[1::89, 0] = np.nan
        pts[2::83, 1] = np.inf
        pts[3::79, 2] = -np.inf
        u, v, r, valid = self._assert_pinned(pts, cfg)
        assert valid.any() and not valid.all()

    def test_seam_points_land_in_column_zero(self):
        cfg = default_cfg()
        seam = np.array([[-10.0, 0.0, 0.0], [-10.0, -0.0, 0.0]])
        assert np.arctan2(seam[:, 1], seam[:, 0]).tolist() == [math.pi, -math.pi]
        u, _, _, valid = self._assert_pinned(seam, cfg)
        assert valid.all() and u.tolist() == [0, 0]

    def test_pitch_ratio_rounding_past_one(self):
        # z * z is subnormal, so r = sqrt(z * z) rounds below |z|
        pts = np.array([[0.0, 0.0, 1e-160], [0.0, 0.0, -1e-160], [10.0, 0.0, 0.0]])
        r = np.sqrt(np.square(pts).sum(axis=1))
        assert (np.abs(pts[:2, 2]) / r[:2] > 1.0).all()
        for fov in (np.radians(45.0), math.pi):
            self._assert_pinned(pts, default_cfg(fov=fov))


class TestConfigValidation:
    def test_rejects_tiny_image(self):
        with pytest.raises(errors.ConfigError):
            ProjectionConfig(w=1, h=64, f_up=0.4, f_down=0.4, r_max=50.0)

    def test_rejects_zero_fov(self):
        with pytest.raises(errors.ConfigError):
            ProjectionConfig(w=900, h=64, f_up=0.0, f_down=0.0, r_max=50.0)

    def test_rejects_nonpositive_range_cap(self):
        with pytest.raises(errors.ConfigError):
            ProjectionConfig(w=900, h=64, f_up=0.4, f_down=0.4, r_max=0.0)

    def test_range_cap_must_fit_a_float32(self):
        # a range image's header stores r_max as f32: the cap lies in f32's
        # normal range, whose ends are kept and whose neighbours are refused
        # (1e-50 once wrote images whose header read back as r_max 0.0)
        f32 = np.finfo(np.float32)
        for r_max in (float(f32.tiny), float(f32.max)):
            ProjectionConfig(w=900, h=64, f_up=0.4, f_down=0.4, r_max=r_max)
        for r_max in (math.nextafter(float(f32.max), math.inf), 1e39,
                      math.nextafter(float(f32.tiny), 0.0), 1e-50):
            with pytest.raises(errors.ConfigError, match="float32"):
                ProjectionConfig(w=900, h=64, f_up=0.4, f_down=0.4, r_max=r_max)

    def test_rejects_half_fov_above_half_pi(self):
        # a row past the zenith or nadir would project back onto another row
        for up, down in ((2.0, 0.3), (0.3, math.pi / 2 + 1e-12)):
            with pytest.raises(errors.ConfigError, match="pi/2"):
                ProjectionConfig(w=900, h=64, f_up=up, f_down=down, r_max=50.0)
        ProjectionConfig(w=900, h=64, f_up=math.pi / 2, f_down=math.pi / 2, r_max=50.0)


class TestBuildRangeImage:
    def test_empty_cloud_all_sentinel(self):
        ri = build_range_image(np.zeros((0, 3)), default_cfg())
        assert (ri.ranges == -1.0).all()

    def test_collision_keeps_nearest(self):
        cfg = default_cfg()
        pts = np.array([[5.0, 0.0, 0.0], [9.0, 0.0, 0.0]])
        ri = build_range_image(pts, cfg)
        assert ri.ranges[32, 450] == 5.0

    def test_network_input_zeroes_sentinel_and_scales(self):
        cfg = default_cfg(r_max=50.0)
        ri = build_range_image(np.array([[10.0, 0.0, 0.0]]), cfg)
        x = ri.network_input()
        assert x.shape == (1, 64, 900)
        assert x[0, 32, 450] == pytest.approx(0.2)
        assert x.min() == 0.0

    def test_rotation_shifts_columns(self):
        rng = np.random.default_rng(42)
        cfg = default_cfg()
        pts = _cloud_away_from_pixel_edges(rng, cfg, n=4000)
        base = build_range_image(pts, cfg)
        for k in (1, 17, 450):
            rot = pts @ _rot_z(2.0 * np.pi * k / cfg.w).T
            shifted = build_range_image(rot, cfg)
            want_valid = np.roll(base.valid, -k, axis=1)
            np.testing.assert_array_equal(shifted.valid, want_valid)
            np.testing.assert_allclose(
                shifted.ranges[shifted.valid],
                np.roll(base.ranges, -k, axis=1)[want_valid],
                atol=1e-9,
            )


def _cloud_away_from_pixel_edges(rng, cfg, n):
    """Random in-range points whose pixel coordinates sit well inside cells,
    so sub-ulp rotation noise cannot flip any floor()."""
    pts = rng.uniform(-30.0, 30.0, size=(n * 4, 3))
    pts[:, 2] = rng.uniform(-3.0, 3.0, size=n * 4)
    r = np.linalg.norm(pts, axis=1)
    uf = 0.5 * (1.0 - np.arctan2(pts[:, 1], pts[:, 0]) / np.pi) * cfg.w
    vf = (1.0 - (np.arcsin(pts[:, 2] / r) + cfg.f_up) / cfg.f) * cfg.h
    inside = (
        (r > 1.0)
        & (r < cfg.r_max - 1.0)
        & (np.abs(uf - np.round(uf)) > 0.1)
        & (np.abs(vf - np.round(vf)) > 0.1)
        & (vf > 1.0)
        & (vf < cfg.h - 1.0)
    )
    return pts[inside][:n]


class TestPose:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(errors.ContractError):
            Pose(rotation=np.eye(3) * 2.0, translation=np.zeros(3))

    def test_rejects_reflection(self):
        r = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(errors.ContractError):
            Pose(rotation=r, translation=np.zeros(3))

    @pytest.mark.parametrize("where, value", [
        ("rotation", np.nan), ("rotation", np.inf),
        ("translation", np.nan), ("translation", np.inf), ("translation", -np.inf),
    ])
    def test_rejects_non_finite_entries(self, where, value):
        fields = {"rotation": np.eye(3), "translation": np.array([1.0, 2.0, 3.0])}
        fields[where].flat[1] = value
        with pytest.raises(errors.ContractError, match="non-finite"):
            Pose(**fields)

    @pytest.mark.parametrize("entry", [1e308, -1e200])
    def test_rejects_huge_rotation_entry_without_overflow(self, entry):
        # R^T R would overflow; an entry above 2 fails that test anyway
        r = np.eye(3)
        r[1, 0] = entry
        with pytest.raises(errors.ContractError, match="not orthonormal"):
            Pose(rotation=r, translation=np.zeros(3))

    def test_world_local_roundtrip(self):
        rng = np.random.default_rng(42)
        ang = 0.7
        c, s = np.cos(ang), np.sin(ang)
        pose = Pose(
            rotation=np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]]),
            translation=np.array([1.0, -2.0, 0.5]),
        )
        pts = rng.standard_normal((50, 3))
        back = pose.to_local(pose.to_world(pts))
        np.testing.assert_allclose(back, pts, atol=1e-12)

    def test_pose_owns_its_arrays(self):
        rotation, translation = _rot_z(0.4), np.array([1.0, -2.0, 0.5])
        pose = Pose(rotation=rotation, translation=translation)
        want = pose.rotation.copy(), pose.translation.copy()
        rotation[:] = np.eye(3)
        translation[:] = 7.0
        assert pose.rotation.tobytes() == want[0].tobytes()
        assert pose.translation.tobytes() == want[1].tobytes()
        assert pose.xyz == (1.0, -2.0, 0.5) and pose.norm == math.hypot(1.0, -2.0, 0.5)

    def test_pose_arrays_cannot_be_made_writeable(self):
        pose = Pose(rotation=np.eye(3), translation=np.array([1.0, 2.0, 3.0]))
        for array in (pose.rotation, pose.translation, pose.translation[1:]):
            with pytest.raises(ValueError):
                array.flags.writeable = True
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_poses_compare_and_hash_by_identity(self):
        a = Pose(rotation=np.eye(3), translation=np.zeros(3))
        b = Pose(rotation=np.eye(3), translation=np.zeros(3))
        assert hash(a) == hash(a) and len({a, b, a}) == 2
        assert a == a and (a == b) is False and a != b


class TestComputeOverlap:
    def test_scan_against_itself(self):
        rng = np.random.default_rng(42)
        cfg = default_cfg()
        pts = _cloud_away_from_pixel_edges(rng, cfg, n=2000)
        ri = build_range_image(pts, cfg)
        ov = compute_overlap(ri, identity_pose(), pts, identity_pose())
        assert ov == 1.0

    def test_empty_candidate_cloud(self):
        cfg = default_cfg()
        ri = build_range_image(np.array([[10.0, 0.0, 0.0]]), cfg)
        ov = compute_overlap(ri, identity_pose(), np.zeros((0, 3)), identity_pose())
        assert ov == 0.0

    def test_no_valid_query_pixels(self):
        cfg = default_cfg()
        ri = build_range_image(np.zeros((0, 3)), cfg)
        ov = compute_overlap(
            ri, identity_pose(), np.array([[10.0, 0.0, 0.0]]), identity_pose()
        )
        assert ov == 0.0

    def test_translated_wall_matches_bruteforce(self):
        cfg = default_cfg()
        ys, zs = np.meshgrid(np.linspace(-8.0, 8.0, 40), np.linspace(-2.0, 2.0, 12))
        wall = np.stack(
            [np.full(ys.size, 12.0), ys.reshape(-1), zs.reshape(-1)], axis=1
        )
        pose_a = identity_pose()
        pose_b = Pose(rotation=np.eye(3), translation=np.array([1.0, 0.0, 0.0]))
        pts_b = wall - pose_b.translation
        ri_a = build_range_image(wall, cfg)

        got = compute_overlap(ri_a, pose_a, pts_b, pose_b)
        want = _bruteforce_overlap(ri_a.ranges, cfg, pose_a, pts_b, pose_b, 0.05)
        assert got == want

    @pytest.mark.parametrize("gap", [0.0, 400.0])
    def test_cloud_without_z_column_is_contract_error(self, gap):
        # near, the (N, 2) cloud would reach the matmul; far, the cull
        cfg = default_cfg()
        ri = build_range_image(np.array([[10.0, 0.0, 0.0]]), cfg)
        pose_b = Pose(rotation=np.eye(3), translation=np.array([gap, 0.0, 0.0]))
        with pytest.raises(errors.ContractError, match="N, >=3"):
            compute_overlap(ri, identity_pose(), np.ones((5, 2)), pose_b)

    @pytest.mark.parametrize("cloud", [np.ones(3), np.zeros(0)])
    def test_one_dimensional_cloud_is_contract_error(self, cloud):
        cfg = default_cfg()
        ri = build_range_image(np.array([[10.0, 0.0, 0.0]]), cfg)
        with pytest.raises(errors.ContractError, match="N, >=3"):
            compute_overlap(ri, identity_pose(), cloud, identity_pose())

    def test_disjoint_scenes_do_not_overlap(self):
        cfg = default_cfg()
        a = np.array([[10.0, 0.0, 0.0]])
        b = np.array([[-10.0, 0.0, 0.0]])
        ri_a = build_range_image(a, cfg)
        ov = compute_overlap(ri_a, identity_pose(), b, identity_pose())
        assert ov == 0.0


def _rot_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _near_orthonormal(along, stretch):
    """Symmetric R whose singular value along the unit vector ``along`` is
    sqrt(1 + stretch); across it, sqrt(1 - stretch / 8).  At |stretch| =
    0.99 * 8e-9 / 3, R^T R - I reaches 0.99e-9 off the diagonal and det R
    is 1 -/+ 0.99e-9: just inside both of `Pose`'s checks, and R scales
    vectors along ``along`` by 1 +/- 1.32e-9."""
    p = np.outer(along, along)
    return math.sqrt(1.0 + stretch) * p + math.sqrt(1.0 - stretch / 8.0) * (np.eye(3) - p)


class TestRangeGapCull:
    """Pairs whose sensors are more than r_max plus cloud b's radius apart
    return 0.0 without reprojecting; every result equals the oracle."""

    @staticmethod
    def _count_reprojections(monkeypatch):
        calls = []
        real = rangeview.build_range_image

        def counted(points, cfg):
            calls.append(len(points))
            return real(points, cfg)

        monkeypatch.setattr(rangeview, "build_range_image", counted)
        return calls

    @staticmethod
    def _wall_pair():
        """A wall just inside r_max of a's sensor, scanned by b from 120 m
        away: b's cloud reaches past its own range cap back to a."""
        cfg = default_cfg()
        ys, zs = np.meshgrid(np.linspace(-5.0, 5.0, 60), np.linspace(-2.0, 2.0, 16))
        wall = np.stack([np.full(ys.size, 49.5), ys.reshape(-1), zs.reshape(-1)], axis=1)
        assert np.linalg.norm(wall, axis=1).max() < cfg.r_max
        pose_a = identity_pose()
        pose_b = Pose(rotation=_rot_z(0.3), translation=np.array([120.0, 0.0, 0.0]))
        pts_b = pose_b.to_local(wall)
        return cfg, build_range_image(wall, cfg), pose_a, pts_b, pose_b

    def test_far_pair_reaching_back_is_not_culled(self, monkeypatch):
        cfg, ri_a, pose_a, pts_b, pose_b = self._wall_pair()
        assert np.linalg.norm(pose_b.translation) > 2 * cfg.r_max
        calls = self._count_reprojections(monkeypatch)
        got = compute_overlap(ri_a, pose_a, pts_b, pose_b)
        assert calls == [len(pts_b)]
        assert got > 0.0
        assert got == _bruteforce_overlap(ri_a.ranges, cfg, pose_a, pts_b, pose_b, 0.05)

    @pytest.mark.parametrize("past, culled", [(1e-5, True), (-1e-5, False)])
    def test_pair_moved_to_the_reach_boundary(self, monkeypatch, past, culled):
        cfg, ri_a, pose_a, pts_b, pose_b = self._wall_pair()
        radius = np.linalg.norm(pts_b, axis=1).max()
        moved = Pose(rotation=pose_b.rotation,
                     translation=np.array([cfg.r_max + radius + past, 0.0, 0.0]))
        calls = self._count_reprojections(monkeypatch)
        got = compute_overlap(ri_a, pose_a, pts_b, moved)
        assert len(calls) == (0 if culled else 1)
        assert got == _bruteforce_overlap(ri_a.ranges, cfg, pose_a, pts_b, moved, 0.05)
        if culled:
            assert got == 0.0

    def test_tolerance_edge_rotations_with_a_point_ulps_inside_r_max(self, monkeypatch):
        # a's rotation shrinks and b's stretches along `along` as far as
        # Pose allows, so b's point lands 1.32e-9 * gap nearer to a than
        # gap - R_b: more than a slack of 1e-9 * (1 + gap + R_b) covers
        cfg = default_cfg(fov=1.4)
        along = np.ones(3) / math.sqrt(3.0)
        edge = 0.99 * 8e-9 / 3.0
        pose_a = Pose(rotation=_near_orthonormal(along, -edge), translation=np.zeros(3))
        rot_b = _near_orthonormal(along, edge)
        rho = 1.0
        pts_b = -rho * along[None, :]
        gap0 = cfg.r_max / math.sqrt(1.0 - edge) + math.sqrt(1.0 + edge) * rho

        def local_range(gap):
            pose_b = Pose(rotation=rot_b, translation=gap * along)
            local = pose_a.to_local(pose_b.to_world(pts_b))
            return pose_b, local, project_points(local, cfg)[2][0]

        steps = [gap0 + k * np.spacing(gap0) for k in range(-8, 9)]
        inside = [g for g in steps if local_range(g)[2] <= cfg.r_max]
        gap = max(inside)
        pose_b, local, r = local_range(gap)
        assert cfg.r_max - r <= 4 * np.spacing(cfg.r_max)
        assert gap - rho - cfg.r_max > 1e-9 * (1.0 + gap + rho)

        ri_a = build_range_image(local, cfg)
        calls = self._count_reprojections(monkeypatch)
        got = compute_overlap(ri_a, pose_a, pts_b, pose_b)
        assert calls == [1]
        assert got == 1.0
        assert got == _bruteforce_overlap(ri_a.ranges, cfg, pose_a, pts_b, pose_b, 0.05)

        beyond = min(g for g in steps if g > gap)
        pose_far = local_range(beyond)[0]
        assert local_range(beyond)[2] > cfg.r_max
        got = compute_overlap(ri_a, pose_a, pts_b, pose_far)
        assert got == 0.0
        assert got == _bruteforce_overlap(ri_a.ranges, cfg, pose_a, pts_b, pose_far, 0.05)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_fall_through_to_the_full_path(self, monkeypatch, bad):
        cfg, ri_a, pose_a, pts_b, pose_b = self._wall_pair()
        far = Pose(rotation=pose_b.rotation, translation=np.array([400.0, 0.0, 0.0]))
        dirty = np.concatenate([pts_b[:100], [[bad, 0.0, 0.0], [1.0, 2.0, bad]], pts_b[100:]])
        calls = self._count_reprojections(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            near = compute_overlap(ri_a, pose_a, dirty, pose_b)
            away = compute_overlap(ri_a, pose_a, dirty, far)
            clean_away = compute_overlap(ri_a, pose_a, pts_b, far)
        assert len(calls) == 2  # both dirty calls reproject; the clean far pair is culled
        assert near > 0.0
        assert near == _bruteforce_overlap(ri_a.ranges, cfg, pose_a, pts_b, pose_b, 0.05)
        assert away == clean_away == 0.0

    def test_label_pairs_cull_equals_pair_loop(self, monkeypatch):
        """Empty, NaN and inf clouds, and the wall pair 1e-5 m either side of
        the reach boundary: `label_pairs` gives the per-pair labels above
        0.0 and reprojects exactly the pairs the per-pair loop does."""
        cfg, ri_a, pose_a, pts_b, pose_b = self._wall_pair()
        radius = np.linalg.norm(pts_b, axis=1).max()

        def at(x):
            return Pose(rotation=pose_b.rotation, translation=np.array([x, 0.0, 0.0]))

        scans, poses = [pose_a.to_local(pose_b.to_world(pts_b))], [pose_a]
        for past in (1e-5, -1e-5):
            scans.append(pts_b)
            poses.append(at(cfg.r_max + radius + past))
        for bad in (np.nan, np.inf):
            scans.append(np.concatenate([pts_b[:100], [[1.0, 2.0, bad]], pts_b[100:]]))
            poses.append(at(400.0))
        scans += [np.zeros((0, 3)), pts_b, pts_b]
        poses += [at(10.0), pose_b, at(400.0)]
        images = [build_range_image(s, cfg) for s in scans]
        ids = range(len(scans))

        calls = self._count_reprojections(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loop = [OverlapLabel(query=a, cand=b, overlap=compute_overlap(
                        images[a], poses[a], scans[b], poses[b]))
                    for a in ids for b in ids[a + 1:]]
            loop_calls = list(calls)
            calls.clear()
            got = rangeview.label_pairs(images, poses, scans, ids)
        assert got == [lab for lab in loop if lab.overlap > 0.0]
        assert calls == loop_calls
        assert len(calls) < len(loop)
        overlap = {(q, c): o for q, c, o in got}
        assert overlap[(0, 6)] > 0.0  # b reaches back from 120 m

    def test_cull_fires_for_exactly_the_cross_place_pairs(self, monkeypatch):
        spec = sw.WorldSpec(seed=3, n_places=5)
        world = sw.generate_world(spec)
        cfg = spec.projection_config()
        images = [build_range_image(s, cfg) for s in world.scans]
        calls = self._count_reprojections(monkeypatch)
        n = len(world.scans)
        for a in range(n):
            for b in range(n):
                before = len(calls)
                compute_overlap(images[a], world.poses[a], world.scans[b], world.poses[b])
                culled = len(calls) == before
                assert culled == (world.place_ids[a] != world.place_ids[b]), (a, b)

    def test_pairs_in_reach_are_the_revisit_pairs(self):
        spec = sw.WorldSpec(seed=3, n_places=5)
        world = sw.generate_world(spec)
        images = [build_range_image(s, spec.projection_config()) for s in world.scans]
        n = len(world.scans)
        assert rangeview.pairs_in_reach(images, world.poses, world.scans) == [
            (a, b) for a in range(n) for b in range(a + 1, n)
            if world.place_ids[a] == world.place_ids[b]]

    def test_overflowing_gap_stays_uncut_and_overlap_culls_it(self):
        # the squared gap and norm overflow to inf, so pairs_in_reach cannot
        # cut; compute_overlap's own test then returns 0.0 for each pair
        images, poses, scans = _small_world()
        poses[1] = Pose(rotation=poses[1].rotation, translation=np.array([1e308, 0.0, 0.0]))
        pairs = rangeview.pairs_in_reach(images, poses, scans)
        assert {(0, 1), (1, 2), (1, 3)} <= set(pairs)
        for a, b in [(0, 1), (1, 2), (1, 3)]:
            assert compute_overlap(images[a], poses[a], scans[b], poses[b]) == 0.0


def _bruteforce_overlap(ranges, cfg, pose_a, pts_b, pose_b, eps_rel):
    """Scalar per-point reprojection with independently written formulas."""
    world = pts_b @ pose_b.rotation.T + pose_b.translation
    local = (world - pose_a.translation) @ pose_a.rotation
    best = {}
    for x, y, z in local:
        r = (x * x + y * y + z * z) ** 0.5
        if r <= 0.0 or r > cfg.r_max:
            continue
        import math

        u = math.floor(0.5 * (1.0 - math.atan2(y, x) / math.pi) * cfg.w)
        if u == cfg.w:
            u = 0
        v = math.floor((1.0 - (math.asin(z / r) + cfg.f_up) / cfg.f) * cfg.h)
        if not (0 <= v < cfg.h):
            continue
        key = (v, u)
        if key not in best or r < best[key]:
            best[key] = r
    valid = 0
    hits = 0
    for v in range(cfg.h):
        for u in range(cfg.w):
            ra = ranges[v, u]
            if ra <= 0.0:
                continue
            valid += 1
            rp = best.get((v, u))
            if rp is not None and abs(rp - ra) <= eps_rel * ra:
                hits += 1
    return hits / valid


def test_label_pairs_equals_pair_loop():
    spec = sw.WorldSpec(seed=5, n_places=3, visits_per_place=2, h=8, w=32,
                        n_obstacles=4)
    world = sw.generate_world(spec)
    images = [build_range_image(s, spec.projection_config()) for s in world.scans]
    ids = [10 + 3 * i for i in range(len(images))]
    expected = []
    for a in range(len(ids)):
        for b in range(a + 1, len(ids)):
            ov = compute_overlap(images[a], world.poses[a], world.scans[b], world.poses[b])
            if ov > 0.0:  # a pair no label names has overlap 0.0
                expected.append(OverlapLabel(query=ids[a], cand=ids[b], overlap=ov))
    got = rangeview.label_pairs(images, world.poses, world.scans, ids)
    assert got == expected
    assert got


def _small_world():
    spec = sw.WorldSpec(seed=5, n_places=2, visits_per_place=2, h=8, w=32,
                        n_obstacles=4)
    world = sw.generate_world(spec)
    images = [build_range_image(s, spec.projection_config()) for s in world.scans]
    return images, list(world.poses), list(world.scans)


@pytest.mark.parametrize("extra", [1, -1])
def test_label_pairs_ids_of_another_length_is_contract_error(extra):
    # one id more than scans, or one fewer (4 scans and 3 ids)
    images, poses, scans = _small_world()
    with pytest.raises(errors.ContractError, match="need one length"):
        rangeview.label_pairs(images, poses, scans, range(len(scans) + extra))


@pytest.mark.parametrize("which", ["images", "poses", "scans"])
def test_label_pairs_short_sequence_is_contract_error(which):
    images, poses, scans = _small_world()
    seqs = {"images": images, "poses": poses, "scans": scans}
    seqs[which] = seqs[which][:-1]
    with pytest.raises(errors.ContractError, match="need one length"):
        rangeview.label_pairs(seqs["images"], seqs["poses"], seqs["scans"],
                              range(len(scans)))


@pytest.mark.parametrize("bad", [np.ones((5, 2)), np.ones(3)])
@pytest.mark.parametrize("at", [0, -1])
def test_label_pairs_malformed_cloud_is_contract_error(bad, at):
    images, poses, scans = _small_world()
    scans[at] = bad
    with pytest.raises(errors.ContractError, match="N, >=3"):
        rangeview.label_pairs(images, poses, scans, range(len(scans)))


class TestRadiusMemo:
    """`_radius` keeps the radius of a cloud over a `bytes` buffer
    (`rangeview.immutable`), or of a view of one, and measures every other
    cloud afresh, read-only or not."""

    @staticmethod
    def _near_b():
        """The wall pair, and a cloud of four points around b's sensor:
        120 m from a, so the pair is culled while no point reaches a."""
        cfg, ri_a, pose_a, pts_b, pose_b = TestRangeGapCull._wall_pair()
        near = np.full((4, 3), 0.5)
        assert compute_overlap(ri_a, pose_a, near, pose_b) == 0.0
        return cfg, ri_a, pose_a, pts_b, pose_b, near

    @staticmethod
    def _reach_a(cfg, ri_a, pose_a, pts_b, pose_b, cloud):
        """The overlap of cloud, and the oracle's, once one of its points is
        a point of the wall."""
        got = compute_overlap(ri_a, pose_a, cloud, pose_b)
        return got, _bruteforce_overlap(ri_a.ranges, cfg, pose_a, cloud, pose_b, 0.05)

    def test_writeable_cloud_is_never_remembered(self):
        cfg, ri_a, pose_a, pts_b, pose_b, cloud = self._near_b()
        assert id(cloud) not in rangeview._RADII
        cloud[0] = pts_b[200]
        got, want = self._reach_a(cfg, ri_a, pose_a, pts_b, pose_b, cloud)
        assert got == want > 0.0
        assert id(cloud) not in rangeview._RADII

    def test_read_only_view_of_a_writeable_owner_is_not_remembered(self):
        cfg, ri_a, pose_a, pts_b, pose_b, owner = self._near_b()
        view = owner[:]
        view.flags.writeable = False
        assert compute_overlap(ri_a, pose_a, view, pose_b) == 0.0
        assert id(view) not in rangeview._RADII
        owner[0] = pts_b[200]
        got, want = self._reach_a(cfg, ri_a, pose_a, pts_b, pose_b, view)
        assert got == want > 0.0

    def test_owner_made_writeable_again_is_measured_afresh(self):
        # numpy lets a read-only owner be made writeable again, so neither
        # it nor its views are remembered
        cfg, ri_a, pose_a, pts_b, pose_b, owner = self._near_b()
        owner.flags.writeable = False
        view = owner[1:]
        assert compute_overlap(ri_a, pose_a, view, pose_b) == 0.0
        assert id(view) not in rangeview._RADII
        owner.flags.writeable = True
        owner[1] = pts_b[200]
        got, want = self._reach_a(cfg, ri_a, pose_a, pts_b, pose_b, view)
        assert got == want > 0.0

    def test_owner_edited_and_made_read_only_again_overlaps_as_the_oracle_says(self):
        # the cloud moves from around b's sensor onto the wall a sees: a
        # radius kept from before the edit would cull the pair to 0.0
        cfg, ri_a, pose_a, pts_b, pose_b = TestRangeGapCull._wall_pair()
        owner = np.full(pts_b.shape, 0.5)
        owner.flags.writeable = False
        assert compute_overlap(ri_a, pose_a, owner, pose_b) == 0.0
        owner.flags.writeable = True
        owner[:] = pts_b
        owner.flags.writeable = False
        got, want = self._reach_a(cfg, ri_a, pose_a, pts_b, pose_b, owner)
        assert got == want == 1.0

    def test_immutable_cloud_and_its_views_cannot_be_made_writeable(self):
        cloud = rangeview.immutable(np.arange(12.0).reshape(4, 3))
        for array in (cloud, cloud[1:], cloud.base):
            with pytest.raises(ValueError):
                array.flags.writeable = True

    def test_view_of_a_read_only_owner_is_remembered(self):
        owner = rangeview.immutable(np.arange(12.0).reshape(4, 3))
        view = owner[1:]
        assert not view.flags.owndata and not view.flags.writeable
        rangeview._radius(view)
        assert rangeview._RADII[id(view)][0]() is view

    def test_hit_returns_the_three_pass_float(self):
        rng = np.random.default_rng(3)
        points = rng.standard_normal((1000, 4)) * rng.uniform(1e-3, 1e3, size=(1000, 1))
        cloud = rangeview.immutable(points)
        measured = rangeview._radius(points.copy())
        assert rangeview._radius(cloud) == measured
        ref, kept = rangeview._RADII[id(cloud)]
        assert ref() is cloud and kept == measured
        rangeview._RADII[id(cloud)] = (ref, -1.0)  # a hit reads the entry back
        assert rangeview._radius(cloud) == -1.0
        rangeview._RADII[id(cloud)] = (ref, kept)
        assert rangeview._radius(cloud) == measured

    def test_entry_naming_another_cloud_is_not_read(self):
        cloud = rangeview.immutable(np.ones((2, 3)))
        other = rangeview.immutable(np.zeros((2, 3)))
        rangeview._RADII[id(cloud)] = (weakref.ref(other), -1.0)
        assert rangeview._radius(cloud) == math.sqrt(3.0)
        assert rangeview._RADII[id(cloud)][0]() is cloud

    def test_entries_go_with_their_clouds(self):
        spec = sw.WorldSpec(seed=0, n_places=3, visits_per_place=2, h=8, w=32,
                            n_obstacles=4)
        cfg = spec.projection_config()
        gc.collect()
        before = len(rangeview._RADII)
        for seed in range(20):
            world = sw.generate_world(dataclasses.replace(spec, seed=seed))
            images = [build_range_image(s, cfg) for s in world.scans]
            rangeview.label_pairs(images, world.poses, world.scans, range(len(images)))
            assert {id(s) for s in world.scans} <= set(rangeview._RADII)
        gc.collect()
        assert len(rangeview._RADII) - before <= len(world.scans)
        del world, images
        gc.collect()
        assert all(ref() is not None for ref, _ in rangeview._RADII.values())
        assert len(rangeview._RADII) <= before

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_cloud_is_reprojected_on_every_call(self, monkeypatch, bad):
        # without its last point the cloud is culled; with it, never
        cfg, ri_a, pose_a, pts_b, pose_b, near = self._near_b()
        points = np.concatenate([near, [[bad, 0.0, 0.0]]])
        want = compute_overlap(ri_a, pose_a, points, pose_b)
        cloud = rangeview.immutable(points)
        calls = TestRangeGapCull._count_reprojections(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [compute_overlap(ri_a, pose_a, cloud, pose_b) for _ in range(2)]
        assert got == [want, want]
        assert calls == [len(cloud)] * 2

    def test_empty_read_only_cloud_overlaps_nothing_and_is_not_kept(self):
        ri_a = TestRangeGapCull._wall_pair()[1]
        cloud = rangeview.immutable(np.zeros((0, 4)))
        assert compute_overlap(ri_a, identity_pose(), cloud, identity_pose()) == 0.0
        assert id(cloud) not in rangeview._RADII


@pytest.mark.parametrize("spec", [
    sw.WorldSpec(seed=4101, n_places=50, visits_per_place=3),
    sw.WorldSpec(seed=11, visits_per_place=3),
], ids=["label_world", "seed11"])
def test_read_only_clouds_label_as_writeable_copies(tmp_path, spec):
    # generated clouds are immutable, so their radii are kept; writeable
    # copies are measured on every call: the label files agree byte for byte
    world = sw.generate_world(spec)
    cfg = spec.projection_config()
    images = [build_range_image(s, cfg) for s in world.scans]
    ids = range(len(images))
    files = []
    for scans in (world.scans, [s.copy() for s in world.scans]):
        loop = [OverlapLabel(a, b, compute_overlap(images[a], world.poses[a],
                                                   scans[b], world.poses[b]))
                for a in ids for b in ids if a < b]
        loop = [lab for lab in loop if lab.overlap > 0.0]
        for labels in (loop, rangeview.label_pairs(images, world.poses, scans, ids)):
            files.append(tmp_path / f"labels_{len(files)}.txt")
            io.save_labels(files[-1], labels)
    assert len({f.read_bytes() for f in files}) == 1
    assert loop


class TestOverlapTable:
    def test_label_gives_its_direction_and_its_reverse(self):
        assert overlap_table([OverlapLabel(0, 1, 0.4)]) == {0: {1: 0.4}, 1: {0: 0.4}}

    @pytest.mark.parametrize("flip", [False, True])
    def test_reverse_label_overrides_the_fallback(self, flip):
        labels = [OverlapLabel(0, 1, 0.4), OverlapLabel(1, 0, 0.7)]
        table = overlap_table(labels[::-1] if flip else labels)
        assert table == {0: {1: 0.4}, 1: {0: 0.7}}

    def test_last_label_naming_a_direction_wins(self):
        table = overlap_table([OverlapLabel(0, 1, 0.4), OverlapLabel(1, 0, 0.7),
                               OverlapLabel(0, 1, 0.6), OverlapLabel(1, 0, 0.2)])
        assert table == {0: {1: 0.6}, 1: {0: 0.2}}
        # no label names 1 -> 0: it keeps the first overlap given for 0 -> 1
        table = overlap_table([OverlapLabel(0, 1, 0.4), OverlapLabel(0, 1, 0.6)])
        assert table == {0: {1: 0.6}, 1: {0: 0.4}}

    def test_self_label_dropped(self):
        assert overlap_table([OverlapLabel(2, 2, 0.9)]) == {}
        table = overlap_table([OverlapLabel(2, 2, 0.9), OverlapLabel(2, 3, 0.1)])
        assert table == {2: {3: 0.1}, 3: {2: 0.1}}

    def test_label_is_an_immutable_record(self):
        lab = OverlapLabel(query=3, cand=5, overlap=0.25)
        assert (lab.query, lab.cand, lab.overlap) == (3, 5, 0.25)
        assert [lab] == [OverlapLabel(3, 5, 0.25)] != [OverlapLabel(3, 5, 0.5)]
        with pytest.raises(AttributeError):
            lab.overlap = 0.5


class TestBuildTuples:
    def test_threshold_splits_candidates(self):
        labels = [OverlapLabel(0, 1, 0.9), OverlapLabel(0, 2, 0.1)]
        tuples = build_tuples(labels, threshold=0.3, k_p=6, k_n=6, seed=0)
        assert [(t.query, t.positives, t.negatives) for t in tuples] == [
            (0, (1,), (2,)),
            (1, (0,), (2,)),  # no label names (1, 2): overlap 0.0
        ]

    def test_mirrored_pairs_feed_both_queries(self):
        labels = [
            OverlapLabel(0, 1, 0.9),
            OverlapLabel(0, 2, 0.1),
            OverlapLabel(1, 2, 0.05),
        ]
        tuples = build_tuples(labels, threshold=0.3, k_p=6, k_n=6, seed=0)
        queries = {t.query for t in tuples}
        assert queries == {0, 1}

    def test_query_without_positives_skipped(self):
        labels = [OverlapLabel(0, 1, 0.2), OverlapLabel(0, 2, 0.1)]
        assert build_tuples(labels, threshold=0.3, k_p=6, k_n=6, seed=0) == []

    def test_sampling_caps_set_sizes(self):
        labels = [OverlapLabel(0, c, 0.9) for c in range(1, 11)]
        labels += [OverlapLabel(0, c, 0.05) for c in range(11, 31)]
        tuples = build_tuples(labels, threshold=0.3, k_p=3, k_n=5, seed=1)
        tup = [t for t in tuples if t.query == 0][0]
        assert len(tup.positives) == 3
        assert len(tup.negatives) == 5

    def test_same_seed_identical(self):
        rng = np.random.default_rng(42)
        labels = [
            OverlapLabel(int(q), int(c), float(o))
            for q, c, o in zip(
                rng.integers(0, 20, 200), rng.integers(0, 20, 200), rng.random(200)
            )
            if q != c
        ]
        a = build_tuples(labels, threshold=0.3, k_p=4, k_n=4, seed=9)
        b = build_tuples(labels, threshold=0.3, k_p=4, k_n=4, seed=9)
        assert a == b

    def test_invalid_threshold_rejected(self):
        with pytest.raises(errors.ContractError):
            build_tuples([], threshold=1.5, k_p=1, k_n=1, seed=0)

    def test_scan_no_label_names_is_a_negative(self):
        labels = [OverlapLabel(0, 1, 0.9), OverlapLabel(0, 3, 0.1)]
        for ids, negatives in ((None, {3}), ([2, 1, 0], {2, 3})):
            tuples = build_tuples(labels, threshold=0.3, k_p=6, k_n=6, seed=0, ids=ids)
            got = {t.query: (t.positives, set(t.negatives)) for t in tuples}
            assert got == {0: ((1,), negatives), 1: ((0,), negatives)}

    @pytest.mark.parametrize("seed", range(6))
    def test_negatives_match_the_plain_pool(self, seed):
        # the negatives are drawn by index into the sorted scans without the
        # query and its positives; the pool written out gives the same
        # tuples, also when the positives hold the first and last scans
        rng = np.random.default_rng(seed)
        scans = sorted(set(rng.integers(-2**62, 2**62, 40).tolist()))
        labels = [OverlapLabel(scans[a], scans[b], float(o)) for a, b, o in
                  zip(rng.integers(0, 40, 120), rng.integers(0, 40, 120), rng.random(120))]
        labels += [OverlapLabel(scans[0], scans[-1], 0.9), OverlapLabel(scans[1], scans[0], 0.8),
                   OverlapLabel(scans[-2], scans[-1], 0.7)]
        for ids in (None, scans[::3] + [2**70, -2**70]):
            for k_n in (1, 5, 100):
                want = _tuples_from_plain_pools(labels, 0.5, 40, k_n, seed, ids)
                for end in (scans[0], scans[-1]):
                    assert any(end in t.positives for t in want)
                assert build_tuples(labels, 0.5, k_p=40, k_n=k_n, seed=seed, ids=ids) == want


def _tuples_from_plain_pools(labels, threshold, k_p, k_n, seed, ids):
    """build_tuples with each query's negatives listed in full."""
    table = overlap_table(labels)
    scans = sorted({*table, *(ids or ())})
    rng = np.random.default_rng(seed)
    tuples = []
    for q in sorted(table):
        pos = sorted(c for c, o in table[q].items() if o > threshold)
        neg = [c for c in scans if c != q and c not in pos]
        if pos and neg:
            tuples.append(rangeview.TrainingTuple(
                query=q, positives=tuple(pos[i] for i in rng.permutation(len(pos))[:k_p]),
                negatives=tuple(neg[i] for i in rng.permutation(len(neg))[:k_n])))
    return tuples


@pytest.mark.parametrize("seed", [42, 7, 4101])
def test_dense_labels_and_their_sparse_form_agree(seed):
    # the pair loop writes every pair, `label_pairs` only the overlapping
    # ones: tuples and loop-closure reports are the same from either list
    spec = sw.WorldSpec(seed=seed)
    world = sw.generate_world(spec)
    images = [build_range_image(s, spec.projection_config()) for s in world.scans]
    n = len(images)
    dense = [OverlapLabel(a, b, compute_overlap(images[a], world.poses[a],
                                                world.scans[b], world.poses[b]))
             for a in range(n) for b in range(a + 1, n)]
    sparse = rangeview.label_pairs(images, world.poses, world.scans, range(n))
    assert 0 < len(sparse) < len(dense)
    for k_n in (2, 6):
        tuples = build_tuples(dense, 0.3, k_p=2, k_n=k_n, seed=seed)
        assert tuples
        assert build_tuples(sparse, 0.3, k_p=2, k_n=k_n, seed=seed, ids=range(n)) == tuples
    db = rt.DescriptorDb(range(n), np.random.default_rng(seed).normal(size=(n, 16)))
    for window in (0, 3, 30):
        protocol = rt.EvalProtocol(window=window)
        report = rt.eval_loop_closure(db, dense, protocol)
        assert rt.eval_loop_closure(db, sparse, protocol).rows() == report.rows()
