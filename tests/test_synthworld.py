"""Tests for the synthetic world generator."""

import math

import numpy as np
import pytest

from rangeloop import io
from rangeloop import rangeview as rvw
from rangeloop import synthworld as sw
from rangeloop.errors import ConfigError, ContractError

SMALL = sw.WorldSpec(n_places=4, visits_per_place=2, h=8, w=64)


class TestWorldSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            sw.WorldSpec(n_places=1)
        with pytest.raises(ConfigError):
            sw.WorldSpec(n_obstacles=0)
        with pytest.raises(ConfigError):
            sw.WorldSpec(place_spacing=100.0, r_max=50.0)
        with pytest.raises(ConfigError):
            sw.WorldSpec(yaw_jitter=-0.1)
        with pytest.raises(ConfigError):
            sw.WorldSpec(visits_per_place=0)
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            sw.WorldSpec(seed=-1)

    def test_kv_roundtrip(self):
        spec = sw.WorldSpec(n_places=5, r_max=30.0, place_spacing=70.0)
        back = io.config_from_pairs(sw.WorldSpec, io.config_pairs(spec))
        assert back == spec

    def test_unknown_key_rejected(self):
        with pytest.raises(ContractError):
            io.config_from_pairs(sw.WorldSpec, [("gravity", "9.81")])
        with pytest.raises(ContractError):
            io.config_from_pairs(sw.WorldSpec, [("n_places", "many")])


class TestBeamDirections:
    def test_unit_norm_and_count(self):
        cfg = SMALL.projection_config()
        dirs = sw.beam_directions(cfg)
        assert dirs.shape == (cfg.h * cfg.w, 3)
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)

    def test_rows_cover_vertical_fov(self):
        cfg = SMALL.projection_config()
        dirs = sw.beam_directions(cfg).reshape(cfg.h, cfg.w, 3)
        pitch = np.arcsin(dirs[:, 0, 2])
        assert pitch[0] > pitch[-1]  # top row looks up
        assert pitch[0] < cfg.f_up and pitch[-1] > -cfg.f_down


class TestRayCasting:
    def test_box_face_distance(self):
        box = sw.Box(lo=(5.0, -1.0, -1.0), hi=(7.0, 1.0, 1.0))
        dirs = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        t = sw.cast_rays(np.zeros(3), dirs, [box])
        np.testing.assert_allclose(t[0], 5.0)
        assert np.isinf(t[1]) and np.isinf(t[2])

    def test_cylinder_side_and_cap(self):
        cyl = sw.Cylinder(cx=4.0, cy=0.0, radius=1.0, z0=-1.0, z1=1.0)
        side = sw.cast_rays(np.zeros(3), np.array([[1.0, 0.0, 0.0]]), [cyl])
        np.testing.assert_allclose(side, [3.0])
        down = np.array([[0.0, 0.0, -1.0]])
        cap = sw.cast_rays(np.array([4.0, 0.0, 5.0]), down, [cyl])
        np.testing.assert_allclose(cap, [4.0])

    def test_nearest_obstacle_wins(self):
        near = sw.Box(lo=(2.0, -1.0, -1.0), hi=(3.0, 1.0, 1.0))
        far = sw.Box(lo=(6.0, -1.0, -1.0), hi=(8.0, 1.0, 1.0))
        t = sw.cast_rays(np.zeros(3), np.array([[1.0, 0.0, 0.0]]), [far, near])
        np.testing.assert_allclose(t, [2.0])


class TestWorldGeneration:
    def test_same_seed_identical(self):
        a = sw.generate_world(SMALL)
        b = sw.generate_world(SMALL)
        assert a.place_ids == b.place_ids
        for sa, sb in zip(a.scans, b.scans):
            np.testing.assert_array_equal(sa, sb)
        for pa, pb in zip(a.poses, b.poses):
            np.testing.assert_array_equal(pa.rotation, pb.rotation)
            np.testing.assert_array_equal(pa.translation, pb.translation)

    def test_seed_changes_world(self):
        a = sw.generate_world(SMALL)
        b = sw.generate_world(sw.WorldSpec(seed=7, n_places=4, visits_per_place=2,
                                           h=8, w=64))
        assert not all(np.array_equal(x, y) for x, y in zip(a.scans, b.scans))

    def test_round_major_ordering(self):
        world = sw.generate_world(SMALL)
        assert world.place_ids == [0, 1, 2, 3, 0, 1, 2, 3]
        # revisit poses sit near the same place center
        jitter = math.hypot(SMALL.translation_jitter, SMALL.translation_jitter)
        for i in range(4):
            d = np.linalg.norm(world.poses[i].translation -
                               world.poses[i + 4].translation)
            assert d <= 2 * jitter + 1e-12

    def test_ranges_within_cap(self):
        world = sw.generate_world(SMALL)
        for scan in world.scans:
            assert scan.shape[1] == 4 and scan.shape[0] > 0
            r = np.linalg.norm(scan[:, :3], axis=1)
            assert np.all(r > 0.0) and np.all(r <= SMALL.r_max)
            assert np.all(scan[:, 3] == 0.0)

    def test_scan_projects_onto_own_pixels(self):
        # each returned point is a beam-center hit, so reprojection fills one
        # distinct pixel per point with exactly the cast range
        world = sw.generate_world(SMALL)
        cfg = SMALL.projection_config()
        scan = world.scans[0]
        u, v, r, valid = rvw.project_points(scan[:, :3], cfg)
        assert valid.all()
        assert len({(int(a), int(b)) for a, b in zip(v, u)}) == len(scan)
        img = rvw.build_range_image(scan, cfg)
        assert int(img.valid.sum()) == len(scan)
        np.testing.assert_array_equal(img.ranges[v, u], r)


class TestOverlapStructure:
    def test_zero_jitter_revisits_are_identical(self):
        spec = sw.WorldSpec(n_places=3, visits_per_place=2, yaw_jitter=0.0,
                            translation_jitter=0.0, h=8, w=64)
        world = sw.generate_world(spec)
        cfg = spec.projection_config()
        for i in range(3):
            np.testing.assert_array_equal(world.scans[i], world.scans[i + 3])
            ri = rvw.build_range_image(world.scans[i], cfg)
            ov = rvw.compute_overlap(ri, world.poses[i],
                                     world.scans[i + 3], world.poses[i + 3])
            assert ov == 1.0

    def test_default_spec_separates_revisits_from_cross_place(self):
        spec = sw.WorldSpec()
        world = sw.generate_world(spec)
        cfg = spec.projection_config()
        imgs = [rvw.build_range_image(s, cfg) for s in world.scans]
        n = spec.n_places
        revisit = [
            rvw.compute_overlap(imgs[i], world.poses[i],
                                world.scans[i + n], world.poses[i + n])
            for i in range(n * (spec.visits_per_place - 1))
        ]
        assert min(revisit) > 0.3
        rng = np.random.default_rng(0)
        checked = 0
        for _ in range(60):
            i, j = rng.integers(0, len(world.scans), size=2)
            if world.place_ids[i] == world.place_ids[j]:
                continue
            checked += 1
            ov = rvw.compute_overlap(imgs[i], world.poses[i],
                                     world.scans[j], world.poses[j])
            assert ov < 0.3
        assert checked > 20

    def test_pure_yaw_revisit_shifts_range_image(self):
        # rotating the sensor by k azimuth bins re-renders the same world
        # rays, so the range image shifts by k columns
        spec = sw.WorldSpec()
        rng = np.random.default_rng(spec.seed)
        places = sw.build_places(spec, rng)
        place = places[3]
        cfg = spec.projection_config()
        anchor = np.array([place.center[0], place.center[1], 0.0])
        base_pose = rvw.Pose(rotation=np.eye(3), translation=anchor)
        base = rvw.build_range_image(sw.render_scan(spec, place, base_pose), cfg)
        for k in (1, spec.w // 4, spec.w // 2):
            theta = 2.0 * math.pi * k / spec.w
            pose = rvw.Pose(rotation=sw._rot_z(theta), translation=anchor)
            img = rvw.build_range_image(sw.render_scan(spec, place, pose), cfg)
            want = np.roll(base.ranges, k, axis=1)
            np.testing.assert_array_equal(img.valid,
                                          np.roll(base.valid, k, axis=1))
            np.testing.assert_allclose(img.ranges[img.valid],
                                       want[img.valid], atol=1e-12)


class TestSaveWorld:
    def test_files_and_byte_identity(self, tmp_path):
        world = sw.generate_world(SMALL)
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        sw.save_world(dir_a, world)
        sw.save_world(dir_b, sw.generate_world(SMALL))
        names = sorted(p.name for p in dir_a.iterdir())
        assert names == ["places.txt", "poses.txt"] + \
            [f"scan_{i:04d}.bin" for i in range(8)]
        for name in names:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_roundtrip(self, tmp_path):
        world = sw.generate_world(SMALL)
        sw.save_world(tmp_path, world)
        scan = io.load_scan(tmp_path / "scan_0000.bin")
        want = world.scans[0].astype(np.float32).astype(np.float64)
        np.testing.assert_array_equal(scan, want)
        poses = io.load_poses(tmp_path / "poses.txt")
        np.testing.assert_array_equal(poses[3].rotation, world.poses[3].rotation)
        assert io.load_place_ids(tmp_path / "places.txt") == world.place_ids
