"""Tests for the synthetic world generator."""

import math

import numpy as np
import pytest

from rangeloop import io
from rangeloop import rangeview as rvw
from rangeloop import selfcheck as sc
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
        with pytest.raises(ConfigError, match="obstacle ring"):
            sw.WorldSpec(r_max=5.0, place_spacing=11.0)
        with pytest.raises(ConfigError, match="pi/2"):
            sw.WorldSpec(f_up=2.0)

    @pytest.mark.parametrize("key", ["yaw_jitter", "translation_jitter"])
    def test_jitter_whose_span_overflows_rejected(self, key):
        # a draw spans [-jitter, jitter]: twice the jitter must be finite
        with pytest.raises(ConfigError, match="jitters"):
            sw.WorldSpec(**{key: 1e308})
        assert sw.WorldSpec(yaw_jitter=8.9e307).yaw_jitter == 8.9e307

    @pytest.mark.parametrize("key, value", [("translation_jitter", 1e300),
                                            ("place_spacing", 1e308),
                                            ("place_spacing", 1e100)])
    def test_world_beyond_huge_rejected(self, key, value):
        # the caster squares coordinates; beyond _HUGE meters they overflow
        with pytest.raises(ConfigError, match="of the origin"):
            sw.WorldSpec(**{key: value})

    def test_world_just_inside_huge_generates_quietly(self):
        # 2 places in 2 columns: extent 2 * spacing + jitter stays below 1e100
        spec = sw.WorldSpec(n_places=2, visits_per_place=1, h=4, w=16,
                            place_spacing=4e99, translation_jitter=1e99)
        world = sw.generate_world(spec)  # a RuntimeWarning fails the suite
        assert len(world.scans) == 2

    def test_obstacle_ring_bound(self):
        # the ring's outer radius RING_MAX_FRAC * r_max may not fall below
        # RING_MIN: 8.1 m is rejected, 8.2 m and the default generate
        with pytest.raises(ConfigError, match="obstacle ring"):
            sw.WorldSpec(r_max=8.1, place_spacing=20.0)
        spec = sw.WorldSpec(r_max=8.2, place_spacing=20.0, n_places=2,
                            visits_per_place=1, h=4, w=16)
        assert len(sw.generate_world(spec).scans) == 2

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


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(_bits(got), _bits(want))


class TestCulledCaster:
    """`cast_rays` and everything built on it against the exhaustive loop
    `cast_rays_exhaustive`, bit for bit."""

    @pytest.mark.parametrize("spec", [
        sw.WorldSpec(),
        sw.WorldSpec(seed=11, n_places=50, visits_per_place=3),
        sw.WorldSpec(seed=0, n_places=2, visits_per_place=1, h=64, w=900),
        sw.WorldSpec(seed=3, n_obstacles=1, n_places=6),
        sw.WorldSpec(seed=4, f_up=math.pi / 2, f_down=math.pi / 2, n_places=6),
        sw.WorldSpec(seed=5, n_places=4, n_obstacles=20, h=8, w=64),
        sw.WorldSpec(seed=6, n_places=5, r_max=9.0, place_spacing=20.0),
        sw.WorldSpec(seed=7, n_places=3, yaw_jitter=0.0, translation_jitter=0.0),
    ], ids=["default", "label_world", "64x900", "one_obstacle", "half_pi_fov",
            "crowded", "small_cap", "no_jitter"])
    def test_world_equals_exhaustive_scans(self, spec):
        world = sw.generate_world(spec)
        want = sc.exhaustive_scans(spec, world)
        assert len(world.scans) == len(want) == spec.n_places * spec.visits_per_place
        for got, exp in zip(world.scans, want):
            _assert_same_bits(got, exp)

    def test_tiny_chunks_change_nothing(self, monkeypatch):
        # one visit per chunk, tiles of 8 of a place's 12 obstacles and one
        # ray, pair batches of one test
        spec = sw.WorldSpec(seed=9, n_places=3, visits_per_place=2, h=8, w=32,
                            n_obstacles=12)
        want = sw.generate_world(spec)
        monkeypatch.setattr(sw, "_CHUNK_ELEMS", 8)
        got = sw.generate_world(spec)
        for a, b in zip(got.scans, want.scans):
            _assert_same_bits(a, b)

    def test_render_scan_with_tilted_rotation(self):
        spec = sw.WorldSpec(seed=12, n_places=2)
        place = sw.build_places(spec, np.random.default_rng(spec.seed))[1]
        axis = np.array([0.3, -0.4, 0.87])
        axis /= np.linalg.norm(axis)
        k = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]],
                      [-axis[1], axis[0], 0.0]])
        angle = 0.7
        rot = np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * k @ k
        pose = rvw.Pose(rotation=rot, translation=np.array(
            [place.center[0] + 0.3, place.center[1] - 0.2, 1.5]))
        dirs = sw.beam_directions(spec.projection_config())
        got = sw.render_scan(spec, place, pose)
        t = sw.cast_rays_exhaustive(pose.translation, dirs @ rot.T, place.obstacles)
        hit = np.isfinite(t) & (t <= spec.r_max)
        assert hit.sum() > 100
        want = np.concatenate([dirs[hit] * t[hit, None], np.zeros((hit.sum(), 1))], axis=1)
        _assert_same_bits(got, want)

    @staticmethod
    def _check(origin, dirs, obstacles):
        origin = np.asarray(origin, dtype=float)
        dirs = np.asarray(dirs, dtype=float)
        got = sw.cast_rays(origin, dirs, obstacles)
        want = sw.cast_rays_exhaustive(origin, dirs, obstacles)
        _assert_same_bits(got, want)
        return got

    def test_existing_ray_inputs(self):
        box = sw.Box(lo=(5.0, -1.0, -1.0), hi=(7.0, 1.0, 1.0))
        self._check(np.zeros(3), [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [box])
        cyl = sw.Cylinder(cx=4.0, cy=0.0, radius=1.0, z0=-1.0, z1=1.0)
        self._check(np.zeros(3), [[1.0, 0.0, 0.0]], [cyl])
        assert self._check([4.0, 0.0, 5.0], [[0.0, 0.0, -1.0]], [cyl])[0] == 4.0
        near = sw.Box(lo=(2.0, -1.0, -1.0), hi=(3.0, 1.0, 1.0))
        far = sw.Box(lo=(6.0, -1.0, -1.0), hi=(8.0, 1.0, 1.0))
        self._check(np.zeros(3), [[1.0, 0.0, 0.0]], [far, near])

    def test_sensor_inside_footprints(self):
        rng = np.random.default_rng(1)
        dirs = rng.standard_normal((500, 3))
        obstacles = [sw.Box(lo=(-1.0, -2.0, 1.0), hi=(3.0, 1.0, 4.0)),
                     sw.Cylinder(cx=0.5, cy=0.2, radius=2.0, z0=-3.0, z1=-1.0),
                     sw.Cylinder(cx=9.0, cy=0.0, radius=1.0, z0=-3.0, z1=3.0)]
        t = self._check(np.zeros(3), dirs, obstacles)
        assert np.isfinite(t).mean() > 0.5

    def test_obstacle_across_the_azimuth_seam(self):
        # the box spans bearings near +pi and -pi; rays on both sides hit it
        box = sw.Box(lo=(-12.0, -1.0, -1.0), hi=(-10.0, 1.0, 1.0))
        az = np.concatenate([np.linspace(math.pi - 0.2, math.pi, 50),
                             np.linspace(-math.pi, -math.pi + 0.2, 50)])
        dirs = np.stack([np.cos(az), np.sin(az), np.zeros_like(az)], axis=1)
        t = self._check([0.0, 0.0, 0.0], dirs, [box])
        assert np.isfinite(t[az > 0]).any() and np.isfinite(t[az < 0]).any()

    @pytest.mark.parametrize("seed", range(4))
    def test_grazing_rays(self, seed):
        # rays within 1e-12 rad of box corners and cylinder tangents, and
        # within a few ulp of the tangents, where rounding decides a hit
        rng = np.random.default_rng(seed)
        origin = rng.normal(size=3) * 20.0
        obstacles = []
        for k, (x, y, size) in enumerate(rng.uniform([-30, -30, 0.2], [30, 30, 4], (16, 3))):
            x, y = x + origin[0], y + origin[1]
            obstacles.append(
                sw.Cylinder(cx=x, cy=y, radius=size, z0=origin[2] - 3, z1=origin[2] + 3)
                if k % 2 else
                sw.Box(lo=(x - size, y - 0.3 * size, origin[2] - 3),
                       hi=(x + 0.5 * size, y + size, origin[2] + 2)))
        offsets = np.concatenate([[-1e-12, 1e-12], np.linspace(-4e-15, 4e-15, 9)])
        dirs = sc.grazing_directions(origin, obstacles, offsets)
        t = self._check(origin, dirs, obstacles)
        assert np.isfinite(t).mean() > 0.3

    def test_degenerate_rays_and_obstacles(self):
        # vertical, zero, tiny, huge and non-finite directions; an obstacle
        # with a NaN coordinate, one far away, and one at the sensor
        dirs = np.array([[0, 0, 1], [0, 0, -1], [0, 0, 0], [-0.0, 0.0, 1],
                         [np.nan, 1, 0], [1, np.nan, 0], [1, 0, np.nan],
                         [np.inf, 0, 0], [1, 1, np.inf], [1e-300, 1e-300, 1],
                         [1e-120, 1, 0], [1e200, 1, 0], [1, 0, 0], [0, 1, 0]])
        obstacles = [sw.Box(lo=(np.nan, -1.0, -1.0), hi=(7.0, 1.0, 1.0)),
                     sw.Box(lo=(-3.0, 2.0, -1.0), hi=(-1.0, 4.0, 1.0)),
                     sw.Cylinder(cx=1e6, cy=0.0, radius=2.0, z0=-1.0, z1=1.0),
                     sw.Cylinder(cx=0.0, cy=0.0, radius=0.0, z0=-1.0, z1=1.0),
                     sw.Cylinder(cx=0.0, cy=5.0, radius=-1.0, z0=-1.0, z1=1.0)]
        with np.errstate(all="ignore"):
            self._check([0.0, 0.0, 0.0], dirs, obstacles)
            self._check([np.nan, 0.0, 0.0], dirs, obstacles)
            self._check([0.0, 0.0, 0.0], dirs, [])

    def test_reach_mask_keeps_every_hit(self):
        spec = sw.WorldSpec(seed=11, n_places=4, visits_per_place=2)
        world = sw.generate_world(spec)
        places = sw.build_places(spec, np.random.default_rng(spec.seed))
        dirs = sw.beam_directions(spec.projection_config())
        kept = total = 0
        for pose, pid in zip(world.poses, world.place_ids):
            obstacles = places[pid].obstacles
            world_dirs = dirs @ pose.rotation.T
            mask = sw.reach_mask(pose.translation, world_dirs, obstacles)
            for obs, row in zip(obstacles, mask):
                hits = np.isfinite(sw.cast_rays_exhaustive(pose.translation,
                                                           world_dirs, [obs]))
                assert row[hits].all()
            kept += int(mask.sum())
            total += mask.size
        assert kept / total < 0.15


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


class TestReadOnlyClouds:
    """Generated clouds are views of one immutable array
    (`rangeview.immutable`), so `rangeview._radius` measures each of them
    once."""

    @staticmethod
    def _assert_read_only(scan):
        for array in (scan, scan.base):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1.0
            with pytest.raises(ValueError):
                array.flags.writeable = True
        rvw._radius(scan)
        assert rvw._RADII[id(scan)][0]() is scan

    def test_generated_scans(self):
        for scan in sw.generate_world(SMALL).scans:
            self._assert_read_only(scan)

    def test_rendered_scan(self):
        place = sw.build_places(SMALL, np.random.default_rng(SMALL.seed))[0]
        pose = rvw.Pose(rotation=np.eye(3), translation=np.array([*place.center, 0.0]))
        self._assert_read_only(sw.render_scan(SMALL, place, pose))


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
        assert names == ["poses.txt"] + \
            [f"scan_{i:04d}.bin" for i in range(8)]
        for name in names:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_used_directory_refused(self, tmp_path):
        sw.save_world(tmp_path, sw.generate_world(SMALL))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        small = sw.WorldSpec(n_places=2, visits_per_place=2, h=8, w=64)
        with pytest.raises(ContractError, match="scan_"):
            sw.save_world(tmp_path, sw.generate_world(small))
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_roundtrip(self, tmp_path):
        world = sw.generate_world(SMALL)
        sw.save_world(tmp_path, world)
        scan = io.load_scan(tmp_path / "scan_0000.bin")
        want = world.scans[0].astype(np.float32).astype(np.float64)
        np.testing.assert_array_equal(scan, want)
        poses = io.load_poses(tmp_path / "poses.txt")
        np.testing.assert_array_equal(poses[3].rotation, world.poses[3].rotation)
