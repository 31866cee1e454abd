"""Synthetic world generator: deterministic desk-scale scan data.

A world is a set of distinct places, each a random arrangement of boxes and
cylinders around a sensor location.  Every place is visited several times
with a jittered pose (random heading, small translation), so revisit pairs
overlap heavily while different places, spaced far beyond the range cap,
do not overlap at all.  Scans are produced by exact analytic ray casting
against the obstacle primitives, one ray per range-image pixel, so a
generated cloud projects back onto the pixel grid it was cast from.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import List, NamedTuple

import numpy as np

from . import io
from .errors import ConfigError
from .rangeview import Pose, ProjectionConfig


@dataclass(frozen=True)
class WorldSpec:
    seed: int = 42
    n_places: int = 20
    visits_per_place: int = 3
    yaw_jitter: float = math.pi  # heading drawn uniformly in [-this, this]
    translation_jitter: float = 0.5  # meters, per horizontal axis
    n_obstacles: int = 8  # per place
    place_spacing: float = 150.0  # meters between place grid cells
    h: int = 16
    w: int = 128
    f_up: float = 0.35
    f_down: float = 0.35
    r_max: float = 50.0

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.n_places < 2:
            raise ConfigError(f"need at least 2 places, got {self.n_places}")
        if self.visits_per_place < 1:
            raise ConfigError(f"visits per place must be >= 1, got {self.visits_per_place}")
        if not (0 <= self.yaw_jitter < math.inf and 0 <= self.translation_jitter < math.inf):
            raise ConfigError("jitters must be finite and >= 0")
        if self.n_obstacles < 1:
            raise ConfigError("a place needs at least one obstacle")
        self.projection_config()  # sensor validation
        if not 2 * self.r_max < self.place_spacing < math.inf:
            raise ConfigError(
                f"place spacing {self.place_spacing} must be finite and exceed "
                f"twice the range cap {self.r_max} so places stay mutually invisible"
            )

    def projection_config(self) -> ProjectionConfig:
        return ProjectionConfig(w=self.w, h=self.h, f_up=self.f_up,
                                f_down=self.f_down, r_max=self.r_max)


@dataclass(frozen=True)
class Box:
    lo: tuple  # (x, y, z) min corner, world frame
    hi: tuple  # (x, y, z) max corner


@dataclass(frozen=True)
class Cylinder:
    cx: float
    cy: float
    radius: float
    z0: float
    z1: float


@dataclass(frozen=True)
class Place:
    center: tuple  # (x, y) sensor anchor
    obstacles: tuple  # Box / Cylinder mix


class WorldData(NamedTuple):
    scans: List[np.ndarray]  # (n_i, 4) float local clouds
    poses: List[Pose]
    place_ids: List[int]


def _rot_z(yaw: float) -> np.ndarray:
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def beam_directions(cfg: ProjectionConfig) -> np.ndarray:
    """(h*w, 3) unit ray directions in the sensor frame, one per pixel
    center, laid out row-major so projecting a hit lands in its own pixel."""
    v = np.arange(cfg.h) + 0.5
    u = np.arange(cfg.w) + 0.5
    pitch = cfg.f * (1.0 - v / cfg.h) - cfg.f_up
    yaw = math.pi * (1.0 - 2.0 * u / cfg.w)
    pp, yy = np.meshgrid(pitch, yaw, indexing="ij")
    dirs = np.stack([
        np.cos(pp) * np.cos(yy),
        np.cos(pp) * np.sin(yy),
        np.sin(pp),
    ], axis=-1)
    return dirs.reshape(-1, 3)


def _ray_box(origin: np.ndarray, dirs: np.ndarray, box: Box) -> np.ndarray:
    """Entry distance per ray (inf on miss): slab intersection."""
    lo = np.asarray(box.lo) - origin
    hi = np.asarray(box.hi) - origin
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = lo / dirs
        t2 = hi / dirs
    near = np.fmin(t1, t2)
    far = np.fmax(t1, t2)
    near = np.nan_to_num(near, nan=-np.inf)
    far = np.nan_to_num(far, nan=np.inf)
    t_near = near.max(axis=1)
    t_far = far.min(axis=1)
    hit = (t_near <= t_far) & (t_near > 1e-9)
    return np.where(hit, t_near, np.inf)


def _ray_cylinder(origin: np.ndarray, dirs: np.ndarray, cyl: Cylinder) -> np.ndarray:
    """Entry distance per ray (inf on miss): side surface plus flat caps."""
    ox, oy, oz = origin
    dx, dy, dz = dirs[:, 0], dirs[:, 1], dirs[:, 2]
    fx, fy = ox - cyl.cx, oy - cyl.cy
    a = dx * dx + dy * dy
    b = 2.0 * (fx * dx + fy * dy)
    c = fx * fx + fy * fy - cyl.radius ** 2
    disc = b * b - 4.0 * a * c
    best = np.full(dirs.shape[0], np.inf)
    ok = (disc >= 0) & (a > 1e-12)
    sq = np.sqrt(np.where(ok, disc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        for sign in (-1.0, 1.0):
            t = (-b + sign * sq) / (2.0 * a)
            z = oz + t * dz
            good = ok & (t > 1e-9) & (z >= cyl.z0) & (z <= cyl.z1)
            best = np.where(good & (t < best), t, best)
        for z_cap in (cyl.z0, cyl.z1):
            t = (z_cap - oz) / dz
            px = ox + t * dx - cyl.cx
            py = oy + t * dy - cyl.cy
            good = (np.abs(dz) > 1e-12) & (t > 1e-9) & \
                (px * px + py * py <= cyl.radius ** 2)
            best = np.where(good & (t < best), t, best)
    return best


def cast_rays(origin: np.ndarray, dirs: np.ndarray, obstacles) -> np.ndarray:
    """Smallest positive hit distance per ray over all obstacles (inf: miss)."""
    best = np.full(dirs.shape[0], np.inf)
    for obs in obstacles:
        if isinstance(obs, Box):
            t = _ray_box(origin, dirs, obs)
        else:
            t = _ray_cylinder(origin, dirs, obs)
        best = np.minimum(best, t)
    return best


def build_places(spec: WorldSpec, rng: np.random.Generator) -> List[Place]:
    """Obstacle layouts on a sparse grid; consumes rng in place order."""
    cols = math.ceil(math.sqrt(spec.n_places))
    places = []
    for i in range(spec.n_places):
        cx = (i % cols) * spec.place_spacing
        cy = (i // cols) * spec.place_spacing
        obstacles = []
        for _ in range(spec.n_obstacles):
            angle = rng.uniform(-math.pi, math.pi)
            dist = rng.uniform(4.5, 0.55 * spec.r_max)
            ox = cx + dist * math.cos(angle)
            oy = cy + dist * math.sin(angle)
            top = rng.uniform(1.0, 8.0)
            if rng.random() < 0.5:
                ex = rng.uniform(0.5, 3.0)
                ey = rng.uniform(0.5, 3.0)
                obstacles.append(Box(lo=(ox - ex, oy - ey, -2.0),
                                     hi=(ox + ex, oy + ey, top)))
            else:
                radius = rng.uniform(0.4, 2.5)
                obstacles.append(Cylinder(cx=ox, cy=oy, radius=radius,
                                          z0=-2.0, z1=top))
        places.append(Place(center=(cx, cy), obstacles=tuple(obstacles)))
    return places


def visit_pose(spec: WorldSpec, place: Place, rng: np.random.Generator) -> Pose:
    """Jittered sensor pose at a place; consumes 3 uniforms (yaw, dx, dy)."""
    yaw = rng.uniform(-spec.yaw_jitter, spec.yaw_jitter)
    dx = rng.uniform(-spec.translation_jitter, spec.translation_jitter)
    dy = rng.uniform(-spec.translation_jitter, spec.translation_jitter)
    t = np.array([place.center[0] + dx, place.center[1] + dy, 0.0])
    return Pose(rotation=_rot_z(yaw), translation=t)


def render_scan(spec: WorldSpec, place: Place, pose: Pose,
                dirs: np.ndarray = None) -> np.ndarray:
    """Ray-cast one scan: (n, 4) hit points in the sensor frame, zero
    intensity.  Ranges of returned points are in (0, r_max]."""
    cfg = spec.projection_config()
    if dirs is None:
        dirs = beam_directions(cfg)
    dirs_world = dirs @ pose.rotation.T
    t = cast_rays(pose.translation, dirs_world, place.obstacles)
    hit = np.isfinite(t) & (t <= cfg.r_max)
    pts = dirs[hit] * t[hit, None]
    return np.concatenate([pts, np.zeros((pts.shape[0], 1))], axis=1)


def generate_world(spec: WorldSpec) -> WorldData:
    """Deterministic world: places drawn first, then one pose per visit in
    round-major order (visit 0 of every place, then visit 1, ...), so a
    revisit of place p sits exactly n_places frames after its previous one."""
    rng = np.random.default_rng(spec.seed)
    places = build_places(spec, rng)
    dirs = beam_directions(spec.projection_config())
    scans, poses, place_ids = [], [], []
    for _ in range(spec.visits_per_place):
        for pid, place in enumerate(places):
            pose = visit_pose(spec, place, rng)
            scans.append(render_scan(spec, place, pose, dirs))
            poses.append(pose)
            place_ids.append(pid)
    return WorldData(scans=scans, poses=poses, place_ids=place_ids)


def save_world(out_dir, world: WorldData) -> None:
    """scan_%04d.bin raw clouds, poses.txt, places.txt under out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    for i, scan in enumerate(world.scans):
        io.save_scan(os.path.join(out_dir, f"scan_{i:04d}.bin"), scan)
    io.save_poses(os.path.join(out_dir, "poses.txt"), world.poses)
    io.save_place_ids(os.path.join(out_dir, "places.txt"), world.place_ids)

