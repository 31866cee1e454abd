"""Synthetic world generator: deterministic desk-scale scan data.

A world is a set of distinct places, each a random arrangement of boxes and
cylinders around a sensor location.  Every place is visited several times
with a jittered pose (random heading, small translation), so revisit pairs
overlap heavily while different places, spaced far beyond the range cap,
do not overlap at all.  Scans are produced by exact analytic ray casting
against the obstacle primitives, one ray per range-image pixel, so a
generated cloud projects back onto the pixel grid it was cast from.

Azimuth cull.  Every obstacle lies inside the vertical cylinder over the
bounding circle of its xy footprint (centre c, radius rho).  A ray from a
sensor at xy distance d > rho from c can enter that cylinder only if its
world-frame azimuth lies within asin(rho / d) of the bearing to c, so the
caster tests each obstacle only against those rays: about 5% of the
(ray, obstacle) tests of the generator's worlds.  The kept tests of one
obstacle type are gathered across a chunk of visits, evaluated by the
per-element slab and quadric arithmetic of `_ray_box` and `_ray_cylinder`
that the exhaustive loop `cast_rays_exhaustive` also runs, and scattered
into each scan by an exact minimum.  A culled test would have returned inf
(shown below), the minimum is exact and order-free, and every kept test
computes the same bits as in the exhaustive loop, so scans are bit for bit
the exhaustive loop's.  Apart from one chunk's rays and per-ray results, no
temporary holds more than `_CHUNK_ELEMS` elements.

Why a culled test returns inf.  Per (visit, obstacle) let o be the sensor,
S = rho + |o_x| + |o_y| + |c_x| + |c_y| meters (so d <= S) and u = 2**-53.
The cull widens the circle to rho' = rho + `_CULL_REL` * S and the
half-width to asin(rho' / d) + `_CULL_ANGLE`, and applies only when
rho' < d and S < `_HUGE`; otherwise, as for a non-finite coordinate,
every ray is tested.  A ray is never culled when |d_x| + |d_y| lies
outside (`_TINY`, `_HUGE`) or is NaN: a vertical, zero or non-finite ray
has no usable azimuth, and a zero direction can meet the slab test at the
float maximum.

* Geometry.  A ray whose xy direction lies more than asin(rho' / d) from
  the bearing passes c at distance d sin(theta) > rho' when theta < pi/2
  and recedes from c otherwise, so every point of its xy trace lies more
  than delta = 1e-6 * S outside the circle, and outside the footprint.
* Angles.  `arctan2` of the ray and of c - o (a correctly rounded
  difference of doubles), `hypot`, and in `_keep` |az - bearing|, its
  difference from pi and pi - half-width each err by under 1e-14 rad, as
  does the double nearest pi.  The argument of `arcsin` is within 4u of
  rho' / d relative, and as asin is convex on [0, 1] that moves the
  half-width by at most acos(1 - 4u) < 3e-8 rad.  The 1e-6 rad margin
  covers both more than 30 times.
* Slabs.  The footprint's circle is computed from the rounded midpoint with
  radius error 2u * S, inside delta.  For t in the exact x interval the
  trace lies at least delta outside the y slab, so the two intervals are at
  least delta / min(|d_x|, |d_y|) apart, while their ends have magnitude at
  most 2S / min(|d_x|, |d_y|): the gap is at least delta / 4S = 2.5e-7 of
  the ends, and each end is a difference and a quotient, within 2.1u.  The
  computed intervals stay disjoint; a zero component gives an interval
  that is empty or the whole line by the exact sign of lo - o, and the z
  slab can only shrink the hit set.
* Quadric.  The discriminant is 4a (rho^2 - dist^2) <= -4a delta^2 =
  -4e-12 a S^2 for the exact line, and its computed value errs by at most
  about 12u * 4a (|f|^2 + rho^2) <= 5.3e-15 a S^2, so it stays negative and
  the side surface is missed.  A cap point o + t d lies on the line for any
  computed t; evaluating it errs by at most 3u (|o| + |c| + 2 |t d_xy|),
  under delta while |t d_xy| <= 2S and under a third of its distance
  beyond the circle otherwise.

Directions are converted to float64, and the argument assumes squares and
products of the coordinates stay finite, which the `_HUGE` bounds ensure.
`WorldSpec` keeps every place and sensor within `_HUGE` meters of the
origin, so the exhaustive tests of a generated world stay finite too.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import List, NamedTuple

import numpy as np

from . import io
from .errors import ConfigError
from .rangeview import Pose, ProjectionConfig, immutable

# obstacle centres lie on a ring around each place centre, from RING_MIN
# meters out to RING_MAX_FRAC of the range cap
RING_MIN = 4.5
RING_MAX_FRAC = 0.55

_CULL_REL = 1e-6  # bounding circles widen by this times the scale S
_CULL_ANGLE = 1e-6  # radians added to every cull half-width
_TINY, _HUGE = 1e-100, 1e100  # outside these scales nothing is culled
_NO_AZIMUTH = 1e300  # stands in for a ray's azimuth where it has none
_CHUNK_ELEMS = 1 << 17  # elements per temporary array: 1 MiB of float64


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
        # a draw spans [-jitter, jitter], twice the jitter
        if not (0 <= 2 * self.yaw_jitter < math.inf
                and 0 <= 2 * self.translation_jitter < math.inf):
            raise ConfigError("jitters must be >= 0 and finite when doubled")
        if self.n_obstacles < 1:
            raise ConfigError("a place needs at least one obstacle")
        self.projection_config()  # sensor validation
        if RING_MAX_FRAC * self.r_max < RING_MIN:
            raise ConfigError(
                f"range cap {self.r_max} leaves no room for the obstacle ring: "
                f"{RING_MAX_FRAC} * r_max must be at least {RING_MIN} m"
            )
        if not 2 * self.r_max < self.place_spacing < math.inf:
            raise ConfigError(
                f"place spacing {self.place_spacing} must be finite and exceed "
                f"twice the range cap {self.r_max} so places stay mutually invisible"
            )
        # the caster squares coordinates: see the module docstring's end
        extent = math.ceil(math.sqrt(self.n_places)) * self.place_spacing
        if not extent + self.translation_jitter < _HUGE:
            raise ConfigError(
                f"place spacing {self.place_spacing} and translation jitter "
                f"{self.translation_jitter} reach beyond {_HUGE:g} m of the origin"
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


def _ray_box(dirs: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Entry distance per ray (inf on miss): slab intersection.  ``dirs`` is
    (3, n), one column per ray; ``lo`` and ``hi`` are the box's corners minus
    the ray origin, (3, 1) or (3, n)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = lo / dirs
        t2 = hi / dirs
    near = np.nan_to_num(np.fmin(t1, t2), nan=-np.inf)
    far = np.nan_to_num(np.fmax(t1, t2), nan=np.inf)
    t_near = np.maximum(np.maximum(near[0], near[1]), near[2])
    t_far = np.minimum(np.minimum(far[0], far[1]), far[2])
    hit = (t_near <= t_far) & (t_near > 1e-9)
    return np.where(hit, t_near, np.inf)


def _ray_cylinder(dirs: np.ndarray, job: np.ndarray) -> np.ndarray:
    """Entry distance per ray (inf on miss): side surface plus flat caps.
    ``dirs`` is (3, n), one column per ray; ``job`` holds (ox, oy, oz, cx,
    cy, radius**2, z0, z1), the ray origin and the cylinder: (8,), or
    (8, n)."""
    ox, oy, oz, cx, cy, r2, z0, z1 = job
    dx, dy, dz = dirs
    fx, fy = ox - cx, oy - cy
    a = dx * dx + dy * dy
    b = 2.0 * (fx * dx + fy * dy)
    c = fx * fx + fy * fy - r2
    disc = b * b - 4.0 * a * c
    best = np.full(dirs.shape[1], np.inf)
    ok = (disc >= 0) & (a > 1e-12)
    sq = np.sqrt(np.where(ok, disc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        for sign in (-1.0, 1.0):
            t = (-b + sign * sq) / (2.0 * a)
            z = oz + t * dz
            good = ok & (t > 1e-9) & (z >= z0) & (z <= z1)
            best = np.where(good & (t < best), t, best)
        for z_cap in (z0, z1):
            t = (z_cap - oz) / dz
            px = ox + t * dx - cx
            py = oy + t * dy - cy
            good = (np.abs(dz) > 1e-12) & (t > 1e-9) & (px * px + py * py <= r2)
            best = np.where(good & (t < best), t, best)
    return best


class _Table(NamedTuple):
    """The obstacles of a list of equally long obstacle sets.  Row i of
    ``params`` is obstacle i in world coordinates (box: lo, hi; cylinder:
    cx, cy, radius**2, z0, z1, |radius|), ``is_box[i]`` its type,
    ``circle[i]`` the bounding circle (cx, cy, rho) of its xy footprint,
    and ``slots[s]`` the rows of set s."""
    params: np.ndarray
    is_box: np.ndarray
    circle: np.ndarray
    slots: np.ndarray


def _table(obstacle_sets) -> _Table:
    rows = []
    for obstacles in obstacle_sets:
        for obs in obstacles:
            if isinstance(obs, Box):
                rows.append((*obs.lo, *obs.hi))
            else:
                rows.append((obs.cx, obs.cy, obs.radius ** 2, obs.z0, obs.z1,
                             abs(obs.radius)))
    params = np.array(rows, dtype=np.float64).reshape(-1, 6)
    is_box = np.array([isinstance(obs, Box) for obstacles in obstacle_sets
                       for obs in obstacles], dtype=bool)
    circle = params[:, [0, 1, 5]]
    lo, hi = params[is_box, 0:2], params[is_box, 3:5]
    mid = 0.5 * (lo + hi)
    half = np.maximum(np.abs(mid - lo), np.abs(hi - mid))
    circle[is_box] = np.column_stack([mid, np.hypot(half[:, 0], half[:, 1])])
    slots = np.arange(len(rows)).reshape(len(obstacle_sets), -1)
    return _Table(params, is_box, circle, slots)


def _azimuths(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """World-frame azimuth of each ray, or _NO_AZIMUTH, which every
    obstacle keeps, where |d_x| + |d_y| is not within (_TINY, _HUGE)."""
    az = np.arctan2(dy, dx)
    scale = np.abs(dx) + np.abs(dy)
    az[~((scale > _TINY) & (scale < _HUGE))] = _NO_AZIMUTH
    return az


def _bearings(origins: np.ndarray, circle: np.ndarray):
    """Bearing from each origin to its circle's centre, and pi minus the
    cull half-width around it (see `_keep`); where the cull does not apply,
    bearing 0 and -inf, which keep every ray."""
    cx, cy, rho = circle.T
    ox, oy = origins[:, 0], origins[:, 1]
    px, py = cx - ox, cy - oy
    dist = np.hypot(px, py)
    scale = rho + np.abs(ox) + np.abs(oy) + np.abs(cx) + np.abs(cy)
    reach = rho + _CULL_REL * scale
    with np.errstate(divide="ignore", invalid="ignore"):
        floor = math.pi - (np.arcsin(reach / dist) + _CULL_ANGLE)
    bearing = np.arctan2(py, px)
    off = ~((reach < dist) & (scale < _HUGE))
    floor[off] = -np.inf
    bearing[off] = 0.0  # a NaN bearing would drop every ray
    return bearing, floor


def _keep(az: np.ndarray, bearing: np.ndarray, floor: np.ndarray) -> np.ndarray:
    """True where a ray at azimuth ``az`` may reach the circle at
    ``bearing``.  With diff = |az - bearing| in [0, 2 pi], the angle between
    them is pi - |diff - pi|, so a ray is kept where |diff - pi| >= floor."""
    diff = az - bearing
    np.abs(diff, out=diff)
    diff -= math.pi
    np.abs(diff, out=diff)
    return diff >= floor


def _box_test(dirs: np.ndarray, origins: np.ndarray, params: np.ndarray) -> np.ndarray:
    return _ray_box(dirs, (params[:, :3] - origins).T, (params[:, 3:] - origins).T)


def _cylinder_test(dirs: np.ndarray, origins: np.ndarray, params: np.ndarray) -> np.ndarray:
    return _ray_cylinder(dirs, np.concatenate([origins.T, params[:, :5].T]))


def _test_pairs(best, origins, dirs, table, visit, row, ray) -> None:
    """Min-scatter into ``best`` the hit distances of ray ``ray[k]`` of
    visit ``visit[k]`` against obstacle ``row[k]``; ``ray`` indexes the
    columns of ``dirs``, (3, V * n), and ``best``, (V * n,)."""
    box = table.is_box[row]
    for sel, test in ((box, _box_test), (~box, _cylinder_test)):
        r = ray[sel]
        # np.take: several times faster than fancy indexing of short rows
        t = test(np.take(dirs, r, axis=1), np.take(origins, visit[sel], axis=0),
                 np.take(table.params, row[sel], axis=0))
        hit = t < np.inf
        np.minimum.at(best, r[hit], t[hit])


def _cast(origins: np.ndarray, dirs: np.ndarray, table: _Table,
          sets: np.ndarray) -> np.ndarray:
    """(V, n) smallest positive hit distance (inf: miss) of each visit's
    rays: visit k casts columns k * n to k * n + n - 1 of ``dirs``,
    (3, V * n), from origins[k] at obstacle set sets[k].

    The cull runs on tiles of at most _CHUNK_ELEMS (visit, obstacle, ray)
    tests; the kept tests of a tile are evaluated at most _CHUNK_ELEMS // 8
    at a time, as a cylinder test carries 8 numbers."""
    n_vis = origins.shape[0]
    n = dirs.shape[1] // n_vis
    best = np.full(n_vis * n, np.inf)
    slots = table.slots[sets]
    n_obs = slots.shape[1]
    if n_obs == 0 or n == 0:
        return best.reshape(n_vis, n)
    az = _azimuths(dirs[0], dirs[1]).reshape(n_vis, 1, n)
    bearing, floor = _bearings(np.repeat(origins, n_obs, axis=0),
                               table.circle[slots.ravel()])
    bearing = bearing.reshape(n_vis, n_obs, 1)
    floor = floor.reshape(n_vis, n_obs, 1)
    n_slots = max(1, min(n_obs, _CHUNK_ELEMS // n_vis))
    n_rays = max(1, min(n, _CHUNK_ELEMS // (n_vis * n_slots)))
    batch = _CHUNK_ELEMS // 8
    for s0 in range(0, n_obs, n_slots):
        ss = slice(s0, s0 + n_slots)
        for r0 in range(0, n, n_rays):
            keep = _keep(az[:, :, r0:r0 + n_rays], bearing[:, ss], floor[:, ss])
            visit, rest = np.divmod(np.flatnonzero(keep), keep[0].size)
            slot, ray = np.divmod(rest, keep.shape[2])
            row = slots[visit, slot + s0]
            ray += visit * n + r0
            for p0 in range(0, visit.size, batch):
                pairs = slice(p0, p0 + batch)
                _test_pairs(best, origins, dirs, table,
                            visit[pairs], row[pairs], ray[pairs])
    return best.reshape(n_vis, n)


def cast_rays(origin: np.ndarray, dirs: np.ndarray, obstacles) -> np.ndarray:
    """Smallest positive hit distance per ray over all obstacles (inf:
    miss), testing each obstacle only against the rays the azimuth cull
    keeps; bit for bit `cast_rays_exhaustive`."""
    origin = np.asarray(origin, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    return _cast(origin[None], np.ascontiguousarray(dirs.T), _table([obstacles]),
                 np.zeros(1, int))[0]


def cast_rays_exhaustive(origin: np.ndarray, dirs: np.ndarray, obstacles) -> np.ndarray:
    """`cast_rays` without the cull, every ray against every obstacle: the
    oracle that tests and selfcheck hold the culled caster to."""
    best = np.full(dirs.shape[0], np.inf)
    for obs in obstacles:
        if isinstance(obs, Box):
            t = _ray_box(dirs.T, (np.asarray(obs.lo) - origin)[:, None],
                         (np.asarray(obs.hi) - origin)[:, None])
        else:
            t = _ray_cylinder(dirs.T, np.array([*origin, obs.cx, obs.cy,
                                                obs.radius ** 2, obs.z0, obs.z1]))
        best = np.minimum(best, t)
    return best


def reach_mask(origin: np.ndarray, dirs: np.ndarray, obstacles) -> np.ndarray:
    """(len(obstacles), n) bool: True where `cast_rays` tests obstacle i
    against ray j, False where the azimuth cull skips the test."""
    origin = np.asarray(origin, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    circle = _table([obstacles]).circle
    bearing, floor = _bearings(np.broadcast_to(origin, (len(circle), 3)), circle)
    return _keep(_azimuths(dirs[:, 0], dirs[:, 1]), bearing[:, None], floor[:, None])


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
            dist = rng.uniform(RING_MIN, RING_MAX_FRAC * spec.r_max)
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


def _points(dirs: np.ndarray, t: np.ndarray, r_max: float) -> List[np.ndarray]:
    """One (k, 4) sensor-frame cloud, zero intensity, per row of ``t``,
    (V, n): the rays with a hit distance in (0, r_max], in ray order.  The
    clouds are consecutive row blocks of one immutable array
    (`rangeview.immutable`)."""
    hit = np.isfinite(t) & (t <= r_max)
    flat = np.flatnonzero(hit)
    pts = np.zeros((flat.size, 4))
    pts[:, :3] = np.take(dirs, flat % t.shape[1], axis=0) * t.ravel()[flat, None]
    return np.split(immutable(pts), np.cumsum(hit.sum(axis=1))[:-1])


def render_scan(spec: WorldSpec, place: Place, pose: Pose) -> np.ndarray:
    """Ray-cast one scan: (n, 4) hit points in the sensor frame, zero
    intensity.  Ranges of returned points are in (0, r_max]."""
    cfg = spec.projection_config()
    dirs = beam_directions(cfg)
    t = cast_rays(pose.translation, dirs @ pose.rotation.T, place.obstacles)
    return _points(dirs, t[None], cfg.r_max)[0]


def generate_world(spec: WorldSpec) -> WorldData:
    """Deterministic world: places drawn first, then one pose per visit in
    round-major order (visit 0 of every place, then visit 1, ...), so a
    revisit of place p sits exactly n_places frames after its previous one.
    Casting draws nothing, so the scans are rendered after all poses, a
    chunk of visits at a time."""
    rng = np.random.default_rng(spec.seed)
    places = build_places(spec, rng)
    place_ids = list(range(spec.n_places)) * spec.visits_per_place
    poses = [visit_pose(spec, places[pid], rng) for pid in place_ids]
    cfg = spec.projection_config()
    dirs = beam_directions(cfg)
    table = _table([place.obstacles for place in places])
    n = dirs.shape[0]
    per_chunk = max(1, _CHUNK_ELEMS // (3 * n))
    scans = []
    for v0 in range(0, len(poses), per_chunk):
        chunk = poses[v0:v0 + per_chunk]
        origins = np.array([pose.translation for pose in chunk])
        world_dirs = np.empty((3, len(chunk) * n))
        for k, pose in enumerate(chunk):
            world_dirs[:, k * n:(k + 1) * n] = (dirs @ pose.rotation.T).T
        t = _cast(origins, world_dirs, table, np.array(place_ids[v0:v0 + per_chunk]))
        scans.extend(_points(dirs, t, cfg.r_max))
    return WorldData(scans=scans, poses=poses, place_ids=place_ids)


def save_world(out_dir, world: WorldData) -> None:
    """scan_%04d.bin raw clouds and poses.txt under out_dir.  A
    directory that already holds *.bin files is refused before anything is
    written: `rangeloop project` would read them as scans of this world."""
    io.refuse_used_dir(out_dir, "*.bin")
    os.makedirs(out_dir, exist_ok=True)
    for i, scan in enumerate(world.scans):
        io.save_scan(os.path.join(out_dir, f"scan_{i:04d}.bin"), scan)
    io.save_poses(os.path.join(out_dir, "poses.txt"), world.poses)
