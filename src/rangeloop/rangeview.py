"""Spherical projection of LiDAR clouds to range images, overlap ground
truth between scan pairs, and training-tuple mining.

A point cloud is an (N, 3) or (N, 4) float array in the sensor frame
(columns x, y, z[, intensity]).  Pixels of a range image hold the nearest
return in meters, or the sentinel -1.0 where no point landed.

Overlap labelling is all-pairs, but on a trajectory almost every pair is two
sensors too far apart to share a return.  `compute_overlap` settles those
pairs from the sensor gap and the candidate cloud's radius alone, returning
the exact 0.0 the reprojection would, and reprojects only the rest.  The
radius costs three column passes over a cloud on every call, and over an
immutable one (`immutable`), as the package returns, only the first time.
`label_pairs` runs the same test for all pairs as array expressions
(`pairs_in_reach`) and labels the overlapping ones of the pairs left uncut.
"""

from __future__ import annotations

import bisect
import math
import weakref
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigError, ContractError

SENTINEL = -1.0
# float32's normal range, as Python floats: a comparison with an f32 scalar
# would cast the other side to f32 and warn on overflow
_F32_MIN, _F32_MAX = float(np.finfo(np.float32).tiny), float(np.finfo(np.float32).max)
EPS_REL = 0.05  # overlap: |r_b - r_a| <= EPS_REL * r_a counts as the same return
_RADII = {}  # id(cloud) -> (weak reference to the cloud, its radius): see `_radius`


@dataclass(frozen=True)
class ProjectionConfig:
    """Sensor image geometry: width/height in pixels, vertical field of view
    split into an upward and a downward half (radians, each at most pi/2),
    and the range cap."""

    w: int
    h: int
    f_up: float
    f_down: float
    r_max: float

    def __post_init__(self):
        if self.w < 2 or self.h < 2:
            raise ConfigError(f"image extents must be >= 2, got {self.w}x{self.h}")
        # chained comparisons: NaN fails every one of them.  A half above
        # pi/2 would cast rows past the zenith or nadir, which the arcsin
        # pitch of `project_points` folds back onto other rows.
        half = 0.5 * math.pi
        if (not (0 <= self.f_up <= half and 0 <= self.f_down <= half)
                or self.f_up + self.f_down <= 0):
            raise ConfigError(
                f"vertical field of view must be positive with each half in "
                f"[0, pi/2], got up={self.f_up} down={self.f_down}"
            )
        if not _F32_MIN <= self.r_max <= _F32_MAX:  # a range image stores r_max as f32
            raise ConfigError(f"r_max must be a normal float32, in [{_F32_MIN!r}, "
                              f"{_F32_MAX!r}], got {self.r_max}")

    @property
    def f(self) -> float:
        return self.f_up + self.f_down


@dataclass
class RangeImage:
    ranges: np.ndarray  # (h, w), meters, SENTINEL where no return
    r_max: float
    config: Optional[ProjectionConfig] = None

    @property
    def h(self) -> int:
        return self.ranges.shape[0]

    @property
    def w(self) -> int:
        return self.ranges.shape[1]

    @property
    def valid(self) -> np.ndarray:
        return self.ranges > 0.0

    def network_input(self) -> np.ndarray:
        """(1, h, w) array for the model: sentinel pixels become 0, and
        ranges are divided by r_max."""
        x = np.where(self.ranges > 0.0, self.ranges, 0.0)
        return (x / self.r_max)[None, :, :]


def immutable(a) -> np.ndarray:
    """A float64 copy of ``a`` over a `bytes` buffer.  Python cannot change
    a `bytes` object, and numpy refuses to make this array, or any view of
    it, writeable; edit a ``.copy()``."""
    a = np.asarray(a, dtype=np.float64)
    return np.frombuffer(a.tobytes(), dtype=np.float64).reshape(a.shape)


@dataclass(frozen=True, eq=False)
class Pose:
    """Rigid transform from sensor frame to world frame.  It holds immutable
    copies (`immutable`) of the arrays it is given, and its translation once
    more as Python floats, ``xyz``, with their norm ``norm``.  Poses compare
    and hash by identity: arrays have no truth value to compare by."""

    rotation: np.ndarray  # (3, 3)
    translation: np.ndarray  # (3,)
    xyz: tuple = field(init=False, repr=False)
    norm: float = field(init=False, repr=False)

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64)
        if r.shape != (3, 3) or t.shape != (3,):
            raise ContractError(
                f"pose needs a 3x3 rotation and 3-vector, got {r.shape} and {t.shape}"
            )
        if not (np.isfinite(r).all() and np.isfinite(t).all()):
            raise ContractError("pose has a non-finite entry")
        # an entry above 2 fails the product test, which it could overflow
        if np.abs(r).max() > 2.0 or np.max(np.abs(r.T @ r - np.eye(3))) > 1e-9:
            raise ContractError("pose rotation is not orthonormal")
        if abs(np.linalg.det(r) - 1.0) > 1e-9:
            raise ContractError("pose rotation is not proper (det != +1)")
        xyz = tuple(t.tolist())
        object.__setattr__(self, "rotation", immutable(r))
        object.__setattr__(self, "translation", immutable(t))
        object.__setattr__(self, "xyz", xyz)
        object.__setattr__(self, "norm", math.hypot(*xyz))

    def to_world(self, points: np.ndarray) -> np.ndarray:
        return points[:, :3] @ self.rotation.T + self.translation

    def to_local(self, world: np.ndarray) -> np.ndarray:
        return (world - self.translation) @ self.rotation


class OverlapLabel(NamedTuple):
    """Scan ``query``'s overlap with scan ``cand``; `overlap_table` reads a
    list of them."""

    query: int
    cand: int
    overlap: float


@dataclass(frozen=True)
class TrainingTuple:
    """One mined training unit: a query with sampled positives/negatives."""

    query: int
    positives: tuple
    negatives: tuple

    def __post_init__(self):
        if not self.positives or not self.negatives:
            raise ContractError(
                f"tuple for query {self.query} needs >=1 positive and >=1 negative"
            )
        if self.query in self.positives or self.query in self.negatives:
            raise ContractError(f"query {self.query} appears among its own candidates")


def project_points(points: np.ndarray, cfg: ProjectionConfig):
    """Vectorized image-plane projection.

    Returns (u, v, r, valid): pixel columns, pixel rows, ranges, and the mask
    of points that land inside the image within the range cap.  Column u wraps
    at the azimuth seam; row v is rejected outside [0, h).  Only hit points
    (0 < r <= r_max) feed u and v, so a NaN or inf coordinate never reaches
    the integer casts; u and v are meaningful where valid is set.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        z = np.zeros(0)
        return z.astype(int), z.astype(int), z, z.astype(bool)
    x, y, zc = pts[:, 0], pts[:, 1], pts[:, 2]
    r = x * x
    r += y * y
    r += zc * zc
    np.sqrt(r, out=r)
    hit = r > 0.0
    hit &= r <= cfg.r_max
    safe_r = r
    if not hit.all():
        # a miss is read as the forward ray (1, 0, 0); hits keep their values
        x, y, zc = np.where(hit, x, 1.0), np.where(hit, y, 0.0), np.where(hit, zc, 0.0)
        safe_r = np.where(hit, r, 1.0)

    # arctan2 lies in [-pi, pi], so the column lies in [0, w]: only -pi, the
    # seam seen from below, reaches w, and it wraps to column 0 as +pi does
    col = np.arctan2(y, x)
    col /= np.pi
    np.subtract(1.0, col, out=col)
    col *= 0.5
    col *= cfg.w
    u = np.floor(col, out=col).astype(np.int64)
    u[u == cfg.w] = 0

    sin = zc / safe_r  # past +-1 where z * z is subnormal and r rounds below |z|
    np.maximum(sin, -1.0, out=sin)
    np.minimum(sin, 1.0, out=sin)
    pitch = np.arcsin(sin, out=sin)
    pitch += cfg.f_up
    pitch /= cfg.f
    np.subtract(1.0, pitch, out=pitch)
    pitch *= cfg.h
    v = np.floor(pitch, out=pitch).astype(np.int64)
    valid = v >= 0
    valid &= v < cfg.h
    valid &= hit
    return u, v, r, valid


def build_range_image(points: np.ndarray, cfg: ProjectionConfig) -> RangeImage:
    """Project a cloud; pixel collisions keep the smallest range."""
    img = np.full((cfg.h, cfg.w), np.inf)
    u, v, r, valid = project_points(points, cfg)
    v *= cfg.w
    v += u  # the flat pixel index
    np.minimum.at(img.reshape(-1), v[valid], r[valid])
    img[img == np.inf] = SENTINEL
    return RangeImage(ranges=img, r_max=cfg.r_max, config=cfg)


def _cloud(points) -> np.ndarray:
    """``points`` as a float64 (N, >=3) array: x, y, z in the first columns."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] < 3:
        raise ContractError(f"a point cloud must be an (N, >=3) array, got shape {pts.shape}")
    return pts


def _radius(pts: np.ndarray) -> float:
    """max ||p[:3]|| over a non-empty cloud, from three column passes; NaN
    or inf when any coordinate is.  The radius of a cloud whose ``.base``
    chain ends in a `bytes` object, as `immutable` makes, cannot change: it
    is kept in `_RADII` until the cloud dies, and read back while the
    entry's weak reference names this cloud.  Any other cloud is measured
    every call."""
    key = id(pts)
    kept = _RADII.get(key)
    if kept is not None and kept[0]() is pts:
        return kept[1]
    sq = np.square(pts[:, 0])
    sq += np.square(pts[:, 1])
    sq += np.square(pts[:, 2])
    radius = math.sqrt(sq.max())
    owner = pts
    while isinstance(owner, np.ndarray):
        owner = owner.base
    if isinstance(owner, bytes):
        _RADII[key] = (weakref.ref(pts, lambda _: _RADII.pop(key, None)), radius)
    return radius


def _out_of_reach(gap, radius, r_max, norm_a, norm_b):
    """The range-gap test of `compute_overlap` on floats or arrays: True
    where every point of cloud b lies beyond a's range cap."""
    slack = 1e-8 * (1.0 + r_max + radius + norm_a + norm_b)
    return gap - radius > r_max + slack


def _query_config(ri: RangeImage) -> ProjectionConfig:
    if ri.config is None:
        raise ContractError("overlap needs the query image's projection config")
    return ri.config


def compute_overlap(
    ri_a: RangeImage,
    pose_a: Pose,
    points_b: np.ndarray,
    pose_b: Pose,
) -> float:
    """Fraction of scan a's returns that scan b re-observes.

    Cloud b is moved into a's frame through the two poses and projected with
    a's sensor geometry; a pixel of a counts as overlapping when b's image
    holds a return there within the relative range tolerance ``EPS_REL``.  Anchored on the
    query: overlap(a, b) and overlap(b, a) may differ.  Cloud b must be an
    (N, >=3) array; an empty one overlaps nothing.

    Range-gap cull.  Let gap = ||t_a - t_b|| and R_b = max ||p[:3]|| over
    cloud b.  Rotations preserve norms, so every point of b lies at least
    gap - R_b from a's sensor, and `project_points` keeps only r <= r_max.
    When gap - R_b > r_max + slack the result is therefore 0.0, and it is
    returned before anything is transformed, projected or counted.  R_b is
    the cloud's own radius, not r_max: a scan file may hold points beyond
    the range cap.  A culled pair costs a few float operations, and three
    column passes over b unless `_radius` kept its radius.  The slack covers
    what separates the exact argument from the computed one.  With
    S = 1 + r_max + R_b + ||t_a|| + ||t_b|| meters and u = 2**-53:

    * Rotations are orthonormal only to `Pose`'s tolerance, |R^T R - I| <=
      1e-9 entrywise (plus a few u from evaluating the check).  Then
      ||R^T R - I||_2 <= 3e-9, so every singular value of R lies within
      delta = 1.6e-9 of 1, and the exact local range of a point of b is at
      least (1 - delta)(gap - (1 + delta) R_b) >= gap - R_b - delta * gap.
      Since delta > 1e-9, a slack of 1e-9 (1 + gap + R_b) would be too
      small.
    * Rounding.  `to_world` and `to_local` are two length-3 products (at
      most gamma_3 * sqrt(3) ~ 5.2u of the vector norm each) and two
      additions (u each), and the range in `project_points` adds about 2.5u,
      so a computed range is within 15u * S of the exact one.  Computing
      gap, R_b and the test itself adds at most 10u * S, in either form
      the code uses.  R_b squared is three rounded squares summed by two
      rounded additions of non-negative terms (within 3u relative, in any
      order), and its root halves that and rounds once: R_b is within
      2.5u * R_b.  The gap rounds three differences (u relative each), then
      takes either `math.dist`'s norm (under 1 ulp, 2u) or, in
      `pairs_in_reach`, squares, two additions and a root as for R_b
      (2.5u): within 3.5u * gap.  As gap + R_b <= S, the two are within
      3.5u * S together.  The subtraction gap - R_b and the addition
      r_max + slack round by at most u * S each, the comparison is exact,
      and ||t_a||, ||t_b|| (from `math.hypot` or a root of squares) enter
      only the slack, where their error is scaled by 1e-8.  That is at
      most 6u * S.

    slack = 1e-8 * S exceeds delta * gap + 25u * S ~ (1.6e-9 + 2.8e-15) * S
    six times over, so on a culled pair every point of b computes
    r > r_max and the full path would count nothing.  The 1 in S absorbs
    underflow.  A NaN or inf in cloud b makes R_b non-finite, the test is
    False, and the full path runs.  Every early exit returns 0.0, so their
    order does not change any result, and neither does a cull decision that
    a differently rounded test makes the other way.
    """
    cfg = _query_config(ri_a)
    pts = _cloud(points_b)
    if pts.size == 0:
        return 0.0
    if _out_of_reach(math.dist(pose_a.xyz, pose_b.xyz), _radius(pts), cfg.r_max,
                     pose_a.norm, pose_b.norm):
        return 0.0
    valid_a = ri_a.valid
    n_valid = np.count_nonzero(valid_a)
    if n_valid == 0:
        return 0.0
    # an inf coordinate meets inf * 0 in the products; the projection drops
    # that row, so the invalid-value warning would be noise
    with np.errstate(invalid="ignore"):
        local_a = pose_a.to_local(pose_b.to_world(pts))
    ranges_b = build_range_image(local_a, cfg).ranges
    gap = ranges_b - ri_a.ranges
    agree = np.abs(gap, out=gap) <= EPS_REL * ri_a.ranges
    agree &= valid_a
    agree &= ranges_b > 0.0
    return np.count_nonzero(agree) / n_valid


def pairs_in_reach(images, poses, scans):
    """The pairs (a, b), a < b, that the range-gap test of `compute_overlap`
    leaves uncut, in order: only these can overlap.  Of the images only
    each query's projection config is read; ``poses`` give the sensor
    positions and ``scans`` the cloud radii.

    Each scan's radius and translation norm are computed once, and the test
    runs for each query against all its candidates as one array expression,
    one row at a time so that memory stays linear in the scan count.  An
    empty cloud gets a NaN radius, so its pairs, like those of a cloud with
    a NaN or inf point, stay uncut.
    """
    n = len(scans)
    if not len(images) == len(poses) == n:
        raise ContractError(f"pairs need one length, got {len(images)} images, "
                            f"{len(poses)} poses and {n} scans")
    radii = np.array([_radius(c) if len(c) else math.nan for c in map(_cloud, scans)])
    t = np.array([p.translation for p in poses]).reshape(n, 3)
    pairs = []
    with np.errstate(over="ignore"):  # an inf gap or norm leaves its pair uncut
        norms = np.sqrt(np.square(t).sum(axis=1))
        for a in range(n - 1):
            r_max = _query_config(images[a]).r_max
            gap = np.sqrt(np.square(t[a + 1:] - t[a]).sum(axis=1))
            far = _out_of_reach(gap, radii[a + 1:], r_max, norms[a], norms[a + 1:])
            pairs += [(a, b) for b in (np.flatnonzero(~far) + a + 1).tolist()]
    return pairs


def label_pairs(images, poses, scans, ids):
    """Overlap labels of a scan sequence, in pair order, for the pairs a < b
    whose overlap is above 0.0: by the zero rule of `rangeloop.io` the rest
    need none.  The query is scan a (``images[a]``, ``poses[a]``), the
    candidate scan b (``scans[b]``, ``poses[b]``), and ``ids`` names them
    in the labels.  All four must have one length.

    Equal, label for label, to calling `compute_overlap` on each pair and
    keeping the overlaps above 0.0, at a fraction of its cost: only the
    `pairs_in_reach` reach `compute_overlap`, and every other pair is the
    exact 0.0 its reprojection would give.
    """
    n = len(ids)
    if len(scans) != n:
        raise ContractError(f"pairs need one length, got {len(scans)} scans and {n} ids")
    overlaps = ((a, b, compute_overlap(images[a], poses[a], scans[b], poses[b]))
                for a, b in pairs_in_reach(images, poses, scans))
    return [OverlapLabel(ids[a], ids[b], o) for a, b, o in overlaps if o > 0.0]


def overlap_table(labels):
    """Scan id -> {candidate id: overlap} from a label list, by the rule
    of the label format in `rangeloop.io`: the one reading of labels, which
    training and evaluation share.  A scan that no kept label names has no
    row."""
    table = {}
    for q, c, o in labels:
        if q != c:
            table.setdefault(q, {})[c] = o
            table.setdefault(c, {}).setdefault(q, o)
    return table


def build_tuples(labels, threshold: float, k_p: int, k_n: int, seed: int, ids=None):
    """Mine training tuples from overlap labels, read by `overlap_table`.

    A query's candidates are the scans the labels name and ``ids``, the
    scans a run may draw from; a pair no label names has overlap 0.0.  Those
    above the threshold are positives, the rest negatives; up to k_p / k_n
    of each are kept by a seeded draw.  Queries lacking either kind are skipped.
    """
    if not 0.0 < threshold < 1.0:
        raise ContractError(f"threshold must lie in (0, 1), got {threshold}")
    if k_p < 1 or k_n < 1:
        raise ContractError(f"k_p and k_n must be >= 1, got {k_p}, {k_n}")
    pools = overlap_table(labels)
    scans = sorted({*pools, *(() if ids is None else ids)})  # not int64: ids may be huge

    rng = np.random.default_rng(seed)
    tuples = []
    for q in sorted(pools):
        pos = sorted(c for c, o in pools[q].items() if o > threshold)
        # the negatives are the scans but q and its positives, at these ranks
        ranks = sorted(bisect.bisect_left(scans, c) for c in (q, *pos))
        skips = [r - t for t, r in enumerate(ranks)]  # negatives before each rank
        if not pos or len(ranks) == len(scans):
            continue
        pos_pick = [pos[i] for i in rng.permutation(len(pos))[:k_p]]
        neg_pick = [scans[i + bisect.bisect_right(skips, i)]
                    for i in rng.permutation(len(scans) - len(ranks))[:k_n].tolist()]
        tuples.append(
            TrainingTuple(query=q, positives=tuple(pos_pick), negatives=tuple(neg_pick))
        )
    return tuples
