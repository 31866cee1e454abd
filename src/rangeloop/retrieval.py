"""Descriptor database, nearest-neighbor search, and evaluation protocols.

Retrieval is exact k-NN without an index structure.  One kernel,
`_nearest`, serves search and both protocols: it ranks every row by one
matrix-vector product, keeps the rows within a proven rounding bound of the
k-th value, and recomputes those with the direct distance formula, so the
ids, distances and tie order it returns are exactly those of a full sort of
the direct distances by (distance, id).  Two protocols are provided: loop
closure (query against strictly older scans of the same trajectory, scored
by overlap ground truth) and place recognition (query session against a
database session, scored by pose distance).
"""

from __future__ import annotations

import csv
import io as _stdio
import math
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import io
from .errors import ConfigError, ContractError


_I64 = np.iinfo(np.int64)
_EPS = float(np.finfo(np.float64).eps)
_SUBNORMAL = float(np.finfo(np.float64).smallest_subnormal)


class DescriptorDb:
    """Ordered unit descriptors with unique integer scan ids.

    The matrix is an owned, read-only float64 copy; its squared row norms
    and an int64 id array are computed once here for `_nearest`.
    """

    def __init__(self, ids: Sequence[int], descriptors: np.ndarray):
        descriptors = np.array(descriptors, dtype=np.float64)
        ids = [int(i) for i in ids]
        if descriptors.ndim != 2:
            raise ContractError(f"descriptor matrix must be 2-d, got {descriptors.shape}")
        if len(ids) != descriptors.shape[0]:
            raise ContractError(
                f"{len(ids)} ids for {descriptors.shape[0]} descriptors"
            )
        if len(set(ids)) != len(ids):
            raise ContractError("descriptor ids must be unique")
        if not np.isfinite(descriptors).all():
            raise ContractError("descriptor matrix has a non-finite entry")
        if ids and not _I64.min <= min(ids) <= max(ids) <= _I64.max:
            raise ContractError("descriptor ids must fit in 64-bit signed integers")
        descriptors.flags.writeable = False
        self.ids = ids
        self.descriptors = descriptors
        self._sqnorms = np.einsum("ij,ij->i", descriptors, descriptors)
        self._id_array = np.asarray(ids, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def dim(self) -> int:
        return self.descriptors.shape[1]

    def save(self, path) -> None:
        io.save_descriptor_db(path, self.ids, self.descriptors)

    @classmethod
    def load(cls, path) -> "DescriptorDb":
        ids, descriptors = io.load_descriptor_db(path)
        return cls(ids, descriptors)


def _nearest(mat: np.ndarray, sqnorms: np.ndarray, ids: np.ndarray,
             q: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """(ids, distances) of the k rows of mat nearest to q, ascending by the
    direct distance sqrt(sum((x - q)**2)), equal distances by lower id:
    exactly the first k of a full sort.  mat (n >= 1 finite rows), its
    squared row norms and ids are parallel; q is finite.

    Filter: every row is ranked by f = |x|^2 - 2 x.q, one GEMV, which is
    |x - q|^2 - |q|^2 up to rounding.  Let u = eps/2, M = max|x| + |q| and
    gamma_m = m u / (1 - m u).  Any summation order (BLAS may reorder or
    fuse) gives |fl(x.q) - x.q| <= gamma_D |x||q| and |fl(|x|^2) - |x|^2|
    <= gamma_D |x|^2, and the subtraction adds u |f|, so the GEMV form is
    off by at most e_f = gamma_{D+2} M^2.  The direct form sums D
    non-negative terms, each a rounded square of a rounded difference, so
    its squared distance S^ is off from the exact S by at most e_d =
    gamma_{D+2} S <= gamma_{D+2} M^2.  Let f_k be the k-th smallest f.
    Those k rows have S^ <= B = f_k + |q|^2 + e_f + e_d, so the k-th
    smallest direct distance is at most fl(sqrt(B)).  fl(sqrt(.)) is
    monotone and within u of sqrt, so a row can rank in the top k, ties at
    the boundary included, only if S^ <= B (1 + u)^2 / (1 - u)^2, hence only
    if f <= f_k + 2 e_f + 2 e_d + 5 u B.  The bound is applied on both
    sides: the kept row's f may be low by e_f and the k-th row's high by
    e_f, and likewise e_d for the direct values.  tau =
    4 (D + 4) eps M^2 is twice that sum, which covers the rounding of M,
    tau and f_k + tau themselves; the smallest-subnormal term covers
    underflow of the products.  A NaN from overflow keeps its row
    (the test is not f > bound), so the filter never drops a candidate.

    Refine: the kept rows are recomputed with the direct formula, so each
    distance is bit-identical to a full computation, and ordered by
    np.lexsort((ids, d)).
    """
    n, dim = mat.shape
    k = min(k, n)
    f = sqnorms - 2.0 * (mat @ q)
    f_k = np.partition(f, k - 1)[k - 1]
    scale = math.sqrt(sqnorms.max()) + math.sqrt(q @ q)
    tau = 4 * (dim + 4) * (_EPS * scale * scale + _SUBNORMAL)
    sel = np.flatnonzero(~(f > f_k + tau))
    d = np.sqrt(np.sum((mat[sel] - q) ** 2, axis=1))
    order = np.lexsort((ids[sel], d))[:k]
    return ids[sel[order]], d[order]


def db_search(db: DescriptorDb, query: np.ndarray, k: int) -> List[Tuple[int, float]]:
    """Exact k nearest descriptors by Euclidean distance, ascending; equal
    distances rank by lower id."""
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    if len(db) == 0:
        raise ContractError("search in an empty database")
    query = np.asarray(query, dtype=np.float64).reshape(-1)
    if query.shape[0] != db.dim:
        raise ContractError(f"query dim {query.shape[0]} != db dim {db.dim}")
    if not np.isfinite(query).all():
        raise ContractError("query descriptor has a non-finite entry")
    ids, dists = _nearest(db.descriptors, db._sqnorms, db._id_array, query, k)
    return list(zip(ids.tolist(), dists.tolist()))


# --------------------------------------------------------------------------
# metrics


def pr_metrics(scores: Sequence[Tuple[float, bool]]) -> Tuple[float, float]:
    """(AUC, F1max) from (similarity, is_true) pairs.

    Every distinct similarity value is used as an acceptance threshold
    (accept iff similarity >= threshold).  The precision-recall points walk
    from the strictest threshold to the loosest; the curve is anchored at
    recall 0 with the first precision and integrated by trapezoid.  One
    descending sort gives every threshold's counts: the accepted pairs are a
    prefix, read at the last index of each run of equal similarities.
    """
    if not scores:
        raise ContractError("metrics require at least one scored pair")
    labels = [bool(t) for _, t in scores]
    n_pos = sum(labels)
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ContractError(
            f"metrics require both label kinds, got {n_pos} true / {n_neg} false"
        )
    sims = np.asarray([float(s) for s, _ in scores])
    if np.isnan(sims).any():
        raise ContractError("metrics require similarities that are not NaN")
    order = np.argsort(-sims, kind="stable")
    desc = sims[order]
    last = np.flatnonzero(np.append(desc[1:] != desc[:-1], True))
    true_counts = np.cumsum(np.asarray(labels)[order])[last]
    f1max = 0.0
    points = []  # (recall, precision), strictest threshold first
    for i, tp in zip(last.tolist(), true_counts.tolist()):
        fp = i + 1 - tp
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / n_pos
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall else 0.0)
        f1max = max(f1max, f1)
        points.append((recall, precision))
    points.insert(0, (0.0, points[0][1]))
    auc = 0.0
    for (r0, p0), (r1, p1) in zip(points, points[1:]):
        auc += (r1 - r0) * (p1 + p0) / 2.0
    return float(auc), float(f1max)


def recall_at(rankings: Sequence[Sequence[int]], truths: Sequence[set],
              n: int) -> Tuple[float, int]:
    """Fraction of queries whose top n entries contain a true positive.

    rankings[i] is query i's ranked candidate ids, best first (at least its
    top n); truths[i] its true-positive ids.  Queries with no true positive
    are excluded; the count of exclusions is returned alongside the
    fraction.
    """
    if len(rankings) != len(truths):
        raise ContractError(f"{len(rankings)} rankings for {len(truths)} truth sets")
    if n < 1:
        raise ContractError(f"cutoff must be >= 1, got {n}")
    hits = 0
    considered = 0
    excluded = 0
    for ranked, truth in zip(rankings, truths):
        if not truth:
            excluded += 1
            continue
        considered += 1
        if any(c in truth for c in list(ranked)[:n]):
            hits += 1
    fraction = hits / considered if considered else float("nan")
    return fraction, excluded


# --------------------------------------------------------------------------
# protocols


@dataclass(frozen=True)
class EvalProtocol:
    kind: str = "loop_closure"  # or "place_recognition"
    window: int = 100  # loop closure: candidates must be this many frames older
    distance_threshold: float = 10.0  # place recognition: positive pose radius (m)
    overlap_threshold: float = 0.3  # loop closure: ground-truth positive overlap
    query_step: int = 1
    db_step: int = 1

    def __post_init__(self):
        if self.kind not in ("loop_closure", "place_recognition"):
            raise ConfigError(f"unknown protocol kind {self.kind!r}")
        if self.query_step < 1 or self.db_step < 1:
            raise ConfigError("steps must be >= 1")
        if self.window < 0:
            raise ConfigError(f"exclusion window must be >= 0, got {self.window}")
        if not 0 <= self.distance_threshold < math.inf:  # NaN fails too
            raise ConfigError(
                f"distance threshold must be finite and >= 0, got {self.distance_threshold}"
            )
        if not 0.0 < self.overlap_threshold < 1.0:
            raise ConfigError(
                f"overlap threshold must lie in (0, 1), got {self.overlap_threshold}"
            )


def overlap_lookup(labels) -> Dict[Tuple[int, int], float]:
    """Symmetric (a, b) -> overlap map from labeled pairs."""
    table: Dict[Tuple[int, int], float] = {}
    for lab in labels:
        table[(lab.query, lab.cand)] = lab.overlap
        table.setdefault((lab.cand, lab.query), lab.overlap)
    return table


@dataclass(frozen=True)
class LoopClosureReport:
    n_queries: int
    n_scored: int  # queries that had at least one candidate
    n_positive_queries: int  # scored queries with a true loop available
    auc: float
    f1max: float
    recall1: float
    recall1pct: float
    excluded: int  # scored queries with no true loop (excluded from recalls)

    def rows(self):
        return [
            ("n_queries", self.n_queries),
            ("n_scored", self.n_scored),
            ("n_positive_queries", self.n_positive_queries),
            ("auc", _fmt(self.auc)),
            ("f1max", _fmt(self.f1max)),
            ("recall1", _fmt(self.recall1)),
            ("recall1pct", _fmt(self.recall1pct)),
            ("excluded", self.excluded),
        ]


def _fmt(x: float) -> str:
    return "nan" if isinstance(x, float) and math.isnan(x) else repr(float(x))


def eval_loop_closure(db: DescriptorDb, overlaps,
                      protocol: EvalProtocol) -> LoopClosureReport:
    """Single-trajectory protocol: each query scan searches only scans at
    least `window` frames older.  The rank-1 neighbor's similarity (negative
    distance) and its truth (overlap above threshold) feed the PR metrics;
    recall@1 and recall@1% count queries whose true loops are found.

    The matrix is put in id order once, so each query's candidates are a
    prefix of it; only the top ceil(0.01 * candidates) are ranked, which is
    all that recall@1 and recall@1% read."""
    loops: Dict[int, List[int]] = {}
    for (a, b), overlap in overlap_lookup(overlaps).items():
        if overlap > protocol.overlap_threshold:
            loops.setdefault(a, []).append(b)
    known = set(db.ids)
    perm = np.argsort(db._id_array)
    ids = db._id_array[perm]
    mat = db.descriptors[perm]
    sqnorms = db._sqnorms[perm]
    queries = range(0, len(ids), protocol.query_step)
    scores = []
    rankings: List[List[int]] = []
    truths: List[set] = []
    n_scored = 0
    n_positive = 0
    for qi in queries:
        q = int(ids[qi])
        limit = q - protocol.window  # candidates are ids < limit
        m = int(np.searchsorted(ids, max(limit, ids[0])))
        if m == 0:
            continue
        n_scored += 1
        top, top_dists = _nearest(mat[:m], sqnorms[:m], ids[:m], mat[qi],
                                  math.ceil(0.01 * m))
        ranked = top.tolist()
        truth = {c for c in loops.get(q, ()) if c < limit and c in known}
        scores.append((-float(top_dists[0]), ranked[0] in truth))
        if truth:
            n_positive += 1
        rankings.append(ranked)
        truths.append(truth)
    auc = f1max = recall1 = recall1pct = float("nan")
    excl = n_scored - n_positive
    if n_positive > 0:
        recall1, excl = recall_at(rankings, truths, 1)
        recall1pct, _ = recall_at(rankings, truths, max(map(len, rankings)))
    labels = [t for _, t in scores]
    if labels and all(labels):
        # every scored query retrieved a true loop at rank 1: the PR curve
        # degenerates to precision 1 at every threshold
        auc = f1max = 1.0
    elif labels and any(labels):
        auc, f1max = pr_metrics(scores)
    return LoopClosureReport(
        n_queries=len(queries), n_scored=n_scored,
        n_positive_queries=n_positive, auc=auc, f1max=f1max,
        recall1=recall1, recall1pct=recall1pct, excluded=excl,
    )


@dataclass(frozen=True)
class PlaceRecognitionReport:
    n_queries: int
    n_evaluated: int
    excluded: int
    ar1: float
    ar5: float
    ar20: float

    def rows(self):
        return [
            ("n_queries", self.n_queries),
            ("n_evaluated", self.n_evaluated),
            ("excluded", self.excluded),
            ("ar1", _fmt(self.ar1)),
            ("ar5", _fmt(self.ar5)),
            ("ar20", _fmt(self.ar20)),
        ]


def eval_place_recognition(db: DescriptorDb, query_db: DescriptorDb,
                           db_positions: np.ndarray, query_positions: np.ndarray,
                           protocol: EvalProtocol) -> PlaceRecognitionReport:
    """Cross-session protocol: database scans sampled at db_step, queries at
    query_step; a database scan is a true positive for a query when their
    sensor positions are within distance_threshold."""
    db_positions = np.asarray(db_positions, dtype=np.float64)
    query_positions = np.asarray(query_positions, dtype=np.float64)
    if db_positions.shape[0] != len(db):
        raise ContractError(
            f"{db_positions.shape[0]} database positions for {len(db)} descriptors"
        )
    if query_positions.shape[0] != len(query_db):
        raise ContractError(
            f"{query_positions.shape[0]} query positions for {len(query_db)} descriptors"
        )
    ids = db._id_array[:: protocol.db_step]
    mat = db.descriptors[:: protocol.db_step]
    sqnorms = db._sqnorms[:: protocol.db_step]
    sub_pos = db_positions[:: protocol.db_step]
    q_rows = range(0, len(query_db), protocol.query_step)
    rankings: List[List[int]] = []
    truths: List[set] = []
    for qi in q_rows:
        pose_d = np.sqrt(np.sum((sub_pos - query_positions[qi]) ** 2, axis=1))
        truth = set(ids[pose_d < protocol.distance_threshold].tolist())
        ranked: List[int] = []
        if truth:  # recall_at reads no ranking without a true positive
            ranked = _nearest(mat, sqnorms, ids, query_db.descriptors[qi],
                              20)[0].tolist()
        rankings.append(ranked)
        truths.append(truth)
    ar1, excluded = recall_at(rankings, truths, 1)
    ar5, _ = recall_at(rankings, truths, 5)
    ar20, _ = recall_at(rankings, truths, 20)
    return PlaceRecognitionReport(
        n_queries=len(q_rows), n_evaluated=len(q_rows) - excluded,
        excluded=excluded, ar1=ar1, ar5=ar5, ar20=ar20,
    )


# --------------------------------------------------------------------------
# benchmarking


@dataclass(frozen=True)
class BenchRow:
    name: str
    mean_s: float
    median_s: float
    p95_s: float
    reps: int
    low_confidence: bool


def _timing_row(name: str, samples: List[float]) -> BenchRow:
    arr = np.asarray(samples)
    return BenchRow(
        name=name,
        mean_s=float(arr.mean()),
        median_s=float(np.median(arr)),
        p95_s=float(np.percentile(arr, 95)),
        reps=len(samples),
        low_confidence=len(samples) < 3,
    )


def _time(fn, reps: int) -> List[float]:
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out


def bench(params, model_cfg, reps: int = 10, db_size: int = 1000,
          scan_len: int = 900) -> List[BenchRow]:
    """Wall-time report: descriptor extraction, database search, and the
    fused scan the model runs next to the sequential and parallel scan
    oracles, at sequence length scan_len and the model's widened width and
    state size."""
    from . import pipeline as pl
    from . import ssm
    from . import tensor as tt

    if reps < 1:
        raise ContractError(f"repetitions must be >= 1, got {reps}")
    rng = np.random.default_rng(42)
    x = tt.Tensor(rng.uniform(0.0, 1.0, size=(1, 1, model_cfg.h, model_cfg.w)))
    pl.model_forward(x, params, model_cfg)  # warm-up
    rows = [_timing_row("descriptor_extraction",
                        _time(lambda: pl.model_forward(x, params, model_cfg), reps))]

    db = DescriptorDb(range(db_size),
                      rng.normal(size=(db_size, model_cfg.out_dim)))
    q = rng.normal(size=model_cfg.out_dim)
    db_search(db, q, 20)  # warm-up
    rows.append(_timing_row(f"db_search_{db_size}",
                            _time(lambda: db_search(db, q, 20), reps)))

    e, n = params["olm.L0.forward.A_log"].shape
    delta = rng.uniform(1e-3, 1e-1, size=(1, scan_len, e))
    a = -rng.uniform(0.5, 2.0, size=(e, n))
    b = rng.normal(size=(1, scan_len, n))
    c = rng.normal(size=(1, scan_len, n))
    d = rng.normal(size=e)
    seq_x = rng.normal(size=(1, scan_len, e))
    dssm = ssm.discretize(delta, a, b, mode="zoh")
    scans = (("scan_sequential", lambda: ssm.scan_sequential(dssm, c, d, seq_x)),
             ("scan_parallel", lambda: ssm.scan_parallel(dssm, c, d, seq_x)),
             ("selective_scan", lambda: ssm.selective_scan(seq_x, delta, a, b, c, d)))
    for name, run in scans:
        run()  # warm-up
        rows.append(_timing_row(f"{name}_m{scan_len}", _time(run, reps)))
    return rows


BENCH_HEADER = ["name", "mean_s", "median_s", "p95_s", "reps", "low_confidence"]


def bench_to_csv(rows: List[BenchRow]) -> str:
    buf = _stdio.StringIO()
    w = csv.writer(buf)
    w.writerow(BENCH_HEADER)
    for r in rows:
        w.writerow([r.name, repr(r.mean_s), repr(r.median_s), repr(r.p95_s),
                    r.reps, int(r.low_confidence)])
    return buf.getvalue()
