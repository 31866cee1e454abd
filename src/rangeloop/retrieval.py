"""Descriptor database, nearest-neighbor search, and evaluation protocols.

Retrieval is deliberately plain: exact Euclidean distances, full sort, no
index structure.  Two protocols are provided: loop closure (query against
strictly older scans of the same trajectory, scored by overlap ground truth)
and place recognition (query session against a database session, scored by
pose distance).
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


class DescriptorDb:
    """Ordered unit descriptors with unique integer scan ids."""

    def __init__(self, ids: Sequence[int], descriptors: np.ndarray):
        descriptors = np.asarray(descriptors, dtype=np.float64)
        ids = [int(i) for i in ids]
        if descriptors.ndim != 2:
            raise ContractError(f"descriptor matrix must be 2-d, got {descriptors.shape}")
        if len(ids) != descriptors.shape[0]:
            raise ContractError(
                f"{len(ids)} ids for {descriptors.shape[0]} descriptors"
            )
        if len(set(ids)) != len(ids):
            raise ContractError("descriptor ids must be unique")
        self.ids = ids
        self.descriptors = descriptors

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
    dists = np.sqrt(np.sum((db.descriptors - query) ** 2, axis=1))
    ids = np.asarray(db.ids)
    order = np.lexsort((ids, dists))[: min(k, len(db))]
    return [(int(ids[i]), float(dists[i])) for i in order]


# --------------------------------------------------------------------------
# metrics


def pr_metrics(scores: Sequence[Tuple[float, bool]]) -> Tuple[float, float]:
    """(AUC, F1max) from (similarity, is_true) pairs.

    Every distinct similarity value is used as an acceptance threshold
    (accept iff similarity >= threshold).  The precision-recall points walk
    from the strictest threshold to the loosest; the curve is anchored at
    recall 0 with the first precision and integrated by trapezoid.
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
    truth = np.asarray(labels)
    f1max = 0.0
    points = []  # (recall, precision), strictest threshold first
    for t in sorted(set(sims.tolist()), reverse=True):
        accept = sims >= t
        tp = int(np.sum(accept & truth))
        fp = int(np.sum(accept & ~truth))
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


def recall_at(rankings: Sequence[Sequence[int]], truths: Sequence[set], n: int,
              percent: bool = False) -> Tuple[float, int]:
    """Fraction of queries whose top entries contain a true positive.

    rankings[i] is query i's ranked candidate ids (best first, assumed to
    cover its whole candidate set); truths[i] its true-positive ids.  In
    percent mode the cutoff is ceil(0.01 * |candidates_i|) per query instead
    of n.  Queries with no true positive are excluded; the count of
    exclusions is returned alongside the fraction.
    """
    if len(rankings) != len(truths):
        raise ContractError(f"{len(rankings)} rankings for {len(truths)} truth sets")
    if not percent and n < 1:
        raise ContractError(f"cutoff must be >= 1, got {n}")
    hits = 0
    considered = 0
    excluded = 0
    for ranked, truth in zip(rankings, truths):
        if not truth:
            excluded += 1
            continue
        considered += 1
        cut = math.ceil(0.01 * len(ranked)) if percent else n
        if any(c in truth for c in list(ranked)[:cut]):
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
        if self.distance_threshold < 0:
            raise ConfigError(
                f"distance threshold must be >= 0, got {self.distance_threshold}"
            )
        if not 0.0 < self.overlap_threshold < 1.0:
            raise ConfigError(
                f"overlap threshold must lie in (0, 1), got {self.overlap_threshold}"
            )


_PROTOCOL_KEYS = {
    "kind": str, "window": int, "distance_threshold": float,
    "overlap_threshold": float, "query_step": int, "db_step": int,
}


def protocol_from_kv(entries: Dict[str, str]) -> EvalProtocol:
    fields = {}
    for key, val in entries.items():
        if key not in _PROTOCOL_KEYS:
            raise ContractError(f"unknown protocol key {key!r}")
        try:
            fields[key] = _PROTOCOL_KEYS[key](val)
        except ValueError:
            raise ContractError(f"bad value for {key}: {val!r}")
    return EvalProtocol(**fields)


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
    recall@1 and recall@1% count queries whose true loops are found."""
    table = overlap_lookup(overlaps)
    id_to_row = {sid: i for i, sid in enumerate(db.ids)}
    order = sorted(db.ids)
    scores = []
    rankings: List[List[int]] = []
    truths: List[set] = []
    n_scored = 0
    n_positive = 0
    for q in order[:: protocol.query_step]:
        cand = [c for c in order if c < q - protocol.window]
        if not cand:
            continue
        n_scored += 1
        qv = db.descriptors[id_to_row[q]]
        mat = db.descriptors[[id_to_row[c] for c in cand]]
        dists = np.sqrt(np.sum((mat - qv) ** 2, axis=1))
        ranked_idx = np.lexsort((np.asarray(cand), dists))
        ranked = [cand[i] for i in ranked_idx]
        top = ranked[0]
        top_dist = float(dists[ranked_idx[0]])
        is_true = table.get((q, top), 0.0) > protocol.overlap_threshold
        scores.append((-top_dist, bool(is_true)))
        truth = {c for c in cand
                 if table.get((q, c), 0.0) > protocol.overlap_threshold}
        if truth:
            n_positive += 1
        rankings.append(ranked)
        truths.append(truth)
    auc = f1max = recall1 = recall1pct = float("nan")
    excl = n_scored - n_positive
    if n_positive > 0:
        recall1, excl = recall_at(rankings, truths, 1)
        recall1pct, _ = recall_at(rankings, truths, 1, percent=True)
    labels = [t for _, t in scores]
    if labels and all(labels):
        # every scored query retrieved a true loop at rank 1: the PR curve
        # degenerates to precision 1 at every threshold
        auc = f1max = 1.0
    elif labels and any(labels):
        auc, f1max = pr_metrics(scores)
    return LoopClosureReport(
        n_queries=len(order[:: protocol.query_step]), n_scored=n_scored,
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
    db_rows = list(range(0, len(db), protocol.db_step))
    q_rows = list(range(0, len(query_db), protocol.query_step))
    sub_ids = [db.ids[i] for i in db_rows]
    sub_mat = db.descriptors[db_rows]
    sub_pos = db_positions[db_rows]
    rankings: List[List[int]] = []
    truths: List[set] = []
    for qi in q_rows:
        qv = query_db.descriptors[qi]
        dists = np.sqrt(np.sum((sub_mat - qv) ** 2, axis=1))
        ranked_idx = np.lexsort((np.asarray(sub_ids), dists))
        rankings.append([sub_ids[i] for i in ranked_idx])
        pose_d = np.sqrt(np.sum((sub_pos - query_positions[qi]) ** 2, axis=1))
        truths.append({sid for sid, d in zip(sub_ids, pose_d)
                       if d < protocol.distance_threshold})
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
    oracles, at sequence length scan_len."""
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

    e, n = 4, 4
    delta = tt.Tensor(rng.uniform(1e-3, 1e-1, size=(1, scan_len, e)))
    a = tt.Tensor(-rng.uniform(0.5, 2.0, size=(e, n)))
    b = tt.Tensor(rng.normal(size=(1, scan_len, n)))
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


def bench_from_csv(text: str) -> List[BenchRow]:
    reader = csv.reader(_stdio.StringIO(text))
    header = next(reader, None)
    if header != BENCH_HEADER:
        raise ContractError(f"bad benchmark header: {header}")
    out = []
    for row in reader:
        if len(row) != len(BENCH_HEADER):
            raise ContractError(f"bad benchmark row: {row}")
        out.append(BenchRow(name=row[0], mean_s=float(row[1]),
                            median_s=float(row[2]), p95_s=float(row[3]),
                            reps=int(row[4]), low_confidence=bool(int(row[5]))))
    return out
