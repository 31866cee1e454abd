"""Descriptor database, nearest-neighbor search, and evaluation protocols.

Retrieval is exact k-NN without an index structure.  One kernel,
`_nearest`, serves `db_search_all` (`rangeloop search`) and both protocols,
and `db_search` is one block of it.  Each query's candidates are a prefix
of the database.  The kernel ranks the queries `_QUERY_BLOCK` at a time,
a block's candidates with one float32 matrix product over a float32 image
of the database, scaled by a power of two so that no cast can overflow.  It
keeps the rows within a proven rounding bound of each query's k-th value
and recomputes those with the direct float64 distance formula, so the ids,
distances and tie order it returns are exactly those of a full sort of the
direct distances by (distance, id).  Two protocols are provided: loop
closure (query against strictly older scans of the same trajectory, scored
by overlap ground truth) and place recognition (query session against a
database session, scored by pose distance).
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass, fields
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import io, rangeview
from .errors import ConfigError, ContractError


_I64 = np.iinfo(np.int64)
_MAX_DIM = 1 << 20  # the search's rounding bound assumes (D + 3) 2**-24 < 0.07
_QUERY_BLOCK = 32  # queries per filter GEMM in `_nearest`


class DescriptorDb:
    """Ordered unit descriptors with unique integer scan ids.

    The matrix is an owned, read-only float64 array, with an int64 id array
    beside it.  The float32 image `_nearest` filters with is built on the
    first search, so a database that is only queried from never holds one.
    """

    def __init__(self, ids: Sequence[int], descriptors: np.ndarray):
        self._adopt(ids, np.array(descriptors, dtype=np.float64))

    def _adopt(self, ids: Sequence[int], descriptors: np.ndarray) -> "DescriptorDb":
        """Validate and take ownership of a float64 matrix no one else holds."""
        ids = [int(i) for i in ids]
        if descriptors.ndim != 2:
            raise ContractError(f"descriptor matrix must be 2-d, got {descriptors.shape}")
        if len(ids) != descriptors.shape[0]:
            raise ContractError(
                f"{len(ids)} ids for {descriptors.shape[0]} descriptors"
            )
        if not 1 <= descriptors.shape[1] < _MAX_DIM:
            raise ContractError(
                f"descriptor dimension {descriptors.shape[1]} must be in [1, {_MAX_DIM})"
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
        self._id_array = np.asarray(ids, dtype=np.int64)
        self._image = None
        return self

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def dim(self) -> int:
        return self.descriptors.shape[1]

    def save(self, path) -> None:
        io.save_descriptor_db(path, self.ids, self.descriptors)

    @classmethod
    def load(cls, path) -> "DescriptorDb":
        return cls._adopting(*io.load_descriptor_db(path))

    @classmethod
    def _adopting(cls, ids: Sequence[int], descriptors: np.ndarray) -> "DescriptorDb":
        """A database over a fresh float64 matrix, taken without a copy."""
        return cls.__new__(cls)._adopt(ids, descriptors)

    def _filter_image(self) -> Tuple[np.ndarray, int, np.ndarray, float]:
        """(image, ex, norms, largest norm): the matrix times 2**-ex in
        float32, where ex is `_exponent` of the matrix, the image's squared
        row norms in float32, and the square root of the largest.  Built on
        the first call, straight into the float32 array."""
        if self._image is None:
            ex = _exponent(self.descriptors)
            image = np.empty(self.descriptors.shape, dtype=np.float32)
            np.ldexp(self.descriptors, -ex, out=image)
            norms = np.einsum("ij,ij->i", image, image)
            self._image = image, ex, norms, math.sqrt(norms.max(initial=0.0))
        return self._image


def _exponent(a: np.ndarray) -> int:
    """The binary exponent e of a's largest magnitude m = f 2**e, 0.5 <= f < 1
    (0 when a is empty or all zero): every entry of a * 2**-e lies in (-1, 1).

    The one max and min it reads also check that every entry is finite: NaN
    propagates through both and an infinity shows in one of them.  A
    database is checked when it is built, so only a query can fail here."""
    hi, lo = a.max(initial=0.0), a.min(initial=0.0)
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise ContractError("query descriptor has a non-finite entry")
    return math.frexp(max(hi, -lo))[1]


def _nearest(db: DescriptorDb, queries: np.ndarray, which: Sequence[int], counts,
             ks) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield, for each query q = queries[which[i]], (ids, distances) of the
    ks[i] rows nearest to it among the first counts[i] >= 1 rows of the
    database, ascending by the direct distance sqrt(sum((x - q)**2)), equal
    distances by lower id: exactly the first ks[i] of a full sort.  A query
    with a NaN or infinite entry raises ContractError.  The queries are
    gathered and ranked _QUERY_BLOCK at a time, each block's temporaries
    freed before the next is ranked."""
    for start in range(0, len(which), _QUERY_BLOCK):
        block = slice(start, start + _QUERY_BLOCK)
        yield from _nearest_block(db, queries[which[block]], counts[block], ks[block])


def _nearest_block(db: DescriptorDb, queries: np.ndarray, counts,
                   ks) -> List[Tuple[np.ndarray, np.ndarray]]:
    """`_nearest` for the (b, D) block of queries, row i's candidates being
    the first counts[i] rows of the database.

    Filter: let ex and eq be `_exponent` of the database and of the block,
    and e = max(ex, eq, -536).  The image holds a = fl32(2^-ex x) and the
    block is cast as b = fl32(2^-eq q), both with entries in [-1, 1], so no
    cast can overflow; b is then scaled by -2^(ex + eq - 2e + 1), and one
    float32 GEMM ranks every row by
        f = 2^(2 ex - 2e) |a|^2 - 2^(ex + eq - 2e + 1) a.b,
    |a|^2 being the image's float32 row norms (their factor is 1 when
    e = ex, and the product is skipped).  Up to rounding, f is
    2^-2e (|x|^2 - 2 x.q) = 2^-2e (|x - q|^2 - |q|^2): scaling by a power of
    two is exact but for underflow, and any e >= ex, eq works, so the floor
    -536 only keeps the terms below finite.  In units of 2^2e, x' = 2^-e x
    and q' = 2^-e q have entries in [-1, 1]; let M = max|x'| + max|q'|
    over the database and the block (M < 2 sqrt(D)), u = 2^-24 and
    gamma_m = m u / (1 - m u).  A float32 cast or scaling is off by at most
    u |v| + 2^-150 (half the smallest float32 subnormal), and a float32 dot
    product, in any summation order, fused or not, by gamma_D times the sum
    of the products' magnitudes plus 2^-150 per underflowed product.  So
    each term of f is within gamma_{D+2} of its exact value plus
    8 D 2^-150, and f, one float32 sum more, is off by at most
    e_f = gamma_{D+3} M^2 + D 2^-146.
    The direct form sums D non-negative terms, each a rounded square of a
    rounded difference, so its squared distance S^ is off from the exact S
    by at most e_d = gamma_{D+2}(2^-53) S + D 2^-1075 2^-2e, the last term
    for products that underflow float64.  Let f_k be the k-th smallest f.
    Those k rows have S^ <= B = f_k + |q'|^2 + e_f + e_d, so the k-th
    smallest direct distance is at most fl(sqrt(B)).  fl(sqrt(.)) is
    monotone and within 2^-53 of sqrt, so a row can rank in the top k,
    ties at the boundary included, only if its S^ <= B (1 + 5 2^-53), hence
    only if f <= f_k + 2 e_f + 2 e_d + 5 2^-53 B.  The bound is applied on
    both sides: the kept row's f may be low by e_f and the k-th row's high
    by e_f, and likewise e_d for the direct values.  For D < 2^20 (so
    (D + 3) u < 0.07), tau = 4 (D + 4) (u M^2 + 2^-146 + 2^(-1073 - 2e))
    exceeds that sum by a factor above 1.7, which covers the rounding of M,
    tau and f_k + tau themselves.  A direct distance past the float64 range
    reads inf, and all such rows tie; that can only happen when
    4 D 2^2e > 2^1023, and the last term 4 (D + 4) D 2^min(2e - 1016, 0)
    then exceeds the whole spread of f (at most 1.15 M^2), so every row is
    kept.  Below that, |x - q| < 2^(e+1) entrywise gives S < 4 D 2^2e
    <= 2^1023 and S^ < 1.07 S, so no difference, square or sum overflows.
    As D < 2^L, L the bit length of D, the refine enters
    np.errstate(over="ignore") only when L + 2 + 2e > 1023.

    Refine: the kept rows are recomputed with the direct formula, so each
    distance is bit-identical to a full computation, and ordered by
    np.lexsort((ids, d, query)).  The result depends on the bound, not on
    the GEMM's rounding, so the GEMM reads only the longest candidate
    prefix, and how the queries are blocked changes nothing.
    """
    image, ex, norms, x_max = db._filter_image()
    b, dim = queries.shape
    eq = _exponent(queries)
    e = max(ex, eq, -536)
    qimage = np.empty((dim, b), dtype=np.float32)  # (D, b): image @ qimage is (n, b)
    np.ldexp(queries.T, -eq, out=qimage)
    m = (x_max * 2.0 ** (ex - e)
         + math.sqrt(np.square(qimage).sum(axis=0).max()) * 2.0 ** (eq - e))
    tau = 4 * (dim + 4) * (2.0 ** -24 * m * m + 2.0 ** -146 + 2.0 ** (-1073 - 2 * e)
                           + dim * 2.0 ** min(2 * e - 1016, 0))
    qimage *= -2.0 ** (ex + eq - 2 * e + 1)
    ks = [min(k, c) for k, c in zip(ks, counts)]
    kmax = max(ks)
    width = max(counts)  # rows past the longest prefix are never read
    # everything above is set up before the GEMM streams the image through
    # the cache
    f = image[:width] @ qimage
    f += norms[:width, None] if e == ex else norms[:width, None] * 2.0 ** (2 * (ex - e))
    # (b, width), a query's values contiguous: np.partition is about 3x
    # faster along a contiguous axis; for b = 1 this is a view
    f = np.ascontiguousarray(f.T)
    for i, c in enumerate(counts):
        if c < width:
            f[i, c:] = np.inf
    # one partition at the largest k, then each query's k-th value from its
    # sorted kmax smallest (np.partition with several kth is much slower)
    f_k = np.partition(f, kmax - 1, axis=1)[:, :kmax]
    f_k.sort(axis=1)
    block = np.arange(b)
    f_k = f_k[block, np.subtract(ks, 1)] + tau
    qi, cols = np.divmod(np.flatnonzero(f <= f_k[:, None]), width)  # qi ascends
    diff = db.descriptors[cols]
    diff -= queries[qi]
    with (np.errstate(over="ignore") if dim.bit_length() + 2 + 2 * e > 1023
          else contextlib.nullcontext()):  # such distances read inf, as in a full sort
        d = np.sqrt(np.square(diff, out=diff).sum(axis=1))
    ids = db._id_array[cols]
    order = np.lexsort((ids, d, qi))
    starts = np.searchsorted(qi, block).tolist()  # query i's kept rows
    ids, d = ids[order], d[order]
    return [(ids[s:s + k], d[s:s + k]) for s, k in zip(starts, ks)]


def _check_search(db: DescriptorDb, queries: np.ndarray, k: int) -> None:
    """k, the database and the query width; `_nearest` checks that the
    entries are finite."""
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    if len(db) == 0:
        raise ContractError("search in an empty database")
    if queries.shape[1] != db.dim:
        raise ContractError(f"query dim {queries.shape[1]} != db dim {db.dim}")


def db_search(db: DescriptorDb, query: np.ndarray, k: int) -> List[Tuple[int, float]]:
    """Exact k nearest descriptors by Euclidean distance, ascending; equal
    distances rank by lower id."""
    query = np.asarray(query, dtype=np.float64).reshape(1, -1)
    _check_search(db, query, k)
    ids, dists = _nearest_block(db, query, [len(db)], [k])[0]
    return list(zip(ids.tolist(), dists.tolist()))


def db_search_all(db: DescriptorDb, queries: np.ndarray,
                  k: int) -> List[List[Tuple[int, float]]]:
    """db_search for every row of the (m, D) matrix queries, in one kernel
    call.  The arguments are checked also when there are no rows."""
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2:
        raise ContractError(f"query matrix must be 2-d, got {queries.shape}")
    _check_search(db, queries, k)
    m = len(queries)
    return [list(zip(ids.tolist(), dists.tolist()))
            for ids, dists in _nearest(db, queries, range(m), [len(db)] * m, [k] * m)]


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
    return _recall([_first_hit(ranked, truth) for ranked, truth in zip(rankings, truths)], n)


def _first_hit(ranked: Sequence[int], truth: set) -> Optional[float]:
    """The 0-based rank of the first true positive in ranked (inf when none
    is ranked), or None when the query has no true positive."""
    if not truth:
        return None
    return next((r for r, c in enumerate(ranked) if c in truth), math.inf)


def _recall(first_hits: Sequence[Optional[float]], n: int) -> Tuple[float, int]:
    """recall_at from each query's `_first_hit`: (fraction, exclusions)."""
    ranks = [r for r in first_hits if r is not None]
    fraction = sum(r < n for r in ranks) / len(ranks) if ranks else float("nan")
    return fraction, len(first_hits) - len(ranks)


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


class _Report:
    """The CSV rows of a report dataclass: one (name, value) per field, in
    field order, with float fields as `io.report_cell` writes a float and
    int fields as they are."""

    def rows(self):
        # this module's annotations are strings (``from __future__ import
        # annotations``), so a float field's type reads "float"
        values = ((f, getattr(self, f.name)) for f in fields(self))
        return [(f.name, io.report_cell(float(v)) if f.type in (float, "float") else v)
                for f, v in values]


@dataclass(frozen=True)
class LoopClosureReport(_Report):
    n_queries: int
    n_scored: int  # queries that had at least one candidate
    n_positive_queries: int  # scored queries with a true loop available
    auc: float
    f1max: float
    recall1: float
    recall1pct: float
    excluded: int  # scored queries with no true loop (excluded from recalls)


def eval_loop_closure(db: DescriptorDb, overlaps,
                      protocol: EvalProtocol) -> LoopClosureReport:
    """Single-trajectory protocol: each query scan searches only scans at
    least `window` frames older.  The rank-1 neighbor's similarity (negative
    distance) and its truth (overlap above threshold, as
    `rangeview.overlap_table` reads the labels) feed the PR metrics;
    recall@1 and recall@1% count queries whose true loops are found.

    Each query's candidates are a prefix of the database read in id order:
    the database itself when it is stored so, else a sorted copy.  Only the
    top ceil(0.01 * candidates) are ranked, which is all that recall@1 and
    recall@1% read."""
    table = rangeview.overlap_table(overlaps)
    known = set(db.ids)
    order = np.argsort(db._id_array)
    if np.any(order != np.arange(len(db))):
        db = DescriptorDb._adopting(db._id_array[order].tolist(), db.descriptors[order])
    ids = db.ids
    queries = range(0, len(ids), protocol.query_step)
    # candidates are ids < q - window, the first m in id order; the limits
    # stay Python ints, as int64 they could wrap
    limits = [ids[q] - protocol.window for q in queries]
    m = np.searchsorted(db._id_array, [max(limit, ids[0]) for limit in limits])
    scored = np.flatnonzero(m).tolist()
    m = m[scored]
    found = _nearest(db, db.descriptors, [queries[j] for j in scored], m.tolist(),
                     np.ceil(0.01 * m).astype(np.int64).tolist())
    scores = []
    first_hits: List[Optional[float]] = []
    for j, (top, top_dists) in zip(scored, found):
        ranked = top.tolist()
        truth = {c for c, o in table.get(ids[queries[j]], {}).items()
                 if o > protocol.overlap_threshold and c < limits[j] and c in known}
        scores.append((-float(top_dists[0]), ranked[0] in truth))
        first_hits.append(_first_hit(ranked, truth))
    n_scored = len(scores)
    # recall@1% reads each query's whole ranking, its top ceil(0.01 m)
    recall1, excl = _recall(first_hits, 1)
    recall1pct, _ = _recall(first_hits, math.inf)
    n_positive = n_scored - excl
    auc = f1max = float("nan")
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
class PlaceRecognitionReport(_Report):
    n_queries: int
    n_evaluated: int
    excluded: int
    ar1: float
    ar5: float
    ar20: float


def _pose_distances(positions: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """(b, n) distances from each of the b query positions to each of the n
    database positions, bit for bit
    np.sqrt(np.sum((positions - queries[:, None]) ** 2, axis=2)).

    For two columns numpy's reduce is the plain sum dx**2 + dy**2, computed
    here over (b, n) planes, without a reduce over a length-2 axis; for
    three or more it is not a left-to-right sum, and the reduce is kept."""
    with np.errstate(over="ignore"):  # a distance past the float range is inf
        if positions.shape[1] != 2:
            return np.sqrt(np.sum((positions - queries[:, None]) ** 2, axis=2))
        d = np.square(positions[:, 0] - queries[:, :1])
        d += np.square(positions[:, 1] - queries[:, 1:])
        return np.sqrt(d, out=d)


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
    if protocol.db_step > 1:  # the sampled rows, searched as a database of their own
        # a range: np.arange makes a float array of a step past the int64 range
        rows = range(0, len(db), protocol.db_step)
        db = DescriptorDb._adopting(db._id_array[rows].tolist(), db.descriptors[rows])
        db_positions = db_positions[rows]
    q_rows = range(0, len(query_db), protocol.query_step)
    truths = []  # each query's true positives, as an id array
    for start in range(0, len(q_rows), _QUERY_BLOCK):
        block = query_positions[q_rows[start:start + _QUERY_BLOCK]]
        pose_d = _pose_distances(db_positions, block)
        truths += [db._id_array[near] for near in pose_d < protocol.distance_threshold]
    # a query without a true positive is excluded and never searched
    searched = [j for j, truth in enumerate(truths) if truth.size]
    found = _nearest(db, query_db.descriptors, [q_rows[j] for j in searched],
                     [len(db)] * len(searched), [20] * len(searched))
    first_hits: List[Optional[float]] = [None] * len(q_rows)
    for j, (top, _) in zip(searched, found):
        first_hits[j] = _first_hit(top.tolist(), set(truths[j].tolist()))
    ar1, excluded = _recall(first_hits, 1)
    ar5, _ = _recall(first_hits, 5)
    ar20, _ = _recall(first_hits, 20)
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
    """Wall-time report: descriptor extraction, database search (one query
    per call, and per query in blocks of _QUERY_BLOCK), and the
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
    # the same query, searched a block at a time: the gap to db_search_N is
    # the kernel's fixed cost per call
    block = np.tile(q, (_QUERY_BLOCK, 1))
    db_search_all(db, block, 20)  # warm-up
    rows.append(_timing_row(f"db_search_all_{db_size}_per_query",
                            [t / len(block) for t in
                             _time(lambda: db_search_all(db, block, 20), reps)]))

    e, n = params["olm.L0.forward.A_log"].shape
    delta = rng.uniform(1e-3, 1e-1, size=(1, scan_len, e))
    a_log = np.log(rng.uniform(0.5, 2.0, size=(e, n)))
    b = rng.normal(size=(1, scan_len, n))
    c = rng.normal(size=(1, scan_len, n))
    d = rng.normal(size=e)
    seq_x = rng.normal(size=(1, scan_len, e))
    dssm = ssm.discretize(delta, -np.exp(a_log), b, mode="zoh")
    bc = np.concatenate([b, c], axis=2)
    scans = (("scan_sequential", lambda: ssm.scan_sequential(dssm, c, d, seq_x)),
             ("scan_parallel", lambda: ssm.scan_parallel(dssm, c, d, seq_x)),
             ("selective_scan", lambda: ssm.selective_scan(seq_x, delta, a_log, bc, d)))
    for name, run in scans:
        run()  # warm-up
        rows.append(_timing_row(f"{name}_m{scan_len}", _time(run, reps)))
    return rows

