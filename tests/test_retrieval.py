"""Tests for search, metrics, and the evaluation protocols."""

import csv
import math
from io import StringIO

import numpy as np
import pytest

from rangeloop import io
from rangeloop import retrieval as rv
from rangeloop.errors import ConfigError, ContractError
from rangeloop.rangeview import OverlapLabel, build_tuples


class TestDescriptorDb:
    def test_basic(self):
        db = rv.DescriptorDb([3, 1, 2], np.eye(3))
        assert len(db) == 3 and db.dim == 3

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ContractError):
            rv.DescriptorDb([1, 1], np.eye(2))

    def test_count_mismatch_rejected(self):
        with pytest.raises(ContractError):
            rv.DescriptorDb([1, 2, 3], np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        mat = np.eye(3)
        mat[1, 2] = bad
        with pytest.raises(ContractError):
            rv.DescriptorDb(range(3), mat)

    def test_dimension_beyond_the_search_bound_rejected(self):
        with pytest.raises(ContractError, match="dimension"):
            rv.DescriptorDb([0], np.zeros((1, 1 << 20)))

    def test_zero_dimension_rejected(self):
        # with no columns every distance is 0.0 and every ranking a tie
        with pytest.raises(ContractError, match="dimension 0"):
            rv.DescriptorDb(range(3), np.zeros((3, 0)))

    def test_matrix_is_an_owned_read_only_copy(self):
        mat = np.eye(3)
        db = rv.DescriptorDb(range(3), mat)
        mat[0, 0] = 5.0
        assert db.descriptors[0, 0] == 1.0
        with pytest.raises(ValueError):
            db.descriptors[0, 0] = 2.0

    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(42)
        db = rv.DescriptorDb([5, 9, 2], rng.normal(size=(3, 8)).astype(np.float32))
        path = tmp_path / "d.omdb"
        db.save(path)
        back = rv.DescriptorDb.load(path)
        assert back.ids == db.ids
        np.testing.assert_array_equal(back.descriptors, db.descriptors)
        # one decoded copy, owned by the database and read-only
        assert back.descriptors.dtype == np.float64
        assert back.descriptors.flags.owndata and not back.descriptors.flags.writeable


class TestDbSearch:
    def test_exact_match_ranks_first(self):
        rng = np.random.default_rng(42)
        mat = rng.normal(size=(10, 4))
        db = rv.DescriptorDb(range(10), mat)
        out = rv.db_search(db, mat[7], k=3)
        assert out[0] == (7, 0.0)

    def test_k_larger_than_db(self):
        db = rv.DescriptorDb([0, 1], np.eye(2))
        assert len(rv.db_search(db, np.zeros(2), k=10)) == 2

    def test_ties_resolve_by_id(self):
        mat = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        db = rv.DescriptorDb([9, 4, 1], mat)
        out = rv.db_search(db, np.array([1.0, 0.0]), k=2)
        assert [i for i, _ in out] == [4, 9]

    def test_invalid_args(self):
        db = rv.DescriptorDb([0], np.zeros((1, 2)))
        with pytest.raises(ContractError):
            rv.db_search(db, np.zeros(2), k=0)
        with pytest.raises(ContractError):
            rv.db_search(db, np.zeros(3), k=1)
        with pytest.raises(ContractError):
            rv.db_search(db, np.array([0.0, np.nan]), k=1)
        with pytest.raises(ContractError):
            rv.db_search_all(db, np.zeros(2), k=1)

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(42)
        mat = rng.normal(size=(1000, 6))
        ids = rng.permutation(5000)[:1000].tolist()
        db = rv.DescriptorDb(ids, mat)
        q = rng.normal(size=6)
        got = rv.db_search(db, q, k=25)
        dists = np.sqrt(np.sum((mat - q) ** 2, axis=1))
        want = sorted(zip(dists, ids))[:25]
        assert [(i, d) for d, i in want] == [(i, d) for i, d in got]

    # the kernel's finite check is the max and min it reads for the query
    # exponent: NaN must show in both, an infinity in one
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 3, 7])
    def test_non_finite_query_rejected(self, bad, at):
        db = rv.DescriptorDb(range(4), np.arange(32.0).reshape(4, 8))
        q = np.full(8, -2.5)
        q[at] = bad
        with pytest.raises(ContractError, match="non-finite"):
            rv.db_search(db, q, k=2)
        block = np.ones((40, 8))  # the bad row sits in the second block
        block[35] = q
        with pytest.raises(ContractError, match="non-finite"):
            rv.db_search_all(db, block, k=2)

    def test_search_all_checks_an_empty_query_matrix(self):
        db = rv.DescriptorDb([0], np.zeros((1, 2)))
        assert rv.db_search_all(db, np.zeros((0, 2)), k=1) == []
        with pytest.raises(ContractError, match="k must be"):
            rv.db_search_all(db, np.zeros((0, 2)), k=0)
        with pytest.raises(ContractError, match="empty database"):
            rv.db_search_all(rv.DescriptorDb([], np.zeros((0, 2))), np.zeros((0, 2)), k=1)
        with pytest.raises(ContractError, match="query dim"):
            rv.db_search_all(db, np.zeros((0, 3)), k=1)

    def test_single_and_block_search_match_the_full_sort(self):
        """Every db_search row equals db_search_all's row and the full
        sort's, on 500 rows whose norms span 1e-30 to 1e30, with queries of
        every scale, rows of the database among them."""
        rng = np.random.default_rng(20)
        mat = rng.normal(size=(500, 64)) * 10.0 ** rng.integers(-30, 31, size=(500, 1))
        ids = rng.permutation(10_000)[:500].tolist()
        db = rv.DescriptorDb(ids, mat)
        queries = np.concatenate([
            mat[rng.permutation(500)[:40]],
            rng.normal(size=(40, 64)) * 10.0 ** rng.integers(-30, 31, size=(40, 1))])
        block = rv.db_search_all(db, queries, k=9)
        for q, row in zip(queries, block):
            assert rv.db_search(db, q, 9) == row == _full_sort(mat, ids, q, 9)


def _full_sort(mat, ids, q, k):
    """Reference top k: the direct distances of every row, fully sorted by
    (distance, id).  A distance past the float64 range reads inf."""
    with np.errstate(over="ignore"):
        dists = np.sqrt(np.sum((mat - q) ** 2, axis=1))
    return [(i, d) for d, i in sorted(zip(dists, ids))[:k]]


class TestNearestKernel:
    """The filter-and-refine kernel returns exactly the first k of a full
    sort, ids, distance bits and tie order included."""

    @staticmethod
    def _check(mat, ids, queries, ks):
        db = rv.DescriptorDb(ids, mat)
        for q in queries:
            for k in ks:
                assert rv.db_search(db, q, k) == _full_sort(db.descriptors, ids, q, k)

    def test_integer_matrix_with_ties_at_the_kth_distance(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            rows = int(rng.integers(1, 80))
            dim = int(rng.integers(1, 5))
            mat = rng.integers(-2, 3, size=(rows, dim)).astype(float)
            ids = rng.permutation(1000)[:rows].tolist()
            queries = rng.integers(-2, 3, size=(3, dim)).astype(float)
            self._check(mat, ids, queries, range(1, rows + 2))

    def test_duplicated_rows_and_rows_one_ulp_apart(self):
        rng = np.random.default_rng(7)
        base = rng.normal(size=(4, 16))
        rows = [base, base, np.nextafter(base, np.inf), np.nextafter(base, -np.inf)]
        nudged = base.copy()
        nudged[:, 3] = np.nextafter(nudged[:, 3], np.inf)
        mat = np.concatenate(rows + [nudged], axis=0)
        ids = rng.permutation(mat.shape[0]).tolist()
        queries = [base[0], base[1] + 1e-9, rng.normal(size=16), 100.0 * base[2]]
        self._check(mat, ids, queries, range(1, mat.shape[0] + 2))
        # rows one float64 ulp apart are one and the same row to the filter
        image = rv.DescriptorDb(ids, mat)._filter_image()[0]
        assert np.array_equal(image[:4], image[8:12])
        assert np.array_equal(image[:4], image[12:16])

    # 1e-300 and 1e-40 rows sit below float32's normal range and 1e200 rows
    # above its largest value, unless the filter's image is scaled.  The
    # direct distances' squares are subnormal at 1e-162, so they tie more
    # often than the filter can tell, underflow to zero ties at 1e-300 and
    # overflow to inf ties at 1e200.  The last case alternates rows of norm
    # 1e30 and 1e-30.
    @pytest.mark.parametrize("scale", [1e-300, 1e-162, 1e-40, 1e-3, 1.0, 1e3, 1e200,
                                       pytest.param((1e30, 1e-30), id="1e30-1e-30")])
    def test_k_at_the_edges_and_row_norm_scale(self, scale):
        rng = np.random.default_rng(3)
        mat = rng.normal(size=(300, 32))
        mat *= np.resize(scale, (300, 1)) / np.linalg.norm(mat, axis=1, keepdims=True)
        ids = rng.permutation(300).tolist()
        queries = [mat[5], np.min(scale) * rng.normal(size=32), np.zeros(32),
                   1e300 * rng.normal(size=32)]
        self._check(mat, ids, queries, [1, 2, 17, 299, 300, 301, 1000])

    def test_prefix_of_an_id_sorted_matrix(self):
        rng = np.random.default_rng(11)
        mat = np.round(rng.normal(size=(200, 8)) * 2) / 2
        db = rv.DescriptorDb(range(200), mat)
        for m in (1, 2, 50, 199):
            (got_ids, got_d), = rv._nearest(db, mat, [199], [m], [3])
            want = _full_sort(mat[:m], list(range(m)), mat[199], 3)
            assert list(zip(got_ids.tolist(), got_d.tolist())) == want

    def test_norm_scaling_skipped_when_the_database_exponent_rules(self):
        # e = ex: the image's norms enter f unscaled
        rng = np.random.default_rng(5)
        mat = 8.0 * rng.normal(size=(120, 16))
        queries = [mat[3], 0.01 * rng.normal(size=16), np.zeros(16)]
        ex = rv._exponent(mat)
        assert all(max(ex, rv._exponent(q[None]), -536) == ex for q in queries)
        self._check(mat, list(range(120)), queries, [1, 5, 120])

    def test_norm_scaling_applied_for_a_larger_query_exponent(self):
        # e = eq > ex: the norms are scaled by 2**(2 (ex - e)), which for the
        # last query underflows float32 to zero
        rng = np.random.default_rng(6)
        mat = rng.normal(size=(120, 16))
        queries = [1e3 * rng.normal(size=16), 1e40 * rng.normal(size=16),
                   mat[7] + 1e6]
        ex = rv._exponent(mat)
        assert all(rv._exponent(q[None]) > ex for q in queries)
        self._check(mat, list(range(120)), queries, [1, 5, 120])

    def test_errstate_entered_only_where_a_distance_can_overflow(self, monkeypatch):
        """The refine enters np.errstate only when 2**(L + 2 + 2e) > 2**1023
        (L the bit length of D).  At the largest e below that, opposite rows
        run clean under error::RuntimeWarning; two exponents up a distance
        overflows to inf, silently."""
        entered = []
        errstate = np.errstate

        def spy(**kwargs):
            entered.append(kwargs)
            return errstate(**kwargs)

        monkeypatch.setattr(np, "errstate", spy)
        dim = 4  # L = 3: errstate for e >= 510
        for e, overflows in ((509, False), (511, True)):
            top = np.ldexp(1.0 - 2.0 ** -53, e)  # the largest value of exponent e
            mat = np.array([[top] * dim, [-top] * dim, [0.0] * dim])
            entered.clear()
            got = rv.db_search(rv.DescriptorDb(range(3), mat), mat[1], k=3)
            assert entered == ([{"over": "ignore"}] if overflows else [])
            assert got == _full_sort(mat, [0, 1, 2], mat[1], 3)
            assert math.isinf(got[-1][1]) == overflows
        entered.clear()
        rv.db_search(rv.DescriptorDb(range(3), np.eye(3)), np.ones(3), k=2)
        assert entered == []


def _bruteforce_pr(scores):
    """Loop-based reference for pr_metrics with the same conventions."""
    n_pos = sum(1 for _, t in scores if t)
    points = []
    f1max = 0.0
    for t in sorted({s for s, _ in scores}, reverse=True):
        tp = sum(1 for s, tr in scores if s >= t and tr)
        fp = sum(1 for s, tr in scores if s >= t and not tr)
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / n_pos
        if p + r:
            f1max = max(f1max, 2 * p * r / (p + r))
        points.append((r, p))
    points.insert(0, (0.0, points[0][1]))
    auc = sum((r1 - r0) * (p0 + p1) / 2
              for (r0, p0), (r1, p1) in zip(points, points[1:]))
    return auc, f1max


class TestPrMetrics:
    def test_perfect_separation(self):
        scores = [(0.9, True), (0.8, True), (0.2, False), (0.1, False)]
        auc, f1 = rv.pr_metrics(scores)
        assert auc == 1.0 and f1 == 1.0

    def test_three_point_example(self):
        _, f1 = rv.pr_metrics([(0.9, True), (0.8, False), (0.4, True)])
        np.testing.assert_allclose(f1, 0.8, atol=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ContractError):
            rv.pr_metrics([(0.5, False), (0.2, False)])
        with pytest.raises(ContractError):
            rv.pr_metrics([(0.5, True)])

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            scores = [(float(rng.normal()), bool(rng.random() < 0.5))
                      for _ in range(n)]
            if not any(t for _, t in scores):
                scores[0] = (scores[0][0], True)
            if all(t for _, t in scores):
                scores[-1] = (scores[-1][0], False)
            assert rv.pr_metrics(scores) == _bruteforce_pr(scores)

    def test_matches_bruteforce_oracle_with_tied_scores(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 60))
            scores = [(float(rng.integers(-3, 4)) * 0.5, bool(rng.random() < 0.5))
                      for _ in range(n)]
            scores.append((-0.0, True))
            scores.append((0.0, False))
            assert rv.pr_metrics(scores) == _bruteforce_pr(scores)

    def test_nan_similarity_rejected(self):
        with pytest.raises(ContractError):
            rv.pr_metrics([(0.5, True), (float("nan"), False)])


class TestRecallAt:
    def test_hand_table(self):
        # true match ranked 1st, 3rd, 21st
        rankings = [
            [0] + list(range(100, 130)),
            [100, 101, 1] + list(range(102, 130)),
            list(range(100, 120)) + [2] + list(range(120, 130)),
        ]
        truths = [{0}, {1}, {2}]
        assert rv.recall_at(rankings, truths, 1)[0] == pytest.approx(1 / 3)
        assert rv.recall_at(rankings, truths, 5)[0] == pytest.approx(2 / 3)
        assert rv.recall_at(rankings, truths, 20)[0] == pytest.approx(2 / 3)

    def test_exclusions_counted(self):
        frac, excluded = rv.recall_at([[1], [2]], [{1}, set()], 1)
        assert frac == 1.0 and excluded == 1

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            nq = int(rng.integers(1, 8))
            rankings = [rng.permutation(30).tolist() for _ in range(nq)]
            truths = [set(rng.choice(30, size=rng.integers(0, 4), replace=False).tolist())
                      for _ in range(nq)]
            n = int(rng.integers(1, 10))
            got_frac, got_excl = rv.recall_at(rankings, truths, n)
            hits = cons = 0
            for ranked, truth in zip(rankings, truths):
                if not truth:
                    continue
                cons += 1
                hits += any(c in truth for c in ranked[:n])
            want = hits / cons if cons else float("nan")
            if math.isnan(want):
                assert math.isnan(got_frac)
            else:
                assert got_frac == want
            assert got_excl == nq - cons


def _cluster_db(n_clusters=10, revisits=3, dim=8, noise=1e-6, seed=42):
    """Descriptors where scan i and i + n_clusters share a cluster."""
    rng = np.random.default_rng(seed)
    bases = rng.normal(size=(n_clusters, dim))
    ids, mat, labels = [], [], []
    for r in range(revisits):
        for c in range(n_clusters):
            ids.append(r * n_clusters + c)
            mat.append(bases[c] + noise * rng.normal(size=dim))
    db = rv.DescriptorDb(ids, np.asarray(mat))
    for i in ids:
        for j in ids:
            if j >= i:
                continue
            overlap = 0.9 if i % n_clusters == j % n_clusters else 0.02
            labels.append(OverlapLabel(query=j, cand=i, overlap=overlap))
    return db, labels


class TestLoopClosure:
    def test_near_duplicate_revisits_score_perfectly(self):
        db, labels = _cluster_db()
        protocol = rv.EvalProtocol(kind="loop_closure", window=5)
        report = rv.eval_loop_closure(db, labels, protocol)
        assert report.auc == 1.0
        assert report.f1max == 1.0
        assert report.recall1 == 1.0
        assert report.n_positive_queries == 20

    def test_no_revisits_flags_zero_positives(self):
        rng = np.random.default_rng(42)
        db = rv.DescriptorDb(range(20), rng.normal(size=(20, 4)))
        protocol = rv.EvalProtocol(kind="loop_closure", window=3)
        report = rv.eval_loop_closure(db, [], protocol)
        assert report.n_positive_queries == 0
        assert math.isnan(report.auc) and math.isnan(report.recall1)

    def test_window_beyond_sequence_gives_empty_report(self):
        db, labels = _cluster_db()
        protocol = rv.EvalProtocol(kind="loop_closure", window=1000)
        report = rv.eval_loop_closure(db, labels, protocol)
        assert report.n_scored == 0
        assert math.isnan(report.auc)

    def test_candidates_strictly_older_than_window(self):
        # query q may only see ids < q - window; with window 9 the first
        # revisit (distance 10) is the single admissible true loop
        db, labels = _cluster_db(n_clusters=10, revisits=2)
        protocol = rv.EvalProtocol(kind="loop_closure", window=9)
        report = rv.eval_loop_closure(db, labels, protocol)
        assert report.n_scored == 10  # queries 10..19
        assert report.recall1 == 1.0

    def test_ids_at_the_bottom_of_the_int64_range(self):
        # ids - window stays a Python int: as int64 the limits of the first
        # queries would wrap to the top of the range and admit every scan
        low = [-2**63 + i for i in range(6)]
        labels = [OverlapLabel(query=low[5], cand=low[0], overlap=0.9)]
        protocol = rv.EvalProtocol(window=3)
        for rows in (range(6), [3, 0, 5, 1, 4, 2]):
            db = rv.DescriptorDb([low[r] for r in rows], np.eye(6)[list(rows)])
            report = rv.eval_loop_closure(db, labels, protocol)
            assert report.n_scored == 2  # low[4] and low[5]
            assert report.rows() == _loop_closure_oracle(db, labels, protocol).rows()

    def test_deterministic(self):
        db, labels = _cluster_db()
        protocol = rv.EvalProtocol(kind="loop_closure", window=5)
        assert rv.eval_loop_closure(db, labels, protocol) == \
            rv.eval_loop_closure(db, labels, protocol)

    def test_recall1pct_cut_ceils(self):
        # query 150 has 150 older candidates, ranked by id: the 1% cut is
        # ceil(1.5) = 2, so a true loop at rank 2 counts and one at rank 3
        # does not
        mat = np.zeros((151, 2))
        mat[:150, 0] = np.arange(1.0, 151.0)
        db = rv.DescriptorDb(range(151), mat)
        for true_rank, hit in ((2, 1.0), (3, 0.0)):
            labels = [OverlapLabel(query=150, cand=true_rank - 1, overlap=0.9)]
            report = rv.eval_loop_closure(db, labels, rv.EvalProtocol(window=0))
            assert report.n_positive_queries == 1
            assert report.recall1 == 0.0
            assert report.recall1pct == hit


def _recall_oracle(rankings, truths, cut):
    """(fraction, exclusions) with a per-query cutoff function of the
    candidate count."""
    hits = considered = 0
    for ranked, truth in zip(rankings, truths):
        if truth:
            considered += 1
            hits += any(c in truth for c in ranked[:cut(len(ranked))])
    frac = hits / considered if considered else float("nan")
    return frac, len(truths) - considered


def _loop_closure_oracle(db, overlaps, protocol):
    """Loop-based loop-closure protocol: every query fully ranks its
    candidates and looks up every candidate's overlap in a flat table
    built here, in label order, by the label rule of `rangeloop.io`."""
    table = {}
    for lab in overlaps:
        table[(lab.query, lab.cand)] = lab.overlap
        table.setdefault((lab.cand, lab.query), lab.overlap)
    id_to_row = {sid: i for i, sid in enumerate(db.ids)}
    order = sorted(db.ids)
    scores, rankings, truths = [], [], []
    for q in order[:: protocol.query_step]:
        cand = [c for c in order if c < q - protocol.window]
        if not cand:
            continue
        mat = db.descriptors[[id_to_row[c] for c in cand]]
        dists = np.sqrt(np.sum((mat - db.descriptors[id_to_row[q]]) ** 2, axis=1))
        ranked = [c for _, c in sorted(zip(dists, cand))]
        top_dist = min(dists)
        scores.append((-float(top_dist),
                       table.get((q, ranked[0]), 0.0) > protocol.overlap_threshold))
        rankings.append(ranked)
        truths.append({c for c in cand
                       if table.get((q, c), 0.0) > protocol.overlap_threshold})
    n_positive = sum(1 for t in truths if t)
    auc = f1max = recall1 = recall1pct = float("nan")
    if n_positive:
        recall1, _ = _recall_oracle(rankings, truths, lambda m: 1)
        recall1pct, _ = _recall_oracle(rankings, truths,
                                       lambda m: math.ceil(0.01 * m))
    labels = [t for _, t in scores]
    if labels and all(labels):
        auc = f1max = 1.0
    elif any(labels):
        auc, f1max = _bruteforce_pr(scores)
    return rv.LoopClosureReport(
        n_queries=len(order[:: protocol.query_step]), n_scored=len(scores),
        n_positive_queries=n_positive, auc=auc, f1max=f1max, recall1=recall1,
        recall1pct=recall1pct, excluded=len(scores) - n_positive)


def _place_recognition_oracle(db, query_db, db_positions, query_positions,
                              protocol):
    """Loop-based place-recognition protocol: full rankings and a pose
    distance per database scan."""
    db_rows = list(range(0, len(db), protocol.db_step))
    q_rows = list(range(0, len(query_db), protocol.query_step))
    sub_ids = [db.ids[i] for i in db_rows]
    rankings, truths = [], []
    for qi in q_rows:
        dists = np.sqrt(np.sum((db.descriptors[db_rows]
                                - query_db.descriptors[qi]) ** 2, axis=1))
        rankings.append([c for _, c in sorted(zip(dists, sub_ids))])
        pose_d = np.sqrt(np.sum((db_positions[db_rows] - query_positions[qi]) ** 2,
                                axis=1))
        truths.append({c for c, d in zip(sub_ids, pose_d)
                       if d < protocol.distance_threshold})
    ar1, excluded = _recall_oracle(rankings, truths, lambda m: 1)
    ar5, _ = _recall_oracle(rankings, truths, lambda m: 5)
    ar20, _ = _recall_oracle(rankings, truths, lambda m: 20)
    return rv.PlaceRecognitionReport(
        n_queries=len(q_rows), n_evaluated=len(q_rows) - excluded,
        excluded=excluded, ar1=ar1, ar5=ar5, ar20=ar20)


def _aliased_trajectory(seed, n_places=40, visits=4, dim=16, quantize=False):
    """Round-major revisits of n_places places with a quarter of the visits
    aliased onto another place; ids are frame index * 3 + 1 and the rows
    are shuffled.  Overlap labels cover revisits (both directions, with
    disagreeing values) and some random pairs, on both sides of the
    threshold, plus one pair with an id missing from the database.
    quantize rounds descriptors to a coarse grid, which makes exact
    distance ties and duplicate rows common."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_places, dim))
    place = np.tile(np.arange(n_places), visits)
    n = place.shape[0]
    source = np.where(rng.random(n) < 0.25, rng.integers(0, n_places, n), place)
    desc = centers[source] + 0.3 * rng.normal(size=(n, dim))
    if quantize:
        desc = np.round(desc)
    ids = np.arange(n) * 3 + 1
    labels = []
    for a in range(n):
        for b in range(a + n_places, n, n_places):
            labels.append(OverlapLabel(query=int(ids[a]), cand=int(ids[b]),
                                       overlap=float(rng.uniform(0.1, 0.9))))
            if rng.random() < 0.3:
                labels.append(OverlapLabel(query=int(ids[b]), cand=int(ids[a]),
                                           overlap=float(rng.uniform(0.1, 0.9))))
    for a, b in rng.integers(0, n, size=(50, 2)):
        labels.append(OverlapLabel(query=int(ids[a]), cand=int(ids[b]),
                                   overlap=float(rng.uniform(0.0, 0.6))))
    # a true pair with an id that is not in the database (ids are 1 mod 3)
    labels.append(OverlapLabel(query=int(ids[n_places - 1]), cand=2, overlap=0.9))
    positions = (np.stack([place % 7, place // 7], axis=1) * 15.0
                 + rng.uniform(-2.0, 2.0, size=(n, 2)))
    rows = rng.permutation(n)
    db = rv.DescriptorDb(ids[rows].tolist(), desc[rows])
    return db, labels, positions[rows]


def test_training_and_evaluation_read_one_truth():
    # both directions of a pair at different overlaps, a repeated line and a
    # self line: a tuple's positives are the candidates eval-loop counts as
    # the query's true loops, and its negatives the others
    labels = [OverlapLabel(0, 2, 0.1), OverlapLabel(2, 0, 0.8),
              OverlapLabel(3, 1, 0.1), OverlapLabel(3, 1, 0.9),
              OverlapLabel(1, 1, 0.9), OverlapLabel(2, 1, 0.05),
              OverlapLabel(0, 3, 0.2), OverlapLabel(1, 0, 0.6)]
    tuples = build_tuples(labels, threshold=0.3, k_p=10, k_n=10, seed=0)
    assert {t.query for t in tuples} == {0, 1, 2, 3}
    protocol = rv.EvalProtocol(window=0)
    for tup in tuples:
        for c in tup.positives + tup.negatives:
            if c >= tup.query:
                continue  # eval-loop searches only older scans
            # a two-scan database: the query's one candidate is c
            db = rv.DescriptorDb([c, tup.query], np.eye(2))
            report = rv.eval_loop_closure(db, labels, protocol)
            assert report.n_scored == 1
            assert report.n_positive_queries == (c in tup.positives), (tup.query, c)


class TestProtocolsMatchLoopOracles:
    """Both protocols give reports equal, row for row, to loop-based
    reimplementations that rank every candidate."""

    @pytest.mark.parametrize("quantize", [False, True])
    @pytest.mark.parametrize("window, query_step", [(0, 1), (9, 1), (60, 3)])
    def test_loop_closure(self, quantize, window, query_step):
        db, labels, _ = _aliased_trajectory(42, quantize=quantize)
        for threshold in (0.3, 0.5):
            protocol = rv.EvalProtocol(window=window, query_step=query_step,
                                       overlap_threshold=threshold)
            got = rv.eval_loop_closure(db, labels, protocol)
            want = _loop_closure_oracle(db, labels, protocol)
            assert got.rows() == want.rows()
            assert got.n_positive_queries > 0

    @pytest.mark.parametrize("quantize", [False, True])
    def test_loop_closure_in_id_order(self, quantize):
        """A database stored in id order is searched by prefix, without the
        argsort order."""
        db, labels, _ = _aliased_trajectory(42, quantize=quantize)
        order = np.argsort(db.ids)
        db = rv.DescriptorDb(np.asarray(db.ids)[order].tolist(), db.descriptors[order])
        for window, query_step in ((0, 1), (9, 2)):
            protocol = rv.EvalProtocol(window=window, query_step=query_step)
            got = rv.eval_loop_closure(db, labels, protocol)
            assert got.rows() == _loop_closure_oracle(db, labels, protocol).rows()

    @pytest.mark.parametrize("quantize", [False, True])
    @pytest.mark.parametrize("query_step, db_step", [(1, 1), (2, 3)])
    def test_place_recognition(self, quantize, query_step, db_step):
        db, _, pos = _aliased_trajectory(7, quantize=quantize)
        p = len(db) // 2
        ref = rv.DescriptorDb(db.ids[:p], db.descriptors[:p])
        query = rv.DescriptorDb(db.ids[p:], db.descriptors[p:])
        for threshold in (0.0, 3.0, 20.0):
            protocol = rv.EvalProtocol(kind="place_recognition", query_step=query_step,
                                       db_step=db_step, distance_threshold=threshold)
            got = rv.eval_place_recognition(ref, query, pos[:p], pos[p:], protocol)
            want = _place_recognition_oracle(ref, query, pos[:p], pos[p:], protocol)
            assert got.rows() == want.rows()

    @pytest.mark.parametrize("quantize", [False, True])
    def test_query_count_not_a_multiple_of_the_block(self, monkeypatch, quantize):
        """Blocks of 7 queries: 160 loop-closure and 80 place-recognition
        queries leave a short last block, and blocks mix queries with and
        without candidates or true positives."""
        monkeypatch.setattr(rv, "_QUERY_BLOCK", 7)
        db, labels, pos = _aliased_trajectory(42, quantize=quantize)
        protocol = rv.EvalProtocol(window=9)
        got = rv.eval_loop_closure(db, labels, protocol)
        assert got.rows() == _loop_closure_oracle(db, labels, protocol).rows()
        assert got.n_queries % 7 and 0 < got.n_scored < got.n_queries
        assert 0 < got.n_positive_queries < got.n_scored
        p = len(db) // 2
        ref = rv.DescriptorDb(db.ids[:p], db.descriptors[:p])
        query = rv.DescriptorDb(db.ids[p:], db.descriptors[p:])
        protocol = rv.EvalProtocol(kind="place_recognition", distance_threshold=3.0)
        got = rv.eval_place_recognition(ref, query, pos[:p], pos[p:], protocol)
        assert got.rows() == _place_recognition_oracle(
            ref, query, pos[:p], pos[p:], protocol).rows()
        assert got.n_queries % 7 and 0 < got.excluded < got.n_queries

    def test_place_recognition_empty_database(self):
        empty = rv.DescriptorDb([], np.zeros((0, 3)))
        query = rv.DescriptorDb([0, 1], np.eye(2, 3))
        protocol = rv.EvalProtocol(kind="place_recognition")
        got = rv.eval_place_recognition(empty, query, np.zeros((0, 2)),
                                        np.zeros((2, 2)), protocol)
        assert got.rows() == _place_recognition_oracle(
            empty, query, np.zeros((0, 2)), np.zeros((2, 2)), protocol).rows()


class TestPoseDistances:
    # "mixed" draws every row's scale log-uniformly from 1e-200 to 1e150
    @pytest.mark.parametrize("width", [2, 3])
    @pytest.mark.parametrize("scale", [1e-200, 1e-3, 1.0, 1e150, "mixed"])
    def test_match_the_reduce(self, width, scale):
        rng = np.random.default_rng(width)
        if scale == "mixed":
            scale = 10.0 ** rng.uniform(-200, 150, size=(317, 1))
        scale = np.resize(scale, (317, 1))
        positions = scale[:300] * rng.normal(size=(300, width))
        queries = scale[300:] * rng.normal(size=(17, width))
        queries[3] = positions[5]
        got = rv._pose_distances(positions, queries)
        want = np.sqrt(np.sum((positions - queries[:, None]) ** 2, axis=2))
        assert got.shape == (17, 300)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("width", [2, 3])
    def test_distance_past_the_float_range_is_inf(self, width):
        positions = np.zeros((2, width))
        positions[1, 0] = 1.0
        queries = np.zeros((1, width))
        queries[0, -1] = 1e308
        got = rv._pose_distances(positions, queries)
        assert got.tolist() == [[math.inf, math.inf]]


class TestPlaceRecognition:
    def test_identical_sessions_ar1(self):
        rng = np.random.default_rng(42)
        mat = rng.normal(size=(25, 6))
        pos = np.cumsum(rng.uniform(1.0, 3.0, size=(25, 2)), axis=0)
        db = rv.DescriptorDb(range(25), mat)
        protocol = rv.EvalProtocol(kind="place_recognition", query_step=5,
                                   distance_threshold=10.0)
        report = rv.eval_place_recognition(db, db, pos, pos, protocol)
        assert report.ar1 == 1.0
        assert report.n_queries == 5

    def test_zero_threshold_excludes_everything(self):
        rng = np.random.default_rng(42)
        mat = rng.normal(size=(10, 4))
        pos = rng.normal(size=(10, 2))
        db = rv.DescriptorDb(range(10), mat)
        protocol = rv.EvalProtocol(kind="place_recognition", distance_threshold=0.0)
        report = rv.eval_place_recognition(db, db, pos, pos, protocol)
        assert report.excluded == report.n_queries
        assert math.isnan(report.ar1)

    def test_hand_fixture(self):
        db_desc = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
        db_pos = np.array([[0.0, 0], [100.0, 0], [200.0, 0]])
        # q0 retrieves db0 first (true hit at rank 1); q1's truth db1 ranks
        # last; q2 has no database scan within threshold
        q_desc = np.array([[0.9, 0.1, 0], [0.1, 0, 0.9], [5.0, 5.0, 5.0]])
        q_pos = np.array([[0.0, 1.0], [100.0, 1.0], [900.0, 0.0]])
        db = rv.DescriptorDb(range(3), db_desc)
        qdb = rv.DescriptorDb(range(3), q_desc)
        protocol = rv.EvalProtocol(kind="place_recognition", distance_threshold=10.0)
        report = rv.eval_place_recognition(db, qdb, db_pos, q_pos, protocol)
        assert report.excluded == 1
        assert report.ar1 == pytest.approx(0.5)
        assert report.ar5 == 1.0
        assert report.ar20 == 1.0

    def test_far_query_has_no_positive(self):
        db = rv.DescriptorDb(range(3), np.eye(3))
        pos = np.array([[0.0, 0.0], [100.0, 0.0], [200.0, 0.0]])
        far = pos.copy()
        far[1] = [-1e308, 0.0]
        protocol = rv.EvalProtocol(kind="place_recognition", distance_threshold=10.0)
        report = rv.eval_place_recognition(db, db, pos, far, protocol)
        assert (report.excluded, report.ar1) == (1, 1.0)

    def test_position_count_mismatch(self):
        db = rv.DescriptorDb(range(3), np.eye(3))
        protocol = rv.EvalProtocol(kind="place_recognition")
        with pytest.raises(ContractError):
            rv.eval_place_recognition(db, db, np.zeros((2, 2)), np.zeros((3, 2)),
                                      protocol)


class TestProtocolConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            rv.EvalProtocol(kind="unknown")
        with pytest.raises(ConfigError):
            rv.EvalProtocol(query_step=0)
        with pytest.raises(ConfigError):
            rv.EvalProtocol(distance_threshold=-1.0)
        with pytest.raises(ConfigError):
            rv.EvalProtocol(overlap_threshold=0.0)

    def test_kv_parsing(self):
        proto = io.config_from_pairs(rv.EvalProtocol, [
            ("kind", "place_recognition"), ("query_step", "5"),
            ("distance_threshold", "7.5")])
        assert proto.query_step == 5 and proto.distance_threshold == 7.5
        with pytest.raises(ContractError):
            io.config_from_pairs(rv.EvalProtocol, [("speed", "fast")])


class TestBench:
    def _tiny(self):
        from rangeloop import pipeline as pl
        cfg = pl.ModelConfig(h=4, w=12, stages=((4, 2, 2), (8, 2, 2)),
                             olm_n=2, vlad_k=2, mlp_hidden=8, out_dim=4)
        return pl.init_model(cfg, seed=42), cfg

    def test_report_rows_and_flag(self):
        params, cfg = self._tiny()
        rows = rv.bench(params, cfg, reps=1, db_size=50, scan_len=16)
        names = [r.name for r in rows]
        assert "descriptor_extraction" in names
        assert "db_search_50" in names and "db_search_all_50_per_query" in names
        assert any(n.startswith("scan_sequential") for n in names)
        assert any(n.startswith("scan_parallel") for n in names)
        assert all(r.low_confidence for r in rows)  # single rep
        assert all(r.mean_s >= 0 for r in rows)

    def test_csv_roundtrip(self):
        params, cfg = self._tiny()
        rows = rv.bench(params, cfg, reps=3, db_size=50, scan_len=16)
        assert not any(r.low_confidence for r in rows)
        parsed = list(csv.reader(StringIO(io.report_text(rv.BenchRow, rows))))
        assert parsed[0] == ["name", "mean_s", "median_s", "p95_s", "reps", "low_confidence"]
        assert len(parsed) == len(rows) + 1
        for row, r in zip(parsed[1:], rows):
            assert row == [r.name, repr(r.mean_s), repr(r.median_s), repr(r.p95_s),
                           str(r.reps), str(int(r.low_confidence))]
            # repr-exact: every float field reads back to the same double
            assert [float(v) for v in row[1:4]] == [r.mean_s, r.median_s, r.p95_s]
