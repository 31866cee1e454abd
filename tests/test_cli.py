"""End-to-end tests for the command line interface."""

import csv
import io as stdio
import os
import resource
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from rangeloop import io
from rangeloop import pipeline as pl
from rangeloop.cli import main
from rangeloop.rangeview import (OverlapLabel, ProjectionConfig, RangeImage,
                                 build_range_image, compute_overlap, overlap_table)

WORLD_KV = """\
seed=42
n_places=4
visits_per_place=2
h=8
w=32
n_obstacles=4
"""

CONFIG_KV = """\
h=8
w=32
stage=8,2,2
stage=16,2,2
stage=16,2,2
olm_n=2
vlad_k=4
mlp_hidden=16
out_dim=8
loss=imtrihard
lr=0.0005
epochs=1
k_p=2
k_n=2
seed=42
"""


def _set_key(text, key, value):
    """Config text with the line for key replaced, or appended, by key=value."""
    lines = [line for line in text.splitlines() if not line.startswith(f"{key}=")]
    return "\n".join(lines + [f"{key}={value}"]) + "\n"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synthetic dataset shared by the CLI tests: world, range images,
    overlap labels, and a one-epoch checkpoint."""
    root = tmp_path_factory.mktemp("cliws")
    (root / "world.kv").write_text(WORLD_KV)
    (root / "config.kv").write_text(CONFIG_KV)
    assert main(["synth", "--spec", str(root / "world.kv"),
                 "--out", str(root / "world")]) == 0
    assert main(["project", "--scans", str(root / "world"),
                 "--config", str(root / "world" / "sensor.kv"),
                 "--out", str(root / "ranges")]) == 0
    assert main(["overlaps", "--scans", str(root / "world"),
                 "--poses", str(root / "world" / "poses.txt"),
                 "--config", str(root / "world" / "sensor.kv"),
                 "--out", str(root / "labels.txt")]) == 0
    assert main(["train", "--config", str(root / "config.kv"),
                 "--data", str(root / "ranges"),
                 "--labels", str(root / "labels.txt"),
                 "--out", str(root / "ckpt")]) == 0
    assert main(["embed", "--ckpt", str(root / "ckpt" / "final.omck"),
                 "--ranges", str(root / "ranges"),
                 "--out", str(root / "db.omdb")]) == 0
    return root


def _stdout_csv(capsys):
    return list(csv.reader(stdio.StringIO(capsys.readouterr().out)))


def _pair_loop_labels(workspace):
    """The workspace world's label for every pair a < b, one
    `compute_overlap` call each, zeros included."""
    world = workspace / "world"
    cfg = io.config_from_pairs(ProjectionConfig, io.load_kv_pairs(world / "sensor.kv"))
    scans = [io.load_scan(world / f"scan_{i:04d}.bin") for i in range(8)]
    poses = io.load_poses(world / "poses.txt")
    images = [build_range_image(s, cfg) for s in scans]
    return [OverlapLabel(query=a, cand=b, overlap=compute_overlap(
                images[a], poses[a], scans[b], poses[b]))
            for a in range(8) for b in range(a + 1, 8)]


class TestWorkflow:
    def test_synth_outputs(self, workspace):
        names = {p.name for p in (workspace / "world").iterdir()}
        assert {"poses.txt", "places.txt", "sensor.kv",
                "scan_0000.bin", "scan_0007.bin"} <= names

    def test_project_outputs(self, workspace):
        ranges = sorted(p.name for p in (workspace / "ranges").iterdir())
        assert ranges == [f"range_{i:04d}.omrv" for i in range(8)]
        ri = io.load_range_image(workspace / "ranges" / "range_0000.omrv")
        assert ri.ranges.shape == (8, 32)

    def test_revisit_labels_exceed_threshold(self, workspace):
        labels = io.load_labels(workspace / "labels.txt")
        # one label per overlapping pair: the revisit of each place
        assert [(l.query, l.cand) for l in labels] == [(i, i + 4) for i in range(4)]
        assert all(l.overlap > 0.3 for l in labels)
        # different places never overlap: no label names (0, 1), so it is 0.0
        assert 1 not in overlap_table(labels)[0]

    def test_overlaps_file_is_byte_identical_to_pair_loop(self, workspace, tmp_path):
        labels = _pair_loop_labels(workspace)
        io.save_labels(tmp_path / "loop.txt", [lab for lab in labels if lab.overlap > 0.0])
        assert ((workspace / "labels.txt").read_bytes()
                == (tmp_path / "loop.txt").read_bytes())

    def test_train_outputs(self, workspace):
        names = {p.name for p in (workspace / "ckpt").iterdir()}
        assert {"epoch_000.omck", "final.omck", "model.kv", "report.csv"} <= names
        rows = list(csv.reader((workspace / "ckpt" / "report.csv").open()))
        assert rows[0] == ["epoch", "mean_loss", "val_f1max"]
        assert len(rows) == 2

    def test_embed_outputs(self, workspace):
        ids, descriptors = io.load_descriptor_db(workspace / "db.omdb")
        assert ids == list(range(8))
        assert descriptors.shape == (8, 8)
        np.testing.assert_allclose(np.linalg.norm(descriptors, axis=1), 1.0,
                                   atol=1e-6)

    def test_search_ranks_self_first(self, workspace, capsys):
        assert main(["search", "--db", str(workspace / "db.omdb"),
                     "--query", str(workspace / "db.omdb"), "--k", "3"]) == 0
        rows = _stdout_csv(capsys)
        assert rows[0] == ["query_id", "rank", "candidate_id", "distance"]
        assert len(rows) == 1 + 8 * 3
        for q in range(8):
            top = rows[1 + q * 3]
            assert top[:3] == [str(q), "1", str(q)] and float(top[3]) == 0.0

    def test_eval_loop_report(self, workspace, tmp_path, capsys):
        proto = tmp_path / "loop.kv"
        proto.write_text("kind=loop_closure\nwindow=3\n")
        assert main(["eval-loop", "--db", str(workspace / "db.omdb"),
                     "--poses", str(workspace / "world" / "poses.txt"),
                     "--labels", str(workspace / "labels.txt"),
                     "--protocol", str(proto)]) == 0
        report = dict(_stdout_csv(capsys)[1:])
        assert report["n_queries"] == "8"
        assert report["n_scored"] == "4"  # window 3 leaves queries 4..7
        assert report["n_positive_queries"] == "4"  # every one has a revisit
        assert 0.0 <= float(report["recall1"]) <= 1.0

    def test_eval_place_report(self, workspace, tmp_path, capsys):
        proto = tmp_path / "place.kv"
        proto.write_text("kind=place_recognition\ndistance_threshold=10.0\n")
        assert main(["eval-place", "--db", str(workspace / "db.omdb"),
                     "--query-db", str(workspace / "db.omdb"),
                     "--poses-a", str(workspace / "world" / "poses.txt"),
                     "--poses-b", str(workspace / "world" / "poses.txt"),
                     "--protocol", str(proto)]) == 0
        report = dict(_stdout_csv(capsys)[1:])
        assert float(report["ar1"]) == 1.0
        assert report["excluded"] == "0"

    def test_bench_low_confidence_single_rep(self, workspace, capsys):
        assert main(["bench", "--ckpt", str(workspace / "ckpt" / "final.omck"),
                     "--reps", "1"]) == 0
        rows = _stdout_csv(capsys)
        assert rows[0][0] == "name"
        assert {r[0] for r in rows[1:]} == {
            "descriptor_extraction", "db_search_1000", "db_search_all_1000_per_query",
            "scan_sequential_m900", "scan_parallel_m900", "selective_scan_m900",
        }
        assert all(r[5] == "1" for r in rows[1:])


    def test_eval_place_empty_sessions(self, tmp_path, capsys):
        db = tmp_path / "empty.omdb"
        io.save_descriptor_db(db, [], np.zeros((0, 8)))
        poses = tmp_path / "poses.txt"
        poses.write_text("")
        proto = tmp_path / "place.kv"
        proto.write_text("kind=place_recognition\n")
        assert main(["eval-place", "--db", str(db), "--query-db", str(db),
                     "--poses-a", str(poses), "--poses-b", str(poses),
                     "--protocol", str(proto)]) == 0
        report = dict(_stdout_csv(capsys)[1:])
        assert report["n_queries"] == "0"


class TestSearchCommand:
    def test_csv_is_byte_identical_to_per_query_search(self, tmp_path, capsys,
                                                       monkeypatch):
        """`search` runs its queries through the kernel in blocks (of 7 here,
        so the last block is short); its CSV is byte for byte that of one
        db_search per query, on rounded descriptors with exact ties."""
        from rangeloop import retrieval as rt

        monkeypatch.setattr(rt, "_QUERY_BLOCK", 7)
        rng = np.random.default_rng(5)
        db_path, q_path = tmp_path / "db.omdb", tmp_path / "q.omdb"
        io.save_descriptor_db(db_path, rng.permutation(1000)[:60].tolist(),
                              np.round(rng.normal(size=(60, 4))))
        io.save_descriptor_db(q_path, range(23), np.round(rng.normal(size=(23, 4))))
        assert main(["search", "--db", str(db_path), "--query", str(q_path),
                     "--k", "9"]) == 0
        got = capsys.readouterr().out
        db, queries = rt.DescriptorDb.load(db_path), rt.DescriptorDb.load(q_path)
        want = stdio.StringIO()
        w = csv.writer(want)
        w.writerow(["query_id", "rank", "candidate_id", "distance"])
        ties = 0
        for qid, q in zip(queries.ids, queries.descriptors):
            hits = rt.db_search(db, q, 9)
            for rank, (cid, dist) in enumerate(hits, start=1):
                w.writerow([qid, rank, cid, repr(dist)])
            ties += len({d for _, d in hits}) < len(hits)
        assert got == want.getvalue()
        assert ties > 0

    def test_empty_query_file_is_still_validated(self, tmp_path, capsys):
        """A query file with no rows gets the same checks as one with rows:
        k < 1 and an empty database exit 2, a valid search prints the bare
        header."""
        db_path, empty = tmp_path / "db.omdb", tmp_path / "none.omdb"
        io.save_descriptor_db(db_path, range(3), np.eye(3))
        io.save_descriptor_db(empty, [], np.zeros((0, 3)))
        one = tmp_path / "one.omdb"
        io.save_descriptor_db(one, [7], np.ones((1, 3)))
        for query in (one, empty):
            assert main(["search", "--db", str(db_path), "--query", str(query),
                         "--k", "0"]) == 2
            assert "k must be >= 1" in capsys.readouterr().err
            assert main(["search", "--db", str(empty), "--query", str(query),
                         "--k", "1"]) == 2
            assert "empty database" in capsys.readouterr().err
        assert main(["search", "--db", str(db_path), "--query", str(empty),
                     "--k", "1"]) == 0
        assert _stdout_csv(capsys) == [["query_id", "rank", "candidate_id", "distance"]]


class TestSparseLabels:
    @pytest.mark.parametrize("cleared", [(), ((3, 7),)])
    def test_dense_file_and_its_sparse_form_agree(self, workspace, tmp_path, capsys, cleared):
        # a pair no label names has overlap 0.0, so dropping the zero lines
        # changes neither the trained weights nor the loop-closure reports;
        # with a revisit cleared, no line of the sparse file names scans 3
        # and 7, and train still draws them as negatives from its images
        dense = [lab._replace(overlap=0.0) if (lab.query, lab.cand) in cleared else lab
                 for lab in _pair_loop_labels(workspace)]
        files = {"dense": dense, "sparse": [lab for lab in dense if lab.overlap > 0.0]}
        # a wider margin than the workspace's: with a revisit cleared, every
        # step would clamp there, and weights that never move compare equal
        config = tmp_path / "config.kv"
        config.write_text(_set_key(CONFIG_KV, "alpha", "1.0"))
        outs = {}
        for name, labels in files.items():
            path = tmp_path / f"{name}.txt"
            io.save_labels(path, labels)
            ck = tmp_path / f"ckpt_{name}"
            assert main(["train", "--config", str(config),
                         "--data", str(workspace / "ranges"),
                         "--labels", str(path), "--out", str(ck)]) == 0
            capsys.readouterr()
            reports = []
            for window in (0, 3):
                proto = tmp_path / f"loop_{window}.kv"
                proto.write_text(f"kind=loop_closure\nwindow={window}\n")
                assert main(["eval-loop", "--db", str(workspace / "db.omdb"),
                             "--poses", str(workspace / "world" / "poses.txt"),
                             "--labels", str(path), "--protocol", str(proto)]) == 0
                reports.append(capsys.readouterr().out)
            outs[name] = ((ck / "final.omck").read_bytes(),
                          (ck / "report.csv").read_bytes(), reports)
        assert len(files["sparse"]) == 4 - len(cleared)
        report = list(csv.reader(stdio.StringIO(outs["dense"][1].decode())))
        assert float(report[1][1]) > 0.0  # epoch 0's mean loss: the weights moved
        assert outs["sparse"] == outs["dense"]


class TestDeterminism:
    def test_train_embed_bit_identical(self, workspace, tmp_path):
        outs = []
        for run in ("a", "b"):
            ck = tmp_path / f"ckpt_{run}"
            db = tmp_path / f"db_{run}.omdb"
            assert main(["train", "--config", str(workspace / "config.kv"),
                         "--data", str(workspace / "ranges"),
                         "--labels", str(workspace / "labels.txt"),
                         "--out", str(ck)]) == 0
            assert main(["embed", "--ckpt", str(ck / "final.omck"),
                         "--ranges", str(workspace / "ranges"),
                         "--out", str(db)]) == 0
            outs.append(((ck / "final.omck").read_bytes(),
                         (ck / "report.csv").read_bytes(),
                         db.read_bytes()))
        assert outs[0] == outs[1]


class TestExitCodes:
    def test_contract_error_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.kv"
        bad.write_text("gravity=9.81\n")
        assert main(["synth", "--spec", str(bad),
                     "--out", str(tmp_path / "w")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_is_2(self, tmp_path, capsys):
        assert main(["search", "--db", str(tmp_path / "absent.omdb"),
                     "--query", str(tmp_path / "absent.omdb"), "--k", "1"]) == 2
        capsys.readouterr()

    def test_missing_model_geometry_is_2(self, workspace, tmp_path, capsys):
        bare = tmp_path / "bare.omck"
        bare.write_bytes((workspace / "ckpt" / "final.omck").read_bytes())
        rc = main(["embed", "--ckpt", str(bare),
                   "--ranges", str(workspace / "ranges"),
                   "--out", str(tmp_path / "db.omdb")])
        assert rc == 2
        assert "model.kv" in capsys.readouterr().err

    def test_degenerate_input_is_3(self, workspace, tmp_path, capsys):
        # a zeroed output layer collapses every descriptor to the zero vector
        # (a non-finite weight is a contract violation: see TestMalformedInputs)
        arrays = io.load_checkpoint(workspace / "ckpt" / "final.omck")
        arrays["gdg.mlp2.weight"] = np.zeros_like(arrays["gdg.mlp2.weight"])
        arrays["gdg.mlp2.bias"] = np.zeros_like(arrays["gdg.mlp2.bias"])
        poisoned = tmp_path / "poisoned"
        poisoned.mkdir()
        io.save_checkpoint(poisoned / "final.omck", arrays)
        (poisoned / "model.kv").write_bytes(
            (workspace / "ckpt" / "model.kv").read_bytes())
        rc = main(["embed", "--ckpt", str(poisoned / "final.omck"),
                   "--ranges", str(workspace / "ranges"),
                   "--out", str(tmp_path / "db.omdb")])
        assert rc == 3
        assert "degenerate" in capsys.readouterr().err

    def test_protocol_kind_mismatch_is_2(self, workspace, tmp_path, capsys):
        proto = tmp_path / "wrong.kv"
        proto.write_text("kind=place_recognition\n")
        rc = main(["eval-loop", "--db", str(workspace / "db.omdb"),
                   "--poses", str(workspace / "world" / "poses.txt"),
                   "--labels", str(workspace / "labels.txt"),
                   "--protocol", str(proto)])
        assert rc == 2
        capsys.readouterr()


class TestMalformedInputs:
    """Malformed files end in exit 2 with a one-line message."""

    @staticmethod
    def _assert_one_line_error(capsys):
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err

    @pytest.mark.parametrize("n_bytes", [4, 6, 11])
    def test_truncated_db_header_is_2(self, tmp_path, capsys, n_bytes):
        db = tmp_path / "short.omdb"
        db.write_bytes((b"OMDB" + bytes(8))[:n_bytes])
        assert main(["search", "--db", str(db), "--query", str(db),
                     "--k", "1"]) == 2
        self._assert_one_line_error(capsys)

    def test_truncated_range_header_is_2(self, workspace, tmp_path, capsys):
        ranges = tmp_path / "ranges"
        ranges.mkdir()
        (ranges / "range_0000.omrv").write_bytes(b"OMRV" + bytes(6))
        assert main(["embed", "--ckpt", str(workspace / "ckpt" / "final.omck"),
                     "--ranges", str(ranges),
                     "--out", str(tmp_path / "db.omdb")]) == 2
        self._assert_one_line_error(capsys)

    def test_repeated_checkpoint_tensor_is_2(self, workspace, tmp_path, capsys):
        # the checkpoint's first tensor record, appended a second time
        raw = (workspace / "ckpt" / "final.omck").read_bytes()
        (count,) = struct.unpack_from("<I", raw, 4)
        (name_len,) = struct.unpack_from("<H", raw, 8)
        ndim = raw[10 + name_len]
        shape = struct.unpack_from(f"<{ndim}I", raw, 11 + name_len)
        end = 11 + name_len + 4 * ndim + 4 * int(np.prod(shape))
        ckpt = tmp_path / "repeated.omck"
        ckpt.write_bytes(raw[:4] + struct.pack("<I", count + 1) + raw[8:] + raw[8:end])
        (tmp_path / "model.kv").write_bytes((workspace / "ckpt" / "model.kv").read_bytes())
        assert main(["embed", "--ckpt", str(ckpt), "--ranges", str(workspace / "ranges"),
                     "--out", str(tmp_path / "db.omdb")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "repeated.omck" in err and "appears more than once" in err

    def test_non_finite_checkpoint_tensor_is_2(self, workspace, tmp_path, capsys):
        # the checkpoint's first tensor record with its first value set to NaN
        raw = bytearray((workspace / "ckpt" / "final.omck").read_bytes())
        (name_len,) = struct.unpack_from("<H", raw, 8)
        name = raw[10:10 + name_len].decode("utf-8")
        ndim = raw[10 + name_len]
        struct.pack_into("<f", raw, 11 + name_len + 4 * ndim, float("nan"))
        ckpt = tmp_path / "nan.omck"
        ckpt.write_bytes(bytes(raw))
        (tmp_path / "model.kv").write_bytes((workspace / "ckpt" / "model.kv").read_bytes())
        assert main(["embed", "--ckpt", str(ckpt), "--ranges", str(workspace / "ranges"),
                     "--out", str(tmp_path / "db.omdb")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert f"nan.omck: tensor {name!r} is not finite" in err
        assert not (tmp_path / "db.omdb").exists()

    # (byte offset, f32 value): the header's r_max, or one range pixel
    MALFORMED_OMRV = {"r_max-zero": (12, 0.0), "r_max-nan": (12, float("nan")),
                      "r_max-negative": (12, -5.0), "pixel-inf": (36, float("inf")),
                      "pixel-nan": (36, float("nan"))}

    @pytest.mark.parametrize("command", ["embed", "train"])
    @pytest.mark.parametrize("case", sorted(MALFORMED_OMRV))
    def test_malformed_range_image_is_2(self, workspace, tmp_path, capsys,
                                        command, case):
        ranges = tmp_path / "ranges"
        ranges.mkdir()
        for src in sorted((workspace / "ranges").iterdir()):
            (ranges / src.name).write_bytes(src.read_bytes())
        bad = sorted(ranges.iterdir())[1]
        raw = bytearray(bad.read_bytes())
        struct.pack_into("<f", raw, *self.MALFORMED_OMRV[case])
        bad.write_bytes(bytes(raw))
        args = {"embed": ["embed", "--ckpt", str(workspace / "ckpt" / "final.omck"),
                          "--ranges", str(ranges), "--out", str(tmp_path / "db.omdb")],
                "train": ["train", "--config", str(workspace / "config.kv"),
                          "--data", str(ranges),
                          "--labels", str(workspace / "labels.txt"),
                          "--out", str(tmp_path / "ckpt")]}[command]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(args) == 2
        assert not caught, [str(w.message) for w in caught]
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert bad.name in err

    @pytest.mark.parametrize("command, rows", [("embed", 9), ("train", 9), ("train", 7)])
    def test_image_height_other_than_model_is_2(self, workspace, tmp_path, capsys,
                                                command, rows):
        # the workspace model is built for 8-row images
        ranges = tmp_path / "ranges"
        ranges.mkdir()
        for src in sorted((workspace / "ranges").iterdir()):
            ri = io.load_range_image(src)
            tall = np.concatenate([ri.ranges, ri.ranges], axis=0)[:rows]
            io.save_range_image(ranges / src.name, RangeImage(tall, r_max=ri.r_max))
        args = {"embed": ["embed", "--ckpt", str(workspace / "ckpt" / "final.omck"),
                          "--ranges", str(ranges), "--out", str(tmp_path / "db.omdb")],
                "train": ["train", "--config", str(workspace / "config.kv"),
                          "--data", str(ranges),
                          "--labels", str(workspace / "labels.txt"),
                          "--out", str(tmp_path / "ckpt")]}[command]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert f"{rows} rows, the model expects 8" in err
        assert not (tmp_path / "db.omdb").exists()
        assert not (tmp_path / "ckpt" / "final.omck").exists()

    def test_image_without_columns_is_2(self, workspace, tmp_path, capsys):
        # an 8x0 image: no tokens, so no descriptor
        ranges = tmp_path / "ranges"
        ranges.mkdir()
        io.save_range_image(ranges / "range_0000.omrv", RangeImage(np.zeros((8, 0)), r_max=50.0))
        assert main(["embed", "--ckpt", str(workspace / "ckpt" / "final.omck"),
                     "--ranges", str(ranges), "--out", str(tmp_path / "db.omdb")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "no columns" in err
        assert not (tmp_path / "db.omdb").exists()

    def test_id_beyond_u32_is_2_before_any_forward(self, workspace, tmp_path, capsys,
                                                   monkeypatch):
        ranges = tmp_path / "ranges"
        ranges.mkdir()
        for src in sorted((workspace / "ranges").iterdir()):
            (ranges / src.name).write_bytes(src.read_bytes())
        (ranges / "range_4294967296.omrv").write_bytes(src.read_bytes())
        forwards = []
        original = pl.model_forward
        monkeypatch.setattr(pl, "model_forward",
                            lambda *a, **kw: forwards.append(1) or original(*a, **kw))
        assert main(["embed", "--ckpt", str(workspace / "ckpt" / "final.omck"),
                     "--ranges", str(ranges), "--out", str(tmp_path / "db.omdb")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "unsigned 32-bit" in err and "range_4294967296.omrv" in err
        assert not (tmp_path / "db.omdb").exists()
        assert forwards == []

    def test_zero_dimension_db_is_2(self, tmp_path, capsys):
        # 3 entries of dimension 0: every distance would read 0.0
        db = tmp_path / "empty_dim.omdb"
        io.save_descriptor_db(db, [0, 1, 2], np.zeros((3, 0)))
        assert main(["search", "--db", str(db), "--query", str(db), "--k", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "dimension 0" in err

    @pytest.mark.parametrize("problem, message", [
        ("rows", "9 rows, the model expects 8"), ("missing_scan", "which has no range image"),
        ("columns_one", "scan 4 has 40 columns, the model expects 32"),
        ("columns_all", "40 columns, the model expects 32")])
    def test_rejected_train_writes_nothing(self, workspace, tmp_path, capsys, problem, message):
        ranges = tmp_path / "ranges"
        ranges.mkdir()
        for src in sorted((workspace / "ranges").iterdir()):
            ri = io.load_range_image(src)
            if problem == "rows":  # 9 rows for the workspace's 8-row model
                ri = RangeImage(np.concatenate([ri.ranges, ri.ranges[:1]], axis=0),
                                r_max=ri.r_max)
            if problem == "columns_all" or (problem == "columns_one"
                                            and src.name == "range_0004.omrv"):
                # 40 columns for the workspace's 32-column model
                ri = RangeImage(np.concatenate([ri.ranges, ri.ranges[:, :8]], axis=1),
                                r_max=ri.r_max)
            io.save_range_image(ranges / src.name, ri)
        if problem == "missing_scan":
            sorted(ranges.iterdir())[-1].unlink()
        out = tmp_path / "ckpt"
        assert main(["train", "--config", str(workspace / "config.kv"), "--data", str(ranges),
                     "--labels", str(workspace / "labels.txt"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert message in err
        assert not out.exists()

    def test_non_numeric_label_is_2(self, workspace, tmp_path, capsys):
        labels = tmp_path / "labels.txt"
        labels.write_text("0 4 0.5\n1 five 0.5\n")
        proto = tmp_path / "loop.kv"
        proto.write_text("kind=loop_closure\nwindow=3\n")
        assert main(["eval-loop", "--db", str(workspace / "db.omdb"),
                     "--poses", str(workspace / "world" / "poses.txt"),
                     "--labels", str(labels), "--protocol", str(proto)]) == 2
        self._assert_one_line_error(capsys)

    @pytest.mark.parametrize("overlap", ["nan", "inf", "-0.5", "1.5"])
    @pytest.mark.parametrize("command", ["train", "eval-loop"])
    def test_overlap_outside_unit_interval_is_2(self, workspace, tmp_path, capsys,
                                                command, overlap):
        # NaN would silently make the pair a negative, inf a positive
        labels = tmp_path / "labels.txt"
        labels.write_text(f"0 4 0.5\n1 5 {overlap}\n")
        proto = tmp_path / "loop.kv"
        proto.write_text("kind=loop_closure\nwindow=3\n")
        out = tmp_path / "ckpt"
        args = {"train": ["train", "--config", str(workspace / "config.kv"),
                          "--data", str(workspace / "ranges"), "--labels", str(labels),
                          "--out", str(out)],
                "eval-loop": ["eval-loop", "--db", str(workspace / "db.omdb"),
                              "--poses", str(workspace / "world" / "poses.txt"),
                              "--labels", str(labels), "--protocol", str(proto)]}[command]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert f"labels.txt:2: overlap {overlap} is outside [0, 1]" in err
        assert not out.exists()

    @pytest.mark.parametrize("sep", ["\x85", "\u2028"])
    def test_setting_line_ends_only_at_newline_is_2(self, workspace, tmp_path, capsys, sep):
        # split at sep, this would read as two valid settings
        proto = tmp_path / "loop.kv"
        proto.write_bytes(f"kind=loop_closure\nwindow=3{sep}distance_threshold=7.5\n"
                          .encode("utf-8"))
        assert main(["eval-loop", "--db", str(workspace / "db.omdb"),
                     "--poses", str(workspace / "world" / "poses.txt"),
                     "--labels", str(workspace / "labels.txt"),
                     "--protocol", str(proto)]) == 2
        self._assert_one_line_error(capsys)

    def test_non_numeric_pose_is_2(self, workspace, tmp_path, capsys):
        lines = (workspace / "world" / "poses.txt").read_text().splitlines()
        lines[1] = " ".join(["nope"] + lines[1].split()[1:])
        poses = tmp_path / "poses.txt"
        poses.write_text("\n".join(lines) + "\n")
        proto = tmp_path / "loop.kv"
        proto.write_text("kind=loop_closure\nwindow=3\n")
        assert main(["eval-loop", "--db", str(workspace / "db.omdb"),
                     "--poses", str(poses),
                     "--labels", str(workspace / "labels.txt"),
                     "--protocol", str(proto)]) == 2
        self._assert_one_line_error(capsys)

    def test_non_finite_descriptor_is_2(self, workspace, tmp_path, capsys):
        ids, desc = io.load_descriptor_db(workspace / "db.omdb")
        desc[3, 1] = np.nan
        db = tmp_path / "nan.omdb"
        io.save_descriptor_db(db, ids, desc)
        assert main(["search", "--db", str(db),
                     "--query", str(workspace / "db.omdb"), "--k", "2"]) == 2
        self._assert_one_line_error(capsys)
        proto = tmp_path / "loop.kv"
        proto.write_text("kind=loop_closure\nwindow=3\n")
        assert main(["eval-loop", "--db", str(db),
                     "--poses", str(workspace / "world" / "poses.txt"),
                     "--labels", str(workspace / "labels.txt"),
                     "--protocol", str(proto)]) == 2
        self._assert_one_line_error(capsys)

    def _overlaps(self, workspace, tmp_path, poses=None, config=None):
        world = workspace / "world"
        return main(["overlaps", "--scans", str(world),
                     "--poses", str(poses or world / "poses.txt"),
                     "--config", str(config or world / "sensor.kv"),
                     "--out", str(tmp_path / "labels.txt")])

    @pytest.mark.parametrize("field, token", [(3, "nan"), (7, "inf"), (0, "nan")])
    def test_non_finite_pose_is_2(self, workspace, tmp_path, capsys, field, token):
        lines = (workspace / "world" / "poses.txt").read_text().splitlines()
        vals = lines[2].split()
        vals[field] = token  # fields 3 and 7 are translations, 0 a rotation entry
        lines[2] = " ".join(vals)
        poses = tmp_path / "poses.txt"
        poses.write_text("\n".join(lines) + "\n")
        assert self._overlaps(workspace, tmp_path, poses=poses) == 2
        self._assert_one_line_error(capsys)
        assert not (tmp_path / "labels.txt").exists()

    def test_binary_config_is_2(self, workspace, tmp_path, capsys):
        config = tmp_path / "sensor.kv"
        config.write_bytes(bytes(range(256)))
        assert self._overlaps(workspace, tmp_path, config=config) == 2
        self._assert_one_line_error(capsys)

    def test_binary_pose_file_is_2(self, workspace, tmp_path, capsys):
        poses = tmp_path / "poses.txt"
        poses.write_bytes(b"\xff\xfe" + bytes(range(256)))
        assert self._overlaps(workspace, tmp_path, poses=poses) == 2
        self._assert_one_line_error(capsys)

    def _nan_sensor(self, workspace, tmp_path):
        config = tmp_path / "sensor.kv"
        text = (workspace / "world" / "sensor.kv").read_text()
        config.write_text(_set_key(text, "r_max", "nan"))
        return config

    def test_non_finite_sensor_config_project_is_2(self, workspace, tmp_path, capsys):
        config = self._nan_sensor(workspace, tmp_path)
        assert main(["project", "--scans", str(workspace / "world"),
                     "--config", str(config),
                     "--out", str(tmp_path / "ranges")]) == 2
        self._assert_one_line_error(capsys)

    def test_non_finite_sensor_config_overlaps_is_2(self, workspace, tmp_path, capsys):
        config = self._nan_sensor(workspace, tmp_path)
        assert self._overlaps(workspace, tmp_path, config=config) == 2
        self._assert_one_line_error(capsys)
        assert not (tmp_path / "labels.txt").exists()

    @pytest.mark.parametrize("key, value", [("r_max", "nan"), ("seed", "-1"),
                                            ("r_max", "5.0")])
    def test_bad_world_spec_is_2(self, tmp_path, capsys, key, value):
        spec = tmp_path / "world.kv"
        spec.write_text(_set_key(WORLD_KV, key, value))
        assert main(["synth", "--spec", str(spec),
                     "--out", str(tmp_path / "world")]) == 2
        self._assert_one_line_error(capsys)

    @pytest.mark.parametrize("settings", [
        {"r_max": "3.5e38", "place_spacing": "1e39"}, {"yaw_jitter": "1e308"},
        {"translation_jitter": "1e308"}, {"translation_jitter": "1e300"},
        {"place_spacing": "1e308"}], ids=lambda s: ",".join(f"{k}={v}" for k, v in s.items()))
    def test_world_spec_beyond_float_range_is_2(self, tmp_path, capsys, settings):
        # each once ended in a traceback, a numpy warning or a sensor.kv
        # that `project` could not use
        text = WORLD_KV
        for key, value in settings.items():
            text = _set_key(text, key, value)
        spec = tmp_path / "world.kv"
        spec.write_text(text)
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "world")]) == 2
        self._assert_one_line_error(capsys)
        assert not (tmp_path / "world").exists()

    def test_sensor_r_max_beyond_float32_project_is_2(self, workspace, tmp_path, capsys):
        # the .omrv header stores r_max as f32
        config = tmp_path / "sensor.kv"
        config.write_text(_set_key((workspace / "world" / "sensor.kv").read_text(),
                                   "r_max", "1e39"))
        assert main(["project", "--scans", str(workspace / "world"),
                     "--config", str(config), "--out", str(tmp_path / "ranges")]) == 2
        self._assert_one_line_error(capsys)
        assert not (tmp_path / "ranges").exists()

    def test_synth_into_used_directory_is_2(self, tmp_path, capsys):
        big, small = tmp_path / "big.kv", tmp_path / "small.kv"
        big.write_text(WORLD_KV)
        small.write_text(_set_key(WORLD_KV, "n_places", "2"))
        out = tmp_path / "world"
        assert main(["synth", "--spec", str(big), "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert main(["synth", "--spec", str(small), "--out", str(out)]) == 2
        self._assert_one_line_error(capsys)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_synth_beside_another_bin_file_is_2(self, tmp_path, capsys):
        # `project` reads every *.bin under --scans as a scan of the world
        spec = tmp_path / "world.kv"
        spec.write_text(WORLD_KV)
        out = tmp_path / "world"
        out.mkdir()
        (out / "old_0009.bin").write_bytes(bytes(16))
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 2
        self._assert_one_line_error(capsys)
        assert [p.name for p in out.iterdir()] == ["old_0009.bin"]

    def test_project_into_used_directory_is_2(self, workspace, tmp_path, capsys):
        # images a smaller world does not overwrite would outnumber its poses
        small = tmp_path / "small.kv"
        small.write_text(_set_key(WORLD_KV, "n_places", "2"))
        assert main(["synth", "--spec", str(small), "--out", str(tmp_path / "world")]) == 0
        out = tmp_path / "ranges"
        sensor = str(workspace / "world" / "sensor.kv")
        assert main(["project", "--scans", str(workspace / "world"),
                     "--config", sensor, "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert main(["project", "--scans", str(tmp_path / "world"),
                     "--config", sensor, "--out", str(out)]) == 2
        self._assert_one_line_error(capsys)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("key, value", [("lr", "nan"), ("alpha", "nan"),
                                            ("seed", "-3"), ("loss", "bogus"),
                                            ("olm_n", "0"), ("vlad_k", "0"),
                                            ("spp_kernel", "4")])
    def test_bad_train_config_is_2(self, workspace, tmp_path, capsys, key, value):
        config = tmp_path / "config.kv"
        config.write_text(_set_key(CONFIG_KV, key, value))
        assert main(["train", "--config", str(config),
                     "--data", str(workspace / "ranges"),
                     "--labels", str(workspace / "labels.txt"),
                     "--out", str(tmp_path / "ckpt")]) == 2
        self._assert_one_line_error(capsys)
        assert not (tmp_path / "ckpt").exists()

    def test_label_naming_scan_without_image_is_2(self, workspace, tmp_path, capsys):
        labels = tmp_path / "labels.txt"
        labels.write_text((workspace / "labels.txt").read_text() + "0 99 0.9\n")
        assert main(["train", "--config", str(workspace / "config.kv"),
                     "--data", str(workspace / "ranges"),
                     "--labels", str(labels),
                     "--out", str(tmp_path / "ckpt")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "query 0" in err and "scan 99" in err
        assert not (tmp_path / "ckpt" / "final.omck").exists()

    @pytest.mark.parametrize("line", ["0 99999999999999999999 0.9\n",
                                      "99999999999999999999 0 0.9\n"])
    def test_label_naming_an_id_beyond_int64_is_2(self, workspace, tmp_path, capsys, line):
        # ids stay Python ints on the way to the check that names the scan
        labels = tmp_path / "labels.txt"
        labels.write_text((workspace / "labels.txt").read_text() + line)
        out = tmp_path / "ckpt"
        assert main(["train", "--config", str(workspace / "config.kv"),
                     "--data", str(workspace / "ranges"),
                     "--labels", str(labels), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "scan 99999999999999999999" in err
        assert not out.exists()

    @pytest.mark.parametrize("which, keep", [("a", 0), ("b", 5)])
    def test_pose_count_mismatch_eval_place_is_2(self, workspace, tmp_path, capsys,
                                                 which, keep):
        proto = tmp_path / "place.kv"
        proto.write_text("kind=place_recognition\ndistance_threshold=10.0\n")
        poses = str(workspace / "world" / "poses.txt")
        lines = (workspace / "world" / "poses.txt").read_text().splitlines()
        short = tmp_path / "short.txt"
        short.write_text("".join(line + "\n" for line in lines[:keep]))
        paths = {"a": poses, "b": poses, which: str(short)}
        assert main(["eval-place", "--db", str(workspace / "db.omdb"),
                     "--query-db", str(workspace / "db.omdb"),
                     "--poses-a", paths["a"], "--poses-b", paths["b"],
                     "--protocol", str(proto)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {keep} poses for {len(lines)} descriptors\n", err

    def test_non_finite_distance_threshold_is_2(self, workspace, tmp_path, capsys):
        proto = tmp_path / "place.kv"
        proto.write_text("kind=place_recognition\ndistance_threshold=nan\n")
        poses = str(workspace / "world" / "poses.txt")
        assert main(["eval-place", "--db", str(workspace / "db.omdb"),
                     "--query-db", str(workspace / "db.omdb"),
                     "--poses-a", poses, "--poses-b", poses,
                     "--protocol", str(proto)]) == 2
        self._assert_one_line_error(capsys)

    def test_repeated_protocol_key_is_2(self, workspace, tmp_path, capsys):
        proto = tmp_path / "loop.kv"
        proto.write_text("kind=loop_closure\nwindow=1\nwindow=2\n")
        assert main(["eval-loop", "--db", str(workspace / "db.omdb"),
                     "--poses", str(workspace / "world" / "poses.txt"),
                     "--labels", str(workspace / "labels.txt"),
                     "--protocol", str(proto)]) == 2
        self._assert_one_line_error(capsys)

    def test_out_of_memory_is_2(self, workspace, tmp_path):
        # A child process under a 2 GiB address-space cap, so the image
        # allocation fails at once instead of being overcommitted; one BLAS
        # thread keeps numpy's own buffers well under the cap.
        config = tmp_path / "sensor.kv"
        text = (workspace / "world" / "sensor.kv").read_text()
        config.write_text(_set_key(text, "w", "1000000000000"))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        cap = 2 << 30
        proc = subprocess.run(
            [sys.executable, "-m", "rangeloop.cli", "project",
             "--scans", str(workspace / "world"), "--config", str(config),
             "--out", str(tmp_path / "ranges")],
            capture_output=True, text=True, timeout=120, env=env,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: out of memory:"), proc.stderr
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


class TestEntryPoint:
    def test_module_invocation_selfcheck(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rangeloop.cli", "selfcheck"],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "18/18 checks passed" in proc.stdout
