"""Round trips and error handling for every on-disk format."""

import dataclasses
import re
import struct

import numpy as np
import pytest

from rangeloop import io
from rangeloop.cli import _split_config
from rangeloop.errors import ConfigError, ContractError
from rangeloop.pipeline import ModelConfig, init_model, load_model
from rangeloop.rangeview import (OverlapLabel, Pose, ProjectionConfig, RangeImage,
                                 build_range_image, rotate_z)
from rangeloop.retrieval import DescriptorDb, EvalProtocol
from rangeloop.synthworld import WorldSpec
from rangeloop.tensor import Tensor
from rangeloop.training import TrainConfig


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(42)
        params = {
            "enc.w": Tensor(rng.standard_normal((3, 4)).astype(np.float32)),
            "enc.b": Tensor(rng.standard_normal(4).astype(np.float32)),
            "head.gain": Tensor(np.float32(2.5)),
        }
        path = tmp_path / "model.omck"
        io.save_checkpoint(path, params)
        loaded = io.load_checkpoint(path)
        assert set(loaded) == set(params)
        for name in params:
            np.testing.assert_array_equal(loaded[name], params[name].data)

    def test_float64_values_quantize_to_f32(self, tmp_path):
        params = {"w": Tensor(np.array([np.pi]))}
        path = tmp_path / "m.omck"
        io.save_checkpoint(path, params)
        loaded = io.load_checkpoint(path)
        np.testing.assert_array_equal(loaded["w"], np.array([np.pi], dtype=np.float32))

    def test_save_is_byte_deterministic(self, tmp_path):
        rng = np.random.default_rng(42)
        params = {f"p{i}": Tensor(rng.standard_normal(5)) for i in range(6)}
        a, b = tmp_path / "a.omck", tmp_path / "b.omck"
        io.save_checkpoint(a, params)
        io.save_checkpoint(b, dict(reversed(list(params.items()))))
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.omck"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ContractError, match="OMCK"):
            io.load_checkpoint(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "m.omck"
        path.write_bytes(b"OMCK\x01\x00")
        with pytest.raises(ContractError, match=r"truncated header \(6 of 8 bytes\)"):
            io.load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.omck"
        io.save_checkpoint(path, {"w": Tensor([1.0])})
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ContractError):
            io.load_checkpoint(path)

    def test_repeated_name_rejected(self, tmp_path):
        # two tensors named "w", holding 1.0 and then 2.0
        path = tmp_path / "m.omck"
        io.save_checkpoint(path, {"w": Tensor([1.0])})
        record = path.read_bytes()[8:]
        path.write_bytes(io.MAGIC_CKPT + struct.pack("<I", 2) + record
                         + record[:-4] + struct.pack("<f", 2.0))
        with pytest.raises(ContractError, match=r"m\.omck: tensor 'w' appears more than once"):
            io.load_checkpoint(path)


class TestRangeImageFile:
    def test_roundtrip_with_sentinels(self, tmp_path):
        rng = np.random.default_rng(42)
        ranges = rng.uniform(1.0, 50.0, size=(8, 16)).astype(np.float32).astype(np.float64)
        ranges[rng.random((8, 16)) < 0.3] = -1.0
        ri = RangeImage(ranges=ranges, r_max=50.0)
        path = tmp_path / "scan.omrv"
        io.save_range_image(path, ri)
        back = io.load_range_image(path)
        assert back.h == 8 and back.w == 16
        assert back.r_max == 50.0
        np.testing.assert_array_equal(back.ranges, ranges)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.omrv"
        path.write_bytes(b"XXXX" + b"\x00" * 12)
        with pytest.raises(ContractError, match="OMRV"):
            io.load_range_image(path)

    def test_truncated_payload_rejected(self, tmp_path):
        ri = RangeImage(ranges=np.ones((4, 4)), r_max=10.0)
        path = tmp_path / "t.omrv"
        io.save_range_image(path, ri)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ContractError):
            io.load_range_image(path)


class TestDescriptorDbFile:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(42)
        desc = rng.standard_normal((7, 16)).astype(np.float32).astype(np.float64)
        ids = [3, 1, 4, 15, 9, 2, 6]
        path = tmp_path / "db.omdb"
        io.save_descriptor_db(path, ids, desc)
        got_ids, got = io.load_descriptor_db(path)
        assert got_ids == ids
        np.testing.assert_array_equal(got, desc)

    def test_duplicate_ids_rejected(self, tmp_path):
        with pytest.raises(ContractError):
            io.save_descriptor_db(tmp_path / "d.omdb", [1, 1], np.zeros((2, 4)))

    def test_id_count_mismatch_rejected(self, tmp_path):
        with pytest.raises(ContractError):
            io.save_descriptor_db(tmp_path / "d.omdb", [1, 2, 3], np.zeros((2, 4)))

    @pytest.mark.parametrize("ids, dim", [([9, 0, 4294967295], 5), ([], 3)])
    def test_bytes_match_hand_packed_layout(self, tmp_path, ids, dim):
        rng = np.random.default_rng(42)
        desc = rng.standard_normal((len(ids), dim))
        want = b"OMDB" + struct.pack("<II", len(ids), dim) + b"".join(
            struct.pack("<I", i) + struct.pack(f"<{dim}f", *row)
            for i, row in zip(ids, desc)
        )
        path = tmp_path / "db.omdb"
        io.save_descriptor_db(path, ids, desc)
        assert path.read_bytes() == want
        got_ids, got = io.load_descriptor_db(path)
        assert got_ids == ids
        assert got.shape == (len(ids), dim)
        np.testing.assert_array_equal(got, desc.astype(np.float32))

    @pytest.mark.parametrize("bad", [-1, 2**32, np.int64(-1)])
    def test_id_outside_u32_rejected(self, tmp_path, bad):
        with pytest.raises(ContractError):
            io.save_descriptor_db(tmp_path / "d.omdb", [bad], np.zeros((1, 4)))

    def test_refusal_names_the_first_id_outside_u32(self):
        with pytest.raises(ContractError, match=r"^descriptor id 4294967296 does not fit"):
            io.check_db_ids([7, 2**32, -1])

    def test_huge_dimension_in_header_rejected(self, tmp_path):
        path = tmp_path / "d.omdb"
        path.write_bytes(b"OMDB" + struct.pack("<II", 0, 0xFFFFFFFF))
        with pytest.raises(ContractError, match="dimension"):
            io.load_descriptor_db(path)


class TestScanFile:
    def test_roundtrip_four_columns(self, tmp_path):
        rng = np.random.default_rng(42)
        pts = rng.standard_normal((20, 4)).astype(np.float32).astype(np.float64)
        path = tmp_path / "scan.bin"
        io.save_scan(path, pts)
        np.testing.assert_array_equal(io.load_scan(path), pts)

    def test_three_columns_gain_zero_intensity(self, tmp_path):
        pts = np.array([[1.0, 2.0, 3.0]])
        path = tmp_path / "scan.bin"
        io.save_scan(path, pts)
        back = io.load_scan(path)
        np.testing.assert_array_equal(back, [[1.0, 2.0, 3.0, 0.0]])

    def test_loaded_scan_is_read_only(self, tmp_path):
        path = tmp_path / "scan.bin"
        io.save_scan(path, np.ones((3, 4)))
        scan = io.load_scan(path)
        assert scan.flags.owndata
        with pytest.raises(ValueError, match="read-only"):
            scan[0, 0] = 2.0

    def test_ragged_byte_length_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 20)
        with pytest.raises(ContractError):
            io.load_scan(path)


class TestPoseFile:
    def test_roundtrip_exact(self, tmp_path):
        ang = 1.234
        c, s = np.cos(ang), np.sin(ang)
        poses = [
            Pose(rotation=np.eye(3), translation=np.array([1.5, -2.25, 0.125])),
            Pose(
                rotation=np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]]),
                translation=np.array([0.1, 0.2, 0.3]),
            ),
        ]
        path = tmp_path / "poses.txt"
        io.save_poses(path, poses)
        back = io.load_poses(path)
        assert len(back) == 2
        for got, want in zip(back, poses):
            np.testing.assert_array_equal(got.rotation, want.rotation)
            np.testing.assert_array_equal(got.translation, want.translation)

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "poses.txt"
        path.write_text("# r00 r01 r02 tx ...\n\n1 0 0 5 0 1 0 6 0 0 1 7\n  # end\n")
        (pose,) = io.load_poses(path)
        assert pose.translation.tolist() == [5.0, 6.0, 7.0]

    def test_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "poses.txt"
        path.write_text("1 0 0 0\n")
        with pytest.raises(ContractError, match="12"):
            io.load_poses(path)


class TestLabelFile:
    def test_roundtrip(self, tmp_path):
        labels = [OverlapLabel(0, 1, 0.875), OverlapLabel(2, 5, 0.0625)]
        path = tmp_path / "labels.txt"
        io.save_labels(path, labels)
        assert io.load_labels(path) == labels

    def test_numpy_scalars_roundtrip(self, tmp_path):
        # numpy scalars are written as the Python int and float they hold,
        # so the file reads back; Python-float labels keep their bytes
        path = tmp_path / "labels.txt"
        io.save_labels(path, [OverlapLabel(np.int64(0), np.int32(1), np.float64(0.1)),
                              OverlapLabel(2, 3, 0.1)])
        assert path.read_text() == "0 1 0.1\n2 3 0.1\n"
        assert io.load_labels(path) == [OverlapLabel(0, 1, 0.1), OverlapLabel(2, 3, 0.1)]

    @pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2049])
    def test_one_line_per_label_across_write_chunks(self, tmp_path, n):
        # lines are written 1,024 to a chunk: no line is lost or doubled at
        # a chunk's edge, and no labels write an empty file
        labels = [OverlapLabel(i, i + 1, 1.0 / (i + 1)) for i in range(n)]
        path = tmp_path / "labels.txt"
        io.save_labels(path, labels)
        assert path.read_text() == "".join("%d %d %r\n" % lab for lab in labels)

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("# header\n\n0 1 0.5\n")
        assert io.load_labels(path) == [OverlapLabel(0, 1, 0.5)]

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("0 1\n")
        with pytest.raises(ContractError):
            io.load_labels(path)


class TestPlaceIdFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "places.txt"
        io.save_place_ids(path, [5, 5, 7, 7, 7])
        assert io.load_place_ids(path) == [5, 5, 7, 7, 7]

    @pytest.mark.parametrize("text, message", [
        ("0 5\n0 7\n3 9\n", r"places\.txt:2: index 0 is repeated"),
        ("0 5\n2 7\n", r"places\.txt: index 1 is missing"),
        ("1 5\n-1 7\n", r"places\.txt: index 0 is missing"),
    ], ids=["repeated", "missing", "negative"])
    def test_indices_must_be_0_to_n_minus_1(self, tmp_path, text, message):
        path = tmp_path / "places.txt"
        path.write_text(text)
        with pytest.raises(ContractError, match=message):
            io.load_place_ids(path)

    @pytest.mark.parametrize("line", ["1 x", "1 2 3"])
    def test_malformed_line_rejected(self, tmp_path, line):
        path = tmp_path / "places.txt"
        path.write_text(f"0 4\n{line}\n")
        with pytest.raises(ContractError, match=r"places\.txt:2: "):
            io.load_place_ids(path)


@pytest.mark.parametrize("load", [io.load_kv_pairs, io.load_poses,
                                  io.load_labels, io.load_place_ids])
def test_text_loader_rejects_undecodable_bytes(tmp_path, load):
    path = tmp_path / "file.txt"
    path.write_bytes(b"0 1 0.5\n\xff\xfe\x00\x80\n")
    with pytest.raises(ContractError, match="not a UTF-8 text file"):
        load(path)


def test_text_loaders_break_lines_only_at_newlines(tmp_path):
    # \r\n and \r end a line, as in a text-mode read; a form feed or a
    # vertical tab inside a line is a blank between tokens
    path = tmp_path / "labels.txt"
    path.write_bytes(b"0 1\x0c0.5\r\n2 3\x0b0.25\r")
    assert io.load_labels(path) == [OverlapLabel(0, 1, 0.5), OverlapLabel(2, 3, 0.25)]
    path.write_bytes(b"0 1\x0c0.5\r\n2 3\x0b0.25\r4 5 x\n")
    with pytest.raises(ContractError, match=r"labels\.txt:3: "):
        io.load_labels(path)
    path = tmp_path / "places.txt"
    path.write_bytes(b"1\x0c8\r\n0\x1c7\n")
    assert io.load_place_ids(path) == [7, 8]
    path = tmp_path / "poses.txt"
    path.write_bytes(b"1 0 0 5\x0c0 1 0 6\xc2\x850 0 1 7\r\n")
    (pose,) = io.load_poses(path)
    assert pose.translation.tolist() == [5.0, 6.0, 7.0]


class TestKeyValueConfig:
    def test_parse_basics(self):
        text = "# comment\nloss=imtrihard\nalpha=0.25\n\nlr = 5e-6\n"
        kv = io.parse_kv_pairs(text)
        assert kv == [("loss", "imtrihard"), ("alpha", "0.25"), ("lr", "5e-6")]

    def test_value_may_contain_equals(self):
        assert io.parse_kv_pairs("stage=16,2,2") == [("stage", "16,2,2")]
        assert io.parse_kv_pairs("note=a=b") == [("note", "a=b")]

    def test_missing_equals_rejected(self):
        with pytest.raises(ContractError):
            io.parse_kv_pairs("just a line\n")

    # separators that str.splitlines breaks at and a "\n" split does not
    @pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                     "\u2028", "\u2029"])
    def test_lines_end_only_at_newlines(self, tmp_path, sep):
        text = f"epochs=1{sep}k_p=2\n"
        assert io.parse_kv_pairs(text) == [("epochs", f"1{sep}k_p=2")]
        path = tmp_path / "train.kv"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(ContractError, match="bad value for epochs"):
            io.config_from_pairs(TrainConfig, io.load_kv_pairs(path))

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.txt"
        io.save_kv(path, {"loss": "triplet", "alpha": 0.25})
        assert io.load_kv_pairs(path) == [("loss", "triplet"), ("alpha", "0.25")]


class TestConfigCodec:
    @pytest.mark.parametrize("cfg", [
        WorldSpec().projection_config(),
        ProjectionConfig(w=900, h=64, f_up=0.05, f_down=0.4, r_max=80.0),
        WorldSpec(),
        WorldSpec(seed=7, n_places=5, r_max=30.0, place_spacing=70.0, f_up=0.125),
        ModelConfig(),
        ModelConfig(h=8, w=32, stages=((8, 2, 2), (16, 2, 2), (16, 2, 2)),
                    spp_mode="add", olm_n=2, vlad_k=4, mlp_hidden=16, out_dim=8),
        TrainConfig(),
        TrainConfig(loss="triplet", alpha=0.3, lam=1e-3, lr=1e-4, epochs=5,
                    k_p=2, k_n=3, seed=9, overlap_threshold=0.4),
        EvalProtocol(),
        EvalProtocol(kind="place_recognition", window=0, distance_threshold=7.5,
                     query_step=5, db_step=2),
    ], ids=lambda cfg: type(cfg).__name__)
    def test_roundtrip(self, tmp_path, cfg):
        path = tmp_path / "cfg.kv"
        io.save_kv(path, io.config_pairs(cfg))
        assert io.config_from_pairs(type(cfg), io.load_kv_pairs(path)) == cfg

    def test_keys_follow_field_metadata(self):
        keys = [key for key, _ in io.config_pairs(TrainConfig())]
        assert "lambda" in keys and "lam" not in keys
        with pytest.raises(ContractError, match="unknown TrainConfig key 'lam'"):
            io.config_from_pairs(TrainConfig, [("lam", "0.1")])
        pairs = io.config_pairs(ModelConfig(h=4, stages=((4, 2, 2), (8, 2, 2))))
        assert [p for p in pairs if p[0] == "stage"] == [("stage", "4,2,2"),
                                                         ("stage", "8,2,2")]

    def test_missing_required_keys(self):
        with pytest.raises(ContractError, match=r"missing keys: \['f_down', 'r_max'\]"):
            io.config_from_pairs(ProjectionConfig,
                                 [("w", "32"), ("h", "8"), ("f_up", "0.3")])

    @pytest.mark.parametrize("cls, key", [(EvalProtocol, "window"),
                                          (TrainConfig, "lambda"),
                                          (WorldSpec, "seed")])
    def test_repeated_key_rejected(self, cls, key):
        with pytest.raises(ContractError, match=f"repeated {cls.__name__} key '{key}'"):
            io.config_from_pairs(cls, [(key, "1"), (key, "2")])

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_float_rejected(self, token):
        with pytest.raises(ContractError, match="must be finite"):
            io.config_from_pairs(EvalProtocol, [("distance_threshold", token)])

    @pytest.mark.parametrize("key, val", [("window", "1.5"), ("window", ""),
                                          ("distance_threshold", "far")])
    def test_unparsable_value_rejected(self, key, val):
        with pytest.raises(ContractError, match=f"bad value for {key}"):
            io.config_from_pairs(EvalProtocol, [(key, val)])

    @pytest.mark.parametrize("val", ["16,2,x", "16,,2", "nan,2,2"])
    def test_unparsable_stage_rejected(self, val):
        with pytest.raises(ContractError, match="bad value for stage"):
            io.config_from_pairs(ModelConfig, [("stage", val)])


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("cfg, field", [
    (WorldSpec().projection_config(), "f_up"),
    (WorldSpec().projection_config(), "f_down"),
    (WorldSpec().projection_config(), "r_max"),
    (WorldSpec(), "yaw_jitter"),
    (WorldSpec(), "translation_jitter"),
    (WorldSpec(), "place_spacing"),
    (WorldSpec(), "f_down"),
    (WorldSpec(), "r_max"),
    (TrainConfig(), "lr"),
    (TrainConfig(), "alpha"),
    (TrainConfig(), "lam"),
    # The loss settings once had a LossConfig of their own; its cases keep
    # that id and check the same fields with the other loss kind selected.
    pytest.param(TrainConfig(loss="triplet"), "alpha", id="LossConfig-alpha"),
    pytest.param(TrainConfig(loss="triplet"), "lam", id="LossConfig-lam"),
    (EvalProtocol(), "distance_threshold"),
], ids=lambda v: v if isinstance(v, str) else type(v).__name__)
def test_config_built_in_code_rejects_non_finite_float(cfg, field, value):
    with pytest.raises(ConfigError):
        dataclasses.replace(cfg, **{field: value})


# --------------------------------------------------------------------------
# every output is whole or absent


def _labels_then_failure(n):
    """n labels, then a failure part-way through the write."""
    for i in range(n):
        yield OverlapLabel(i, i + 1, 0.5)
    raise RuntimeError("payload failed")


class TestWholeOrAbsent:
    def test_failed_write_leaves_no_file_and_no_temporary(self, tmp_path):
        with pytest.raises(RuntimeError, match="payload failed"):
            io.save_labels(tmp_path / "labels.txt", _labels_then_failure(1000))
        assert list(tmp_path.iterdir()) == []

    def test_failed_rewrite_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "labels.txt"
        io.save_labels(path, [OverlapLabel(0, 1, 0.25)])
        old = path.read_bytes()
        with pytest.raises(RuntimeError, match="payload failed"):
            io.save_labels(path, _labels_then_failure(1000))
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["labels.txt"]

    @pytest.mark.parametrize("name", ["scan_0000.bin", "range_0000.omrv", "db.omdb"])
    def test_temporary_matches_no_reader_pattern(self, tmp_path, name):
        # `refuse_used_dir` globs *.bin and *.omrv, `cli._indexed_files`
        # filters names by suffix: a temporary must match neither
        seen = []

        def chunks():
            seen.extend(p.name for p in tmp_path.iterdir())
            yield b"x"

        io._write(tmp_path / name, chunks())
        assert len(seen) == 1 and not seen[0].endswith((".bin", ".omrv", ".omdb"))
        assert [p.name for p in tmp_path.iterdir()] == [name]


# --------------------------------------------------------------------------
# signalling NaNs in f32 payloads


def _poke_signalling_nan(path, offset):
    raw = bytearray(path.read_bytes())
    raw[offset:offset + 4] = struct.pack("<I", 0x7F800001)
    path.write_bytes(bytes(raw))


class TestSignallingNaNPayload:
    """A float32 signalling NaN reads as a quiet NaN, without numpy's
    invalid-cast warning, and then meets the checks any NaN meets."""

    def test_scan_point_is_dropped_by_the_projection(self, tmp_path):
        path = tmp_path / "scan.bin"
        io.save_scan(path, np.array([[1.0, 2.0, 3.0, 0.5], [4.0, -5.0, 0.5, 0.5]]))
        _poke_signalling_nan(path, 0)
        scan = io.load_scan(path)
        assert np.isnan(scan[0, 0]) and scan[1].tolist() == [4.0, -5.0, 0.5, 0.5]
        cfg = ProjectionConfig(w=32, h=8, f_up=0.3, f_down=0.3, r_max=50.0)
        np.testing.assert_array_equal(build_range_image(scan, cfg).ranges,
                                      build_range_image(scan[1:], cfg).ranges)

    def test_descriptor_db_is_rejected_as_non_finite(self, tmp_path):
        path = tmp_path / "db.omdb"
        io.save_descriptor_db(path, [7, 9], np.eye(2))
        _poke_signalling_nan(path, 16)  # entry 0's first value
        ids, desc = io.load_descriptor_db(path)
        assert ids == [7, 9] and np.isnan(desc[0, 0])
        with pytest.raises(ContractError, match="non-finite"):
            DescriptorDb.load(path)

    def test_checkpoint_is_rejected_as_non_finite(self, tmp_path):
        cfg = ModelConfig(h=8, w=32, stages=((8, 2, 2), (16, 2, 2), (16, 2, 2)),
                          olm_n=2, vlad_k=4, mlp_hidden=16, out_dim=8)
        path = tmp_path / "m.omck"
        io.save_checkpoint(path, init_model(cfg, seed=0))
        _poke_signalling_nan(path, path.stat().st_size - 4)  # the last tensor's last value
        arrays = io.load_checkpoint(path)
        assert np.isnan(arrays[max(arrays)].flat[-1])
        with pytest.raises(ContractError, match="is not finite"):
            load_model(path, cfg)


# --------------------------------------------------------------------------
# mutation sweep: every loader returns or raises ContractError, and the
# suite's warning filter turns any numpy RuntimeWarning into a failure


def _sweep(path, variants, load):
    """Write each variant to path and load it; the cases that raised
    anything but ContractError, with what they raised."""
    failures = []
    for name, data in variants:
        path.write_bytes(data)
        try:
            load(path)
        except ContractError:
            pass
        except Exception as exc:  # anything else is a finding
            failures.append((name, data, repr(exc)))
    return failures


# bits 0x7F000001: one flip of bit 23 makes this float32 a signalling NaN
_NEAR_SNAN = float(np.frombuffer(struct.pack("<I", 0x7F000001), dtype="<f4")[0])

_BINARY_FORMATS = {
    "omck": (lambda p: io.save_checkpoint(p, {"w": np.array([[1.0, -2.0, _NEAR_SNAN],
                                                             [0.5, 0.0, 3.0]]),
                                              "g": np.float64(2.5)}),
             io.load_checkpoint),
    "omrv": (lambda p: io.save_range_image(p, RangeImage(
        ranges=np.array([[1.0, -1.0, 2.5], [3.0, 49.0, -1.0]]), r_max=50.0)),
             io.load_range_image),
    "omdb": (lambda p: io.save_descriptor_db(p, [3, 1], np.array([[1.0, _NEAR_SNAN, -0.5],
                                                                  [0.0, 2.0, 1.0]])),
             DescriptorDb.load),
    "bin": (lambda p: io.save_scan(p, np.array([[1.0, 2.0, 3.0, 0.5],
                                                [_NEAR_SNAN, -4.0, 0.25, 1.0],
                                                [7.0, 0.0, -1.0, 0.0]])),
            io.load_scan),
}


@pytest.mark.parametrize("suffix", sorted(_BINARY_FORMATS))
def test_binary_mutation_sweep(tmp_path, suffix):
    """Every truncation and every single-bit flip of a small valid file."""
    save, load = _BINARY_FORMATS[suffix]
    path = tmp_path / f"file.{suffix}"
    save(path)
    raw = path.read_bytes()
    load(path)
    variants = [(f"first {n} bytes", raw[:n]) for n in range(len(raw))]
    for bit in range(8 * len(raw)):
        flipped = bytearray(raw)
        flipped[bit // 8] ^= 1 << (bit % 8)
        variants.append((f"bit {bit} flipped", bytes(flipped)))
    assert _sweep(path, variants, load) == []


_TOKENS = ["0", "-1", "99999999999999999999", "1e308", "nan", "inf", "x", "", "#", "\u00e9"]


def _config_format(*cfgs):
    """(save, load) of a config file holding each of ``cfgs``; one class is
    read by `config_from_pairs`, model plus training as `train` reads them."""
    pairs = [pair for cfg in cfgs for pair in io.config_pairs(cfg)]
    cls = type(cfgs[0])
    load = (_split_config if len(cfgs) > 1 else
            lambda path: io.config_from_pairs(cls, io.load_kv_pairs(path)))
    return lambda path: io.save_kv(path, pairs), load


_TEXT_FORMATS = {
    "poses": (lambda p: io.save_poses(p, [
        Pose(rotation=rotate_z(np.eye(3), 0.3), translation=np.array([1.5, -2.0, 0.25])),
        Pose(rotation=np.eye(3), translation=np.array([0.0, 30.0, -1.0]))]),
              io.load_poses),
    "labels": (lambda p: io.save_labels(p, [OverlapLabel(0, 1, 0.75), OverlapLabel(1, 0, 0.5),
                                            OverlapLabel(2, 3, 0.0)]),
               io.load_labels),
    "places": (lambda p: io.save_place_ids(p, [0, 0, 1, 2]), io.load_place_ids),
    "ProjectionConfig": _config_format(WorldSpec().projection_config()),
    "WorldSpec": _config_format(WorldSpec(n_places=3, visits_per_place=2, h=8, w=32)),
    "ModelConfig+TrainConfig": _config_format(
        ModelConfig(h=4, w=32, stages=((8, 2, 2), (16, 2, 2)), olm_n=2, vlad_k=4,
                    mlp_hidden=16, out_dim=8), TrainConfig()),
    "EvalProtocol": _config_format(EvalProtocol(kind="place_recognition")),
}


@pytest.mark.parametrize("kind", list(_TEXT_FORMATS))
def test_text_mutation_sweep(tmp_path, kind):
    """Every token of a small valid file (a run of characters other than
    blanks, "=" and ","), swapped in turn for each of `_TOKENS`."""
    save, load = _TEXT_FORMATS[kind]
    path = tmp_path / "file.txt"
    save(path)
    text = path.read_text()
    load(path)
    spans = [m.span() for m in re.finditer(r"[^\s=,]+", text)]
    variants = [(f"token {i} -> {new!r}", (text[:a] + new + text[b:]).encode("utf-8"))
                for i, (a, b) in enumerate(spans) for new in _TOKENS]
    assert _sweep(path, variants, load) == []
