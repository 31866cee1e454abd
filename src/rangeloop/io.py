"""On-disk formats.

Every binary format but the scan file starts with a 4-byte ASCII magic and
a little-endian header, both checked before the payload is read:

* checkpoint ("OMCK"): u32 tensor count, then per tensor a u16 name byte
  length, the UTF-8 name, u8 ndim, u32 dims, and the f32 payload.
* range image ("OMRV"): u32 h, u32 w, f32 r_max, then h*w f32 ranges in
  row-major order with -1.0 marking pixels without a return.  r_max must be
  finite and positive and every pixel finite.
* descriptor database ("OMDB"): u32 count, u32 dim, then per entry a u32
  scan id and dim f32 values.
* scan file: raw f32 quadruples (x, y, z, intensity), no magic or header.

Every file is written whole or not at all: a temporary file beside it
takes its bytes and replaces it only once all are written.

Every text format is UTF-8 (bytes that do not decode are a contract
violation), ends a line at "\n", "\r\n" or "\r", and skips blank lines and
lines that start with "#":

* pose files: one scan per line, 12 floats, row-major 3x4 [R|t].
* overlap labels: lines "query_idx cand_idx overlap", the overlap in [0, 1].
  Read in order, a line (q, c, o) with q != c sets q's overlap with c, and
  c's overlap with q if nothing has set it yet; a line of a scan with
  itself is dropped.  So the last line naming a direction wins, and a
  direction no line names takes the first overlap given for its reverse.
  A pair that no line names has overlap 0.0.  `rangeview.overlap_table` is
  this rule, for training and evaluation.
* configs: "key=value" lines.  One codec serves every config dataclass
  (sensor geometry, world spec, model and training schedule, evaluation
  protocol): its keys and value types are the dataclass fields, so a new
  field is in the file format with no second edit.  A key may appear once,
  except a tuple field's (``stage``), which takes one comma-separated tuple
  per line; unknown keys, repeated keys, values that do not parse and
  non-finite floats are contract violations.

Reports (the training report, and what ``search``, ``eval-loop``,
``eval-place`` and ``bench`` print) are CSV text written by `report_text`
and read by no code here: comma-separated cells, each row ended by "\r\n",
a float as ``repr(float(x))`` so that it reads back to the same double.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
import pathlib
import struct
import typing
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .errors import ContractError
from .rangeview import OverlapLabel, Pose, RangeImage, immutable
from .tensor import Tensor

MAGIC_CKPT = b"OMCK"
MAGIC_RANGE = b"OMRV"
MAGIC_DB = b"OMDB"
# the header after each magic, for `_read_binary` and `_write_binary`
_HEADERS = {MAGIC_CKPT: struct.Struct("<I"), MAGIC_RANGE: struct.Struct("<IIf"),
            MAGIC_DB: struct.Struct("<II")}


def refuse_used_dir(out_dir, pattern: str) -> None:
    """Refuse an output directory holding files that match ``pattern``,
    before anything is written: those a smaller run leaves would stay."""
    used = list(pathlib.Path(out_dir).glob(pattern))
    if used:
        raise ContractError(f"{out_dir} already holds {len(used)} {pattern} files "
                            f"(first: {min(used).name}); write to a new directory")


def _write(path, chunks: Iterable[bytes]) -> None:
    """The one place a file is opened for writing: ``chunks`` go to a hidden
    ".tmp" file beside ``path``, renamed to it once all are written and
    removed if any fails.  No reader's glob or suffix matches that name."""
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    finally:  # after the rename, only a failed write leaves the temporary
        if os.path.lexists(tmp):
            os.remove(tmp)


def _write_binary(path, magic: bytes, fields, *payload) -> None:
    """``magic``, its header holding ``fields``, then the payload chunks."""
    _write(path, (magic, _HEADERS[magic].pack(*fields), *payload))


def _write_text(path, lines: Iterable[str]) -> None:
    """UTF-8, each line ended by "\n", encoded 1,024 lines at a time (not per line: slower)."""
    lines = iter(lines)
    blocks = iter(lambda: list(itertools.islice(lines, 1024)), [])
    _write(path, (("\n".join(block) + "\n").encode("utf-8") for block in blocks))


def _read_binary(path, magic: bytes):
    """A binary file's bytes, its header fields and the offset of its
    payload; a wrong magic or a short header is refused."""
    raw = pathlib.Path(path).read_bytes()
    end = 4 + _HEADERS[magic].size
    if raw[:4] != magic:
        raise ContractError(f"{path}: expected magic {magic.decode()!r}, found {raw[:4]!r}")
    if len(raw) < end:
        raise ContractError(f"{path}: truncated header ({len(raw)} of {end} bytes)")
    return raw, _HEADERS[magic].unpack_from(raw, 4), end


def _f64(payload: np.ndarray) -> np.ndarray:
    """f32 as float64, a signalling NaN as a quiet one without a warning."""
    with np.errstate(invalid="ignore"):
        return payload.astype(np.float64)


def _read_text(path) -> str:
    """A text file's contents, "\r\n" and "\r" read as "\n"; not UTF-8 is refused."""
    try:
        text = pathlib.Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ContractError(f"{path}: not a UTF-8 text file "
                            f"(byte {exc.start}: {exc.reason})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _lines(text: str) -> Iterable[Tuple[int, str]]:
    """(line number, stripped line) for each line neither blank nor a "#"
    comment; only "\n" ends a line, not the blanks `str.splitlines` splits at."""
    for ln, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield ln, line


# --------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, params) -> None:
    """Write named tensors (Tensor or ndarray values); names are sorted so
    output is byte-deterministic."""
    chunks = []
    for name, value in sorted(params.items()):
        data = np.asarray(value.data if isinstance(value, Tensor) else value, dtype="<f4")
        name_b = name.encode("utf-8")
        if len(name_b) > 0xFFFF:
            raise ContractError(f"tensor name too long: {name[:32]}...")
        if data.ndim > 0xFF:
            raise ContractError(f"tensor {name} has too many dims: {data.ndim}")
        chunks += [struct.pack(f"<H{len(name_b)}sB{data.ndim}I", len(name_b), name_b,
                               data.ndim, *data.shape), data.tobytes()]
    _write_binary(path, MAGIC_CKPT, (len(params),), *chunks)


def load_checkpoint(path) -> Dict[str, np.ndarray]:
    raw, (count,), off = _read_binary(path, MAGIC_CKPT)
    out: Dict[str, np.ndarray] = {}
    try:
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", raw, off)
            off += 2
            name = raw[off : off + name_len].decode("utf-8")
            off += name_len
            if name in out:
                raise ContractError(f"{path}: tensor {name!r} appears more than once")
            (ndim,) = struct.unpack_from("<B", raw, off)
            off += 1
            shape = struct.unpack_from(f"<{ndim}I", raw, off)
            off += 4 * ndim
            n = int(np.prod(shape)) if ndim else 1
            arr = np.frombuffer(raw, dtype="<f4", count=n, offset=off).reshape(shape)
            off += 4 * n
            out[name] = _f64(arr)
    except ContractError:
        raise
    except (struct.error, ValueError) as exc:
        raise ContractError(f"{path}: truncated or corrupt checkpoint: {exc}") from exc
    if off != len(raw):
        raise ContractError(f"{path}: {len(raw) - off} trailing bytes after {count} tensors")
    return out


# --------------------------------------------------------------------------
# range images


def save_range_image(path, ri: RangeImage) -> None:
    _write_binary(path, MAGIC_RANGE, (ri.h, ri.w, ri.r_max),
                  np.asarray(ri.ranges, dtype="<f4").tobytes())


def load_range_image(path) -> RangeImage:
    raw, (h, w, r_max), off = _read_binary(path, MAGIC_RANGE)
    if not 0.0 < r_max < math.inf:
        raise ContractError(f"{path}: r_max must be finite and > 0, got {r_max!r}")
    n = h * w
    if len(raw) != off + 4 * n:
        raise ContractError(f"{path}: size does not match {h}x{w} header")
    ranges = np.frombuffer(raw, dtype="<f4", count=n, offset=off).reshape(h, w)
    if not np.isfinite(ranges).all():
        raise ContractError(f"{path}: a range pixel is not finite")
    return RangeImage(ranges=ranges.astype(np.float64), r_max=float(r_max))


# --------------------------------------------------------------------------
# descriptor databases


def _db_dtype(path, dim: int) -> np.dtype:
    """One packed ``.omdb`` entry: a u32 scan id, then ``dim`` f32 values."""
    if 4 + 4 * dim > np.iinfo(np.intc).max:  # numpy's bound on a record size
        raise ContractError(f"{path}: descriptor dimension {dim} is too large")
    return np.dtype([("id", "<u4"), ("v", "<f4", (dim,))])


def check_db_ids(ids: Sequence[int]) -> None:
    """The ids an ``.omdb`` file can hold: unique, each in a u32 field."""
    if len(set(ids)) != len(ids):
        raise ContractError("descriptor ids must be unique")
    bad = next((i for i in ids if not 0 <= i <= 0xFFFFFFFF), None)
    if bad is not None:
        raise ContractError(f"descriptor id {bad} does not fit in an unsigned 32-bit field")


def save_descriptor_db(path, ids: Iterable[int], descriptors: np.ndarray) -> None:
    ids = list(ids)
    desc = np.asarray(descriptors, dtype="<f4")
    if desc.ndim != 2 or len(ids) != desc.shape[0]:
        raise ContractError(f"descriptor table {desc.shape} does not match {len(ids)} ids")
    check_db_ids(ids)
    entries = np.empty(len(ids), dtype=_db_dtype(path, desc.shape[1]))
    entries["id"] = ids
    entries["v"] = desc
    _write_binary(path, MAGIC_DB, desc.shape, entries.tobytes())


def load_descriptor_db(path) -> Tuple[List[int], np.ndarray]:
    raw, (count, dim), off = _read_binary(path, MAGIC_DB)
    if len(raw) != off + count * (4 + 4 * dim):
        raise ContractError(f"{path}: size does not match {count}x{dim} header")
    entries = np.frombuffer(raw, dtype=_db_dtype(path, dim), count=count, offset=off)
    return entries["id"].tolist(), _f64(entries["v"])


# --------------------------------------------------------------------------
# scans, poses, labels


def save_scan(path, points: np.ndarray) -> None:
    """Raw f32 quadruples; a missing intensity column is stored as zeros."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] not in (3, 4):
        raise ContractError(f"scan must be (N, 3) or (N, 4), got {pts.shape}")
    if pts.shape[1] == 3:
        pts = np.concatenate([pts, np.zeros((pts.shape[0], 1))], axis=1)
    _write(path, [pts.astype("<f4").tobytes()])


def load_scan(path) -> np.ndarray:
    """An (N, 4) float64 cloud, immutable (`rangeview.immutable`): edit a
    ``.copy()``."""
    raw = np.fromfile(path, dtype="<f4")
    if raw.size % 4 != 0:
        raise ContractError(f"{path}: byte length is not a multiple of 16")
    return immutable(_f64(raw.reshape(-1, 4)))


def save_poses(path, poses: Iterable[Pose]) -> None:
    _write_text(path, (" ".join(repr(float(x)) for x in np.concatenate(
        [p.rotation, p.translation[:, None]], axis=1).reshape(-1)) for p in poses))


def load_poses(path) -> List[Pose]:
    poses = []
    for ln, line in _lines(_read_text(path)):
        try:  # ContractError is a ValueError: each gets the path:line prefix
            vals = [float(t) for t in line.split()]
            if len(vals) != 12:
                raise ContractError(f"expected 12 floats, got {len(vals)}")
            m = np.array(vals).reshape(3, 4)
            poses.append(Pose(rotation=m[:, :3], translation=m[:, 3]))
        except ValueError as exc:
            raise ContractError(f"{path}:{ln}: {exc}") from None
    return poses


def save_labels(path, labels: Iterable[OverlapLabel]) -> None:
    """One line per label: integer ids and ``repr(float(overlap))``, so a
    numpy scalar is written as the Python number it holds."""
    _write_text(path, ("%d %d %r" % (q, c, float(o)) for q, c, o in labels))


def load_labels(path) -> List[OverlapLabel]:
    labels = []
    for ln, line in _lines(_read_text(path)):
        parts = line.split()
        if len(parts) != 3:
            raise ContractError(f"{path}:{ln}: expected 'query cand overlap'")
        try:
            lab = OverlapLabel(int(parts[0]), int(parts[1]), float(parts[2]))
        except ValueError as exc:
            raise ContractError(f"{path}:{ln}: {exc}") from None
        if not 0.0 <= lab.overlap <= 1.0:  # NaN fails too
            raise ContractError(f"{path}:{ln}: overlap {parts[2]} is outside [0, 1]")
        labels.append(lab)
    return labels


# --------------------------------------------------------------------------
# key=value configs


def parse_kv_pairs(text: str) -> List[Tuple[str, str]]:
    """Ordered (key, value) pairs; keys may repeat (e.g. one stage per line)."""
    out: List[Tuple[str, str]] = []
    for ln, line in _lines(text):
        if "=" not in line:
            raise ContractError(f"line {ln}: expected key=value, got {line!r}")
        key, val = line.split("=", 1)
        out.append((key.strip(), val.strip()))
    return out


def load_kv_pairs(path) -> List[Tuple[str, str]]:
    return parse_kv_pairs(_read_text(path))


def save_kv(path, entries) -> None:
    """entries: a mapping or an iterable of (key, value) pairs."""
    pairs = entries.items() if hasattr(entries, "items") else entries
    _write_text(path, (f"{key}={val}" for key, val in pairs))


def _config_keys(cls):
    """(key, field, type) for each field of a config dataclass."""
    hints = typing.get_type_hints(cls)
    return [(f.metadata.get("key", f.name), f, hints[f.name])
            for f in dataclasses.fields(cls)]


def _parse_scalar(typ, key: str, val: str):
    try:
        out = typ(val)
    except ValueError:
        raise ContractError(f"bad value for {key}: {val!r}") from None
    if typ is float and not math.isfinite(out):
        raise ContractError(f"{key} must be finite, got {val!r}")
    return out


def config_from_pairs(cls, pairs):
    """Build config dataclass `cls` from (key, value) string pairs.

    A field's key is its name, or ``metadata["key"]`` when set.  A ``tuple``
    field takes one comma-separated int tuple per line of its key; any other
    field takes exactly one line, parsed by its annotated type.  Unknown,
    repeated, unparsable and non-finite values are contract violations, as
    is a missing field that has no default.
    """
    fields = {key: (f, typ) for key, f, typ in _config_keys(cls)}
    values = {}
    for key, val in pairs:
        if key not in fields:
            raise ContractError(f"unknown {cls.__name__} key {key!r}")
        f, typ = fields[key]
        if typ is tuple:
            item = tuple(_parse_scalar(int, key, p) for p in val.split(","))
            values[f.name] = values.get(f.name, ()) + (item,)
        elif f.name in values:
            raise ContractError(f"repeated {cls.__name__} key {key!r}")
        else:
            values[f.name] = _parse_scalar(typ, key, val)
    missing = sorted(key for key, (f, _) in fields.items() if f.name not in values
                     and f.default is dataclasses.MISSING
                     and f.default_factory is dataclasses.MISSING)
    if missing:
        raise ContractError(f"{cls.__name__} is missing keys: {missing}")
    return cls(**values)


def config_pairs(cfg) -> List[Tuple[str, str]]:
    """(key, value) string pairs of a config dataclass, in field order; the
    inverse of `config_from_pairs`."""
    out = []
    for key, f, typ in _config_keys(type(cfg)):
        value = getattr(cfg, f.name)
        if typ is tuple:
            out += [(key, ",".join(str(v) for v in item)) for item in value]
        else:
            out.append((key, str(value)))
    return out


# --------------------------------------------------------------------------
# CSV reports


def report_cell(x) -> str:
    """A report cell: a bool as 0 or 1, a float as ``repr(float(x))``, so a
    numpy float64 is written as the Python number it holds, anything else
    as ``str``."""
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def report_text(header, rows) -> str:
    """A CSV report: ``header``, then ``rows``, each row's cells through
    `report_cell`, joined by "," and ended by "\r\n"; no report cell needs
    quoting.  A dataclass as ``header`` gives its field names, and each of
    ``rows`` is then one of its instances."""
    if dataclasses.is_dataclass(header):
        names = [f.name for f in dataclasses.fields(header)]
        header, rows = names, ([getattr(r, name) for name in names] for r in rows)
    return "".join(",".join(map(report_cell, row)) + "\r\n" for row in (header, *rows))
