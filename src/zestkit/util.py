"""Small shared helpers: seed derivation, canonical JSON, CSV text, atomic
binary files, correlation coefficients, running work in groups of like
items, and the read-only arrays of frozen value types.

Every artifact file in the toolkit (models, plans, signatures, adversarial
batches) uses one container layout so round trips are bit-exact:

    magic "ZSTK" | u32 LE header length | header JSON (utf-8) | payload

The header records the container kind, a format version, a free-form
``meta`` dict, the ordered array directory (name/dtype/shape), and a
sha256 of the payload. Arrays are stored little-endian, C-order.
"""

import csv
import hashlib
import io
import json
import os
import struct
import tempfile

import numpy as np

from .errors import ConfigError, IntegrityError, UndefinedCorrelationError

_MAGIC = b"ZSTK"
_VERSION = 1

# dtypes allowed in containers; bools are widened to u1 on disk
_DTYPES = {"<f8": np.float64, "<i8": np.int64, "|u1": np.uint8}


def derived_seed(master: int, label: str) -> int:
    """Deterministic child seed for a labeled pipeline stage."""
    digest = hashlib.sha256(f"{master}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(obj) -> str:
    """Stable hex digest of a JSON-serializable configuration."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def csv_text(header, rows) -> str:
    """Header plus rows in the toolkit's one CSV dialect: comma-separated,
    ``\\n`` line ends, a field quoted only where it needs it. Callers pass
    floats as ``repr`` strings so they round-trip exactly."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def owned_array(obj, name: str, dtype) -> np.ndarray:
    """Replace field ``name`` of frozen dataclass ``obj`` with a read-only,
    C-ordered, at-least-1-D ``dtype`` copy, and return that copy.

    Value types own their arrays this way: the caller's array is neither
    aliased nor made read-only.
    """
    arr = np.array(getattr(obj, name), dtype=dtype, order="C", ndmin=1)
    arr.flags.writeable = False
    object.__setattr__(obj, name, arr)
    return arr


def run_grouped(items, key, run) -> list:
    """``run(group)`` for each group of items with equal ``key(item)``.

    ``run`` returns one result per item of its group, in group order; the
    results come back in the order of ``items``.
    """
    groups = {}
    for i, item in enumerate(items):
        groups.setdefault(key(item), []).append(i)
    out = [None] * len(items)
    for idx in groups.values():
        for i, result in zip(idx, run([items[i] for i in idx])):
            out[i] = result
    return out


def pearson(xs, ys) -> float:
    """Sample Pearson correlation coefficient."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise ConfigError("pearson needs two equal-length vectors")
    if x.shape[0] < 2:
        raise ConfigError("pearson needs at least two samples")
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        raise UndefinedCorrelationError("correlation undefined for zero-variance input")
    r = float(dx @ dy) / float(np.sqrt(sxx * syy))
    return float(min(1.0, max(-1.0, r)))


def _average_ranks(values) -> np.ndarray:
    """1-based ranks; equal values share the mean of their positions."""
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="stable")
    sv = v[order]
    ranks = np.empty(v.shape[0])
    base = np.arange(1.0, v.shape[0] + 1.0)
    i = 0
    while i < v.shape[0]:
        j = i
        while j + 1 < v.shape[0] and sv[j + 1] == sv[i]:
            j += 1
        ranks[order[i:j + 1]] = base[i:j + 1].mean()
        i = j + 1
    return ranks


def spearman(xs, ys) -> float:
    """Spearman rank correlation (Pearson over average ranks)."""
    return pearson(_average_ranks(xs), _average_ranks(ys))


def atomic_write_bytes(path, data: bytes) -> None:
    """Write via temp file + rename so readers never see partial files."""
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=d)
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def _disk_dtype(arr: np.ndarray) -> str:
    if arr.dtype == np.bool_ or arr.dtype == np.uint8:
        return "|u1"
    if arr.dtype == np.float64:
        return "<f8"
    if arr.dtype == np.int64:
        return "<i8"
    raise TypeError(f"unsupported container dtype: {arr.dtype}")


def container_bytes(kind: str, meta: dict, arrays: "dict[str, np.ndarray]") -> bytes:
    """Serialize a container to bytes (deterministic for identical inputs)."""
    payload = bytearray()
    directory = []
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        dt = _disk_dtype(arr)
        payload += arr.astype(dt, copy=False).tobytes(order="C")
        directory.append({"name": name, "dtype": dt, "shape": list(arr.shape)})
    header = {
        "magic_kind": kind,
        "format_version": _VERSION,
        "meta": meta,
        "arrays": directory,
        "payload_sha256": hashlib.sha256(bytes(payload)).hexdigest(),
    }
    hdr = canonical_json(header).encode("utf-8")
    return _MAGIC + struct.pack("<I", len(hdr)) + hdr + bytes(payload)


def write_container(path, kind: str, meta: dict, arrays: "dict[str, np.ndarray]") -> None:
    atomic_write_bytes(path, container_bytes(kind, meta, arrays))


def read_container(path, kind: str):
    """Load a container, verifying magic, kind, and payload checksum.

    Returns ``(meta, arrays)``; bool arrays come back as uint8 and must be
    reinterpreted by the caller that stored them.
    """
    path = os.fspath(path)
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 8 or blob[:4] != _MAGIC:
        raise IntegrityError(f"{path}: not a toolkit container file")
    (hlen,) = struct.unpack("<I", blob[4:8])
    try:
        header = json.loads(blob[8:8 + hlen].decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as e:
        raise IntegrityError(f"{path}: corrupt container header ({e})") from e
    if header.get("magic_kind") != kind:
        raise IntegrityError(
            f"{path}: expected container kind {kind!r}, found {header.get('magic_kind')!r}")
    if header.get("format_version") != _VERSION:
        raise IntegrityError(f"{path}: unsupported format version {header.get('format_version')}")
    payload = blob[8 + hlen:]
    if hashlib.sha256(payload).hexdigest() != header.get("payload_sha256"):
        raise IntegrityError(f"{path}: payload checksum mismatch")
    arrays = {}
    offset = 0
    for entry in header["arrays"]:
        dt = _DTYPES[entry["dtype"]]
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * np.dtype(dt).itemsize
        if offset + nbytes > len(payload):
            raise IntegrityError(f"{path}: truncated payload for array {entry['name']!r}")
        arr = np.frombuffer(payload, dtype=entry["dtype"], count=count, offset=offset)
        arrays[entry["name"]] = arr.reshape(shape).copy()
        offset += nbytes
    return header["meta"], arrays


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
