"""Small shared helpers: seed derivation, canonical JSON, CSV text, atomic
binary files, correlation coefficients, running work in groups of like
items or in forked lanes, and the read-only arrays of frozen value types.

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
import math
import os
import pickle
import struct
import tempfile
import threading
import warnings

import numpy as np

from .errors import ConfigError, IntegrityError, UndefinedCorrelationError

_MAGIC = b"ZSTK"
_VERSION = 1

# dtypes allowed in containers; bools are widened to u1 on disk
_DTYPES = ("<f8", "<i8", "|u1")


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
    ``\\n`` line ends, a field quoted only where it needs it. Writers pass
    values: ``csv`` writes a float or numpy float64 as ``repr(float(x))``,
    which round-trips exactly, and a bool as ``True``/``False``."""
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


def lane_count() -> int:
    """How many lanes work may run in at once: the CPUs in this process's
    affinity set, or 1 where ``os.fork`` or ``os.sched_getaffinity`` is missing
    or another Python thread is alive: a lock that thread holds at a fork
    would stay held in the child."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) \
            or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


class ForkLanes:
    """Calls that run in forked children while this process goes on: the one
    lane mechanism of ``nn.train_many``, the campaign's PGD and
    ``lime.sign_many``.

    ``run(fn, *args)`` returns a callable of no arguments that gives
    ``fn(*args)``: the result a child pickled into its pipe, or, when
    ``lane_count()`` was 1, the fork failed, or the child exited non-zero or
    sent an incomplete pickle, ``fn(*args)`` called then in this process. So
    a deterministic error or warning surfaces where and as the in-process
    call raises it, under the caller's filters. A child runs under an
    "error" warnings filter and leaves through ``os._exit``: it never returns
    into the caller's stack. ``fn`` should return plain arrays and builtins:
    unpickling a value type skips its constructor, its checks and its
    read-only arrays. Leaving the ``with`` block, normally or by an
    exception, kills and reaps every child whose result was not taken.
    """

    def __init__(self):
        self._children = []  # (pid, read end of its pipe) of results not taken

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._children:
            from signal import SIGKILL  # only here: import zestkit does not load signal
            for pid, fd in self._children:
                os.close(fd)
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
            self._children.clear()

    def run(self, fn, *args):
        child = _fork(fn, args) if lane_count() > 1 else None
        if child is None:
            return lambda: fn(*args)
        self._children.append(child)

        def take():
            self._children.remove(child)
            return _take(*child, fn, args)

        return take


def _fork(fn, args):
    """(pid, read end of its pipe) of a forked child that pickles ``fn(*args)``
    into the pipe; None when the fork fails."""
    r, w = os.pipe()
    try:
        import fcntl  # only here: import zestkit does not load fcntl
        # room for the whole result, so a child done first exits before it is read:
        # taking the campaign's PGD lane (170 kB) went 4.4 -> 0.2 ms (2-vCPU x86_64)
        fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, 1 << 20)
    except (AttributeError, OSError):
        pass  # the default size: a child may wait for its reader
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid:
        os.close(w)
        return pid, r
    status = 1
    try:
        os.close(r)
        warnings.simplefilter("error")
        with open(w, "wb") as f:
            f.write(pickle.dumps(fn(*args), protocol=pickle.HIGHEST_PROTOCOL))
        status = 0
    finally:
        os._exit(status)


def _take(pid, fd, fn, args):
    """Read and reap a ``_fork`` child: the ``fn(*args)`` it sent if it sent a
    whole pickle and exited 0, else ``fn(*args)`` called here. The pipe is
    private to this process and its fork, so unpickling what it carries is
    safe."""
    try:
        with open(fd, "rb") as f:
            blob = f.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if status == 0:
        try:
            return pickle.loads(blob)
        except (EOFError, pickle.UnpicklingError):
            pass
    return fn(*args)


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


class _Entries(dict):
    """A container's meta or arrays: looking up a key it lacks raises IntegrityError."""

    def __init__(self, path, entries=()):
        super().__init__(entries)
        self.path = path

    def __missing__(self, key):
        raise IntegrityError(f"{self.path}: container lacks {key!r}")


def read_container(path, kind: str):
    """Load a container, verifying magic, kind, and payload checksum.

    Returns ``(meta, arrays)``, dicts whose missing key raises IntegrityError;
    bool arrays come back as uint8 and must be reinterpreted by the caller
    that stored them.
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
    if not isinstance(header, dict):
        raise IntegrityError(f"{path}: container header is not a JSON object")
    if header.get("magic_kind") != kind:
        raise IntegrityError(
            f"{path}: expected container kind {kind!r}, found {header.get('magic_kind')!r}")
    if header.get("format_version") != _VERSION:
        raise IntegrityError(f"{path}: unsupported format version {header.get('format_version')}")
    payload = blob[8 + hlen:]
    if hashlib.sha256(payload).hexdigest() != header.get("payload_sha256"):
        raise IntegrityError(f"{path}: payload checksum mismatch")
    meta, directory = header.get("meta"), header.get("arrays")
    if not isinstance(meta, dict):
        raise IntegrityError(f"{path}: header has no meta object")
    if not isinstance(directory, list):
        raise IntegrityError(f"{path}: header has no array list")
    arrays = _Entries(path)
    offset = 0
    for entry in directory:
        if not (isinstance(entry, dict) and {"name", "dtype", "shape"} <= entry.keys()):
            raise IntegrityError(f"{path}: array entry {entry!r} lacks a name, dtype or shape")
        dtype, shape = entry["dtype"], entry["shape"]
        if dtype not in _DTYPES or not (isinstance(shape, list)
                                        and all(type(n) is int and n >= 0 for n in shape)):
            raise IntegrityError(f"{path}: array {entry['name']!r} has unsupported dtype "
                                 f"{dtype!r} or shape {shape!r}")
        count = math.prod(shape)
        nbytes = count * np.dtype(dtype).itemsize
        if offset + nbytes > len(payload):
            raise IntegrityError(f"{path}: truncated payload for array {entry['name']!r}")
        arr = np.frombuffer(payload, dtype=dtype, count=count, offset=offset)
        arrays[entry["name"]] = arr.reshape(shape).copy()
        offset += nbytes
    return _Entries(path, meta), arrays


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
