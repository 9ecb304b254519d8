"""Small shared helpers: seed derivation, canonical JSON, CSV text, atomic
binary files, correlation coefficients, running work in groups of like
items or in forked lanes, the read-only arrays of frozen value types, and
checking a config or a container's contents against a spec (``resolve``).

Every artifact file in the toolkit (models, plans, signatures, adversarial
batches) uses one container layout so round trips are bit-exact:

    magic "ZSTK" | u32 LE header length | header JSON (utf-8) | payload

The header records the container kind, a format version, a free-form
``meta`` dict, the ordered array directory (name/dtype/shape), and a
sha256 of the payload. Arrays are stored little-endian, C-order.
"""

import atexit
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
from dataclasses import MISSING, fields

import numpy as np

from .errors import ConfigError, IntegrityError, UndefinedCorrelationError, ZestError

_MAGIC = b"ZSTK"
_VERSION = 1

# dtypes allowed in containers; bools are widened to u1 on disk
_DTYPES = ("<f8", "<i8", "|u1")
F8, I8, U1 = map(np.dtype, _DTYPES)


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
    """Calls that run in forked workers while this process goes on: the one
    lane mechanism of ``nn.train_many``, the campaign's PGD and
    ``lime.sign_many``.

    ``run(fn, *args)`` returns a callable of no arguments that gives
    ``fn(*args)``: the result a worker pickled into its reply pipe, or, when
    ``lane_count()`` was 1, the fork failed, the call did not pickle, or the
    worker died, sent an incomplete reply or raised, ``fn(*args)`` called
    then in this process. So a deterministic error or warning surfaces where
    and as the in-process call raises it, under the caller's filters.

    A worker is a forked child that outlives the call: ``run`` streams
    ``(fn, args)`` down an idle worker's request pipe with ``pickle.dump``,
    forking a new one only when none is idle, and taking the result puts the
    worker back in this process's pool, which keeps at most
    ``lane_count() - 1`` idle workers. A worker runs the code as it stood
    when it was forked: ``fn`` and every function it calls are looked up in
    the worker's memory, not this process's. It runs under an "error"
    warnings filter, exits at EOF on its request pipe, leaves through
    ``os._exit`` and never returns into the caller's stack; one whose call
    failed is stopped. ``fn`` should return plain arrays and builtins:
    unpickling a value type skips its constructor, its checks and its
    read-only arrays. Leaving the ``with`` block, normally or by an
    exception, kills and reaps every worker whose result was not taken;
    ``close_lanes`` stops the idle ones, as this process's exit does, and a
    child this process forks starts with an empty pool.

    Lanes may share out work through this process's block queue: ``offer(n)``
    puts tokens 0..n-1 on it and returns its read end, which is passed to
    the calls, and each lane, this process's among them, ``claim``s the next
    token until none is left. The queue is a pipe made before this process
    forks its first worker, so every worker shares it. Its read end does not
    block and a claim is one 4-byte read, so it needs no lock that a killed
    worker could hold; a token a failed worker claimed is simply gone, and
    the caller must do that work itself.
    """

    def __init__(self):
        self._busy = []  # workers whose result is not taken

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._busy:
            worker = self._busy.pop()
            if worker in _workers:  # in a forked child, the parent's are not
                _stop(worker)

    def run(self, fn, *args):
        worker = (_idle.pop() if _idle else _fork()) if lane_count() > 1 else None
        if worker is None:
            return lambda: fn(*args)
        self._busy.append(worker)
        _, requests, replies = worker
        try:
            pickle.dump((fn, args), requests, protocol=pickle.HIGHEST_PROTOCOL)
            requests.flush()
        except Exception:  # not sent (unpicklable, or the worker is gone): run it here
            self._busy.remove(worker)
            _stop(worker)
            return lambda: fn(*args)

        def take():
            try:
                result = pickle.load(replies)  # the pipe is private to this process and its fork
            except (EOFError, pickle.UnpicklingError):
                self._busy.remove(worker)
                _stop(worker)
                return fn(*args)
            self._busy.remove(worker)
            if len(_idle) < lane_count() - 1:
                _idle.append(worker)
            else:
                _stop(worker, kill=False)
            return result

        return take


_workers = []  # (pid, request pipe, reply pipe) of each live worker of this process
_idle = []     # the idle ones, which the next call may take
_queue = None  # (pid, read end, write end, capacity in bytes) of the block queue


def _own_queue():
    """This process's block queue, made on first use: one a forked child
    inherits is its parent's, which a worker claims from but never offers on."""
    global _queue
    if _queue is None or _queue[0] != os.getpid():
        r, w = os.pipe()
        os.set_blocking(r, False)
        try:
            import fcntl  # only here: import zestkit does not load fcntl
            size = fcntl.fcntl(w, fcntl.F_GETPIPE_SZ)
        except (AttributeError, OSError):
            size = 4096  # a pipe holds at least a page
        _queue = (os.getpid(), r, w, size)
    return _queue


def offer(count: int):
    """Put tokens 0..count-1 on this process's block queue, after dropping any
    a failed call left there, and return the read end that ``claim`` takes;
    None when they would not all fit in the pipe at once, where the writer
    would wait for a reader."""
    _, r, w, size = _own_queue()
    try:
        while os.read(r, size):
            pass
    except BlockingIOError:
        pass  # empty
    if 4 * count > size:
        return None
    os.write(w, struct.pack(f"<{count}I", *range(count)))
    return r


def claim(queue):
    """The next token of the block queue whose read end is ``queue``, None
    when it is empty."""
    try:
        return struct.unpack("<I", os.read(queue, 4))[0]
    except BlockingIOError:
        return None


def close_lanes() -> None:
    """Stop and reap this process's idle workers."""
    while _idle:
        _stop(_idle.pop(), kill=False)


def _stop(worker, kill=True) -> None:
    """End ``worker`` and reap it: by SIGKILL, or, for an idle one, by the EOF
    on its request pipe that closing this end sends."""
    pid, requests, replies = worker
    _workers.remove(worker)
    if kill:
        from signal import SIGKILL  # only here: import zestkit does not load signal
        os.kill(pid, SIGKILL)
    try:
        requests.close()
    except BrokenPipeError:
        pass  # the rest of a call that was not sent
    replies.close()
    os.waitpid(pid, 0)


def _forget_workers() -> None:
    """In a forked child: drop the parent's workers, closing this copy of their
    pipes, so the child never writes to them and their EOF still comes when
    the parent closes or exits."""
    for _, requests, replies in _workers:
        requests.close()  # nothing buffered: a call is flushed or its worker stopped
        replies.close()
    _workers.clear()
    _idle.clear()


os.register_at_fork(after_in_child=_forget_workers)
atexit.register(close_lanes)


def _fork():
    """A new worker, None when the fork fails. It answers each ``(fn, args)``
    pickled on its request pipe with the pickle of ``fn(*args)`` on its reply
    pipe."""
    _own_queue()  # before the fork, so the worker shares it
    (call_r, call_w), (reply_r, reply_w) = os.pipe(), os.pipe()
    try:
        import fcntl  # only here: import zestkit does not load fcntl
        # room for a whole call and a whole reply, so neither writer waits for its reader:
        # taking the campaign's PGD lane (170 kB) went 4.4 -> 0.2 ms (2-vCPU x86_64)
        fcntl.fcntl(call_w, fcntl.F_SETPIPE_SZ, 1 << 20)
        fcntl.fcntl(reply_w, fcntl.F_SETPIPE_SZ, 1 << 20)
    except (AttributeError, OSError):
        pass  # the default size: a writer may wait for its reader
    try:
        pid = os.fork()
    except OSError:
        for fd in (call_r, call_w, reply_r, reply_w):
            os.close(fd)
        return None
    if pid == 0:  # the worker: exit 0 at EOF on its requests, 1 when a call fails
        status = 1
        try:
            os.close(call_w)
            os.close(reply_r)
            warnings.simplefilter("error")
            with open(call_r, "rb") as calls, open(reply_w, "wb") as replies:
                while calls.peek(1):  # b"" at EOF
                    fn, args = pickle.load(calls)
                    pickle.dump(fn(*args), replies, protocol=pickle.HIGHEST_PROTOCOL)
                    replies.flush()
                    del fn, args  # an idle worker holds no call's data
            status = 0
        finally:
            os._exit(status)
    os.close(call_r)
    os.close(reply_w)
    worker = (pid, open(call_w, "wb"), open(reply_r, "rb"))
    _workers.append(worker)
    return worker


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


def resolve(path, spec, value, stored=False):
    """``value`` checked against ``spec``, with every default filled in; raises
    ConfigError naming the path (as in ``config.lime: unknown keys ['x']``).

    A spec is int, float (an int or a float, resolved to a float), bool,
    str, another type (dict: an instance of it), an np.dtype (an array of
    exactly that dtype), a tuple of the names allowed, a one-item list (a list of that spec) or a block {key:
    (spec, default)}, where a default of ... marks a required key and one of
    None also admits null. A bool is neither an int nor a float here. A
    block's "kind" entry {name: block} picks its other keys by its kind, the
    first name when absent. A default goes through its spec too, so no
    resolved config shares a mutable default. ``stored`` resolves what a
    saver wrote: every key is required, and each value keeps its JSON type,
    so re-saving the result gives the same bytes.
    """
    if isinstance(spec, list):
        ok, expected = isinstance(value, list), "a list"
    elif isinstance(spec, dict):
        ok, expected = isinstance(value, dict), "an object"
    elif isinstance(spec, tuple):
        ok, expected = isinstance(value, str) and value in spec, f"one of {list(spec)}"
    elif isinstance(spec, np.dtype):
        ok, expected = isinstance(value, np.ndarray) and value.dtype == spec, f"{spec.str} array"
    else:
        ok, expected = (isinstance(value, (int, float) if spec is float else spec)
                        and isinstance(value, bool) == (spec is bool)), spec.__name__
    if not ok:
        shown = value.dtype.str if isinstance(value, np.ndarray) else value  # not its contents
        raise ConfigError(f"{path}: expected {expected}, got {shown!r}")
    if isinstance(spec, list):
        return [resolve(f"{path}[{i}]", spec[0], item, stored) for i, item in enumerate(value)]
    if not isinstance(spec, dict):
        try:
            number = float(value) if spec is float else value
        except OverflowError:
            raise ConfigError(f"{path}: expected float, got an int beyond its range") from None
        return value if stored else number
    if "kind" in spec:
        kinds = tuple(spec["kind"])
        kind = resolve(f"{path}.kind", kinds, value.get("kind", kinds[0]), stored)
        spec = {"kind": (kinds, kinds[0]), **spec["kind"][kind]}
    unknown = sorted(set(value) - set(spec), key=str)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}")
    resolved = {}
    for key, (item, default) in spec.items():
        given = value.get(key, ... if stored else default)
        if given is ...:
            raise ConfigError(f"{path}: missing key {key!r}")
        resolved[key] = (None if given is None and default is None
                         else resolve(f"{path}.{key}", item, given, stored))
    return resolved


def fields_spec(cls, **overrides) -> dict:
    """A ``resolve`` block of dataclass ``cls``'s fields: each field's
    annotation as its spec and its default as its default (... for none),
    then ``overrides``, {key: (spec, default)}, replacing or adding entries;
    an override of None drops its field."""
    block = {f.name: (f.type, ... if f.default is MISSING else f.default) for f in fields(cls)}
    block.update(overrides)
    return {key: entry for key, entry in block.items() if entry is not None}


def stored_fields(path, spec, meta, arrays) -> dict:
    """The ``meta`` and ``arrays`` that ``read_container`` gave for file
    ``path``, as one dict resolved against block ``spec``: its np.dtype
    entries name the arrays, each with the dtype its saver writes (F8, I8 or
    U1: a cast on load would re-save to other bytes), the others the meta
    keys. Both must hold exactly those keys, each of its type; values come
    back as stored. IntegrityError names the file."""
    is_array = {k: isinstance(v[0], np.dtype) for k, v in spec.items()}
    try:
        return {**resolve("arrays", {k: v for k, v in spec.items() if is_array[k]},
                          arrays, stored=True),
                **resolve("meta", {k: v for k, v in spec.items() if not is_array[k]},
                          meta, stored=True)}
    except ConfigError as e:
        raise IntegrityError(f"{path}: {e}") from None


def stored_value(path, make, *args, **kwargs):
    """``make(*args, **kwargs)``: the value a loader builds from the contents of
    file ``path``, where any toolkit error the value type raises (an empty id,
    a NaN weight, a short array, say) becomes an IntegrityError naming the
    file."""
    try:
        return make(*args, **kwargs)
    except ZestError as e:
        raise IntegrityError(f"{path}: {e}") from None


def read_container(path, kind: str):
    """Load a container, verifying magic, kind, and payload checksum.

    Returns ``(meta, arrays)``, which a loader checks with ``stored_fields``;
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
    arrays = {}
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
    return meta, arrays


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
