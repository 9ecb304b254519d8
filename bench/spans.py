"""In-memory spans around calls into zestkit's modules, and their per-layer sums.

A span records name, start, end, parent and thread. The tracer wraps public
functions where their importer looks them up (for example
``zestkit.experiment.train``), so zestkit itself is unchanged: every span is
opened by the benchmark's own files. Spans stay in memory; the runner
reduces them when the run ends.

A span's layer is the part of its name before the first dot (``nn``,
``oracle``, ``lime``, ``attack``, ``zest``, ``util``, ``experiment``). Self
time is a span's duration minus the durations of its direct children. Spans
nest strictly within one thread, so the self times of every span in an op's
tree add up to the root span's duration.
"""

import math
import os
import statistics
import threading
import time

import zestkit.attack as attack
import zestkit.experiment as experiment
import zestkit.lime as lime
import zestkit.nn as nn
import zestkit.oracle as oracle
import zestkit.zest as zest
from zestkit.oracle import QueryOracle

LAYERS = ("nn", "oracle", "lime", "attack", "zest", "util", "experiment")


class Span:
    __slots__ = ("name", "parent", "thread", "start", "end", "attrs")

    def __init__(self, name, parent, thread, start):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = start
        self.end = start
        self.attrs = {}

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from every thread; the parent is the thread's open span."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()

    def open(self, name) -> Span:
        stack = self._local.__dict__.setdefault("stack", [])
        span = Span(name, stack[-1] if stack else None, threading.get_ident(),
                    time.perf_counter())
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._local.stack.pop()

    def wrap(self, fn, name, count=None):
        """``fn`` inside a span; ``count(args, kwargs)`` adds attributes after it."""
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            except Exception:
                span.attrs["failed"] = 1
                raise
            finally:
                self.close(span)
                if count is not None:
                    span.attrs.update(count(args, kwargs))
        traced.__wrapped__ = fn
        return traced


class TracingOracle(QueryOracle):
    """Delegates to another oracle, with a span and thread CPU time per call."""

    def __init__(self, inner: QueryOracle, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self.ledger = inner.ledger

    @property
    def class_count(self):
        return self._inner.class_count

    @property
    def input_dim(self):
        return self._inner.input_dim

    @property
    def oracle_id(self):
        return self._inner.oracle_id

    def predict_proba(self, batch, purpose="other"):
        span = self._tracer.open("oracle.predict")
        cpu0 = time.thread_time()
        try:
            return self._inner.predict_proba(batch, purpose)
        except Exception:
            span.attrs["failed"] = 1
            raise
        finally:
            span.attrs["cpu"] = time.thread_time() - cpu0
            self._tracer.close(span)
            span.attrs["rows"] = len(batch)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rows(args, kwargs):
    return {"rows": len(_arg(args, kwargs, 1, "batch"))}


def _sgd_steps(args, kwargs):
    data, cfg = _arg(args, kwargs, 0, "data"), _arg(args, kwargs, 1, "cfg")
    return {"steps": cfg.epochs * math.ceil(len(data) / cfg.batch_size)}


def _pgd_steps(args, kwargs):
    cfg = _arg(args, kwargs, 2, "cfg")
    return {"steps": cfg.steps * cfg.restarts}


def _file_bytes(args, kwargs):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


# (owner, attribute, span name, counter): each call through the owner's
# attribute is one span. Functions are wrapped in the namespace of the module
# that calls them, because that is where the call looks them up.
PATCHES = (
    (experiment, "train", "nn.train", _sgd_steps),
    (experiment, "blob_centers", "nn.sample_blobs", None),
    (experiment, "sample_blobs", "nn.sample_blobs", None),
    (experiment, "save_model", "nn.save_model", None),
    (experiment, "forward", "nn.forward", _rows),
    (lime, "forward", "nn.forward", _rows),
    (attack, "forward", "nn.forward", _rows),
    (oracle, "forward", "nn.forward", _rows),
    (attack, "input_gradient_batch", "nn.input_gradient", _rows),
    (attack, "cross_entropy", "nn.cross_entropy", _rows),
    (experiment, "make_plan", "lime.make_plan", None),
    (experiment, "save_plan", "lime.save_plan", None),
    (experiment, "save_signature", "lime.save_signature", None),
    (experiment, "compute_signature", "lime.signature", None),
    (lime, "fit_point_model", "lime.fit_point", None),
    (lime, "masked_batch", "lime.masked_batch", None),
    (lime, "mask_kernel_weights", "lime.kernel_weights", None),
    (lime.PerturbationPlan, "mask_tensor", "lime.mask_tensor", None),
    (experiment, "pgd", "attack.pgd", _pgd_steps),
    (experiment, "transfer_eval", "attack.transfer_eval", None),
    (experiment, "save_batch", "attack.save_batch", None),
    (experiment, "batch_summary_csv", "attack.batch_summary_csv", None),
    (experiment, "select_surrogate", "zest.select", None),
    (zest.SignatureStore, "put_signature", "zest.store_put", None),
    (nn, "write_container", "util.container_write", _file_bytes),
    (lime, "write_container", "util.container_write", _file_bytes),
    (attack, "write_container", "util.container_write", _file_bytes),
    (nn, "read_container", "util.container_read", _file_bytes),
    (lime, "read_container", "util.container_read", _file_bytes),
    (attack, "read_container", "util.container_read", _file_bytes),
)


class Instrumented:
    """Context manager: installs the PATCHES for one tracer and restores them.

    Oracles that ``run_campaign`` builds through ``local_oracle`` come back
    wrapped in a TracingOracle.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved = []

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        for owner, attr, name, count in PATCHES:
            self._set(owner, attr, self.tracer.wrap(getattr(owner, attr), name, count))
        make_local = experiment.local_oracle
        self._set(experiment, "local_oracle",
                  lambda *a, **k: TracingOracle(make_local(*a, **k), self.tracer))
        return self.tracer

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def op_tree(root: Span, spans) -> "list[Span]":
    """The root and every span below it (same thread, by parent links)."""
    members = {id(root)}
    tree = [root]
    for span in spans:
        if span.parent is not None and id(span.parent) in members:
            members.add(id(span))
            tree.append(span)
    return tree


def self_times(tree) -> "dict[int, float]":
    """id(span) -> duration minus the durations of its direct children."""
    out = {id(s): s.duration for s in tree}
    for s in tree:
        if s.parent is not None and id(s.parent) in out:
            out[id(s.parent)] -= s.duration
    return out


def window(root: Span, spans) -> "list[Span]":
    """Spans on any thread that started while the root was open."""
    return [s for s in spans if root.start <= s.start <= root.end]


def op_layer_sums(root: Span, spans) -> dict:
    """Per-op sums over one traced op: self time by layer, plus layer counters.

    ``spans`` is the tracer's list in opening order. Ops run one at a time,
    so the op's spans are the root's descendants on its thread, plus spans
    on other threads (the loopback server's) that started while it was open.
    """
    after = spans[spans.index(root):]
    tree = op_tree(root, after)
    selfs = self_times(tree)
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for s in tree:
        out[f"{s.layer}.self_s"] += selfs[id(s)]
    out["self_sum_s"] = sum(selfs.values())
    out["op_s"] = root.duration

    def total(name, key=None):
        return sum((s.attrs.get(key, 0) if key else s.duration)
                   for s in inside if s.name == name)

    inside = window(root, after)
    fits = [s for s in tree if s.name == "lime.fit_point"]
    out.update({
        "nn.forward_s": total("nn.forward"),
        "nn.forward_rows": total("nn.forward", "rows"),
        "oracle.predict_s": total("oracle.predict"),
        "oracle.predict_calls": sum(1 for s in inside if s.name == "oracle.predict"),
        "oracle.client_cpu_s": total("oracle.predict", "cpu"),
        "oracle.failures": total("oracle.predict", "failed"),
        "lime.mask_tensor_s": total("lime.mask_tensor"),
        "lime.masked_batch_s": total("lime.masked_batch"),
        "lime.kernel_weights_s": total("lime.kernel_weights"),
        "lime.fit_residual_s": sum(selfs[id(s)] for s in fits),
        "attack.transfer_eval_s": total("attack.transfer_eval"),
        "util.container_write_s": total("util.container_write"),
        "util.container_read_s": total("util.container_read"),
        "util.container_bytes": (total("util.container_write", "bytes")
                                 + total("util.container_read", "bytes")),
    })
    out["oracle.wait_s"] = out["oracle.predict_s"] - out["oracle.client_cpu_s"]
    return out


def per_call(spans, name, key=None) -> "list[float]":
    """Duration (or attribute ``key``) of every span called ``name``."""
    return [(s.attrs.get(key, 0) if key else s.duration)
            for s in spans if s.name == name]


def median_or_zero(values) -> float:
    return float(statistics.median(values)) if values else 0.0
