"""The benchmark's workloads: set-up, one op, and the check of its output.

Every workload is a closed loop with one caller: the next op starts when the
previous one returns. Inputs come from the workload seed only; zestkit sees
the generated data, models, plan and config, never the seed itself.

- ``sign-local``: ``compute_signature`` of a trained 16-feature, 3-class MLP
  through ``LocalOracle`` at N=128, P=1000, S=16. ``lime`` and ``nn.forward``
  do the work; oracle transport does none.
- ``sign-loopback``: the same model and plan through ``RemoteOracle`` against
  a ``ModelServer`` thread of this process on 127.0.0.1, one connection at a
  time. Oracle transport dominates.
- ``campaign``: ``run_campaign`` of the bundled config into a fresh directory
  with ``master_seed`` set to the workload seed. ``nn.train`` dominates and
  transport is bypassed.

BENCHMARK.json gates ``sign-local`` and ``campaign``. ``sign-loopback`` runs
only when named: on a shared 2-vCPU host its median op time moved by more
than a quarter between runs of the same code, wider than any bound the
gate allows.
"""

import hashlib
import json
import logging
import os
import shutil
import threading
import time
from dataclasses import dataclass

import zestkit as zk
import zestkit.oracle as oracle_mod
from zestkit.util import derived_seed

from spans import Span, Tracer, TracingOracle

SIGN_N, SIGN_P, SIGN_S = 128, 1000, 16
FEATURES, CLASSES, TRAIN_ROWS, NOISE = 16, 3, 600, 0.08


def signature_bytes(sig) -> bytes:
    """Coefficients and intercepts as raw float64 bytes: equal iff bitwise equal."""
    return sig.coef_tensor().tobytes() + sig.intercept_matrix().tobytes()


def bill_delta(before: dict, after: dict) -> dict:
    return {k: after[k] - before[k] for k in after}


def check_signing_bill(bill: dict, n: int, p: int) -> "list[str]":
    """N*P ``signature`` rows plus N ``signature_baseline`` rows, nothing else."""
    want = {"signature": n * p, "signature_baseline": n, "attack_eval": 0, "other": 0,
            "total": n * p + n}
    return [f"ledger {k}={bill.get(k)} expected {v}" for k, v in want.items()
            if bill.get(k) != v]


def check_same_bytes(label: str, got: bytes, want: bytes) -> "list[str]":
    return [] if got == want else [f"{label}: signature differs bitwise"]


class ServerCounters:
    """Requests and rows the loopback server was asked for, seen from outside.

    Requests are counted from the one DEBUG line per request that the
    server's handler logs on the ``zestkit.oracle`` logger; rows from the
    batches the server hands to ``zestkit.oracle.forward``.
    """

    def __init__(self):
        self.requests = 0
        self.rows = 0
        self._lock = threading.Lock()
        counters = self

        class _CountPosts(logging.Handler):
            def emit(self, record):
                if "POST /v1/predict" in record.getMessage():
                    with counters._lock:
                        counters.requests += 1

        self._handler = _CountPosts(logging.DEBUG)
        self._logger = logging.getLogger(oracle_mod.__name__)
        self._forward = None

    def install(self) -> None:
        self._level = self._logger.level
        self._logger.setLevel(logging.DEBUG)
        self._logger.addHandler(self._handler)
        self._forward = forward = oracle_mod.forward

        def counted_forward(model, batch):
            with self._lock:
                self.rows += len(batch)
            return forward(model, batch)

        oracle_mod.forward = counted_forward

    def uninstall(self) -> None:
        oracle_mod.forward = self._forward
        self._logger.removeHandler(self._handler)
        self._logger.setLevel(self._level)

    def snapshot(self) -> "tuple[int, int]":
        with self._lock:
            return self.requests, self.rows


@dataclass
class Outcome:
    """One op's wall time, victim bill and output-check errors."""

    seconds: float
    rows: int
    errors: "list[str]"
    ledger: dict
    requests: int = 0
    root: Span = None

    @property
    def traced(self) -> bool:
        return self.root is not None


def call_timed(tracer: Tracer, span_name: str, fn, *args):
    """``fn(*args)`` with its wall time; inside a root span when tracing."""
    t0 = time.perf_counter()
    root = tracer.open(span_name) if tracer else None
    try:
        out = fn(*args)
    finally:
        if root is not None:
            tracer.close(root)
    return out, time.perf_counter() - t0, root


class SignWorkload:
    """One signature per op, in process or over loopback HTTP."""

    def __init__(self, seed: int, loopback: bool):
        self.seed = seed
        self.loopback = loopback
        self.server = None
        self.counters = None
        self.first = None
        self.reference = None

    def setup(self) -> None:
        seed = self.seed
        centers = zk.blob_centers(CLASSES, FEATURES, derived_seed(seed, "data.centers"))
        data = zk.sample_blobs(centers, TRAIN_ROWS, NOISE, derived_seed(seed, "data.train"))
        self.victim = zk.train(
            data, zk.TrainConfig(hidden=(24,), epochs=40,
                                 rng_seed=derived_seed(seed, "train.victim")),
            model_id="victim")
        self.plan = zk.make_plan(data, SIGN_N, zk.SegmentGrid.uniform(FEATURES, SIGN_S),
                                 zk.LimeConfig(perturbations=SIGN_P),
                                 seed=derived_seed(seed, "plan"))
        if self.loopback:
            self.server = zk.ModelServer(self.victim, port=0).start()
            self.oracle = zk.RemoteOracle(zk.RemoteEndpoint(self.server.base_url))
            self.oracle.class_count  # first GET /v1/info: the server is answering
            self.counters = ServerCounters()
            self.counters.install()
        else:
            self.oracle = zk.LocalOracle(self.victim)

    def close(self) -> None:
        if self.counters is not None:
            self.counters.uninstall()
            self.counters = None
        if self.server is not None:
            self.server.stop()
            self.server = None

    def run_op(self, tracer: Tracer = None) -> Outcome:
        oracle = TracingOracle(self.oracle, tracer) if tracer else self.oracle
        before = self.oracle.ledger.snapshot()
        served = self.counters.snapshot() if self.counters else None
        requests = 0
        sig, seconds, root = call_timed(tracer, "lime.signature", zk.compute_signature,
                                        oracle, self.plan)
        bill = bill_delta(before, self.oracle.ledger.snapshot())
        if self.counters:
            requests, rows = (a - b for a, b in zip(self.counters.snapshot(), served))

        errors = check_signing_bill(bill, self.plan.n, self.plan.p)
        got = signature_bytes(sig)
        if self.first is None:
            self.first = got
        errors += check_same_bytes("repeat", got, self.first)
        if self.loopback:
            if self.reference is None:
                self.reference = signature_bytes(
                    zk.compute_signature(zk.LocalOracle(self.victim), self.plan))
            errors += check_same_bytes("loopback vs in-process", got, self.reference)
            if rows != bill["total"]:
                errors.append(f"client billed {bill['total']} rows, server was asked "
                              f"for {rows}")
        return Outcome(seconds, bill["total"], errors, bill, requests, root)


def tree_digest(root: str) -> str:
    """sha256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode("utf-8") + b"\0")
            with open(path, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def campaign_rows(config: dict) -> int:
    """Victim bill of one campaign: N*P + N signing rows, 2 rows per attack
    point per surrogate for transfer evaluation."""
    n, p = int(config["lime"]["n"]), int(config["lime"]["p"])
    return n * p + n + 2 * int(config["attack"]["points"]) * len(config["portfolio"])


class CampaignWorkload:
    """One bundled campaign per op, each into a fresh directory under ``workdir``."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.first = None
        self.count = 0

    def setup(self) -> None:
        config = zk.bundled_campaign_config()
        config["master_seed"] = self.seed
        self.config = config
        self.expected_rows = campaign_rows(config)
        os.makedirs(self.workdir, exist_ok=True)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def run_op(self, tracer: Tracer = None) -> Outcome:
        out_dir = os.path.join(self.workdir, f"op-{self.count}")
        self.count += 1
        result, seconds, root = call_timed(tracer, "experiment.run_campaign",
                                           zk.run_campaign, self.config, out_dir)

        errors = []
        with open(result.manifest_path, encoding="utf-8") as f:
            manifest = json.load(f)
        if manifest.get("status") != "ok":
            errors.append(f"manifest status {manifest.get('status')!r}")
        ledger = manifest.get("victim_ledger", {})
        if ledger.get("total") != self.expected_rows:
            errors.append(f"victim_ledger.total={ledger.get('total')} "
                          f"expected {self.expected_rows}")
        digest = tree_digest(out_dir)
        if self.first is None:
            self.first = digest
        if digest != self.first:
            errors.append("artifact tree differs from the run's first campaign")
        shutil.rmtree(out_dir)
        return Outcome(seconds, ledger.get("total", 0), errors, ledger, 0, root)


DEFAULT_SEEDS = {"sign-local": 7, "sign-loopback": 7, "campaign": 202}


def make_workload(name: str, seed: int, workdir: str):
    if name == "campaign":
        return CampaignWorkload(seed, workdir)
    return SignWorkload(seed, loopback=(name == "sign-loopback"))
