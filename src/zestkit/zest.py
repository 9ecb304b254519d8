"""Distances between signatures, a persistent portfolio, and argmin selection.

Distances act on the flattened coefficient tensors (intercepts excluded by
default) and are reported unnormalized; only relative order matters for
surrogate selection. Stored at full 64-bit precision; round for display.
"""

import hashlib
import os
import re
import threading
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ComparabilityError, ConfigError, IntegrityError, UndefinedDistanceError
from .lime import Signature, load_signature, save_signature, signature_summary_csv
from .util import atomic_write_text, csv_text, sha256_file


class DistanceMetric(str, Enum):
    L1 = "l1"
    L2 = "l2"
    LINF = "linf"
    COSINE = "cosine"

    @classmethod
    def parse(cls, name: str) -> "DistanceMetric":
        if isinstance(name, str):
            try:
                return cls(name.strip().lower())
            except ValueError:
                pass
        raise ConfigError(f"unknown metric {name!r}; choose from {[m.value for m in cls]}")


def vector_distance(va: np.ndarray, vb: np.ndarray, metric: DistanceMetric) -> float:
    """Metric on raw vectors; cosine is 1 - cos(angle), clamped to [0,2]."""
    metric = DistanceMetric.parse(metric)
    va = np.asarray(va, dtype=np.float64)
    vb = np.asarray(vb, dtype=np.float64)
    if va.shape != vb.shape:
        raise ComparabilityError(f"vector shapes differ: {va.shape} vs {vb.shape}")
    diff = va - vb
    if metric == DistanceMetric.L1:
        return float(np.abs(diff).sum())
    if metric == DistanceMetric.L2:
        return float(np.sqrt((diff * diff).sum()))
    if metric == DistanceMetric.LINF:
        return float(np.abs(diff).max())
    na2 = float(va @ va)
    nb2 = float(vb @ vb)
    if na2 == 0.0 or nb2 == 0.0:
        raise UndefinedDistanceError("cosine distance undefined for a zero-norm signature")
    # sqrt of the product of squared norms keeps d(v, v) exactly zero
    cos = float(va @ vb) / float(np.sqrt(na2 * nb2))
    return float(min(2.0, max(0.0, 1.0 - cos)))


def zest_distance(a: Signature, b: Signature, metric: DistanceMetric,
                  include_intercepts: bool = False) -> float:
    """Distance between two signatures built under the same plan."""
    metric = DistanceMetric.parse(metric)
    if a.plan_fingerprint != b.plan_fingerprint:
        raise ComparabilityError(
            f"signatures come from different plans "
            f"({a.plan_fingerprint[:12]} vs {b.plan_fingerprint[:12]})")
    return vector_distance(a.flatten(include_intercepts), b.flatten(include_intercepts),
                           metric)


@dataclass(frozen=True)
class DistanceReport:
    """All proxy distances to one victim, ascending."""

    victim_id: str
    metric: DistanceMetric
    plan_fingerprint: str
    entries: "tuple[tuple[str, float], ...]"  # (proxy_id, distance) sorted
    tie_flagged: bool = False

    def to_csv(self) -> str:
        return csv_text(["victim_id", "proxy_id", "metric", "distance", "rank"],
                        ([self.victim_id, proxy, self.metric.value, dist, rank]
                         for rank, (proxy, dist) in enumerate(self.entries, start=1)))


def _safe_filename(model_id: str) -> str:
    stem = re.sub(r"[^A-Za-z0-9._-]+", "_", model_id)[:80] or "sig"
    suffix = hashlib.sha256(model_id.encode("utf-8")).hexdigest()[:10]
    return f"{stem}-{suffix}.sig"


def check_model_id(model_id: str) -> str:
    """`model_id`, if a SignatureStore can index it: a string without a tab or
    line break, which would break its index.tsv line. Raises ConfigError
    otherwise."""
    if not isinstance(model_id, str):
        raise ConfigError(f"model id {model_id!r} is not a string")
    if any(c in model_id for c in "\t\r\n"):
        raise ConfigError(f"{SignatureStore.INDEX} cannot index {model_id!r}: tab or line break")
    return model_id


class SignatureStore:
    """Directory-backed signature library with an integrity-checked index.

    Writes are temp-file + rename, so concurrent readers only ever see
    complete files; one store instance may be shared across threads.
    """

    INDEX = "index.tsv"

    def __init__(self, root):
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)
        self._lock = threading.Lock()
        self._index = {}  # model_id -> (fingerprint, checksum, filename)
        self._load_index()

    def _index_path(self):
        return os.path.join(self.root, self.INDEX)

    def _load_index(self):
        path = self._index_path()
        if not os.path.exists(path):
            return
        with open(path, "r", encoding="utf-8") as f:
            for line in f:
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 4:
                    raise IntegrityError(f"{path}: malformed index line {line!r}")
                model_id, fingerprint, checksum, filename = parts
                self._index[model_id] = (fingerprint, checksum, filename)

    def _write_index(self):
        lines = [f"{mid}\t{fp}\t{ck}\t{fn}"
                 for mid, (fp, ck, fn) in sorted(self._index.items())]
        atomic_write_text(self._index_path(), "\n".join(lines) + ("\n" if lines else ""))

    def put_signature(self, sig: Signature) -> str:
        """Store (or overwrite) a signature; also writes the summary CSV."""
        filename = _safe_filename(check_model_id(sig.model_id))
        path = os.path.join(self.root, filename)
        save_signature(sig, path)
        atomic_write_text(path + ".summary.csv", signature_summary_csv(sig))
        checksum = sha256_file(path)
        with self._lock:
            self._index[sig.model_id] = (sig.plan_fingerprint, checksum, filename)
            self._write_index()
        return path

    def get_signature(self, model_id: str) -> Signature:
        with self._lock:
            entry = self._index.get(model_id)
        if entry is None:
            raise KeyError(f"no signature stored for {model_id!r}")
        fingerprint, checksum, filename = entry
        path = os.path.join(self.root, filename)
        if not os.path.exists(path):
            raise IntegrityError(f"{path}: file missing for indexed signature {model_id!r}")
        if sha256_file(path) != checksum:
            raise IntegrityError(f"{path}: checksum mismatch (corrupt signature file)")
        sig = load_signature(path)
        if sig.model_id != model_id or sig.plan_fingerprint != fingerprint:
            raise IntegrityError(f"{path}: contents disagree with the store index")
        return sig

    def model_ids(self) -> "list[str]":
        with self._lock:
            return sorted(self._index)

    def list_by_fingerprint(self, fingerprint: str) -> "list[str]":
        with self._lock:
            return sorted(mid for mid, (fp, _, _) in self._index.items()
                          if fp == fingerprint)


def rank_candidates(scored):
    """Sort (proxy_id, distance) pairs by distance then id; flag exact ties.

    This is the argmin rule every selection path goes through: smallest
    distance wins, equal distances fall back to lexicographic model id.
    """
    ordered = sorted(scored, key=lambda e: (e[1], e[0]))
    tie = len(ordered) > 1 and ordered[0][1] == ordered[1][1]
    return ordered, tie


def rank_signatures(candidates, victim: Signature, metric: DistanceMetric):
    """Pick the candidate signature closest to the victim's.

    Every candidate must come from the victim's plan, and candidate ids must
    be unique. Returns (proxy_id, DistanceReport).
    """
    metric = DistanceMetric.parse(metric)
    scored = [(sig.model_id, zest_distance(sig, victim, metric)) for sig in candidates]
    if not scored:
        raise ComparabilityError("no candidate signatures to rank")
    if len({proxy_id for proxy_id, _ in scored}) != len(scored):
        raise ConfigError("candidate signatures must have unique model ids")
    ordered, tie = rank_candidates(scored)
    report = DistanceReport(
        victim_id=victim.model_id,
        metric=metric,
        plan_fingerprint=victim.plan_fingerprint,
        entries=tuple(ordered),
        tie_flagged=tie,
    )
    return ordered[0][0], report


def select_surrogate(store: SignatureStore, victim: Signature, metric: DistanceMetric):
    """Pick the stored signature closest to the victim's, among those stored
    under the victim's plan fingerprint.

    Returns (proxy_id, DistanceReport).
    """
    metric = DistanceMetric.parse(metric)
    ids = store.list_by_fingerprint(victim.plan_fingerprint)
    if not ids:
        raise ComparabilityError(
            "store holds no signatures under the victim's plan fingerprint")
    return rank_signatures(map(store.get_signature, ids), victim, metric)
