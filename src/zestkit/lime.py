"""LIME signatures: kernel-weighted ridge fits over masked perturbations.

A signature characterizes a query-only classifier by N local linear models,
one per reference point. For each point, P binary segment masks are applied
(dropped segments replaced by the segment mean or zeros), the oracle is
queried on the masked inputs, and one ridge regression per class maps mask
bits to the returned probability. Masks, reference points, and regression
settings live in a PerturbationPlan; two signatures are comparable only if
they came from the same plan (enforced via a fingerprint).

Query cost per signature: N*P perturbation rows plus N baseline rows (the
unperturbed reference is sent once per point as the weighting anchor and
billed under its own ledger purpose, keeping the N*P headline comparable).
"""

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import (ComparabilityError, ConfigError, NumericalError, ShapeError,
                     TransportError)
from .nn import forward
from .oracle import QueryOracle
from .util import canonical_json, csv_text, derived_seed, read_container, write_container

REPLACEMENT_POLICIES = ("segment_mean", "zeros")


@dataclass(frozen=True)
class SegmentGrid:
    """Maps each feature index to one of S contiguous segments."""

    assignment: np.ndarray
    segment_count: int

    def __post_init__(self):
        a = np.ascontiguousarray(np.asarray(self.assignment, dtype=np.int64))
        if a.ndim != 1:
            raise ShapeError("segment assignment must be a vector")
        s = int(self.segment_count)
        present = np.unique(a)
        if s < 1 or present.size != s or present[0] != 0 or present[-1] != s - 1:
            raise ConfigError(f"segments must cover 0..{s - 1} contiguously")
        a.flags.writeable = False
        object.__setattr__(self, "assignment", a)
        object.__setattr__(self, "segment_count", s)

    @property
    def n_features(self) -> int:
        return self.assignment.shape[0]

    @classmethod
    def uniform(cls, n_features: int, segment_count: int = 16) -> "SegmentGrid":
        """Contiguous feature ranges of near-equal size."""
        if segment_count > n_features:
            raise ConfigError(
                f"cannot split {n_features} features into {segment_count} segments")
        bounds = np.linspace(0, n_features, segment_count + 1).astype(np.int64)
        assignment = np.zeros(n_features, dtype=np.int64)
        for s in range(segment_count):
            assignment[bounds[s]:bounds[s + 1]] = s
        return cls(assignment, segment_count)


@dataclass(frozen=True)
class LimeConfig:
    """Regression settings. kernel_width=None means 0.25*sqrt(S)."""

    perturbations: int = 1000
    kernel_width: float = None
    ridge: float = 1.0
    replacement: str = "segment_mean"

    def __post_init__(self):
        if self.perturbations < 1:
            raise ConfigError("perturbations must be >= 1")
        if self.kernel_width is not None and not self.kernel_width > 0:
            raise ConfigError("kernel_width must be > 0")
        if self.ridge < 0:
            raise ConfigError("ridge penalty cannot be negative")
        if self.replacement not in REPLACEMENT_POLICIES:
            raise ConfigError(f"unknown replacement policy {self.replacement!r}")

    def resolved_kernel_width(self, segment_count: int) -> float:
        if self.kernel_width is not None:
            return float(self.kernel_width)
        return 0.25 * float(np.sqrt(segment_count))


@dataclass(frozen=True)
class PerturbationPlan:
    """Seeded reference points + masks, shared across every model compared."""

    points: np.ndarray          # (N, d) reference inputs
    grid: SegmentGrid
    config: LimeConfig
    seed: int
    verified_model_ids: "tuple[str, ...]" = ()  # models that classified all points correctly
    _fingerprint: str = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=np.float64))
        if pts.ndim != 2:
            raise ShapeError("reference points must form a 2-D array")
        if pts.shape[1] != self.grid.n_features:
            raise ShapeError(
                f"points have {pts.shape[1]} features but grid covers {self.grid.n_features}")
        if self.config.perturbations < self.grid.segment_count:
            raise ConfigError("need perturbations >= segment count for a solvable regression")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "verified_model_ids", tuple(self.verified_model_ids))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def p(self) -> int:
        return self.config.perturbations

    @property
    def s(self) -> int:
        return self.grid.segment_count

    def mask_tensor(self) -> np.ndarray:
        """(N, P, S) binary masks; reproducible from (seed, N, P, S) alone."""
        rng = np.random.default_rng(derived_seed(self.seed, "plan.masks"))
        return rng.random((self.n, self.p, self.s)) < 0.5

    def fingerprint(self) -> str:
        """Hash pinning everything that shapes the queries and regression."""
        if self._fingerprint is None:
            payload = {
                "version": 1,
                "seed": self.seed,
                "n": self.n,
                "p": self.p,
                "s": self.s,
                "grid": self.grid.assignment.tolist(),
                "kernel_width": self.config.resolved_kernel_width(self.s),
                "ridge": self.config.ridge,
                "replacement": self.config.replacement,
                "points_sha256": hashlib.sha256(self.points.tobytes()).hexdigest(),
            }
            digest = hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
            object.__setattr__(self, "_fingerprint", digest)
        return self._fingerprint


def make_plan(data, n: int, grid: SegmentGrid, cfg: LimeConfig, seed: int,
              models=None) -> PerturbationPlan:
    """Sample N reference points from training data, deterministically.

    If ``models`` is given, sampling is restricted to points every model
    classifies correctly, and the plan records which models were checked.
    """
    if n < 1:
        raise ConfigError("n must be >= 1")
    if n > len(data):
        raise ConfigError(f"requested {n} reference points from {len(data)} rows")
    if data.points.shape[1] != grid.n_features:
        raise ShapeError("dataset feature count does not match the segment grid")

    eligible = np.arange(len(data))
    verified = ()
    if models:
        ok = np.ones(len(data), dtype=bool)
        for model in models:
            ok &= forward(model, data.points).argmax(axis=1) == data.labels
        eligible = np.flatnonzero(ok)
        if eligible.size < n:
            raise ConfigError(
                f"only {eligible.size} points are classified correctly by all "
                f"{len(models)} models; need {n}")
        verified = tuple(m.model_id for m in models)

    rng = np.random.default_rng(derived_seed(seed, "plan.points"))
    chosen = rng.choice(eligible, size=n, replace=False)
    return PerturbationPlan(data.points[chosen], grid, cfg, seed,
                            verified_model_ids=verified)


def apply_mask(x, mask, grid: SegmentGrid, policy: str = "segment_mean") -> np.ndarray:
    """Keep features in on-segments; replace off-segments per policy."""
    x = np.asarray(x, dtype=np.float64)
    mask = np.asarray(mask)
    if x.ndim != 1 or x.shape[0] != grid.n_features:
        raise ShapeError(f"x must be a vector of length {grid.n_features}")
    if mask.shape != (grid.segment_count,):
        raise ShapeError(f"mask must have {grid.segment_count} bits")
    return masked_batch(x, mask.astype(bool)[None, :], grid, policy)[0]


def _replacement_values(x: np.ndarray, grid: SegmentGrid, policy: str) -> np.ndarray:
    if policy == "zeros":
        return np.zeros(grid.segment_count)
    if policy == "segment_mean":
        sums = np.bincount(grid.assignment, weights=x, minlength=grid.segment_count)
        counts = np.bincount(grid.assignment, minlength=grid.segment_count)
        return sums / counts
    raise ConfigError(f"unknown replacement policy {policy!r}")


def masked_batch(x: np.ndarray, masks: np.ndarray, grid: SegmentGrid,
                 policy: str) -> np.ndarray:
    """All masked variants of one point at once; masks is (P, S) boolean."""
    repl = _replacement_values(x, grid, policy)
    keep = masks[:, grid.assignment]            # (P, d)
    fill = repl[grid.assignment]                # (d,)
    return np.where(keep, x[None, :], fill[None, :])


def mask_kernel_weights(masks: np.ndarray, kernel_width: float) -> np.ndarray:
    """exp(-d^2 / width^2) with d = cosine distance from the all-ones mask."""
    m = masks.astype(np.float64)
    s = m.shape[1]
    norms = np.sqrt((m * m).sum(axis=1)) * np.sqrt(s)
    with np.errstate(invalid="ignore", divide="ignore"):
        cos = np.where(norms > 0, m.sum(axis=1) / norms, 0.0)
    d = 1.0 - cos
    return np.exp(-(d * d) / (kernel_width * kernel_width))


@dataclass(frozen=True)
class PointModel:
    """One local linear model: K class rows over S segment coefficients."""

    coef: np.ndarray       # (K, S)
    intercept: np.ndarray  # (K,)

    def __post_init__(self):
        c = np.ascontiguousarray(np.asarray(self.coef, dtype=np.float64))
        b = np.ascontiguousarray(np.asarray(self.intercept, dtype=np.float64))
        if c.ndim != 2 or b.ndim != 1 or b.shape[0] != c.shape[0]:
            raise ShapeError(f"coef {c.shape} / intercept {b.shape} inconsistent")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(b))):
            raise NumericalError("point model has non-finite coefficients")
        c.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "coef", c)
        object.__setattr__(self, "intercept", b)


def _weighted_ridge(masks_f: np.ndarray, targets: np.ndarray, weights: np.ndarray,
                    ridge: float):
    """Solve the kernel-weighted ridge normal equations for all classes.

    Design matrix is [masks | 1]; the intercept column is unpenalized.
    Returns (coef (K, S), intercept (K,)).
    """
    p, s = masks_f.shape
    x = np.hstack([masks_f, np.ones((p, 1))])
    xw = x * weights[:, None]
    a = x.T @ xw
    a[np.arange(s), np.arange(s)] += ridge
    b = xw.T @ targets
    try:
        beta = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as e:
        raise NumericalError(
            "weighted ridge system is singular; set ridge > 0") from e
    if not np.all(np.isfinite(beta)):
        raise NumericalError("weighted ridge solve produced non-finite values; "
                             "set ridge > 0")
    return beta[:s].T, beta[s]


def fit_point_model(oracle: QueryOracle, x, masks, grid: SegmentGrid,
                    cfg: LimeConfig) -> PointModel:
    """Fit the local linear model at one reference point.

    Sends the unperturbed point once (billed as signature_baseline), then the
    P masked variants (billed as signature), and regresses each class
    probability on the mask bits.
    """
    x = np.asarray(x, dtype=np.float64)
    masks = np.asarray(masks, dtype=bool)
    if masks.ndim != 2 or masks.shape[1] != grid.segment_count:
        raise ShapeError(f"masks must be (P, {grid.segment_count})")
    if x.ndim != 1 or x.shape[0] != grid.n_features:
        raise ShapeError(f"x must be a vector of length {grid.n_features}")
    if oracle.input_dim != grid.n_features:
        raise ShapeError("oracle input_dim does not match the segment grid")

    oracle.predict_proba(x[None, :], purpose="signature_baseline")
    variants = masked_batch(x, masks, grid, cfg.replacement)
    targets = oracle.predict_proba(variants, purpose="signature")

    weights = mask_kernel_weights(masks, cfg.resolved_kernel_width(grid.segment_count))
    coef, intercept = _weighted_ridge(masks.astype(np.float64), targets, weights,
                                      cfg.ridge)
    return PointModel(coef, intercept)


@dataclass(frozen=True)
class Signature:
    """Ordered LIME point models for one classifier under one plan."""

    model_id: str
    plan_fingerprint: str
    point_models: "tuple[PointModel, ...]"

    def __post_init__(self):
        pms = tuple(self.point_models)
        if not pms:
            raise ShapeError("signature needs at least one point model")
        k, s = pms[0].coef.shape
        for pm in pms:
            if pm.coef.shape != (k, s):
                raise ShapeError("point models disagree on (classes, segments)")
        object.__setattr__(self, "point_models", pms)

    @property
    def n(self) -> int:
        return len(self.point_models)

    @property
    def class_count(self) -> int:
        return self.point_models[0].coef.shape[0]

    @property
    def segment_count(self) -> int:
        return self.point_models[0].coef.shape[1]

    def coef_tensor(self) -> np.ndarray:
        return np.stack([pm.coef for pm in self.point_models])

    def intercept_matrix(self) -> np.ndarray:
        return np.stack([pm.intercept for pm in self.point_models])

    def flatten(self, include_intercepts: bool = False) -> np.ndarray:
        """Point-major, then class, then segment; any fixed order works for
        the supported metrics, this one is pinned for reproducibility."""
        v = self.coef_tensor().reshape(-1)
        if include_intercepts:
            v = np.concatenate([v, self.intercept_matrix().reshape(-1)])
        return v


def compute_signature(oracle: QueryOracle, plan: PerturbationPlan) -> Signature:
    """Fit all N point models in plan order (ledger: N*P + N rows)."""
    if oracle.input_dim != plan.grid.n_features:
        raise ShapeError(
            f"oracle expects {oracle.input_dim} features, plan has {plan.grid.n_features}")
    masks = plan.mask_tensor()
    point_models = []
    for i in range(plan.n):
        try:
            point_models.append(
                fit_point_model(oracle, plan.points[i], masks[i], plan.grid, plan.config))
        except TransportError as e:
            e.points_completed = i
            raise
    return Signature(oracle.oracle_id, plan.fingerprint(), tuple(point_models))


def save_plan(plan: PerturbationPlan, path) -> None:
    meta = {
        "seed": plan.seed,
        "segment_count": plan.s,
        "config": {
            "perturbations": plan.config.perturbations,
            "kernel_width": plan.config.kernel_width,
            "ridge": plan.config.ridge,
            "replacement": plan.config.replacement,
        },
        "verified_model_ids": list(plan.verified_model_ids),
        "fingerprint": plan.fingerprint(),
    }
    arrays = {"points": plan.points, "grid_assignment": plan.grid.assignment}
    write_container(path, "perturbation-plan", meta, arrays)


def load_plan(path) -> PerturbationPlan:
    meta, arrays = read_container(path, "perturbation-plan")
    grid = SegmentGrid(arrays["grid_assignment"], meta["segment_count"])
    cfg = LimeConfig(**meta["config"])
    plan = PerturbationPlan(arrays["points"], grid, cfg, meta["seed"],
                            verified_model_ids=tuple(meta["verified_model_ids"]))
    if plan.fingerprint() != meta["fingerprint"]:
        raise ComparabilityError(f"{path}: stored fingerprint does not match contents")
    return plan


def save_signature(sig: Signature, path) -> None:
    meta = {
        "model_id": sig.model_id,
        "plan_fingerprint": sig.plan_fingerprint,
        "n": sig.n,
        "class_count": sig.class_count,
        "segment_count": sig.segment_count,
    }
    arrays = {"coef": sig.coef_tensor(), "intercept": sig.intercept_matrix()}
    write_container(path, "lime-signature", meta, arrays)


def load_signature(path) -> Signature:
    meta, arrays = read_container(path, "lime-signature")
    pms = tuple(PointModel(arrays["coef"][i], arrays["intercept"][i])
                for i in range(meta["n"]))
    return Signature(meta["model_id"], meta["plan_fingerprint"], pms)


def signature_summary_csv(sig: Signature) -> str:
    """Per-point coefficient norms, the human-readable companion file."""
    coefs = [pm.coef.reshape(-1) for pm in sig.point_models]
    return csv_text(["point", "coef_l1", "coef_l2", "coef_linf"],
                    ([i, repr(float(np.abs(c).sum())), repr(float(np.sqrt((c * c).sum()))),
                      repr(float(np.abs(c).max()))] for i, c in enumerate(coefs)))
