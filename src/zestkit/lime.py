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

Everything that depends on the plan's masks alone (the masks, bit-packed,
their kernel weights and the ridge Gram matrices) is built once per plan, as
its PlanDesign, and reused by every signature taken under it.
"""

import hashlib
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import (ComparabilityError, ConfigError, IntegrityError, NumericalError,
                     ShapeError, TransportError)
from .nn import forward
from .oracle import LocalOracle, QueryOracle
from .util import (ForkLanes, canonical_json, csv_text, derived_seed, lane_count, owned_array,
                   read_container, write_container)

REPLACEMENT_POLICIES = ("segment_mean", "zeros")
# Answer rows a signing block holds, summed over the oracles it signs: the
# fastest of 1000-32768 rows at N=128, P=1000, S=16 with one oracle. A
# portfolio's block then holds no more answers than one oracle's, the
# scratch buffer a signing run reuses is sized by its largest block, and the
# Gram build works in blocks of BLOCK_ROWS / 4 mask rows. Blocks batch the
# local work only; the oracle is still called per point, because its output
# bits may depend on how many rows one call carries.
BLOCK_ROWS = 8192


@dataclass(frozen=True)
class SegmentGrid:
    """Maps each feature index to one of S segments; each of 0..S-1 holds one or more."""

    assignment: np.ndarray
    segment_count: int

    def __post_init__(self):
        a = owned_array(self, "assignment", np.int64)
        if a.ndim != 1:
            raise ShapeError("segment assignment must be a vector")
        s = int(self.segment_count)
        # each of 0..s-1 present, without np.unique, whose first call imports
        # numpy.ma; a.size >= s keeps the bincount no longer than `a`
        if (s < 1 or a.size < s or a.min() != 0 or a.max() != s - 1
                or not np.bincount(a).all()):
            raise ConfigError(f"segments must cover 0..{s - 1}")
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
        if not self.ridge >= 0:
            raise ConfigError("ridge penalty must be >= 0")
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
    _design: "PlanDesign" = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = owned_array(self, "points", np.float64)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ShapeError("reference points must form a 2-D array of at least one row")
        if pts.shape[1] != self.grid.n_features:
            raise ShapeError(
                f"points have {pts.shape[1]} features but grid covers {self.grid.n_features}")
        if self.config.perturbations < self.grid.segment_count:
            raise ConfigError("need perturbations >= segment count for a solvable regression")
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
        """(N, P, S) binary masks; reproducible from (seed, N, P, S) alone.

        Unpacked from the design on every call, into a new N*P*S-byte array.
        """
        return self.design().masks()

    def design(self) -> "PlanDesign":
        """The plan's PlanDesign, built on first use and kept on the plan."""
        if self._design is None:
            object.__setattr__(self, "_design", _build_design(*self._draw_masks(), self.s,
                                                              self.config))
        return self._design

    def _draw_masks(self) -> "tuple[np.ndarray, np.ndarray]":
        """The masks, as ``_pack`` gives them: each point's bits and counts of ones."""
        # one point at a time from one stream: the same bits as a single
        # rng.random((N, P, S)) < 0.5, packed as drawn, so neither its N*P*S
        # float64 transient nor the N*P*S bools ever exist
        rng = np.random.default_rng(derived_seed(self.seed, "plan.masks"))
        bits = np.empty((self.n, -(-self.p * self.s // 8)), dtype=np.uint8)
        ones = np.empty((self.n, self.p), dtype=np.min_scalar_type(self.s))
        draws = np.empty((self.p, self.s))
        point = np.empty((1, self.p, self.s), dtype=bool)
        for i in range(self.n):
            np.less(rng.random(out=draws), 0.5, out=point[0])
            bits[i:i + 1], ones[i:i + 1] = _pack(point)
        return bits, ones

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


def correct_by_all(models, data, need: int) -> np.ndarray:
    """Indices, in dataset order, of the rows every model classifies correctly.

    Raises ConfigError when fewer than ``need`` rows qualify.
    """
    ok = np.ones(len(data), dtype=bool)
    for model in models:
        ok &= forward(model, data.points).argmax(axis=1) == data.labels
    idx = np.flatnonzero(ok)
    if idx.size < need:
        raise ConfigError(f"only {idx.size} points are classified correctly by all "
                          f"{len(models)} models; need {need}")
    return idx


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
        eligible = correct_by_all(models, data, n)
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
                 policy: str, out: np.ndarray = None) -> np.ndarray:
    """All masked variants of one point, or of a stack of points, at once.

    x is (d,) with boolean masks (P, S), giving (P, d), or (B, d) with masks
    (B, P, S), giving (B, P, d). The result is written into ``out``, a
    float64 array of that shape, when one is given.

    Each output word is picked by a bit select on the float64 bit patterns,
    fill ^ ((x ^ fill) & -keep): exact for every pattern, -0.0 included, so
    the result is bitwise that of np.where(keep, x, fill).
    """
    x = np.asarray(x, dtype=np.float64)
    masks = np.asarray(masks, dtype=bool)
    repl = np.stack([_replacement_values(r, grid, policy)
                     for r in x.reshape(-1, grid.n_features)])
    fill = repl[:, grid.assignment].reshape(x.shape).view(np.uint64)[..., None, :]
    out = np.negative(masks.view(np.uint8)[..., grid.assignment], dtype=np.uint64,
                      out=None if out is None else out.view(np.uint64))
    out &= x.view(np.uint64)[..., None, :] ^ fill
    out ^= fill
    return out.view(np.float64)


def mask_kernel_weights(masks: np.ndarray, kernel_width: float) -> np.ndarray:
    """exp(-d^2 / width^2) with d = cosine distance from the all-ones mask.

    masks is (..., S); the weights have its leading shape. For a binary mask
    both sums below are exact integers, so its weight depends only on its
    count of ones: PlanDesign keeps one weight per count.
    """
    m = masks.astype(np.float64)
    s = m.shape[-1]
    norms = np.sqrt((m * m).sum(axis=-1)) * np.sqrt(s)
    with np.errstate(invalid="ignore", divide="ignore"):
        cos = np.where(norms > 0, m.sum(axis=-1) / norms, 0.0)
    d = 1.0 - cos
    return np.exp(-(d * d) / (kernel_width * kernel_width))


@dataclass(frozen=True)
class PointModel:
    """One local linear model: K class rows over S segment coefficients."""

    coef: np.ndarray       # (K, S)
    intercept: np.ndarray  # (K,)

    def __post_init__(self):
        c = owned_array(self, "coef", np.float64)
        b = owned_array(self, "intercept", np.float64)
        if c.ndim != 2 or b.ndim != 1 or b.shape[0] != c.shape[0]:
            raise ShapeError(f"coef {c.shape} / intercept {b.shape} inconsistent")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(b))):
            raise NumericalError("point model has non-finite coefficients")


@dataclass(frozen=True)
class PlanDesign:
    """What signing needs from a plan alone, for B points of P masks over S
    segments (read-only arrays).

    The regression's design matrix is [masks | 1]; the intercept column is
    unpenalized. The masks are kept packed, eight to a byte, and a mask's
    kernel weight is table[its count of ones]: B*ceil(P*S/8) + B*P +
    8*(S+1) + 8*B*(S+1)^2 bytes with S < 256, 0.65 MiB at N=128, P=1000,
    S=16. Signing unpacks one block at a time and builds the block's masked
    rows and weighted design in a scratch buffer of its own, one per
    signing run (_sign_points). Only _build_design makes a design, from
    arrays nothing else holds, so they are made read-only in place.
    """

    bits: np.ndarray    # (B, ceil(P*S/8)) uint8, each point's (P, S) masks packed little-endian
    ones: np.ndarray    # (B, P) each mask's count of ones, in the smallest uint dtype holding S
    table: np.ndarray   # (S+1,) the kernel weight of a mask with k ones
    grams: np.ndarray   # (B, S+1, S+1) [masks|1]^T W [masks|1], ridge on the mask diagonal

    def __post_init__(self):
        for arr in (self.bits, self.ones, self.table, self.grams):
            arr.flags.writeable = False

    def masks(self, blk: slice = slice(None)) -> np.ndarray:
        """(b, P, S) bool masks of the points in ``blk``, unpacked into a new array."""
        return _unpack(self.bits[blk], self.ones.shape[1], self.table.size - 1)


def _pack(masks: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """(B, P, S) bool masks as PlanDesign keeps them: the bits of each point,
    packed little-endian, (B, ceil(P*S/8)) uint8, and each mask's count of
    ones (B, P)."""
    b, p, s = masks.shape
    return (np.packbits(masks.reshape(b, p * s), axis=-1, bitorder="little"),
            masks.sum(axis=-1, dtype=np.min_scalar_type(s)))


def _unpack(bits: np.ndarray, p: int, s: int) -> np.ndarray:
    """The inverse of ``_pack``'s bits: (B, ceil(P*S/8)) uint8 -> (B, P, S) bool."""
    return (np.unpackbits(bits, axis=-1, count=p * s, bitorder="little")
            .view(bool).reshape(len(bits), p, s))


def _point_blocks(n: int, p: int):
    """Slices of consecutive points of ``p`` rows each, holding about
    BLOCK_ROWS rows (one point when ``p`` alone exceeds it)."""
    step = max(1, BLOCK_ROWS // p)
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _design_rows(masks: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """[masks | 1] as float64: (B, P, S) -> (B, P, S+1), into ``out`` when given."""
    x = np.empty(masks.shape[:-1] + (masks.shape[-1] + 1,)) if out is None else out
    x[..., :-1] = masks
    x[..., -1] = 1.0
    return x


def _ridge_solve(grams: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """np.linalg.solve over a stack of Grams, with the toolkit's errors."""
    try:
        beta = np.linalg.solve(grams, rhs)
    except np.linalg.LinAlgError as e:
        raise NumericalError(
            "weighted ridge system is singular; set ridge > 0") from e
    if not np.all(np.isfinite(beta)):
        raise NumericalError("weighted ridge solve produced non-finite values; "
                             "set ridge > 0")
    return beta


def _build_design(bits: np.ndarray, ones: np.ndarray, s: int, cfg: LimeConfig) -> PlanDesign:
    """PlanDesign of B points under P masks over S segments each, packed as
    ``_pack`` gives them; it takes ``bits`` and ``ones`` as they are.

    The weight table is mask_kernel_weights of S+1 masks with 0..S ones.
    The Grams are built in blocks of at most BLOCK_ROWS / 4 mask rows (one
    point when P alone exceeds that), each unpacked anew and holding two
    (rows, S+1) float temporaries, [masks | 1] and its weighted copy, with
    no scratch buffer: this runs once per plan. Blocks of BLOCK_ROWS / 2
    left the bundled campaign's peak RSS about 0.6 MiB higher.

    Raises NumericalError for a singular Gram here, before any query is sent.
    """
    b, p = ones.shape
    table = mask_kernel_weights(np.tri(s + 1, s, -1, dtype=bool), cfg.resolved_kernel_width(s))
    grams = np.empty((b, s + 1, s + 1))
    for blk in _point_blocks(b, 4 * p):
        x = _design_rows(_unpack(bits[blk], p, s))
        grams[blk] = np.swapaxes(x, 1, 2) @ (x * table[ones[blk]][..., None])
    grams[:, np.arange(s), np.arange(s)] += cfg.ridge
    _ridge_solve(grams, np.zeros((b, s + 1, 1)))
    return PlanDesign(bits, ones, table, grams)


def _sign_points(oracles, points: np.ndarray, design: PlanDesign, grid: SegmentGrid,
                 policy: str, blocks) -> "tuple[list[np.ndarray], list[np.ndarray]]":
    """Query and fit, for each oracle, the points of ``blocks``: consecutive
    slices of points (B, d), as ``_point_blocks`` gives them. Returns
    per-oracle coef (R, K, S) and intercept (R, K) for the R points the
    blocks cover, in order, where K is the oracle's class_count; a block
    whose answers have another width raises ShapeError.

    Each block takes one masked_batch call, then each oracle in turn gets,
    per point and in point order, the baseline row (billed as
    signature_baseline) and then the P masked rows (billed as signature).
    One weighted design serves every oracle's fit: the block's answers are
    joined along the class axis, so all oracles take one matmul and one
    stacked ridge solve, split into each oracle's arrays.

    The masked rows and then the weighted design are written into one
    float64 scratch buffer, allocated once per call and sized for the
    largest block, so no block faults in fresh pages for either. An oracle
    therefore must not keep the rows it is sent past its call.
    """
    p, d = design.ones.shape[1], points.shape[1]
    s = design.table.size - 1
    lo = blocks[0].start
    scratch = np.empty(max(blk.stop - blk.start for blk in blocks) * p * max(d, s + 1))
    classes = [oracle.class_count for oracle in oracles]
    coefs = [np.empty((blocks[-1].stop - lo, k, s)) for k in classes]
    intercepts = [np.empty(c.shape[:2]) for c in coefs]
    for blk in blocks:
        b = blk.stop - blk.start
        masks = design.masks(blk)
        variants = masked_batch(points[blk], masks, grid, policy,
                                out=scratch[:b * p * d].reshape(b, p, d))
        targets = []
        for oracle in oracles:
            answers = []
            for i, x, rows in zip(range(blk.start, blk.stop), points[blk], variants):
                try:
                    oracle.predict_proba(x[None, :], purpose="signature_baseline")
                    answers.append(oracle.predict_proba(rows, purpose="signature"))
                except TransportError as e:
                    e.points_completed = i
                    raise
            targets.append(np.stack(answers))
        if [t.shape[2] for t in targets] != classes:
            raise ShapeError("oracle answered with other than its class count")
        xw = _design_rows(masks, out=scratch[:b * p * (s + 1)].reshape(b, p, s + 1))
        xw *= design.table[design.ones[blk]][..., None]
        beta = _ridge_solve(design.grams[blk],
                            np.swapaxes(xw, 1, 2) @ np.concatenate(targets, axis=2))
        at = slice(blk.start - lo, blk.stop - lo)
        for coef, intercept, part in zip(coefs, intercepts,
                                         np.split(beta, np.cumsum(classes)[:-1], axis=2)):
            coef[at] = np.swapaxes(part[:, :s], 1, 2)
            intercept[at] = part[:, s]
    return coefs, intercepts


def _sign_lane(models, points, design, grid, policy, blocks):
    """``_sign_points`` through private LocalOracles of ``models``, plus each
    one's ledger breakdown: one lane of ``sign_many``, run in a forked worker
    or, when that fails, in this process."""
    oracles = [LocalOracle(model) for model in models]
    coefs, intercepts = _sign_points(oracles, points, design, grid, policy, blocks)
    return coefs, intercepts, [oracle.ledger.breakdown() for oracle in oracles]


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
    (coef,), (intercept,) = _sign_points([oracle], x[None, :],
                                         _build_design(*_pack(masks[None]),
                                                       grid.segment_count, cfg), grid,
                                         cfg.replacement, [slice(0, 1)])
    return PointModel(coef[0], intercept[0])


@dataclass(frozen=True, init=False)
class Signature:
    """The N local linear models of one classifier under one plan, as arrays.

    coef is (N, K, S) and intercept (N, K), read-only: the on-disk layout.
    Signature(model_id, plan_fingerprint, point_models) stacks per-point
    models; from_arrays wraps arrays as they are, which is how signing and
    load_signature build one.
    """

    model_id: str
    plan_fingerprint: str
    coef: np.ndarray       # (N, K, S)
    intercept: np.ndarray  # (N, K)

    def __init__(self, model_id: str, plan_fingerprint: str,
                 point_models: "tuple[PointModel, ...]"):
        pms = tuple(point_models)
        if not pms:
            raise ShapeError("signature needs at least one point model")
        if len({pm.coef.shape for pm in pms}) != 1:
            raise ShapeError("point models disagree on (classes, segments)")
        self._own(model_id, plan_fingerprint, np.stack([pm.coef for pm in pms]),
                  np.stack([pm.intercept for pm in pms]))

    @classmethod
    def from_arrays(cls, model_id: str, plan_fingerprint: str, coef,
                    intercept) -> "Signature":
        """A signature over read-only copies of coef (N, K, S) and intercept (N, K)."""
        sig = object.__new__(cls)
        sig._own(model_id, plan_fingerprint, coef, intercept)
        return sig

    def _own(self, model_id, plan_fingerprint, coef, intercept):
        object.__setattr__(self, "model_id", model_id)
        object.__setattr__(self, "plan_fingerprint", plan_fingerprint)
        object.__setattr__(self, "coef", coef)
        object.__setattr__(self, "intercept", intercept)
        c = owned_array(self, "coef", np.float64)
        b = owned_array(self, "intercept", np.float64)
        if c.ndim != 3 or c.shape[0] == 0 or b.shape != c.shape[:2]:
            raise ShapeError(f"signature coef {c.shape} / intercept {b.shape} must be "
                             "(N, K, S) / (N, K) with N >= 1")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(b))):
            raise NumericalError("signature has non-finite coefficients")

    @property
    def n(self) -> int:
        return self.coef.shape[0]

    @property
    def class_count(self) -> int:
        return self.coef.shape[1]

    @property
    def segment_count(self) -> int:
        return self.coef.shape[2]

    @property
    def point_models(self) -> "tuple[PointModel, ...]":
        return tuple(map(PointModel, self.coef, self.intercept))

    def coef_tensor(self) -> np.ndarray:
        return self.coef

    def intercept_matrix(self) -> np.ndarray:
        return self.intercept

    def flatten(self, include_intercepts: bool = False) -> np.ndarray:
        """Point-major, then class, then segment; any fixed order works for
        the supported metrics, this one is pinned for reproducibility."""
        v = self.coef.reshape(-1)
        if include_intercepts:
            v = np.concatenate([v, self.intercept.reshape(-1)])
        return v


def sign_many(oracles, plan: PerturbationPlan) -> "list[Signature]":
    """One signature per oracle, in input order, in one pass over the plan.

    Each block's masked rows are built once and sent to every oracle in
    turn; each oracle sees exactly the calls compute_signature would send it
    (ledger: N*P + N rows each), so each signature is bitwise its solo one.

    A block holds about BLOCK_ROWS answer rows across all the oracles (P
    rows each per point; one point when a point's rows alone exceed that),
    so a portfolio's block has as many answers in memory as one oracle's.

    When every oracle is exactly a LocalOracle, whose answers depend only on
    its model and the rows, the blocks are split into one contiguous run
    per lane. The lane count is ``min(lane_count(), P-row blocks)``, the
    blocks of one oracle, whatever the portfolio's size: a portfolio that
    one oracle's rows would not split is signed in process, not in a lane
    forked beside the campaign's PGD lane, which measured slower. Run 0 is
    signed here, every other run in a ``ForkLanes`` worker through private
    LocalOracles of the same models; a run whose worker fails is signed here
    again. A worker runs the code as it stood when it was forked, and is
    kept for the next call, so a warm signature forks nothing. A run's rows
    are billed to the caller's oracles when its answers reach this process,
    so a redone run is billed once and a run that raises bills nothing. The
    same code fits the same blocks at any lane count, so the signatures do
    not depend on it. Any other oracle gets all its calls from this process,
    in the order above.
    """
    oracles = list(oracles)
    for oracle in oracles:
        if oracle.input_dim != plan.grid.n_features:
            raise ShapeError(f"oracle expects {oracle.input_dim} features, "
                             f"plan has {plan.grid.n_features}")
    # built once, here: a worker is sent it with its run and builds none
    args = (plan.points, plan.design(), plan.grid, plan.config.replacement)
    fingerprint = plan.fingerprint()
    blocks = _point_blocks(plan.n, plan.p * max(1, len(oracles)))
    local = oracles and all(type(oracle) is LocalOracle for oracle in oracles)
    count = min(lane_count(), len(_point_blocks(plan.n, plan.p))) if local else 1
    runs = [blocks[k * len(blocks) // count:(k + 1) * len(blocks) // count]
            for k in range(count)]
    with ForkLanes() as forked:
        later = [forked.run(_sign_lane, [oracle.model for oracle in oracles], *args, run)
                 for run in runs[1:]]
        got = [_sign_points(oracles, *args, runs[0])]
        for take in later:
            *lane, bills = take()
            for oracle, bill in zip(oracles, bills):
                for purpose, rows in bill.items():
                    oracle.ledger.add(purpose, rows)
            got.append(lane)
    return [Signature.from_arrays(oracle.oracle_id, fingerprint,
                                  np.concatenate([coefs[j] for coefs, _ in got]),
                                  np.concatenate([intercepts[j] for _, intercepts in got]))
            for j, oracle in enumerate(oracles)]


def compute_signature(oracle: QueryOracle, plan: PerturbationPlan) -> Signature:
    """Fit all N point models in plan order (ledger: N*P + N rows).

    The oracle sees the same calls as N fit_point_model calls would send; the
    masks, kernel weights and Grams come from the plan's design.
    """
    return sign_many([oracle], plan)[0]


def save_plan(plan: PerturbationPlan, path) -> None:
    meta = {
        "seed": plan.seed,
        "segment_count": plan.s,
        "config": asdict(plan.config),
        "verified_model_ids": list(plan.verified_model_ids),
        "fingerprint": plan.fingerprint(),
    }
    arrays = {"points": plan.points, "grid_assignment": plan.grid.assignment}
    write_container(path, "perturbation-plan", meta, arrays)


def load_plan(path) -> PerturbationPlan:
    meta, arrays = read_container(path, "perturbation-plan")
    grid = SegmentGrid(arrays["grid_assignment"], meta["segment_count"])
    config, names = meta["config"], [f.name for f in fields(LimeConfig)]
    if not (isinstance(config, dict) and sorted(config) == sorted(names)):
        raise IntegrityError(f"{path}: config {config!r} does not hold exactly the "
                             f"LimeConfig fields {names}")
    cfg = LimeConfig(**config)
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
    arrays = {"coef": sig.coef, "intercept": sig.intercept}
    write_container(path, "lime-signature", meta, arrays)


def load_signature(path) -> Signature:
    meta, arrays = read_container(path, "lime-signature")
    return Signature.from_arrays(meta["model_id"], meta["plan_fingerprint"],
                                 arrays["coef"], arrays["intercept"])


def signature_summary_csv(sig: Signature) -> str:
    """Per-point coefficient norms, the human-readable companion file."""
    coefs = sig.coef.reshape(sig.n, -1)
    return csv_text(["point", "coef_l1", "coef_l2", "coef_linf"],
                    ([i, np.abs(c).sum(), np.sqrt((c * c).sum()), np.abs(c).max()]
                     for i, c in enumerate(coefs)))
