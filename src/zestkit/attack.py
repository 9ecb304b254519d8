"""White-box PGD on a local surrogate, plus black-box transfer evaluation.

PGD is the usual signed-gradient ascent on cross-entropy inside an L-inf
ball, restarted from multiple random points; the kept restart prefers a
prediction flip over raw loss, because the adversary's objective is
evasion. Everything is seeded and vectorized over the whole batch, so a
batch is reproduced bit-for-bit from its config.

Transfer success against a victim follows the indicator-count objective:
a point counts when the victim's prediction on the adversarial input
differs from the true label, over the points whose originals the victim
got right (already-misclassified points are excluded from the denominator
and reported separately).
"""

from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ConfigError, DomainError, IntegrityError, ShapeError
from .nn import (Dataset, MlpModel, _check_labels, as_matrix, logit_cross_entropy, logits,
                 loss_input_gradient, one_hot, softmax)
# kept importable here: bench/spans.py patches zestkit.attack.input_gradient_batch,
# .cross_entropy and .forward
from .nn import cross_entropy, forward, input_gradient_batch  # noqa: F401
from .oracle import QueryOracle
from .util import (csv_text, derived_seed, owned_array, read_container, run_grouped,
                   write_container)

QUANT_SLACK = 1.0 / 510.0  # worst-case L-inf shift from 8-bit rounding


@dataclass(frozen=True)
class AttackConfig:
    epsilon: float = 0.1
    step_size: float = 0.02
    steps: int = 40
    restarts: int = 5
    rng_seed: int = 0
    quantize_8bit: bool = False

    def __post_init__(self):
        if not self.epsilon >= 0:
            raise ConfigError("epsilon must be >= 0")
        if not self.step_size > 0:
            raise ConfigError("step_size must be > 0")
        if self.epsilon > 0 and self.step_size > self.epsilon:
            raise ConfigError("step_size cannot exceed epsilon")
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if self.restarts < 1:
            raise ConfigError("restarts must be >= 1")


@dataclass(frozen=True)
class AdversarialBatch:
    """Adversarial points with per-point provenance from the craft run."""

    originals: np.ndarray      # (m, d)
    labels: np.ndarray         # (m,)
    adversarials: np.ndarray   # (m, d)
    local_success: np.ndarray  # (m,) bool: surrogate prediction != label
    achieved_loss: np.ndarray  # (m,)
    restart_index: np.ndarray  # (m,)
    epsilon: float
    surrogate_id: str
    quantized: bool = False

    def __post_init__(self):
        orig = as_matrix(owned_array(self, "originals", np.float64), name="originals")
        adv = as_matrix(owned_array(self, "adversarials", np.float64), cols=orig.shape[1],
                        name="adversarials")
        m = orig.shape[0]
        for name, dtype in (("labels", np.int64), ("local_success", bool),
                            ("achieved_loss", np.float64), ("restart_index", np.int64)):
            if owned_array(self, name, dtype).shape != (m,):
                raise ShapeError(f"{name} must have one entry per point")
        if adv.shape[0] != m:
            raise ShapeError("adversarials must match originals row for row")
        tol = 1e-9 + (QUANT_SLACK if self.quantized else 0.0)
        if m:
            if np.abs(adv - orig).max() > self.epsilon + tol:
                raise DomainError("adversarial point exceeds the epsilon budget")
            if adv.min() < 0.0 or adv.max() > 1.0:
                raise DomainError("adversarial features must stay in [0,1]")

    def __len__(self):
        return self.originals.shape[0]

    @property
    def local_success_rate(self) -> float:
        return float(self.local_success.mean()) if len(self) else 0.0

    def linf_distortion(self) -> np.ndarray:
        return np.abs(self.adversarials - self.originals).max(axis=1)


def pgd(model: MlpModel, data: Dataset, cfg: AttackConfig) -> AdversarialBatch:
    """Untargeted L-inf PGD with random restarts, best restart per point."""
    return pgd_many([(model, cfg)], data)[0]


def pgd_many(jobs, data: Dataset) -> "list[AdversarialBatch]":
    """PGD from each ``(model, cfg)`` job on the same points, in input order.

    Jobs whose models share layer shapes and activations, and whose configs
    share epsilon, step size, steps and restarts, step in lockstep on weights
    stacked along a leading model axis. All restarts run in one pass: each
    model's batch holds them as consecutive row blocks. Each job keeps its
    own "pgd.init" stream, restart choice and quantization, so each batch is
    bitwise the one its job would craft alone.
    """
    jobs = list(jobs)
    for model, _ in jobs:
        if data.class_count != model.class_count:
            raise ShapeError("dataset class count does not match the surrogate")
    return run_grouped(
        jobs,
        lambda job: (tuple((layer.weights.shape, layer.activation) for layer in job[0].layers),
                     job[1].epsilon, job[1].step_size, job[1].steps, job[1].restarts),
        lambda group: _pgd_group(group, data))


def _pgd_group(group, data: Dataset) -> "list[AdversarialBatch]":
    """PGD for K jobs of one layer shape and activation, stacked on a model axis."""
    model0, cfg0 = group[0]
    x0 = as_matrix(data.points, cols=model0.input_dim, name="attack points")
    y = _check_labels(data.labels, model0.class_count)
    m, d = x0.shape
    k_count = len(group)
    eps, step = cfg0.epsilon, cfg0.step_size
    weights = [np.stack([model.layers[i].weights for model, _ in group])
               for i in range(len(model0.layers))]
    biases = [np.stack([model.layers[i].bias[None, :] for model, _ in group])
              for i in range(len(model0.layers))]
    activations = [layer.activation for layer in model0.layers]

    # every restart starts up front, in restart order, as consecutive (m, d)
    # row blocks of one (restarts * m, d) batch per model
    restarts = cfg0.restarts
    starts = []
    for _, cfg in group:
        rng = np.random.default_rng(derived_seed(cfg.rng_seed, "pgd.init"))
        noise = rng.uniform(-eps, eps, size=(restarts * m, d))
        starts.append(np.clip(np.tile(x0, (restarts, 1)) + noise, 0.0, 1.0))
    xa = np.stack(starts)
    lo, hi = np.tile(x0 - eps, (restarts, 1)), np.tile(x0 + eps, (restarts, 1))
    targets = np.tile(one_hot(y, model0.class_count), (restarts, 1))
    for _ in range(cfg0.steps):
        g = loss_input_gradient(weights, biases, activations, xa, targets)
        np.sign(g, out=g)
        g *= step
        xa += g
        np.clip(xa, lo, hi, out=xa)
        np.clip(xa, 0.0, 1.0, out=xa)
    # NaN survives sign and both clips, so one check covers every step
    if not np.all(np.isfinite(xa)):
        raise DomainError("batch: contains non-finite entries")
    xa = xa.reshape(k_count, restarts, m, d)

    best_loss = np.full((k_count, m), -np.inf)
    best_adv = np.repeat(x0[None], k_count, axis=0)
    best_flip = np.zeros((k_count, m), dtype=bool)
    best_restart = np.zeros((k_count, m), dtype=np.int64)
    for r in range(restarts):
        for k, (model, _) in enumerate(group):
            # one forward pass gives the loss and the prediction
            z = logits(model, xa[k, r])
            loss = logit_cross_entropy(z, y)
            flip = softmax(z).argmax(axis=1) != y
            # flips beat non-flips; within the same class, higher loss wins
            better = (flip & ~best_flip[k]) | ((flip == best_flip[k]) & (loss > best_loss[k]))
            best_adv[k][better] = xa[k, r][better]
            best_loss[k][better] = loss[better]
            best_flip[k][better] = flip[better]
            best_restart[k][better] = r

    batches = []
    for k, (model, cfg) in enumerate(group):
        batch = AdversarialBatch(
            originals=x0, labels=y, adversarials=best_adv[k],
            local_success=best_flip[k], achieved_loss=best_loss[k],
            restart_index=best_restart[k], epsilon=eps, surrogate_id=model.model_id)
        batches.append(quantize(batch) if cfg.quantize_8bit else batch)
    return batches


def quantize(batch: AdversarialBatch) -> AdversarialBatch:
    """Round every feature to the nearest k/255 (8-bit image export).

    Rounding may push a point up to 1/510 past the epsilon budget; the batch
    invariant is re-verified with that slack. Craft-time provenance fields
    (local_success, achieved_loss, restart_index) are kept as recorded;
    re-evaluate against the surrogate to measure the evasiveness loss.
    """
    q = np.round(batch.adversarials * 255.0) / 255.0
    return replace(batch, adversarials=q, quantized=True)


@dataclass(frozen=True)
class TransferResult:
    """Outcome of sending one adversarial batch to one victim."""

    victim_id: str
    surrogate_id: str
    total_points: int
    valid_points: int            # originals the victim classified correctly
    success_count: int           # evasions among valid points
    success_rate: float          # success_count / valid_points (0 if none valid)
    already_misclassified: int   # excluded from the denominator
    raw_success_count: int       # evasions over all points, no exclusion
    raw_success_rate: float
    queries_used: int


def transfer_eval(victim: QueryOracle, batch: AdversarialBatch) -> TransferResult:
    """Count evasions on the victim (queries originals + adversarials)."""
    if victim.input_dim != batch.originals.shape[1]:
        raise ShapeError("victim input_dim does not match the batch")
    m = len(batch)
    orig_probs = victim.predict_proba(batch.originals, purpose="attack_eval")
    adv_probs = victim.predict_proba(batch.adversarials, purpose="attack_eval")
    orig_ok = orig_probs.argmax(axis=1) == batch.labels
    evasive = adv_probs.argmax(axis=1) != batch.labels
    valid = int(orig_ok.sum())
    success = int((evasive & orig_ok).sum())
    raw = int(evasive.sum())
    return TransferResult(
        victim_id=victim.oracle_id,
        surrogate_id=batch.surrogate_id,
        total_points=m,
        valid_points=valid,
        success_count=success,
        success_rate=(success / valid) if valid else 0.0,
        already_misclassified=m - valid,
        raw_success_count=raw,
        raw_success_rate=(raw / m) if m else 0.0,
        queries_used=2 * m,
    )


def save_batch(batch: AdversarialBatch, path) -> None:
    """Its array fields as the container's arrays, in field order; the rest as meta."""
    arrays = {k: v for k, v in vars(batch).items() if isinstance(v, np.ndarray)}
    meta = {k: v for k, v in vars(batch).items() if k not in arrays}
    write_container(path, "adversarial-batch", meta, arrays)


def load_batch(path) -> AdversarialBatch:
    """The batch of a ``save_batch`` file; IntegrityError unless it holds exactly its fields."""
    meta, arrays = read_container(path, "adversarial-batch")
    keys, names = [*meta, *arrays], [f.name for f in fields(AdversarialBatch)]
    if sorted(keys) != sorted(names):
        raise IntegrityError(f"{path}: holds {sorted(keys)}, not the batch fields {names}")
    return AdversarialBatch(**meta, **arrays)


def batch_summary_csv(batch: AdversarialBatch) -> str:
    """Per-point distortion and craft outcome."""
    dist = batch.linf_distortion()
    return csv_text(
        ["point", "label", "linf_distortion", "local_success", "restart_index",
         "achieved_loss"],
        ([i, batch.labels[i], dist[i], int(batch.local_success[i]), batch.restart_index[i],
          batch.achieved_loss[i]]
         for i in range(len(batch))))
