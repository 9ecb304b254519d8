"""Dense feed-forward classifiers with exact input/parameter gradients.

Everything here is deliberately desk-scale: float64 numpy, plain SGD with a
seeded shuffle order, no adaptive optimizers. Softmax lives outside the
layer stack so both the attack loss and the regression targets can see raw
logits. Models are frozen after training (weight arrays are read-only) and
serialize to a single self-describing file, bit-exact on round trip.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, ShapeError
from .util import read_container, write_container

ACTIVATIONS = ("relu", "identity")


def as_matrix(x, cols=None, name="batch") -> np.ndarray:
    """Validate a row-major 2-D float64 array: finite, optionally fixed width."""
    arr = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    if arr.ndim != 2:
        raise ShapeError(f"{name}: expected a 2-D array, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name}: contains non-finite entries")
    if cols is not None and arr.shape[1] != cols:
        raise ShapeError(f"{name}: expected {cols} columns, got {arr.shape[1]}")
    return arr


@dataclass(frozen=True)
class Layer:
    weights: np.ndarray  # (fan_in, fan_out)
    bias: np.ndarray     # (fan_out,)
    activation: str

    def __post_init__(self):
        w = np.ascontiguousarray(np.asarray(self.weights, dtype=np.float64))
        b = np.ascontiguousarray(np.asarray(self.bias, dtype=np.float64))
        if w.ndim != 2 or b.ndim != 1 or b.shape[0] != w.shape[1]:
            raise ShapeError(f"layer weights {w.shape} / bias {b.shape} inconsistent")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise DomainError("layer parameters contain non-finite entries")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        w.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)


@dataclass(frozen=True)
class MlpModel:
    """A stack of dense layers; final layer is identity (logits)."""

    layers: "tuple[Layer, ...]"
    model_id: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.layers:
            raise ShapeError("model needs at least one layer")
        for a, b in zip(self.layers, self.layers[1:]):
            if a.weights.shape[1] != b.weights.shape[0]:
                raise ShapeError(
                    f"layer widths do not chain: {a.weights.shape} -> {b.weights.shape}")
        if self.layers[-1].activation != "identity":
            raise ConfigError("final layer must be identity; softmax is applied separately")
        object.__setattr__(self, "layers", tuple(self.layers))

    @property
    def input_dim(self) -> int:
        return self.layers[0].weights.shape[0]

    @property
    def class_count(self) -> int:
        return self.layers[-1].weights.shape[1]


@dataclass
class Dataset:
    """Feature rows in [0,1] with integer class labels."""

    points: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        self.points = as_matrix(self.points, name="points")
        self.labels = np.ascontiguousarray(np.asarray(self.labels, dtype=np.int64))
        if self.labels.ndim != 1 or self.labels.shape[0] != self.points.shape[0]:
            raise ShapeError(
                f"labels shape {self.labels.shape} does not match {self.points.shape[0]} points")
        if self.points.size and (self.points.min() < 0.0 or self.points.max() > 1.0):
            raise DomainError("features must lie in [0,1]")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise DomainError(f"labels must lie in [0,{self.class_count})")

    def __len__(self):
        return self.points.shape[0]

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        return Dataset(self.points[idx], self.labels[idx], self.class_count)


@dataclass(frozen=True)
class TrainConfig:
    hidden: "tuple[int, ...]" = (16,)
    epochs: int = 30
    batch_size: int = 32
    learning_rate: float = 0.1
    rng_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if any(h < 1 for h in self.hidden):
            raise ConfigError("hidden widths must be >= 1")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not self.learning_rate > 0:
            raise ConfigError("learning_rate must be > 0")


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax (max-shifted, then normalized)."""
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def logits(model: MlpModel, batch) -> np.ndarray:
    x = as_matrix(batch, cols=model.input_dim)
    for layer in model.layers:
        x = x @ layer.weights + layer.bias
        if layer.activation == "relu":
            x = np.maximum(x, 0.0)
    return x


def forward(model: MlpModel, batch) -> np.ndarray:
    """Class probabilities for each row of the batch."""
    return softmax(logits(model, batch))


def _forward_trace(model: MlpModel, x: np.ndarray):
    """Forward pass keeping pre-activations; x is (m, input_dim)."""
    pre = []
    act = x
    acts = [act]
    for layer in model.layers:
        z = act @ layer.weights + layer.bias
        pre.append(z)
        act = np.maximum(z, 0.0) if layer.activation == "relu" else z
        acts.append(act)
    return pre, acts


def _check_labels(labels, class_count):
    y = np.ascontiguousarray(np.asarray(labels, dtype=np.int64))
    if y.size and (y.min() < 0 or y.max() >= class_count):
        raise DomainError(f"label out of range for {class_count} classes")
    return y


def cross_entropy(model: MlpModel, batch, labels) -> np.ndarray:
    """Per-row cross-entropy of softmax(logits) against integer labels."""
    z = logits(model, batch)
    y = _check_labels(labels, model.class_count)
    zmax = z.max(axis=1)
    lse = zmax + np.log(np.exp(z - zmax[:, None]).sum(axis=1))
    return lse - z[np.arange(z.shape[0]), y]


def input_gradient_batch(model: MlpModel, batch, labels) -> np.ndarray:
    """d cross-entropy / d input, one row per batch row, by backpropagation."""
    x = as_matrix(batch, cols=model.input_dim)
    y = _check_labels(labels, model.class_count)
    if y.shape[0] != x.shape[0]:
        raise ShapeError("labels do not match batch rows")
    pre, _ = _forward_trace(model, x)
    probs = softmax(pre[-1])
    delta = probs
    delta[np.arange(x.shape[0]), y] -= 1.0
    for i in range(len(model.layers) - 1, -1, -1):
        delta = delta @ model.layers[i].weights.T
        if i > 0 and model.layers[i - 1].activation == "relu":
            delta = delta * (pre[i - 1] > 0.0)
    return delta


def input_gradient(model: MlpModel, x, true_label: int) -> np.ndarray:
    """Gradient of the cross-entropy loss at a single point."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != model.input_dim:
        raise ShapeError(f"x must be a vector of length {model.input_dim}")
    return input_gradient_batch(model, x[None, :], [int(true_label)])[0]


def train(data: Dataset, cfg: TrainConfig, model_id: str = "model") -> MlpModel:
    """Seeded SGD on cross-entropy; deterministic for a fixed config."""
    if len(data) == 0:
        raise ShapeError("cannot train on an empty dataset")
    if np.unique(data.labels).size < 2:
        warnings.warn("training data contains a single class", RuntimeWarning, stacklevel=2)

    rng = np.random.default_rng(cfg.rng_seed)
    widths = [data.points.shape[1], *cfg.hidden, data.class_count]
    ws, bs = [], []
    for fan_in, fan_out in zip(widths, widths[1:]):
        ws.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out)))
        bs.append(np.zeros(fan_out))
    last = len(ws) - 1

    # SGD runs on plain mutable arrays; parameters are validated and frozen
    # once at the end. Under w - lr*g a non-finite entry never becomes finite
    # again, so that single check rejects every diverged training.
    n = len(data)
    rows = np.arange(cfg.batch_size)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        points, labels = data.points[order], data.labels[order]
        for start in range(0, n, cfg.batch_size):
            x = points[start:start + cfg.batch_size]
            y = labels[start:start + cfg.batch_size]
            m = x.shape[0]
            pre, acts = [], [x]
            for i, (w, b) in enumerate(zip(ws, bs)):
                z = acts[-1] @ w + b
                pre.append(z)
                acts.append(z if i == last else np.maximum(z, 0.0))
            delta = softmax(pre[-1])
            delta[rows[:m], y] -= 1.0
            delta /= m
            for i in range(last, -1, -1):
                gw, gb = acts[i].T @ delta, delta.sum(axis=0)
                if i > 0:
                    delta = (delta @ ws[i].T) * (pre[i - 1] > 0.0)
                ws[i] -= cfg.learning_rate * gw
                bs[i] -= cfg.learning_rate * gb

    layers = tuple(Layer(w, b, "identity" if i == last else "relu")
                   for i, (w, b) in enumerate(zip(ws, bs)))
    model = MlpModel(layers, model_id=model_id)

    acc = float(np.mean(forward(model, data.points).argmax(axis=1) == data.labels))
    meta = {
        "train_accuracy": acc,
        "train_config": {
            "hidden": list(cfg.hidden),
            "epochs": cfg.epochs,
            "batch_size": cfg.batch_size,
            "learning_rate": cfg.learning_rate,
            "rng_seed": cfg.rng_seed,
        },
    }
    return MlpModel(model.layers, model_id=model_id, metadata=meta)


def save_model(model: MlpModel, path) -> None:
    arrays = {}
    arch = []
    for i, layer in enumerate(model.layers):
        arrays[f"w{i}"] = layer.weights
        arrays[f"b{i}"] = layer.bias
        arch.append({"fan_in": layer.weights.shape[0],
                     "fan_out": layer.weights.shape[1],
                     "activation": layer.activation})
    meta = {"model_id": model.model_id, "architecture": arch, "metadata": model.metadata}
    write_container(path, "mlp-model", meta, arrays)


def load_model(path) -> MlpModel:
    meta, arrays = read_container(path, "mlp-model")
    layers = []
    for i, entry in enumerate(meta["architecture"]):
        layers.append(Layer(arrays[f"w{i}"], arrays[f"b{i}"], entry["activation"]))
    return MlpModel(tuple(layers), model_id=meta["model_id"], metadata=meta["metadata"])


def save_dataset(data: Dataset, path) -> None:
    write_container(path, "dataset", {"class_count": data.class_count},
                    {"points": data.points, "labels": data.labels})


def load_dataset(path) -> Dataset:
    meta, arrays = read_container(path, "dataset")
    return Dataset(arrays["points"], arrays["labels"], meta["class_count"])


def blob_centers(class_count: int, n_features: int, seed: int) -> np.ndarray:
    """Class centers drawn uniformly inside [0.2, 0.8]^d."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.2, 0.8, size=(class_count, n_features))


def sample_blobs(centers: np.ndarray, n_points: int, noise: float, seed: int) -> Dataset:
    """Gaussian blobs around the given centers, clipped to the unit box."""
    centers = as_matrix(centers, name="centers")
    k = centers.shape[0]
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, k, size=n_points)
    pts = centers[labels] + rng.normal(0.0, noise, size=(n_points, centers.shape[1]))
    return Dataset(np.clip(pts, 0.0, 1.0), labels, k)
