"""Dense feed-forward classifiers with exact input/parameter gradients.

Everything here is deliberately desk-scale: float64 numpy, plain SGD with a
seeded shuffle order, no adaptive optimizers. Softmax lives outside the
layer stack so both the attack loss and the regression targets can see raw
logits. Models are frozen after training (weight arrays are read-only) and
serialize to a single self-describing file, bit-exact on round trip.
"""

import math
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, IntegrityError, ShapeError
from .util import (ForkLanes, lane_count, owned_array, read_container, run_grouped,
                   write_container)

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
        w = owned_array(self, "weights", np.float64)
        b = owned_array(self, "bias", np.float64)
        if w.ndim != 2 or b.ndim != 1 or b.shape[0] != w.shape[1]:
            raise ShapeError(f"layer weights {w.shape} / bias {b.shape} inconsistent")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise DomainError("layer parameters contain non-finite entries")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")


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
    """Stable softmax over the last axis (max-shifted, then normalized).

    The row max is an np.maximum fold over the class columns, far cheaper
    than a reduce along a short class axis; a max is exact in any order, so
    the result is bitwise that of z.max(axis=-1).
    """
    z = np.asarray(z, dtype=np.float64)
    top = z[..., 0].copy()
    for j in range(1, z.shape[-1]):
        np.maximum(top, z[..., j], out=top)
    shifted = z - top[..., None]
    np.exp(shifted, out=shifted)
    shifted /= np.add.reduce(shifted, axis=-1, keepdims=True)
    return shifted


def logits(model: MlpModel, batch) -> np.ndarray:
    x = as_matrix(batch, cols=model.input_dim)
    for layer in model.layers:
        x = x @ layer.weights  # a fresh array: the caller's batch is never written
        x += layer.bias
        if layer.activation == "relu":
            np.maximum(x, 0.0, out=x)
    return x


def forward(model: MlpModel, batch) -> np.ndarray:
    """Class probabilities for each row of the batch."""
    return softmax(logits(model, batch))


def _check_labels(labels, class_count):
    y = np.ascontiguousarray(np.asarray(labels, dtype=np.int64))
    if y.size and (y.min() < 0 or y.max() >= class_count):
        raise DomainError(f"label out of range for {class_count} classes")
    return y


def cross_entropy(model: MlpModel, batch, labels) -> np.ndarray:
    """Per-row cross-entropy of softmax(logits) against integer labels."""
    z = logits(model, batch)
    return logit_cross_entropy(z, _check_labels(labels, model.class_count))


def logit_cross_entropy(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-row cross-entropy of softmax(z) against checked integer labels y."""
    zmax = z.max(axis=1)
    lse = zmax + np.log(np.exp(z - zmax[:, None]).sum(axis=1))
    return lse - z[np.arange(z.shape[0]), y]


def input_gradient_batch(model: MlpModel, batch, labels) -> np.ndarray:
    """d cross-entropy / d input, one row per batch row, by backpropagation."""
    x = as_matrix(batch, cols=model.input_dim)
    y = _check_labels(labels, model.class_count)
    if y.shape[0] != x.shape[0]:
        raise ShapeError("labels do not match batch rows")
    return loss_input_gradient([layer.weights for layer in model.layers],
                               [layer.bias for layer in model.layers],
                               [layer.activation for layer in model.layers], x,
                               one_hot(y, model.class_count))


def one_hot(labels: np.ndarray, class_count: int) -> np.ndarray:
    """(m, class_count) float rows: 1.0 at the label, 0.0 elsewhere.

    Subtracting 0.0 leaves a probability bitwise unchanged, so softmax minus
    these rows is exactly "minus one at the label".
    """
    return (labels[:, None] == np.arange(class_count)).astype(np.float64)


def loss_input_gradient(weights, biases, activations, x, targets) -> np.ndarray:
    """Backpropagated d cross-entropy / d x on unchecked arrays.

    ``x`` is (m, d) with 2-D weights, or (K, m, d) with weights stacked
    (K, fan_in, fan_out) and biases (K, 1, fan_out) for K models; the
    one-hot ``targets`` (m, classes) are shared. Each of the K slices gets
    the same float ops, in the same order, as a 2-D call for that model.
    """
    pre = []
    for w, b, act in zip(weights, biases, activations):
        z = x @ w
        z += b
        pre.append(z)
        x = np.maximum(z, 0.0) if act == "relu" else z
    delta = softmax(pre[-1])
    delta -= targets
    for i in range(len(weights) - 1, -1, -1):
        delta = delta @ weights[i].swapaxes(-1, -2)
        if i > 0 and activations[i - 1] == "relu":
            delta *= pre[i - 1] > 0.0
    return delta


def input_gradient(model: MlpModel, x, true_label: int) -> np.ndarray:
    """Gradient of the cross-entropy loss at a single point."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != model.input_dim:
        raise ShapeError(f"x must be a vector of length {model.input_dim}")
    return input_gradient_batch(model, x[None, :], [int(true_label)])[0]


def train(data: Dataset, cfg: TrainConfig, model_id: str = "model") -> MlpModel:
    """Seeded SGD on cross-entropy; deterministic for a fixed config."""
    return train_many([(data, cfg, model_id)])[0]


def train_many(jobs) -> "list[MlpModel]":
    """Train one model per ``(data, cfg, model_id)`` job, in input order.

    Jobs that agree on input width, class count, row count, batch size and
    epochs run one SGD loop together, whatever their hidden widths; learning
    rate and seed may differ. Every op of that loop is a matmul per model,
    elementwise, or a reduction within one model in the same order, so each
    model is bitwise the one its job would train alone. That also makes the
    loops free to run in lanes, one per CPU this process may use (see
    ``_lanes``): no result depends on how many there are. Lane 0 trains in
    this process, each other lane in a ``util.ForkLanes`` worker, which runs
    the code as it stood when the worker was forked.
    """
    jobs = list(jobs)
    for data, _, _ in jobs:
        if len(data) == 0:
            raise ShapeError("cannot train on an empty dataset")
        if (data.labels == data.labels[0]).all():  # np.unique would import numpy.ma
            warnings.warn("training data contains a single class", RuntimeWarning, stacklevel=2)
    params = _train_lanes(jobs)
    models = []
    for (data, cfg, model_id), (ws, bs) in zip(jobs, params):
        last = len(ws) - 1
        layers = tuple(Layer(w, b, "identity" if i == last else "relu")
                       for i, (w, b) in enumerate(zip(ws, bs)))
        model = MlpModel(layers, model_id=model_id)
        acc = float(np.mean(forward(model, data.points).argmax(axis=1) == data.labels))
        # hidden as a list, as it reads back from a saved model
        meta = {"train_accuracy": acc,
                "train_config": {**asdict(cfg), "hidden": list(cfg.hidden)}}
        models.append(MlpModel(model.layers, model_id=model_id, metadata=meta))
    return models


def _shape(job):
    """What jobs must share to run one SGD loop: input width, class count, rows,
    batch size and epochs."""
    data, cfg, _ = job
    return data.points.shape[1], data.class_count, len(data), cfg.batch_size, cfg.epochs


def _lanes(jobs) -> "list[list[int]]":
    """The job indices of each lane.

    A unit is one architecture's jobs within one ``_shape``. It costs steps x
    layers x (models + 1): its numpy calls per step grow with its layers, and
    the work of each call with its models. On the bundled portfolio (2-vCPU
    x86_64) this puts the slower of two lanes at 0.136 s, against 0.168 s when
    the models are left out (each lane timed alone). Units go longest first
    onto the least-loaded lane. There are ``lane_count()`` lanes, at most one
    per unit.
    """
    units = {}
    for i, job in enumerate(jobs):
        units.setdefault((_shape(job), job[1].hidden), []).append(i)

    def cost(idx):
        data, cfg, _ = jobs[idx[0]]
        steps = cfg.epochs * math.ceil(len(data) / cfg.batch_size)
        return steps * (len(cfg.hidden) + 1) * (len(idx) + 1)

    count = max(1, min(lane_count(), len(units)))
    lanes, loads = [[] for _ in range(count)], [0] * count
    for idx in sorted(units.values(), key=cost, reverse=True):
        k = loads.index(min(loads))
        lanes[k] += idx
        loads[k] += cost(idx)
    return lanes


def _train_lanes(jobs) -> list:
    """``_train_lane(jobs)``, lane by lane: lane 0 in this process, each other
    lane in a ``ForkLanes`` worker, trained here again if it fails."""
    lanes = _lanes(jobs)
    lane_jobs = [[jobs[i] for i in lane] for lane in lanes]
    with ForkLanes() as forked:
        later = [forked.run(_train_lane, js) for js in lane_jobs[1:]]
        got = [_train_lane(lane_jobs[0]), *(take() for take in later)]
    params = [None] * len(jobs)
    for lane, lane_params in zip(lanes, got):
        for i, p in zip(lane, lane_params):
            params[i] = p
    return params


def _train_lane(jobs) -> list:
    """Each job's (weights, biases): ``run_grouped(jobs, _shape, _sgd)``, with
    ``_sgd`` found where the lane runs, not sent to it."""
    return run_grouped(jobs, _shape, _sgd)


def _sgd(group):
    """One SGD loop for jobs that share a data shape; returns each job's
    (weights, biases).

    Each architecture runs its own matmuls, stacked over its models, and its
    own hidden-layer bias and relu. The output matmuls write into one
    (models, batch, classes) logits buffer, architecture by architecture,
    so output bias, softmax, loss gradient and output-bias gradient each run
    once for the whole group. Every parameter is a view into one flat buffer
    and every gradient a view into a matching one, so the update of a step
    is two calls.
    """
    data0, cfg0, _ = group[0]
    n, size, dim, classes = len(data0), cfg0.batch_size, data0.points.shape[1], data0.class_count
    by_arch = {}
    for j, (_, cfg, _) in enumerate(group):
        by_arch.setdefault(cfg.hidden, []).append(j)
    slots = [j for idx in by_arch.values() for j in idx]  # output slot -> job
    rngs = [np.random.default_rng(cfg.rng_seed) for _, cfg, _ in group]

    def lead(k):
        """Model axis for k models; none for one: a length-1 axis measured +7% on a solo
        train and +9-12% on the bundled campaign's train_many (2-vCPU x86_64, numpy 2.4)."""
        return (k,) if k > 1 else ()

    def rows(first, k):
        """Slots first..first+k-1 of an array with a lead(len(slots)) model axis."""
        return ... if len(slots) == 1 else first if k == 1 else slice(first, first + k)

    total = sum((fan_in + 1) * fan_out for _, cfg, _ in group
                for fan_in, fan_out in zip((dim, *cfg.hidden), (*cfg.hidden, classes)))
    params, grads, lrs = np.zeros(total), np.zeros(total), np.empty(total)
    offset = 0

    def carve(shape, idx):
        """(parameter, gradient) views of the next block, for the models of jobs idx."""
        nonlocal offset
        end = offset + int(np.prod(shape))
        lrs[offset:end].reshape(len(idx), -1)[:] = [[group[j][1].learning_rate] for j in idx]
        views = params[offset:end].reshape(shape), grads[offset:end].reshape(shape)
        offset = end
        return views

    archs = []  # (slot selector, [(W, gW)], [(b, gb)] of the hidden layers)
    first = 0
    for hidden, idx in by_arch.items():
        k = len(idx)
        ws = [carve(lead(k) + (fan_in, fan_out), idx)
              for fan_in, fan_out in zip((dim, *hidden), (*hidden, classes))]
        bs = [carve(lead(k) + (1, fan_out), idx) for fan_out in hidden]
        for w, _ in ws:
            fan_in, fan_out = w.shape[-2:]
            for kk, j in enumerate(idx):
                w.reshape(k, fan_in, fan_out)[kk] = rngs[j].normal(
                    0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
        archs.append((rows(first, k), ws, bs))
        first += k
    out_b, out_gb = carve(lead(len(slots)) + (1, classes), slots)
    onehots = [one_hot(data.labels, data.class_count) for data, _, _ in group]

    # SGD runs on plain mutable arrays; parameters are validated and frozen
    # once at the end. Under w - lr*g a non-finite entry never becomes finite
    # again, so that single check rejects every diverged training.
    points = np.empty(lead(len(slots)) + (n, dim))
    targets = np.empty(lead(len(slots)) + (n, classes))
    # views stay valid: the buffers are updated and refilled in place
    arch_points = [points[sel] for sel, _, _ in archs]
    wts = [[w.swapaxes(-1, -2) for w, _ in ws] for _, ws, _ in archs]
    for _ in range(cfg0.epochs):
        orders = [rng.permutation(n) for rng in rngs]
        for slot, j in enumerate(slots):
            np.take(group[j][0].points, orders[j], axis=0, out=points[rows(slot, 1)])
            np.take(onehots[j], orders[j], axis=0, out=targets[rows(slot, 1)])
        for start in range(0, n, size):
            m = min(size, n - start)
            z = np.empty(lead(len(slots)) + (m, classes))
            arch_acts = []
            for (sel, ws, bs), x in zip(archs, arch_points):
                acts = [x[..., start:start + m, :]]
                for (w, _), (b, _) in zip(ws, bs):
                    a = acts[-1] @ w
                    a += b
                    np.maximum(a, 0.0, out=a)
                    acts.append(a)
                np.matmul(acts[-1], ws[-1][0], out=z[sel])
                arch_acts.append(acts)
            z += out_b
            delta = softmax(z)
            delta -= targets[..., start:start + m, :]
            delta /= m
            np.add.reduce(delta, axis=-2, keepdims=True, out=out_gb)
            for (sel, ws, bs), acts, wt in zip(archs, arch_acts, wts):
                d = delta[sel]
                for i in range(len(ws) - 1, -1, -1):
                    np.matmul(acts[i].swapaxes(-1, -2), d, out=ws[i][1])
                    if i < len(bs):
                        np.add.reduce(d, axis=-2, keepdims=True, out=bs[i][1])
                    if i > 0:
                        # the relu output is positive exactly where its input was
                        d = d @ wt[i]
                        d *= acts[i] > 0.0
            grads *= lrs
            params -= grads

    out = [None] * len(group)
    out_b = out_b.reshape(len(slots), classes)
    for (_, ws, bs), idx in zip(archs, by_arch.values()):
        k = len(idx)
        for kk, j in enumerate(idx):
            out[j] = ([w.reshape((k,) + w.shape[-2:])[kk] for w, _ in ws],
                      [b.reshape(k, -1)[kk] for b, _ in bs] + [out_b[slots.index(j)]])
    return out


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
        if not (isinstance(entry, dict) and "activation" in entry):
            raise IntegrityError(f"{path}: architecture entry {i} has no activation")
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
