import os
import threading
import time
import warnings

import numpy as np
import pytest

import zestkit as zk
from zestkit.errors import ConfigError, DomainError, ShapeError
from zestkit.nn import as_matrix, cross_entropy, logit_cross_entropy

from conftest import assert_no_children, count_forks, linear_net, tiny_net, use_cpus


# --- validation ------------------------------------------------------------

def test_as_matrix_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        as_matrix(np.zeros(3))
    with pytest.raises(ShapeError):
        as_matrix(np.zeros((2, 3)), cols=4)
    with pytest.raises(DomainError):
        as_matrix(np.array([[np.nan, 1.0]]))
    with pytest.raises(DomainError):
        as_matrix(np.array([[np.inf, 1.0]]))


def test_dataset_validation():
    with pytest.raises(DomainError):
        zk.Dataset(np.array([[1.5, 0.0]]), np.array([0]), 2)
    with pytest.raises(DomainError):
        zk.Dataset(np.array([[0.5, 0.0]]), np.array([2]), 2)
    data = zk.Dataset(np.array([[0.5, 0.0], [0.1, 1.0]]), np.array([0, 1]), 2)
    sub = data.subset([1])
    assert len(sub) == 1 and sub.labels[0] == 1


def test_train_config_validation():
    with pytest.raises(ConfigError):
        zk.TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        zk.TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        zk.TrainConfig(batch_size=0)


# --- forward ---------------------------------------------------------------

def test_forward_zero_weights_uniform():
    model = linear_net(np.zeros((3, 2)), np.zeros(2))
    probs = zk.forward(model, np.array([[0.2, 0.9, 0.4], [0.0, 0.0, 1.0]]))
    assert np.allclose(probs, 0.5)


def test_forward_hand_softmax():
    model = linear_net(np.eye(2), np.zeros(2))
    probs = zk.forward(model, np.array([[2.0, 0.0]]))
    assert abs(probs[0, 0] - 0.8808) < 1e-3
    assert abs(probs[0, 1] - 0.1192) < 1e-3


def test_forward_rows_are_distributions():
    model = tiny_net(0)
    rng = np.random.default_rng(1)
    probs = zk.forward(model, rng.random((3, model.input_dim)))
    assert probs.shape == (3, model.class_count)
    assert probs.min() >= 0.0
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9


def test_forward_large_logits_stable():
    model = linear_net(1000.0 * np.eye(2), np.zeros(2))
    probs = zk.forward(model, np.array([[1.0, 0.0]]))
    assert np.isfinite(probs).all() and abs(probs.sum() - 1.0) < 1e-9


def test_forward_dim_mismatch():
    model = tiny_net(0, input_dim=4)
    with pytest.raises(ShapeError):
        zk.forward(model, np.zeros((1, 5)))


def _softmax_reduce(z):
    """softmax with the row max as an axis reduce: the reference for the fold."""
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _extreme_rows(k):
    """Rows with tied maxima (signed zeros among them) and +-700 logits."""
    rows = [np.full(k, 700.0), np.full(k, -700.0), np.zeros(k), np.full(k, -3.0)]
    rows[0][-1] = -700.0
    rows[1][0] = 700.0
    rows[2][::2] = -0.0
    rows[3][[0, -1]] = 2.5
    return np.array(rows)


@pytest.mark.parametrize("shape", [(1, 3), (32, 3), (4, 32, 3), (1000, 3), (1000, 4),
                                   (1000, 5), (200, 100)])
def test_softmax_bitwise_matches_reduce(shape):
    rng = np.random.default_rng(shape[-1])
    z = rng.normal(0.0, 20.0, size=shape)
    z[rng.random(shape) < 0.05] = 700.0
    z[rng.random(shape) < 0.05] = -700.0
    flat = z.reshape(-1, shape[-1])
    extremes = _extreme_rows(shape[-1])
    flat[:len(extremes)] = extremes[:len(flat)]
    got = zk.softmax(z)
    want = _softmax_reduce(z)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_logit_cross_entropy_is_cross_entropy_bitwise():
    model = tiny_net(5, input_dim=6, class_count=4)
    rng = np.random.default_rng(5)
    x, y = rng.random((75, 6)), rng.integers(0, 4, size=75)
    got = logit_cross_entropy(zk.nn.logits(model, x), y)
    assert got.tobytes() == cross_entropy(model, x, y).tobytes()


@pytest.mark.parametrize("k", [3, 4, 100])
def test_softmax_non_finite_rows_match_reduce(k):
    z = np.random.default_rng(k).normal(0.0, 5.0, size=(6, k))
    z[1, 0] = np.inf
    z[2, -1] = -np.inf
    z[3, 1] = np.nan
    z[4, :] = -np.inf
    with np.errstate(all="ignore"):
        got = zk.softmax(z)
        want = _softmax_reduce(z)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.isnan(got[[1, 3, 4]]).all() and not np.isnan(got[[0, 2, 5]]).any()
    assert got[~np.isnan(got)].tobytes() == want[~np.isnan(want)].tobytes()


@pytest.mark.parametrize("hidden", [(), (6,), (6, 5)])
def test_logits_and_forward_leave_read_only_batch_untouched(hidden):
    model = tiny_net(5, hidden=hidden)
    x = np.random.default_rng(2).normal(size=(9, model.input_dim))
    before = x.copy()
    x.flags.writeable = False
    z = zk.nn.logits(model, x)
    probs = zk.forward(model, x)
    assert x.tobytes() == before.tobytes()
    want = before
    for layer in model.layers:
        want = want @ layer.weights + layer.bias
        if layer.activation == "relu":
            want = np.maximum(want, 0.0)
    assert z.tobytes() == want.tobytes()
    assert probs.tobytes() == _softmax_reduce(want).tobytes()


# --- gradients -------------------------------------------------------------

def test_input_gradient_linear_closed_form():
    rng = np.random.default_rng(3)
    w = rng.normal(size=(5, 3))
    model = linear_net(w, rng.normal(size=3))
    x = rng.random(5)
    y = 1
    probs = zk.forward(model, x[None])[0]
    onehot = np.eye(3)[y]
    expected = w @ (probs - onehot)
    got = zk.input_gradient(model, x, y)
    assert np.abs(got - expected).max() < 1e-12


def test_input_gradient_dead_feature_is_zero():
    rng = np.random.default_rng(4)
    w = rng.normal(size=(4, 3))
    w[2, :] = 0.0  # feature 2 disconnected
    model = linear_net(w, np.zeros(3))
    g = zk.input_gradient(model, rng.random(4), 0)
    assert g[2] == 0.0


def test_input_gradient_label_out_of_range():
    model = tiny_net(0, class_count=3)
    with pytest.raises(DomainError):
        zk.input_gradient(model, np.zeros(model.input_dim), 3)


def _fd_gradient(model, x, y, h=1e-5):
    g = np.zeros_like(x)
    for k in range(x.shape[0]):
        hi, lo = x.copy(), x.copy()
        hi[k] += h
        lo[k] -= h
        g[k] = (cross_entropy(model, hi[None], [y])[0]
                - cross_entropy(model, lo[None], [y])[0]) / (2 * h)
    return g


def test_gradient_matches_finite_differences_100_pairs():
    rng = np.random.default_rng(5)
    checked = 0
    seed = 0
    while checked < 100:
        seed += 1
        model = tiny_net(seed, input_dim=int(rng.integers(2, 6)),
                         class_count=int(rng.integers(2, 5)),
                         hidden=(int(rng.integers(3, 7)),))
        x = rng.random(model.input_dim)
        # stay away from relu kinks so the numerical derivative is clean
        z = x @ model.layers[0].weights + model.layers[0].bias
        if np.abs(z).min() < 1e-3:
            continue
        y = int(rng.integers(model.class_count))
        an = zk.input_gradient(model, x, y)
        fd = _fd_gradient(model, x, y)
        scale = max(np.abs(fd).max(), 1e-8)
        assert np.abs(an - fd).max() / scale < 1e-4
        checked += 1


def test_batch_gradient_matches_single():
    model = tiny_net(9)
    rng = np.random.default_rng(10)
    xs = rng.random((4, model.input_dim))
    ys = rng.integers(0, model.class_count, size=4)
    batch = zk.input_gradient_batch(model, xs, ys)
    for i in range(4):
        single = zk.input_gradient(model, xs[i], int(ys[i]))
        assert np.abs(batch[i] - single).max() < 1e-12


# --- training --------------------------------------------------------------

def test_train_separable_blobs_accuracy():
    centers = zk.blob_centers(2, 8, 12)
    data = zk.sample_blobs(centers, 300, 0.05, 13)
    model = zk.train(data, zk.TrainConfig(hidden=(8,), epochs=30, rng_seed=0))
    assert model.metadata["train_accuracy"] >= 0.95


def test_train_deterministic_bytes(tmp_path, blob_world):
    cfg = zk.TrainConfig(hidden=(8,), epochs=5, rng_seed=77)
    a = zk.train(blob_world["train"], cfg, model_id="m")
    b = zk.train(blob_world["train"], cfg, model_id="m")
    pa, pb = tmp_path / "a.mlp", tmp_path / "b.mlp"
    zk.save_model(a, pa)
    zk.save_model(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def _reference_train(data, cfg):
    """SGD that rebuilds the frozen model after every step.

    Same arithmetic, in the same order, as ``train`` is required to keep:
    forward z = a @ W + b with relu on hidden layers; delta = softmax, minus
    one at the label, over m; gW = a.T @ delta, gb = delta.sum(0); delta is
    backpropagated through the pre-update W.
    """
    rng = np.random.default_rng(cfg.rng_seed)
    widths = [data.points.shape[1], *cfg.hidden, data.class_count]
    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
        w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
        act = "identity" if i == len(widths) - 2 else "relu"
        layers.append(zk.nn.Layer(w, np.zeros(fan_out), act))
    model = zk.MlpModel(tuple(layers), model_id="ref")
    n = len(data)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            x, y = data.points[idx], data.labels[idx]
            m = x.shape[0]
            pre, acts = [], [x]
            for layer in model.layers:
                z = acts[-1] @ layer.weights + layer.bias
                pre.append(z)
                acts.append(np.maximum(z, 0.0) if layer.activation == "relu" else z)
            delta = zk.softmax(pre[-1])
            delta[np.arange(m), y] -= 1.0
            delta /= m
            grads = []
            for i in range(len(model.layers) - 1, -1, -1):
                grads.append((acts[i].T @ delta, delta.sum(axis=0)))
                if i > 0:
                    delta = delta @ model.layers[i].weights.T
                    if model.layers[i - 1].activation == "relu":
                        delta = delta * (pre[i - 1] > 0.0)
            grads.reverse()
            model = zk.MlpModel(tuple(
                zk.nn.Layer(layer.weights - cfg.learning_rate * gw,
                            layer.bias - cfg.learning_rate * gb, layer.activation)
                for layer, (gw, gb) in zip(model.layers, grads)), model_id="ref")
    return model


@pytest.mark.parametrize("hidden", [(8,), (24,), (24, 16)])
# 203 rows leave a short last batch of 11, where dividing by m is inexact
@pytest.mark.parametrize("rows", [192, 203])
def test_train_matches_per_step_reference_bitwise(hidden, rows):
    centers = zk.blob_centers(3, 10, 5)
    data = zk.sample_blobs(centers, rows, 0.1, 6)
    cfg = zk.TrainConfig(hidden=hidden, epochs=4, batch_size=32, rng_seed=3)
    got = zk.train(data, cfg)
    ref = _reference_train(data, cfg)
    assert len(got.layers) == len(ref.layers) == len(hidden) + 1
    for lg, lr in zip(got.layers, ref.layers):
        assert lg.activation == lr.activation
        assert lg.weights.tobytes() == lr.weights.tobytes()
        assert lg.bias.tobytes() == lr.bias.tobytes()


def test_train_divergence_rejected():
    centers = zk.blob_centers(3, 6, 1)
    data = zk.sample_blobs(centers, 64, 0.1, 2)
    cfg = zk.TrainConfig(hidden=(8,), epochs=3, learning_rate=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(DomainError, match="^layer parameters contain non-finite entries$"):
            zk.train(data, cfg)


def _assert_same_model(got, want):
    assert got.model_id == want.model_id
    assert got.metadata == want.metadata
    assert len(got.layers) == len(want.layers)
    for lg, lw in zip(got.layers, want.layers):
        assert lg.activation == lw.activation
        assert lg.weights.tobytes() == lw.weights.tobytes()
        assert lg.bias.tobytes() == lw.bias.tobytes()


def test_train_many_matches_solo_training_bitwise():
    centers = zk.blob_centers(3, 10, 5)
    data = zk.sample_blobs(centers, 192, 0.1, 6)
    # 203 rows leave a short last batch of 11 in every epoch
    odd = zk.sample_blobs(centers, 203, 0.1, 7)
    cfg = zk.TrainConfig(hidden=(24,), epochs=4, batch_size=32, rng_seed=3)
    jobs = [
        (data, cfg, "a"),
        (odd, zk.TrainConfig(hidden=(24, 16), epochs=4, rng_seed=8), "odd-a"),
        (data, zk.TrainConfig(hidden=(24,), epochs=4, learning_rate=0.05, rng_seed=4), "b"),
        (data, zk.TrainConfig(hidden=(8,), epochs=4, rng_seed=5), "narrow"),
        (odd, zk.TrainConfig(hidden=(24, 16), epochs=4, rng_seed=9), "odd-b"),
        (data, zk.TrainConfig(hidden=(24,), epochs=2, rng_seed=6), "short"),
    ]
    got = zk.train_many(jobs)
    assert [m.model_id for m in got] == [mid for _, _, mid in jobs]
    for model, (d, c, mid) in zip(got, jobs):
        _assert_same_model(model, zk.train(d, c, mid))


def test_train_many_divergence_in_a_group_rejected():
    centers = zk.blob_centers(3, 6, 1)
    data = zk.sample_blobs(centers, 64, 0.1, 2)
    jobs = [(data, zk.TrainConfig(hidden=(8,), epochs=3), "ok"),
            (data, zk.TrainConfig(hidden=(8,), epochs=3, learning_rate=1e300), "diverges")]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(DomainError, match="^layer parameters contain non-finite entries$"):
            zk.train_many(jobs)


def _mixed_jobs(data, hiddens, **kw):
    return [(data, zk.TrainConfig(hidden=h, epochs=3, learning_rate=0.1 + 0.01 * i,
                                  rng_seed=20 + i, **kw), f"m{i}")
            for i, h in enumerate(hiddens)]


@pytest.mark.parametrize("classes, rows, batch_size, hiddens", [
    # architectures interleaved in job order: output slots differ from job order
    (3, 96, 32, [(24,), (8,), (24,), (24, 16)]),
    (3, 96, 32, [(12,), (16, 12, 8), (12,), (8,)]),
    (2, 96, 32, [(8,), (24,), (8,)]),
    # 65 rows in batches of 32: every epoch ends on a single-row batch
    (3, 65, 32, [(24,), (8,), (24, 16), (8,)]),
    # batch_size above the row count: one short batch per epoch
    (3, 20, 32, [(24,), (8,), (24,)]),
])
def test_train_many_mixed_architectures_match_solo_bitwise(classes, rows, batch_size, hiddens):
    centers = zk.blob_centers(classes, 10, 5)
    data = zk.sample_blobs(centers, rows, 0.1, 6)
    jobs = _mixed_jobs(data, hiddens, batch_size=batch_size)
    got = zk.train_many(jobs)
    assert [m.model_id for m in got] == [mid for _, _, mid in jobs]
    for model, (d, c, mid) in zip(got, jobs):
        _assert_same_model(model, zk.train(d, c, mid))
        ref = _reference_train(d, c)
        for lg, lr in zip(model.layers, ref.layers):
            assert lg.weights.tobytes() == lr.weights.tobytes()
            assert lg.bias.tobytes() == lr.bias.tobytes()


def test_train_many_divergence_in_a_mixed_group_rejected(monkeypatch):
    centers = zk.blob_centers(3, 6, 1)
    data = zk.sample_blobs(centers, 64, 0.1, 2)
    jobs = [(data, zk.TrainConfig(hidden=(8,), epochs=3), "ok"),
            (data, zk.TrainConfig(hidden=(24, 16), epochs=3, learning_rate=1e300), "diverges"),
            (data, zk.TrainConfig(hidden=(24,), epochs=3), "ok-wide")]
    forks = count_forks(monkeypatch)
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(DomainError,
                               match="^layer parameters contain non-finite entries$"):
                zk.train_many(jobs)
    assert len(forks) == 1


# --- training lanes --------------------------------------------------------

def _bundled_jobs(master):
    """The jobs ``run_campaign`` trains for the bundled config at ``master``."""
    cfg = zk.experiment._resolve("config", zk.experiment._SCHEMA,
                                 zk.bundled_campaign_config())
    ds = cfg["dataset"]
    centers = zk.blob_centers(ds["classes"], ds["features"],
                              zk.derived_seed(master, "data.centers"))
    data = zk.sample_blobs(centers, ds["train_size"], ds["noise"],
                           zk.derived_seed(master, "data.train"))
    return zk.experiment._train_jobs(cfg, data, master)


@pytest.mark.parametrize("master", [202, 303])
def test_train_many_same_bytes_on_one_two_and_three_lanes(monkeypatch, master):
    jobs = _bundled_jobs(master)
    forks = count_forks(monkeypatch)
    runs = []
    for cpus in (1, 2, 3):
        use_cpus(monkeypatch, cpus)
        before = len(forks)
        runs.append(zk.train_many(jobs))
        assert len(forks) - before == cpus - 1
        assert_no_children()
    for one, two, three in zip(*runs):
        _assert_same_model(two, one)
        _assert_same_model(three, one)


def _three_unit_jobs(diverging=None):
    """Three architectures: on three CPUs, one lane each, (24, 16) in this process."""
    centers = zk.blob_centers(3, 6, 1)
    data = zk.sample_blobs(centers, 64, 0.1, 2)
    return [(data, zk.TrainConfig(hidden=h, epochs=3, rng_seed=i,
                                  learning_rate=1e300 if h == diverging else 0.1), f"m{i}")
            for i, h in enumerate([(24, 16), (8,), (24,)])]


def test_train_many_retrains_a_failed_child_lane_in_process(monkeypatch):
    jobs = _three_unit_jobs()
    want = [zk.train(*job) for job in jobs]
    use_cpus(monkeypatch, 3)
    forks = count_forks(monkeypatch)
    parent, sgd = os.getpid(), zk.nn._sgd
    calls = []

    def fails_in_children(group):
        if os.getpid() != parent:
            raise RuntimeError("child")
        calls.append(1)
        return sgd(group)

    monkeypatch.setattr(zk.nn, "_sgd", fails_in_children)
    for got, model in zip(zk.train_many(jobs), want):
        _assert_same_model(got, model)
    assert len(forks) == 2 and len(calls) == 3  # lane 0, then both failed lanes
    assert_no_children()

    calls.clear()

    def fails_everywhere_but_lane_0(group):
        calls.append(1)
        if os.getpid() != parent or len(calls) > 1:
            raise RuntimeError("serial")
        return sgd(group)

    monkeypatch.setattr(zk.nn, "_sgd", fails_everywhere_but_lane_0)
    with pytest.raises(RuntimeError, match="^serial$"):  # retraining lane 1 in process
        zk.train_many(jobs)
    assert len(forks) == 4
    assert_no_children()  # lane 2's child was killed and reaped

    # all bytes sent, but a non-zero exit: the parent trains the lane again
    calls.clear()
    monkeypatch.setattr(zk.nn, "_sgd", lambda group: calls.append(1) or sgd(group))
    exit_ = os._exit
    monkeypatch.setattr(os, "_exit", lambda status: exit_(3))
    for got, model in zip(zk.train_many(jobs), want):
        _assert_same_model(got, model)
    assert len(calls) == 3
    assert_no_children()


def test_train_many_child_warning_surfaces_under_callers_filters(monkeypatch):
    jobs = _three_unit_jobs(diverging=(8,))  # in the child of lane 1
    forks = count_forks(monkeypatch)
    seen = []
    for cpus in (1, 3):
        use_cpus(monkeypatch, cpus)
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("always", RuntimeWarning)
            with pytest.raises(DomainError,
                               match="^layer parameters contain non-finite entries$"):
                zk.train_many(jobs)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning) as info:
                zk.train_many(jobs)
        seen.append(([str(w.message) for w in shown], str(info.value)))
    assert seen[0] == seen[1] and "overflow" in seen[0][1]
    assert len(forks) == 4
    assert_no_children()


def test_train_many_trains_a_lane_it_cannot_fork_in_process(monkeypatch):
    jobs = _three_unit_jobs()
    want = [zk.train(*job) for job in jobs]
    use_cpus(monkeypatch, 3)

    def no_fork():
        raise BlockingIOError("no process left")

    monkeypatch.setattr(os, "fork", no_fork)
    for got, model in zip(zk.train_many(jobs), want):
        _assert_same_model(got, model)


def test_train_many_kills_and_reaps_children_when_its_own_lane_raises(monkeypatch):
    use_cpus(monkeypatch, 3)
    forks = count_forks(monkeypatch)
    parent, sgd = os.getpid(), zk.nn._sgd

    def fails_in_parent(group):
        if os.getpid() == parent:
            raise RuntimeError("lane 0")
        time.sleep(60)  # still training when the parent gives up
        return sgd(group)

    monkeypatch.setattr(zk.nn, "_sgd", fails_in_parent)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="^lane 0$"):
        zk.train_many(_three_unit_jobs())
    assert time.monotonic() - start < 30  # killed, not waited for
    assert len(forks) == 2
    assert_no_children()


def test_train_many_does_not_fork_while_another_thread_is_alive(monkeypatch):
    jobs = _three_unit_jobs()
    want = [zk.train(*job) for job in jobs]
    use_cpus(monkeypatch, 3)
    forks = []

    def no_fork():
        forks.append(1)
        raise AssertionError("forked with a live thread")

    monkeypatch.setattr(os, "fork", no_fork)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(60,))
    thread.start()
    try:
        got = zk.train_many(jobs)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []
    for model, ref in zip(got, want):
        _assert_same_model(model, ref)


def test_train_single_class_warns():
    pts = np.random.default_rng(0).random((40, 4))
    data = zk.Dataset(pts, np.zeros(40, dtype=np.int64), 2)
    with pytest.warns(RuntimeWarning):
        zk.train(data, zk.TrainConfig(hidden=(4,), epochs=2, rng_seed=0))


def test_train_empty_data_rejected():
    data = zk.Dataset(np.zeros((0, 4)), np.zeros(0, dtype=np.int64), 2)
    with pytest.raises(ShapeError):
        zk.train(data, zk.TrainConfig(epochs=1))


# --- serialization ---------------------------------------------------------

def test_model_round_trip_bit_exact(tmp_path, blob_world):
    path = tmp_path / "m.mlp"
    zk.save_model(blob_world["victim"], path)
    loaded = zk.load_model(path)
    assert loaded.model_id == "victim"
    for la, lb in zip(loaded.layers, blob_world["victim"].layers):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.bias, lb.bias)
    path2 = tmp_path / "m2.mlp"
    zk.save_model(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_dataset_round_trip(tmp_path, blob_world):
    path = tmp_path / "d.ds"
    zk.save_dataset(blob_world["test"], path)
    loaded = zk.load_dataset(path)
    assert np.array_equal(loaded.points, blob_world["test"].points)
    assert np.array_equal(loaded.labels, blob_world["test"].labels)
    assert loaded.class_count == 3


def test_blobs_deterministic_and_clipped():
    centers = zk.blob_centers(3, 5, 1)
    a = zk.sample_blobs(centers, 50, 0.3, 2)
    b = zk.sample_blobs(centers, 50, 0.3, 2)
    assert np.array_equal(a.points, b.points)
    assert a.points.min() >= 0.0 and a.points.max() <= 1.0
