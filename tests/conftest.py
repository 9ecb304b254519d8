import os

import numpy as np
import pytest

import zestkit as zk


def tiny_net(seed, input_dim=4, class_count=3, hidden=(6,)):
    """Small random MLP without training, for gradient/metric tests."""
    rng = np.random.default_rng(seed)
    widths = [input_dim, *hidden, class_count]
    layers = []
    for i in range(len(widths) - 1):
        w = rng.normal(0.0, 1.0, size=(widths[i], widths[i + 1]))
        b = rng.normal(0.0, 0.2, size=widths[i + 1])
        act = "relu" if i < len(widths) - 2 else "identity"
        layers.append(zk.nn.Layer(w, b, act))
    return zk.MlpModel(tuple(layers), model_id=f"tiny-{seed}")


def linear_net(w, b, model_id="linear"):
    """Single identity-activation layer: logits = x @ w + b."""
    return zk.MlpModel((zk.nn.Layer(np.asarray(w, dtype=np.float64),
                                    np.asarray(b, dtype=np.float64),
                                    "identity"),), model_id=model_id)


def use_cpus(monkeypatch, count):
    """Make ``count`` CPUs this process's affinity set, as ``train_many`` sees it."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def count_forks(monkeypatch):
    """The list that every later ``os.fork`` call appends to, in this process."""
    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def assert_no_children():
    """No child process of this one is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="session")
def blob_world():
    """Shared well-separated blobs plus a trained model pair."""
    centers = zk.blob_centers(3, 16, zk.derived_seed(7, "data.centers"))
    train_data = zk.sample_blobs(centers, 600, 0.08, zk.derived_seed(7, "data.train"))
    test_data = zk.sample_blobs(centers, 300, 0.08, zk.derived_seed(7, "data.test"))
    victim = zk.train(train_data, zk.TrainConfig(hidden=(24,), epochs=40, rng_seed=1),
                      model_id="victim")
    proxy = zk.train(train_data, zk.TrainConfig(hidden=(24,), epochs=40, rng_seed=2),
                     model_id="proxy")
    return {"centers": centers, "train": train_data, "test": test_data,
            "victim": victim, "proxy": proxy}


@pytest.fixture(scope="session")
def small_plan(blob_world):
    grid = zk.SegmentGrid.uniform(16, 8)
    cfg = zk.LimeConfig(perturbations=120)
    return zk.make_plan(blob_world["train"], 6, grid, cfg, seed=11,
                        models=[blob_world["victim"], blob_world["proxy"]])
