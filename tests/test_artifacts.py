"""Artifact files: their exact bytes, and what each loader accepts."""

import hashlib

import numpy as np
import pytest

import zestkit as zk
from zestkit.cli import main
from zestkit.errors import IntegrityError
from zestkit.util import read_container, write_container


# AdversarialBatch's fields in declaration order: its arrays, then its meta
_BATCH_FIELDS = ["originals", "labels", "adversarials", "local_success", "achieved_loss",
                 "restart_index", "epsilon", "surrogate_id", "quantized"]


def _batch(quantized):
    originals = np.arange(12.0).reshape(3, 4) / 16
    batch = zk.AdversarialBatch(
        originals=originals, labels=np.arange(3) % 2, adversarials=originals + 1 / 64,
        local_success=np.arange(3) % 2 == 0, achieved_loss=np.arange(3) / 4,
        restart_index=np.arange(3) % 2, epsilon=0.03125, surrogate_id="sur-a")
    return zk.quantize(batch) if quantized else batch


def _plan():
    grid = zk.SegmentGrid(np.arange(4) // 2, 2)
    return zk.PerturbationPlan(np.arange(8.0).reshape(2, 4) / 8, grid,
                               zk.LimeConfig(perturbations=4, ridge=0.5, replacement="zeros"),
                               5, verified_model_ids=("a", "b"))


def _model():
    layer = zk.nn.Layer(np.arange(6.0).reshape(2, 3) / 4, np.arange(3.0) / 8, "identity")
    return zk.MlpModel((layer,), model_id="m", metadata={"note": [1, 2]})


def _artifacts():
    """(save, value) of each artifact kind. Every value is built from np.arange
    values, so no BLAS or RNG call shapes its bytes: the digests below hold on
    any machine and pin each file format."""
    return {
        "batch": (zk.save_batch, _batch(False)),
        "batch-quantized": (zk.save_batch, _batch(True)),
        "dataset": (zk.save_dataset,
                    zk.Dataset(np.arange(12.0).reshape(6, 2) / 16, np.arange(6) % 3, 3)),
        "plan": (zk.save_plan, _plan()),
        "signature": (zk.save_signature, zk.Signature.from_arrays(
            "sig-a", "f" * 64, np.arange(24.0).reshape(2, 3, 4) / 8,
            np.arange(6.0).reshape(2, 3) / 4)),
        "model": (zk.save_model, _model()),
    }


_PINNED = {
    "batch": "3a4d676ad065aa591cfab7d127961617f276580679f9dd7ebd1a4aeba1e245c1",
    "batch-quantized": "b258e5bdcc84914baac96f15c79dd7802ee3e509cea2e08665578abf9a60c437",
    "dataset": "ff918f101fa6c41257e0b571e5ae18dd83cea53ba847eec14d43f72576c01a28",
    "plan": "a6f7170ca9235b3cbf07ba36ab57d187e7bc02779226d987af13d9a20c636561",
    "signature": "4ef51c698cee7a902222d96958b071d4a7460732a0067e8e6561ebb2ccec1439",
    "model": "bd07889cb6093eb8e51fa03ed4c18ec7965457027bbda62fe96c8b30ff3c70a3",
}


@pytest.mark.parametrize("kind", _PINNED)
def test_saved_artifact_bytes_are_pinned(tmp_path, kind):
    save, value = _artifacts()[kind]
    save(value, tmp_path / "x")
    assert hashlib.sha256((tmp_path / "x").read_bytes()).hexdigest() == _PINNED[kind]


def _saved_without(path, artifact, kind, key):
    """``path``, holding the saved ``artifact`` less its meta key or array ``key``."""
    save, value = _artifacts()[artifact]
    save(value, path)
    meta, arrays = read_container(path, kind)
    meta.pop(key, None)
    arrays.pop(key, None)
    write_container(path, kind, meta, arrays)
    return path


@pytest.mark.parametrize("load, artifact, kind, key", [
    (zk.load_model, "model", "mlp-model", "architecture"),
    (zk.load_dataset, "dataset", "dataset", "labels"),
    (zk.load_signature, "signature", "lime-signature", "model_id"),
    (zk.load_plan, "plan", "perturbation-plan", "grid_assignment"),
    (zk.load_batch, "batch", "adversarial-batch", "quantized"),
], ids=["model", "dataset", "signature", "plan", "batch"])
def test_loader_raises_integrity_error_for_a_missing_key(tmp_path, load, artifact, kind, key):
    path = _saved_without(tmp_path / "x", artifact, kind, key)
    with pytest.raises(IntegrityError) as err:
        load(path)
    if load is zk.load_batch:  # its own check lists what the file holds
        expected = f"{path}: holds {sorted(set(_BATCH_FIELDS) - {key})}, not the batch fields"
    else:
        expected = f"{path}: container lacks {key!r}"
    assert str(err.value).startswith(expected)


@pytest.mark.parametrize("edit", [
    lambda meta, arrays: meta.update(note=1),
    lambda meta, arrays: arrays.update(extra=np.zeros(3)),
    lambda meta, arrays: arrays.pop("labels"),
    lambda meta, arrays: meta.update(labels=[0, 1, 0]),
], ids=["extra-meta", "extra-array", "missing-array", "meta-and-array"])
def test_load_batch_takes_exactly_the_batch_fields(tmp_path, edit):
    path = tmp_path / "x.adv"
    zk.save_batch(_batch(False), path)
    meta, arrays = read_container(path, "adversarial-batch")
    edit(meta, arrays)
    write_container(path, "adversarial-batch", meta, arrays)
    with pytest.raises(IntegrityError) as err:
        zk.load_batch(path)
    assert str(err.value) == (f"{path}: holds {sorted([*meta, *arrays])}, "
                              f"not the batch fields {_BATCH_FIELDS}")


@pytest.mark.parametrize("command, artifact, kind, key", [
    ("transfer", "batch", "adversarial-batch", "quantized"),
    ("sign", "plan", "perturbation-plan", "grid_assignment"),
], ids=["transfer", "sign"])
def test_cli_reports_a_container_missing_a_key(capsys, tmp_path, command, artifact, kind, key):
    path = _saved_without(tmp_path / "x", artifact, kind, key)
    model = tmp_path / "m.mlp"
    zk.save_model(_model(), model)
    argv = {"transfer": ["--victim", model, "--batch", path],
            "sign": ["--oracle", model, "--plan", path, "--out", tmp_path / "x.sig"]}[command]
    code = main([command, *map(str, argv)])
    err = capsys.readouterr().err
    # one line, the loader's IntegrityError (test above), not a traceback
    assert code == 1 and err.startswith(f"error: {path}: ") and err.count("\n") == 1


def test_train_many_records_its_config_with_hidden_a_list():
    data = zk.Dataset(np.arange(16.0).reshape(8, 2) / 16, np.arange(8) % 2, 2)
    cfg = zk.TrainConfig(hidden=(3, 2), epochs=1, batch_size=4, learning_rate=0.5, rng_seed=9)
    (model,) = zk.train_many([(data, cfg, "m")])
    train_config = model.metadata["train_config"]
    assert train_config == {"hidden": [3, 2], "epochs": 1, "batch_size": 4,
                            "learning_rate": 0.5, "rng_seed": 9}
    assert type(train_config["hidden"]) is list
