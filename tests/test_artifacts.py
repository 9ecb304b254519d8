"""Artifact files: their exact bytes, and what each loader accepts."""

import hashlib

import numpy as np
import pytest

import zestkit as zk
from zestkit.cli import main
from zestkit.errors import IntegrityError
from zestkit.util import read_container, write_container


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
    where = "arrays" if key in ("labels", "grid_assignment") else "meta"
    assert str(err.value) == f"{path}: {where}: missing key {key!r}"


@pytest.mark.parametrize("edit, message", [
    (lambda meta, arrays: meta.update(note=1), "meta: unknown keys ['note']"),
    (lambda meta, arrays: arrays.update(extra=np.zeros(3)), "arrays: unknown keys ['extra']"),
    (lambda meta, arrays: arrays.pop("labels"), "arrays: missing key 'labels'"),
    (lambda meta, arrays: meta.update(labels=[0, 1, 0]), "meta: unknown keys ['labels']"),
], ids=["extra-meta", "extra-array", "missing-array", "meta-and-array"])
def test_load_batch_takes_exactly_the_batch_fields(tmp_path, edit, message):
    path = tmp_path / "x.adv"
    zk.save_batch(_batch(False), path)
    meta, arrays = read_container(path, "adversarial-batch")
    edit(meta, arrays)
    write_container(path, "adversarial-batch", meta, arrays)
    with pytest.raises(IntegrityError) as err:
        zk.load_batch(path)
    assert str(err.value) == f"{path}: {message}"


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


def _saved_with_nested_edit(path, artifact, kind, edit):
    """``path``, holding the saved ``artifact`` with ``edit(meta)`` applied."""
    save, value = _artifacts()[artifact]
    save(value, path)
    meta, arrays = read_container(path, kind)
    edit(meta)
    write_container(path, kind, meta, arrays)
    return path


_NESTED_EDITS = {  # the plan's config with an extra key; a layer without its activation
    "plan": ("perturbation-plan", lambda meta: meta["config"].update(extra=1)),
    "model": ("mlp-model", lambda meta: meta["architecture"][0].pop("activation")),
}


def test_load_plan_takes_exactly_the_lime_config_fields(tmp_path):
    path = _saved_with_nested_edit(tmp_path / "x", "plan", *_NESTED_EDITS["plan"])
    with pytest.raises(IntegrityError) as err:
        zk.load_plan(path)
    assert str(err.value) == f"{path}: meta.config: unknown keys ['extra']"


def test_load_model_raises_integrity_error_for_a_layer_without_activation(tmp_path):
    path = _saved_with_nested_edit(tmp_path / "x", "model", *_NESTED_EDITS["model"])
    with pytest.raises(IntegrityError) as err:
        zk.load_model(path)
    assert str(err.value) == f"{path}: meta.architecture[0]: missing key 'activation'"


@pytest.mark.parametrize("command, artifact", [("sign", "plan"), ("transfer", "model")])
def test_cli_reports_nested_metadata_it_cannot_load(capsys, tmp_path, command, artifact):
    path = _saved_with_nested_edit(tmp_path / "x", artifact, *_NESTED_EDITS[artifact])
    model, batch = tmp_path / "m.mlp", tmp_path / "b.adv"
    zk.save_model(_model(), model)
    zk.save_batch(_batch(False), batch)
    argv = {"sign": ["--oracle", model, "--plan", path, "--out", tmp_path / "x.sig"],
            "transfer": ["--victim", path, "--batch", batch]}[command]
    code = main([command, *map(str, argv)])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith(f"error: {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("load, artifact, kind, key, value, expected", [
    (zk.load_plan, "plan", "perturbation-plan", "segment_count", "four", "int"),
    (zk.load_plan, "plan", "perturbation-plan", "verified_model_ids", 5, "a list"),
    (zk.load_plan, "plan", "perturbation-plan", "seed", "5", "int"),
    (zk.load_plan, "plan", "perturbation-plan", "fingerprint", 5, "str"),
    (zk.load_model, "model", "mlp-model", "architecture", 5, "a list"),
    (zk.load_model, "model", "mlp-model", "model_id", 5, "str"),
    (zk.load_model, "model", "mlp-model", "metadata", [1], "dict"),
    (zk.load_dataset, "dataset", "dataset", "class_count", "3", "int"),
    (zk.load_dataset, "dataset", "dataset", "class_count", 3.5, "int"),
    (zk.load_dataset, "dataset", "dataset", "class_count", True, "int"),
    (zk.load_signature, "signature", "lime-signature", "model_id", 5, "str"),
    (zk.load_signature, "signature", "lime-signature", "plan_fingerprint", [1], "str"),
    (zk.load_batch, "batch", "adversarial-batch", "epsilon", "x", "float"),
    (zk.load_batch, "batch", "adversarial-batch", "surrogate_id", 7, "str"),
    # a truthy string would widen the epsilon tolerance by the quantization slack
    (zk.load_batch, "batch", "adversarial-batch", "quantized", "no", "bool"),
], ids=["plan-segment_count", "plan-verified_model_ids", "plan-seed", "plan-fingerprint",
        "model-architecture", "model-model_id", "model-metadata", "dataset-class_count-str",
        "dataset-class_count-float", "dataset-class_count-bool", "signature-model_id",
        "signature-plan_fingerprint", "batch-epsilon", "batch-surrogate_id",
        "batch-quantized"])
def test_loader_raises_integrity_error_for_a_meta_value_of_the_wrong_type(
        tmp_path, load, artifact, kind, key, value, expected):
    path = _saved_with_nested_edit(tmp_path / "x", artifact, kind,
                                   lambda meta: meta.update({key: value}))
    with pytest.raises(IntegrityError) as err:
        load(path)
    assert str(err.value) == f"{path}: meta.{key}: expected {expected}, got {value!r}"


def test_a_batch_epsilon_may_be_an_int(tmp_path):
    path = _saved_with_nested_edit(tmp_path / "x", "batch", "adversarial-batch",
                                   lambda meta: meta.update(epsilon=1))
    assert zk.load_batch(path).epsilon == 1


@pytest.mark.parametrize("command, artifact, kind, key, value", [
    ("sign", "plan", "perturbation-plan", "segment_count", "four"),
    ("attack", "dataset", "dataset", "class_count", "3"),
], ids=["sign", "attack"])
def test_cli_reports_a_meta_value_of_the_wrong_type(capsys, tmp_path, command, artifact, kind,
                                                    key, value):
    path = _saved_with_nested_edit(tmp_path / "x", artifact, kind,
                                   lambda meta: meta.update({key: value}))
    model = tmp_path / "m.mlp"
    zk.save_model(_model(), model)
    argv = {"sign": ["--oracle", model, "--plan", path, "--out", tmp_path / "x.sig"],
            "attack": ["--model", model, "--data", path, "--out", tmp_path / "x.adv"]}[command]
    code = main([command, *map(str, argv)])
    err = capsys.readouterr().err
    assert code == 1 and err == f"error: {path}: meta.{key}: expected int, got {value!r}\n"


@pytest.mark.parametrize("epsilon", [float("nan"), float("inf")])
def test_load_batch_rejects_an_epsilon_that_is_not_finite(tmp_path, epsilon):
    path = _saved_with_nested_edit(tmp_path / "x", "batch", "adversarial-batch",
                                   lambda meta: meta.update(epsilon=epsilon))
    with pytest.raises(IntegrityError) as err:
        zk.load_batch(path)
    assert str(err.value) == f"{path}: epsilon must be >= 0 and finite"


def test_a_batch_saved_with_an_int_epsilon_re_saves_to_the_same_bytes(tmp_path):
    batch = _batch(False)
    zk.save_batch(zk.AdversarialBatch(**{**vars(batch), "epsilon": 1}), tmp_path / "a")
    zk.save_batch(zk.load_batch(tmp_path / "a"), tmp_path / "b")
    assert (tmp_path / "b").read_bytes() == (tmp_path / "a").read_bytes()


def test_a_plan_with_an_int_ridge_loads_and_re_saves_to_the_same_bytes(tmp_path):
    plan = _plan()
    config = zk.LimeConfig(perturbations=4, ridge=1)
    zk.save_plan(zk.PerturbationPlan(plan.points, plan.grid, config, plan.seed), tmp_path / "a")
    loaded = zk.load_plan(tmp_path / "a")
    assert loaded.config.ridge == 1
    zk.save_plan(loaded, tmp_path / "b")
    assert (tmp_path / "b").read_bytes() == (tmp_path / "a").read_bytes()


@pytest.mark.parametrize("key, value, expected", [
    ("perturbations", "x", "int"),
    ("ridge", "1", "float"),
    ("kernel_width", "w", "float"),
])
def test_load_plan_raises_integrity_error_for_a_config_value_of_the_wrong_type(
        tmp_path, key, value, expected):
    path = _saved_with_nested_edit(tmp_path / "x", "plan", "perturbation-plan",
                                   lambda meta: meta["config"].update({key: value}))
    with pytest.raises(IntegrityError) as err:
        zk.load_plan(path)
    assert str(err.value) == f"{path}: meta.config.{key}: expected {expected}, got {value!r}"


def _two_layer_model():
    hidden = zk.nn.Layer(np.arange(8.0).reshape(2, 4) / 8, np.arange(4.0) / 8, "relu")
    out = zk.nn.Layer(np.arange(20.0).reshape(4, 5) / 16, np.arange(5.0) / 4, "identity")
    return zk.MlpModel((hidden, out), model_id="m2")


@pytest.mark.parametrize("edit, message", [
    # the hidden layer alone would load as a 1-layer, 5-class model
    (lambda arch: arch.pop(0), "arrays: unknown keys ['b1', 'w1']"),
    (lambda arch: arch[0].update(fan_in=99),
     "w0 has shape (2, 4), but architecture entry 0 says (99, 4)"),
    (lambda arch: arch[1].update(fan_out=3),
     "w1 has shape (4, 5), but architecture entry 1 says (4, 3)"),
    (lambda arch: arch[0].update(fan_in="2"),
     "meta.architecture[0].fan_in: expected int, got '2'"),
    (lambda arch: arch.append(dict(arch[1])), "arrays: missing key 'w2'"),
], ids=["entry-dropped", "fan-in", "fan-out", "fan-in-a-string", "entry-added"])
def test_load_model_checks_its_architecture_against_its_arrays(tmp_path, edit, message):
    path = tmp_path / "x.mlp"
    zk.save_model(_two_layer_model(), path)
    meta, arrays = read_container(path, "mlp-model")
    edit(meta["architecture"])
    write_container(path, "mlp-model", meta, arrays)
    with pytest.raises(IntegrityError) as err:
        zk.load_model(path)
    assert str(err.value) == f"{path}: {message}"


@pytest.mark.parametrize("key, value, message", [
    ("n", 99, "n, class_count and segment_count (99, 3, 4) do not match coef's shape (2, 3, 4)"),
    ("segment_count", 5,
     "n, class_count and segment_count (2, 3, 5) do not match coef's shape (2, 3, 4)"),
    ("class_count", "x", "meta.class_count: expected int, got 'x'"),
    ("segment_count", None, "meta.segment_count: expected int, got None"),
], ids=["n", "segment_count", "class_count-a-string", "segment_count-null"])
def test_load_signature_checks_its_meta_against_coef(tmp_path, key, value, message):
    path = _saved_with_nested_edit(tmp_path / "x", "signature", "lime-signature",
                                   lambda meta: meta.update({key: value}))
    with pytest.raises(IntegrityError) as err:
        zk.load_signature(path)
    assert str(err.value) == f"{path}: {message}"


def test_train_many_records_its_config_with_hidden_a_list():
    data = zk.Dataset(np.arange(16.0).reshape(8, 2) / 16, np.arange(8) % 2, 2)
    cfg = zk.TrainConfig(hidden=(3, 2), epochs=1, batch_size=4, learning_rate=0.5, rng_seed=9)
    (model,) = zk.train_many([(data, cfg, "m")])
    train_config = model.metadata["train_config"]
    assert train_config == {"hidden": [3, 2], "epochs": 1, "batch_size": 4,
                            "learning_rate": 0.5, "rng_seed": 9}
    assert type(train_config["hidden"]) is list


def _saved_with_array(path, artifact, kind, name, array):
    """``path``, holding the saved ``artifact`` with its array ``name`` replaced."""
    save, value = _artifacts()[artifact]
    save(value, path)
    meta, arrays = read_container(path, kind)
    arrays[name] = array
    write_container(path, kind, meta, arrays)
    return path


@pytest.mark.parametrize("load, artifact, kind, name, array, want", [
    (zk.load_signature, "signature", "lime-signature", "coef",
     np.arange(24).reshape(2, 3, 4), "<f8"),
    (zk.load_model, "model", "mlp-model", "w0", np.arange(6).reshape(2, 3), "<f8"),
    (zk.load_dataset, "dataset", "dataset", "labels", np.arange(6.0) % 3, "<i8"),
    (zk.load_plan, "plan", "perturbation-plan", "grid_assignment", np.arange(4.0) // 2,
     "<i8"),
    (zk.load_batch, "batch", "adversarial-batch", "local_success", np.arange(3) % 2, "|u1"),
], ids=["signature", "model", "dataset", "plan", "batch"])
def test_loader_rejects_an_array_of_another_dtype(tmp_path, load, artifact, kind, name,
                                                   array, want):
    # each loads as its cast at a loader that does not check: the file's bytes do not re-save
    path = _saved_with_array(tmp_path / "x", artifact, kind, name, array)
    with pytest.raises(IntegrityError) as err:
        load(path)
    assert str(err.value) == (f"{path}: arrays.{name}: expected {want} array, "
                              f"got {array.dtype.str!r}")


def _empty_id_values():
    layer = zk.nn.Layer(np.eye(2), np.zeros(2), "identity")
    batch = vars(_batch(False))
    return {
        "model": lambda: zk.MlpModel((layer,), model_id=""),
        "signature": lambda: zk.Signature.from_arrays("", "f", np.zeros((1, 2, 2)),
                                                      np.zeros((1, 2))),
        "signature-of-point-models": lambda: zk.Signature(
            "", "f", (zk.lime.PointModel(np.zeros((2, 2)), np.zeros(2)),)),
        "batch": lambda: zk.AdversarialBatch(**{**batch, "surrogate_id": ""}),
    }


@pytest.mark.parametrize("value", _empty_id_values())
def test_value_types_reject_an_empty_id(value):
    with pytest.raises(zk.errors.ConfigError, match="_id must not be empty$"):
        _empty_id_values()[value]()


@pytest.mark.parametrize("load, artifact, kind, key", [
    (zk.load_model, "model", "mlp-model", "model_id"),
    (zk.load_signature, "signature", "lime-signature", "model_id"),
    (zk.load_batch, "batch", "adversarial-batch", "surrogate_id"),
], ids=["model", "signature", "batch"])
def test_loader_raises_integrity_error_for_an_empty_id(tmp_path, load, artifact, kind, key):
    path = _saved_with_nested_edit(tmp_path / "x", artifact, kind,
                                   lambda meta: meta.update({key: ""}))
    with pytest.raises(IntegrityError) as err:
        load(path)
    assert str(err.value) == f"{path}: {key} must not be empty"


@pytest.mark.parametrize("command, artifact, kind, key", [
    ("dist", "signature", "lime-signature", "model_id"),
    ("transfer", "batch", "adversarial-batch", "surrogate_id"),
    ("transfer", "model", "mlp-model", "model_id"),
], ids=["dist", "transfer-batch", "transfer-model"])
def test_cli_reports_an_empty_id(capsys, tmp_path, command, artifact, kind, key):
    path = _saved_with_nested_edit(tmp_path / "x", artifact, kind,
                                   lambda meta: meta.update({key: ""}))
    model, batch, sig = tmp_path / "m.mlp", tmp_path / "b.adv", tmp_path / "s.sig"
    zk.save_model(_model(), model)
    zk.save_batch(_batch(False), batch)
    zk.save_signature(_artifacts()["signature"][1], sig)
    argv = {"dist": [sig, path],
            "transfer": (["--victim", model, "--batch", path] if artifact == "batch"
                         else ["--victim", path, "--batch", batch])}[command]
    code = main([command, *map(str, argv)])
    err = capsys.readouterr().err
    assert code == 1 and err == f"error: {path}: {key} must not be empty\n"


def _nan_at_0(a):
    a = a.copy()
    a.flat[0] = np.nan
    return a


def _moved_past_epsilon(meta, arrays):
    arrays["adversarials"][0, 0] = arrays["originals"][0, 0] + meta["epsilon"] + 0.5


@pytest.mark.parametrize("artifact, kind, edit, message", [
    ("plan", "perturbation-plan", lambda meta, arrays: meta["config"].update(perturbations=0),
     "perturbations must be >= 1"),
    ("plan", "perturbation-plan", lambda meta, arrays: meta["config"].update(perturbations=1),
     "need perturbations >= segment count for a solvable regression"),
    ("plan", "perturbation-plan",
     lambda meta, arrays: arrays.update(grid_assignment=np.zeros(4, dtype=np.int64)),
     "segments must cover 0..1"),
    ("plan", "perturbation-plan",
     lambda meta, arrays: arrays.update(grid_assignment=np.arange(5) // 3),
     "points have 4 features but grid covers 5"),
    ("plan", "perturbation-plan", lambda meta, arrays: meta["config"].update(kernel_width=0),
     "kernel_width must be > 0"),
    ("plan", "perturbation-plan", lambda meta, arrays: arrays.update(points=_nan_at_0(
        arrays["points"])), "reference points contain non-finite entries"),
    ("model", "mlp-model", lambda meta, arrays: arrays.update(b0=np.arange(4.0)),
     "layer weights (2, 3) / bias (4,) inconsistent"),
    ("model", "mlp-model", lambda meta, arrays: arrays.update(w0=_nan_at_0(arrays["w0"])),
     "layer parameters contain non-finite entries"),
    ("signature", "lime-signature",
     lambda meta, arrays: arrays.update(coef=_nan_at_0(arrays["coef"])),
     "signature has non-finite coefficients"),
    ("signature", "lime-signature",
     lambda meta, arrays: arrays.update(intercept=arrays["intercept"][:1]),
     "signature coef (2, 3, 4) / intercept (1, 3) must be (N, K, S) / (N, K) with N >= 1"),
    ("batch", "adversarial-batch", lambda meta, arrays: arrays.update(labels=arrays["labels"][:2]),
     "labels must have one entry per point"),
    ("batch", "adversarial-batch", _moved_past_epsilon,
     "adversarial point exceeds the epsilon budget"),
    ("dataset", "dataset", lambda meta, arrays: meta.update(class_count=2),
     "labels must lie in [0,2)"),
], ids=["plan-perturbations-0", "plan-perturbations-below-segments", "plan-segment-missing",
        "plan-grid-wider", "plan-kernel_width-0", "plan-point-nan", "model-bias-long",
        "model-weight-nan", "signature-coef-nan", "signature-intercept-short",
        "batch-labels-short", "batch-past-epsilon", "dataset-label-out-of-range"])
def test_loader_and_cli_name_the_file_for_a_bad_stored_value(capsys, tmp_path, artifact, kind,
                                                             edit, message):
    # each file re-sealed, so only the value type's own check sees the fault
    save, value = _artifacts()[artifact]
    path = tmp_path / "x"
    save(value, path)
    meta, arrays = read_container(path, kind)
    edit(meta, arrays)
    write_container(path, kind, meta, arrays)
    load = {"plan": zk.load_plan, "model": zk.load_model, "signature": zk.load_signature,
            "batch": zk.load_batch, "dataset": zk.load_dataset}[artifact]
    with pytest.raises(IntegrityError) as err:
        load(path)
    assert str(err.value) == f"{path}: {message}"
    model, batch, sig = tmp_path / "m.mlp", tmp_path / "b.adv", tmp_path / "s.sig"
    zk.save_model(_model(), model)
    zk.save_batch(_batch(False), batch)
    zk.save_signature(_artifacts()["signature"][1], sig)
    argv = {"plan": ["sign", "--oracle", model, "--plan", path, "--out", tmp_path / "x.sig"],
            "model": ["transfer", "--victim", path, "--batch", batch],
            "signature": ["dist", sig, path],
            "batch": ["transfer", "--victim", model, "--batch", path],
            "dataset": ["attack", "--model", model, "--data", path, "--out", tmp_path / "x.adv"],
            }[artifact]
    code = main(list(map(str, argv)))
    assert code == 1 and capsys.readouterr().err == f"error: {path}: {message}\n"
