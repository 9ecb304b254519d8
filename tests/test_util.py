import numpy as np
import pytest

import zestkit as zk
from zestkit.errors import IntegrityError
from zestkit.util import (atomic_write_bytes, canonical_json, config_hash,
                          container_bytes, csv_text, derived_seed, read_container,
                          sha256_file, write_container)


def test_derived_seed_deterministic_and_labeled():
    a = derived_seed(42, "stage.one")
    assert a == derived_seed(42, "stage.one")
    assert a != derived_seed(42, "stage.two")
    assert a != derived_seed(43, "stage.one")
    assert 0 <= a < 2 ** 64


def test_canonical_json_sorted_and_compact():
    s = canonical_json({"b": 1, "a": [1, 2]})
    assert s == '{"a":[1,2],"b":1}'
    assert config_hash({"b": 1, "a": [1, 2]}) == config_hash({"a": [1, 2], "b": 1})


def test_container_round_trip(tmp_path):
    path = tmp_path / "x.bin"
    arrays = {
        "f": np.arange(6, dtype=np.float64).reshape(2, 3),
        "i": np.array([1, -2, 3], dtype=np.int64),
        "m": np.array([True, False, True]),
    }
    write_container(path, "test-kind", {"k": "v", "n": 3}, arrays)
    meta, out = read_container(path, "test-kind")
    assert meta == {"k": "v", "n": 3}
    assert np.array_equal(out["f"], arrays["f"]) and out["f"].dtype == np.float64
    assert np.array_equal(out["i"], arrays["i"]) and out["i"].dtype == np.int64
    assert np.array_equal(out["m"].astype(bool), arrays["m"])


def test_container_bytes_deterministic():
    arrays = {"a": np.linspace(0, 1, 7)}
    one = container_bytes("k", {"x": 1}, arrays)
    two = container_bytes("k", {"x": 1}, arrays)
    assert one == two


def test_container_wrong_kind(tmp_path):
    path = tmp_path / "x.bin"
    write_container(path, "kind-a", {}, {"a": np.zeros(2)})
    with pytest.raises(IntegrityError, match="kind"):
        read_container(path, "kind-b")


def test_container_corrupt_payload(tmp_path):
    path = tmp_path / "x.bin"
    write_container(path, "kind-a", {}, {"a": np.zeros(4)})
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(IntegrityError, match="checksum"):
        read_container(path, "kind-a")


def test_container_not_a_container(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"hello world, definitely not a container")
    with pytest.raises(IntegrityError):
        read_container(path, "kind-a")


def test_container_truncated(tmp_path):
    path = tmp_path / "x.bin"
    write_container(path, "kind-a", {}, {"a": np.zeros(64)})
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) - 32])
    with pytest.raises(IntegrityError):
        read_container(path, "kind-a")


def test_atomic_write_replaces(tmp_path):
    path = tmp_path / "f.txt"
    atomic_write_bytes(path, b"one")
    atomic_write_bytes(path, b"two")
    assert path.read_bytes() == b"two"
    assert [p.name for p in tmp_path.iterdir()] == ["f.txt"]  # no temp litter


def test_sha256_file(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(b"abc")
    assert sha256_file(path) == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")


def test_csv_text_dialect():
    text = csv_text(["id", "value", "count"],
                    [["a", repr(0.1 + 0.2), 3], ["vic,tim", repr(1e-300), 0]])
    assert text == ('id,value,count\n'
                    'a,0.30000000000000004,3\n'
                    '"vic,tim",1e-300,0\n')
    assert csv_text(["only"], []) == "only\n"


def _owned_cases():
    rng = np.random.default_rng(3)
    grid = zk.SegmentGrid(np.array([0, 0, 1, 1], dtype=np.int64), 2)
    pts = rng.random((3, 4))
    return [
        (zk.nn.Layer, dict(weights=rng.normal(size=(4, 2)), bias=rng.normal(size=2),
                           activation="relu")),
        (zk.SegmentGrid, dict(assignment=np.array([0, 1, 1], dtype=np.int64),
                              segment_count=2)),
        (zk.PerturbationPlan, dict(points=rng.random((2, 4)), grid=grid,
                                   config=zk.LimeConfig(perturbations=4), seed=0)),
        (zk.PointModel, dict(coef=rng.normal(size=(3, 2)), intercept=rng.normal(size=3))),
        (zk.TransferMatrix, dict(model_ids=("a", "b"), rates=rng.random((2, 2)))),
        (zk.AdversarialBatch, dict(
            originals=pts, labels=np.array([0, 1, 2], dtype=np.int64),
            adversarials=np.clip(pts + 0.01, 0.0, 1.0),
            local_success=np.array([True, False, True]),
            achieved_loss=rng.random(3), restart_index=np.array([0, 2, 1], dtype=np.int64),
            epsilon=0.05, surrogate_id="s")),
    ]


@pytest.mark.parametrize("case", _owned_cases(), ids=lambda case: case[0].__name__)
def test_value_types_own_read_only_copies(case):
    cls, kwargs = case
    obj = cls(**kwargs)
    for name, caller in kwargs.items():
        if not isinstance(caller, np.ndarray):
            continue
        stored = getattr(obj, name)
        assert caller.flags.writeable, name
        assert not stored.flags.writeable, name
        assert not np.shares_memory(stored, caller), name
        before = stored.copy()
        caller[...] = ~caller if caller.dtype == bool else caller + 1
        assert np.array_equal(stored, before), name
