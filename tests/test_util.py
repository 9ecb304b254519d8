import hashlib
import os
import pickle
import struct
import time

import numpy as np
import pytest

import zestkit as zk
from zestkit.errors import IntegrityError
from zestkit.util import (ForkLanes, atomic_write_bytes, canonical_json, config_hash,
                          container_bytes, csv_text, derived_seed, read_container,
                          sha256_file, write_container)

from conftest import assert_no_children, count_forks, fork_pids, use_cpus


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


def _hand_built_container(path, header=None, **fields):
    """A container of two float64 zeros: its header is ``header`` when given, else
    a valid one with ``fields`` put in, or left out where set to None."""
    payload = np.zeros(2).tobytes()
    if header is None:
        header = {"magic_kind": "kind-a", "format_version": 1, "meta": {},
                  "payload_sha256": hashlib.sha256(payload).hexdigest(), **fields}
        header = {k: v for k, v in header.items() if v is not None}
    text = canonical_json(header)
    path.write_bytes(b"ZSTK" + struct.pack("<I", len(text)) + text.encode() + payload)
    return path


@pytest.mark.parametrize("dtype, shape", [("<f4", [2]), (["<f8"], [2]), ("<f8", [-1]),
                                          ("<f8", 2)])
def test_container_rejects_bad_array_entry(tmp_path, dtype, shape):
    path = _hand_built_container(tmp_path / "x.bin",
                                 arrays=[{"name": "a", "dtype": dtype, "shape": shape}])
    with pytest.raises(IntegrityError, match="'a' has"):
        read_container(path, "kind-a")


# a separate test, so the four ids above stay as they were
@pytest.mark.parametrize("lacks", ["arrays", "name", "dtype", "shape"])
def test_container_rejects_header_without_array_fields(tmp_path, lacks):
    entry = {"name": "a", "dtype": "<f8", "shape": [2]}
    entry.pop(lacks, None)
    header = {} if lacks == "arrays" else {"arrays": [entry]}
    with pytest.raises(IntegrityError, match="array list" if lacks == "arrays" else "lacks"):
        read_container(_hand_built_container(tmp_path / "x.bin", **header), "kind-a")


@pytest.mark.parametrize("header, match", [(None, "no meta object"),
                                           ([1, 2], "not a JSON object")],
                         ids=["no-meta", "list"])
def test_container_rejects_header_without_meta_or_not_an_object(tmp_path, header, match):
    path = _hand_built_container(tmp_path / "x.bin", header, meta=None, arrays=[])
    with pytest.raises(IntegrityError, match=match):
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
    # writers pass raw values: floats and numpy float64 must come out as repr(float(x))
    floats = [0.1 + 0.2, -0.0, 5e-324, 1e16, 1e-05, float("inf"), float("nan")]
    text = ["0.30000000000000004", "-0.0", "5e-324", "1e+16", "1e-05", "inf", "nan"]
    assert text == [repr(float(x)) for x in floats]
    cells = floats + [np.float64(x) for x in floats] + [np.int64(7)]
    assert csv_text(["x"] * len(cells), [cells]).splitlines()[1].split(",") == (
        text * 2 + ["7"])


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


# --- forked lanes ----------------------------------------------------------

_PARENT = os.getpid()


def _draw(seed, rows):
    """Plain data, as a lane returns it; ``calls`` counts the draws made in this process."""
    if os.getpid() == _PARENT:
        _draw.calls += 1
    rng = np.random.default_rng(seed)
    return {"x": rng.normal(size=(rows, 3)), "labels": rng.integers(0, 3, rows), "seed": seed}


def _same(got, want):
    assert got["seed"] == want["seed"]
    for name in ("x", "labels"):
        assert got[name].dtype == want[name].dtype
        assert got[name].tobytes() == want[name].tobytes()


@pytest.fixture
def lanes_on_two_cpus(monkeypatch):
    """Two CPUs, a fresh draw count, and the list of later forks."""
    use_cpus(monkeypatch, 2)
    _draw.calls = 0
    return count_forks(monkeypatch)


def test_fork_lanes_result_equals_an_in_process_call(lanes_on_two_cpus):
    want = _draw(5, 60000)  # 1.9 MB: more than the pipe holds
    _draw.calls = 0
    with ForkLanes() as lanes:
        take = lanes.run(_draw, 5, 60000)
        _same(take(), want)
    with ForkLanes() as lanes:  # the same worker, idle in between
        _same(lanes.run(_draw, 5, 60000)(), want)
    assert lanes_on_two_cpus == [1] and _draw.calls == 0
    assert_no_children()


def test_fork_lanes_stay_in_process_on_one_cpu(lanes_on_two_cpus, monkeypatch):
    use_cpus(monkeypatch, 1)
    with ForkLanes() as lanes:
        _same(lanes.run(_draw, 5, 4)(), _draw(5, 4))
    assert lanes_on_two_cpus == [] and _draw.calls == 2


def test_fork_lanes_run_in_process_when_the_fork_fails(lanes_on_two_cpus, monkeypatch):
    def no_fork():
        raise BlockingIOError("no process left")

    monkeypatch.setattr(os, "fork", no_fork)
    with ForkLanes() as lanes:
        take = lanes.run(_draw, 5, 4)
        assert _draw.calls == 0  # not yet: only when the result is taken
        _same(take(), _draw(5, 4))
    assert _draw.calls == 2


def _fails_in_workers(seed, rows):
    """``_draw``, but raising in a lane worker."""
    if os.getpid() != _PARENT:
        raise RuntimeError("worker")
    return _draw(seed, rows)


def test_fork_lanes_rerun_a_call_whose_worker_raises(lanes_on_two_cpus):
    with ForkLanes() as lanes:
        _same(lanes.run(_fails_in_workers, 5, 4)(), _draw(5, 4))
        assert _draw.calls == 2
        # the worker that raised was stopped: the next call forks a new one
        _same(lanes.run(_draw, 5, 4)(), _draw(5, 4))
    assert lanes_on_two_cpus == [1, 1] and _draw.calls == 3
    assert_no_children()


def test_fork_lanes_rerun_a_child_that_sends_a_truncated_pickle(lanes_on_two_cpus, monkeypatch):
    dump = pickle.dump

    def cut_in_workers(obj, file, **kw):
        """A worker's reply loses its last byte, then the worker exits 0."""
        if os.getpid() == _PARENT:
            return dump(obj, file, **kw)
        file.write(pickle.dumps(obj, **kw)[:-1])
        file.flush()
        os._exit(0)

    monkeypatch.setattr(pickle, "dump", cut_in_workers)
    with ForkLanes() as lanes:
        _same(lanes.run(_draw, 5, 4)(), _draw(5, 4))
    assert lanes_on_two_cpus == [1] and _draw.calls == 2
    assert_no_children()


def _apply(fn, *args):
    return fn(*args)


def test_fork_lanes_run_a_call_that_does_not_pickle_in_process(lanes_on_two_cpus):
    with ForkLanes() as lanes:
        _same(lanes.run(_draw, 5, 4)(), _draw(5, 4))  # its worker goes idle
        take = lanes.run(_apply, lambda: _draw(5, 4))  # a lambda does not pickle
        assert _draw.calls == 1  # not yet: only when the result is taken
        _same(take(), _draw(5, 4))
        assert _draw.calls == 3
        # the idle worker was given part of that call and stopped: this call forks anew
        _same(lanes.run(_draw, 5, 4)(), _draw(5, 4))
    assert lanes_on_two_cpus == [1, 1] and _draw.calls == 4
    assert_no_children()


def test_close_lanes_stops_and_reaps_the_idle_workers(lanes_on_two_cpus, monkeypatch):
    pids = fork_pids(monkeypatch)
    with ForkLanes() as lanes:
        _same(lanes.run(_draw, 5, 4)(), _draw(5, 4))
    assert os.waitpid(pids[0], os.WNOHANG) == (0, 0)  # idle, alive
    zk.util.close_lanes()  # it exits at EOF on its request pipe, and is reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(pids[0], os.WNOHANG)
    with ForkLanes() as lanes:
        _same(lanes.run(_draw, 5, 4)(), _draw(5, 4))
    assert lanes_on_two_cpus == [1, 1]
    assert_no_children()


def test_a_forked_child_finds_an_empty_pool(lanes_on_two_cpus):
    with ForkLanes() as lanes:
        _same(lanes.run(_draw, 5, 4)(), _draw(5, 4))  # its worker goes idle
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            with ForkLanes() as lanes:
                got = lanes.run(_draw, 5, 4)()
            zk.util.close_lanes()
            # it forked a worker of its own, and left the parent's alone
            status = 0 if len(lanes_on_two_cpus) == 3 and got["seed"] == 5 else 2
        finally:
            os._exit(status)
    assert os.waitpid(pid, 0)[1] == 0
    with ForkLanes() as lanes:  # the parent's idle worker still answers
        _same(lanes.run(_draw, 6, 4)(), _draw(6, 4))
    assert lanes_on_two_cpus == [1, 1] and _draw.calls == 2
    assert_no_children()


def test_a_forked_child_leaving_a_lane_block_spares_the_parents_busy_worker(
        lanes_on_two_cpus):
    with ForkLanes() as lanes:
        take = lanes.run(_draw, 5, 4)
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                lanes.__exit__(None, None, None)  # as the child's stack unwinds
                status = 0
            finally:
                os._exit(status)
        assert os.waitpid(pid, 0)[1] == 0
        _same(take(), _draw(5, 4))
    assert lanes_on_two_cpus == [1, 1] and _draw.calls == 1  # the worker, then the child
    assert_no_children()


def test_fork_lanes_kill_only_the_workers_of_calls_not_taken(lanes_on_two_cpus, monkeypatch):
    pids = fork_pids(monkeypatch)
    start = time.monotonic()
    with ForkLanes() as outer:
        take = outer.run(_draw, 5, 4)
        with ForkLanes() as inner:
            inner.run(time.sleep, 60)
        with pytest.raises(ChildProcessError):  # the sleeping worker: killed and reaped
            os.waitpid(pids[1], os.WNOHANG)
        assert os.waitpid(pids[0], os.WNOHANG) == (0, 0)
        _same(take(), _draw(5, 4))
        _same(outer.run(_draw, 6, 4)(), _draw(6, 4))  # the first worker, idle again
    assert time.monotonic() - start < 30  # killed, not waited for
    assert lanes_on_two_cpus == [1, 1] and _draw.calls == 2
    assert_no_children()


def test_fork_lanes_kill_and_reap_children_when_the_parent_raises(lanes_on_two_cpus):
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="^parent$"):
        with ForkLanes() as lanes:
            lanes.run(time.sleep, 60)
            lanes.run(time.sleep, 60)
            raise RuntimeError("parent")
    assert time.monotonic() - start < 30  # killed, not waited for
    assert lanes_on_two_cpus == [1, 1]
    assert_no_children()
