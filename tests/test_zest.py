import os

import numpy as np
import pytest

import zestkit as zk
from zestkit.errors import (ComparabilityError, ConfigError, IntegrityError,
                            UndefinedDistanceError)
from zestkit.lime import PointModel, Signature
from zestkit.zest import rank_candidates, vector_distance


def _sig(model_id, coef, fingerprint="fp", intercept=None):
    coef = np.asarray(coef, dtype=np.float64)
    if coef.ndim == 1:
        coef = coef[None, :]
    if intercept is None:
        intercept = np.zeros(coef.shape[0])
    pm = PointModel(coef, np.asarray(intercept, dtype=np.float64))
    return Signature(model_id=model_id, plan_fingerprint=fingerprint,
                     point_models=(pm,))


def test_metric_parse():
    assert zk.DistanceMetric.parse(" L2 ") is zk.DistanceMetric.L2
    with pytest.raises(ConfigError):
        zk.DistanceMetric.parse("manhattan")


@pytest.mark.parametrize("name", [None, 3, zk.DistanceMetric])
def test_metric_parse_rejects_non_names(name):
    with pytest.raises(ConfigError, match="unknown metric"):
        zk.DistanceMetric.parse(name)


def test_vector_distance_rejects_unknown_metric():
    # an unrecognised name once fell through to the cosine branch
    with pytest.raises(ConfigError, match="manhattan"):
        vector_distance([1.0, 0.0], [0.0, 1.0], "manhattan")
    assert vector_distance([1.0, 0.0], [0.0, 1.0], " L1 ") == 2.0


def test_hand_computed_distances():
    a = _sig("a", [1.0, 2.0, 3.0])
    b = _sig("b", [1.0, 0.0, 6.0])
    assert zk.zest_distance(a, b, "l1") == pytest.approx(5.0)
    assert zk.zest_distance(a, b, "l2") == pytest.approx(np.sqrt(13.0))
    assert zk.zest_distance(a, b, "linf") == pytest.approx(3.0)


def test_cosine_trivials():
    x = _sig("x", [1.0, 0.0])
    y = _sig("y", [0.0, 1.0])
    assert zk.zest_distance(x, y, "cosine") == pytest.approx(1.0)
    anti = _sig("z", [-2.0, 0.0])
    assert zk.zest_distance(x, anti, "cosine") == pytest.approx(2.0)


def test_identity_distance_zero():
    v = np.random.default_rng(0).normal(size=12)
    a, b = _sig("a", v), _sig("b", v.copy())
    for metric in zk.DistanceMetric:
        assert zk.zest_distance(a, b, metric) == 0.0


def test_metric_axioms_property():
    rng = np.random.default_rng(42)
    for _ in range(200):
        dim = int(rng.integers(2, 20))
        u = rng.normal(size=dim)
        v = rng.normal(size=dim)
        w = rng.normal(size=dim)
        for metric in (zk.DistanceMetric.L1, zk.DistanceMetric.L2,
                       zk.DistanceMetric.LINF):
            duv = vector_distance(u, v, metric)
            dvu = vector_distance(v, u, metric)
            duw = vector_distance(u, w, metric)
            dwv = vector_distance(w, v, metric)
            assert duv >= 0
            assert duv == pytest.approx(dvu)
            assert duv <= duw + dwv + 1e-9
            assert vector_distance(u, u, metric) == 0.0
        dc = vector_distance(u, v, zk.DistanceMetric.COSINE)
        assert 0.0 <= dc <= 2.0
        assert dc == pytest.approx(
            vector_distance(v, u, zk.DistanceMetric.COSINE))


def test_cosine_scale_invariance():
    rng = np.random.default_rng(3)
    u = rng.normal(size=9)
    v = rng.normal(size=9)
    base = vector_distance(u, v, zk.DistanceMetric.COSINE)
    assert vector_distance(3.5 * u, v, zk.DistanceMetric.COSINE) == pytest.approx(base)
    assert vector_distance(u, 0.01 * v, zk.DistanceMetric.COSINE) == pytest.approx(base)


def test_cosine_zero_norm_undefined():
    z = _sig("z", [0.0, 0.0, 0.0])
    n = _sig("n", [1.0, 1.0, 0.0])
    with pytest.raises(UndefinedDistanceError):
        zk.zest_distance(z, n, "cosine")
    # the lp metrics stay defined
    assert zk.zest_distance(z, n, "l1") == pytest.approx(2.0)


def test_fingerprint_mismatch_rejected():
    a = _sig("a", [1.0, 2.0], fingerprint="plan-one")
    b = _sig("b", [1.0, 2.0], fingerprint="plan-two")
    with pytest.raises(ComparabilityError):
        zk.zest_distance(a, b, "l2")


def test_include_intercepts_switch():
    a = _sig("a", [1.0, 0.0], intercept=[5.0])
    b = _sig("b", [1.0, 0.0], intercept=[1.0])
    assert zk.zest_distance(a, b, "l1") == 0.0
    assert zk.zest_distance(a, b, "l1", include_intercepts=True) == pytest.approx(4.0)


def test_shape_mismatch_rejected():
    with pytest.raises(ComparabilityError):
        vector_distance(np.zeros(3), np.zeros(4), zk.DistanceMetric.L1)


# --- ranking ---------------------------------------------------------------

def test_rank_candidates_orders_and_breaks_ties_by_id():
    ordered, tie = rank_candidates([("c", 2.0), ("a", 1.0), ("b", 1.0)])
    assert ordered == [("a", 1.0), ("b", 1.0), ("c", 2.0)]
    assert tie is True
    ordered, tie = rank_candidates([("b", 0.5), ("a", 1.5)])
    assert ordered == [("b", 0.5), ("a", 1.5)]
    assert tie is False


def test_argmin_invariant_under_monotone_transform():
    rng = np.random.default_rng(9)
    for _ in range(50):
        ids = [f"m{i}" for i in range(6)]
        dists = rng.random(6)
        base = rank_candidates(list(zip(ids, dists)))[0]
        squashed = rank_candidates(list(zip(ids, np.exp(dists) - 0.5)))[0]
        assert [e[0] for e in base] == [e[0] for e in squashed]


# --- store -----------------------------------------------------------------

@pytest.fixture()
def store(tmp_path):
    return zk.SignatureStore(tmp_path / "store")


def test_store_round_trip_bit_exact(store):
    rng = np.random.default_rng(4)
    sig = _sig("model/alpha:v1", rng.normal(size=(3, 8)))
    store.put_signature(sig)
    back = store.get_signature("model/alpha:v1")
    assert np.array_equal(back.flatten(include_intercepts=True),
                          sig.flatten(include_intercepts=True))
    assert back.model_id == sig.model_id


def test_store_missing_id(store):
    with pytest.raises(KeyError):
        store.get_signature("ghost")


def test_store_fingerprint_partition(store):
    store.put_signature(_sig("a", [1.0, 2.0], fingerprint="f1"))
    store.put_signature(_sig("b", [2.0, 3.0], fingerprint="f1"))
    store.put_signature(_sig("c", [3.0, 4.0], fingerprint="f2"))
    assert store.list_by_fingerprint("f1") == ["a", "b"]
    assert store.list_by_fingerprint("f2") == ["c"]
    assert store.model_ids() == ["a", "b", "c"]
    groups = store.fingerprints()
    assert groups == {"f1": ["a", "b"], "f2": ["c"]}


def test_store_corruption_detected(store, tmp_path):
    store.put_signature(_sig("target", [1.0, 2.0, 3.0]))
    import os
    sig_files = [f for f in os.listdir(store.root) if f.endswith(".sig")]
    assert len(sig_files) == 1
    victim_path = os.path.join(store.root, sig_files[0])
    with open(victim_path, "rb") as f:
        raw = bytearray(f.read())
    raw[-1] ^= 0xFF
    with open(victim_path, "wb") as f:
        f.write(bytes(raw))
    with pytest.raises(IntegrityError) as err:
        store.get_signature("target")
    assert sig_files[0] in str(err.value)


def test_store_reopen_preserves_index(store):
    store.put_signature(_sig("m1", [1.0]))
    store.put_signature(_sig("m2", [2.0]))
    reopened = zk.SignatureStore(store.root)
    assert reopened.model_ids() == ["m1", "m2"]
    assert np.array_equal(reopened.get_signature("m2").flatten(), [2.0])


def test_store_concurrent_puts(store):
    import threading
    rng = np.random.default_rng(5)
    sigs = [_sig(f"m{i:02d}", rng.normal(size=6)) for i in range(16)]
    threads = [threading.Thread(target=store.put_signature, args=(s,))
               for s in sigs]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert store.model_ids() == sorted(s.model_id for s in sigs)
    for s in sigs:
        assert np.array_equal(store.get_signature(s.model_id).flatten(),
                              s.flatten())


def test_store_overwrite_same_id(store):
    store.put_signature(_sig("m", [1.0, 1.0]))
    store.put_signature(_sig("m", [9.0, 9.0]))
    assert store.model_ids() == ["m"]
    assert np.array_equal(store.get_signature("m").flatten(), [9.0, 9.0])


@pytest.mark.parametrize("model_id", ["sur\tb", "sur\rb", "sur\nb"])
def test_store_rejects_ids_that_break_the_index(store, model_id):
    store.put_signature(_sig("m", [1.0]))
    files = sorted(os.listdir(store.root))
    with pytest.raises(ConfigError, match="tab or line break"):
        store.put_signature(_sig(model_id, [2.0]))
    assert sorted(os.listdir(store.root)) == files
    assert zk.SignatureStore(store.root).model_ids() == ["m"]


# --- selection -------------------------------------------------------------

def test_select_prefers_identical_copy(store):
    rng = np.random.default_rng(6)
    victim_vec = rng.normal(size=10)
    store.put_signature(_sig("twin", victim_vec))
    store.put_signature(_sig("far", victim_vec + 1.0))
    store.put_signature(_sig("other-plan", victim_vec, fingerprint="elsewhere"))
    victim = _sig("victim", victim_vec)
    chosen, report = zk.select_surrogate(store, victim, "l2")
    assert chosen == "twin"
    assert report.entries[0] == ("twin", 0.0)
    assert [e[0] for e in report.entries] == ["twin", "far"]
    assert report.tie_flagged is False
    assert report.victim_id == "victim"


def test_select_flags_exact_tie(store):
    store.put_signature(_sig("aa", [1.0, 0.0]))
    store.put_signature(_sig("bb", [0.0, 1.0]))
    victim = _sig("v", [0.5, 0.5])
    chosen, report = zk.select_surrogate(store, victim, "l2")
    assert chosen == "aa"  # tie broken lexicographically
    assert report.tie_flagged is True


def test_select_empty_store_errors(store):
    victim = _sig("v", [1.0, 2.0])
    with pytest.raises(ComparabilityError):
        zk.select_surrogate(store, victim, "l2")
    # populated, but only under a different plan
    store.put_signature(_sig("a", [1.0, 2.0], fingerprint="not-the-plan"))
    with pytest.raises(ComparabilityError):
        zk.select_surrogate(store, victim, "l2")


def test_rank_signatures_matches_store_selection(store):
    rng = np.random.default_rng(12)
    victim = _sig("victim", rng.normal(size=(3, 8)))
    candidates = [_sig(mid, rng.normal(size=(3, 8))) for mid in ("c", "a", "b")]
    for sig in candidates:
        store.put_signature(sig)
    for metric in ("l1", "l2", "linf", "cosine"):
        chosen, report = zk.rank_signatures(candidates, victim, metric)
        assert (chosen, report) == zk.select_surrogate(store, victim, metric)
        assert sorted(proxy for proxy, _ in report.entries) == ["a", "b", "c"]


def test_rank_signatures_rejects_bad_candidates():
    victim = _sig("v", [1.0, 2.0])
    with pytest.raises(ComparabilityError):
        zk.rank_signatures([], victim, "l2")
    with pytest.raises(ComparabilityError):
        zk.rank_signatures([_sig("a", [1.0, 2.0], fingerprint="other")], victim, "l2")
    with pytest.raises(ConfigError):
        zk.rank_signatures([_sig("a", [1.0, 2.0]), _sig("a", [2.0, 1.0])], victim, "l2")


def test_distance_report_csv():
    report = zk.DistanceReport(
        victim_id="v", metric=zk.DistanceMetric.COSINE, plan_fingerprint="fp",
        entries=(("near", 0.125), ("far", 0.5)))
    lines = report.to_csv().strip().split("\n")
    assert lines[0] == "victim_id,proxy_id,metric,distance,rank"
    assert lines[1] == "v,near,cosine,0.125,1"
    assert lines[2] == "v,far,cosine,0.5,2"


def test_end_to_end_real_signatures(tmp_path, blob_world, small_plan):
    # proxy trained on the same data is much closer to the victim than an
    # unrelated random network of the same shape
    from conftest import tiny_net
    victim_sig = zk.compute_signature(zk.local_oracle(blob_world["victim"]),
                                      small_plan)
    proxy_sig = zk.compute_signature(zk.local_oracle(blob_world["proxy"]),
                                     small_plan)
    noise_model = tiny_net(99, input_dim=16, class_count=3)
    noise_sig = zk.compute_signature(zk.local_oracle(noise_model), small_plan)
    store = zk.SignatureStore(tmp_path / "s")
    store.put_signature(proxy_sig)
    store.put_signature(noise_sig)
    chosen, report = zk.select_surrogate(store, victim_sig, "cosine")
    assert chosen == proxy_sig.model_id
    d_proxy = dict(report.entries)[proxy_sig.model_id]
    d_noise = dict(report.entries)[noise_sig.model_id]
    assert d_proxy < d_noise
