import filecmp
import json
import os

import numpy as np
import pytest

import zestkit as zk
from zestkit.errors import ConfigError, TransportError, UndefinedCorrelationError
from zestkit.util import _average_ranks
from zestkit.nn import Dataset
from zestkit.oracle import ModelServer
from zestkit.util import config_hash

from conftest import tiny_net


# --- correlation -----------------------------------------------------------

def test_pearson_perfect_lines():
    x = [1.0, 2.0, 3.0, 4.0]
    assert zk.pearson(x, [2.0, 4.0, 6.0, 8.0]) == 1.0
    assert zk.pearson(x, [5.0, 3.0, 1.0, -1.0]) == -1.0


def test_pearson_matches_independent_formula():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(3, 40))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        expected = float(np.corrcoef(x, y)[0, 1])
        assert zk.pearson(x, y) == pytest.approx(expected, abs=1e-12)


def test_pearson_textbook_example():
    x = [1.0, 2.0, 3.0, 4.0, 5.0]
    y = [2.0, 1.0, 4.0, 3.0, 5.0]
    # hand evaluation of the covariance formula: cov=4, sd_x=sd_y=sqrt(10)/... -> 0.8
    assert zk.pearson(x, y) == pytest.approx(0.8, abs=1e-12)


def test_pearson_properties():
    rng = np.random.default_rng(8)
    x = rng.normal(size=25)
    y = rng.normal(size=25)
    r = zk.pearson(x, y)
    assert -1.0 <= r <= 1.0
    assert zk.pearson(y, x) == pytest.approx(r)
    assert zk.pearson(3.0 * x + 7.0, y) == pytest.approx(r)
    assert zk.pearson(-2.0 * x, y) == pytest.approx(-r)


def test_pearson_degenerate_inputs():
    with pytest.raises(UndefinedCorrelationError):
        zk.pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ConfigError):
        zk.pearson([1.0], [2.0])
    with pytest.raises(ConfigError):
        zk.pearson([1.0, 2.0], [1.0, 2.0, 3.0])


def test_average_ranks_with_ties():
    assert np.array_equal(_average_ranks([10.0, 20.0, 20.0, 30.0]),
                          [1.0, 2.5, 2.5, 4.0])
    assert np.array_equal(_average_ranks([5.0, 5.0, 5.0]), [2.0, 2.0, 2.0])
    assert np.array_equal(_average_ranks([3.0, 1.0, 2.0]), [3.0, 1.0, 2.0])


def test_spearman_monotone_and_reversed():
    x = np.array([0.1, 0.4, 0.9, 1.7, 2.2])
    assert zk.spearman(x, np.exp(x)) == 1.0          # any monotone map
    assert zk.spearman(x, -(x ** 3)) == -1.0
    rng = np.random.default_rng(5)
    a = rng.normal(size=20)
    b = rng.normal(size=20)
    assert zk.spearman(a, b) == pytest.approx(
        zk.pearson(_average_ranks(a), _average_ranks(b)))


# --- transfer matrix -------------------------------------------------------

def test_transfer_matrix_validation():
    with pytest.raises(ConfigError):
        zk.TransferMatrix(("a", "b"), np.zeros((2, 3)))
    with pytest.raises(ConfigError):
        zk.TransferMatrix(("a",), np.array([[1.5]]))


def test_transfer_matrix_csv():
    tm = zk.TransferMatrix(("a", "b"), np.array([[0.5, 1.0], [0.0, 0.25]]))
    lines = tm.to_csv().strip().split("\n")
    assert lines[0] == "surrogate\\victim,a,b"
    assert lines[1] == "a,0.5,1.0"
    assert lines[2] == "b,0.0,0.25"


def test_select_attack_points_screen(blob_world):
    models = [blob_world["victim"], blob_world["proxy"]]
    data = blob_world["test"]
    points = zk.select_attack_points(models, data, 20)
    assert len(points) == 20
    for model in models:
        preds = zk.forward(model, points.points).argmax(axis=1)
        assert np.array_equal(preds, points.labels)
    # dataset order: matches the first 20 indices both models get right
    ok = np.ones(len(data), dtype=bool)
    for model in models:
        ok &= zk.forward(model, data.points).argmax(axis=1) == data.labels
    expected = data.subset(np.flatnonzero(ok)[:20])
    assert np.array_equal(points.points, expected.points)


def test_select_attack_points_impossible(blob_world):
    models = [blob_world["victim"]]
    with pytest.raises(ConfigError):
        zk.select_attack_points(models, blob_world["test"], 10 ** 6)


def test_transfer_matrix_diagonal_is_local_success(blob_world):
    models = [blob_world["victim"], blob_world["proxy"]]
    points = zk.select_attack_points(models, blob_world["test"], 20)
    cfg = zk.AttackConfig(epsilon=0.12, step_size=0.03, steps=10, restarts=2,
                          rng_seed=0)
    tm = zk.compute_transfer_matrix(models, points, cfg)
    assert tm.model_ids == ("victim", "proxy")
    for i, model in enumerate(models):
        batch = zk.pgd(model, points, cfg)
        assert tm.rates[i, i] == pytest.approx(batch.local_success_rate)
    assert tm.rates.min() >= 0.0 and tm.rates.max() <= 1.0


def test_identity_surrogate_selected_at_distance_zero(tmp_path, blob_world,
                                                      small_plan):
    victim_sig = zk.compute_signature(zk.local_oracle(blob_world["victim"]),
                                      small_plan)
    copycat = zk.Signature(model_id="copycat",
                           plan_fingerprint=victim_sig.plan_fingerprint,
                           point_models=victim_sig.point_models)
    proxy_sig = zk.compute_signature(zk.local_oracle(blob_world["proxy"]),
                                     small_plan)
    store = zk.SignatureStore(tmp_path / "store")
    store.put_signature(copycat)
    store.put_signature(proxy_sig)
    for metric in ("l1", "l2", "linf", "cosine"):
        chosen, report = zk.select_surrogate(store, victim_sig, metric)
        assert chosen == "copycat"
        assert dict(report.entries)["copycat"] == 0.0


# --- campaign --------------------------------------------------------------

def _tiny_config(master=31):
    return {
        "master_seed": master,
        "dataset": {"kind": "blobs", "classes": 3, "features": 8,
                    "train_size": 240, "test_size": 120, "noise": 0.08},
        "victim": {"kind": "local", "model_id": "victim",
                   "hidden": [12], "epochs": 25},
        "portfolio": [
            {"model_id": "sur-a", "hidden": [12], "epochs": 25},
            {"model_id": "sur-b", "hidden": [20], "epochs": 25},
            {"model_id": "sur-c", "hidden": [6], "epochs": 8,
             "train_fraction": 0.5, "label_noise": 0.2},
        ],
        "lime": {"n": 6, "p": 60, "segments": 8},
        "metrics": ["cosine", "linf"],
        "attack": {"epsilon": 0.2, "step_size": 0.02, "steps": 15,
                   "restarts": 3, "points": 20},
    }


def test_campaign_artifacts_and_accounting(tmp_path):
    cfg = _tiny_config()
    out = tmp_path / "run"
    result = zk.run_campaign(cfg, out)

    assert result.config_hash == config_hash(cfg)
    assert result.victim_id == "victim"
    assert set(result.selected) == {"cosine", "linf"}
    assert set(result.distances["cosine"]) == {"sur-a", "sur-b", "sur-c"}
    assert {r.metric.value for r in result.correlations} == {"cosine", "linf"}
    for rec in result.correlations:
        assert rec.sample_count == 3
        assert rec.n_references == 6
        assert rec.epsilon == 0.2
        assert -1.0 <= rec.r <= 1.0

    expected_files = ["manifest.json", "shared.plan", "victim.sig",
                      "distances_cosine.csv", "distances_linf.csv",
                      "transfer.csv", "correlations.csv", "plotdata.csv",
                      "selected.adv", "selected_batch.csv"]
    for name in expected_files:
        assert (out / name).exists(), name
    assert sorted(os.listdir(out / "models")) == [
        "sur-a.mlp", "sur-b.mlp", "sur-c.mlp", "victim.mlp"]
    assert (out / "signatures" / "index.tsv").exists()

    for name in ["distances_cosine.csv", "transfer.csv", "correlations.csv",
                 "plotdata.csv", "selected_batch.csv"]:
        first = (out / name).read_text().split("\n", 1)[0]
        assert first == f"# config_hash: {result.config_hash}"

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["config_hash"] == result.config_hash
    # victim query bill: one signature (N*P + N) plus transfer (2m per proxy)
    ledger = manifest["victim_ledger"]
    assert ledger["signature"] == 6 * 60
    assert ledger["signature_baseline"] == 6
    assert ledger["attack_eval"] == 2 * 20 * 3
    assert ledger["total"] == 360 + 6 + 120
    assert result.victim_ledger == ledger

    # loading the plan and signature back, the distances must reproduce
    plan = zk.load_plan(out / "shared.plan")
    assert manifest["plan_fingerprint"] == plan.fingerprint()
    victim_sig = zk.load_signature(out / "victim.sig")
    store = zk.SignatureStore(out / "signatures")
    chosen, report = zk.select_surrogate(store, victim_sig, "cosine")
    assert chosen == result.selected["cosine"]
    assert dict(report.entries) == pytest.approx(result.distances["cosine"])


def test_campaign_rerun_byte_identical(tmp_path):
    cfg = _tiny_config(master=32)
    a, b = tmp_path / "a", tmp_path / "b"
    zk.run_campaign(cfg, a)
    zk.run_campaign(cfg, b)
    mismatches = []
    for root, _, files in os.walk(a):
        rel = os.path.relpath(root, a)
        for f in files:
            pa = os.path.join(root, f)
            pb = os.path.join(b, rel, f)
            if not filecmp.cmp(pa, pb, shallow=False):
                mismatches.append(os.path.join(rel, f))
    assert mismatches == []


def test_campaign_rerun_into_used_out_dir_ranks_only_its_portfolio(tmp_path):
    cfg = _tiny_config(master=35)
    used = tmp_path / "used"
    first = zk.run_campaign(cfg, used)
    dropped = first.selected["cosine"]
    smaller = dict(cfg, portfolio=[e for e in cfg["portfolio"] if e["model_id"] != dropped])
    kept = {e["model_id"] for e in smaller["portfolio"]}

    rerun = zk.run_campaign(smaller, used)
    fresh = zk.run_campaign(smaller, tmp_path / "fresh")
    assert rerun.selected == fresh.selected and dropped not in rerun.selected.values()
    assert rerun.distances == fresh.distances
    assert all(set(d) == kept for d in rerun.distances.values())
    for name in ("distances_cosine.csv", "distances_linf.csv", "transfer.csv",
                 "selected.adv", "manifest.json"):
        assert (used / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes(), name


def test_campaign_different_seed_differs(tmp_path):
    r1 = zk.run_campaign(_tiny_config(master=33), tmp_path / "x")
    r2 = zk.run_campaign(_tiny_config(master=34), tmp_path / "y")
    assert r1.config_hash != r2.config_hash
    d1 = r1.distances["cosine"]
    d2 = r2.distances["cosine"]
    assert any(d1[k] != d2[k] for k in d1)


def _closed_port_url():
    server = ModelServer(tiny_net(0)).start()
    server.stop()
    return server.base_url


_FAILURES = [
    ("dataset", lambda c: c["dataset"].update(train_size=-1), ValueError),
    ("train", lambda c: c["victim"].update(kind="bogus"), ConfigError),
    ("train", lambda c: c.update(victim={"kind": "remote", "url": "127.0.0.1:9"}),
     ConfigError),
    ("plan", lambda c: c["lime"].pop("p"), KeyError),
    ("signatures", lambda c: c.update(victim={"kind": "remote", "url": _closed_port_url()}),
     TransportError),
    # every transfer rate is 0, so the correlation is undefined
    ("correlation", lambda c: c["attack"].update(epsilon=0.0), UndefinedCorrelationError),
    # cannot screen this many
    ("attack", lambda c: c["attack"].update(points=10 ** 6), ConfigError),
]


@pytest.mark.parametrize("stage, edit, error", _FAILURES,
                         ids=["dataset", "train", "train-url", "plan", "signatures",
                              "correlation", "attack"])
def test_campaign_failure_manifest(tmp_path, stage, edit, error):
    cfg = _tiny_config()
    edit(cfg)
    out = tmp_path / "fail"
    with pytest.raises(error):
        zk.run_campaign(cfg, out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["stage"] == stage
    assert manifest["error"].startswith(f"{error.__name__}: ")
    assert manifest["config_hash"] == config_hash(cfg)


def test_campaign_rejects_bad_config(tmp_path):
    cfg = _tiny_config()
    cfg["dataset"]["kind"] = "images"
    with pytest.raises(ConfigError):
        zk.run_campaign(cfg, tmp_path / "bad")
    manifest = json.loads((tmp_path / "bad" / "manifest.json").read_text())
    assert manifest["stage"] == "parse"

    cfg2 = _tiny_config()
    cfg2["portfolio"] = []
    with pytest.raises(ConfigError):
        zk.run_campaign(cfg2, tmp_path / "bad2")


def test_campaign_rejects_repeated_portfolio_id_before_training(tmp_path):
    cfg = _tiny_config()
    cfg["portfolio"][2]["model_id"] = "sur-a"
    out = tmp_path / "dup"
    with pytest.raises(ConfigError, match="unique"):
        zk.run_campaign(cfg, out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["stage"] == "parse"
    assert not (out / "models").exists()


def test_campaign_portfolio_degradation_weakens_model(tmp_path):
    # the degraded surrogate should fit the train data worse than the twins
    result = zk.run_campaign(_tiny_config(master=35), tmp_path / "run")
    models_dir = os.path.join(result.out_dir, "models")
    accs = {}
    for mid in ("sur-a", "sur-b", "sur-c"):
        model = zk.load_model(os.path.join(models_dir, f"{mid}.mlp"))
        accs[mid] = model.metadata["train_accuracy"]
    assert accs["sur-c"] < max(accs["sur-a"], accs["sur-b"])


def test_bundled_campaign_config_shape():
    cfg = zk.bundled_campaign_config()
    assert {"master_seed", "dataset", "victim", "portfolio", "lime",
            "attack", "metrics"} <= set(cfg)
    assert len(cfg["portfolio"]) == 8
    ids = [e["model_id"] for e in cfg["portfolio"]]
    assert len(set(ids)) == 8


def test_load_campaign_config_round_trip(tmp_path):
    cfg = _tiny_config()
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert zk.load_campaign_config(path) == cfg


def test_portfolio_dataset_views():
    from zestkit.experiment import _portfolio_dataset
    rng = np.random.default_rng(0)
    data = Dataset(rng.random((100, 4)), rng.integers(0, 3, size=100), 3)
    full = _portfolio_dataset(data, {"model_id": "m"}, master=1)
    assert full is data
    half = _portfolio_dataset(data, {"model_id": "m", "train_fraction": 0.5},
                              master=1)
    assert len(half) == 50
    again = _portfolio_dataset(data, {"model_id": "m", "train_fraction": 0.5},
                               master=1)
    assert np.array_equal(half.points, again.points)
    noisy = _portfolio_dataset(data, {"model_id": "m", "label_noise": 0.3},
                               master=1)
    flipped = (noisy.labels != data.labels).mean()
    assert 0.1 < flipped < 0.5
    assert np.array_equal(noisy.points, data.points)
    with pytest.raises(ConfigError):
        _portfolio_dataset(data, {"model_id": "m", "train_fraction": 0.0}, 1)
    with pytest.raises(ConfigError):
        _portfolio_dataset(data, {"model_id": "m", "label_noise": 1.5}, 1)
