import filecmp
import hashlib
import json
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import zestkit as zk
from zestkit.errors import ConfigError, TransportError, UndefinedCorrelationError
from zestkit.util import _average_ranks
from zestkit.nn import Dataset
from zestkit.oracle import ModelServer
from zestkit.util import config_hash

from conftest import assert_no_children, count_forks, tiny_net, use_cpus


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
        "lime": {"n": 6, "p": 60, "segments": 8, "replacement": "zeros"},
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
    ("signatures", lambda c: c.update(victim={"kind": "remote", "url": _closed_port_url()}),
     TransportError),
    # every transfer rate is 0, so the correlation is undefined
    ("correlation", lambda c: c["attack"].update(epsilon=0.0), UndefinedCorrelationError),
]


@pytest.mark.parametrize("stage, edit, error", _FAILURES,
                         ids=["signatures", "correlation"])
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


def test_campaign_too_few_attack_points_fail_at_plan_and_bill_nothing(tmp_path,
                                                                      monkeypatch):
    oracles = []
    make_oracle = zk.experiment.local_oracle
    monkeypatch.setattr(zk.experiment, "local_oracle",
                        lambda model: oracles.append(make_oracle(model)) or oracles[-1])
    use_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    cfg = _tiny_config()
    cfg["attack"]["points"] = cfg["dataset"]["test_size"]  # allowed at parse
    out = tmp_path / "fail"
    with pytest.raises(ConfigError, match="classified correctly by all 3 models; need 120"):
        zk.run_campaign(cfg, out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["stage"] == "plan"
    assert len(oracles) == 1  # the local victim, built at stage train
    assert oracles[0].ledger.snapshot()["total"] == 0
    assert forks == [1]  # the training lane; no PGD lane
    assert not (out / "signatures").exists() and not (out / "shared.plan").exists()
    assert_no_children()


@pytest.mark.parametrize("owner, name, stage", [
    (zk.experiment, "sample_blobs", "dataset"),
    (zk.experiment, "train_many", "train"),
    (zk.experiment, "rank_signatures", "distances"),
    (zk.experiment, "csv_text", "transfer-report"),
    (zk.oracle.QueryLedger, "snapshot", "manifest"),
], ids=["dataset", "train", "distances", "transfer-report", "manifest"])
def test_campaign_failure_manifest_names_the_stage_of_the_failing_call(
        tmp_path, monkeypatch, owner, name, stage):
    def fail(*args, **kwargs):
        raise RuntimeError(name)

    monkeypatch.setattr(owner, name, fail)
    out = tmp_path / "fail"
    with pytest.raises(RuntimeError, match=f"^{name}$"):
        zk.run_campaign(_tiny_config(), out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["stage"] == stage
    assert manifest["error"] == f"RuntimeError: {name}"
    assert_no_children()


def test_campaign_defaults_equal_the_values_written_out(tmp_path):
    minimal = {
        "master_seed": 37,
        # 2 features in each of the default 16 segments: no segment is a single feature
        "dataset": {"classes": 3, "features": 32, "train_size": 240, "test_size": 200},
        "victim": {"hidden": [12]},
        "portfolio": [{"model_id": "sur-a", "hidden": [12]},
                      {"model_id": "sur-b", "hidden": [6], "epochs": 4},
                      {"model_id": "sur-c", "hidden": [12], "label_noise": 0.4}],
        "lime": {"n": 4, "p": 40},
        "attack": {},
    }
    training = {"epochs": 40, "batch_size": 32, "learning_rate": 0.1}
    written_out = {
        "master_seed": 37,
        "dataset": {"kind": "blobs", **minimal["dataset"], "noise": 0.08},
        "victim": {"kind": "local", "model_id": "victim", "hidden": [12], **training},
        "portfolio": [{**training, "train_fraction": 1.0, "label_noise": 0.0, **entry}
                      for entry in minimal["portfolio"]],
        "lime": {"n": 4, "p": 40, "segments": 16, "kernel_width": None, "ridge": 1.0,
                 "replacement": "segment_mean"},
        "metrics": ["cosine"],
        "attack": {"epsilon": 0.1, "step_size": 0.02, "steps": 40, "restarts": 5,
                   "quantize_8bit": False, "points": 100},
    }
    a = zk.run_campaign(minimal, tmp_path / "minimal")
    b = zk.run_campaign(written_out, tmp_path / "written-out")
    assert a.config_hash != b.config_hash
    assert (a.selected, a.distances, a.transfer_rates, a.victim_ledger) == (
        b.selected, b.distances, b.transfer_rates, b.victim_ledger)
    models = sorted(os.listdir(tmp_path / "minimal" / "models"))
    assert models == ["sur-a.mlp", "sur-b.mlp", "sur-c.mlp", "victim.mlp"]
    for name in ["shared.plan", "victim.sig", "selected.adv",
                 *(os.path.join("models", m) for m in models)]:
        assert ((tmp_path / "minimal" / name).read_bytes()
                == (tmp_path / "written-out" / name).read_bytes()), name


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


@pytest.mark.parametrize("mid", ["sur\tb", "sur\rb", "sur\nb"], ids=["tab", "cr", "lf"])
def test_campaign_rejects_portfolio_id_with_tab_or_line_break_before_training(
        tmp_path, monkeypatch, mid):
    oracles = []
    make_oracle = zk.experiment.local_oracle
    monkeypatch.setattr(zk.experiment, "local_oracle",
                        lambda model: oracles.append(make_oracle(model)) or oracles[-1])
    cfg = _tiny_config()
    cfg["portfolio"][1]["model_id"] = mid
    out = tmp_path / "bad-id"
    with pytest.raises(ConfigError, match="tab or line break"):
        zk.run_campaign(cfg, out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["stage"] == "parse"
    assert not (out / "models").exists()
    assert sum(o.ledger.snapshot()["total"] for o in oracles) == 0


def test_campaign_runs_victim_id_with_tab(tmp_path):
    # the victim's signature is victim.sig, never a SignatureStore index line
    cfg = _tiny_config()
    cfg["victim"]["model_id"] = "vic\ttim"
    out = tmp_path / "run"
    zk.run_campaign(cfg, out)
    assert (out / "models" / "vic\ttim.mlp").exists()
    assert zk.load_signature(out / "victim.sig").model_id == "vic\ttim"


def _edit(*path, **values):
    """An edit that sets `values` in the block that the keys and indices `path` reach."""
    def edit(cfg):
        for key in path:
            cfg = cfg[key]
        cfg.update(values)
    return edit


# each edit, and a text its ConfigError holds: for a schema error, the config path
_BAD_PARSE = {
    "no-metrics": (_edit(metrics=[]), "metrics must name"),
    "repeated-metric": (_edit(metrics=["cosine", "COSINE"]), "metrics must name"),
    "portfolio-id-is-victim-id": (_edit("portfolio", 1, model_id="victim"), "unique"),
    "empty-id": (_edit("portfolio", 1, model_id=""), "models/"),
    "dot-id": (_edit("portfolio", 1, model_id="."), "models/"),
    "dot-dot-id": (_edit("portfolio", 1, model_id=".."), "models/"),
    "id-with-separator": (_edit("portfolio", 1, model_id="a/b"), "models/"),
    "id-escaping-models": (_edit("portfolio", 1, model_id="../escaped"), "models/"),
    "victim-id-with-separator": (_edit("victim", model_id="a/b"), "models/"),
    "victim-id-escaping-out-dir": (_edit("victim", model_id="../../victim"), "models/"),
    "id-not-a-string": (_edit("portfolio", 1, model_id=5), "config.portfolio[1].model_id: "),
    "victim-id-not-a-string": (_edit("victim", model_id=5), "config.victim.model_id: "),
    "victim-kind": (_edit("victim", kind="bogus"), "config.victim.kind: "),
    "victim-url": (_edit(victim={"kind": "remote", "url": "127.0.0.1:9"}), "'127.0.0.1:9'"),
    "lime-p-missing": (lambda c: c["lime"].pop("p"), "config.lime: missing key 'p'"),
    "lime-replacment": (_edit("lime", replacment="zeros"),
                        "config.lime: unknown keys ['replacment']"),
    "attack-epsilonn": (_edit("attack", epsilonn=0.3),
                        "config.attack: unknown keys ['epsilonn']"),
    "top-level-metric": (_edit(metric=["linf"]), "config: unknown keys ['metric']"),
    "lime-n-string": (_edit("lime", n="6"), "config.lime.n: "),
    "epochs-float": (_edit("portfolio", 0, epochs=25.0), "config.portfolio[0].epochs: "),
    "master-seed-bool": (_edit(master_seed=True), "config.master_seed: "),
    "quantize-int": (_edit("attack", quantize_8bit=1), "config.attack.quantize_8bit: "),
    "hidden-string": (_edit("victim", hidden=["12"]), "config.victim.hidden[0]: "),
    "dataset-not-an-object": (_edit(dataset=[1]), "config.dataset: "),
    "ridge-beyond-float": (_edit("lime", ridge=10 ** 400), "config.lime.ridge: "),
    "remote-victim-with-hidden": (
        _edit(victim={"kind": "remote", "url": "http://127.0.0.1:9", "hidden": [12]}),
        "config.victim: unknown keys ['hidden']"),
    # value bounds of the LimeConfig and AttackConfig that stage parse builds
    "epsilon-negative": (_edit("attack", epsilon=-1), "epsilon must be >= 0"),
    "epsilon-nan": (_edit("attack", epsilon=float("nan")), "epsilon must be >= 0"),
    "step-above-epsilon": (_edit("attack", step_size=0.5), "step_size cannot exceed epsilon"),
    "steps-zero": (_edit("attack", steps=0), "steps must be >= 1"),
    "restarts-zero": (_edit("attack", restarts=0), "restarts must be >= 1"),
    "points-zero": (_edit("attack", points=0), "config.attack.points: "),
    "ridge-negative": (_edit("lime", ridge=-1), "ridge penalty must be >= 0"),
    "ridge-nan": (_edit("lime", ridge=float("nan")), "ridge penalty must be >= 0"),
    "lime-p-zero": (_edit("lime", p=0), "perturbations must be >= 1"),
    # lime bounds the dataset block sets: 240 training rows, 8 features
    "lime-n-zero": (_edit("lime", n=0), "config.lime.n: "),
    "lime-n-above-train-size": (_edit("lime", n=300), "config.lime.n: "),
    "lime-segments-zero": (_edit("lime", segments=0), "config.lime.segments: "),
    "lime-segments-above-features": (_edit("lime", segments=9), "config.lime.segments: "),
    "lime-p-below-segments": (_edit("lime", p=7), "config.lime.p: "),
    "segment-mean-with-one-feature-segments": (_edit("lime", replacement="segment_mean"),
                                               "config.lime.replacement: segment_mean leaves"),
    # the dataset block's bounds, and attack points the test rows can hold
    "noise-negative": (_edit("dataset", noise=-1), "config.dataset.noise: "),
    "noise-nan": (_edit("dataset", noise=float("nan")), "config.dataset.noise: "),
    "classes-zero": (_edit("dataset", classes=0), "config.dataset.classes: "),
    "classes-one": (_edit("dataset", classes=1), "config.dataset.classes: "),
    "features-zero": (_edit("dataset", features=0), "config.dataset.features: "),
    "train-size-zero": (_edit("dataset", train_size=0), "config.dataset.train_size: "),
    "train-size-negative": (_edit("dataset", train_size=-1), "config.dataset.train_size: "),
    "points-above-test-size": (_edit("attack", points=121), "config.attack.points: "),
    "points-far-above-test-size": (_edit("attack", points=10 ** 6), "config.attack.points: "),
}


@pytest.mark.parametrize("edit, message", _BAD_PARSE.values(), ids=_BAD_PARSE.keys())
def test_campaign_rejects_bad_metrics_and_model_ids_before_training(
        tmp_path, monkeypatch, edit, message):
    oracles = []
    make_oracle = zk.experiment.local_oracle
    monkeypatch.setattr(zk.experiment, "local_oracle",
                        lambda model: oracles.append(make_oracle(model)) or oracles[-1])
    cfg = _tiny_config()
    edit(cfg)
    out = tmp_path / "nest" / "bad"
    with pytest.raises(ConfigError):
        zk.run_campaign(cfg, out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["stage"] == "parse"
    assert manifest["error"].startswith("ConfigError: ")
    assert message in manifest["error"]
    assert not (out / "models").exists()
    assert sorted(os.listdir(tmp_path)) == ["nest"]
    assert sorted(os.listdir(tmp_path / "nest")) == ["bad"]
    assert sum(o.ledger.snapshot()["total"] for o in oracles) == 0


def _tree_digest(root):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_bundled_campaign_same_tree_on_one_cpu_and_two_lanes(tmp_path, monkeypatch):
    src = os.path.dirname(os.path.dirname(zk.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    cpu = min(os.sched_getaffinity(0))
    code = ("import os, sys, zestkit as zk; print(len(os.sched_getaffinity(0))); "
            "zk.run_campaign(zk.bundled_campaign_config(), sys.argv[1])")

    def child(name, extra_env, preexec_fn=None):
        return subprocess.run([sys.executable, "-c", code, str(tmp_path / name)],
                              env={**env, **extra_env}, preexec_fn=preexec_fn,
                              capture_output=True, text=True, timeout=300,
                              check=True).stdout.split()

    assert child("one-cpu", {}, lambda: os.sched_setaffinity(0, {cpu})) == ["1"]
    # every CPU, so the lanes fork, but OpenBLAS kernels on one thread
    child("one-blas-thread", {"OPENBLAS_NUM_THREADS": "1"})

    use_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    zk.run_campaign(zk.bundled_campaign_config(), tmp_path / "two-lanes")
    assert forks == [1]  # one worker: it trains a lane, then crafts the PGD lane
    digest = _tree_digest(tmp_path / "two-lanes")
    assert _tree_digest(tmp_path / "one-cpu") == digest
    assert _tree_digest(tmp_path / "one-blas-thread") == digest


def test_campaign_signs_a_portfolio_in_process_when_its_p_rows_fit_one_block(
        tmp_path, monkeypatch):
    cfg = _tiny_config()
    cfg["lime"]["p"] = 400
    n, p, oracles = cfg["lime"]["n"], 400, len(cfg["portfolio"]) + 1
    # n*P rows fit one block; n*P rows across the 4 oracles do not
    assert len(zk.lime._point_blocks(n, p)) == 1
    assert len(zk.lime._point_blocks(n, p * oracles)) > 1
    use_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    zk.run_campaign(cfg, tmp_path / "run")
    assert forks == [1]  # the training lane's worker crafts the PGD lane; no signing lane
    assert_no_children()


# --- the PGD lane ----------------------------------------------------------

def _pgd_failing(monkeypatch, where):
    """Make the campaign's pgd_many raise RuntimeError("pgd") in a forked child, or
    everywhere."""
    parent, pgd_many = os.getpid(), zk.experiment.pgd_many

    def pgd(jobs, data):
        if where == "everywhere" or os.getpid() != parent:
            raise RuntimeError("pgd")
        return pgd_many(jobs, data)

    monkeypatch.setattr(zk.experiment, "pgd_many", pgd)


def test_campaign_redoes_a_failed_pgd_lane_in_process(tmp_path, monkeypatch):
    use_cpus(monkeypatch, 1)
    zk.run_campaign(_tiny_config(), tmp_path / "serial")
    use_cpus(monkeypatch, 2)
    _pgd_failing(monkeypatch, "child")
    forks = count_forks(monkeypatch)
    zk.run_campaign(_tiny_config(), tmp_path / "lanes")
    assert forks == [1]  # forked for training, after the patch: its PGD raises
    assert _tree_digest(tmp_path / "lanes") == _tree_digest(tmp_path / "serial")
    assert_no_children()


def test_campaign_pgd_failing_everywhere_raises_the_serial_error_at_attack(
        tmp_path, monkeypatch):
    _pgd_failing(monkeypatch, "everywhere")
    forks = count_forks(monkeypatch)
    manifests = []
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus-{cpus}"
        with pytest.raises(RuntimeError, match="^pgd$"):
            zk.run_campaign(_tiny_config(), out)
        manifests.append(json.loads((out / "manifest.json").read_text()))
    assert manifests[0] == manifests[1]
    assert manifests[0]["stage"] == "attack" and manifests[0]["error"] == "RuntimeError: pgd"
    assert forks == [1]  # at 2 CPUs, one worker for the training lane, then the PGD lane
    assert_no_children()


def test_campaign_failing_at_signatures_kills_the_pgd_lane(tmp_path, monkeypatch):
    use_cpus(monkeypatch, 2)
    parent, pgd_many = os.getpid(), zk.experiment.pgd_many

    def slow_in_child(jobs, data):
        if os.getpid() != parent:
            time.sleep(60)  # still crafting when the parent fails
        return pgd_many(jobs, data)

    monkeypatch.setattr(zk.experiment, "pgd_many", slow_in_child)
    cfg = _tiny_config()
    cfg["victim"] = {"kind": "remote", "url": _closed_port_url()}
    forks = count_forks(monkeypatch)
    start = time.monotonic()
    with pytest.raises(TransportError):
        zk.run_campaign(cfg, tmp_path / "fail")
    assert time.monotonic() - start < 30  # killed, not waited for
    assert json.loads((tmp_path / "fail" / "manifest.json").read_text())["stage"] == "signatures"
    assert forks == [1]  # the training lane's worker, killed while crafting
    assert_no_children()


def test_campaign_does_not_fork_while_another_thread_is_alive(tmp_path, monkeypatch):
    use_cpus(monkeypatch, 1)
    zk.run_campaign(_tiny_config(), tmp_path / "serial")
    use_cpus(monkeypatch, 2)
    forks = []

    def no_fork():
        forks.append(1)
        raise AssertionError("forked with a live thread")

    monkeypatch.setattr(os, "fork", no_fork)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(60,))
    thread.start()
    try:
        zk.run_campaign(_tiny_config(), tmp_path / "threaded")
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []
    assert _tree_digest(tmp_path / "threaded") == _tree_digest(tmp_path / "serial")


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

    def entry(train_fraction=1.0, label_noise=0.0):
        return {"model_id": "m", "train_fraction": train_fraction, "label_noise": label_noise}

    full = _portfolio_dataset(data, entry(), master=1)
    assert full is data
    half = _portfolio_dataset(data, entry(train_fraction=0.5), master=1)
    assert len(half) == 50
    again = _portfolio_dataset(data, entry(train_fraction=0.5), master=1)
    assert np.array_equal(half.points, again.points)
    noisy = _portfolio_dataset(data, entry(label_noise=0.3), master=1)
    flipped = (noisy.labels != data.labels).mean()
    assert 0.1 < flipped < 0.5
    assert np.array_equal(noisy.points, data.points)
    with pytest.raises(ConfigError):
        _portfolio_dataset(data, entry(train_fraction=0.0), 1)
    with pytest.raises(ConfigError):
        _portfolio_dataset(data, entry(label_noise=1.5), 1)
