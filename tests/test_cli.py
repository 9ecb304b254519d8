import csv
import json
import os
import signal
import subprocess
import sys
import threading
import urllib.request

import numpy as np
import pytest

import zestkit as zk
from zestkit.cli import main
from zestkit.oracle import ModelServer

from conftest import tiny_net


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One trained pair of models plus dataset and plan, built via the CLI."""
    root = tmp_path_factory.mktemp("cliws")
    common = ["--classes", "3", "--features", "16", "--train-size", "400",
              "--data-seed", "5", "--epochs", "30"]
    code = main(["train", *common, "--seed", "1", "--model-id", "victim",
                 "--save-data", str(root / "train.ds"),
                 "--out", str(root / "victim.mlp")])
    assert code == 0
    code = main(["train", *common, "--seed", "2", "--model-id", "proxy",
                 "--out", str(root / "proxy.mlp")])
    assert code == 0
    code = main(["plan", "--data", str(root / "train.ds"), "--n", "4",
                 "--p", "80", "--segments", "8", "--seed", "3",
                 "--screen", str(root / "victim.mlp"), str(root / "proxy.mlp"),
                 "--out", str(root / "shared.plan")])
    assert code == 0
    return root


def test_train_reports_accuracy(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "train", "--classes", "3", "--features", "8",
        "--train-size", "200", "--epochs", "15", "--model-id", "m",
        "--out", str(tmp_path / "m.mlp"))
    assert code == 0
    assert "trained m: accuracy" in out
    assert (tmp_path / "m.mlp").exists()


def test_plan_prints_fingerprint(capsys, workspace):
    plan = zk.load_plan(workspace / "shared.plan")
    code, out, err = run_cli(
        capsys, "plan", "--data", str(workspace / "train.ds"), "--n", "4",
        "--p", "80", "--segments", "8", "--seed", "3",
        "--out", str(workspace / "again.plan"))
    assert code == 0
    assert "plan N=4 P=80 S=8" in out
    assert plan.fingerprint()[:12] in out  # same seed and shape, same plan


def test_sign_reports_query_bill(capsys, workspace):
    code, out, err = run_cli(
        capsys, "sign", "--oracle", str(workspace / "victim.mlp"),
        "--plan", str(workspace / "shared.plan"),
        "--store", str(workspace / "store"),
        "--out", str(workspace / "victim.sig"))
    assert code == 0
    assert "320 perturbation queries" in out          # N*P = 4*80
    assert "victim queries: total=324" in out         # + N baselines
    assert "signature=320" in out
    assert "signature_baseline=4" in out
    assert (workspace / "store" / "index.tsv").exists()


def test_sign_proxy_and_dist(capsys, workspace):
    code, out, _ = run_cli(
        capsys, "sign", "--oracle", str(workspace / "proxy.mlp"),
        "--plan", str(workspace / "shared.plan"),
        "--store", str(workspace / "store"),
        "--out", str(workspace / "proxy.sig"))
    assert code == 0
    code, out, _ = run_cli(
        capsys, "dist", str(workspace / "victim.sig"),
        str(workspace / "proxy.sig"), "--metric", "cosine")
    assert code == 0
    d = float(out.strip())
    assert 0.0 < d < 2.0


def test_dist_identical_signatures_prints_zero(capsys, workspace):
    code, out, _ = run_cli(
        capsys, "dist", str(workspace / "victim.sig"),
        str(workspace / "victim.sig"), "--metric", "l1")
    assert code == 0
    assert out.strip() == "0.0000"


def test_select_from_store(capsys, workspace):
    code, out, _ = run_cli(
        capsys, "select", "--store", str(workspace / "store"),
        "--victim-sig", str(workspace / "victim.sig"),
        "--metric", "cosine", "--out", str(workspace / "select.csv"))
    assert code == 0
    assert "selected victim (distance 0.0000" in out  # own signature is stored
    text = (workspace / "select.csv").read_text()
    assert text.startswith("victim_id,proxy_id,metric,distance,rank\n")


def test_attack_and_transfer(capsys, workspace):
    code, out, _ = run_cli(
        capsys, "attack", "--model", str(workspace / "proxy.mlp"),
        "--data", str(workspace / "train.ds"), "--points", "25",
        "--epsilon", "0.2", "--step-size", "0.02", "--steps", "20",
        "--restarts", "3", "--seed", "0",
        "--csv", str(workspace / "batch.csv"),
        "--out", str(workspace / "batch.adv"))
    assert code == 0
    assert "local success" in out
    assert "epsilon 0.2" in out

    code, out, _ = run_cli(
        capsys, "transfer", "--victim", str(workspace / "victim.mlp"),
        "--batch", str(workspace / "batch.adv"),
        "--out", str(workspace / "transfer.csv"))
    assert code == 0
    assert "transfer " in out
    assert "victim queries: total=50 " in out  # 2 * 25 rows
    assert "attack_eval=50" in out
    report = (workspace / "transfer.csv").read_text().strip().split("\n")
    assert report[0].startswith("victim_id,surrogate_id,total_points")
    assert report[1].split(",")[0] == "victim"


def test_transfer_report_quotes_ids(capsys, tmp_path):
    code, _, _ = run_cli(
        capsys, "train", "--features", "8", "--train-size", "120", "--epochs", "5",
        "--model-id", "vic,tim", "--save-data", str(tmp_path / "d.ds"),
        "--out", str(tmp_path / "v.mlp"))
    assert code == 0
    code, _, _ = run_cli(
        capsys, "attack", "--model", str(tmp_path / "v.mlp"), "--data", str(tmp_path / "d.ds"),
        "--points", "6", "--steps", "3", "--restarts", "1", "--out", str(tmp_path / "b.adv"))
    assert code == 0
    code, _, _ = run_cli(
        capsys, "transfer", "--victim", str(tmp_path / "v.mlp"),
        "--batch", str(tmp_path / "b.adv"), "--out", str(tmp_path / "t.csv"))
    assert code == 0
    with open(tmp_path / "t.csv", newline="") as f:
        header, row = list(csv.reader(f))
    assert len(header) == len(row) == 9
    assert row[:2] == ["vic,tim", "vic,tim"]


def test_remote_sign_matches_local(capsys, workspace, tmp_path):
    model = zk.load_model(workspace / "victim.mlp")
    with ModelServer(model, port=0) as server:
        code, out, _ = run_cli(
            capsys, "sign", "--oracle", server.base_url,
            "--plan", str(workspace / "shared.plan"),
            "--out", str(tmp_path / "remote.sig"))
    assert code == 0
    remote_sig = zk.load_signature(tmp_path / "remote.sig")
    local_sig = zk.load_signature(workspace / "victim.sig")
    assert np.array_equal(remote_sig.flatten(include_intercepts=True),
                          local_sig.flatten(include_intercepts=True))
    assert remote_sig.model_id.startswith("http://127.0.0.1:")


def test_remote_transfer(capsys, workspace):
    model = zk.load_model(workspace / "victim.mlp")
    with ModelServer(model, port=0) as server:
        code, out, _ = run_cli(
            capsys, "transfer", "--victim", server.base_url,
            "--batch", str(workspace / "batch.adv"))
    assert code == 0
    assert "attack_eval=50" in out


def test_serve_names_the_bound_port_and_stops_on_sigint(tmp_path):
    model = tiny_net(1)
    zk.save_model(model, str(tmp_path / "m.mlp"))
    src = os.path.dirname(os.path.dirname(zk.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    with subprocess.Popen([sys.executable, "-m", "zestkit.cli", "serve",
                           "--model", str(tmp_path / "m.mlp"), "--port", "0"],
                          env=env, stdout=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(60, proc.kill)  # a hung child fails here, not the suite
        watchdog.start()
        try:
            first = proc.stdout.readline()
            prefix = f"serving {model.model_id} on http://127.0.0.1:"
            assert first.startswith(prefix), first
            port = int(first[len(prefix):])
            assert port > 0
            with urllib.request.urlopen(f"http://127.0.0.1:{port}/v1/info", timeout=5) as r:
                assert json.loads(r.read()) == {"class_count": model.class_count,
                                                "input_dim": model.input_dim}
            proc.send_signal(signal.SIGINT)
            rest, _ = proc.communicate()
        finally:
            watchdog.cancel()
            proc.kill()  # nothing once it has exited
    assert proc.returncode == 0
    assert rest == "server stopped\n"


def test_replay_passes(capsys):
    code, out, _ = run_cli(capsys, "replay", "--metric", "linf")
    assert code == 0
    assert "10/10 closest-pair matches" in out
    code, out, _ = run_cli(capsys, "replay", "--metric", "cosine",
                           "--stability")
    assert code == 0
    assert "10/10 closest-pair matches" in out
    assert "ties flagged: 1" in out
    assert "rank agreement vs n=128" in out


def test_campaign_cli(capsys, tmp_path):
    cfg = {
        "master_seed": 41,
        "dataset": {"kind": "blobs", "classes": 3, "features": 8,
                    "train_size": 200, "test_size": 100, "noise": 0.08},
        "victim": {"kind": "local", "hidden": [10], "epochs": 20},
        "portfolio": [
            {"model_id": "sur-a", "hidden": [10], "epochs": 20},
            {"model_id": "sur-b", "hidden": [16], "epochs": 20},
            {"model_id": "sur-c", "hidden": [6], "epochs": 6,
             "train_fraction": 0.5, "label_noise": 0.25},
        ],
        "lime": {"n": 4, "p": 40, "segments": 8, "replacement": "zeros"},
        "metrics": ["cosine"],
        "attack": {"epsilon": 0.15, "step_size": 0.03, "steps": 10,
                   "restarts": 2, "points": 15},
    }
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "campaign", "--config", str(cfg_path),
                           "--out", str(tmp_path / "run"))
    assert code == 0
    assert "selected[cosine] = sur-" in out
    assert "pearson[cosine] = " in out
    # N*P signature rows, N baselines, then 2 * points * portfolio attack rows
    assert ("victim queries: total=254 (signature=160, signature_baseline=4, "
            "attack_eval=90, other=0)") in out.splitlines()
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["status"] == "ok"


def test_campaign_cli_bundled_ledger_line(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "campaign", "--config", "bundled",
                           "--out", str(tmp_path / "run"))
    assert code == 0
    assert out.splitlines()[-1] == (
        "victim queries: total=9232 (signature=8000, signature_baseline=32, "
        "attack_eval=1200, other=0)")


def _misspelled_replacement():
    cfg = zk.bundled_campaign_config()
    cfg["lime"]["replacment"] = "zeros"
    return cfg


@pytest.mark.parametrize("config, message", [
    ([1], "error: config: expected an object, got [1]"),
    (_misspelled_replacement(), "error: config.lime: unknown keys ['replacment']"),
], ids=["not-an-object", "misspelled-key"])
def test_campaign_cli_reports_a_bad_config(capsys, tmp_path, config, message):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "campaign", "--config", str(cfg_path),
                             "--out", str(tmp_path / "run"))
    assert code == 1
    assert out == ""
    assert err.splitlines() == [message]
    assert json.loads((tmp_path / "run" / "manifest.json").read_text())["stage"] == "parse"


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dist", "only-one-file"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_operation_error_exits_one(capsys, tmp_path):
    code, out, err = run_cli(capsys, "dist", str(tmp_path / "missing_a.sig"),
                             str(tmp_path / "missing_b.sig"))
    assert code == 1
    assert err.startswith("error:")

    bad = tmp_path / "bad.sig"
    bad.write_bytes(b"not a container at all")
    code, out, err = run_cli(capsys, "dist", str(bad), str(bad))
    assert code == 1
    assert "error:" in err


def test_mismatched_plans_exit_one(capsys, workspace, tmp_path):
    code, _, _ = run_cli(
        capsys, "plan", "--data", str(workspace / "train.ds"), "--n", "4",
        "--p", "80", "--segments", "8", "--seed", "99",
        "--out", str(tmp_path / "other.plan"))
    assert code == 0
    code, _, _ = run_cli(
        capsys, "sign", "--oracle", str(workspace / "victim.mlp"),
        "--plan", str(tmp_path / "other.plan"),
        "--out", str(tmp_path / "other.sig"))
    assert code == 0
    code, out, err = run_cli(
        capsys, "dist", str(workspace / "victim.sig"),
        str(tmp_path / "other.sig"))
    assert code == 1
    assert "different plans" in err


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "zestkit.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "train" in proc.stdout and "campaign" in proc.stdout
