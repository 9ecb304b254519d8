import json
import threading
import urllib.request

import numpy as np
import pytest

import zestkit as zk
from zestkit.errors import ConfigError, DomainError, ProtocolError, ShapeError, TransportError
from zestkit.oracle import ModelServer, QueryLedger

from conftest import tiny_net


# --- ledger ----------------------------------------------------------------

def test_ledger_accumulates_by_purpose():
    led = QueryLedger()
    led.add("signature", 100)
    led.add("signature", 28)
    led.add("attack_eval", 7)
    assert led.total_queries == 135
    b = led.breakdown()
    assert b["signature"] == 128 and b["attack_eval"] == 7 and b["other"] == 0
    snap = led.snapshot()
    assert snap["total"] == sum(v for k, v in snap.items() if k != "total")


def test_ledger_rejects_bad_input():
    led = QueryLedger()
    with pytest.raises(ConfigError):
        led.add("mystery", 1)
    with pytest.raises(ConfigError):
        led.add("signature", -1)


def test_ledger_monotone_under_threads():
    led = QueryLedger()

    def work():
        for _ in range(500):
            led.add("signature", 2)

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert led.total_queries == 8 * 500 * 2


# --- local oracle ----------------------------------------------------------

def test_local_oracle_delegates_to_forward():
    model = tiny_net(1)
    oracle = zk.local_oracle(model)
    x = np.random.default_rng(0).random((1, model.input_dim))
    assert np.array_equal(oracle.predict_proba(x), zk.forward(model, x))
    assert oracle.class_count == model.class_count
    assert oracle.input_dim == model.input_dim
    assert oracle.oracle_id == model.model_id


def test_local_oracle_bills_rows():
    oracle = zk.local_oracle(tiny_net(1))
    x = np.random.default_rng(0).random((128, oracle.input_dim))
    for _ in range(1000):
        oracle.predict_proba(x[:128], purpose="signature")
    assert oracle.ledger.breakdown()["signature"] == 128000


def test_local_oracle_empty_batch():
    oracle = zk.local_oracle(tiny_net(1))
    out = oracle.predict_proba(np.zeros((0, oracle.input_dim)))
    assert out.shape == (0, oracle.class_count)
    assert oracle.ledger.total_queries == 0


def test_local_oracle_rejects_bad_batches_unbilled():
    oracle = zk.local_oracle(tiny_net(1))
    with pytest.raises(ShapeError):
        oracle.predict_proba(np.zeros((3, oracle.input_dim + 1)))
    bad = np.zeros((3, oracle.input_dim))
    bad[1, 2] = np.nan
    with pytest.raises(DomainError):
        oracle.predict_proba(bad)
    assert oracle.ledger.total_queries == 0


# --- serve + remote --------------------------------------------------------

@pytest.fixture(scope="module")
def served():
    model = tiny_net(2, input_dim=5, class_count=3)
    with ModelServer(model, port=0) as server:
        yield model, server


def test_info_endpoint(served):
    model, server = served
    with urllib.request.urlopen(f"{server.base_url}/v1/info", timeout=5) as r:
        info = json.loads(r.read())
    assert info == {"class_count": model.class_count, "input_dim": model.input_dim}


def test_remote_matches_local(served):
    model, server = served
    remote = zk.remote_oracle(zk.RemoteEndpoint(server.base_url))
    x = np.random.default_rng(3).random((17, model.input_dim))
    assert np.abs(remote.predict_proba(x) - zk.forward(model, x)).max() < 1e-9
    assert remote.ledger.total_queries == 17


def test_remote_chunking_counts_rows_once(served):
    model, server = served
    remote = zk.remote_oracle(zk.RemoteEndpoint(server.base_url, max_batch_rows=1000))
    x = np.random.default_rng(4).random((2500, model.input_dim))
    out = remote.predict_proba(x, purpose="signature")
    assert out.shape == (2500, model.class_count)
    assert remote.ledger.breakdown()["signature"] == 2500
    # order preserved across the 3 chunks
    assert np.abs(out - zk.forward(model, x)).max() < 1e-9


def test_remote_rejects_wrong_width(served):
    model, server = served
    remote = zk.remote_oracle(zk.RemoteEndpoint(server.base_url))
    with pytest.raises((ProtocolError, ShapeError)):
        remote.predict_proba(np.zeros((2, model.input_dim + 1)))
    assert remote.ledger.total_queries == 0


def test_server_rejects_malformed_request(served):
    _, server = served
    req = urllib.request.Request(
        f"{server.base_url}/v1/predict",
        data=b'{"inputs": "not a matrix"}',
        headers={"Content-Type": "application/json"})
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(req, timeout=5)
    assert err.value.code == 400
    assert "error" in json.loads(err.value.read())


def test_unreachable_endpoint_transport_error():
    remote = zk.remote_oracle(zk.RemoteEndpoint("http://127.0.0.1:9",
                                                timeout=0.2, retries=1))
    with pytest.raises(TransportError) as err:
        remote.predict_proba(np.zeros((3, 2)))
    assert err.value.rows_counted == 0


def test_concurrent_clients_consistent(served):
    model, server = served
    x = np.random.default_rng(5).random((8, model.input_dim))
    expected = zk.forward(model, x)
    results = [None] * 6
    def hit(i):
        remote = zk.remote_oracle(zk.RemoteEndpoint(server.base_url))
        results[i] = remote.predict_proba(x)
    threads = [threading.Thread(target=hit, args=(i,)) for i in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for out in results:
        assert np.abs(out - expected).max() < 1e-9


def test_server_lifecycle_releases_port():
    model = tiny_net(6)
    server = ModelServer(model, port=0)
    server.start()
    port = server.port
    remote = zk.remote_oracle(zk.RemoteEndpoint(server.base_url))
    remote.predict_proba(np.zeros((1, model.input_dim)))
    server.stop()
    # port is free again: a new server can bind it immediately
    server2 = ModelServer(model, port=port)
    server2.start()
    server2.stop()
