import http.client
import json
import logging
import os
import socket
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

import zestkit as zk
import zestkit.oracle as oracle_mod
from zestkit.errors import ConfigError, DomainError, ProtocolError, ShapeError, TransportError
from zestkit.oracle import ModelServer, QueryLedger

from conftest import tiny_net


# --- ledger ----------------------------------------------------------------

def test_ledger_accumulates_by_purpose():
    led = QueryLedger()
    led.add("signature", 100)
    led.add("signature", 28)
    led.add("attack_eval", 7)
    assert led.snapshot()["total"] == 135
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
    assert led.snapshot()["total"] == 8 * 500 * 2


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
    assert oracle.ledger.snapshot()["total"] == 0


def test_local_oracle_rejects_bad_batches_unbilled():
    oracle = zk.local_oracle(tiny_net(1))
    with pytest.raises(ShapeError):
        oracle.predict_proba(np.zeros((3, oracle.input_dim + 1)))
    bad = np.zeros((3, oracle.input_dim))
    bad[1, 2] = np.nan
    with pytest.raises(DomainError):
        oracle.predict_proba(bad)
    assert oracle.ledger.snapshot()["total"] == 0


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
    remote = zk.RemoteOracle(zk.RemoteEndpoint(server.base_url))
    x = np.random.default_rng(3).random((17, model.input_dim))
    assert np.abs(remote.predict_proba(x) - zk.forward(model, x)).max() < 1e-9
    assert remote.ledger.snapshot()["total"] == 17


def test_remote_chunking_counts_rows_once(served):
    model, server = served
    remote = zk.RemoteOracle(zk.RemoteEndpoint(server.base_url, max_batch_rows=1000))
    x = np.random.default_rng(4).random((2500, model.input_dim))
    out = remote.predict_proba(x, purpose="signature")
    assert out.shape == (2500, model.class_count)
    assert remote.ledger.breakdown()["signature"] == 2500
    # order preserved across the 3 chunks
    assert np.abs(out - zk.forward(model, x)).max() < 1e-9


def test_remote_rejects_wrong_width(served):
    model, server = served
    remote = zk.RemoteOracle(zk.RemoteEndpoint(server.base_url))
    with pytest.raises((ProtocolError, ShapeError)):
        remote.predict_proba(np.zeros((2, model.input_dim + 1)))
    assert remote.ledger.snapshot()["total"] == 0


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


def test_server_rejects_negative_content_length(served):
    _, server = served
    with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
        sock.sendall(b"POST /v1/predict HTTP/1.1\r\nHost: localhost\r\n"
                     b"Content-Type: application/json\r\nContent-Length: -1\r\n\r\n")
        reply = http.client.HTTPResponse(sock)
        reply.begin()
        assert reply.status == 400
        assert json.loads(reply.read()) == {"error": "Content-Length cannot be negative"}


def test_server_answers_413_above_request_cap(served):
    model, server = served
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
    try:
        # only the header goes out: the server must answer without reading a body
        conn.putrequest("POST", "/v1/predict")
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", str(oracle_mod.MAX_REQUEST_BYTES + 1))
        conn.endheaders()
        reply = conn.getresponse()
        assert reply.status == 413
        assert reply.getheader("Connection") == "close"
        assert json.loads(reply.read()) == {
            "error": f"request body of {oracle_mod.MAX_REQUEST_BYTES + 1} bytes exceeds "
                     f"{oracle_mod.MAX_REQUEST_BYTES}"}
        assert reply.will_close
    finally:
        conn.close()
    remote = zk.RemoteOracle(zk.RemoteEndpoint(server.base_url))
    assert remote.predict_proba(np.zeros((2, model.input_dim))).shape == (2, 3)


def _ask(url, body: bytes = None):
    """(status, decoded JSON body) of one GET (no body) or POST, whatever the status."""
    req = urllib.request.Request(url, body, {"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=5) as r:
            return r.status, json.loads(r.read())
    except urllib.error.HTTPError as e:
        with e:
            return e.code, json.loads(e.read())


@pytest.mark.parametrize("inputs, error", [
    ("[[0, 0]]", "inputs: expected 5 columns, got 2"),
    ("[[0, NaN, 0, 0, 0]]", "inputs: contains non-finite entries"),
    ("[[0, 0, 0, 0, Infinity]]", "inputs: contains non-finite entries"),
    ("[0, 0, 0, 0, 0]", "inputs: expected a 2-D array, got ndim=1"),
    ("[[[0, 0, 0, 0, 0]]]", "inputs: expected a 2-D array, got ndim=3"),
], ids=["wrong-width", "nan", "infinity", "one-d", "three-d"])
def test_server_rejects_bad_rows_with_400(served, inputs, error):
    _, server = served
    body = f'{{"inputs": {inputs}}}'.encode()  # json.loads reads NaN and Infinity
    assert _ask(f"{server.base_url}/v1/predict", body) == (400, {"error": error})


_SMUGGLED = b"GET /v1/info HTTP/1.1\r\nHost: localhost\r\n\r\n"


@pytest.mark.parametrize("head, status", [
    (b"POST /nope HTTP/1.1\r\nContent-Length: %d\r\n" % len(_SMUGGLED), 404),
    (b"POST /v1/predict HTTP/1.1\r\nContent-Length: -1\r\n", 400),
    (b"GET /v1/info HTTP/1.1\r\nContent-Length: %d\r\n" % len(_SMUGGLED), 200),
], ids=["unknown-path", "negative-length", "get-with-body"])
def test_server_answers_once_and_closes_on_an_unread_body(served, head, status):
    # the server reads none of these bodies; a request inside one gets no answer
    _, server = served
    with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
        sock.sendall(head + b"Host: localhost\r\n\r\n" + _SMUGGLED)
        received = b""
        while chunk := sock.recv(65536):  # until the server closes the connection
            received += chunk
    assert received.startswith(b"HTTP/1.1 %d " % status)
    assert received.count(b"HTTP/1.") == 1
    assert b"\r\nConnection: close\r\n" in received


def test_server_answers_404_on_an_unknown_path(served):
    _, server = served
    assert _ask(f"{server.base_url}/v1/nothing") == (
        404, {"error": "unknown path /v1/nothing"})
    assert _ask(f"{server.base_url}/v1/info", b'{"inputs": []}') == (
        404, {"error": "unknown path /v1/info"})


@pytest.mark.parametrize("url", ["127.0.0.1", "", "http://[::1", "http://", "ftp://host/"])
def test_endpoint_rejects_url_without_http_scheme_and_host(url):
    with pytest.raises(ConfigError):
        zk.RemoteEndpoint(url)


# A local run signs in process: it loads none of the wire code, nor numpy.ma,
# which np.unique imports on its first call. The child then serves and queries
# a model, so the HTTP code still loads when it is used.
_LOCAL_RUN = """
import json, sys
import zestkit as zk
centers = zk.blob_centers(3, 8, 1)
data = zk.sample_blobs(centers, 60, 0.08, 2)
model = zk.train(data, zk.TrainConfig(hidden=(6,), epochs=2, rng_seed=3), model_id="m")
plan = zk.make_plan(data, 2, zk.SegmentGrid.uniform(8, 4), zk.LimeConfig(perturbations=8),
                    seed=4)
zk.compute_signature(zk.local_oracle(model), plan)
loaded = sorted(sys.modules)
with zk.oracle.ModelServer(model) as server:
    remote = zk.RemoteOracle(zk.RemoteEndpoint(server.base_url, timeout=5))
    served = remote.predict_proba(data.points[:3])
print(json.dumps({"loaded": loaded,
                  "served": bool((served == zk.forward(model, data.points[:3])).all())}))
"""


def test_import_loads_no_third_party_http_client():
    src = os.path.dirname(os.path.dirname(zk.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", _LOCAL_RUN], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    run = json.loads(out.stdout)
    forbidden = ("requests", "urllib3", "http.server", "http.client", "urllib.request", "ssl",
                 "email", "numpy.ma")
    assert [m for m in run["loaded"]
            if any(m == name or m.startswith(name + ".") for name in forbidden)] == []
    assert run["served"]


def test_unreachable_endpoint_transport_error():
    remote = zk.RemoteOracle(zk.RemoteEndpoint("http://127.0.0.1:9",
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
        remote = zk.RemoteOracle(zk.RemoteEndpoint(server.base_url))
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
    remote = zk.RemoteOracle(zk.RemoteEndpoint(server.base_url))
    remote.predict_proba(np.zeros((1, model.input_dim)))
    server.stop()
    # port is free again: a new server can bind it immediately
    server2 = ModelServer(model, port=port)
    server2.start()
    server2.stop()


# --- remote client contract ------------------------------------------------
# A scripted server answers each POST with the next action of its script
# (plain answers once the script runs out), so the client's retry, billing
# and error paths are checked against exact server behaviour.

def _answer(rows, classes=3):
    return 200, json.dumps({"probs": [[1.0 / classes] * classes] * rows}).encode()


def _drop(rows):
    return None  # close the connection without a reply


class _ScriptedHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, fmt, *args):
        pass

    def _send(self, status, body):
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        self._send(*self.server.info)

    def do_POST(self):
        rows = len(json.loads(self.rfile.read(int(self.headers["Content-Length"])))["inputs"])
        self.server.posts.append(rows)
        action = self.server.script.pop(0) if self.server.script else _answer
        reply = action(rows)
        if reply is None:
            self.close_connection = True
            return
        self._send(*reply)


@pytest.fixture
def scripted():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    httpd.daemon_threads = True
    httpd.script, httpd.posts = [], []
    httpd.info = 200, json.dumps({"class_count": 3, "input_dim": 2}).encode()
    thread = threading.Thread(target=httpd.serve_forever, kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    yield httpd
    httpd.shutdown()
    httpd.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def _scripted_client(httpd, **kw):
    host, port = httpd.server_address[:2]
    return zk.RemoteOracle(zk.RemoteEndpoint(f"http://{host}:{port}", timeout=5, **kw))


def test_remote_retries_server_error_and_bills_once(scripted):
    scripted.script[:] = [lambda rows: (500, b'{"error": "busy"}')]
    remote = _scripted_client(scripted)
    out = remote.predict_proba(np.zeros((4, 2)), purpose="signature")
    assert out.shape == (4, 3)
    assert scripted.posts == [4, 4]
    assert remote.ledger.snapshot() == {"signature": 4, "signature_baseline": 0,
                                        "attack_eval": 0, "other": 0, "total": 4}


def test_remote_client_error_carries_server_text(scripted):
    scripted.script[:] = [lambda rows: (400, b'{"error": "inputs must be rows of 2 numbers"}')]
    remote = _scripted_client(scripted)
    with pytest.raises(ProtocolError, match=r"\(400\): inputs must be rows of 2 numbers$"):
        remote.predict_proba(np.zeros((4, 2)))
    assert scripted.posts == [4]
    assert remote.ledger.snapshot()["total"] == 0


def test_remote_client_error_413_bills_nothing(scripted):
    scripted.script[:] = [lambda rows: (413, b'{"error": "request body too large"}')]
    remote = _scripted_client(scripted)
    with pytest.raises(ProtocolError, match=r"\(413\): request body too large$"):
        remote.predict_proba(np.zeros((4, 2)))
    assert scripted.posts == [4]
    assert remote.ledger.snapshot()["total"] == 0


@pytest.mark.parametrize("body, reason", [
    (b'{"error": "RuntimeError: busy"}', "RuntimeError: busy"),
    (b"<html>" + b"x" * 300, ("<html>" + "x" * 300)[:200]),
], ids=["json-error", "raw-body"])
def test_remote_server_error_reason_reaches_transport_error(scripted, body, reason):
    scripted.script[:] = [lambda rows: (503, body)] * 3
    remote = _scripted_client(scripted, retries=2)
    with pytest.raises(TransportError) as err:
        remote.predict_proba(np.zeros((4, 2)), purpose="signature")
    assert str(err.value).endswith(f"failed after 3 attempts: server error 503: {reason}")
    assert err.value.rows_counted == 0
    assert remote.ledger.snapshot()["total"] == 0
    assert scripted.posts == [4, 4, 4]


@pytest.mark.parametrize("body", [b'["no"]', b'"x"', b"null", b"7",
                                  json.dumps(["y" * 300]).encode()],
                         ids=["list", "string", "null", "number", "long-list"])
def test_remote_client_error_non_object_json(scripted, body):
    scripted.script[:] = [lambda rows: (400, body)]
    remote = _scripted_client(scripted)
    with pytest.raises(ProtocolError) as err:
        remote.predict_proba(np.zeros((4, 2)))
    assert str(err.value) == f"oracle rejected request (400): {body.decode()[:200]}"
    assert scripted.posts == [4]
    assert remote.ledger.snapshot()["total"] == 0


@pytest.mark.parametrize("reply, message", [
    (lambda rows: (200, b'{"probs": [[0.5,'), "malformed /v1/predict response"),
    (lambda rows: _answer(rows - 1), "oracle returned 3 rows for 4 inputs"),
    (lambda rows: _answer(rows, classes=4), "oracle returned 4 classes, expected 3"),
], ids=["malformed-json", "row-count", "class-count"])
def test_remote_rejects_bad_answers(scripted, reply, message):
    scripted.script[:] = [reply]
    remote = _scripted_client(scripted)
    with pytest.raises(ProtocolError, match=message):
        remote.predict_proba(np.zeros((4, 2)))
    assert scripted.posts == [4]
    assert remote.ledger.snapshot()["total"] == 0


@pytest.mark.parametrize("info, message", [
    ((503, b'{"error": "down"}'), r"/v1/info returned status 503$"),
    ((200, b'{"classes": 3, "input_dim": 2}'), "malformed /v1/info response"),
    ((200, b"not json"), "malformed /v1/info response"),
], ids=["status", "missing-key", "not-json"])
def test_remote_rejects_bad_info(scripted, info, message):
    scripted.info = info
    remote = _scripted_client(scripted)
    with pytest.raises(ProtocolError, match=message):
        remote.predict_proba(np.zeros((4, 2)))
    assert scripted.posts == []
    assert remote.ledger.snapshot()["total"] == 0


def test_remote_empty_batch_sends_and_bills_nothing(scripted):
    remote = _scripted_client(scripted)
    out = remote.predict_proba(np.zeros((0, 2)), purpose="signature")
    assert out.shape == (0, 3)
    assert scripted.posts == []
    assert remote.ledger.snapshot()["total"] == 0


def test_remote_dropped_connection_bills_answered_chunks(scripted):
    scripted.script[:] = [_answer, _drop, _drop, _drop]
    remote = _scripted_client(scripted, max_batch_rows=3, retries=2)
    with pytest.raises(TransportError) as err:
        remote.predict_proba(np.zeros((6, 2)), purpose="signature")
    assert err.value.rows_counted == 3
    assert remote.ledger.snapshot()["total"] == 3
    assert scripted.posts == [3, 3, 3, 3]


def test_server_answers_500_when_forward_raises(monkeypatch, caplog):
    model = tiny_net(2, input_dim=2, class_count=3)
    real_forward, calls = oracle_mod.forward, []

    def failing_forward(m, batch):
        calls.append(len(batch))
        if len(calls) > 1:
            raise RuntimeError("model exploded")
        return real_forward(m, batch)

    monkeypatch.setattr(oracle_mod, "forward", failing_forward)
    with ModelServer(model, port=0) as server, \
            caplog.at_level(logging.ERROR, logger=oracle_mod.log.name):
        remote = zk.RemoteOracle(zk.RemoteEndpoint(server.base_url, timeout=5,
                                                    max_batch_rows=3, retries=1))
        with pytest.raises(TransportError) as err:
            remote.predict_proba(np.zeros((6, 2)), purpose="signature")
        assert str(err.value).endswith(
            "failed after 2 attempts: server error 500: RuntimeError: model exploded")
        req = urllib.request.Request(f"{server.base_url}/v1/predict",
                                     json.dumps({"inputs": [[0.0, 0.0]]}).encode(),
                                     {"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as http_err:
            urllib.request.urlopen(req, timeout=5)
        with http_err.value as answer:
            assert answer.code == 500
            assert json.loads(answer.read()) == {"error": "RuntimeError: model exploded"}
    assert err.value.rows_counted == 3
    assert remote.ledger.breakdown()["signature"] == 3
    assert calls == [3, 3, 3, 1]
    failures = [r for r in caplog.records if r.exc_info and r.exc_info[0] is RuntimeError]
    assert len(failures) == 3
