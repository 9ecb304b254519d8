"""Query-only access to classifiers, with exact per-row accounting.

The ledger is the adversary's cost meter: one unit per input row sent,
regardless of HTTP batching, because pay-per-query APIs bill per example.
There is deliberately no caching layer; repeated queries are counted again.

Wire protocol (shared by the serve mode and the remote client):

    POST /v1/predict   {"inputs": [[f64,...],...]} -> {"probs": [[f64,...],...]}
    GET  /v1/info      -> {"class_count": u, "input_dim": u}

Errors come back as {"error": string}. The server's statuses:

    200  the answer
    400  malformed request: bad JSON, inputs that are not a 2-D array of
         model.input_dim finite numbers a row, or a negative Content-Length
    404  unknown path
    413  Content-Length above MAX_REQUEST_BYTES; the body is never read
    500  the model itself failed; the server logs the traceback

Every answer carries "Connection: close" and ends its connection, so a body
the server did not read is never taken for the next request.

The client bills nothing for a 4xx and raises ProtocolError with the
server's reason. It retries a 5xx like a failed connection and, once the
retries run out, raises TransportError carrying the last reason.

The client's HTTP modules (urllib.request, http.client, ssl, email) and the
server's (http.server) are imported by the code that sends a request or
starts a server, so a run that only uses local oracles never loads them.
"""

import functools
import json
import logging
import threading
import urllib.parse
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ProtocolError, TransportError
from .nn import MlpModel, as_matrix, forward

log = logging.getLogger(__name__)

PURPOSES = ("signature", "signature_baseline", "attack_eval", "other")
MAX_REQUEST_BYTES = 64 * 1024 * 1024  # largest POST body the server reads


class QueryLedger:
    """Monotone per-purpose row counts; safe for concurrent accumulation."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counts = {p: 0 for p in PURPOSES}

    def add(self, purpose: str, rows: int) -> None:
        if purpose not in PURPOSES:
            raise ConfigError(f"unknown query purpose {purpose!r}")
        if rows < 0:
            raise ConfigError("row count cannot be negative")
        with self._lock:
            self._counts[purpose] += int(rows)

    @property
    def total_queries(self) -> int:
        with self._lock:
            return sum(self._counts.values())

    def breakdown(self) -> dict:
        with self._lock:
            return dict(self._counts)

    def snapshot(self) -> dict:
        out = self.breakdown()
        out["total"] = sum(out.values())
        return out


class QueryOracle(ABC):
    """A classifier seen purely through its predictions."""

    ledger: QueryLedger

    @abstractmethod
    def predict_proba(self, batch, purpose: str = "other") -> np.ndarray:
        """Probability rows for each input row; bills one unit per row."""

    @property
    @abstractmethod
    def class_count(self) -> int: ...

    @property
    @abstractmethod
    def input_dim(self) -> int: ...

    @property
    @abstractmethod
    def oracle_id(self) -> str: ...


class LocalOracle(QueryOracle):
    """Wraps a local model behind the query interface (no network)."""

    def __init__(self, model: MlpModel):
        self._model = model
        self.ledger = QueryLedger()

    @property
    def model(self) -> MlpModel:
        return self._model

    @property
    def class_count(self):
        return self._model.class_count

    @property
    def input_dim(self):
        return self._model.input_dim

    @property
    def oracle_id(self):
        return self._model.model_id

    def predict_proba(self, batch, purpose="other"):
        probs = forward(self._model, batch)
        self.ledger.add(purpose, probs.shape[0])
        return probs


def local_oracle(model: MlpModel) -> LocalOracle:
    return LocalOracle(model)


@dataclass(frozen=True)
class RemoteEndpoint:
    base_url: str
    timeout: float = 10.0
    max_batch_rows: int = 1000
    retries: int = 2

    def __post_init__(self):
        if self.max_batch_rows < 1:
            raise ConfigError("max_batch_rows must be >= 1")
        if self.retries < 0:
            raise ConfigError("retries cannot be negative")
        try:
            parts = urllib.parse.urlsplit(self.base_url)
        except ValueError as e:
            raise ConfigError(f"malformed oracle URL {self.base_url!r}: {e}") from e
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ConfigError(f"oracle URL {self.base_url!r} needs an http(s) scheme and a host")
        object.__setattr__(self, "base_url", self.base_url.rstrip("/"))


class RemoteOracle(QueryOracle):
    """HTTP client for the wire protocol above.

    Batches are split to ``max_batch_rows`` and reassembled in order. Rows
    are billed exactly once per successfully answered chunk, so a retried
    chunk is not double-counted.
    """

    def __init__(self, endpoint: RemoteEndpoint):
        self.endpoint = endpoint
        self.ledger = QueryLedger()
        self._info = None
        self._info_lock = threading.Lock()

    def _exchange(self, url: str, body: bytes = None) -> "tuple[int, bytes]":
        """GET (no body) or JSON POST -> (status, whole response body); failing to
        connect, send or read the body raises OSError or http.client.HTTPException."""
        import urllib.error
        import urllib.request
        req = urllib.request.Request(url, body, {"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(req, timeout=self.endpoint.timeout) as resp:
                return resp.status, resp.read()
        except urllib.error.HTTPError as e:  # a non-2xx status is an answer too
            with e:
                return e.code, e.read()

    def _fetch_info(self):
        from http.client import HTTPException
        with self._info_lock:
            if self._info is None:
                url = f"{self.endpoint.base_url}/v1/info"
                try:
                    status, payload = self._exchange(url)
                except (OSError, HTTPException) as e:
                    raise TransportError(f"cannot reach oracle at {url}: {e}") from e
                if status != 200:
                    raise ProtocolError(f"{url} returned status {status}")
                try:
                    info = json.loads(payload)
                    self._info = (int(info["class_count"]), int(info["input_dim"]))
                except (ValueError, KeyError, TypeError) as e:
                    raise ProtocolError(f"malformed /v1/info response: {e}") from e
        return self._info

    @property
    def class_count(self):
        return self._fetch_info()[0]

    @property
    def input_dim(self):
        return self._fetch_info()[1]

    @property
    def oracle_id(self):
        return self.endpoint.base_url

    def _post_chunk(self, chunk: np.ndarray) -> np.ndarray:
        from http.client import HTTPException
        url = f"{self.endpoint.base_url}/v1/predict"
        body = json.dumps({"inputs": chunk.tolist()}).encode("utf-8")
        last_exc = None
        for _ in range(self.endpoint.retries + 1):
            try:
                status, payload = self._exchange(url, body)
            except (OSError, HTTPException) as e:
                last_exc = e
                continue
            if status >= 500:
                last_exc = ProtocolError(f"server error {status}: {_error_detail(payload)}")
                continue
            if status != 200:
                raise ProtocolError(
                    f"oracle rejected request ({status}): {_error_detail(payload)}")
            try:
                probs = np.asarray(json.loads(payload)["probs"], dtype=np.float64)
            except (ValueError, KeyError, TypeError) as e:
                raise ProtocolError(f"malformed /v1/predict response: {e}") from e
            if probs.ndim != 2 or probs.shape[0] != chunk.shape[0]:
                raise ProtocolError(
                    f"oracle returned {probs.shape[0] if probs.ndim == 2 else '?'} rows "
                    f"for {chunk.shape[0]} inputs")
            if probs.shape[1] != self.class_count:
                raise ProtocolError(
                    f"oracle returned {probs.shape[1]} classes, expected {self.class_count}")
            return probs
        raise TransportError(f"POST {url} failed after {self.endpoint.retries + 1} attempts: "
                             f"{last_exc}")

    def predict_proba(self, batch, purpose="other"):
        x = as_matrix(batch, cols=self.input_dim)
        if x.shape[0] == 0:
            return np.zeros((0, self.class_count))
        parts = []
        rows_done = 0
        step = self.endpoint.max_batch_rows
        for start in range(0, x.shape[0], step):
            chunk = x[start:start + step]
            try:
                probs = self._post_chunk(chunk)
            except TransportError as e:
                e.rows_counted = rows_done
                raise
            self.ledger.add(purpose, chunk.shape[0])
            rows_done += chunk.shape[0]
            parts.append(probs)
        return np.vstack(parts)


def _error_detail(payload: bytes) -> str:
    """The ``error`` field of a JSON object body, else the body's first 200 characters."""
    try:
        answer = json.loads(payload)
    except ValueError:
        answer = None
    return (answer.get("error", "") if isinstance(answer, dict)
            else payload.decode("utf-8", "replace")[:200])


def remote_oracle(endpoint: RemoteEndpoint) -> RemoteOracle:
    return RemoteOracle(endpoint)


@functools.cache
def _handler_class():
    """The server's request handler class, built on first use so that importing
    this module does not load http.server."""
    from http.server import BaseHTTPRequestHandler

    class Handler(BaseHTTPRequestHandler):
        server_version = "zestkit-oracle/1"
        protocol_version = "HTTP/1.1"

        def _reply(self, status: int, payload: dict):
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.send_header("Connection", "close")
            self.close_connection = True
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, fmt, *args):
            log.debug("oracle server: " + fmt, *args)

        def do_GET(self):
            model = self.server.model
            if self.path == "/v1/info":
                self._reply(200, {"class_count": model.class_count, "input_dim": model.input_dim})
            else:
                self._reply(404, {"error": f"unknown path {self.path}"})

        def do_POST(self):
            if self.path != "/v1/predict":
                self._reply(404, {"error": f"unknown path {self.path}"})
                return
            model = self.server.model
            try:
                length = int(self.headers.get("Content-Length", "0"))
                if length < 0:
                    raise ValueError("Content-Length cannot be negative")
                if length > MAX_REQUEST_BYTES:
                    self._reply(413, {"error": f"request body of {length} bytes exceeds "
                                               f"{MAX_REQUEST_BYTES}"})
                    return
                payload = json.loads(self.rfile.read(length).decode("utf-8"))
                batch = as_matrix(payload["inputs"], cols=model.input_dim, name="inputs")
            except Exception as e:  # malformed request -> 400, never a crash
                self._reply(400, {"error": str(e)})
                return
            try:
                probs = forward(model, batch)
            except Exception as e:  # a failing model -> 500, not a dropped connection
                log.exception("oracle server: forward failed")
                self._reply(500, {"error": f"{type(e).__name__}: {e}"})
                return
            self._reply(200, {"probs": probs.tolist()})

    return Handler


class ModelServer:
    """Serves a local model over the wire protocol; deterministic answers."""

    def __init__(self, model: MlpModel, port: int = 0, host: str = "127.0.0.1"):
        from http.server import ThreadingHTTPServer
        self._httpd = ThreadingHTTPServer((host, port), _handler_class())
        self._httpd.model = model
        self._httpd.daemon_threads = True
        self._thread = None

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def base_url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "ModelServer":
        # stop() waits for serve_forever's next poll; the default 0.5 s is that long
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        kwargs={"poll_interval": 0.05}, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()


def serve(model: MlpModel, port: int, host: str = "127.0.0.1") -> None:
    """Run the prediction service until interrupted (CLI entry), after printing
    the address it bound: with port 0, the one the system picked."""
    server = ModelServer(model, port=port, host=host)
    print(f"serving {model.model_id} on {server.base_url}", flush=True)
    try:
        server._httpd.serve_forever()
    finally:
        server._httpd.server_close()
