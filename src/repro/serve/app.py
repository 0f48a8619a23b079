"""The ``repro serve`` application: HTTP front-end over the batched service.

* :class:`InferenceService` — transport-free facade tying the
  :class:`~repro.serve.model_manager.ModelManager` (load once, atomic hot
  swap), the :class:`~repro.serve.batcher.MicroBatcher` (request
  coalescing) and :class:`~repro.serve.batcher.ServerStats` together.  Each
  endpoint is one method ``(body) -> (status, json)``, so every endpoint is
  testable without sockets.
* :class:`_RequestHandler` + ``ThreadingHTTPServer`` — one stdlib worker
  thread per connection; workers route, parse and serialize only and block
  on the batcher, so all NumPy inference work funnels through the single
  batcher thread against the shared read-only model.

========  ==========  ====================================================
method    path        purpose
========  ==========  ====================================================
POST      /predict    micro-batched graph classification (top-k labels)
GET       /healthz    liveness + live model identity
GET       /stats      batch sizes, queue depth, latency percentiles
POST      /reload     version-checked atomic model hot swap
========  ==========  ====================================================

``create_server`` wires everything and returns the server without starting
it (tests bind port 0 and drive it from a thread); ``run_server`` is the
blocking CLI entry point.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

from repro.hdc.training_state import MergeError
from repro.serve.batcher import MicroBatcher, ServerStats, ServiceClosedError
from repro.serve.model_manager import ModelManager, StaleVersionError
from repro.serve.schemas import (
    SchemaError,
    parse_predict_request,
    parse_reload_request,
    prediction_payload,
)

__all__ = ["InferenceService", "create_server", "run_server"]

#: Largest accepted request body; a JSON graph batch within the per-request
#: graph cap fits comfortably, anything bigger is rejected with 413.
MAX_BODY_BYTES = 32 * 1024 * 1024


class InferenceService:
    """Transport-free serving facade: one method per endpoint."""

    def __init__(self, model_path: str) -> None:
        self.manager = ModelManager(model_path)
        self.stats_recorder = ServerStats()
        self.batcher = MicroBatcher(self.manager.current, stats=self.stats_recorder)

    def predict(self, body: bytes) -> tuple[int, dict]:
        """``POST /predict``: classify a batch of graphs through the batcher."""
        try:
            request = parse_predict_request(
                body, num_classes=self.manager.current().num_classes
            )
        except SchemaError as error:
            return 400, {"error": str(error)}
        try:
            result = self.batcher.submit(request.graphs, top_k=request.top_k)
        except ServiceClosedError as error:
            return 503, {"error": str(error)}
        except TimeoutError as error:
            return 504, {"error": str(error)}
        return 200, {
            "model_version": result.handle.version,
            "metric": result.handle.model.metric,
            "batch_size": result.batch_size,
            "predictions": [prediction_payload(topk) for topk in result.topk],
        }

    def health(self, body: bytes) -> tuple[int, dict]:
        """``GET /healthz``: liveness plus the live model's identity."""
        return 200, {"status": "ok", "model": self.manager.current().describe()}

    def stats(self, body: bytes) -> tuple[int, dict]:
        """``GET /stats``: serving counters and latency percentiles."""
        snapshot = self.stats_recorder.snapshot(
            queue_depth=self.batcher.queue_depth()
        )
        snapshot["model"] = self.manager.current().describe()
        return 200, snapshot

    def reload(self, body: bytes) -> tuple[int, dict]:
        """``POST /reload``: version-checked atomic model hot swap."""
        try:
            request = parse_reload_request(body)
        except SchemaError as error:
            return 400, {"error": str(error)}
        try:
            handle = self.manager.reload(
                path=request.path, expected_version=request.expected_version
            )
        except StaleVersionError as error:
            return 409, {"error": str(error)}
        except (FileNotFoundError, ValueError, MergeError) as error:
            return 400, {"error": f"model reload failed: {error}"}
        return 200, {"reloaded": True, "model": handle.describe()}

    def close(self) -> None:
        self.batcher.close()


_ROUTES = {
    ("POST", "/predict"): InferenceService.predict,
    ("GET", "/healthz"): InferenceService.health,
    ("GET", "/stats"): InferenceService.stats,
    ("POST", "/reload"): InferenceService.reload,
}


class _RequestHandler(BaseHTTPRequestHandler):
    """Thin JSON-over-HTTP adapter; all logic lives in the service."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    # A response goes out as two writes (headers, then body).  With Nagle's
    # algorithm on, the body of a reused keep-alive connection waits for the
    # client's delayed ACK of the headers, ~40 ms.
    disable_nagle_algorithm = True

    def _dispatch(self, method: str) -> None:
        path = urlsplit(self.path).path
        endpoint = _ROUTES.get((method, path))
        if endpoint is None:
            allowed = sorted(m for (m, p) in _ROUTES if p == path)
            if allowed:
                self._respond(405, {
                    "error": f"method {method} not allowed for {path}",
                    "allowed": allowed,
                })
            else:
                self._respond(404, {
                    "error": f"unknown path {path}",
                    "paths": sorted({p for (_, p) in _ROUTES}),
                })
            return
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            self._respond(
                413,
                {"error": f"request body exceeds {MAX_BODY_BYTES} bytes"},
            )
            return
        body = self.rfile.read(length) if length else b""
        self._respond(*endpoint(self.server.service, body))

    def _respond(self, status: int, payload: dict) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._dispatch("POST")

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)


class _InferenceHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the shared :class:`InferenceService`."""

    daemon_threads = True
    # Connection backlog under bursty load generators.
    request_queue_size = 128

    def __init__(self, address, service: InferenceService, verbose: bool = False):
        super().__init__(address, _RequestHandler)
        self.service = service
        self.verbose = verbose

    def server_close(self) -> None:
        super().server_close()
        self.service.close()


def create_server(
    model_path: str,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
) -> _InferenceHTTPServer:
    """Build the HTTP server (not yet serving) around a saved model.

    ``port=0`` binds an ephemeral port (read it back from
    ``server.server_address``), which is how the tests and the load
    generator run hermetically.
    """
    return _InferenceHTTPServer(
        (host, port), InferenceService(model_path), verbose=verbose
    )


def run_server(server: _InferenceHTTPServer) -> None:
    """Serve until interrupted, then shut down cleanly."""
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()


def start_in_thread(server: _InferenceHTTPServer) -> threading.Thread:
    """Run ``serve_forever`` on a daemon thread (tests, load generator)."""
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve-http", daemon=True
    )
    thread.start()
    return thread
