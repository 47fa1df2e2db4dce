"""Stdlib-HTTP front end for the floorplanning service.

``ThreadingHTTPServer`` gives each connection its own thread, which
answers that connection's requests one after another (HTTP/1.1
keep-alive); the handler is a thin JSON codec around one shared
:class:`ServeEngine`, which is where warmth, batching, and memoization
live.  Responses go out with Nagle's algorithm off, a connection idle
for ``IDLE_TIMEOUT_S`` is closed, and closing the server ends every
idle connection.  A client that opens a connection per request works
as before.  Endpoints:

========  =====================  ========================================
method    path                   body / result
========  =====================  ========================================
GET       /v1/health             liveness probe
GET       /v1/stats              engine counters (store, registry, batch,
                                 bump-pairing memo per warm bundle) and
                                 ``connections`` accepted
GET       /v1/benchmarks         registered benchmark names
GET       /v1/policies           registered policy names
POST      /v1/place              {system, method, budget} -> placement
POST      /v1/evaluate           {system, placement, evaluator, budget}
POST      /v1/rollout            {policy, system, seed, greedy, budget}
POST      /v1/policies           raw ``nn/serialization`` payload bytes;
                                 ``?name=<id>&channels=16,32,32``
========  =====================  ========================================

Client errors surface as HTTP 400 with ``{"error": ...}``; unexpected
failures as 500.  NaN-bearing results (deadlocked arms) are emitted as
JSON ``NaN`` tokens, matching Python's default parser.
"""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.serve.engine import ServeEngine
from repro.serve.schema import (
    BadRequest,
    parse_evaluate_request,
    parse_place_request,
    parse_rollout_request,
)
from repro.utils import get_logger

__all__ = ["FloorplanServer", "serve_forever"]

_logger = get_logger("serve.server")

#: Refuse request bodies beyond this (a policy payload for the bundled
#: benchmarks is well under 1 MiB; this is a safety bound, not a quota).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Seconds a connection may sit idle between requests (or stall inside
#: one) before the server closes it, so an idle keep-alive client
#: cannot hold a server thread forever.  No socket wait happens while a
#: request computes, so a long ``place`` is not cut.
IDLE_TIMEOUT_S = 60.0

#: Listen backlog.  socketserver's default of 5 overflows under a burst
#: of connecting clients, and the kernel retries a dropped SYN only
#: after a second.
LISTEN_BACKLOG = 64


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # The headers and the body go out as two writes; with Nagle's
    # algorithm on, the body would wait for the client's delayed ACK
    # of the headers on every kept-alive response.
    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT_S
    # Set by FloorplanServer:
    engine: ServeEngine

    # -- plumbing -------------------------------------------------------

    def log_message(self, fmt, *args):  # route through repo logging
        _logger.debug("%s %s", self.address_string(), fmt % args)

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> bytes:
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            # The body is left unread, so the connection cannot carry
            # another request.
            self.close_connection = True
            raise BadRequest(
                f"bad Content-Length {header!r} (want 0..{MAX_BODY_BYTES})"
            )
        return self.rfile.read(length)

    def _read_json(self) -> dict:
        raw = self._read_body()
        try:
            return json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise BadRequest(f"request body is not valid JSON: {error}")

    def _dispatch(self, handler) -> None:
        try:
            self._send_json(200, handler())
        except BadRequest as error:
            self._send_json(400, {"error": str(error)})
        except BrokenPipeError:
            pass  # client went away; nothing to answer
        except Exception as error:  # noqa: BLE001 — boundary
            _logger.exception("request failed")
            self._send_json(
                500, {"error": f"{type(error).__name__}: {error}"}
            )

    # -- routes ---------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        path = self.path.split("?", 1)[0].rstrip("/")
        if path == "/v1/health":
            self._dispatch(lambda: {"ok": True})
        elif path == "/v1/stats":
            self._dispatch(
                lambda: dict(
                    self.engine.stats(), connections=self.server.connections
                )
            )
        elif path == "/v1/benchmarks":
            from repro.systems import benchmark_names

            self._dispatch(lambda: {"benchmarks": benchmark_names()})
        elif path == "/v1/policies":
            self._dispatch(lambda: {"policies": self.engine.policies()})
        else:
            self._send_json(404, {"error": f"no such endpoint {path!r}"})

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        path, _, query = self.path.partition("?")
        path = path.rstrip("/")
        if path == "/v1/place":
            self._dispatch(self._handle_place)
        elif path == "/v1/evaluate":
            self._dispatch(self._handle_evaluate)
        elif path == "/v1/rollout":
            self._dispatch(self._handle_rollout)
        elif path == "/v1/policies":
            self._dispatch(lambda: self._handle_register_policy(query))
        else:
            self._send_json(404, {"error": f"no such endpoint {path!r}"})

    def _handle_place(self) -> dict:
        request = parse_place_request(self._read_json())
        return self.engine.place(
            request["system"], request["method"], request["budget"]
        )

    def _handle_evaluate(self) -> dict:
        request = parse_evaluate_request(self._read_json())
        return self.engine.evaluate(
            request["system"],
            request["placement"],
            request["evaluator"],
            request["budget"],
        )

    def _handle_rollout(self) -> dict:
        request = parse_rollout_request(self._read_json())
        return self.engine.rollout(
            request["policy"],
            request["system"],
            request["seed"],
            request["greedy"],
            request["budget"],
        )

    def _handle_register_policy(self, query: str) -> dict:
        from urllib.parse import parse_qs

        params = parse_qs(query)
        name = (params.get("name") or [""])[0]
        channels_raw = (params.get("channels") or ["16,32,32"])[0]
        try:
            channels = tuple(
                int(c) for c in channels_raw.split(",") if c.strip()
            )
        except ValueError:
            raise BadRequest(f"bad channels spec {channels_raw!r}")
        return self.engine.register_policy(name, self._read_body(), channels)


class _HTTPServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` that counts the connections it accepts and
    ends the idle ones when it closes."""

    daemon_threads = True
    request_queue_size = LISTEN_BACKLOG

    def __init__(self, address, handler):
        self.connections = 0
        self._open: set = set()
        self._open_lock = threading.Lock()
        super().__init__(address, handler)

    def process_request(self, request, client_address):
        with self._open_lock:
            self._open.add(request)
            self.connections += 1
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def server_close(self):
        super().server_close()
        with self._open_lock:
            still_open = list(self._open)
        # A thread waiting for a connection's next request reads end of
        # stream and closes it; one still answering writes its reply
        # first.  A kept-alive client then reconnects to whatever
        # listens next, not to this closed server's threads.
        for request in still_open:
            try:
                request.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # the peer closed it first


class FloorplanServer:
    """Owns the listening socket, the engine, and the serving thread."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        engine: ServeEngine | None = None,
        store_dir=None,
        cache_dir=None,
        window_s: float = 0.002,
        max_batch: int = 16,
    ):
        self.engine = engine or ServeEngine(
            store_dir=store_dir,
            cache_dir=cache_dir,
            window_s=window_s,
            max_batch=max_batch,
        )
        handler = type("BoundHandler", (_Handler,), {"engine": self.engine})
        self._httpd = _HTTPServer((host, port), handler)
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple:
        """The bound ``(host, port)`` — port resolved when 0 was asked."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "FloorplanServer":
        """Serve on a daemon thread (tests/embedded use)."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI entrypoint)."""
        _logger.info("serving on %s", self.url)
        try:
            self._httpd.serve_forever()
        except KeyboardInterrupt:
            _logger.info("interrupted; shutting down")

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.engine.close()

    def __enter__(self) -> "FloorplanServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()


def serve_forever(
    host: str = "127.0.0.1",
    port: int = 8337,
    *,
    store_dir=None,
    cache_dir=None,
    window_s: float = 0.002,
    max_batch: int = 16,
) -> None:
    """Blocking entrypoint used by ``repro.cli serve``/``scripts/serve.py``."""
    server = FloorplanServer(
        host,
        port,
        store_dir=store_dir,
        cache_dir=cache_dir,
        window_s=window_s,
        max_batch=max_batch,
    )
    print(f"floorplan service listening on {server.url}")
    try:
        server.serve_forever()
    finally:
        server.close()
