"""Stdlib client for the floorplanning service (``http.client``, no deps).

Used by ``repro.cli submit``, the CI smoke, and the serve benchmark.
JSON floats round-trip exactly through Python's encoder/parser, so
values read back here are bitwise-comparable against locally computed
results.

Each calling thread keeps one persistent HTTP/1.1 connection, so a
client shared by a thread pool sends every thread's requests over that
thread's own socket, one request at a time, and pays the TCP connect
once per thread rather than once per request.  When a request on a
reused connection finds it closed (the server's idle timeout, a server
restart, a connection the server ended after a malformed request), the
client reconnects and sends it once more.  A fresh connection that
fails raises.
"""

from __future__ import annotations

import http.client
import json
import threading
import urllib.parse
import weakref

__all__ = ["ServeClient", "ServeError"]


class ServeError(RuntimeError):
    """Server answered with an error status (message from its body)."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class _Connection(http.client.HTTPConnection):
    """A kept connection that closes its socket once dropped, so the
    connection of a thread that ended is closed, not left to the
    garbage collector."""

    def __del__(self):
        self.close()


class ServeClient:
    """Client of one server at ``base_url`` (``http://host:port``)."""

    def __init__(self, base_url: str, timeout: float = 600.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        parts = urllib.parse.urlsplit(self.base_url)
        if parts.scheme != "http":
            raise ValueError(f"not an http:// URL: {base_url!r}")
        self._netloc = parts.netloc
        self._path = parts.path
        self._local = threading.local()
        # Every live thread's connection, for close(); a thread's
        # connection is dropped, and so closed, when the thread ends.
        self._connections = weakref.WeakSet()
        self._connections_lock = threading.Lock()

    # -- transport ------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        """The calling thread's connection (opened on first use)."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = _Connection(self._netloc, timeout=self.timeout)
            self._local.connection = connection
            with self._connections_lock:
                self._connections.add(connection)
        return connection

    def _exchange(self, method: str, path: str, body, headers) -> tuple:
        """One request and its whole reply as ``(status, body)``."""
        connection = self._connection()
        # http.client reopens a closed connection by itself, so only a
        # socket kept from an earlier request can have gone stale.
        retry = connection.sock is not None
        while True:
            try:
                connection.request(
                    method, self._path + path, body=body, headers=headers
                )
                reply = connection.getresponse()
                return reply.status, reply.read()
            except ConnectionError:
                connection.close()
                if not retry:
                    raise
                retry = False  # once more, over a fresh connection
            except BaseException:
                # A timeout or a torn reply leaves the socket
                # mid-exchange.
                connection.close()
                raise

    def _request(
        self, method: str, path: str, body: bytes | None = None,
        content_type: str = "application/json",
    ) -> dict:
        headers = {"Content-Type": content_type} if body else {}
        status, raw_bytes = self._exchange(method, path, body, headers)
        if status >= 400:
            raw = raw_bytes.decode("utf-8", errors="replace")
            try:
                message = json.loads(raw).get("error", raw)
            except json.JSONDecodeError:
                message = raw
            raise ServeError(status, message)
        return json.loads(raw_bytes.decode("utf-8"))

    def _post_json(self, path: str, payload: dict) -> dict:
        return self._request(
            "POST", path, json.dumps(payload).encode("utf-8")
        )

    def close(self) -> None:
        """Close every thread's connection; a later request reconnects."""
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            connection.close()

    # -- endpoints ------------------------------------------------------

    def health(self) -> dict:
        return self._request("GET", "/v1/health")

    def stats(self) -> dict:
        return self._request("GET", "/v1/stats")

    def benchmarks(self) -> list:
        return self._request("GET", "/v1/benchmarks")["benchmarks"]

    def policies(self) -> dict:
        return self._request("GET", "/v1/policies")["policies"]

    def place(self, system: str, method: str, budget: dict | None = None) -> dict:
        return self._post_json(
            "/v1/place",
            {"system": system, "method": method, "budget": budget or {}},
        )

    def evaluate(
        self,
        system: str,
        placement: dict,
        evaluator: str = "fast",
        budget: dict | None = None,
    ) -> dict:
        return self._post_json(
            "/v1/evaluate",
            {
                "system": system,
                "placement": placement,
                "evaluator": evaluator,
                "budget": budget or {},
            },
        )

    def rollout(
        self,
        policy: str,
        system: str,
        seed: int = 0,
        greedy: bool = False,
        budget: dict | None = None,
    ) -> dict:
        return self._post_json(
            "/v1/rollout",
            {
                "policy": policy,
                "system": system,
                "seed": seed,
                "greedy": greedy,
                "budget": budget or {},
            },
        )

    def register_policy(
        self, name: str, payload: bytes, channels=(16, 32, 32)
    ) -> dict:
        channel_spec = ",".join(str(int(c)) for c in channels)
        return self._request(
            "POST",
            f"/v1/policies?name={name}&channels={channel_spec}",
            payload,
            content_type="application/octet-stream",
        )
