"""Threaded HTTP front-end for :class:`~repro.service.app.FeasibilityService`.

Stdlib only: a :class:`http.server.ThreadingHTTPServer` subclass whose
handler decodes JSON, dispatches to the service object, and encodes
responses.  Design points:

* **Structured errors.**  Bad payloads return ``400`` with
  ``{"error": {"message", "fields": [{"field", "message"}, ...]}}``;
  unknown paths ``404``; wrong methods ``405``; handler bugs ``500``
  with a generic body (the traceback goes to the server log, never to
  the client).
* **Observability.**  Every request — including errors — is timed and
  counted in the service's :class:`~repro.service.metrics.MetricsRegistry`.
* **One write per response.**  The handler sends its status line,
  headers and body in a single ``send`` on a ``TCP_NODELAY`` socket.
  Split across two writes on a Nagle socket, the body would wait for
  the client's delayed ACK of the head (about 40 ms per response).
* **Graceful drain.**  ``daemon_threads`` is off and ``block_on_close``
  on, so ``shutdown()`` stops accepting while ``server_close()`` joins
  every in-flight handler thread; :func:`serve` wires SIGTERM/SIGINT to
  exactly that sequence.
"""

from __future__ import annotations

import json
import signal
import sys
import threading
import time
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlsplit

from .. import __version__
from .app import FeasibilityService
from .validation import ValidationError

__all__ = ["ReproServer", "make_server", "serve"]

#: Largest accepted request body, in bytes.  A MAX_BATCH batch of
#: MAX_TASKS-task instances would exceed this — by design; the limit is
#: the serving-path backstop against memory abuse.
MAX_BODY_BYTES = 16 * 1024 * 1024


class _RequestError(Exception):
    """Internal: abort the current request with this status and body."""

    def __init__(self, status: int, body: dict[str, Any]):
        super().__init__(body.get("error", {}).get("message", ""))
        self.status = status
        self.body = body


def _error_body(message: str, fields: list[dict[str, str]] | None = None) -> dict:
    return {"error": {"message": message, "fields": fields or []}}


class ReproRequestHandler(BaseHTTPRequestHandler):
    """Routes the fixed endpoint table; everything else is a 404/405."""

    server_version = f"repro-service/{__version__}"
    protocol_version = "HTTP/1.1"  # keep-alive; we always send Content-Length
    # TCP_NODELAY, so stdlib ``send_error`` (head and body in two writes)
    # does not stall on the client's delayed ACK either.
    disable_nagle_algorithm = True

    POST_ENDPOINTS = ("/v1/test", "/v1/partition", "/v1/batch")
    GET_ENDPOINTS = ("/healthz", "/metrics")

    @property
    def service(self) -> FeasibilityService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        if getattr(self.server, "quiet", False):
            return
        sys.stderr.write(
            f"{self.address_string()} - {format % args}\n"
        )

    # -- plumbing -----------------------------------------------------------
    def _send(self, status: int, payload: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        # end_headers() would flush the head in a write of its own; send
        # the buffered head, the blank line and the body together.  A
        # handler instance serves one connection on one thread, so its
        # header buffer needs no lock.
        head = b""
        if self.request_version != "HTTP/0.9":
            head = b"".join(self._headers_buffer) + b"\r\n"
            self._headers_buffer = []  # repro: noqa[REP010]
        self.wfile.write(head + payload)

    def _send_json(self, status: int, body: dict[str, Any]) -> None:
        self._send(
            status,
            json.dumps(body, sort_keys=True).encode("utf-8"),
            "application/json; charset=utf-8",
        )

    def _read_json(self) -> Any:
        length_header = self.headers.get("Content-Length")
        try:
            length = int(length_header or "")
        except ValueError:
            self.close_connection = True  # body left unread
            raise _RequestError(
                411, _error_body("Content-Length header is required")
            ) from None
        if length < 0:
            self.close_connection = True  # body length unknown
            raise _RequestError(
                400,
                _error_body("Content-Length must be a non-negative integer"),
            )
        if length > MAX_BODY_BYTES:
            self.close_connection = True  # refuse to read it
            raise _RequestError(
                413,
                _error_body(f"request body exceeds {MAX_BODY_BYTES} bytes"),
            )
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise _RequestError(
                400, _error_body(f"request body is not valid JSON: {exc}")
            ) from None

    def _dispatch(self, endpoint: str, handler) -> None:
        """Run ``handler`` with uniform error mapping and metrics."""
        status = 500
        t0 = time.perf_counter()
        try:
            self.service.before_handle(endpoint)
            try:
                status, body, content_type = handler()
            except _RequestError as exc:
                status = exc.status
                body, content_type = exc.body, None
            except ValidationError as exc:
                status = 400
                body, content_type = exc.as_dict(), None
            except Exception:
                # Never leak a traceback to the client.
                self.log_error(
                    "unhandled error on %s:\n%s", endpoint, traceback.format_exc()
                )
                status = 500
                body, content_type = _error_body("internal server error"), None
            if content_type is None:
                self._send_json(status, body)
            else:
                self._send(status, body, content_type)
        except (BrokenPipeError, ConnectionResetError):  # client went away
            status = 499
        finally:
            self.service.metrics.observe(
                endpoint, status, time.perf_counter() - t0
            )

    # -- methods ------------------------------------------------------------
    def do_POST(self) -> None:
        path = urlsplit(self.path).path
        if path not in self.POST_ENDPOINTS:
            if path in self.GET_ENDPOINTS:
                self._dispatch(path, self._method_not_allowed("GET"))
            else:
                self._dispatch(path, self._not_found)
            return
        routes = {
            "/v1/test": self.service.handle_test,
            "/v1/partition": self.service.handle_partition,
            "/v1/batch": self.service.handle_batch,
        }

        def run():
            payload = self._read_json()
            return 200, routes[path](payload), None

        self._dispatch(path, run)

    def do_GET(self) -> None:
        split = urlsplit(self.path)
        path = split.path
        if path not in self.GET_ENDPOINTS:
            if path in self.POST_ENDPOINTS:
                self._dispatch(path, self._method_not_allowed("POST"))
            else:
                self._dispatch(path, self._not_found)
            return

        def run():
            if path == "/healthz":
                return 200, self.service.handle_healthz(), None
            fmt = parse_qs(split.query).get("format", ["json"])[0]
            if fmt == "prometheus":
                return (
                    200,
                    self.service.metrics_prometheus().encode("utf-8"),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            if fmt != "json":
                raise _RequestError(
                    400, _error_body("format must be 'json' or 'prometheus'")
                )
            return 200, self.service.metrics_json(), None

        self._dispatch(path, run)

    def _not_found(self):
        self.close_connection = True  # any request body is left unread
        known = list(self.GET_ENDPOINTS + self.POST_ENDPOINTS)
        raise _RequestError(
            404, _error_body(f"unknown endpoint; known endpoints: {known}")
        )

    def _method_not_allowed(self, allowed: str):
        def run():
            self.close_connection = True  # any request body is left unread
            raise _RequestError(
                405, _error_body(f"method not allowed; use {allowed}")
            )

        return run


class ReproServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`FeasibilityService`.

    ``daemon_threads = False`` + ``block_on_close = True`` (the mixin
    default) make ``server_close()`` wait for in-flight requests — the
    graceful-drain half of SIGTERM handling.
    """

    daemon_threads = False
    block_on_close = True
    allow_reuse_address = True

    def __init__(
        self,
        address: tuple[str, int],
        service: FeasibilityService,
        *,
        quiet: bool = True,
    ):
        self.service = service
        self.quiet = quiet
        super().__init__(address, ReproRequestHandler)


def make_server(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    jobs: int = 1,
    cache_size: int = 1024,
    backend: str | None = None,
    quiet: bool = True,
) -> ReproServer:
    """Bind a server (``port=0`` picks an ephemeral port) without serving."""
    service = FeasibilityService(
        jobs=jobs, cache_size=cache_size, backend=backend
    )
    return ReproServer((host, port), service, quiet=quiet)


def serve(
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    jobs: int = 1,
    cache_size: int = 1024,
    backend: str | None = None,
    quiet: bool = True,
) -> int:
    """Run the service until SIGTERM/SIGINT, then drain and exit 0.

    The accept loop runs on a background thread; the calling (main)
    thread owns signal handling, so ``server.shutdown()`` is never
    invoked from inside ``serve_forever`` (a stdlib deadlock).
    """
    server = make_server(
        host, port, jobs=jobs, cache_size=cache_size, backend=backend,
        quiet=quiet,
    )
    stop = threading.Event()

    def _on_signal(signum: int, frame: Any) -> None:
        stop.set()

    previous = {
        sig: signal.signal(sig, _on_signal)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    bound_host, bound_port = server.server_address[:2]
    print(
        f"repro.service listening on http://{bound_host}:{bound_port} "
        f"(jobs={jobs}, cache_size={cache_size})",
        file=sys.stderr,
        flush=True,
    )
    thread = threading.Thread(
        target=server.serve_forever, name="repro-service-accept", daemon=False
    )
    thread.start()
    try:
        stop.wait()
    finally:
        print(
            "repro.service shutting down: draining in-flight requests...",
            file=sys.stderr,
            flush=True,
        )
        server.shutdown()
        thread.join()
        server.server_close()  # joins handler threads (block_on_close)
        for sig, old in previous.items():
            signal.signal(sig, old)
        print("repro.service stopped", file=sys.stderr, flush=True)
    return 0
