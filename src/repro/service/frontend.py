"""The HTTP front end of ``repro serve``: one asyncio process, N shards.

This is the only HTTP stack of :mod:`repro.service`.  One asyncio
process owns the HTTP surface and routes every verdict request to a
shard keyed by a prefix of the canonical
:func:`~repro.io_.serialize.instance_digest`.  Every shard wraps one
:class:`~repro.service.shard.ShardCore`, so a canonical instance is
only ever seen by one verdict cache:

* ``--workers 0`` (the default) — one in-process shard.  Each
  evaluation runs in the event loop's default executor, never on the
  loop thread: a 512×64 miss or a batch evaluated inline would stall
  every other keep-alive connection until it finished.  ``--jobs``
  fans ``/v1/batch`` misses out over a process pool.  ``/healthz`` and
  ``/metrics`` are those of
  :class:`~repro.service.app.FeasibilityService`.
* ``--workers N`` — N worker processes (:mod:`repro.service.shard`),
  each owning a private verdict LRU; no cross-process locking, no
  shared memory, no cache-coherence protocol.

Division of labour per request:

* **front end** — HTTP parsing, JSON decode, payload validation,
  canonical order + digest computation, shard routing, response
  remapping to submission order, JSON encode.  The payload and
  response code is the one copy in :mod:`repro.service.app`.
  ``/v1/batch`` splits its payload by shard, fans the sub-batches out
  concurrently, and reassembles the responses positionally (the same
  positional-reduction discipline as :mod:`repro.runner`), so the body
  does not depend on the worker count.
* **shard** — cache lookup and verdict evaluation only.

Worker lifecycle: workers are spawned as subprocesses over an
inherited ``socketpair`` (pre-fork style, no dependence on fork safety
under threads).  If a worker dies, the front end detects EOF on the
pair, respawns the shard with an *empty* LRU, replays every in-flight
frame exactly once, and answers ``503`` only for a request whose
replay also died.  SIGTERM drains: stop accepting, finish in-flight
HTTP requests, send every worker a ``shutdown`` frame (FIFO after its
pending work), then reap the processes.

HTTP: HTTP/1.1 keep-alive (HTTP/1.0 closes unless the client asks for
keep-alive), ``Expect: 100-continue``, and structured JSON errors for
everything, including a malformed request line (400), an overlong
request line (414) and oversized or too many header lines (431).  Each
response leaves in one write on a ``TCP_NODELAY`` socket.

Consistency guarantees (see ``docs/service.md``): report and digest
bytes are identical for every worker count and backend; the ``cached``
flags agree whenever the comparison is run from a cold start with
per-worker capacity at least the working set (sharding changes cache
*architecture*, so eviction patterns under pressure legitimately
differ).
"""

# repro: noqa-file[REP006, REP010] — every object here lives on the
# single asyncio event-loop thread; there are no concurrent request
# threads to race with, so lock-guarding this state (or proving a
# lock-holding caller chain for it) would be dead weight.

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Awaitable, Callable

from .. import __version__
from ..io_.serialize import shard_for_digest
from .app import (
    FeasibilityService,
    parse_batch_units,
    parse_partition_unit,
    parse_test_unit,
    respond_batch,
    respond_partition,
    respond_test,
)
from .metrics import MetricsRegistry, render_shard_prometheus
from .protocol import frame_bytes, read_frame_async
from .shard import ShardCore
from .validation import ValidationError

__all__ = ["MAX_BODY_BYTES", "MAX_HEADERS", "ShardedFrontend", "serve_sharded"]

#: Largest accepted request body, in bytes.  A MAX_BATCH batch of
#: MAX_TASKS-task instances would exceed this — by design; the limit is
#: the serving-path backstop against memory abuse.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Most header lines one request may carry (the stdlib's cap as well).
#: One line is capped at the stream limit, 64 KiB.
MAX_HEADERS = 100

#: How long a drain waits for in-flight HTTP requests and worker exits
#: before escalating to cancellation / SIGKILL.
DRAIN_TIMEOUT = 30.0

#: Timeout for polling worker ``stats`` frames on ``/metrics`` — a
#: worker buried under a long batch answers late; the scrape must not
#: stall behind it.
STATS_TIMEOUT = 2.0

_JSON = "application/json; charset=utf-8"

_HTTP_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Content Too Large",
    414: "URI Too Long",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _error_body(message: str, fields: list[dict[str, str]] | None = None) -> dict:
    return {"error": {"message": message, "fields": fields or []}}


def _json_bytes(body: Any) -> bytes:
    return json.dumps(body, sort_keys=True).encode("utf-8")


class ShardUnavailable(Exception):
    """A request could not be served because its shard is gone."""

    def __init__(self, shard: int, reason: str):
        super().__init__(f"shard {shard} unavailable: {reason}")
        self.shard = shard
        self.reason = reason


class _WorkerError(Exception):
    """The worker answered an ``error`` frame (handler bug, not crash)."""


class _HttpError(Exception):
    """Abort the current request with this status and JSON body."""

    def __init__(self, status: int, body: dict[str, Any], *, close: bool = False):
        super().__init__(body.get("error", {}).get("message", ""))
        self.status = status
        self.body = body
        self.close = close


class _PendingCall:
    """One frame awaiting its response (and possibly one replay)."""

    __slots__ = ("future", "op", "payload", "replayed")

    def __init__(
        self, future: asyncio.Future, op: str, payload: Any, replayed: bool
    ):
        self.future = future
        self.op = op
        self.payload = payload
        self.replayed = replayed


class _WorkerHandle:
    """Front-end side of one shard worker process."""

    def __init__(self, frontend: "ShardedFrontend", index: int):
        self.frontend = frontend
        self.index = index
        self.state = "starting"  # starting | ok | restarting | dead
        self.restarts = 0
        self.proc: subprocess.Popen | None = None
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None
        self.pending: dict[int, _PendingCall] = {}
        self._next_seq = 0
        self._reader_task: asyncio.Task | None = None
        self._ready = asyncio.Event()
        self.draining = False

    @property
    def queue_depth(self) -> int:
        return len(self.pending)

    @property
    def pid(self) -> int | None:
        return self.proc.pid if self.proc is not None else None

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> None:
        """Spawn the worker process and wire its socketpair end in."""
        parent, child = socket.socketpair()
        child.set_inheritable(True)
        # `-c` rather than `-m repro.service.shard`: the package import
        # of `.shard` under runpy's __main__ execution trips a spurious
        # found-in-sys.modules RuntimeWarning on the worker's stderr.
        argv = [
            sys.executable,
            "-c",
            "from repro.service.shard import worker_main;"
            " raise SystemExit(worker_main())",
            "--fd",
            str(child.fileno()),
            "--shard",
            str(self.index),
            "--cache-size",
            str(self.frontend.cache_size),
        ]
        if self.frontend.backend is not None:
            argv += ["--backend", self.frontend.backend]
        if self.frontend.chaos:
            argv.append("--chaos")
        # The worker must import repro from the same tree the front end
        # runs from, installed or not.
        env = dict(os.environ)
        src_dir = str(Path(__file__).resolve().parent.parent.parent)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        # blocking Popen is confined to startup and crash-respawn; a
        # fork+exec pause there is accepted over the complexity of an
        # executor hop in the spawn path
        self.proc = subprocess.Popen(  # repro: noqa[REP012]
            argv, pass_fds=[child.fileno()], env=env
        )
        child.close()
        self.reader, self.writer = await asyncio.open_connection(sock=parent)
        self._reader_task = asyncio.ensure_future(self._read_loop())
        self.state = "ok"
        self._ready.set()

    async def _read_loop(self) -> None:
        """Resolve responses until the worker's end of the pair closes."""
        assert self.reader is not None
        try:
            while True:
                seq, status, result = await read_frame_async(self.reader)
                call = self.pending.pop(seq, None)
                if call is None or call.future.done():
                    continue
                if status == "ok":
                    call.future.set_result(result)
                else:
                    call.future.set_exception(_WorkerError(str(result)))
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            OSError,
        ):
            pass
        if self.draining:
            return
        await self._respawn()

    async def _respawn(self) -> None:
        """The crash-robustness path: new process, empty LRU, replay once."""
        self.state = "restarting"
        self._ready.clear()
        self.restarts += 1
        self.frontend.log(
            f"shard {self.index} worker died "
            f"(pid {self.pid}); respawning with an empty cache"
        )
        await self._reap(timeout=5.0)
        if self.writer is not None:
            self.writer.close()
        orphans = self.pending
        self.pending = {}
        try:
            await self.start()
        except OSError as exc:
            self.state = "dead"
            for call in orphans.values():
                if not call.future.done():
                    call.future.set_exception(
                        ShardUnavailable(self.index, f"respawn failed: {exc}")
                    )
            return
        replayed = 0
        for call in orphans.values():
            if call.future.done():
                continue
            if call.replayed:
                # Second death while holding this request: give up.
                call.future.set_exception(
                    ShardUnavailable(
                        self.index,
                        "worker died twice while processing this request",
                    )
                )
                continue
            call.replayed = True
            seq = self._next_seq
            self._next_seq += 1
            self.pending[seq] = call
            assert self.writer is not None
            self.writer.write(frame_bytes((call.op, seq, call.payload)))
            replayed += 1
        if replayed:
            self.frontend.log(
                f"shard {self.index}: replayed {replayed} in-flight frame(s)"
            )
            assert self.writer is not None
            try:
                await self.writer.drain()
            except (ConnectionError, OSError):
                pass  # the new worker died instantly; its reader loop handles it

    async def _reap(self, timeout: float) -> None:
        """Wait for the worker process, escalating to SIGKILL."""
        proc = self.proc
        if proc is None:
            return
        loop = asyncio.get_running_loop()
        try:
            await asyncio.wait_for(
                loop.run_in_executor(None, proc.wait), timeout
            )
        except asyncio.TimeoutError:
            proc.kill()
            await loop.run_in_executor(None, proc.wait)

    # -- calls --------------------------------------------------------------
    async def call(self, op: str, payload: Any) -> Any:
        """Send one frame; await (and possibly survive one replay of) it."""
        if self.state == "dead":
            raise ShardUnavailable(self.index, "worker is not running")
        await self._ready.wait()
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        seq = self._next_seq
        self._next_seq += 1
        self.pending[seq] = _PendingCall(future, op, payload, False)
        assert self.writer is not None
        try:
            self.writer.write(frame_bytes((op, seq, payload)))
            await self.writer.drain()
        except (ConnectionError, OSError):
            # The pipe broke under us; the reader loop is about to
            # notice and replay this pending frame on the new worker.
            pass
        return await future

    async def shutdown(self) -> None:
        """Drain: FIFO ``shutdown`` frame, then reap the process."""
        self.draining = True
        if self.state in ("ok", "starting") and self.writer is not None:
            try:
                await self.call("shutdown", None)
            except (ShardUnavailable, _WorkerError, ConnectionError, OSError):
                pass
            self.writer.close()
        await self._reap(timeout=DRAIN_TIMEOUT)
        if self._reader_task is not None:
            self._reader_task.cancel()
        self.state = "dead"

    def snapshot(self, stats: dict[str, Any] | None) -> dict[str, Any]:
        """Front-end view of this shard, for ``/healthz`` and ``/metrics``."""
        return {
            "shard": self.index,
            "state": self.state,
            "pid": self.pid,
            "restarts": self.restarts,
            "queue_depth": self.queue_depth,
            "stats": stats,
        }


class _InProcessShard:
    """``--workers 0``: one :class:`ShardCore` in the front end's process.

    Same ``call`` interface as a worker handle.  Each call runs in the
    loop's default executor: inline on the loop thread, one long miss
    or batch would block every other connection until it finished.
    """

    def __init__(self, core: ShardCore):
        self.core = core

    async def call(self, op: str, payload: Any) -> Any:
        evaluate = getattr(self.core, op)  # test | partition | batch
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, evaluate, payload)

    async def shutdown(self) -> None:
        return None


class _Conn:
    """One HTTP connection's drain-relevant state."""

    __slots__ = ("writer", "busy")

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.busy = False


@dataclass
class _Request:
    """One parsed request head plus the streams its body and an
    interim ``100 Continue`` travel on."""

    method: str
    target: str
    http10: bool
    headers: dict[str, str]
    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter

    @property
    def keep_alive(self) -> bool:
        connection = self.headers.get("connection", "").lower()
        if self.http10:
            return connection == "keep-alive"
        return connection != "close"


async def _read_line(reader: asyncio.StreamReader, status: int, what: str) -> bytes:
    """One CRLF line; a line over the stream limit becomes ``status``."""
    try:
        return await reader.readline()
    except ValueError:  # the separator was not found within the limit
        raise _HttpError(
            status, _error_body(f"{what} exceeds 65536 bytes"), close=True
        ) from None


async def _read_head(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> _Request | None:
    """Parse a request line and its headers; ``None`` at end of stream.

    Raises :class:`_HttpError` (always closing) for a malformed request
    line — the HTTP/0.9 form included — an overlong line, or more than
    :data:`MAX_HEADERS` header lines.
    """
    line = await _read_line(reader, 414, "request line")
    if not line.strip():
        return None
    words = line.decode("latin-1").split()
    if len(words) != 3 or not words[2].startswith("HTTP/1."):
        raise _HttpError(
            400,
            _error_body("malformed request line; expected 'METHOD /path HTTP/1.x'"),
            close=True,
        )
    method, target, version = words
    headers: dict[str, str] = {}
    count = 0
    while True:
        line = await _read_line(reader, 431, "header line")
        if line in (b"\r\n", b"\n", b""):
            break
        count += 1
        if count > MAX_HEADERS:
            raise _HttpError(
                431, _error_body(f"more than {MAX_HEADERS} header lines"), close=True
            )
        if b":" in line:
            key, _, value = line.decode("latin-1").partition(":")
            headers[key.strip().lower()] = value.strip()
    return _Request(
        method, target, version == "HTTP/1.0", headers, reader, writer
    )


async def _send(
    writer: asyncio.StreamWriter,
    status: int,
    body: bytes,
    content_type: str,
    connection: str | None,
) -> bool:
    """Write one response in one write; ``False`` if the client is gone."""
    reason = _HTTP_REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        + (f"Connection: {connection}\r\n" if connection else "")
        + "\r\n"
    )
    try:
        writer.write(head.encode("latin-1") + body)
        await writer.drain()
    except (ConnectionError, OSError):
        return False
    return True


class ShardedFrontend:
    """The service: one of these per listening address.

    ``workers=0`` runs one in-process shard (``jobs`` sizes its batch
    process pool); ``workers=N`` spawns N worker processes.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: int = 2,
        jobs: int = 1,
        cache_size: int = 1024,
        backend: str | None = None,
        chaos: bool = False,
        quiet: bool = True,
    ):
        if workers < 0:
            raise ValueError(f"workers must be non-negative, got {workers}")
        self.host = host
        self.port = port
        self.workers = workers
        self.cache_size = cache_size
        self.backend = backend
        self.chaos = chaos
        self.quiet = quiet
        #: the in-process shard's service (``workers=0`` only)
        self.service: FeasibilityService | None = None
        if workers == 0:
            self.service = FeasibilityService(
                jobs=jobs, cache_size=cache_size, backend=backend
            )
            self.metrics = self.service.metrics
        else:
            self.metrics = MetricsRegistry()
        self.handles: list[Any] = []
        self._server: asyncio.AbstractServer | None = None
        self._conns: set[_Conn] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._stopping = False
        self._started = time.monotonic()
        self.bound_port: int | None = None

    def log(self, message: str) -> None:
        if not self.quiet:
            print(f"repro.service.frontend: {message}", file=sys.stderr, flush=True)

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> None:
        """Start the shards and bind the listening socket."""
        self._started = time.monotonic()
        if self.service is not None:
            self.handles = [_InProcessShard(self.service.core)]
        else:
            self.handles = [
                _WorkerHandle(self, k) for k in range(self.workers)
            ]
            for handle in self.handles:
                await handle.start()
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port
        )
        self.bound_port = self._server.sockets[0].getsockname()[1]

    async def drain(self) -> None:
        """Graceful shutdown: HTTP first, then the shards."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
        # Idle keep-alive connections would wait forever for a next
        # request; close them.  Busy ones finish their response first.
        for conn in list(self._conns):
            if not conn.busy:
                conn.writer.close()
        if self._conn_tasks:
            done, stragglers = await asyncio.wait(
                self._conn_tasks, timeout=DRAIN_TIMEOUT
            )
            for task in stragglers:
                task.cancel()
        # Since Python 3.12 this also waits for every connection to
        # close, so it must come after the idle ones were closed.
        if self._server is not None:
            await self._server.wait_closed()
        await asyncio.gather(
            *(handle.shutdown() for handle in self.handles),
            return_exceptions=True,
        )

    # -- HTTP ---------------------------------------------------------------
    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Conn(writer)
        self._conns.add(conn)
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            await self._conn_loop(reader, writer, conn)
        finally:
            self._conns.discard(conn)
            writer.close()

    async def _conn_loop(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        conn: _Conn,
    ) -> None:
        while not self._stopping:
            try:
                request = await _read_head(reader, writer)
            except _HttpError as exc:
                await _send(writer, exc.status, _json_bytes(exc.body), _JSON, "close")
                return
            except (ConnectionError, OSError):
                return
            if request is None:
                return
            conn.busy = True
            try:
                status, body_bytes, content_type, close = await self._serve_one(
                    request
                )
            finally:
                conn.busy = False
            close = close or not request.keep_alive or self._stopping
            if close:
                connection = "close"
            else:
                connection = "keep-alive" if request.http10 else None
            if not await _send(writer, status, body_bytes, content_type, connection):
                return
            if not self.quiet:
                self.log(
                    f"{writer.get_extra_info('peername')} - "
                    f'"{request.method} {request.target}" {status}'
                )
            if close:
                return

    async def _serve_one(self, request: _Request) -> tuple[int, bytes, str, bool]:
        """One request → (status, body, content type, close?)."""
        path, _, query = request.target.partition("?")
        t0 = time.perf_counter()
        status = 500
        close = False
        body: bytes = b""
        content_type = _JSON
        try:
            status, payload, content_type = await self._route(
                request, path, query
            )
            body = payload if isinstance(payload, bytes) else _json_bytes(payload)
        except ValidationError as exc:
            status = 400
            body = _json_bytes(exc.as_dict())
        except ShardUnavailable as exc:
            status = 503
            body = _json_bytes(_error_body(str(exc)))
        except _HttpError as exc:
            status = exc.status
            close = exc.close
            body = _json_bytes(exc.body)
        except (asyncio.IncompleteReadError, ConnectionError):
            # Client hung up mid-body.
            status = 499
            close = True
            body = b""
        except Exception:
            # Never leak a traceback to the client.
            self.log(
                f"unhandled error on {path}:\n{traceback.format_exc()}"
            )
            status = 500
            body = _json_bytes(_error_body("internal server error"))
        finally:
            self.metrics.observe(path, status, time.perf_counter() - t0)
        return status, body, content_type, close

    async def _read_body(self, request: _Request) -> Any:
        try:
            length = int(request.headers.get("content-length", ""))
        except ValueError:
            raise _HttpError(
                411, _error_body("Content-Length header is required"), close=True
            ) from None
        if length < 0:
            raise _HttpError(
                400,
                _error_body("Content-Length must be a non-negative integer"),
                close=True,
            )
        if length > MAX_BODY_BYTES:
            raise _HttpError(
                413,
                _error_body(f"request body exceeds {MAX_BODY_BYTES} bytes"),
                close=True,
            )
        expect = request.headers.get("expect", "").lower()
        if expect == "100-continue" and not request.http10:
            request.writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            await request.writer.drain()
        raw = await request.reader.readexactly(length)
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise _HttpError(
                400, _error_body(f"request body is not valid JSON: {exc}")
            ) from None

    async def _route(
        self, request: _Request, path: str, query: str
    ) -> tuple[int, Any, str]:
        post_routes: dict[str, Callable[[Any], Awaitable[Any]]] = {
            "/v1/test": self._handle_test,
            "/v1/partition": self._handle_partition,
            "/v1/batch": self._handle_batch,
        }
        get_paths = ("/healthz", "/metrics")
        known = list(get_paths) + list(post_routes)
        if request.method == "POST":
            handler = post_routes.get(path)
            if handler is None:
                if path in get_paths:
                    raise _HttpError(
                        405, _error_body("method not allowed; use GET"), close=True
                    )
                raise _not_found(known)
            payload = await self._read_body(request)
            return 200, await handler(payload), _JSON
        if request.method == "GET":
            if path not in get_paths:
                if path in post_routes:
                    raise _HttpError(
                        405, _error_body("method not allowed; use POST"), close=True
                    )
                raise _not_found(known)
            if path == "/healthz":
                return 200, self._handle_healthz(), _JSON
            fmt = "json"
            for part in query.split("&"):
                if part.startswith("format="):
                    fmt = part[len("format="):]
            if fmt == "prometheus":
                text = await self._metrics_prometheus()
                return 200, text.encode("utf-8"), "text/plain; version=0.0.4; charset=utf-8"
            if fmt != "json":
                raise _HttpError(
                    400, _error_body("format must be 'json' or 'prometheus'")
                )
            return 200, await self._metrics_json(), _JSON
        raise _HttpError(
            405, _error_body("method not allowed; use GET or POST"), close=True
        )

    # -- verdict endpoints --------------------------------------------------
    def _shard_index(self, digest: str) -> int:
        return shard_for_digest(digest, len(self.handles))

    async def _handle_test(self, payload: Any) -> dict[str, Any]:
        unit = parse_test_unit(payload)
        shard = self.handles[self._shard_index(unit.digest)]
        return respond_test(unit, await shard.call("test", unit))

    async def _handle_partition(self, payload: Any) -> dict[str, Any]:
        unit = parse_partition_unit(payload)
        shard = self.handles[self._shard_index(unit.digest)]
        return respond_partition(unit, await shard.call("partition", unit))

    async def _handle_batch(self, payload: Any) -> dict[str, Any]:
        """Split by shard, fan out concurrently, reassemble positionally."""
        units = parse_batch_units(payload)
        by_shard: dict[int, list[int]] = {}
        for k, unit in enumerate(units):
            by_shard.setdefault(self._shard_index(unit.digest), []).append(k)
        shard_ids = sorted(by_shard)
        sub_results = await asyncio.gather(
            *(
                self.handles[s].call("batch", [units[k] for k in by_shard[s]])
                for s in shard_ids
            )
        )
        outcomes: list[Any] = [None] * len(units)
        for s, result in zip(shard_ids, sub_results):
            for k, outcome in zip(by_shard[s], result):
                outcomes[k] = outcome
        return respond_batch(units, outcomes)

    # -- observability endpoints --------------------------------------------
    def _handle_healthz(self) -> dict[str, Any]:
        """Aggregate health: degraded when any worker is dead or restarting."""
        if self.service is not None:
            return self.service.handle_healthz()
        shards = [h.snapshot(None) for h in self.handles]
        for s in shards:
            s.pop("stats")
        degraded = any(h.state != "ok" for h in self.handles)
        return {
            "status": "degraded" if degraded else "ok",
            "version": __version__,
            "uptime_seconds": time.monotonic() - self._started,
            "architecture": "sharded",
            "workers": self.workers,
            "backend": self.backend or "scalar",
            "cache_size_per_worker": self.cache_size,
            "shards": shards,
        }

    async def _poll_shards(self) -> list[dict[str, Any]]:
        """Worker stats snapshots; a stuck or dead worker yields ``None``."""

        async def poll(handle: _WorkerHandle) -> dict[str, Any] | None:
            if handle.state != "ok":
                return None
            try:
                return await asyncio.wait_for(
                    handle.call("stats", None), STATS_TIMEOUT
                )
            except (
                asyncio.TimeoutError,
                ShardUnavailable,
                _WorkerError,
                ConnectionError,
                OSError,
            ):
                return None

        stats = await asyncio.gather(*(poll(h) for h in self.handles))
        return [h.snapshot(s) for h, s in zip(self.handles, stats)]

    async def _metrics_json(self) -> dict[str, Any]:
        if self.service is not None:
            return self.service.metrics_json()
        return {
            "frontend": self.metrics.as_dict(),
            "uptime_seconds": time.monotonic() - self._started,
            "workers": self.workers,
            "restarts_total": sum(h.restarts for h in self.handles),
            "shards": await self._poll_shards(),
        }

    async def _metrics_prometheus(self) -> str:
        if self.service is not None:
            return self.service.metrics_prometheus()
        return self.metrics.render_prometheus() + render_shard_prometheus(
            await self._poll_shards()
        )


def _not_found(known: list[str]) -> _HttpError:
    return _HttpError(
        404,
        _error_body(f"unknown endpoint; known endpoints: {known}"),
        close=True,
    )


def serve_sharded(
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    workers: int = 0,
    jobs: int = 1,
    cache_size: int = 1024,
    backend: str | None = None,
    chaos: bool = False,
    quiet: bool = True,
) -> int:
    """Run the front end until SIGTERM/SIGINT, drain, exit 0."""

    async def main() -> int:
        frontend = ShardedFrontend(
            host,
            port,
            workers=workers,
            jobs=jobs,
            cache_size=cache_size,
            backend=backend,
            chaos=chaos,
            quiet=quiet,
        )
        await frontend.start()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, stop.set)
        shards = f"jobs={jobs}" if workers == 0 else f"workers={workers}"
        print(
            f"repro.service listening on "
            f"http://{host}:{frontend.bound_port} "
            f"({shards}, cache_size={cache_size}, "
            f"backend={backend or 'scalar'})",
            file=sys.stderr,
            flush=True,
        )
        await stop.wait()
        print(
            "repro.service shutting down: draining in-flight requests...",
            file=sys.stderr,
            flush=True,
        )
        await frontend.drain()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.remove_signal_handler(sig)
        print("repro.service stopped", file=sys.stderr, flush=True)
        return 0

    return asyncio.run(main())
