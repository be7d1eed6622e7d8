"""The ``repro serve`` front end on a background event-loop thread.

Tests that need a live server in their own process (to monkeypatch the
in-process shard, or to count its writes) start one with
``LiveServer(**ShardedFrontend kwargs)``; ``workers`` defaults to 0,
the in-process shard that ``repro serve`` runs by default.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
from typing import Any

from repro.service.frontend import ShardedFrontend


class LiveServer:
    """A started front end on an ephemeral port; ``close()`` drains it."""

    def __init__(self, frontend_cls: type = ShardedFrontend, **kwargs: Any):
        kwargs.setdefault("workers", 0)
        self.frontend = frontend_cls(port=0, **kwargs)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        self._run(self.frontend.start())
        self.host = "127.0.0.1"
        self.port = self.frontend.bound_port
        self.url = f"http://{self.host}:{self.port}"

    def _run(self, coro: Any) -> Any:
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(60)

    def start_drain(self) -> concurrent.futures.Future:
        """Begin a graceful drain without waiting for it."""
        return asyncio.run_coroutine_threadsafe(self.frontend.drain(), self.loop)

    def close(self) -> None:
        if self.loop.is_closed():
            return
        self._run(self.frontend.drain())
        self._run(self.loop.shutdown_default_executor())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.loop.close()

    def __enter__(self) -> "LiveServer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
