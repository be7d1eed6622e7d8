"""Online feasibility-query serving.

The batch CLI answers one instance per process; this package serves the
paper's Theorem I.1–I.4 verdicts (plus raw first-fit partitions) over
HTTP from a long-lived process with canonical-instance caching and
request-level metrics:

* :class:`~repro.service.app.FeasibilityService` — transport-free logic,
  and the one copy of the payload → unit and outcome → response code;
* :mod:`~repro.service.frontend` — the asyncio HTTP front end, the only
  HTTP stack (``repro serve`` on the CLI): one in-process shard by
  default (``--workers 0``), whose evaluations run off the event loop;
* :mod:`~repro.service.shard` / :mod:`~repro.service.protocol` — the
  worker processes of ``repro serve --workers N``: digest-routed, each
  owning a private verdict LRU, with responses byte-identical to the
  in-process shard's;
* :class:`~repro.service.client.ServiceClient` — stdlib client wrapper;
* :mod:`~repro.service.cache` / :mod:`~repro.service.metrics` /
  :mod:`~repro.service.validation` — the supporting pieces.

Endpoints: ``POST /v1/test``, ``POST /v1/partition``, ``POST /v1/batch``,
``GET /healthz``, ``GET /metrics`` (JSON or ``?format=prometheus``).
See ``docs/api.md`` ("Serving") for payload schemas.
"""

from .app import FeasibilityService
from .cache import CacheStats, LRUCache
from .client import ServiceClient, ServiceError
from .frontend import ShardedFrontend, serve_sharded
from .metrics import MetricsRegistry
from .shard import ShardCore
from .validation import (
    FieldError,
    PartitionQuery,
    TestQuery,
    ValidationError,
    parse_batch_request,
    parse_partition_request,
    parse_test_request,
)

__all__ = [
    "FeasibilityService",
    "CacheStats",
    "LRUCache",
    "ServiceClient",
    "ServiceError",
    "MetricsRegistry",
    "ShardCore",
    "ShardedFrontend",
    "serve_sharded",
    "FieldError",
    "PartitionQuery",
    "TestQuery",
    "ValidationError",
    "parse_batch_request",
    "parse_partition_request",
    "parse_test_request",
]
