"""Transport-independent service logic: parse → canonicalize → cache → answer.

The HTTP front end (:mod:`repro.service.frontend`) and
:class:`FeasibilityService` share one copy of the request and response
code: :func:`parse_test_unit` / :func:`parse_partition_unit` /
:func:`parse_batch_units` turn a decoded payload into the units a
:class:`~repro.service.shard.ShardCore` evaluates, and
:func:`respond_test` / :func:`respond_partition` / :func:`respond_batch`
turn its canonical outcomes back into response dicts in the client's
submission order.  Everything here is unit-testable without a socket.

Canonical-instance caching
--------------------------
Verdicts are cached under :func:`repro.io_.serialize.instance_digest`,
which is invariant under task/machine permutation and renaming.  To make
the cached value reusable across permutations, the verdict is *computed
on the canonical instance* (tasks sorted into canonical order) and
stored in canonical terms; each response then remaps task indices back
to the submitting client's order.  Machine indices never need remapping:
:class:`~repro.core.model.Platform` stores machines speed-sorted, so the
canonical machine order and any submission's internal order coincide.

Because the canonical task order sorts by utilization descending — the
exact order §III first-fit processes tasks in — the canonical run
performs the same admission probes as a direct call on the submitted
instance, and (absent exact utilization ties) the remapped response is
byte-identical to that direct call.
"""

from __future__ import annotations

import copy
import time
from typing import Any

from .. import __version__
from ..io_.serialize import canonical_task_order
from .metrics import MetricsRegistry
from .protocol import PartitionUnit, TestUnit
from .shard import ShardCore, partition_query_digest, test_query_digest
from .validation import (
    TestQuery,
    parse_batch_request,
    parse_partition_request,
    parse_test_request,
)

__all__ = [
    "FeasibilityService",
    "parse_batch_units",
    "parse_partition_unit",
    "parse_test_unit",
    "respond_batch",
    "respond_partition",
    "respond_test",
]

#: What a shard returns per unit: the canonical dict and its cache flag.
Outcome = tuple[dict[str, Any], bool]


def _remap_partition_dict(
    canon: dict[str, Any], order: tuple[int, ...]
) -> dict[str, Any]:
    """Translate a canonical-order partition dict to submission order.

    ``order[k]`` is the submitted index of the task at canonical
    position ``k``.  Machine indices are already canonical (speed-sorted)
    in both views and pass through unchanged.
    """
    out = dict(canon)
    assignment: list[int | None] = [None] * len(order)
    for k, machine in enumerate(canon["assignment"]):
        assignment[order[k]] = machine
    out["assignment"] = assignment
    out["machine_tasks"] = [
        [order[k] for k in tasks] for tasks in canon["machine_tasks"]
    ]
    out["order"] = [order[k] for k in canon["order"]]
    failed = canon["failed_task"]
    out["failed_task"] = order[failed] if failed is not None else None
    return out


def _remap_report_dict(
    canon: dict[str, Any], order: tuple[int, ...]
) -> dict[str, Any]:
    """Translate a canonical-order report dict to submission order."""
    out = dict(canon)
    out["partition"] = _remap_partition_dict(canon["partition"], order)
    # Certificate fields are scalars and machine indices — order-free —
    # but copy so callers can never alias the cached payload.
    if canon.get("certificate") is not None:
        out["certificate"] = copy.deepcopy(canon["certificate"])
    return out


def _test_unit(q: TestQuery) -> TestUnit:
    digest, _ = test_query_digest(q)
    return TestUnit(
        digest=digest,
        taskset=q.taskset,
        order=tuple(canonical_task_order(q.taskset)),
        platform=q.platform,
        scheduler=q.scheduler,
        adversary=q.adversary,
        alpha=q.alpha,
    )


def parse_test_unit(payload: Any) -> TestUnit:
    """A ``/v1/test`` payload as the unit a shard evaluates.

    The unit carries the cache digest and the canonical task ``order``
    the response is remapped with.
    """
    return _test_unit(parse_test_request(payload))


def parse_partition_unit(payload: Any) -> PartitionUnit:
    """A ``/v1/partition`` payload as the unit a shard evaluates."""
    q = parse_partition_request(payload)
    return PartitionUnit(
        digest=partition_query_digest(q),
        taskset=q.taskset,
        order=tuple(canonical_task_order(q.taskset)),
        platform=q.platform,
        test=q.test,
        alpha=q.alpha,
    )


def parse_batch_units(payload: Any) -> list[TestUnit]:
    """A ``/v1/batch`` payload as test units, in submission order."""
    return [_test_unit(q) for q in parse_batch_request(payload)]


def respond_test(unit: TestUnit, outcome: Outcome) -> dict[str, Any]:
    """The ``/v1/test`` response for ``unit``, in submission order."""
    canon, cached = outcome
    return {
        "digest": unit.digest,
        "cached": cached,
        "report": _remap_report_dict(canon, unit.order),
    }


def respond_partition(unit: PartitionUnit, outcome: Outcome) -> dict[str, Any]:
    """The ``/v1/partition`` response for ``unit``, in submission order."""
    canon, cached = outcome
    return {
        "digest": unit.digest,
        "cached": cached,
        "result": _remap_partition_dict(canon, unit.order),
    }


def respond_batch(
    units: list[TestUnit], outcomes: list[Outcome]
) -> dict[str, Any]:
    """The ``/v1/batch`` response; ``outcomes`` align with ``units``."""
    return {
        "count": len(units),
        "cached": sum(1 for _, cached in outcomes if cached),
        "results": [
            respond_test(unit, outcome)
            for unit, outcome in zip(units, outcomes)
        ],
    }


class FeasibilityService:
    """The feasibility-query service: endpoints as plain methods.

    Every ``handle_*`` method takes a decoded JSON payload and returns a
    JSON-ready dict, raising
    :class:`~repro.service.validation.ValidationError` on bad input.
    Thread-safe: the cache and metrics use their own locks and the
    feasibility tests are pure functions of their arguments.

    All evaluation and caching lives in :class:`~repro.service.shard.ShardCore`
    — the same engine every shard of the HTTP front end
    (:mod:`repro.service.frontend`) runs — and the payload and response
    code is the module-level helpers the front end uses too, so this
    class and the server cannot drift apart on a verdict byte.  The
    front end's in-process shard (``repro serve --workers 0``) is one
    of these: it evaluates through :attr:`core` and answers ``/healthz``
    and ``/metrics`` from :meth:`handle_healthz`, :meth:`metrics_json`
    and :meth:`metrics_prometheus`.
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        cache_size: int = 1024,
        backend: str | None = None,
    ):
        """``backend`` selects the evaluation path for cache misses.

        ``None`` (the default) keeps the legacy scalar path and a
        byte-identical response schema; an explicit ``scalar`` /
        ``kernel`` / ``numpy`` routes verdicts through
        :func:`repro.kernels.test_feasibility_batch` — ``/v1/batch``
        misses become one kernel call per theorem config — and stamps
        each computed report with a ``backend`` provenance key (the
        verdicts themselves are bit-identical across backends).
        """
        self.metrics = MetricsRegistry()
        self.core = ShardCore(
            cache_size=cache_size,
            backend=backend,
            jobs=jobs,
            on_backend=self.metrics.observe_backend,
        )
        self._started = time.monotonic()

    # -- endpoints ----------------------------------------------------------
    def handle_test(self, payload: Any) -> dict[str, Any]:
        """``POST /v1/test`` — one per-theorem verdict, cached."""
        unit = parse_test_unit(payload)
        return respond_test(unit, self.core.test(unit))

    def handle_partition(self, payload: Any) -> dict[str, Any]:
        """``POST /v1/partition`` — a first-fit assignment, cached."""
        unit = parse_partition_unit(payload)
        return respond_partition(unit, self.core.partition(unit))

    def handle_batch(self, payload: Any) -> dict[str, Any]:
        """``POST /v1/batch`` — many verdicts, cache-aware, pool-dispatched.

        Cache hits are answered inline; the misses fan out through
        :func:`repro.runner.run_trials` (in-process at ``jobs=1``, a
        process pool otherwise) and are cached for the next caller.
        Results come back in submission order regardless of ``jobs``.
        """
        units = parse_batch_units(payload)
        return respond_batch(units, self.core.batch(units))

    def handle_healthz(self) -> dict[str, Any]:
        """``GET /healthz`` — liveness plus basic identity."""
        return {
            "status": "ok",
            "version": __version__,
            "uptime_seconds": time.monotonic() - self._started,
            "jobs": self.core.jobs,
            "backend": self.core.backend or "scalar",
            "cache": self.core.cache.stats().as_dict(),
        }

    def metrics_json(self) -> dict[str, Any]:
        """``GET /metrics`` (JSON rendering)."""
        out = self.metrics.as_dict(self.core.cache.stats())
        out["uptime_seconds"] = time.monotonic() - self._started
        return out

    def metrics_prometheus(self) -> str:
        """``GET /metrics?format=prometheus`` (text exposition)."""
        return self.metrics.render_prometheus(self.core.cache.stats())
