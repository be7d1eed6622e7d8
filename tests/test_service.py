"""Live-server tests for the feasibility-query service.

The ``repro serve`` front end with its default in-process shard, on an
ephemeral port, exercised through ``ServiceClient`` and raw sockets:
correctness-vs-direct-call equivalence, canonical-instance cache
behaviour, concurrent clients, structured error paths, metrics,
transport (one write per response on a ``TCP_NODELAY`` socket), HTTP
edge cases (HTTP/1.0, ``Expect: 100-continue``, header limits,
malformed request lines), evaluation off the event loop, and graceful
shutdown.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.feasibility import feasibility_test
from repro.core.model import Platform, Task, TaskSet
from repro.core.partition import first_fit_partition
from repro.io_.serialize import (
    instance_digest,
    partition_result_to_dict,
    platform_to_dict,
    report_to_dict,
    taskset_to_dict,
)
from repro.service import LRUCache, ServiceClient, ServiceError, ShardCore
from repro.service.frontend import MAX_BODY_BYTES, MAX_HEADERS, ShardedFrontend
from repro.workloads.builder import generate_taskset
from repro.workloads.platforms import geometric_platform
from tests.live_server import LiveServer


def _instance(seed: int, n: int = 12, stress: float = 0.9):
    rng = np.random.default_rng(seed)
    platform = geometric_platform(4, 8.0)
    taskset = generate_taskset(
        rng, n, stress * platform.total_speed, u_max=platform.fastest_speed
    )
    return taskset, platform


def _rejected_instance():
    """Overloaded by construction: 5 x utilization 0.9 on two unit machines
    exceeds even alpha=2 aggregate capacity, so every theorem test rejects."""
    taskset = TaskSet([Task(wcet=9, period=10) for _ in range(5)])
    platform = Platform.from_speeds([1.0, 1.0])
    return taskset, platform


@pytest.fixture(scope="module")
def server():
    with LiveServer(jobs=1, cache_size=256) as srv:
        yield srv


@pytest.fixture(scope="module")
def base_url(server):
    return server.url


@pytest.fixture(scope="module")
def client(base_url):
    return ServiceClient(base_url, timeout=30.0)


def _raw_post(base_url: str, path: str, body: bytes):
    request = urllib.request.Request(
        base_url + path,
        data=body,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestHealth:
    def test_healthz(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["version"] == repro.__version__
        assert health["uptime_seconds"] >= 0
        assert health["cache"]["capacity"] == 256


class TestEquivalence:
    """Acceptance: /v1/test responses byte-identical to direct calls."""

    @pytest.mark.parametrize("scheduler", ["edf", "rms"])
    @pytest.mark.parametrize("adversary", ["partitioned", "any"])
    def test_all_theorems_match_direct_call(self, client, scheduler, adversary):
        for seed in range(5):
            taskset, platform = _instance(seed)
            direct = report_to_dict(
                feasibility_test(taskset, platform, scheduler, adversary)
            )
            response = client.test(taskset, platform, scheduler, adversary)
            assert response["report"] == direct

    def test_rejection_with_certificate_matches(self, client):
        taskset, platform = _rejected_instance()
        direct = report_to_dict(feasibility_test(taskset, platform))
        response = client.test(taskset, platform)
        assert not direct["accepted"]
        assert response["report"] == direct
        assert response["report"]["certificate"]["certifies"]

    def test_alpha_override_matches(self, client):
        taskset, platform = _instance(11, stress=1.05)
        direct = report_to_dict(
            feasibility_test(taskset, platform, alpha=1.0)
        )
        response = client.test(taskset, platform, alpha=1.0)
        assert response["report"] == direct

    def test_client_report_equals_direct_object(self, client):
        taskset, platform = _instance(3)
        assert client.test_report(taskset, platform) == feasibility_test(
            taskset, platform
        )


class TestCache:
    """Acceptance: repeated queries hit the cache, verdict unchanged."""

    def test_repeat_query_is_cached(self, client):
        taskset, platform = _instance(100)
        hits_before = client.health()["cache"]["hits"]
        first = client.test(taskset, platform)
        second = client.test(taskset, platform)
        assert first["cached"] is False
        assert second["cached"] is True
        assert second["report"] == first["report"]
        assert second["digest"] == first["digest"]
        assert client.health()["cache"]["hits"] > hits_before

    def test_task_permutation_hits_cache_with_correct_indices(self, client):
        taskset, platform = _instance(101)
        first = client.test(taskset, platform)
        permuted = taskset.subset(list(range(len(taskset)))[::-1])
        response = client.test(permuted, platform)
        assert response["digest"] == first["digest"]
        assert response["cached"] is True
        # the remapped response equals a direct call on the permuted order
        assert response["report"] == report_to_dict(
            feasibility_test(permuted, platform)
        )

    def test_machine_permutation_and_names_hit_cache(self, client):
        taskset, platform = _instance(102)
        first = client.test(taskset, platform)
        renamed = Platform.from_speeds(list(platform.speeds)[::-1])
        response = client.test(taskset, renamed)
        assert response["digest"] == first["digest"]
        assert response["cached"] is True
        assert response["report"] == first["report"]

    def test_default_and_explicit_theorem_alpha_share_entry(self, client):
        taskset, platform = _instance(103)
        first = client.test(taskset, platform, "edf", "partitioned")
        second = client.test(taskset, platform, "edf", "partitioned", alpha=2.0)
        assert second["digest"] == first["digest"]
        assert second["cached"] is True

    def test_different_query_different_entry(self, client):
        taskset, platform = _instance(104)
        edf = client.test(taskset, platform, "edf")
        rms = client.test(taskset, platform, "rms")
        assert edf["digest"] != rms["digest"]
        assert rms["cached"] is False


class TestPartition:
    def test_matches_direct_first_fit(self, client):
        taskset, platform = _instance(7)
        for test, alpha in (("edf", 1.0), ("edf", 2.0), ("rms-ll", 2.5)):
            direct = partition_result_to_dict(
                first_fit_partition(taskset, platform, test, alpha=alpha)
            )
            response = client.partition(taskset, platform, test, alpha=alpha)
            assert response["result"] == direct

    def test_constrained_deadlines_allowed(self, client):
        taskset = TaskSet(
            [Task(wcet=1, period=10, deadline=4), Task(wcet=2, period=8)]
        )
        platform = Platform.from_speeds([1.0, 2.0])
        direct = partition_result_to_dict(
            first_fit_partition(taskset, platform, "edf-dbf", alpha=1.0)
        )
        response = client.partition(taskset, platform, "edf-dbf")
        assert response["result"] == direct

    def test_partition_cached_on_repeat(self, client):
        taskset, platform = _instance(8)
        first = client.partition(taskset, platform, "edf", alpha=1.5)
        second = client.partition(taskset, platform, "edf", alpha=1.5)
        assert first["cached"] is False
        assert second["cached"] is True
        assert second["result"] == first["result"]


class TestBatch:
    def test_batch_matches_individual_direct_calls(self, client):
        pairs = [_instance(200 + k) for k in range(6)]
        response = client.batch(pairs)
        assert response["count"] == 6
        assert len(response["results"]) == 6
        for (taskset, platform), item in zip(pairs, response["results"]):
            assert item["report"] == report_to_dict(
                feasibility_test(taskset, platform)
            )
            assert item["digest"] == instance_digest(
                taskset,
                platform,
                query={
                    "kind": "test",
                    "scheduler": "edf",
                    "adversary": "partitioned",
                    "alpha": 2.0,
                },
            )

    def test_batch_reuses_cache(self, client):
        pairs = [_instance(300 + k) for k in range(3)]
        first = client.batch(pairs)
        second = client.batch(pairs)
        assert first["cached"] == 0
        assert second["cached"] == 3
        assert [r["report"] for r in second["results"]] == [
            r["report"] for r in first["results"]
        ]

    def test_batch_deduplicates_permutations(self, client):
        taskset, platform = _instance(400)
        permuted = taskset.subset(list(range(len(taskset)))[::-1])
        response = client.batch([(taskset, platform), (permuted, platform)])
        assert response["results"][0]["digest"] == response["results"][1]["digest"]
        assert response["results"][1]["report"] == report_to_dict(
            feasibility_test(permuted, platform)
        )


class TestConcurrency:
    """Acceptance: 8 concurrent clients on /v1/batch, no corruption."""

    def test_eight_concurrent_batch_clients(self, base_url):
        n_clients = 8
        shared = [_instance(500 + k) for k in range(3)]
        per_client = {
            c: shared + [_instance(600 + 10 * c + k) for k in range(3)]
            for c in range(n_clients)
        }
        expected = {
            c: [
                report_to_dict(feasibility_test(ts, pf))
                for ts, pf in pairs
            ]
            for c, pairs in per_client.items()
        }

        def hammer(c: int):
            local_client = ServiceClient(base_url, timeout=60.0)
            out = []
            for _ in range(3):
                response = local_client.batch(per_client[c])
                out.append([item["report"] for item in response["results"]])
            return out

        with ThreadPoolExecutor(max_workers=n_clients) as pool:
            results = list(pool.map(hammer, range(n_clients)))
        for c, rounds in enumerate(results):
            for reports in rounds:
                assert reports == expected[c]


class TestErrors:
    def test_malformed_json(self, base_url):
        status, body = _raw_post(base_url, "/v1/test", b"{not json")
        assert status == 400
        assert "not valid JSON" in body["error"]["message"]

    def test_non_object_body(self, base_url):
        status, body = _raw_post(base_url, "/v1/test", b"[1, 2, 3]")
        assert status == 400
        assert body["error"]["fields"]

    def test_field_level_errors(self, base_url):
        payload = {
            "taskset": {"tasks": [{"wcet": -1, "period": 5}, {"wcet": 1}]},
            "platform": {"machines": [{"speed": 0}]},
            "scheduler": "fifo",
        }
        status, body = _raw_post(
            base_url, "/v1/test", json.dumps(payload).encode()
        )
        assert status == 400
        fields = {e["field"] for e in body["error"]["fields"]}
        assert "taskset.tasks[0].wcet" in fields
        assert "taskset.tasks[1].period" in fields
        assert "platform.machines[0].speed" in fields
        assert "scheduler" in fields

    def test_constrained_deadline_rejected_on_test(self, base_url):
        payload = {
            "taskset": {"tasks": [{"wcet": 1, "period": 10, "deadline": 4}]},
            "platform": {"machines": [{"speed": 1.0}]},
        }
        status, body = _raw_post(
            base_url, "/v1/test", json.dumps(payload).encode()
        )
        assert status == 400
        assert any(
            "implicit deadlines" in e["message"] for e in body["error"]["fields"]
        )

    def test_batch_item_errors_are_indexed(self, base_url):
        good = {
            "taskset": {"tasks": [{"wcet": 1, "period": 10}]},
            "platform": {"machines": [{"speed": 1.0}]},
        }
        bad = {
            "taskset": {"tasks": [{"wcet": "x", "period": 10}]},
            "platform": {"machines": [{"speed": 1.0}]},
        }
        status, body = _raw_post(
            base_url,
            "/v1/batch",
            json.dumps({"instances": [good, bad]}).encode(),
        )
        assert status == 400
        fields = {e["field"] for e in body["error"]["fields"]}
        assert "instances[1].taskset.tasks[0].wcet" in fields

    def test_unknown_endpoint_404(self, base_url):
        status, body = _raw_post(base_url, "/v1/nope", b"{}")
        assert status == 404
        assert "unknown endpoint" in body["error"]["message"]

    def test_wrong_method_405(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(base_url + "/v1/test", timeout=10)
        assert exc_info.value.code == 405

    def test_bad_metrics_format_400(self, client):
        with pytest.raises(ServiceError) as exc_info:
            client.metrics("xml")
        assert exc_info.value.status == 400

    def test_client_error_carries_fields(self, base_url):
        bad_client = ServiceClient(base_url)
        taskset, platform = _instance(2)
        with pytest.raises(ServiceError) as exc_info:
            bad_client.test(taskset, platform, scheduler="bogus")
        assert exc_info.value.status == 400
        assert any(e["field"] == "scheduler" for e in exc_info.value.fields)


def _instance_body(seed: int) -> dict:
    taskset, platform = _instance(seed)
    return {
        "taskset": taskset_to_dict(taskset),
        "platform": platform_to_dict(platform),
    }


def _http_request(
    method: str, path: str, body: bytes | None = None, *headers: str
) -> bytes:
    """Raw HTTP/1.1 request bytes; ``body`` gets a matching Content-Length."""
    lines = [f"{method} {path} HTTP/1.1", "Host: localhost", *headers]
    if body is not None:
        lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + (body or b"")


def _read_response(reader) -> tuple[int, bytes]:
    """Read one response (status line, headers, Content-Length body)."""
    status = int(reader.readline().split()[1])
    length = 0
    while (line := reader.readline()) not in (b"\r\n", b""):
        key, _, value = line.partition(b":")
        if key.strip().lower() == b"content-length":
            length = int(value)
    return status, reader.read(length)


def _recv_all(sock) -> bytes:
    """Everything the server sends until it closes the connection.

    A server that closes with request bytes still unread (an oversized
    header, say) makes the kernel send a reset after the response; the
    response has arrived by then, so a reset ends the read like EOF.
    """
    received = b""
    try:
        while chunk := sock.recv(65536):
            received += chunk
    except ConnectionResetError:
        pass
    return received


def _split_response(raw: bytes) -> tuple[int, dict[str, str], bytes]:
    """Status, lower-cased headers and body of one raw response."""
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    return int(lines[0].split()[1]), headers, body


class _CountingFrontend(ShardedFrontend):
    """Logs, per connection, the writes and the socket's TCP_NODELAY."""

    connections: list[tuple[int, list[bytes]]]

    async def _handle_conn(self, reader, writer):
        writes: list[bytes] = []
        nodelay = writer.get_extra_info("socket").getsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY
        )
        self.connections.append((nodelay, writes))
        write = writer.write

        def counting_write(data) -> None:
            writes.append(bytes(data))
            write(data)

        writer.write = counting_write
        await super()._handle_conn(reader, writer)


class TestTransport:
    """Each response the server emits leaves in one write on a socket
    with Nagle off, so no response waits on the client's delayed ACK."""

    @pytest.fixture(scope="class")
    def counting_server(self):
        with LiveServer(_CountingFrontend, jobs=1, cache_size=64) as srv:
            srv.frontend.connections = []
            yield srv

    def _exchange(self, srv, request: bytes) -> bytes:
        """One request on a fresh connection that the server closes after
        the response; asserts it arrived in one write and returns it."""
        connections = srv.frontend.connections
        before = len(connections)
        with socket.create_connection((srv.host, srv.port), timeout=30) as sock:
            sock.sendall(request)
            received = _recv_all(sock)
        assert len(connections) == before + 1
        nodelay, writes = connections[-1]
        assert nodelay, "accepted socket must have TCP_NODELAY set"
        assert len(writes) == 1, [len(w) for w in writes]
        assert writes[0] == received
        return received

    def test_every_handler_response_is_one_write(self, counting_server, monkeypatch):
        body = _instance_body(21)
        partition = {**body, "test": "edf", "alpha": 2.0}
        batch = {"instances": [body, _instance_body(22)]}
        close = "Connection: close"
        cases = [
            (200, _http_request("POST", "/v1/test", json.dumps(body).encode(), close)),
            (200, _http_request("POST", "/v1/partition", json.dumps(partition).encode(), close)),
            (200, _http_request("POST", "/v1/batch", json.dumps(batch).encode(), close)),
            (200, _http_request("GET", "/healthz", None, close)),
            (200, _http_request("GET", "/metrics", None, close)),
            (200, _http_request("GET", "/metrics?format=prometheus", None, close)),
            (400, _http_request("POST", "/v1/test", b"{not json", close)),
            (400, _http_request("POST", "/v1/test", None, close, "Content-Length: -1")),
            (404, _http_request("POST", "/v1/nope", b"{}", close)),
            (405, _http_request("GET", "/v1/test", None, close)),
            (405, _http_request("PUT", "/healthz", None, close)),
            (411, _http_request("POST", "/v1/test", None, close)),
            (413, _http_request(
                "POST", "/v1/test", None, close,
                f"Content-Length: {MAX_BODY_BYTES + 1}",
            )),
            # HTTP/0.9 and other malformed request lines
            (400, b"GET /healthz\r\n\r\n"),
            (414, b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n"),
            (431, _http_request("GET", "/healthz", None, "X-Big: " + "a" * 70_000)),
        ]
        for expected, request in cases:
            received = self._exchange(counting_server, request)
            assert received.startswith(b"HTTP/1.1 %d " % expected), request[:40]

        def boom(unit):
            raise RuntimeError("planted handler bug")

        monkeypatch.setattr(counting_server.frontend.service.core, "test", boom)
        received = self._exchange(
            counting_server,
            _http_request("POST", "/v1/test", json.dumps(body).encode(), close),
        )
        assert received.startswith(b"HTTP/1.1 500 ")
        assert b"internal server error" in received

    def test_keepalive_round_trip_is_not_delayed_ack_bound(self, base_url):
        """The delayed-ACK stall's floor is 40 ms per response; a warm
        keep-alive round trip costs about 1 ms."""
        host, port = base_url.rsplit("/", 1)[1].split(":")
        request = _http_request(
            "POST", "/v1/test", json.dumps(_instance_body(23)).encode()
        )
        with (
            socket.create_connection((host, int(port)), timeout=30) as sock,
            sock.makefile("rb") as reader,
        ):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.sendall(request)  # warm the cache
            assert _read_response(reader)[0] == 200
            round_trips = []
            for _ in range(30):
                t0 = time.perf_counter()
                sock.sendall(request)
                status, raw = _read_response(reader)
                round_trips.append(time.perf_counter() - t0)
                assert status == 200
                assert json.loads(raw)["cached"] is True
        assert statistics.median(round_trips) < 0.020, round_trips


class TestHttpEdges:
    """HTTP/1.1 behaviours clients rely on beyond the happy path."""

    @staticmethod
    def _connect(server):
        return socket.create_connection((server.host, server.port), timeout=2)

    def test_http10_closes_after_the_response(self, server):
        with self._connect(server) as sock:
            sock.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
            # socket.timeout (2 s) if the server kept the connection open
            status, headers, body = _split_response(_recv_all(sock))
        assert status == 200
        assert headers["connection"] == "close"
        assert json.loads(body)["status"] == "ok"

    def test_http10_keep_alive_on_request(self, server):
        request = b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        with self._connect(server) as sock, sock.makefile("rb") as reader:
            for _ in range(2):
                sock.sendall(request)
                status, raw = _read_response(reader)
                assert status == 200
                assert json.loads(raw)["status"] == "ok"

    def test_expect_100_continue(self, server):
        body = json.dumps(_instance_body(24)).encode()
        head = _http_request(
            "POST", "/v1/test", None,
            "Expect: 100-continue", f"Content-Length: {len(body)}",
        )
        with self._connect(server) as sock, sock.makefile("rb") as reader:
            sock.sendall(head)
            # the interim response comes before the body is sent
            assert reader.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert reader.readline() == b"\r\n"
            sock.sendall(body)
            status, raw = _read_response(reader)
        assert status == 200
        assert json.loads(raw)["report"]["accepted"] in (True, False)

    def test_expect_100_continue_not_sent_for_a_refused_body(self, server):
        request = _http_request(
            "POST", "/v1/test", None,
            "Expect: 100-continue", f"Content-Length: {MAX_BODY_BYTES + 1}",
        )
        with self._connect(server) as sock:
            sock.sendall(request)
            status, headers, body = _split_response(_recv_all(sock))
        assert status == 413
        assert headers["connection"] == "close"
        assert "exceeds" in json.loads(body)["error"]["message"]

    @pytest.mark.parametrize(
        "extra, expected, message",
        [
            # Host and Connection are header lines too
            ([f"X-H{k}: v" for k in range(MAX_HEADERS - 2)], 200, None),
            ([f"X-H{k}: v" for k in range(MAX_HEADERS - 1)], 431, "more than"),
            (["X-Big: " + "a" * 70_000], 431, "exceeds"),
        ],
        ids=["at-cap", "over-cap", "long-line"],
    )
    def test_header_limits(self, server, extra, expected, message):
        request = _http_request("GET", "/healthz", None, "Connection: close", *extra)
        with self._connect(server) as sock:
            sock.sendall(request)
            status, headers, body = _split_response(_recv_all(sock))
        assert status == expected
        assert headers["connection"] == "close"
        if message is None:
            assert json.loads(body)["status"] == "ok"
        else:
            assert message in json.loads(body)["error"]["message"]

    @pytest.mark.parametrize(
        "line", [b"GET /healthz", b"NONSENSE", b"GET /healthz HTTP/2.0", b"GET / / HTTP/1.1"]
    )
    def test_malformed_request_line_gets_400_and_close(self, server, line):
        with self._connect(server) as sock:
            sock.sendall(line + b"\r\n\r\n")
            status, headers, body = _split_response(_recv_all(sock))
        assert status == 400
        assert headers["connection"] == "close"
        assert "malformed request line" in json.loads(body)["error"]["message"]


class TestEvaluationOffLoop:
    def test_slow_evaluation_does_not_block_healthz(self, monkeypatch):
        """The in-process shard evaluates in the loop's executor: a slow
        verdict leaves the event loop free for other connections."""
        started = threading.Event()
        real_test = ShardCore.test

        def slow_test(core, unit):
            started.set()
            time.sleep(0.5)
            return real_test(core, unit)

        monkeypatch.setattr(ShardCore, "test", slow_test)
        body = json.dumps(_instance_body(25)).encode()
        with LiveServer(cache_size=16) as srv:
            slow = threading.Thread(
                target=_raw_post, args=(srv.url, "/v1/test", body)
            )
            slow.start()
            assert started.wait(timeout=10)
            t0 = time.perf_counter()
            with urllib.request.urlopen(srv.url + "/healthz", timeout=10) as resp:
                assert json.loads(resp.read())["status"] == "ok"
            elapsed = time.perf_counter() - t0
            slow.join(timeout=10)
            assert not slow.is_alive()
        assert elapsed < 0.1, elapsed


class TestConstrainedValidation:
    """Deadline-axis validation (constrained-family satellites): the
    tolerant implicit check snaps float-round-trip deadlines, and the
    rejection body for constrained submissions is byte-identical no
    matter which evaluation backend the server runs."""

    def test_float_roundtrip_deadline_snaps_to_implicit(self, base_url):
        # 0.1 + 0.2 != 0.3 exactly; a client that computed the period and
        # serialized the deadline separately still submitted an implicit
        # instance, so validation must snap (not reject, not crash later
        # in a theorem test that requires Task.is_implicit)
        period = 0.1 + 0.2
        payload = {
            "taskset": {
                "tasks": [{"wcet": 0.1, "period": period, "deadline": 0.3}]
            },
            "platform": {"machines": [{"speed": 1.0}]},
        }
        status, body = _raw_post(
            base_url, "/v1/test", json.dumps(payload).encode()
        )
        assert status == 200
        direct = feasibility_test(
            TaskSet([Task(wcet=0.1, period=period)]),
            Platform.from_speeds([1.0]),
        )
        assert body["report"] == report_to_dict(direct)

    def test_truly_constrained_deadline_still_rejected(self, base_url):
        # the snap is a tolerance, not a loophole: a deadline well below
        # the period keeps its field-level error
        payload = {
            "taskset": {
                "tasks": [{"wcet": 0.1, "period": 0.3, "deadline": 0.15}]
            },
            "platform": {"machines": [{"speed": 1.0}]},
        }
        status, body = _raw_post(
            base_url, "/v1/test", json.dumps(payload).encode()
        )
        assert status == 400
        assert any(
            e["field"] == "taskset.tasks[0].deadline"
            for e in body["error"]["fields"]
        )

    def test_batch_rejection_is_backend_identical(self, base_url):
        # a constrained instance inside /v1/batch must fail up front in
        # validation with the same indexed field errors on every backend
        # — never as a mid-batch ValueError from a kernel
        payload = json.dumps(
            {
                "instances": [
                    {
                        "taskset": {"tasks": [{"wcet": 1, "period": 10}]},
                        "platform": {"machines": [{"speed": 1.0}]},
                    },
                    {
                        "taskset": {
                            "tasks": [{"wcet": 1, "period": 10, "deadline": 4}]
                        },
                        "platform": {"machines": [{"speed": 1.0}]},
                    },
                ]
            }
        ).encode()
        scalar_status, scalar_body = _raw_post(base_url, "/v1/batch", payload)
        assert scalar_status == 400
        fields = {e["field"] for e in scalar_body["error"]["fields"]}
        assert "instances[1].taskset.tasks[0].deadline" in fields

        for backend in ("kernel", "numpy"):
            with LiveServer(cache_size=16, backend=backend) as srv:
                status, body = _raw_post(srv.url, "/v1/batch", payload)
            assert status == scalar_status, backend
            assert body == scalar_body, backend


class TestMetrics:
    def test_json_snapshot_structure(self, client):
        client.health()  # ensure at least one observed request
        metrics = client.metrics()
        assert set(metrics) >= {"requests", "latency", "cache", "uptime_seconds"}
        assert "/healthz" in metrics["requests"]
        assert metrics["requests"]["/healthz"]["200"] >= 1
        hist = metrics["latency"]["/healthz"]
        assert hist["count"] >= 1
        assert hist["buckets"]["+Inf"] == hist["count"]
        cache = metrics["cache"]
        assert 0.0 <= cache["hit_ratio"] <= 1.0
        assert cache["hits"] + cache["misses"] > 0

    def test_latency_counts_match_request_counts(self, client):
        metrics = client.metrics()
        for endpoint, by_status in metrics["requests"].items():
            assert metrics["latency"][endpoint]["count"] == sum(
                by_status.values()
            )

    def test_prometheus_rendering(self, client):
        text = client.metrics("prometheus")
        assert isinstance(text, str)
        assert "# TYPE repro_requests_total counter" in text
        assert re.search(
            r'repro_requests_total\{endpoint="/healthz",status="200"\} \d+', text
        )
        assert 'repro_request_latency_seconds_bucket{endpoint="/healthz",le="+Inf"}' in text
        assert "repro_cache_hits_total" in text
        assert "repro_cache_hit_ratio" in text

    def test_error_requests_are_counted(self, client, base_url):
        before = client.metrics()["requests"].get("/v1/test", {}).get("400", 0)
        _raw_post(base_url, "/v1/test", b"{not json")
        after = client.metrics()["requests"]["/v1/test"]["400"]
        assert after == before + 1


class TestGracefulShutdown:
    def test_inflight_request_drains_before_close(self, monkeypatch):
        started = threading.Event()
        release = threading.Event()
        real_test = ShardCore.test

        def hold(core, unit):
            started.set()
            assert release.wait(timeout=30)
            return real_test(core, unit)

        monkeypatch.setattr(ShardCore, "test", hold)
        srv = LiveServer(cache_size=16)
        local_client = ServiceClient(srv.url)
        taskset, platform = _instance(9)
        box = {}

        def request():
            box["response"] = local_client.test(taskset, platform)

        request_thread = threading.Thread(target=request)
        request_thread.start()
        try:
            assert started.wait(timeout=30)
            # Start the drain while the request is still in flight: the
            # listener closes, the busy connection holds the drain open.
            drain = srv.start_drain()
            deadline = time.monotonic() + 10
            while srv.frontend._server.is_serving():
                assert time.monotonic() < deadline, "listener still open"
                time.sleep(0.01)
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection((srv.host, srv.port), timeout=1)
            assert not drain.done()
            assert request_thread.is_alive()
        finally:
            release.set()
        request_thread.join(timeout=30)
        assert not request_thread.is_alive()
        drain.result(timeout=30)
        srv.close()
        assert box["response"]["report"] == report_to_dict(
            feasibility_test(taskset, platform)
        )
        # the drained server no longer accepts connections
        with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
            local_client.health()


class TestServeProcess:
    def test_sigterm_drains_and_exits_zero(self):
        src_dir = Path(repro.__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src_dir) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            banner = proc.stderr.readline()
            match = re.search(r"http://([\d.]+):(\d+)", banner)
            assert match, f"no listening banner, got: {banner!r}"
            url = f"http://{match.group(1)}:{match.group(2)}"
            with urllib.request.urlopen(url + "/healthz", timeout=10) as resp:
                assert json.loads(resp.read())["status"] == "ok"
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=20) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)


class TestLRUCacheUnit:
    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh 'a'
        cache.put("c", 3)  # evicts 'b'
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        stats = cache.stats()
        assert stats.evictions == 1
        assert stats.size == 2

    def test_hit_ratio_counters(self):
        cache = LRUCache(4)
        cache.put("k", "v")
        assert cache.get("k") == "v"
        assert cache.get("missing") is None
        stats = cache.stats()
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.hit_ratio == 0.5

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_clear_keeps_counters(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().hits == 1

    def test_concurrent_access_is_safe(self):
        cache = LRUCache(64)

        def worker(base: int):
            for i in range(500):
                cache.put((base, i % 80), i)
                cache.get((base, (i * 7) % 80))

        threads = [threading.Thread(target=worker, args=(b,)) for b in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = cache.stats()
        assert stats.size <= 64
        assert stats.hits + stats.misses == 8 * 500
