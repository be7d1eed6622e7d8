"""serve-zipf: admission-query traffic against ``repro serve``.

A corpus of ~3,000 distinct queries (mostly 32x16, some 128x64, a few
512x64) is drawn Zipf(1.0), which is more than the server's default
1,024-entry verdict cache, so hits and misses arrive side by side.
About 90% of requests go to /v1/test, 5% to /v1/partition and 5% are
small /v1/batch requests.  The server is a ``repro serve`` subprocess
with its default flags except ``--port 0``.

Phases: an untimed warm-up (part of ``setup_s``), an open Poisson loop
below today's capacity (latency, timed from each request's scheduled
send time), a closed loop on two keep-alive connections (throughput),
then a cold block of never-seen queries and one-task edits of cached
queries.  The sender is the benchmark's own: at most two threads, each
owning one keep-alive connection.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace

import numpy as np

import harness
from harness import BenchError, Context, Result, Tracer, median

from repro.core.feasibility import theorem_alpha
from repro.io_.serialize import canonical_task_order, platform_to_dict, taskset_to_dict
from repro.service.app import FeasibilityService
from repro.service.protocol import TestUnit
from repro.service.shard import test_query_digest
from repro.service.validation import parse_test_request
from repro.workloads.builder import generate_taskset
from repro.workloads.platforms import geometric_platform

CORPUS = 3000
SMOKE_CORPUS = 60
#: (tasks, machines, share of the corpus)
SHAPES = ((32, 16, 0.85), (128, 64, 0.12), (512, 64, 0.03))
ZIPF_S = 1.0
CONFIGS = (("edf", "partitioned"), ("rms", "partitioned"), ("edf", "any"), ("rms", "any"))
TEST_NAME = {"edf": "edf", "rms": "rms-ll"}
#: endpoint mix; a batch carries BATCH_ITEMS Zipf-drawn test queries
MIX = (("/v1/test", 0.90), ("/v1/partition", 0.05), ("/v1/batch", 0.05))
BATCH_ITEMS = 4
#: warm-up draws, sent as /v1/batch requests of WARM_BATCH queries
WARM_DRAWS = 4000
WARM_BATCH = 100
#: open-loop Poisson rate (req/s), below the ~44 req/s two-client capacity
OPEN_RATE = 20.0
#: share of --seconds given to the open and the closed loop
OPEN_SHARE, CLOSED_SHARE = 0.4, 0.4
CONNECTIONS = 2
#: closed-loop plan length per second of closed loop: room for a server
#: ~20x faster than today's ~45 req/s before the plan wraps around and
#: turns misses into hits
CLOSED_PLAN_RATE = 1000
#: never-seen queries answered back to back for cold_s
COLD_QUERIES = 20
INCREMENTAL_SAMPLES = 15
#: generator lateness above this marks the open phase invalid
LATE_BOUND_MS = 5.0
#: corpus items whose responses are fingerprinted and checked by endpoint
CHECK_ITEMS = 40
SOCKET_TIMEOUT_S = 30.0


# ---------------------------------------------------------------------------
# client
# ---------------------------------------------------------------------------


class Connection:
    """One HTTP/1.1 keep-alive connection; request and body in one send."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=SOCKET_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def request(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        self.sock.sendall(head.encode("ascii") + body)
        while b"\r\n\r\n" not in self.buf:
            self._fill()
        header, self.buf = self.buf.split(b"\r\n\r\n", 1)
        lines = header.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        for line in lines[1:]:
            key, _, value = line.partition(":")
            if key.strip().lower() == "content-length":
                length = int(value)
        while len(self.buf) < length:
            self._fill()
        payload, self.buf = self.buf[:length], self.buf[length:]
        return status, payload

    def _fill(self) -> None:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buf += chunk

    def close(self) -> None:
        self.sock.close()


class Server:
    """A ``repro serve --port 0`` subprocess, stopped by SIGTERM."""

    def __init__(self, ctx: Context):
        ctx.work.mkdir(parents=True, exist_ok=True)
        self.log = ctx.work / f"serve-{os.getpid()}.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ctx.root / "src")
        env.pop("REPRO_KERNEL_BACKEND", None)
        with self.log.open("w") as fh:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0"],
                cwd=ctx.root, env=env, stdout=subprocess.DEVNULL, stderr=fh,
            )
        self.port = self._wait_port()

    def _wait_port(self) -> int:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"repro serve exited early: {self.log.read_text()[-500:]}")
            for line in self.log.read_text().splitlines():
                if "listening on http://" in line:
                    return int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
            time.sleep(0.01)
        self.close()
        raise BenchError("repro serve did not report its port within 60 s")

    def metrics(self) -> dict:
        conn = Connection(self.port)
        try:
            status, body = conn.request("GET", "/metrics")
        finally:
            conn.close()
        if status != 200:
            raise BenchError(f"/metrics answered {status}")
        return json.loads(body)

    def close(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        return self.proc.returncode


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


@dataclass
class Traffic:
    """Everything a run sends, generated from the seed."""

    #: corpus item -> request body
    test_bodies: dict[int, bytes]
    partition_bodies: dict[int, bytes]
    #: warm-up /v1/batch bodies
    warm: list[bytes]
    #: open loop: (scheduled offset s, endpoint, body, corpus item or -1)
    open_plan: list[tuple[float, str, bytes, int]]
    #: closed loop, cycled if the server outruns even CLOSED_PLAN_RATE
    closed_plan: list[tuple[str, bytes, int]]
    cold_bodies: list[bytes]
    incremental_bodies: list[bytes]
    server: Server | None = None
    fingerprint: str = ""
    #: the most popular corpus items: the fixed check set
    popular: list[int] = field(default_factory=list)


class Lazy(dict):
    """A dict that builds a missing value with ``make(key)``."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def make_instance(rng, shape):
    n, m = shape
    pf = geometric_platform(m, 8.0)
    stress = rng.uniform(0.6, 3.0)
    return generate_taskset(rng, n, stress * sum(pf.speeds)), pf


def test_body(ts, pf, config) -> bytes:
    sched, adv = config
    return json.dumps(
        {"taskset": taskset_to_dict(ts), "platform": platform_to_dict(pf),
         "scheduler": sched, "adversary": adv}
    ).encode()


def partition_body(ts, pf, config) -> bytes:
    sched, adv = config
    return json.dumps(
        {"taskset": taskset_to_dict(ts), "platform": platform_to_dict(pf),
         "test": TEST_NAME[sched], "alpha": theorem_alpha(sched, adv)}
    ).encode()


def batch_body(bodies: list[bytes]) -> bytes:
    return b'{"instances": [' + b", ".join(bodies) + b"]}"


def generate(ctx: Context) -> Traffic:
    size = SMOKE_CORPUS if ctx.smoke else CORPUS
    rng = np.random.default_rng((ctx.seed, 0))
    shape_idx = rng.choice(len(SHAPES), size=size, p=[s[2] for s in SHAPES])
    shapes = [(32, 8) if ctx.smoke else SHAPES[k][:2] for k in shape_idx]
    configs = rng.integers(0, len(CONFIGS), size=size)
    # items are materialized on first use, each from its own seed, so
    # only the ones the plans below draw cost set-up time
    instances = Lazy(lambda i: make_instance(np.random.default_rng((ctx.seed, 1, i)), shapes[i]))
    tests = Lazy(lambda i: test_body(*instances[i], CONFIGS[int(configs[i])]))
    parts = Lazy(lambda i: partition_body(*instances[i], CONFIGS[int(configs[i])]))
    # popularity rank -> corpus item, so popular items have random shapes
    rank_to_item = rng.permutation(size)
    weights = 1.0 / np.arange(1, size + 1) ** ZIPF_S
    cdf = np.cumsum(weights / weights.sum())

    # every plan draws from its own stream, so --seconds changes how much
    # of a plan is used, never what is in it
    def draws(gen, k: int) -> list[int]:
        ranks = np.minimum(np.searchsorted(cdf, gen.random(k)), size - 1)
        return [int(rank_to_item[r]) for r in ranks]

    def request(gen) -> tuple[str, bytes, int]:
        endpoint = MIX[int(np.searchsorted(np.cumsum([p for _, p in MIX]), gen.random()))][0]
        if endpoint == "/v1/batch":
            return endpoint, batch_body([tests[i] for i in draws(gen, BATCH_ITEMS)]), -1
        item = draws(gen, 1)[0]
        return endpoint, (tests if endpoint == "/v1/test" else parts)[item], item

    warm_items = draws(np.random.default_rng((ctx.seed, 3)), WARM_DRAWS if not ctx.smoke else 2 * size)
    warm = [batch_body([tests[i] for i in warm_items[k:k + WARM_BATCH]])
            for k in range(0, len(warm_items), WARM_BATCH)]
    open_rng = np.random.default_rng((ctx.seed, 4))
    open_plan = []
    offset = open_rng.exponential(1.0 / OPEN_RATE)
    while offset < OPEN_SHARE * ctx.seconds:
        open_plan.append((offset,) + request(open_rng))
        offset += open_rng.exponential(1.0 / OPEN_RATE)
    closed_rng = np.random.default_rng((ctx.seed, 5))
    closed_plan = [request(closed_rng) for _ in range(int(CLOSED_PLAN_RATE * CLOSED_SHARE * ctx.seconds) + 50)]
    cold_rng = np.random.default_rng((ctx.seed, 2))
    cold = [test_body(*make_instance(cold_rng, shapes[0] if ctx.smoke else SHAPES[0][:2]), CONFIGS[0])
            for _ in range(COLD_QUERIES)]
    incremental = []
    for k in range(INCREMENTAL_SAMPLES):
        item = int(rank_to_item[k % size])
        ts, pf = instances[item]
        tasks = list(ts)
        tasks[0] = replace(tasks[0], wcet=tasks[0].wcet * 0.99)
        incremental.append(test_body(type(ts)(tasks), pf, CONFIGS[int(configs[item])]))
    traffic = Traffic(tests, parts, warm, open_plan, closed_plan, cold, incremental)
    traffic.popular = popular = [int(rank_to_item[r]) for r in range(min(CHECK_ITEMS, size))]
    traffic.fingerprint = harness.digest(
        [[tests[i].decode() for i in popular], [parts[i].decode() for i in popular],
         [(t, e, item) for t, e, _, item in open_plan[:100]],
         [(e, item) for e, _, item in closed_plan[:100]],
         [b.decode() for b in warm + cold + incremental]]
    )
    return traffic


def start(ctx: Context, traffic: Traffic) -> None:
    """Server start until ready, then the untimed warm-up."""
    traffic.server = Server(ctx)
    conn = Connection(traffic.server.port)
    try:
        for body in traffic.warm:
            status, _ = conn.request("POST", "/v1/batch", body)
            if status != 200:
                raise BenchError(f"warm-up batch answered {status}")
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# load phases
# ---------------------------------------------------------------------------


@dataclass
class Sent:
    endpoint: str
    item: int
    status: int
    body: bytes
    #: scheduled (open loop) or actual send time, and completion time
    due: float
    start: float
    done: float


def open_loop(port: int, plan) -> tuple[list[Sent], list[float], int]:
    """Send ``plan`` on schedule from two threads; returns (responses,
    generator lateness per send, requests left unsent)."""
    lock = threading.Lock()
    cursor = [0]
    sent: list[Sent] = []
    late: list[float] = []
    t0 = time.perf_counter() + 0.05
    cutoff = t0 + (plan[-1][0] if plan else 0.0) + 5.0

    def worker() -> None:
        conn = Connection(port)
        try:
            while True:
                with lock:
                    k = cursor[0]
                    if k >= len(plan):
                        return
                    cursor[0] += 1
                offset, endpoint, body, item = plan[k]
                due = t0 + offset
                picked = time.perf_counter()
                if picked > cutoff:
                    return
                if due > picked:
                    time.sleep(due - picked)
                start = time.perf_counter()
                try:
                    status, payload = conn.request("POST", endpoint, body)
                except OSError:
                    status, payload = 0, b""
                    conn.close()
                    conn = Connection(port)
                done = time.perf_counter()
                with lock:
                    late.append(start - max(due, picked))
                    sent.append(Sent(endpoint, item, status, payload, due, start, done))
        finally:
            conn.close()

    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return sent, late, len(plan) - len(sent)


def closed_loop(port: int, plan, seconds: float, first: int = 0) -> tuple[list[Sent], float]:
    """Two connections, each sending its next request on the previous
    reply, for ``seconds``, from plan entry ``first`` on; returns
    (responses, elapsed)."""
    lock = threading.Lock()
    cursor = [first]
    sent: list[Sent] = []
    started = time.perf_counter()
    stop = started + seconds

    def worker() -> None:
        conn = Connection(port)
        try:
            while time.perf_counter() < stop:
                with lock:
                    endpoint, body, item = plan[cursor[0] % len(plan)]
                    cursor[0] += 1
                start = time.perf_counter()
                try:
                    status, payload = conn.request("POST", endpoint, body)
                except OSError:
                    status, payload = 0, b""
                    conn.close()
                    conn = Connection(port)
                done = time.perf_counter()
                with lock:
                    sent.append(Sent(endpoint, item, status, payload, start, start, done))
        finally:
            conn.close()

    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return sent, time.perf_counter() - started


def sequential(port: int, bodies: list[bytes], res: Result) -> list[float]:
    conn = Connection(port)
    times = []
    try:
        for body in bodies:
            res.attempted += 1
            start = time.perf_counter()
            status, _ = conn.request("POST", "/v1/test", body)
            times.append(time.perf_counter() - start)
            res.failed += status != 200
    finally:
        conn.close()
    return times


def cache_delta(before: dict, after: dict) -> tuple[int, int]:
    return (after["cache"]["hits"] - before["cache"]["hits"],
            after["cache"]["misses"] - before["cache"]["misses"])


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def strip_cached(payload):
    """A response with every ``cached`` flag removed (cache-state free)."""
    if isinstance(payload, dict):
        return {k: strip_cached(v) for k, v in payload.items() if k != "cached"}
    if isinstance(payload, list):
        return [strip_cached(v) for v in payload]
    return payload


def check_responses(ctx: Context, res: Result, traffic: Traffic, sent: list[Sent]) -> str:
    """Every distinct response seen, and a fixed check set sent now, must
    equal an in-process FeasibilityService's answer; returns the check
    set's output fingerprint."""
    reference = FeasibilityService()
    handlers = {"/v1/test": reference.handle_test, "/v1/partition": reference.handle_partition,
                "/v1/batch": reference.handle_batch}
    distinct: dict[tuple[str, bytes], bytes] = {}
    for s in sent:
        if s.status == 200 and s.item >= 0:
            body = (traffic.test_bodies if s.endpoint == "/v1/test" else traffic.partition_bodies)[s.item]
            distinct.setdefault((s.endpoint, body), s.body)
    conn = Connection(traffic.server.port)
    check_set = []
    try:
        for item in traffic.popular:
            for endpoint, body in (("/v1/test", traffic.test_bodies[item]),
                                   ("/v1/partition", traffic.partition_bodies[item])):
                status, payload = conn.request("POST", endpoint, body)
                res.check(status == 200, f"check {endpoint} item {item}: status {status}")
                check_set.append((endpoint, body, payload))
        items = traffic.popular[:8]
        body = batch_body([traffic.test_bodies[i] for i in items])
        status, payload = conn.request("POST", "/v1/batch", body)
        res.check(status == 200, f"check batch: status {status}")
        check_set.append(("/v1/batch", body, payload))
    finally:
        conn.close()
    outputs = []
    for k, (endpoint, body, payload) in enumerate(check_set):
        got = strip_cached(json.loads(payload))
        if ctx.plant_wrong and k == 0:
            got["report"]["accepted"] = not got["report"]["accepted"]
        want = strip_cached(handlers[endpoint](json.loads(body)))
        res.check(got == want, f"check {endpoint} #{k}: response differs from in-process service")
        outputs.append(got)
    for (endpoint, body), payload in distinct.items():
        want = strip_cached(handlers[endpoint](json.loads(body)))
        if strip_cached(json.loads(payload)) != want:
            res.failed += 1
            res.check(False, f"{endpoint}: served response differs from in-process service")
    res.notes.append(f"checked {len(distinct)} distinct served responses + {len(check_set)} check-set responses")
    return harness.digest(outputs)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def count(res: Result, sent: list[Sent]) -> None:
    res.attempted += len(sent)
    res.failed += sum(1 for s in sent if s.status != 200)


def run(ctx: Context) -> Result:
    res = Result()
    traffic, gen_s, reps = harness.timed_setup(ctx, lambda: generate(ctx))
    started = time.perf_counter()
    try:
        start(ctx, traffic)
        setup_s = gen_s + time.perf_counter() - started
        server = traffic.server
        if ctx.trace:
            sent = per_layer(ctx, res, traffic, reps)
        else:
            sent = end_to_end(ctx, res, traffic, setup_s)
        outputs = check_responses(ctx, res, traffic, sent)
    finally:
        code = traffic.server.close() if traffic.server else None
    res.check(code == 0, f"repro serve exited with {code} after SIGTERM")
    harness.check_fingerprints(ctx, res, traffic.fingerprint, outputs)
    return res


def open_phase(res: Result, traffic: Traffic) -> tuple[list[Sent], float]:
    sent, late, unsent = open_loop(traffic.server.port, traffic.open_plan)
    count(res, sent)
    res.attempted += unsent
    res.failed += unsent
    _, late_p = harness.high_percentile(late) if late else (0.0, 0.0)
    valid = 1e3 * late_p <= LATE_BOUND_MS
    res.notes.append(
        f"open loop: offered {len(traffic.open_plan)} at {OPEN_RATE:g} req/s, sent {len(sent)}, "
        f"generator lateness high percentile {1e3 * late_p:.3f} ms -> "
        + ("valid" if valid else f"INVALID (bound {LATE_BOUND_MS} ms)")
    )
    return sent, 1e3 * late_p


def end_to_end(ctx: Context, res: Result, traffic: Traffic, setup_s: float) -> list[Sent]:
    """End-to-end metrics, as measured: unlike the in-process workloads,
    nothing here is rescaled to the reference host speed (README.md)."""
    server = traffic.server
    res.add("setup_s", setup_s, "s", 1 if ctx.smoke else harness.SETUP_REPS)
    before = server.metrics()
    open_sent, _ = open_phase(res, traffic)
    open_latency = [s.done - s.due for s in open_sent if s.status == 200]
    q, high = harness.high_percentile(open_latency)
    res.add("open.op_p50_ms", 1e3 * median(open_latency), "ms", len(open_latency))
    res.add(f"open.op_p{100 * q:g}_ms", 1e3 * high, "ms", len(open_latency))
    closed, elapsed = closed_loop(server.port, traffic.closed_plan, CLOSED_SHARE * ctx.seconds)
    count(res, closed)
    res.add("ops_per_s", sum(1 for s in closed if s.status == 200) / elapsed, "ops/s", len(closed))
    harness.latency_metrics(res, [s.done - s.start for s in closed if s.status == 200])
    hits, misses = cache_delta(before, server.metrics())
    res.notes.append(f"verdict cache hit ratio over the timed loops {hits / max(1, hits + misses):.3f}")
    cold = sequential(server.port, traffic.cold_bodies, res)
    res.add("cold_s", sum(cold), "s", len(cold))
    incremental = sequential(server.port, traffic.incremental_bodies, res)
    res.add("incremental_s", median(incremental), "s", len(incremental))
    res.add("peak_rss_mb", harness.proc_status_kb(server.proc.pid, "VmHWM") / 1024.0, "MiB", 1)
    return open_sent + closed


def per_layer(ctx: Context, res: Result, traffic: Traffic, reps: list[float]) -> list[Sent]:
    server = traffic.server
    res.add("workloads.gen_ms", 1e3 * median(reps), "ms", len(reps))
    open_sent, late_ms = open_phase(res, traffic)
    res.add("loadgen.late_p99_ms", late_ms, "ms", len(open_sent))
    half = CLOSED_SHARE * ctx.seconds / 2
    before, cpu0 = server.metrics(), harness.proc_cpu_s(server.proc.pid)
    plain, plain_s = closed_loop(server.port, traffic.closed_plan, half)
    cpu1 = harness.proc_cpu_s(server.proc.pid)
    hits, misses = cache_delta(before, server.metrics())
    count(res, plain)
    res.add("service.cpu_ms_per_op", 1e3 * (cpu1 - cpu0) / len(plain), "ms", len(plain))
    res.add("service.cache_hit_ratio", hits / max(1, hits + misses), "ratio", hits + misses)
    traced, traced_s = closed_loop(server.port, traffic.closed_plan, half, first=len(plain))
    count(res, traced)
    tracer = Tracer()
    replay(tracer, res, traffic, open_sent + plain, traced)
    harness.trace_summary(ctx, res, tracer, "service.inproc", len(traced) / traced_s, len(plain) / plain_s)
    return open_sent + plain + traced


def replay(tracer: Tracer, res: Result, traffic: Traffic, earlier: list[Sent], traced: list[Sent]) -> None:
    """Attribute each traced /v1/test request to parse, digest, cache
    (hit) or evaluate (miss), encode and transport.

    An in-process service brought to the server's cache state (warm-up
    and earlier phases replayed untimed) answers the same requests in
    send order through the public stage functions; transport is the
    HTTP latency minus the in-process stage sum.  Requests whose hit or
    miss differs from the server's (the two connections interleave) are
    left out of the attribution.
    """
    local = FeasibilityService()
    handlers = {"/v1/partition": local.handle_partition, "/v1/batch": local.handle_batch}
    for body in traffic.warm:
        local.handle_batch(json.loads(body))
    for s in sorted(earlier, key=lambda s: s.start):
        if s.endpoint == "/v1/test":
            local.handle_test(json.loads(traffic.test_bodies[s.item]))
        elif s.endpoint == "/v1/partition":
            local.handle_partition(json.loads(traffic.partition_bodies[s.item]))
    transport, agreed = [], 0
    for k, s in enumerate(sorted(traced, key=lambda s: s.start)):
        tracer.op = k
        if s.endpoint != "/v1/test" or s.status != 200:
            if s.endpoint == "/v1/partition" and s.status == 200:
                handlers[s.endpoint](json.loads(traffic.partition_bodies[s.item]))
            continue
        served = json.loads(s.body)
        # the HTTP span is the measured request; the in-process stages
        # are its children, so its self time is the transport remainder
        http = tracer.begin("http.request")
        inproc = tracer.begin("service.inproc")
        body = traffic.test_bodies[s.item]
        q = tracer.call("service.parse", lambda: parse_test_request(json.loads(body)))
        digest, order = tracer.call(
            "io_.digest", lambda: (test_query_digest(q)[0], canonical_task_order(q.taskset))
        )
        unit = TestUnit(digest=digest, taskset=q.taskset, order=tuple(order), platform=q.platform,
                        scheduler=q.scheduler, adversary=q.adversary, alpha=q.alpha)
        lookup = tracer.begin("service.cache")
        canon, cached = local.core.test(unit)
        tracer.end(lookup, "service.hit" if cached else "service.miss")
        tracer.call("service.encode", lambda: json.dumps(
            {"digest": digest, "cached": cached, "report": canon}, sort_keys=True).encode("utf-8"))
        tracer.end(inproc)
        stage_s = tracer.spans[inproc][2] - tracer.spans[inproc][1]
        tracer.end(http, at=tracer.spans[http][1] + (s.done - s.start))
        # composition: the staged answer is the served one, in canonical order
        report = served["report"]
        same = served["digest"] == digest and report["accepted"] == canon["accepted"] and all(
            report["partition"]["assignment"][order[i]] == a
            for i, a in enumerate(canon["partition"]["assignment"]))
        res.check(same, f"traced request {k}: staged replay differs from the served response")
        if cached == served["cached"]:
            agreed += 1
            transport.append((s.done - s.start) - stage_s)
    selfs = tracer.self_times()
    for name, metric, scale, unit in (
        ("service.parse", "service.parse_us", 1e6, "us"),
        ("io_.digest", "io_.digest_us", 1e6, "us"),
        ("service.hit", "service.hit_us", 1e6, "us"),
        ("service.encode", "service.encode_us", 1e6, "us"),
        ("service.miss", "service.miss_ms", 1e3, "ms"),
    ):
        spent, n = selfs.get(name, (0.0, 0))
        res.add(metric, scale * spent / max(1, n), unit, n)
    if transport:
        res.add("service.transport_ms_p50", 1e3 * median(transport), "ms", len(transport))
    res.notes.append(f"traced /v1/test requests with matching hit/miss: {agreed}")
