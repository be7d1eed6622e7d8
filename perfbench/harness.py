"""Shared machinery for the workloads: timing, percentiles, spans,
fingerprints, host facts and the result line.

Every workload module exposes ``run(ctx) -> Result``.  A result carries
the end-to-end metrics (untraced run) or the per-layer metrics (traced
run), the attempted/failed op counts and the correctness verdict;
:func:`emit` prints one human line per metric and then the JSON line
a benchmark runner reads.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform as _platform
import resource
import sys
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

import numpy as np

HERE = Path(__file__).resolve().parent
#: the seed whose input/output digests are pinned in fingerprints.json
DEFAULT_SEED = 20160523
#: set-up is repeated this many times per run and the median reported
SETUP_REPS = 3
#: host-speed reference: iterations of :func:`reference_work`'s loop, the
#: seconds one sample takes at the reference speed (about one uncontended
#: vCPU of a 2.1 GHz x86-64 host under CPython 3.11), and the least time
#: between two samples in a timed phase
REF_ITERS = 20_000
REF_NOMINAL_S = 0.010
REF_INTERVAL_S = 0.15
#: a timed sample is rescaled by the reference samples that end within
#: this many seconds of it, when there are at least REF_MIN_LOCAL of them
REF_WINDOW_S = 1.0
REF_MIN_LOCAL = 3


class BenchError(Exception):
    """Aborts a run without printing a result (exit code 2)."""


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    #: perf_counter() at interpreter start of run.py (imports are set-up)
    t0: float
    root: Path
    work: Path
    #: toy sizes for the self-check; fingerprints are not enforced
    smoke: bool = False
    #: self-check hook: flip one verdict before the checker sees it
    plant_wrong: bool = False


@dataclass
class Result:
    metrics: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: names of the checks that failed (empty = correct)
    check_failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, name: str, value: float, unit: str, n: int = 1) -> None:
        self.metrics[name] = (float(value), unit, int(n))

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.check_failures.append(what)

    @property
    def correct(self) -> bool:
        return not self.check_failures


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def median(values: Iterable[float]) -> float:
    xs = sorted(values)
    if not xs:
        raise BenchError("median of no samples")
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def nearest_rank(xs_sorted: list[float], q: float) -> float:
    k = max(1, math.ceil(q * len(xs_sorted)))
    return xs_sorted[k - 1]


def high_percentile(values: Iterable[float]) -> tuple[float, float]:
    """(q, value): p99 when at least 10 samples lie beyond it, else the
    highest percentile (nearest rank, 0.1% steps) that has 10 beyond."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return 0.5, nearest_rank(xs, 0.5)
    q = min(0.99, math.floor(1000.0 * (n - 10) / n) / 1000.0)
    return q, nearest_rank(xs, q)


def mix_latency_metrics(res: Result, by_stratum: dict[Any, list[float]], tail_samples: int,
                        prefix: str = "") -> None:
    """op_p50_ms / op_p99_ms of a stratum-balanced mix: each op weighs
    one over its stratum's op count, so every stratum counts the same
    however far through the pool a run got.

    The high percentile is the one :func:`high_percentile` picks for
    ``tail_samples`` samples, a count every run reaches: taken from the
    samples a run happened to complete, it would drop on a slow host
    and move the figure down a heavy tail (two 10-seed sets whose runs
    reached about p97 and p95 had medians 13% apart).  It is lowered
    further only if fewer than 10 samples lie beyond it."""
    pairs = sorted((t, 1.0 / len(ts)) for ts in by_stratum.values() for t in ts)
    if not pairs:
        raise BenchError("no timed ops completed")
    xs = [t for t, _ in pairs]
    cum = list(accumulate(w for _, w in pairs))

    def at(q: float) -> float:
        return xs[min(len(xs) - 1, bisect_left(cum, q * cum[-1] * (1.0 - 1e-12)))]

    q = min(0.99, math.floor(1000.0 * (tail_samples - 10) / tail_samples) / 1000.0)
    while q > 0.5 and len(xs) - bisect_right(xs, at(q)) < 10:
        q = round(q - 0.001, 3)
    res.add(prefix + "op_p50_ms", 1e3 * at(0.5), "ms", len(xs))
    res.add(prefix + "op_p99_ms", 1e3 * at(q), "ms", len(xs))
    res.notes.append(f"{prefix}op_p99_ms is the p{100 * q:g} of the stratum-balanced mix "
                     f"(>=10 samples beyond it)")


def latency_metrics(res: Result, latencies_s: list[float], prefix: str = "") -> None:
    """op_p50_ms / op_p99_ms from per-op wall times in seconds."""
    if not latencies_s:
        raise BenchError("no timed ops completed")
    q, hi = high_percentile(latencies_s)
    res.add(prefix + "op_p50_ms", 1e3 * median(latencies_s), "ms", len(latencies_s))
    res.add(prefix + "op_p99_ms", 1e3 * hi, "ms", len(latencies_s))
    res.notes.append(f"{prefix}op_p99_ms is the p{100 * q:g} (>=10 samples beyond it)")


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------


def digest(obj: Any) -> str:
    """sha256 of the canonical JSON form (floats via repr, keys sorted)."""
    raw = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()


def check_fingerprints(ctx: Context, res: Result, inputs: str, outputs: str) -> None:
    """Pin the default seed: drifted inputs abort, drifted outputs fail."""
    res.notes.append(f"fingerprint inputs={inputs} outputs={outputs}")
    if ctx.smoke or ctx.seed != DEFAULT_SEED:
        return
    pinned = json.loads((HERE / "fingerprints.json").read_text())[ctx.workload]
    if pinned["inputs"] != inputs:
        raise BenchError(
            f"{ctx.workload}: input fingerprint {inputs} != pinned "
            f"{pinned['inputs']}; the generator drifted, so results would "
            "not be comparable"
        )
    res.check(pinned["outputs"] == outputs, "output fingerprint at default seed")


# ---------------------------------------------------------------------------
# host and process facts
# ---------------------------------------------------------------------------


def host_info() -> dict[str, str]:
    import numpy
    import scipy

    from repro.kernels.backends import resolve_backend

    return {
        "nproc": str(os.cpu_count()),
        "python": _platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": resolve_backend(None),
    }


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_status_kb(pid: int, key: str) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith(key + ":"):
            return float(line.split()[1])
    raise BenchError(f"{key} missing from /proc/{pid}/status")


def proc_cpu_s(pid: int) -> float:
    """utime + stime of ``pid`` in seconds."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------


def reference_work(iters: int = REF_ITERS) -> int:
    """A fixed mix of pure-Python and numpy work that shares no code
    with the program: a dict-and-integer loop, a float first-fit over
    tuples, and vectorised square roots, the kinds of work the program
    does (interpreted integer, float and container code, and numpy)."""
    table: dict[int, float] = {}
    x = 12345
    for _ in range(iters):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x & 255
        table[key] = table.get(key, 0.0) + x * 1e-9
    items = sorted(((v, 1.0 + k % 17) for k, v in table.items()), key=lambda t: t[0] / t[1])
    for _ in range(8):
        loads = [0.0] * 16
        for wcet, period in items:
            u = wcet / period
            for j in range(16):
                if loads[j] + u <= 0.05 * (j + 1):
                    loads[j] += u
                    break
    a = _REF_ARRAY
    for _ in range(4):
        a = np.sqrt(a * 1.0001 + 1.0)
    return len(table) + int(a[-1] > 0)


class HostSpeed:
    """How fast the host runs, against the reference speed.

    The shared host's speed drifts by tens of percent over seconds to
    minutes, in the program and in any other CPU-bound code alike.
    Sampling :func:`reference_work` between ops, all through a run,
    measures that drift.  A timed sample is rescaled to the reference
    speed by the samples taken within REF_WINDOW_S of it
    (:meth:`scaled`); set-up by those of the whole run (:meth:`factor`).
    The reference samples are taken outside every op timer.
    """

    def __init__(self) -> None:
        #: (end time, seconds) of every reference sample, in time order
        self.samples: list[tuple[float, float]] = []
        self._ends: list[float] = []

    def sample(self) -> None:
        started = time.perf_counter()
        reference_work()
        end = time.perf_counter()
        self.samples.append((end, end - started))
        self._ends.append(end)

    def maybe_sample(self) -> None:
        if not self._ends or time.perf_counter() - self._ends[-1] >= REF_INTERVAL_S:
            self.sample()

    def factor(self) -> float:
        """REF_NOMINAL_S over the run's median sample: below 1 on a slow host."""
        return REF_NOMINAL_S / median(d for _, d in self.samples)

    def scaled(self, start: float, elapsed: float) -> float:
        """``elapsed`` seconds timed from ``start``, at the reference speed.

        The host's speed right around a sample predicts the sample
        better than the run's median does (the scatter of one fixed
        instance's cold time fell from 0.10 to 0.06 of its mean), so the
        factor comes from the reference samples that end within
        REF_WINDOW_S of the timed interval, or from the whole run when
        fewer than REF_MIN_LOCAL do.
        """
        lo = bisect_left(self._ends, start - REF_WINDOW_S)
        hi = bisect_right(self._ends, start + elapsed + REF_WINDOW_S)
        if hi - lo < REF_MIN_LOCAL:
            return elapsed * self.factor()
        return elapsed * REF_NOMINAL_S / median(d for _, d in self.samples[lo:hi])


HOST = HostSpeed()
_REF_ARRAY = np.arange(100_000, dtype=float)


def scaled_setup(res: Result, setup_s: float, n: int) -> None:
    """``setup_s`` at the reference speed (whole-run factor), the measured
    value as ``raw.setup_s`` and the factor as ``host.speed_factor``."""
    f = HOST.factor()
    res.add("setup_s", setup_s * f, "s", n)
    res.add("raw.setup_s", setup_s, "s", n)
    res.add("host.speed_factor", f, "ratio", len(HOST.samples))


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


class Tracer:
    """In-memory spans (name, start, end, parent, op); written at exit.

    Spans are recorded from the benchmark's own files around calls into
    each layer's public functions; the program itself is not touched.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self._stack: list[int] = []
        self.op = -1

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.op))
        sid = len(self.spans) - 1
        self._stack.append(sid)
        return sid

    def end(self, sid: int, rename: str | None = None, at: float | None = None) -> None:
        """Close span ``sid`` now (or at ``at``), optionally renaming it
        once its outcome is known (a cache lookup becomes hit or miss)."""
        name, start, _, parent, op = self.spans[sid]
        end = time.perf_counter() if at is None else at
        self.spans[sid] = (rename or name, start, end, parent, op)
        self._stack.pop()

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kw: Any) -> Any:
        sid = self.begin(name)
        try:
            return fn(*args, **kw)
        finally:
            self.end(sid)

    def self_times(self) -> dict[str, tuple[float, int]]:
        """name -> (total self seconds, span count).

        Self time is the duration minus the union of the child spans'
        intervals (children of one parent never overlap here, since the
        traced replay is single-threaded, so the union is their sum).
        """
        child: dict[int, float] = {}
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + (end - start)
        out: dict[str, tuple[float, int]] = {}
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            total, count = out.get(name, (0.0, 0))
            out[name] = (total + (end - start) - child.get(sid, 0.0), count + 1)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )


def trace_summary(ctx: Context, res: Result, tracer: Tracer, op_span: str,
                  traced_ops_per_s: float, untraced_ops_per_s: float) -> None:
    """Unattributed remainder and tracing overhead, then dump the spans."""
    selfs = tracer.self_times()
    op_self, ops = selfs.get(op_span, (0.0, 0))
    op_total = sum(e - s for n, s, e, _, _ in tracer.spans if n == op_span)
    res.add("trace.unattributed_share", op_self / op_total if op_total else 0.0,
            "ratio", ops)
    res.add("trace.overhead_share", 1.0 - traced_ops_per_s / untraced_ops_per_s,
            "ratio", ops)
    res.add("trace.ops_per_s", traced_ops_per_s, "ops/s", ops)
    res.add("trace.untraced_ops_per_s", untraced_ops_per_s, "ops/s", ops)
    tracer.write(ctx.work / f"spans-{ctx.workload}-{ctx.seed}.jsonl")


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def emit(res: Result, names: list[tuple[str, str]], host: dict[str, str]) -> None:
    """Print human lines, then the JSON result line (last line of stdout).

    ``names`` are the (name, unit) pairs BENCHMARK.json lists for this
    mode; a layer the workload does not exercise reports 0 with n=0.
    """
    print("host " + " ".join(f"{k}={v}" for k, v in sorted(host.items())))
    for note in res.notes:
        print("note " + note)
    metrics: dict[str, dict[str, Any]] = {}
    for name, unit in names:
        value, got_unit, n = res.metrics.get(name, (0.0, unit, 0))
        if got_unit != unit:
            raise BenchError(f"{name}: unit {got_unit} != declared {unit}")
        print(f"metric {name} {value!r} {unit} n={n}")
        metrics[name] = {"value": value, "unit": unit}
    extra = sorted(set(res.metrics) - {n for n, _ in names})
    for name in extra:
        value, unit, n = res.metrics[name]
        print(f"extra {name} {value!r} {unit} n={n}")
    share = res.failed / res.attempted if res.attempted else 1.0
    print(f"metric error_share {share!r} ratio n={res.attempted}")
    for what in res.check_failures:
        print(f"check FAILED: {what}")
    sys.stdout.flush()
    print(
        json.dumps(
            {
                "correct": res.correct,
                "attempted": res.attempted,
                "failed": res.failed,
                "metrics": metrics,
            }
        )
    )


def interleave(budget: float, step: Callable[[], None],
               probes: Sequence[Callable[[], None]] = ()) -> None:
    """Call ``step()`` until ``budget`` seconds have passed, running each
    probe once at evenly spaced times across the budget (any left over
    run at the end).

    The host's speed drifts by tens of percent over seconds, so a probe
    phase run as one burst would see a different machine than the ops;
    spread out, every probe and op sample the same mix of slow and fast
    periods.
    """
    start = time.perf_counter()
    due = [start + budget * (k + 0.5) / len(probes) for k in range(len(probes))]
    k = 0
    while (now := time.perf_counter()) < start + budget:
        HOST.maybe_sample()
        while k < len(probes) and now >= due[k]:
            probes[k]()
            k += 1
            now = time.perf_counter()
        if now < start + budget:
            step()
    for probe in probes[k:]:
        probe()


def timed_loop(
    pool: list,
    budget: float,
    seen: dict[int, str],
    res: Result,
    op: Callable[..., Any],
    summarize: Callable[[Any], Any],
    reset: Callable[[], None],
    probes: Sequence[Callable[[], None]] = (),
) -> list[float]:
    """Run ``op(idx, *pool[idx])`` over the pool in order until ``budget``
    seconds have passed, with ``probes`` interleaved (see
    :func:`interleave`); return ``(pool index, start, wall time)`` per op.

    The pool wraps around with ``reset()`` (the program's caches) at each
    wrap, so every pass starts cold.  Each op's output digest is kept per
    pool index: later passes, the traced replay and the check pass must
    all reproduce it.  Only the op itself is inside its timer.
    """
    times: list[tuple[int, float, float]] = []
    cursor = [0]
    reset()

    def step() -> None:
        idx = cursor[0]
        if idx == len(pool):
            idx = 0
            reset()
        cursor[0] = idx + 1
        res.attempted += 1
        try:
            started = time.perf_counter()
            out = op(idx, *pool[idx])
            times.append((idx, started, time.perf_counter() - started))
        except Exception as exc:  # an op failure is counted, not fatal
            res.failed += 1
            res.notes.append(f"op {idx} raised {exc!r}")
        else:
            d = digest(summarize(out))
            if seen.setdefault(idx, d) != d:
                res.failed += 1
                res.check(False, f"op {idx}: output differs from its first evaluation")

    interleave(budget, step, probes)
    return times


def sweep_end_to_end(
    ctx: Context,
    res: Result,
    pool: list,
    labels: list[int],
    setup_s: float,
    seen: dict[int, str],
    evaluate: Callable[..., Any],
    summarize: Callable[[Any], Any],
    reset: Callable[[], None],
    cold_block: list[int],
    cold_passes: int,
    edits: list,
    tail_samples: int,
) -> None:
    """End-to-end metrics of an in-process sweep.

    ``labels[i]`` is the stratum of ``pool[i]``.  The timed loop
    evaluates the pool for ``--seconds``.  Interleaved with it, every
    pool instance indexed by ``cold_block`` is evaluated
    ``cold_passes`` times right after ``reset()``, and each
    ``(instance, edited)`` pair of ``edits`` evaluates the instance
    untimed and then times the edited one (``incremental_s`` is the
    median).

    Sweeps mix strata whose costs differ by orders of magnitude, and a
    few rare, very slow instances are a property of the seed, so the
    figures are taken per stratum: ``cold_s`` is the cold pass over one
    instance of each stratum at its stratum's median cold time,
    ``ops_per_s`` the throughput on the same mix at the median op time,
    and the latency percentiles are those of the stratum-balanced mix
    (:func:`mix_latency_metrics`, the high one fixed by
    ``tail_samples``).  Every timed sample is rescaled to
    the reference host speed (:meth:`HostSpeed.scaled`) before it is
    aggregated; the figures from the measured samples print as
    ``raw.<name>``.
    """
    #: (stratum, start, seconds) per cold evaluation; (start, seconds) per edit
    cold: list[tuple[int, float, float]] = []
    incremental: list[tuple[float, float]] = []

    def cold_probe(idx: int) -> Callable[[], None]:
        def probe() -> None:
            reset()
            started = time.perf_counter()
            evaluate(*pool[idx])
            cold.append((labels[idx], started, time.perf_counter() - started))
        return probe

    def edit_probe(instance, edited) -> Callable[[], None]:
        def probe() -> None:
            evaluate(*instance)
            started = time.perf_counter()
            evaluate(*edited)
            incremental.append((started, time.perf_counter() - started))
        return probe

    colds = [idx for _ in range(cold_passes) for idx in cold_block]
    keyed = [((j + 0.5) / len(colds), cold_probe(idx)) for j, idx in enumerate(colds)]
    keyed += [((j + 0.5) / len(edits), edit_probe(*pair)) for j, pair in enumerate(edits)]
    probes = [probe for _, probe in sorted(keyed, key=lambda kp: kp[0])]
    times = timed_loop(pool, ctx.seconds, seen, res, lambda i, ts, pf: evaluate(ts, pf),
                       summarize, reset, probes)
    for prefix, adjust in (("raw.", lambda start, elapsed: elapsed), ("", HOST.scaled)):
        by_cold: dict[int, list[float]] = {}
        for label, start, elapsed in cold:
            by_cold.setdefault(label, []).append(adjust(start, elapsed))
        res.add(prefix + "cold_s", sum(median(ts) for ts in by_cold.values()), "s", len(cold))
        res.add(prefix + "incremental_s", median(adjust(*se) for se in incremental), "s",
                len(incremental))
        by_stratum: dict[int, list[float]] = {}
        for idx, start, elapsed in times:
            by_stratum.setdefault(labels[idx], []).append(adjust(start, elapsed))
        mix_s = sum(median(ts) for ts in by_stratum.values())
        res.add(prefix + "ops_per_s", len(by_stratum) / mix_s, "ops/s", len(times))
        mix_latency_metrics(res, by_stratum, tail_samples, prefix)
    scaled_setup(res, setup_s, 1 if ctx.smoke else SETUP_REPS)
    res.add("peak_rss_mb", self_peak_rss_mb(), "MiB", 1)


def traced_pairs(
    ctx: Context,
    res: Result,
    pool: list,
    seen: dict[int, str],
    evaluate: Callable[..., Any],
    traced: Callable[..., Any],
    summarize: Callable[[Any], Any],
    reset: Callable[[], None],
) -> tuple[list[float], list[float]]:
    """Per op, evaluate untraced and then replay traced, each from empty
    caches, for ``--seconds``; returns (untraced, traced) op times.

    Back-to-back pairs see the same host speed, so their ratio is the
    tracing overhead; the replay must compose to the untraced output.
    """
    plain: list[float] = []
    replayed: list[float] = []

    def pair(idx: int, ts, pf):
        reset()
        started = time.perf_counter()
        out = evaluate(ts, pf)
        plain.append(time.perf_counter() - started)
        reset()
        started = time.perf_counter()
        again = traced(idx, ts, pf)
        replayed.append(time.perf_counter() - started)
        res.check(digest(summarize(out)) == digest(summarize(again)),
                  f"op {idx}: traced replay differs from the untraced op")
        return again

    timed_loop(pool, ctx.seconds, seen, res, pair, summarize, reset)
    return plain[: len(replayed)], replayed


def first_of_each(labels: list[int], k: int) -> list[int]:
    """Pool indices of the first ``k`` instances of every stratum."""
    taken: dict[int, int] = {}
    out = []
    for idx, label in enumerate(labels):
        if taken.get(label, 0) < k:
            taken[label] = taken.get(label, 0) + 1
            out.append(idx)
    return out


def edit_pairs(instances: list, samples: int) -> list:
    """(instance, edited) pairs: the instances in turn, with one task's
    wcet scaled by 0.99 (task ``k mod n`` in sample ``k``)."""
    from dataclasses import replace

    from repro.core.model import TaskSet

    pairs = []
    for k in range(samples):
        ts, pf = instances[k % len(instances)]
        tasks = list(ts)
        j = k % len(tasks)
        tasks[j] = replace(tasks[j], wcet=tasks[j].wcet * 0.99)
        pairs.append(((ts, pf), (TaskSet(tasks), pf)))
    return pairs


def timed_setup(ctx: Context, build: Callable[[], Any]) -> tuple[Any, float, list[float]]:
    """Run ``build`` SETUP_REPS times; return (last product, setup_s, rep times).

    ``setup_s`` is the interpreter-start-to-first-rep time (imports)
    plus the median rep, so a slower generator or server start shows
    without one noisy rep deciding the figure.  An earlier rep's product
    is closed (when it has ``close``) before the next rep starts.
    """
    imports = time.perf_counter() - ctx.t0
    reps: list[float] = []
    product = None
    for _ in range(1 if ctx.smoke else SETUP_REPS):
        if hasattr(product, "close"):
            product.close()
        HOST.sample()
        started = time.perf_counter()
        product = build()
        reps.append(time.perf_counter() - started)
    return product, imports + median(reps), reps
