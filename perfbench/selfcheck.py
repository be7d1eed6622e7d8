#!/usr/bin/env python3
"""Self-check of the benchmark itself (not part of the timed runs).

    python3 perfbench/selfcheck.py

1. Smoke: every workload runs at toy size, untraced and traced; each
   run must be correct, fail no op, and print every metric name and
   unit BENCHMARK.json declares for its mode.
2. Planted wrong verdict: every workload runs again with one output
   flipped before its checker sees it (an accepted flag, a partition
   success, a served verdict, a dropped lint finding); the run must
   come out incorrect.

Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

from run import WORKLOADS, declared_metrics, run_workload

import harness

SMOKE_SECONDS = 1.0
SMOKE_SEED = 7


def printed_metrics(result, trace: bool) -> dict[str, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        harness.emit(result, declared_metrics(trace), {"mode": "smoke"})
    return json.loads(out.getvalue().splitlines()[-1])["metrics"]


def main() -> int:
    failures: list[str] = []
    for workload in sorted(WORKLOADS):
        for trace in (False, True):
            res = run_workload(workload, SMOKE_SEED, SMOKE_SECONDS, trace, smoke=True)
            metrics = printed_metrics(res, trace)
            want = {name: unit for name, unit in declared_metrics(trace)}
            got = {name: m["unit"] for name, m in metrics.items()}
            tag = f"{workload} trace={int(trace)}"
            if got != want:
                failures.append(f"{tag}: printed metrics {sorted(got)} != declared")
            if not res.correct or res.failed or not res.attempted:
                failures.append(f"{tag}: correct={res.correct} failed={res.failed} "
                                f"attempted={res.attempted} {res.check_failures[:3]}")
            print(f"smoke {tag}: ok={res.correct} attempted={res.attempted}")
        res = run_workload(workload, SMOKE_SEED, SMOKE_SECONDS, False, smoke=True, plant_wrong=True)
        if res.correct:
            failures.append(f"{workload}: a planted wrong output passed the checks")
        print(f"planted {workload}: caught={not res.correct} ({res.check_failures[:1]})")
    for failure in failures:
        print("FAIL " + failure)
    print("selfcheck " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
