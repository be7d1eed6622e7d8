#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload sweep-implicit --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (no install step: ``src/`` is put
on the import path).  The inputs are generated from ``--seed``; the
program is driven only through its public entry points.  ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` the per-layer metrics from
a separate traced replay.  The last stdout line is the JSON result.
See perfbench/README.md for the workloads and how to read the output.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

WORKLOADS = {
    "sweep-implicit": "sweep_implicit",
    "sweep-constrained": "sweep_constrained",
    "serve-zipf": "serve_zipf",
    "lint-synth": "lint_synth",
}


def declared_metrics(trace: bool) -> list[tuple[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    smoke: bool = False,
    plant_wrong: bool = False,
):
    """Run one workload in this process and return its Result."""
    import harness

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise harness.BenchError(f"no program sources under {src}")
    # the default backend is what is measured, whatever the caller's shell says
    os.environ.pop("REPRO_KERNEL_BACKEND", None)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    ctx = harness.Context(
        workload=workload,
        seed=seed,
        seconds=seconds,
        trace=trace,
        t0=T0,
        root=ROOT,
        work=ROOT / ".perfbench_work",
        smoke=smoke,
        plant_wrong=plant_wrong,
    )
    module = importlib.import_module(WORKLOADS[workload])
    return module.run(ctx)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import harness

    try:
        names = declared_metrics(bool(args.trace))
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        harness.emit(result, names, harness.host_info())
    except (harness.BenchError, OSError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
