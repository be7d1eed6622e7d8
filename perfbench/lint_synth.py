"""lint-synth: the linter on a seeded synthetic project.

The input is :mod:`synthproject` written to a scratch directory in the
checkout.  It has more modules than the repository's own ``src/`` (but
fewer lines; see README.md) and is independent of it, so a change that
edits ``src/`` does not change the input.  A run interleaves
whole-program lints with no cache (``cold_s``) with the ops: edits of
leaf modules that nothing imports, each followed by ``lint_changed``,
the local pre-commit path (``incremental_s`` is their median).  After
the timed phase, an edit of the hub module that every other module
imports checks that ``lint_changed`` falls back to the whole program.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path

import harness
import synthproject
from harness import Context, Result, Tracer, median

from repro.lint import LintConfig, lint_changed, lint_paths

#: cold lints per run, interleaved with the leaf-edit ops
COLD_RUNS = 4
#: sample count that fixes op_p99_ms's percentile (the slowest runs seen
#: completed about 30 leaf edits, the fastest 180)
TAIL_SAMPLES = 40


class Project:
    """The synthetic project on disk plus its warm lint cache."""

    def __init__(self, ctx: Context):
        files, self.planted, self.leaves = synthproject.generate(ctx.seed, ctx.smoke)
        self.hub = synthproject.HUB
        self.inputs = harness.digest(sorted(files.items()))
        self.root = ctx.work / f"lint-{ctx.seed}-{time.monotonic_ns()}"
        for rel, source in files.items():
            path = self.root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source)
        self.files = files
        self.generation = 0

    def config(self, cache: bool) -> LintConfig:
        return LintConfig(root=self.root, cache_path=self.root / ".lintcache" if cache else None)

    def lint_all(self, cache: bool):
        return lint_paths([self.root / "src"], self.config(cache))

    def edit_and_lint(self, rel: str, tracer: Tracer | None = None):
        """Edit one module (content changes, findings do not) and run the
        pre-commit entry point on it."""
        self.generation += 1
        (self.root / rel).write_text(synthproject.edit(self.files[rel], self.generation))
        args = ([self.root / rel], self.config(True))
        kw = {"search_paths": [self.root / "src"]}
        if tracer is None:
            return lint_changed(*args, **kw)
        return tracer.call("lint.lint_changed", lint_changed, *args, **kw)

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def found(result) -> list[tuple[str, str, int]]:
    return sorted((f.rule, f.path, f.line) for f in result.findings)


def run(ctx: Context) -> Result:
    res = Result()
    project, gen_s, reps = harness.timed_setup(ctx, lambda: Project(ctx))
    try:
        # untimed warm-up: populate the incremental cache
        started = time.perf_counter()
        warm = project.lint_all(cache=True)
        setup_s = gen_s + time.perf_counter() - started
        res.check(found(warm) == project.planted, "warm-up run: findings != planted set")
        if ctx.trace:
            cold = per_layer(ctx, res, project, reps)
        else:
            cold = end_to_end(ctx, res, project, setup_s)
        got = found(cold)
        if ctx.plant_wrong:
            got = got[1:]
        res.check(got == project.planted, f"cold run: missing {sorted(set(project.planted) - set(got))}, "
                                          f"unexpected {sorted(set(got) - set(project.planted))}")
        harness.check_fingerprints(ctx, res, project.inputs, harness.digest(got))
    finally:
        project.close()
    return res


def timed(res: Result, fn, *args):
    """(output, start, seconds) of one counted call."""
    res.attempted += 1
    started = time.perf_counter()
    out = fn(*args)
    return out, started, time.perf_counter() - started


def leaf_ops(ctx: Context, res: Result, project: Project, budget: float,
             tracer: Tracer | None = None, probes=()) -> list[tuple[float, float]]:
    """Edit leaf modules round robin for ``budget`` seconds, with
    ``probes`` interleaved (see :func:`harness.interleave`); return
    (start, seconds) per op.  With a tracer, every second op is traced,
    so traced and untraced ops alternate under the same host
    conditions."""
    times: list[tuple[float, float]] = []

    def step() -> None:
        leaf = project.leaves[len(times) % len(project.leaves)]
        spans = tracer if tracer and len(times) % 2 else None
        sid = spans.begin("lint.leaf_edit") if spans else -1
        (scoped, reason), started, elapsed = timed(res, project.edit_and_lint, leaf, spans)
        if spans:
            spans.end(sid)
        times.append((started, elapsed))
        if reason is not None or scoped.findings or scoped.stats.analyzed != 1:
            res.failed += 1
            res.check(False, f"leaf edit of {leaf}: reason={reason} analyzed={scoped.stats.analyzed}")

    harness.interleave(budget, step, probes)
    return times


def hub_edit(res: Result, project: Project) -> tuple[float, float, object]:
    """Edit the hub: ``lint_changed`` must fall back to the whole program."""
    (full, reason), started, elapsed = timed(res, project.edit_and_lint, project.hub)
    if reason is None or found(full) != project.planted:
        res.failed += 1
        res.check(False, f"hub edit: reason={reason} findings={found(full)}")
    return started, elapsed, full


def end_to_end(ctx: Context, res: Result, project: Project, setup_s: float):
    """End-to-end metrics; every timed sample is rescaled to the
    reference host speed (``raw.<name>`` keeps the measured figures)."""
    colds: list[tuple[object, float, float]] = []
    probes = [lambda: colds.append(timed(res, project.lint_all, False))] * COLD_RUNS
    times = leaf_ops(ctx, res, project, ctx.seconds, probes=probes)
    hub = hub_edit(res, project)[:2]
    for prefix, adjust in (("raw.", lambda start, elapsed: elapsed), ("", harness.HOST.scaled)):
        leaf = [adjust(*se) for se in times]
        res.add(prefix + "cold_s", median(adjust(*se) for _, *se in colds), "s", len(colds))
        res.add(prefix + "incremental_s", median(leaf), "s", len(leaf))
        res.add(prefix + "hub_edit_s", adjust(*hub), "s", 1)
        res.add(prefix + "ops_per_s", len(leaf) / sum(leaf), "ops/s", len(leaf))
        harness.mix_latency_metrics(res, {0: leaf}, TAIL_SAMPLES, prefix)
    harness.scaled_setup(res, setup_s, 1 if ctx.smoke else harness.SETUP_REPS)
    res.add("peak_rss_mb", harness.self_peak_rss_mb(), "MiB", 1)
    return colds[0][0]


def per_layer(ctx: Context, res: Result, project: Project, reps: list[float]):
    res.add("workloads.gen_ms", 1e3 * median(reps), "ms", len(reps))
    tracer = Tracer()
    cold, _, cold_s = timed(res, tracer.call, "lint.cold", project.lint_all, False)
    allhit, _, allhit_s = timed(res, tracer.call, "lint.all_hit", project.lint_all, True)
    files = cold.stats.files
    res.add("lint.phase1_ms_per_file", 1e3 * (cold_s - allhit_s) / files, "ms", files)
    res.add("lint.phase2_ms", 1e3 * allhit_s, "ms", 1)
    res.add("lint.effect_iterations", cold.stats.fixpoint_iterations, "count", 1)
    res.add("lint.unit_iterations", cold.stats.unit_fixpoint_iterations, "count", 1)
    for rule, seconds in sorted(cold.stats.rule_timings.items()):
        res.add(f"lint.rule_ms.{rule}", 1e3 * seconds, "ms", 1)
    res.check(found(allhit) == project.planted, "all-hit run: findings != planted set")
    res.check(allhit.stats.cache_hits == files, "all-hit run re-analyzed files")
    (scoped, _), _, _ = timed(res, project.edit_and_lint, project.leaves[0])
    res.add("lint.cache_hit_ratio", scoped.stats.cache_hits / scoped.stats.files, "ratio", scoped.stats.files)
    _, hub_s, full = hub_edit(res, project)
    stats = full.stats
    res.add("lint.reanalyzed_files", stats.analyzed, "count", stats.files)
    times = leaf_ops(ctx, res, project, max(1.0, ctx.seconds - (cold_s + allhit_s + hub_s)), tracer)
    plain, traced = [t for _, t in times[0::2]], [t for _, t in times[1::2]]
    harness.trace_summary(ctx, res, tracer, "lint.leaf_edit", len(traced) / sum(traced), len(plain) / sum(plain))
    return cold
