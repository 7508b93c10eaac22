"""Per-layer metrics of a traced run (``--trace 1``).

Computed counts are labelled ``computed``: they come from argument
shapes in a fixed scope (the replayed replicates of a campaign, or the
first traced item otherwise), so a given seed repeats them exactly.
"""

from __future__ import annotations

import json
import math
import statistics
import time
import tracemalloc

import baseline
import spans
import workloads
from ttpool.kernels import build_gram

#: Per-layer metrics that are the median duration of one span name.
SPAN_MEDIANS = (
    "kernels.build_gram",
    "kernels.resolve_bandwidth",
    "kernels.kernel_matrix",
    "estimators.bootstrap_counts",
    "estimators.batched_quad",
    "estimators.permutation_masks",
    "fusion.equivalence",
    "fusion.classic",
    "causality.partial_bootstrap",
    "causality.partial_permutation",
    "causality.normal_approx",
    "causality.standard_permutation",
    "causality.consistency_diagnostics",
    "pipeline.replicate",
    "simulate.draw_arms",
    "cli.load_dataset",
)
#: Metrics derived from shapes and argument sizes rather than timed.
COMPUTED = ("kernels.entries", "kernels.gram_kept_mb", "estimators.resample_rows", "estimators.quad_flops")
METHODS = ("partial_bootstrap", "partial_permutation", "normal_approx", "standard_permutation")


def _median(values):
    values = list(values)
    return statistics.median(values) if values else None


def gram_memory(wl) -> dict:
    """tracemalloc peak inside ``build_gram`` on the workload's first arms, and computed sizes."""
    spec, arms = wl.sample_arms()
    peaks = []
    for _ in range(3):
        tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        gram = build_gram(spec, *arms)
        peaks.append(tracemalloc.get_traced_memory()[1] - base)
        tracemalloc.stop()
    m, l, n = gram.m, gram.l, gram.n
    entries = (m + l + n) ** 2 + (m + n) ** 2
    kept_mb = 8 * entries / 2**20
    peak_mb = statistics.median(peaks) / 2**20
    return {
        "kernels.gram_peak_mb": (peak_mb, "MB"),
        "kernels.gram_kept_mb": (kept_mb, "MB"),
        "kernels.peak_over_kept": (peak_mb / kept_mb, "ratio"),
        "kernels.entries": (entries, "count"),
    }


def replay(wl, tracer, records) -> tuple[float, list]:
    """Replay the first items' replicates under spans; returns (seconds, scope items)."""
    items = range(math.ceil(workloads.REPLAY_REPLICATES / wl.work))
    start = time.perf_counter()
    tracer.active = True
    try:
        for i in items:
            tracer.item = ("replay", i)
            merged, total = wl.replay(i, tracer)
            campaign = next(r["merged"] for r in records if r["item"] == i)
            print(f"merge share, item {i}: replay {merged}/{total}, campaign {campaign}/{total}")
    finally:
        tracer.active = False
    return time.perf_counter() - start, [("replay", i) for i in items]


def traced_run(args, wl, loop, tracer) -> dict:
    half = args.seconds / 2
    untraced = loop.run(half)
    tracer.install()
    try:
        traced = loop.run(half, traced=True)
        wall = sum(s.end - s.start for s in tracer.spans if s.name == "cli.main")
        if isinstance(wl, workloads.Campaign):
            seconds, scope = replay(wl, tracer, loop.records)
            wall += seconds
            scope_replicates = len(scope) * wl.work
        else:
            scope = [0]
            scope_replicates = wl.work
    finally:
        tracer.uninstall()
    found = tracer.spans
    summary = spans.summarize(found)

    values = {f"{name}.ms": (summary.get(name, {}).get("median_ms"), "ms") for name in SPAN_MEDIANS}
    values["pipeline.self.ms"] = (summary.get("pipeline.replicate", {}).get("self_median_ms"), "ms")
    values["cli.self.ms"] = (summary.get("cli.main", {}).get("self_median_ms"), "ms")
    for method in METHODS:
        values[f"causality.calls.{method}"] = (
            sum(s.name == f"causality.{method}" and s.item in scope for s in found), "count"
        )
    in_scope = [s for s in found if s.item in scope]
    values["estimators.resample_rows"] = (
        sum(s.attrs.get("rows", 0) for s in in_scope) / scope_replicates, "rows/rep"
    )
    values["estimators.quad_flops"] = (
        sum(s.attrs.get("flops", 0) for s in in_scope) / scope_replicates, "flop/rep"
    )
    fusions = [s.attrs["merged"] for s in found if s.name.startswith("fusion.") and "merged" in s.attrs]
    values["fusion.merge_share"] = (sum(fusions) / len(fusions) if fusions else None, "share")
    for name, key in (("simulate.run_campaign", "campaign"), ("simulate.null_study", "null_study")):
        values[f"simulate.{key}.replicate_ms"] = (
            _median(s.ms / s.attrs["replicates"] for s in found if s.name == name), "ms"
        )
    for layer, share in spans.layer_shares(found, wall).items():
        values[f"{layer}.share"] = (share, "share")
    values["trace.overhead"] = ((len(traced) / sum(traced)) / (len(untraced) / sum(untraced)), "ratio")
    values.update(gram_memory(wl))
    speedup = None
    if wl.workers > 1:
        k = min(len(untraced), workloads.KEEP_TSVS)
        serial, problems = wl.compare_worker_counts(range(k), wl.outdir / "workers1")
        if problems:
            loop.fail("worker-count comparison", problems)
        speedup = sum(serial) / sum(untraced[:k])
    values["simulate.pool_speedup"] = (speedup, "ratio")
    measured = baseline.measure(args.seed)
    for shape, rows in measured.items():
        for row, ms in rows.items():
            values[f"baseline.{shape}.{row}.ms"] = (ms, "ms")

    print("spans (calls, median ms, self median ms, total ms):")
    for name, s in summary.items():
        print(f"  {name:<40}{s['calls']:>7}{s['median_ms']:>11.3f}{s['self_median_ms']:>11.3f}{s['total_ms']:>12.1f}")
    print("\n".join(baseline.table(measured)))
    print(f"count scope: {scope} ({scope_replicates} {wl.unit})")
    for name, (value, unit) in values.items():
        shown = "n/a (no calls on this workload)" if value is None else f"{value:.6g} {unit}"
        if name in COMPUTED:
            shown += " (computed)"
        print(f"per-layer {name} = {shown}")
    (wl.outdir / f"spans-seed{args.seed}.jsonl").write_text(
        "".join(json.dumps(vars(s), default=str) + "\n" for s in found)
    )
    return values
