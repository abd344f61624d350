"""Per-layer metrics from recorded spans and simulator results.

Campaign layers are reported per measured campaign (self seconds and
call counts averaged over the traced campaigns); analysis, artifact,
store and dispatch layers per call.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Dict, List, Sequence

from common import Result, mean
from spans import SpanRecorder, self_times

ANALYSIS_STAGES = (
    "normalize", "iid-gate", "tail-fit", "diagnostics", "bootstrap", "envelope",
)

#: Dispatch latency metrics and the endpoint each one times.
DISPATCH_LABELS = {
    "service.submit_dispatch_ms": "POST /campaigns",
    "service.artifact_dispatch_ms": "GET /campaigns/{id}/artifact",
    "service.analyses_dispatch_ms": "POST /campaigns/{id}/analyses",
}


class _Index:
    def __init__(self, recorder: SpanRecorder) -> None:
        self.spans = recorder.spans
        self.self_s = self_times(self.spans)
        self.by_name: Dict[str, List[Any]] = defaultdict(list)
        for span in self.spans:
            self.by_name[span.name].append(span)

    def self_sum(self, *names: str) -> float:
        return sum(
            self.self_s[span.span_id] for name in names for span in self.by_name[name]
        )

    def count(self, name: str) -> int:
        return len(self.by_name[name])

    def attr_sum(self, name: str, attr: str) -> int:
        return sum(int(span.attrs.get(attr, 0)) for span in self.by_name[name])


def campaign_layers(
    result: Result,
    recorder: SpanRecorder,
    campaigns: int,
    runs: int,
    wall_s: float,
) -> None:
    """Layer split of ``campaigns`` traced campaigns of ``runs`` runs in
    total that took ``wall_s`` seconds of campaign wall-clock."""
    idx = _Index(recorder)
    per = 1.0 / campaigns

    def seconds(name: str, value: float, n: int) -> None:
        result.metric(name, value * per, "s", n, "per campaign")

    def count(name: str, value: float, n: int) -> None:
        result.metric(name, value * per, "count", n, "per campaign")

    seconds("workload.prepare_s", idx.self_sum("workload.prepare"),
            idx.count("workload.prepare"))
    plan_calls = idx.count("workload.plan_batch")
    builds = idx.count("workload.trace_build")
    seconds("workload.plan_s",
            idx.self_sum("workload.plan_batch", "workload.build_trace"), plan_calls)
    count("workload.plan_calls", plan_calls, plan_calls)
    seconds("workload.trace_build_s", idx.self_sum("workload.trace_build"), builds)
    count("workload.trace_builds", builds, builds)
    result.metric(
        "workload.plan_reuse_ratio",
        1.0 - builds / plan_calls if plan_calls else 0.0, "ratio", plan_calls,
    )
    finalize_s = idx.self_sum("workload.finalize")
    finalizes = idx.count("workload.finalize")
    seconds("workload.finalize_s", finalize_s, finalizes)
    result.metric(
        "workload.finalize_us_per_run",
        finalize_s / finalizes * 1e6 if finalizes else 0.0, "us", finalizes,
    )

    seconds("backend.dispatch_s", idx.self_sum("backend.execute_batch_indices"),
            idx.count("backend.execute_batch_indices"))
    groups = {
        (span.parent_id, span.attrs["group"])
        for span in idx.by_name["workload.plan_batch"]
        if "group" in span.attrs
    }
    count("backend.groups", len(groups), len(groups))
    batch_lanes = idx.attr_sum("batch.run_batch_segments", "lanes")
    concurrent_lanes = idx.attr_sum("concurrent.run_concurrent_batch", "lanes")
    result.metric(
        "backend.batched_run_ratio",
        (batch_lanes + concurrent_lanes) / runs if runs else 0.0, "ratio", runs,
    )

    for prefix, name in (
        ("batch", "batch.run_batch_segments"),
        ("concurrent", "concurrent.run_concurrent_batch"),
    ):
        engine_s = idx.self_sum(name)
        calls = idx.count(name)
        lane_instructions = idx.attr_sum(name, "lane_instructions")
        seconds(f"{prefix}.engine_s", engine_s, calls)
        count(f"{prefix}.calls", calls, calls)
        result.metric(
            f"{prefix}.ns_per_lane_instr",
            engine_s * 1e9 / lane_instructions if lane_instructions else 0.0,
            "ns", calls,
        )
    result.metric(
        "batch.lanes_per_call",
        batch_lanes / idx.count("batch.run_batch_segments")
        if batch_lanes else 0.0,
        "count", idx.count("batch.run_batch_segments"),
    )

    scalar_s = idx.self_sum("scalar.execute", "scalar.run_concurrent")
    scalar_instructions = idx.attr_sum("scalar.execute", "instructions") + (
        idx.attr_sum("scalar.run_concurrent", "instructions")
    )
    seconds("scalar.execute_s", scalar_s, idx.count("scalar.execute"))
    count("scalar.runs", recorder.scalar_runs, recorder.scalar_runs)
    result.metric(
        "scalar.ns_per_instr",
        scalar_s * 1e9 / scalar_instructions if scalar_instructions else 0.0,
        "ns", idx.count("scalar.execute"),
    )
    seconds("platform.reset_s", idx.self_sum("platform.reset"),
            idx.count("platform.reset"))

    roots = {
        span.span_id for span in idx.by_name["execute_request"]
        if span.parent_id is None
    }
    covered = sum(
        idx.self_s[span.span_id]
        for span in idx.spans
        if span.op_id in roots and span.span_id not in roots
    )
    result.metric(
        "trace.coverage", covered / wall_s, "ratio", len(roots),
        "named-layer self time / campaign wall-clock",
    )


def sim_metrics(
    result: Result,
    cycles: Sequence[float],
    instructions: Sequence[int],
    run_results: Sequence[Any],
) -> None:
    """Simulated-model counts (per-run cycles and instructions from the
    records, cache and bus counts from the engines' run results): exact
    repeats for a given seed."""
    result.metric("sim.cycles_p50", statistics.median(cycles), "cycles", len(cycles))
    result.metric("sim.instructions_per_run", mean(instructions), "count",
                  len(instructions))
    for name, field in (("sim.il1_miss_ratio", "icache"), ("sim.dl1_miss_ratio", "dcache")):
        stats = [getattr(r, field) for r in run_results]
        misses = sum(s.read_misses + s.write_misses for s in stats)
        accesses = sum(s.accesses for s in stats)
        result.metric(name, misses / accesses if accesses else 0.0, "ratio",
                      len(stats))
    waits = [r.bus_contention_cycles for r in run_results]
    result.metric(
        "sim.bus_contention_cycles_p50",
        statistics.median(waits) if waits else 0.0, "cycles", len(waits),
    )


def post_layers(result: Result, recorder: SpanRecorder) -> None:
    """Analysis, artifact and store layers, per call."""
    idx = _Index(recorder)
    runs = idx.count("analysis.normalize")
    for stage in ANALYSIS_STAGES:
        name = f"analysis.{stage}"
        result.metric(f"{name}_s", idx.self_sum(name) / runs if runs else 0.0,
                      "s", idx.count(name), "per pipeline run")

    def per_call(metric: str, name: str) -> None:
        calls = idx.count(name)
        result.metric(metric, idx.self_sum(name) / calls if calls else 0.0,
                      "s", calls, "per call")

    per_call("artifact.to_json_s", "artifact.to_json")
    per_call("artifact.from_json_s", "artifact.from_json")
    per_call("store.load_s", "store.load")
    per_call("store.save_s", "store.save")
    writes = idx.count("artifact.to_json")
    result.metric(
        "artifact.bytes",
        idx.attr_sum("artifact.to_json", "bytes") / writes if writes else 0.0,
        "bytes", writes, "per to_json call",
    )


def dispatch_layers(result: Result, recorder: SpanRecorder) -> None:
    """Server-side dispatch means from in-process ``dispatch`` spans."""
    durations: Dict[str, List[float]] = defaultdict(list)
    for span in recorder.spans:
        if span.name == "service.dispatch":
            durations[span.attrs["label"]].append(span.duration)
    for metric, label in DISPATCH_LABELS.items():
        values = durations[label]
        result.metric(metric, mean(values) * 1000.0, "ms", len(values))


def service_counters(result: Result, before: Dict[str, int], after: Dict[str, int]) -> None:
    """Job-queue counters over this run only (``after - before``)."""

    def delta(name: str) -> int:
        return int(after.get(name, 0)) - int(before.get(name, 0))

    hits, misses = delta("cache_hits_total"), delta("cache_misses_total")
    result.metric("service.cache_hit_ratio",
                  hits / (hits + misses) if hits + misses else 0.0, "ratio",
                  hits + misses)
    result.metric("service.jobs_failed", delta("jobs_failed_total"), "count")
    result.metric("service.store_corrupt", delta("store_corrupt_total"), "count")
    if delta("jobs_failed_total"):
        result.fail(f"{delta('jobs_failed_total')} service jobs failed", 0)
