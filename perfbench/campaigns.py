"""The campaign workloads: ``fig2_fixed``, ``fig2_varied``, ``contention``.

A run measures a fixed number of fresh campaigns through
``execute_request`` (each builds its own workload and platform, as one
CLI invocation does).  After each campaign, an in-process
``CampaignService`` serves it from its store: cache hits of the same
request and re-analyses of the hit job.  Interleaving spreads every
metric's samples over the whole run and over several campaigns'
data.  Correctness is checked outside the timed calls: served artifacts
and analyses against in-process results, and a slice of run indices
re-run on the other backend.
"""

from __future__ import annotations

import gc
import json
import statistics
import tempfile
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from common import (
    CAMPAIGNS,
    SETUP_SAMPLES,
    TMP_ROOT,
    HostSpeed,
    Result,
    SeedStream,
    band_analysis,
    campaign_request,
    mean,
    peak_rss_mb_self,
    setup_sample,
    setup_steps,
)
from layers import campaign_layers, dispatch_layers, post_layers, service_counters, sim_metrics
from ops import InProcessTransport, OpLog, expected_summary, fetch_campaign, reanalyse
from spans import Instrumentation, SpanRecorder

#: A run measures one campaign per this many seconds of ``--seconds``
#: (at least ``MIN_CAMPAIGNS``), so the work, the sample counts and the
#: tail percentiles are the same in every run.  Campaign wall-clock
#: varies by 10-20% from one campaign to the next on the reference host,
#: so ``runs_per_s`` needs several campaigns per run.
SECONDS_PER_CAMPAIGN = 2.0
MIN_CAMPAIGNS = 3
#: Cache hits, and re-analyses, served after each campaign; more where
#: they take a millisecond or two.
SERVED_PER_CAMPAIGN = {"fig2_fixed": 6, "fig2_varied": 40, "contention": 6}
#: Run indices re-executed on the other backend by the correctness check.
CHECK_SLICE = {"fig2_fixed": 4, "fig2_varied": 2, "contention": 8}

Campaign = Tuple[Any, Any, float]  # (request, execution, wall-clock seconds)


def campaign_count(seconds: float) -> int:
    return max(MIN_CAMPAIGNS, round(seconds / SECONDS_PER_CAMPAIGN))


def timed_campaign(request: Any) -> Tuple[Any, float]:
    from repro.api import requests

    started = time.perf_counter()
    execution = requests.execute_request(request)
    return execution, time.perf_counter() - started


class Storefront:
    """An in-process campaign service that serves measured campaigns."""

    def __init__(self, store: str, served: int, host: HostSpeed) -> None:
        from repro.service.server import CampaignService

        self.served = served
        self.service = CampaignService(store)
        self.transport = InProcessTransport(self.service)
        self.log = OpLog(host)
        self.mismatches = 0

    def serve(
        self, campaign: Campaign, recorder: Optional[SpanRecorder],
        between: Callable[[], None],
    ) -> None:
        """Store ``campaign``, then alternately fetch it as a cache hit and
        re-analyse the hit job; every response must equal the in-process
        result.  ``between`` runs before each operation, untimed."""
        from repro.api.requests import CampaignExecution
        from repro.core.analysis import AnalysisPipeline

        request, execution, _ = campaign
        analysis = band_analysis()
        hit_request = replace(request, analysis=analysis)
        samples = execution.result.samples
        num_runs = execution.result.num_runs
        expected_text = CampaignExecution(
            request=hit_request, result=execution.result,
            platform=execution.platform,
            analysis=AnalysisPipeline(analysis.analysis_config(num_runs)).run(samples),
        ).artifact().to_json(indent=2) + "\n"
        expected = expected_summary(samples, num_runs, analysis)
        self.service.store.save_campaign(
            request.execution_digest(), execution.artifact()
        )

        context = Instrumentation(recorder) if recorder else nullcontext()
        with context:
            for _ in range(self.served):
                between()
                fetched = fetch_campaign(self.transport, hit_request, self.log, "hit")
                if fetched is None:
                    continue
                self.mismatches += fetched[1] != expected_text
                between()
                summary = reanalyse(self.transport, fetched[0], analysis, self.log)
                if summary is not None:
                    self.mismatches += json.loads(json.dumps(summary)) != expected

    def close(self, result: Result) -> dict:
        """Stop the service; fold its failures into ``result``."""
        counters = dict(self.service.metrics.snapshot()["counters"])
        self.service.close()
        result.attempted += self.log.attempted
        for error in self.log.errors:
            result.fail(error)
        if self.mismatches:
            result.fail(f"{self.mismatches} served artifacts/analyses differ "
                        "from the in-process result", self.mismatches)
        return counters


def _complete(request: Any, execution: Any) -> bool:
    indices = [record.index for record in execution.result.run_details]
    return indices == list(range(request.runs))


def check_slice(
    workload: str, campaign: Campaign, seeds: SeedStream, result: Result
) -> None:
    """Re-run a slice of run indices on the other backend: scalar for the
    batch workloads, the vector engine (``min_group=1``) for varied
    inputs, which ``auto`` runs on the scalar interpreter."""
    from repro.api.backend import execute_batch_indices, execute_one

    request, execution, _ = campaign
    target = request.build_workload()
    platform = request.build_platform()
    target.prepare(platform)
    config = request.campaign_config()
    indices = seeds.sample(range(request.runs), CHECK_SLICE[workload])
    if workload == "fig2_varied":
        records = execute_batch_indices(
            target, platform, config, indices, min_group=1, strict=True
        )
    else:
        records = [execute_one(target, platform, config, i) for i in indices]
    measured = {record.index: record for record in execution.result.run_details}
    bad = [record.index for record in records if measured.get(record.index) != record]
    result.attempted += len(indices)
    if bad or len(records) != len(indices):
        result.fail(f"backend cross-check: runs {bad} differ", max(1, len(bad)))


def run(workload: str, seed: int, seconds: float, trace: bool,
        out: Optional[Path]) -> Result:
    result = Result()
    seeds = SeedStream(workload, seed)
    setup_steps(workload, seeds.next())
    # Only objects the measured operations create are left to collect,
    # and each operation starts from a collected heap.
    gc.freeze()
    host = HostSpeed()

    def between() -> None:
        gc.collect()
        host.probe()

    setups: List[Tuple[float, Dict[str, float]]] = []
    campaign_rec = SpanRecorder()
    served_rec = SpanRecorder() if trace else None
    walls: Dict[bool, List[float]] = {False: [], True: []}  # by traced
    cycles: List[float] = []
    instructions: List[int] = []

    with tempfile.TemporaryDirectory(dir=TMP_ROOT) as store:
        storefront = Storefront(store, SERVED_PER_CAMPAIGN[workload], host)
        try:
            # A traced run pairs every campaign, so it measures fewer.
            count = MIN_CAMPAIGNS if trace else campaign_count(seconds)
            for index in range(count):
                request = campaign_request(workload, seeds.next())
                # A traced run pairs each traced campaign with an untraced
                # one of the same request, alternating which goes first.
                modes = [False] if not trace else (
                    [False, True] if index % 2 == 0 else [True, False]
                )
                executions = {}
                for with_trace in modes:
                    result.attempted += request.runs
                    between()
                    context = (
                        Instrumentation(campaign_rec) if with_trace else nullcontext()
                    )
                    with context:
                        execution, wall = timed_campaign(request)
                    if not _complete(request, execution):
                        result.fail(f"campaign {request.base_seed}: incomplete "
                                    "records", request.runs)
                    walls[with_trace].append(wall)
                    executions[with_trace] = execution
                if trace:
                    records = executions[True].result.run_details
                    if records != executions[False].result.run_details:
                        result.fail(f"campaign {request.base_seed}: traced "
                                    "records differ", request.runs)
                    cycles.extend(record.cycles for record in records)
                    instructions.extend(
                        record.metadata["instructions"] for record in records
                    )
                campaign = (request, executions[trace], walls[trace][-1])
                del executions
                storefront.serve(campaign, served_rec, between)
                if index == 0:
                    check_slice(workload, campaign, seeds, result)
                del campaign
                # Set-up samples are spread over the run, like the others.
                if len(setups) < SETUP_SAMPLES:
                    between()
                    setups.append(setup_sample(workload, seeds.next()))
            between()
            rss = peak_rss_mb_self()
        finally:
            counters = storefront.close(result)
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample(workload, seeds.next()))
    log = storefront.log
    runs = CAMPAIGNS[workload]["runs"]

    if not trace:
        result.host_index = host.index
        result.metric("host_index", host.index, "ratio", len(host.samples),
                      "reference time over nominal")
        result.timing("setup_s", statistics.median(t for t, _ in setups), "s",
                      len(setups))
        result.metric("peak_rss_mb", rss, "MB")
        result.timing("runs_per_s", runs * len(walls[False]) / sum(walls[False]),
                      "1/s", len(walls[False]), f"{runs} runs per campaign")
        result.latency("miss", walls[False], tail=False)
        for kind in ("hit", "reanalyse"):
            result.latency(kind, log.latency_s[kind], tail=True,
                           host=log.host_at[kind])
        result.timing("service_ops_per_s", log.ops / log.busy_s, "1/s", log.ops)
        return result

    for phase in setups[0][1]:
        result.metric(f"setup.{phase}",
                      statistics.median(p[phase] for _, p in setups), "s",
                      len(setups))
    campaign_layers(result, campaign_rec, len(walls[True]), len(cycles),
                    sum(walls[True]))
    sim_metrics(result, cycles, instructions, campaign_rec.run_results)
    if len(campaign_rec.run_results) != len(cycles):
        result.fail(f"captured {len(campaign_rec.run_results)} simulator "
                    f"results for {len(cycles)} runs")
    assert served_rec is not None
    post_layers(result, served_rec)
    dispatch_layers(result, served_rec)
    result.metric("service.transport_ms", 0.0, "ms", 0, "in-process")
    result.metric("service.wait_ms", mean(log.wait_s["hit"]) * 1000.0, "ms",
                  len(log.wait_s["hit"]))
    result.metric("service.polls_per_job", mean(log.polls["hit"]), "count",
                  len(log.polls["hit"]), "in-process jobs are awaited, not polled")
    service_counters(result, {}, counters)
    result.metric("trace.overhead_ratio",
                  sum(walls[True]) / sum(walls[False]) - 1.0, "ratio",
                  len(walls[True]), "untraced over traced runs/s, minus 1")
    if out is not None:
        campaign_rec.dump(out / f"spans-{workload}-{seed}-campaigns.json")
        served_rec.dump(out / f"spans-{workload}-{seed}-served.json")
    return result
