"""The ``service`` workload: ``repro serve`` under one closed-loop client.

Each round sends one cold ``POST /campaigns`` (a cache miss: the job
runs a 150-run campaign with a bootstrap band and writes the store),
then repeats of the same request (cache hits: the job reads and verifies
the stored campaign, recomputes the analysis and writes the job
artifact), then re-analyses of the finished job across the estimators
and both bootstrap kinds.  End-to-end numbers come from the HTTP daemon;
the traced run replays the same requests in-process through
``CampaignService.dispatch`` to see store, artifact and analysis spans.
"""

from __future__ import annotations

import random
import re
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from common import (
    ROOT,
    SETUP_SAMPLES,
    TMP_ROOT,
    HostSpeed,
    Result,
    SeedStream,
    band_analysis,
    campaign_request,
    child_env,
    mean,
    peak_rss_mb_pid,
    setup_sample,
    setup_steps,
)
from layers import (
    DISPATCH_LABELS,
    campaign_layers,
    post_layers,
    service_counters,
    sim_metrics,
)
from ops import (
    HttpTransport,
    InProcessTransport,
    OpLog,
    expected_summary,
    fetch_campaign,
    reanalyse,
)
from spans import Instrumentation, SpanRecorder

#: Cache hits per round (each round also holds one miss and one
#: re-analysis sweep).
HITS_PER_ROUND = 4
#: A run holds one round per this many seconds of ``--seconds``, so
#: every run holds the same operations and tail percentiles are fixed.
#: Re-analysis cost depends on the campaign's samples, so many short
#: rounds (many campaigns) give steadier latencies than a few long ones.
NOMINAL_ROUND_S = 1.0
MIN_ROUNDS = 6
TRACE_ROUNDS = 4
READY_TIMEOUT_S = 60.0


def reanalysis_sweep() -> List[Any]:
    """Every estimator with both bootstrap kinds and a 95% band.

    GEV and POT fits cost ~2 ms on any sample; block-maxima Gumbel costs
    15-30 ms depending on the sample, and ``auto`` costs either,
    depending on the estimator it selects for the sample.
    """
    from repro.api.requests import AnalysisRequest
    from repro.core.analysis import BOOTSTRAP_KINDS

    return [
        AnalysisRequest(method=method, ci=0.95, bootstrap_kind=kind)
        for method in ("block-maxima-gumbel", "gev", "pot-gpd", "auto")
        for kind in BOOTSTRAP_KINDS
    ]


class Server:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, store: Path) -> None:
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli", "serve",
             "--port", "0", "--store", str(store)],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        )
        self.url = ""

    def wait_ready(self) -> float:
        """Seconds from spawn until ``/healthz`` answers."""
        from repro.service.client import ServiceClient, ServiceError

        stdout = self.process.stdout
        assert stdout is not None
        ready, _, _ = select.select([stdout], [], [], READY_TIMEOUT_S)
        line = stdout.readline() if ready else ""
        match = re.search(r"(http://\S+)", line)
        if match is None:
            raise RuntimeError(f"server did not start: {line!r}")
        self.url = match.group(1)
        client = ServiceClient(self.url, timeout=5.0)
        deadline = self.started + READY_TIMEOUT_S
        while True:
            try:
                client.healthz()
                return time.perf_counter() - self.started
            except ServiceError:
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.002)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb_pid(self.process.pid)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.communicate()
        elif self.process.stdout is not None:
            self.process.stdout.close()


@dataclass
class Round:
    request: Any
    miss_text: str
    hit_mismatches: int = 0
    summaries: List[Tuple[Any, Optional[Dict[str, Any]]]] = field(default_factory=list)


def run_mix(
    transport: Any, requests: Sequence[Any], log: OpLog,
    between: Callable[[], None] = lambda: None,
) -> List[Round]:
    """The closed loop: per request one miss, hits, a re-analysis sweep.
    ``between`` runs before each operation, untimed."""
    rounds: List[Round] = []
    sweep = reanalysis_sweep()
    for request in requests:
        between()
        fetched = fetch_campaign(transport, request, log, "miss")
        if fetched is None:
            continue
        job_id, text = fetched
        current = Round(request, text)
        for _ in range(HITS_PER_ROUND):
            between()
            hit = fetch_campaign(transport, request, log, "hit")
            if hit is not None and hit[1] != text:
                current.hit_mismatches += 1
        for analysis in sweep:
            between()
            current.summaries.append(
                (analysis, reanalyse(transport, job_id, analysis, log))
            )
        rounds.append(current)
    return rounds


def verify(rounds: Sequence[Round], log: OpLog, result: Result) -> None:
    """Hits must equal the miss byte for byte; every re-analysis must
    equal the same analysis computed in-process."""
    from repro.api.artifacts import CampaignArtifact

    result.attempted += log.attempted
    for error in log.errors:
        result.fail(error)
    for current in rounds:
        if current.hit_mismatches:
            result.fail(f"{current.hit_mismatches} hit artifacts differ from "
                        "the miss", current.hit_mismatches)
        artifact = CampaignArtifact.from_json(current.miss_text)
        for analysis, summary in current.summaries:
            if summary is None:
                continue
            expected = expected_summary(artifact.samples, artifact.num_runs, analysis)
            if summary != expected:
                result.fail(f"re-analysis {analysis.method}/"
                            f"{analysis.bootstrap_kind} differs from in-process")


def _dispatch_deltas(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, Tuple[int, float]]:
    """Per endpoint: requests served and their summed dispatch ms over
    this run only (``/metrics`` scraped before and after)."""
    deltas = {}
    for label, hist in after["latency_ms"].items():
        old = before["latency_ms"].get(label, {"count": 0, "sum_ms": 0.0})
        deltas[label] = (
            int(hist["count"]) - int(old["count"]),
            float(hist["sum_ms"]) - float(old["sum_ms"]),
        )
    return deltas


def http_phase(
    seeds: SeedStream, rounds: int, setups: int, result: Result,
    host: HostSpeed,
) -> Dict[str, Any]:
    """Spawn the daemon ``setups`` times (keeping the last one), then
    drive the mix over HTTP, timing the host between operations."""
    with tempfile.TemporaryDirectory(dir=TMP_ROOT) as stores:
        servers: List[Server] = []
        try:
            setup_totals = []
            for index in range(setups):
                host.probe()
                servers.append(Server(Path(stores) / f"store-{index}"))
                setup_totals.append(servers[-1].wait_ready())
                if index < setups - 1:
                    servers[-1].stop()
            server = servers[-1]
            transport = HttpTransport(server.url, random.Random(seeds.next()))
            warmup = campaign_request("service", seeds.next(), analysis=band_analysis())
            if fetch_campaign(transport, warmup, OpLog(), "miss") is None:
                raise RuntimeError("warm-up campaign failed")
            transport.client_s.clear()
            requests = [
                campaign_request("service", seeds.next(), analysis=band_analysis())
                for _ in range(rounds)
            ]
            before = transport.client.metrics()
            log = OpLog()
            started = time.perf_counter()
            mix = run_mix(transport, requests, log, host.probe)
            wall = time.perf_counter() - started
            after = transport.client.metrics()
            rss = server.peak_rss_mb()
        finally:
            for server in servers:
                server.stop()
    verify(mix, log, result)
    return {
        "setup": setup_totals, "log": log, "wall": wall, "rss": rss,
        "before": before, "after": after, "client_s": dict(transport.client_s),
        "requests": requests,
    }


def in_process_phase(
    requests: Sequence[Any], recorder: Optional[SpanRecorder]
) -> Tuple[List[Round], OpLog]:
    """The same mix through ``CampaignService.dispatch`` on a fresh store."""
    from repro.service.server import CampaignService

    log = OpLog()
    with tempfile.TemporaryDirectory(dir=TMP_ROOT) as store:
        service = CampaignService(store)
        try:
            with Instrumentation(recorder) if recorder else nullcontext():
                mix = run_mix(InProcessTransport(service), requests, log)
        finally:
            service.close()
    return mix, log


def run(workload: str, seed: int, seconds: float, trace: bool,
        out: Optional[Path]) -> Result:
    result = Result()
    seeds = SeedStream(workload, seed)
    setup_steps(workload, seeds.next())

    host = HostSpeed()
    if not trace:
        rounds = max(MIN_ROUNDS, round(seconds / NOMINAL_ROUND_S))
        http = http_phase(seeds, rounds, SETUP_SAMPLES, result, host)
        log = http["log"]
        runs = http["requests"][0].runs
        misses = log.latency_s["miss"]
        result.host_index = host.index
        result.metric("host_index", host.index, "ratio", len(host.samples),
                      "reference time over nominal, in the client")
        result.timing("setup_s", statistics.median(http["setup"]), "s",
                      len(http["setup"]), "spawn until /healthz answers")
        result.metric("peak_rss_mb", http["rss"], "MB", 1, "server process")
        result.timing("runs_per_s", runs * len(misses) / sum(misses),
                      "1/s", len(misses), f"{runs}-run cold campaigns")
        result.timing("service_ops_per_s", log.ops / log.busy_s, "1/s", log.ops)
        result.latency("miss", misses, tail=False)
        result.latency("hit", log.latency_s["hit"], tail=True)
        result.latency("reanalyse", log.latency_s["reanalyse"], tail=True)
        return result

    setups = [setup_sample(workload, seeds.next()) for _ in range(SETUP_SAMPLES)]
    http = http_phase(seeds, TRACE_ROUNDS, 1, result, host)
    for phase in setups[0][1]:
        result.metric(f"setup.{phase}",
                      statistics.median(p[phase] for _, p in setups), "s",
                      len(setups))

    # Server-side dispatch means and transport from the HTTP run.
    deltas = _dispatch_deltas(http["before"], http["after"])
    client_ms = 0.0
    server_ms = 0.0
    requests_served = 0
    for label, client_s in http["client_s"].items():
        count, total = deltas.get(label, (0, 0.0))
        if not count:
            result.fail(f"/metrics has no {label} requests")
        client_ms += client_s * 1000.0
        server_ms += total
        requests_served += count
    for metric, label in DISPATCH_LABELS.items():
        count, total = deltas.get(label, (0, 0.0))
        result.metric(metric, total / count if count else 0.0, "ms", count,
                      "server-side mean from /metrics")
    result.metric("service.transport_ms",
                  (client_ms - server_ms) / requests_served if requests_served else 0.0,
                  "ms", requests_served, "client latency minus dispatch, per request")
    log = http["log"]
    result.metric("service.wait_ms", mean(log.wait_s["hit"]) * 1000.0, "ms",
                  len(log.wait_s["hit"]), "hits")
    result.metric("service.polls_per_job", mean(log.polls["hit"]), "count",
                  len(log.polls["hit"]), "hits")
    service_counters(result, http["before"]["counters"], http["after"]["counters"])

    # In-process replay of the same requests, untraced then traced.
    recorder = SpanRecorder()
    plain, plain_log = in_process_phase(http["requests"], None)
    traced, traced_log = in_process_phase(http["requests"], recorder)
    verify(traced, traced_log, result)
    result.attempted += plain_log.attempted
    if [r.miss_text for r in plain] != [r.miss_text for r in traced]:
        result.fail("traced and untraced artifacts differ")

    from repro.api.artifacts import CampaignArtifact

    records = [
        record
        for current in traced
        for record in CampaignArtifact.from_json(current.miss_text).records
    ]
    roots = [
        span for span in recorder.spans
        if span.name == "execute_request" and span.parent_id is None
    ]
    campaign_layers(result, recorder, len(roots), len(records),
                    sum(span.duration for span in roots))
    sim_metrics(
        result,
        [record.cycles for record in records],
        [record.metadata["instructions"] for record in records],
        recorder.run_results,
    )
    post_layers(result, recorder)

    def miss_s(run_log: OpLog) -> float:
        return statistics.median(run_log.latency_s["miss"])

    result.metric("trace.overhead_ratio", miss_s(traced_log) / miss_s(plain_log) - 1.0,
                  "ratio", len(traced_log.latency_s["miss"]),
                  "in-process misses")
    if out is not None:
        recorder.dump(out / f"spans-{workload}-{seed}.json")
    return result
