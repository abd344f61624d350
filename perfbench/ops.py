"""Client operations against the campaign service, in-process or over HTTP.

Both transports expose the same four calls, so one closed loop
measures the HTTP daemon (``repro serve``) and the in-process
``CampaignService`` the daemon wraps.  An operation is either a campaign
fetch (submit, wait until done, fetch the artifact text) or a
re-analysis (one ``POST /campaigns/{id}/analyses``).
"""

from __future__ import annotations

import json
import random
import time
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

#: Job polling over HTTP sleeps this share of the time waited so far,
#: and at least ``MIN_POLL_S``.  A poll costs ~3 ms of round trip, so
#: cache hits (~15 ms) see a poll every ~5 ms, while a cold campaign
#: (~1.3 s) is polled ~60 times, not ~250, and its end is seen at most
#: 2% late.  A fixed interval near the hit latency would see every hit
#: end on the same poll, hiding the job's own time.
POLL_FRACTION = 0.02
MIN_POLL_S = 0.002
JOB_TIMEOUT_S = 120.0


class OpFailed(Exception):
    """A non-2xx response or a failed job."""


class InProcessTransport:
    """``CampaignService.dispatch`` without a socket; waits on the job."""

    def __init__(self, service: Any) -> None:
        self.service = service

    def _call(self, method: str, path: str, body: str = "") -> str:
        status, text, _ = self.service.dispatch(method, path, body)
        if not 200 <= status < 300:
            raise OpFailed(f"{method} {path} -> {status}: {text[:200]}")
        return str(text)

    def submit(self, request: Any) -> str:
        reply = json.loads(self._call("POST", "/campaigns", request.to_json()))
        return str(reply["job"]["id"])

    def wait(self, job_id: str) -> int:
        job = self.service.jobs.wait(job_id, timeout=JOB_TIMEOUT_S)
        if job.state != "done":
            raise OpFailed(f"{job_id} {job.state}: {job.error}")
        return 0

    def artifact_text(self, job_id: str) -> str:
        return self._call("GET", f"/campaigns/{job_id}/artifact")

    def analyse(self, job_id: str, analysis: Any) -> Dict[str, Any]:
        reply = self._call(
            "POST", f"/campaigns/{job_id}/analyses", analysis.to_json()
        )
        return dict(json.loads(reply)["analysis"])


class HttpTransport:
    """One closed-loop ``ServiceClient``; times every request it makes."""

    def __init__(self, url: str, rng: random.Random) -> None:
        from repro.service.client import ServiceClient

        self.client = ServiceClient(url, timeout=JOB_TIMEOUT_S)
        self.client_s: Dict[str, float] = defaultdict(float)
        self.rng = rng
        #: Seconds from one poll to the next at the shortest interval.
        self.poll_cycle = MIN_POLL_S

    def _timed(self, label: str, fn: Any, *args: Any) -> Any:
        started = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.client_s[label] += time.perf_counter() - started

    def submit(self, request: Any) -> str:
        reply = self._timed("POST /campaigns", self.client.submit, request)
        return str(reply["job"]["id"])

    def wait(self, job_id: str) -> int:
        """Poll until the job is done; returns the number of polls.

        The first poll waits a random share of one poll cycle, so the
        delay in seeing a job end is uniform rather than set by a grid
        that starts at submission: hits whose job time sits near a grid
        step would otherwise split between two latencies.
        """
        started = time.perf_counter()
        time.sleep(self.rng.uniform(0.0, self.poll_cycle))
        polls = 0
        while True:
            polled = time.perf_counter()
            snapshot = self._timed("GET /campaigns/{id}", self.client.job, job_id)
            self.poll_cycle = MIN_POLL_S + time.perf_counter() - polled
            polls += 1
            state = snapshot.get("state")
            if state == "done":
                return polls
            waited = time.perf_counter() - started
            if state == "failed" or waited > JOB_TIMEOUT_S:
                raise OpFailed(f"{job_id} {state}: {snapshot.get('error')}")
            time.sleep(max(MIN_POLL_S, waited * POLL_FRACTION))

    def artifact_text(self, job_id: str) -> str:
        return str(
            self._timed(
                "GET /campaigns/{id}/artifact", self.client.artifact_text, job_id
            )
        )

    def analyse(self, job_id: str, analysis: Any) -> Dict[str, Any]:
        reply = self._timed(
            "POST /campaigns/{id}/analyses", self.client.analyse, job_id, analysis
        )
        return dict(reply["analysis"])


class OpLog:
    """Latencies, waits and failures of one closed loop, by op kind.

    With ``host`` (a ``HostSpeed`` probed just before each operation in
    this process), each latency is kept with the host index it ran at.
    """

    def __init__(self, host: Any = None) -> None:
        self.host = host
        self.latency_s: Dict[str, List[float]] = defaultdict(list)
        self.host_at: Dict[str, List[float]] = defaultdict(list)
        self.wait_s: Dict[str, List[float]] = defaultdict(list)
        self.polls: Dict[str, List[int]] = defaultdict(list)
        self.attempted = 0
        self.errors: List[str] = []

    @property
    def ops(self) -> int:
        return sum(len(values) for values in self.latency_s.values())

    @property
    def busy_s(self) -> float:
        """Time spent inside operations."""
        return sum(sum(values) for values in self.latency_s.values())

    def record(self, kind: str, seconds: float) -> None:
        self.latency_s[kind].append(seconds)
        if self.host is not None:
            self.host_at[kind].append(self.host.last)


def fetch_campaign(
    transport: Any, request: Any, log: OpLog, kind: str
) -> Optional[Tuple[str, str]]:
    """Submit ``request``, wait for it and fetch its artifact text."""
    log.attempted += 1
    started = time.perf_counter()
    try:
        job_id = transport.submit(request)
        submitted = time.perf_counter()
        polls = transport.wait(job_id)
        finished = time.perf_counter()
        text = transport.artifact_text(job_id)
    except (OpFailed, OSError, KeyError, ValueError) as exc:
        log.errors.append(f"{kind}: {exc}")
        return None
    log.record(kind, time.perf_counter() - started)
    log.wait_s[kind].append(finished - submitted)
    log.polls[kind].append(polls)
    return job_id, text


def reanalyse(
    transport: Any, job_id: str, analysis: Any, log: OpLog
) -> Optional[Dict[str, Any]]:
    """One re-analysis of a finished job."""
    log.attempted += 1
    started = time.perf_counter()
    try:
        summary = transport.analyse(job_id, analysis)
    except (OpFailed, OSError, KeyError, ValueError) as exc:
        log.errors.append(f"reanalyse: {exc}")
        return None
    log.record("reanalyse", time.perf_counter() - started)
    return summary


def expected_summary(samples: Any, num_runs: int, analysis: Any) -> Any:
    """The in-process analysis summary a re-analysis must return."""
    from repro.api.artifacts import analysis_summary
    from repro.core.analysis import AnalysisPipeline

    config = analysis.analysis_config(num_runs)
    summary = analysis_summary(AnalysisPipeline(config).run(samples))
    return json.loads(json.dumps(summary))
