"""Deterministic async job queue for campaign execution.

Submissions flow ``queued -> running -> done`` (or ``failed``), with
per-job progress wired from the runner's progress callback.  Two
determinism levers make the queue service-grade without giving up
reproducibility:

* **Coalescing** — a submission whose *complete* request (including
  provenance knobs: :meth:`~repro.api.requests.CampaignRequest.digest`)
  matches a job already queued or running joins that job instead of
  enqueuing a duplicate; concurrent identical submissions execute the
  campaign exactly once.
* **Cache hits** — before executing, a worker consults the
  :class:`~repro.service.store.PersistentStore` under the request's
  :meth:`~repro.api.requests.CampaignRequest.execution_digest`.  A hit
  serves the stored measurements (recomputing the requested analysis,
  which is deterministic) without touching the simulator, so repeated
  submissions of the same campaign — across restarts and across
  processes sharing the store — cost one execution total.

Workers default to one thread: jobs then execute strictly in
submission order.  More workers trade that ordering for throughput;
individual campaign results are deterministic either way.
"""

from __future__ import annotations

import queue
import threading
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..api.artifacts import ArtifactCorrupt, analysis_summary, splice_analysis
from ..api.requests import CampaignRequest, execute_request
from .metrics import ServiceMetrics
from .store import PersistentStore, VerifiedFile

__all__ = ["Job", "JobQueue"]

_STATES = ("queued", "running", "done", "failed")


@dataclass
class Job:
    """One submitted campaign and its lifecycle state."""

    job_id: str
    request: CampaignRequest
    execution_digest: str
    state: str = "queued"
    cached: bool = False
    error: Optional[str] = None
    progress_done: int = 0
    progress_total: int = 0
    finished: threading.Event = field(default_factory=threading.Event)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe view served by ``GET /campaigns/{id}``."""
        return {
            "id": self.job_id,
            "state": self.state,
            "cached": self.cached,
            "execution_digest": self.execution_digest,
            "progress": {
                "done": self.progress_done,
                "total": self.progress_total,
            },
            "error": self.error,
            "request": self.request.to_dict(),
        }


class JobQueue:
    """FIFO campaign executor with coalescing and a persistent cache."""

    def __init__(
        self,
        store: PersistentStore,
        metrics: ServiceMetrics,
        workers: int = 1,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.store = store
        self.metrics = metrics
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._inflight: Dict[str, Job] = {}
        self._seq = 0
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._workers = [
            threading.Thread(
                target=self._worker, name=f"campaign-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    # -- submission -----------------------------------------------------
    def submit(self, request: CampaignRequest) -> Tuple[Job, bool]:
        """Enqueue ``request``; returns ``(job, created)``.

        ``created=False`` means the submission coalesced onto an
        identical job already queued or running.  Completed jobs never
        coalesce — a fresh job is created and (normally) resolves as a
        store cache hit instead.
        """
        coalesce_key = request.digest()
        execution_digest = request.execution_digest()
        with self._lock:
            existing = self._inflight.get(coalesce_key)
            if existing is not None:
                self.metrics.incr("jobs_coalesced_total")
                return existing, False
            self._seq += 1
            job = Job(
                job_id=f"job-{self._seq:06d}",
                request=request,
                execution_digest=execution_digest,
                progress_total=request.runs,
            )
            self._jobs[job.job_id] = job
            self._inflight[coalesce_key] = job
        self.metrics.incr("jobs_submitted_total")
        self._queue.put(job.job_id)
        return job, True

    # -- queries --------------------------------------------------------
    def get(self, job_id: str) -> Optional[Job]:
        """The job with this id, or None."""
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        """Every known job, sorted by id (= submission order)."""
        with self._lock:
            return [self._jobs[job_id] for job_id in sorted(self._jobs)]

    def state_counts(self) -> Dict[str, int]:
        """``state -> count`` over all known jobs (all states present)."""
        counts = {state: 0 for state in _STATES}
        for job in self.jobs():
            counts[job.state] += 1
        return counts

    def wait(self, job_id: str, timeout: Optional[float] = None) -> Job:
        """Block until the job reaches ``done``/``failed``.

        Raises ``KeyError`` for unknown ids and ``TimeoutError`` when
        ``timeout`` elapses first.
        """
        job = self.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        if not job.finished.wait(timeout):
            raise TimeoutError(f"{job_id} still {job.state} after {timeout}s")
        return job

    # -- execution ------------------------------------------------------
    def _worker(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                self._queue.task_done()
                return
            job = self.get(job_id)
            try:
                if job is not None:
                    self._execute(job)
            finally:
                self._queue.task_done()

    def _execute(self, job: Job) -> None:
        with self._lock:
            job.state = "running"
        try:
            text, verified = self._materialize(job)
            self.store.save_job_artifact(job.job_id, text, verified)
            with self._lock:
                job.state = "done"
            self.metrics.incr("jobs_completed_total")
        except Exception as exc:  # worker threads must survive any job
            with self._lock:
                job.state = "failed"
                job.error = "".join(
                    traceback.format_exception_only(type(exc), exc)
                ).strip()
            self.metrics.incr("jobs_failed_total")
        finally:
            with self._lock:
                self._inflight.pop(job.request.digest(), None)
            job.finished.set()

    def _materialize(self, job: Job) -> Tuple[str, VerifiedFile]:
        """The job's response artifact text (cache hit or fresh run).

        Both paths build it from the bare campaign text the store
        holds, splicing in the analysis section — the campaign itself
        is encoded at most once, when it is first measured.
        """
        cached = self._cached_campaign(job.execution_digest)
        if cached is not None:
            text, verified = cached
            with self._lock:
                job.cached = True
                job.progress_done = verified.num_runs
                job.progress_total = verified.num_runs
            self.metrics.incr("cache_hits_total")
            summary = self._requested_analysis(job.request, verified)
        else:
            self.metrics.incr("cache_misses_total")

            def progress(done: int, total: int) -> None:
                with self._lock:
                    job.progress_done = done
                    job.progress_total = total

            execution = execute_request(job.request, progress=progress)
            artifact = execution.artifact()
            self.metrics.incr(f"runs_executed_total.{execution.result.backend}")
            text, verified = self.store.save_campaign(
                job.execution_digest, artifact
            )
            summary = artifact.analysis
        if summary is not None:
            text = splice_analysis(text, verified.content, summary)
        return text, verified

    def _cached_campaign(
        self, digest: str
    ) -> Optional[Tuple[str, VerifiedFile]]:
        """The stored bare campaign, or None (corruption = cache miss)."""
        if not self.store.has_campaign(digest):
            return None
        try:
            return self.store.load_campaign_text(digest)
        except ArtifactCorrupt:
            self.metrics.incr("store_corrupt_total")
            return None

    @staticmethod
    def _requested_analysis(
        request: CampaignRequest, verified: VerifiedFile
    ) -> Optional[Dict[str, Any]]:
        """Recompute the requested analysis summary on cached measurements.

        Deterministic: the same request over the same samples yields
        the same summary the fresh-run path embeds, keeping cache-hit
        artifacts bit-identical to freshly executed ones.
        """
        if request.analysis is None:
            return None
        from ..core.analysis import AnalysisPipeline

        config = request.analysis.analysis_config(verified.num_runs)
        return analysis_summary(AnalysisPipeline(config).run(verified.samples))

    # -- shutdown -------------------------------------------------------
    def close(self, timeout: Optional[float] = None) -> None:
        """Stop accepting work and join the worker threads."""
        for _ in self._workers:
            self._queue.put(None)
        for thread in self._workers:
            thread.join(timeout)
