"""Parallel campaign execution with a deterministic merge.

:class:`CampaignRunner` is the single driver behind every measurement
campaign.  It owns the paper's per-run seeding discipline (delegated to
:class:`~repro.harness.campaign.CampaignConfig`: every run ``r`` derives
an independent platform seed and workload-input seed from the campaign's
base seed) and executes any :class:`~repro.api.workload.Workload` either
serially or across ``shards`` forked worker processes.

Determinism argument: per-run seeds depend only on ``(base_seed,
run_index)`` and every run starts from a full platform reset, so a
run's observation is independent of which process executes it and of
every other run.  Shards receive disjoint index ranges and the parent
merges records **by run index**, hence serial and sharded campaigns are
bit-identical — verified by the shard-determinism tests.

**Adaptive campaigns** (``convergence=ConvergencePolicy(...)``): instead
of burning a fixed run budget, the campaign halts once the MBPTA
convergence criterion holds — per-path
:class:`~repro.core.convergence.ConvergenceMonitor` instances consume
observations *in run-index order* and ``config.runs`` becomes the cap.
The sharded form assigns each shard the strided index set
``shard_id, shard_id + shards, ...`` so all shards advance through low
indices together, streams every record back to the parent as it
completes, and the parent feeds the monitors from the contiguous prefix
of arrived indices.  The stopping decision is therefore a pure function
of the records in index order — the same function the serial loop
evaluates — so the surviving record set (indices below the stopping
point) is bit-identical to a serial adaptive campaign; shards are told
to stop via a shared event and overshoot by at most one run each, which
the parent discards.

Parallelism uses the ``fork`` start method (workloads hold linked
program images with closures that do not pickle; forked children inherit
them for free).  Where ``fork`` is unavailable the runner silently
degrades to serial execution — results are identical either way.

**Execution backends** (``backend="scalar"|"batch"|"auto"``): every
backend measures through one path,
:func:`~repro.api.backend.execute_batch_indices`, which groups the
runs' trace plans (``Workload.plan_batch``) and measures each group on
a vector engine — :mod:`repro.platform.batch` for single-core plans,
:mod:`repro.platform.batch_concurrent` for co-scheduled contention
scenarios — or run by run on the scalar drain.  The backend only sets
the smallest group that goes to an engine: none under ``"scalar"``,
:data:`~repro.api.backend.AUTO_MIN_GROUP` runs under ``"auto"`` (the
default, which runs scalar wherever the engines cannot), every group
under ``"batch"``.  Engines and drain agree bit for bit, so the
choice never changes an observation; it composes with fork-sharding
(each shard groups its own index stride) and with adaptive campaigns,
which measure in index blocks (one run under ``"scalar"``) and discard
overshoot beyond the convergence point exactly as the sharded path
already does.  ``backend="batch"`` is strict: a campaign or run group
the engines cannot describe raises with the engine's reason instead of
silently degrading.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as pyqueue
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

if TYPE_CHECKING:
    from multiprocessing.process import BaseProcess
    from multiprocessing.queues import Queue as MpQueue
    from multiprocessing.synchronize import Event as MpEvent

    from .requests import CampaignRequest

from ..core.convergence import (
    CampaignConvergence,
    CampaignConvergenceSummary,
    ConvergencePolicy,
)
from ..harness.campaign import CampaignConfig, CampaignResult
from ..harness.measurements import PathSamples
from ..harness.records import RunRecord
from ..platform.soc import Platform
from .backend import (
    AUTO_MIN_GROUP,
    SCALAR_MIN_GROUP,
    execute_batch_indices,
    pin_worker_threads,
    resolve_backend,
    validate_backend,
)
from .workload import Workload

__all__ = ["CampaignRunner", "default_shards"]

Progress = Callable[[int, int], None]


def default_shards(runs: int) -> int:
    """A sensible shard count: one per core, capped by the run count."""
    cores = os.cpu_count() or 1
    return max(1, min(cores, runs))


#: Adaptive campaigns that batch execute in index blocks of at least
#: this many runs between convergence re-checks; overshoot past the
#: stopping point is discarded, so the block size never changes the
#: result.  Scalar adaptive campaigns use blocks of one run.
_MIN_ADAPTIVE_BLOCK = 16


def _shard_worker(
    queue: "MpQueue[Any]",
    workload: Workload,
    platform: Platform,
    config: CampaignConfig,
    shard_id: int,
    indices: Sequence[int],
    report: bool,
    min_group: int,
    strict: bool,
) -> None:
    """Child-process body: execute one shard and ship its records back."""
    pin_worker_threads()
    try:
        def on_record(_record: RunRecord) -> None:
            queue.put(("progress", shard_id))

        records = execute_batch_indices(
            workload, platform, config, indices, min_group,
            on_record if report else None, strict,
        )
        queue.put(("done", shard_id, records, None))
    except BaseException as exc:  # surface the failure in the parent
        queue.put(("done", shard_id, [], repr(exc)))


def _note_dead_workers(
    workers: "Sequence[BaseProcess]",
    reported: Set[int],
    errors: List[str],
) -> None:
    """Record shards killed by a signal/OOM: they never post their
    "done" message, so the receive loop would block forever without
    this scan on queue timeouts."""
    for shard_id, worker in enumerate(workers):
        if (
            shard_id not in reported
            and not worker.is_alive()
            and worker.exitcode not in (0, None)
        ):
            reported.add(shard_id)
            errors.append(
                f"shard {shard_id}: worker died with "
                f"exit code {worker.exitcode}"
            )


def _adaptive_worker(
    queue: "MpQueue[Any]",
    stop_event: "MpEvent",
    workload: Workload,
    platform: Platform,
    config: CampaignConfig,
    shard_id: int,
    indices: Sequence[int],
    min_group: int,
    block: int,
    strict: bool,
) -> None:
    """Child-process body for adaptive campaigns: stream records back one
    by one and bail out as soon as the parent signals convergence.

    The shard's stride executes in index blocks — records still stream
    back per run (in index order within a block), and the stop event is
    honoured between blocks; the parent discards everything at or
    beyond the stopping point, so the overshoot a block may add never
    reaches the surviving record set.
    """
    pin_worker_threads()
    try:
        stride = list(indices)
        for start in range(0, len(stride), block):
            if stop_event.is_set():
                break
            chunk_records = execute_batch_indices(
                workload, platform, config,
                stride[start:start + block], min_group,
                strict=strict,
            )
            chunk_records.sort(key=lambda record: record.index)
            for record in chunk_records:
                queue.put(("record", shard_id, record))
        queue.put(("done", shard_id, None))
    except BaseException as exc:  # surface the failure in the parent
        queue.put(("done", shard_id, repr(exc)))


class CampaignRunner:
    """Execute a workload campaign, optionally sharded across processes.

    Parameters
    ----------
    config:
        Run count, base seed and input-variation mode.
    shards:
        Worker processes; 1 (default) runs in-process.  Sharded and
        serial campaigns produce identical results.
    backend:
        ``"scalar"``, ``"batch"`` or ``"auto"`` (default).  The batch
        backend executes trace-sharing runs together on the vectorized
        engine (single-core segments or co-scheduled contention
        scenarios) — bit-identical to scalar, so the choice never
        changes an observation; ``auto`` batches only where it pays.
        ``"batch"`` forces the engine even for tiny groups (useful for
        parity testing) and fails fast with the engine's reason when
        the workload or platform cannot batch.
    """

    def __init__(
        self,
        config: CampaignConfig = CampaignConfig(),
        shards: int = 1,
        backend: str = "auto",
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.config = config
        self.shards = shards
        self.backend = validate_backend(backend)

    # ------------------------------------------------------------------
    @classmethod
    def from_request(cls, request: "CampaignRequest") -> "CampaignRunner":
        """The runner a :class:`~repro.api.requests.CampaignRequest`
        describes (run budget, seeds, sharding, backend)."""
        return cls(
            request.campaign_config(),
            shards=request.shards,
            backend=request.backend,
        )

    @classmethod
    def run_request(
        cls,
        request: "CampaignRequest",
        progress: Optional[Progress] = None,
    ) -> CampaignResult:
        """Execute a :class:`~repro.api.requests.CampaignRequest`.

        The request-object form of :meth:`run`: resolves the workload,
        platform and scenario against the registries and honours the
        request's shards, backend and convergence policy.  Every entry
        point (CLI, library, experiment drivers, campaign service)
        funnels through this, so identical requests yield identical
        campaigns everywhere.
        """
        return cls.from_request(request).run(
            request.build_workload(),
            request.build_platform(),
            progress=progress,
            convergence=request.convergence,
        )

    # ------------------------------------------------------------------
    def run(
        self,
        workload: Workload,
        platform: Platform,
        progress: Optional[Progress] = None,
        convergence: Optional[ConvergencePolicy] = None,
    ) -> CampaignResult:
        """Measure ``workload`` on ``platform``.

        With ``convergence=None`` (default) exactly ``config.runs``
        executions are measured.  With a
        :class:`~repro.core.convergence.ConvergencePolicy` the campaign
        is **adaptive**: it halts at the first run where the per-path
        pWCET estimates satisfy the MBPTA stopping rule, with
        ``config.runs`` as the cap; the result then carries
        ``runs_requested`` and a full convergence summary.

        ``progress(done, total)`` is invoked after every completed run,
        in completion order (trace groups measure together).
        """
        cfg = self.config
        workload.prepare(platform)
        backend = resolve_backend(self.backend, workload, platform)
        if backend == "scalar":
            min_group = SCALAR_MIN_GROUP
        else:
            min_group = 1 if self.backend == "batch" else AUTO_MIN_GROUP
        strict = self.backend == "batch"
        shards = min(self.shards, cfg.runs)
        use_fork = shards > 1 and "fork" in mp.get_all_start_methods()
        summary: Optional[CampaignConvergenceSummary] = None
        if convergence is not None:
            tracker = CampaignConvergence(convergence)
            block = 1 if backend == "scalar" else max(
                _MIN_ADAPTIVE_BLOCK, convergence.step
            )
            if use_fork:
                records = self._run_adaptive_sharded(
                    workload, platform, shards, tracker, progress,
                    min_group, block, strict,
                )
            else:
                records = self._run_adaptive_serial(
                    workload, platform, tracker, progress,
                    min_group, block, strict,
                )
            summary = tracker.summary(requested=cfg.runs)
        elif use_fork:
            records = self._run_sharded(
                workload, platform, shards, progress, min_group, strict,
            )
        else:
            done = [0]

            def on_record(_record: RunRecord) -> None:
                done[0] += 1
                if progress is not None:
                    progress(done[0], cfg.runs)

            records = execute_batch_indices(
                workload, platform, cfg, range(cfg.runs), min_group,
                on_record if progress is not None else None,
                strict,
            )
        records.sort(key=lambda record: record.index)
        label = f"{workload.name}@{platform.name}"
        samples = PathSamples(label=label)
        for record in records:
            samples.add(record.path, record.cycles)
        return CampaignResult(
            label=label,
            samples=samples,
            run_details=records,
            runs_requested=cfg.runs if convergence is not None else None,
            convergence=summary,
            backend=backend,
        )

    # ------------------------------------------------------------------
    def _run_adaptive_serial(
        self,
        workload: Workload,
        platform: Platform,
        tracker: CampaignConvergence,
        progress: Optional[Progress],
        min_group: int,
        block: int,
        strict: bool,
    ) -> List[RunRecord]:
        """Execute runs in index order, stopping at convergence.

        Measures index blocks at a time and replays them through the
        tracker in index order, returning exactly the prefix a one-run
        block would keep (runs measured past the stopping point are
        discarded unobserved).
        """
        cfg = self.config
        records: List[RunRecord] = []
        for start in range(0, cfg.runs, block):
            chunk_records = execute_batch_indices(
                workload, platform, cfg,
                range(start, min(start + block, cfg.runs)), min_group,
                strict=strict,
            )
            chunk_records.sort(key=lambda record: record.index)
            for record in chunk_records:
                records.append(record)
                converged = tracker.observe(record.path, record.cycles)
                if progress is not None:
                    progress(len(records), cfg.runs)
                if converged:
                    return records
        return records

    # ------------------------------------------------------------------
    def _run_adaptive_sharded(
        self,
        workload: Workload,
        platform: Platform,
        shards: int,
        tracker: CampaignConvergence,
        progress: Optional[Progress],
        min_group: int,
        block: int,
        strict: bool,
    ) -> List[RunRecord]:
        """Adaptive campaign across forked shards (see module docstring).

        Shards take strided index sets and stream each record back as it
        completes; the parent replays the contiguous prefix of arrived
        indices through ``tracker`` — exactly the serial decision
        sequence — and broadcasts a stop event at convergence.  Records
        at or beyond the stopping point are discarded, making the
        surviving campaign bit-identical to the serial one.
        """
        cfg = self.config
        ctx = mp.get_context("fork")
        result_queue = ctx.Queue()
        stop_event = ctx.Event()
        workers = [
            ctx.Process(
                target=_adaptive_worker,
                args=(
                    result_queue, stop_event, workload, platform, cfg,
                    shard_id, range(shard_id, cfg.runs, shards),
                    min_group, block, strict,
                ),
            )
            for shard_id in range(shards)
        ]
        for worker in workers:
            worker.start()
        records: List[RunRecord] = []
        pending: Dict[int, RunRecord] = {}
        next_index = 0
        stop_at: Optional[int] = None
        errors: List[str] = []
        reported: Set[int] = set()
        done = 0
        try:
            while len(reported) < len(workers):
                try:
                    message = result_queue.get(timeout=1.0)
                except pyqueue.Empty:
                    _note_dead_workers(workers, reported, errors)
                    if errors:  # no point letting the others finish
                        stop_event.set()
                    continue
                if message[0] == "record":
                    record = message[2]
                    records.append(record)
                    done += 1
                    if progress is not None:
                        progress(done, cfg.runs)
                    if stop_at is None:
                        pending[record.index] = record
                        while next_index in pending:
                            ready = pending.pop(next_index)
                            next_index += 1
                            if tracker.observe(ready.path, ready.cycles):
                                stop_at = next_index
                                stop_event.set()
                                break
                else:  # ("done", shard_id, error)
                    reported.add(message[1])
                    if message[2] is not None:
                        errors.append(f"shard {message[1]}: {message[2]}")
                        stop_event.set()
        finally:
            stop_event.set()
            for worker in workers:
                if errors:
                    worker.terminate()
                worker.join()
            result_queue.close()
        if errors:
            raise RuntimeError("campaign shard(s) failed: " + "; ".join(errors))
        if stop_at is not None:
            records = [r for r in records if r.index < stop_at]
        return records

    # ------------------------------------------------------------------
    def _run_sharded(
        self,
        workload: Workload,
        platform: Platform,
        shards: int,
        progress: Optional[Progress],
        min_group: int,
        strict: bool,
    ) -> List[RunRecord]:
        cfg = self.config
        ctx = mp.get_context("fork")
        result_queue = ctx.Queue()
        chunks = _split_indices(cfg.runs, shards)
        workers = [
            ctx.Process(
                target=_shard_worker,
                args=(
                    result_queue, workload, platform, cfg, shard_id, chunk,
                    progress is not None, min_group, strict,
                ),
            )
            for shard_id, chunk in enumerate(chunks)
        ]
        for worker in workers:
            worker.start()
        records: List[RunRecord] = []
        errors: List[str] = []
        reported: Set[int] = set()
        done = 0
        try:
            while len(reported) < len(workers):
                try:
                    message = result_queue.get(timeout=1.0)
                except pyqueue.Empty:
                    _note_dead_workers(workers, reported, errors)
                    continue
                if message[0] == "progress":
                    done += 1
                    if progress is not None:
                        progress(done, cfg.runs)
                else:  # ("done", shard_id, records, error)
                    reported.add(message[1])
                    records.extend(message[2])
                    if message[3] is not None:
                        errors.append(f"shard {message[1]}: {message[3]}")
        finally:
            for worker in workers:
                if errors:
                    worker.terminate()
                worker.join()
            result_queue.close()
        if errors:
            raise RuntimeError("campaign shard(s) failed: " + "; ".join(errors))
        return records


def _split_indices(runs: int, shards: int) -> List[Tuple[int, ...]]:
    """Split ``range(runs)`` into ``shards`` contiguous, balanced chunks."""
    base, extra = divmod(runs, shards)
    chunks: List[Tuple[int, ...]] = []
    start = 0
    for shard in range(shards):
        size = base + (1 if shard < extra else 0)
        chunks.append(tuple(range(start, start + size)))
        start += size
    return chunks
