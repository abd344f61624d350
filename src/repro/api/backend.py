"""Execution backends: one run protocol, three grouping thresholds.

Every traced workload describes a run as a :class:`BatchPlan` through
its ``plan_batch(platform, run_index, run_seed, input_seed)`` hook: a
tuple of trace segments plus a ``finalize`` callback that turns the
measured per-segment cycles into the run's
:class:`~repro.api.workload.RunObservation`.  Every backend measures
these plans through :func:`execute_batch_indices`; the backend only
chooses how large a group of trace-sharing runs must be before it goes
to a vector engine instead of the scalar drain:

* ``"scalar"`` — no group reaches :data:`SCALAR_MIN_GROUP`, so every
  plan runs through the scalar protocol: a full platform reset, then
  each segment drained by the core's compiled
  :meth:`~repro.platform.core.Core.execute` (co-scheduled plans through
  :meth:`~repro.platform.soc.Platform.run_concurrent`).
* ``"batch"`` — every group runs on the vectorized engine
  (:mod:`repro.platform.batch`), which advances all replications of one
  trace simultaneously with numpy array state.  Bit-identical to the
  scalar drain (same seeds, same PRNG draw sequences, same cycle
  counts).  An explicit ``"batch"`` request fails fast with the
  engine's ``batch_unsupported_reason`` when the campaign cannot batch
  — a parity/benchmark harness asking for the vector engine should not
  silently measure the interpreter.
* ``"auto"`` (the default) — groups of at least :data:`AUTO_MIN_GROUP`
  runs batch, smaller ones and platforms the engine does not vectorize
  run scalar.  Because both paths are bit-identical, auto-selection
  never changes a single observation.

Runs group by :attr:`BatchPlan.group_key`, which is derived from the
objects the engines execute (the core, the identity of every segment
and co-runner trace, the co-runner looping mode), so runs that share a
key share their traces by construction.  Workloads without a plan
(``SyntheticWorkload``) implement ``execute`` instead, and run through
it under every backend.

Co-scheduled (multicore contention) runs batch too: a plan whose
``finalize_concurrent`` is set describes one analysis trace plus
``co_runners`` on the other cores; such groups execute on the
co-scheduled vector engine (:mod:`repro.platform.batch_concurrent`),
which advances every replication's whole core set in lockstep and
returns per-run :class:`~repro.platform.soc.ConcurrentRunResult`\\ s —
again bit-identical to the scalar interleave.
"""

from __future__ import annotations

import os
import sys
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..harness.records import RunRecord
from ..platform.soc import ConcurrentRunResult, Platform

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..harness.campaign import CampaignConfig
    from ..platform.trace import Trace
    from .workload import RunObservation, Workload

__all__ = [
    "AUTO_MIN_GROUP",
    "BACKENDS",
    "BatchMeasurement",
    "BatchPlan",
    "SCALAR_MIN_GROUP",
    "campaign_batch_unsupported_reason",
    "execute_batch_indices",
    "execute_one",
    "pin_worker_threads",
    "resolve_backend",
    "validate_backend",
]

#: Accepted ``backend=`` spellings.
BACKENDS = ("scalar", "batch", "auto")

#: Under ``backend="auto"``, trace groups smaller than this run scalar:
#: the numpy dispatch overhead of the vector engine only amortizes once
#: several replications advance per event.
AUTO_MIN_GROUP = 8

#: Under ``backend="scalar"``, no trace group reaches this size, so
#: every plan runs through the scalar drain.
SCALAR_MIN_GROUP = sys.maxsize


def validate_backend(backend: str) -> str:
    """Reject unknown backend names at construction time."""
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    return backend


def campaign_batch_unsupported_reason(
    workload: "Workload", platform: Platform
) -> Optional[str]:
    """Why this (workload, platform) campaign cannot batch (None = it can).

    Consults the workload's optional ``batch_unsupported_reason``
    probe when present (contention scenarios use it to run the
    co-scheduled engine's checks over every scheduled core); otherwise
    the single-core engine's platform check applies.
    """
    if getattr(workload, "plan_batch", None) is None:
        name = getattr(workload, "name", type(workload).__name__)
        return (
            f"workload {name!r} has no batch description "
            "(no plan_batch hook)"
        )
    probe = getattr(workload, "batch_unsupported_reason", None)
    if probe is not None:
        reason: Optional[str] = probe(platform)
        return reason
    from ..platform.batch import batch_unsupported_reason

    return batch_unsupported_reason(platform)


def resolve_backend(
    backend: str, workload: "Workload", platform: Platform
) -> str:
    """The backend this campaign will actually use (``scalar``/``batch``).

    ``batch`` and ``auto`` both require the workload to describe its
    runs via ``plan_batch`` and the platform to be vectorizable.  When
    either is missing, ``auto`` silently runs scalar — results are
    identical either way, so the fallback is safe by construction —
    while an **explicit** ``"batch"`` request raises :class:`ValueError`
    carrying the unsupported reason (a caller that demands the vector
    engine must not silently measure the interpreter instead).
    """
    validate_backend(backend)
    if backend == "scalar":
        return "scalar"
    reason = campaign_batch_unsupported_reason(workload, platform)
    if reason is None:
        return "batch"
    if backend == "batch":
        raise ValueError(
            f"backend='batch' requested but the campaign cannot batch: "
            f"{reason} (use backend='auto' for automatic scalar fallback)"
        )
    return "scalar"


@dataclass(frozen=True)
class BatchMeasurement:
    """Measured outcome of one run inside a batched group.

    ``segment_cycles`` holds the run's per-segment cycle counts (the
    cycle clock restarts per segment, matching the scalar multi-job
    protocol); ``instructions`` is the trace-pure total instruction
    count of all segments.
    """

    segment_cycles: Tuple[int, ...]
    instructions: int

    @property
    def total_cycles(self) -> int:
        """All segments summed — a whole-run execution time."""
        return sum(self.segment_cycles)


@dataclass(frozen=True)
class BatchPlan:
    """One run reduced to batchable trace segments.

    ``finalize`` converts the run's measurement into its
    :class:`RunObservation`.  Runs whose plans have equal
    :attr:`group_key` execute the same traces, so the runner measures
    them as one vectorized pass.

    **Co-scheduled plans** set ``finalize_concurrent`` instead: the run
    is then one analysis trace (``segments[0]`` on ``core_id``) plus
    ``co_runners`` — ``(core_id, trace)`` pairs for the other cores —
    and the group executes on the co-scheduled vector engine, which
    hands ``finalize_concurrent`` the run's full
    :class:`~repro.platform.soc.ConcurrentRunResult` (per-core results,
    bus/memory breakdown) to rebuild the observation from.  Exactly one
    of the two finalizers must be set.
    """

    segments: Tuple["Trace", ...]
    finalize: Optional[Callable[[BatchMeasurement], "RunObservation"]] = None
    core_id: int = 0
    co_runners: Tuple[Tuple[int, "Trace"], ...] = ()
    loop_co_runners: bool = True
    finalize_concurrent: Optional[
        Callable[[ConcurrentRunResult], "RunObservation"]
    ] = None

    def __post_init__(self) -> None:
        if (self.finalize is None) == (self.finalize_concurrent is None):
            raise ValueError(
                "exactly one of finalize/finalize_concurrent must be set"
            )
        if self.finalize_concurrent is not None and len(self.segments) != 1:
            raise ValueError(
                "a co-scheduled plan carries exactly one analysis trace"
            )

    @property
    def group_key(self) -> Hashable:
        """What the engines share across a group: the core, the identity
        of every segment and co-runner trace, and the looping mode.

        Trace identities are only meaningful while the traces are alive;
        :func:`execute_batch_indices` holds every plan it groups, so equal
        keys there mean the very same trace objects.
        """
        return (
            self.core_id,
            tuple(id(segment) for segment in self.segments),
            tuple((core_id, id(trace)) for core_id, trace in self.co_runners),
            self.loop_co_runners,
        )

    @property
    def concurrent(self) -> bool:
        """Whether this plan co-schedules cores (vs. trace segments)."""
        return self.finalize_concurrent is not None

    def traces_by_core(self) -> Dict[int, "Trace"]:
        """The co-scheduled core map of a concurrent plan."""
        traces = {self.core_id: self.segments[0]}
        for core_id, trace in self.co_runners:
            traces[core_id] = trace
        return traces


def execute_one(
    workload: "Workload",
    platform: Platform,
    config: "CampaignConfig",
    run_index: int,
) -> RunRecord:
    """Execute run ``run_index`` through the scalar drain."""
    return execute_batch_indices(
        workload, platform, config, [run_index], SCALAR_MIN_GROUP
    )[0]


def _measure_plan_scalar(
    platform: Platform, plan: BatchPlan, run_seed: int
) -> BatchMeasurement:
    """Measure one plan under the paper's run protocol.

    A full platform reset and reseed, then every segment drained on
    ``plan.core_id`` with a fresh cycle clock, while cache, bus and
    store-buffer state carry over between segments.
    """
    platform.reset(run_seed)
    core = platform.cores[plan.core_id]
    segment_cycles = tuple(
        core.execute(segment).cycles for segment in plan.segments
    )
    instructions = sum(len(segment) for segment in plan.segments)
    return BatchMeasurement(
        segment_cycles=segment_cycles, instructions=instructions
    )


def _measure_plan_concurrent_scalar(
    platform: Platform, plan: BatchPlan, run_seed: int
) -> ConcurrentRunResult:
    """Measure one co-scheduled plan through the scalar interleave."""
    return platform.run_concurrent(
        plan.traces_by_core(),
        run_seed,
        analysis_core=plan.core_id,
        loop_co_runners=plan.loop_co_runners,
    )


def execute_batch_indices(
    workload: "Workload",
    platform: Platform,
    config: "CampaignConfig",
    indices: Sequence[int],
    min_group: int = 1,
    on_record: Optional[Callable[[RunRecord], None]] = None,
    strict: bool = False,
) -> List[RunRecord]:
    """Execute ``indices``, batching runs that share a trace group.

    Runs are grouped by their plan's ``group_key``; each group of at
    least ``min_group`` runs executes as one vectorized pass — on the
    segment engine (:func:`~repro.platform.batch.run_batch_segments`)
    for plain plans, on the co-scheduled engine
    (:func:`~repro.platform.batch_concurrent.run_concurrent_batch`) for
    concurrent ones.  Smaller groups and groups the engine rejects
    measure their plans one by one through the scalar drain; a workload
    without a ``plan_batch`` hook runs through its own ``execute``.
    With ``strict=True`` (the explicit ``backend="batch"`` contract) an
    engine rejection raises instead of silently degrading.  The record
    *set* is the same for every ``min_group``; only the emission order
    differs (grouped, then plan-less runs by index) — callers that need
    index order sort afterwards, exactly as the sharded merge already
    does.
    """
    groups: "OrderedDict[Hashable, List[Tuple[int, int, BatchPlan]]]" = (
        OrderedDict()
    )
    planless_indices: List[int] = []
    records: List[RunRecord] = []
    plan_batch = getattr(workload, "plan_batch", None)
    for run_index in indices:
        run_seed = config.platform_seed(run_index)
        plan = None
        if plan_batch is not None:
            plan = plan_batch(
                platform, run_index, run_seed, config.input_seed(run_index)
            )
        if plan is None:
            planless_indices.append(run_index)
        else:
            groups.setdefault(plan.group_key, []).append(
                (run_index, run_seed, plan)
            )

    def emit(
        run_index: int, run_seed: int, observation: "RunObservation"
    ) -> None:
        record = RunRecord(
            index=run_index,
            cycles=float(observation.cycles),
            path=observation.path,
            platform_seed=run_seed,
            input_seed=config.input_seed(run_index),
            metadata=dict(observation.metadata),
        )
        records.append(record)
        if on_record is not None:
            on_record(record)

    for members in groups.values():
        batched: Optional[Sequence[Any]] = None
        if len(members) >= min_group:
            batched = _run_engine(
                platform, members[0][2], [seed for _, seed, _ in members],
                strict,
            )
        for position, (run_index, run_seed, plan) in enumerate(members):
            if plan.finalize_concurrent is not None:
                result = (
                    batched[position] if batched is not None
                    else _measure_plan_concurrent_scalar(
                        platform, plan, run_seed
                    )
                )
                observation = plan.finalize_concurrent(result)
            else:
                assert plan.finalize is not None
                measurement = (
                    batched[position] if batched is not None
                    else _measure_plan_scalar(platform, plan, run_seed)
                )
                observation = plan.finalize(measurement)
            emit(run_index, run_seed, observation)
    if planless_indices:
        execute: Callable[..., "RunObservation"] = getattr(workload, "execute")
        for run_index in sorted(planless_indices):
            run_seed = config.platform_seed(run_index)
            emit(
                run_index, run_seed,
                execute(platform, run_seed, config.input_seed(run_index)),
            )
    return records


def _run_engine(
    platform: Platform, plan: BatchPlan, seeds: List[int], strict: bool
) -> Optional[Sequence[Any]]:
    """One vectorized pass over a trace group led by ``plan``.

    Returns the per-run :class:`BatchMeasurement`\\ s (or
    :class:`~repro.platform.soc.ConcurrentRunResult`\\ s for a
    co-scheduled plan) in seed order, or None when the engine rejects
    the group — which raises instead under ``strict``.
    """
    from ..platform import batch as batch_engine
    from ..platform import batch_concurrent as concurrent_engine

    try:
        if plan.concurrent:
            return concurrent_engine.run_concurrent_batch(
                platform,
                plan.traces_by_core(),
                seeds,
                analysis_core=plan.core_id,
                loop_co_runners=plan.loop_co_runners,
            )
        outcome = batch_engine.run_batch_segments(
            platform, plan.segments, seeds, plan.core_id
        )
    except batch_engine.BatchUnsupported as exc:
        if strict:
            raise ValueError(
                "backend='batch' requested but a run group cannot batch: "
                f"{exc}"
            ) from exc
        return None
    return [
        BatchMeasurement(
            segment_cycles=tuple(segment_cycles),
            instructions=outcome.instructions,
        )
        for segment_cycles in outcome.segment_cycles
    ]


def pin_worker_threads() -> None:
    """Pin threaded-math pools to one thread in a forked shard worker.

    Each shard is already an independent process running its own
    simulation; letting numpy's BLAS/OpenMP pools default to one thread
    *per core* inside every shard multiplies into ``shards x cores``
    runnable threads and wrecks batched-campaign wall times.

    Pool sizes are frozen when the BLAS library first loads, so the
    primary pinning happens in :mod:`repro.platform.batch` *before* its
    numpy import — children forked afterwards inherit the
    single-threaded configuration.  This worker-side re-pin is defense
    in depth: it covers the case where the parent never touched the
    batch module (scalar backend) and the child imports numpy lazily,
    and it is a no-op when the library is already configured.  The
    batch engine is elementwise — it gains nothing from intra-op
    threading either way.
    """
    for variable in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ[variable] = "1"
