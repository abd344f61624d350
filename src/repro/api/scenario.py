"""Contention scenarios: a workload co-scheduled with named opponents.

A :class:`Scenario` wraps a workload under analysis together with a
co-runner (opponent) kind replicated on every other core of the platform
and implements the :class:`~repro.api.workload.Workload` protocol — so
campaign running, sharding, adaptive convergence and artifacts all work
on scenarios unchanged.  One measured execution:

1. the wrapped workload's ``build_trace`` hook produces the trace under
   analysis (a pure function of the seeds, memoized by the workload),
2. one opponent trace per remaining core is generated from a seed
   derived from the run's input seed (again pure, hence shard-safe),
3. both go into the run's co-scheduled
   :class:`~repro.api.backend.BatchPlan`, which the backend measures
   through :meth:`~repro.platform.soc.Platform.run_concurrent` (or its
   vectorized twin) interleaving all cores in cycle order; the
   observation is the analysis core's end-to-end cycles, with the
   per-core/contention breakdown recorded in the observation metadata
   (and therefore in campaign artifacts).

The *isolation* scenario (no co-runner) runs through the same
co-scheduled path with an empty opponent set, which degenerates to a
plain :meth:`~repro.platform.soc.Platform.run` bit for bit — the
baseline every contention scenario is compared against.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from ..platform.batch_concurrent import concurrent_batch_unsupported_reason
from ..platform.prng import derive_seed
from ..platform.soc import ConcurrentRunResult, Platform
from ..platform.trace import Trace
from ..workloads.opponents import CoRunner, co_runner
from .backend import BatchPlan
from .workload import PreparedTrace, RunObservation, Workload, _TraceCache

__all__ = ["Scenario", "SCENARIO_SEED_TAG"]

#: Derivation tag separating opponent-trace seeds from every other
#: consumer of the run's input seed.
SCENARIO_SEED_TAG = 0xC0BB

#: Opponent traces are generated once and looped by the execution
#: engine, so they only need to be long enough to behave steadily —
#: capping the length keeps per-run generation cost flat for big
#: analysis traces.
_MAX_OPPONENT_INSTRUCTIONS = 4096


class Scenario:
    """A workload under analysis plus opponents on the other cores.

    Parameters
    ----------
    workload:
        The workload under analysis.  Must implement the optional
        ``build_trace`` hook (``ProgramWorkload`` and ``TvcaWorkload``
        do); anything else fails fast in :meth:`prepare`.
    co_runner_kind:
        Opponent kind to replicate on every non-analysis core — a
        :class:`~repro.workloads.opponents.CoRunner`, a registered
        co-runner name, or None for the isolation baseline.
    label:
        Scenario name used in campaign labels (defaults to the
        co-runner's name, or ``"isolation"``).
    analysis_core:
        Core the workload under analysis runs on (default 0).
    """

    def __init__(
        self,
        workload: Workload,
        co_runner_kind: Optional[object] = None,
        label: Optional[str] = None,
        analysis_core: int = 0,
    ) -> None:
        if isinstance(co_runner_kind, str):
            co_runner_kind = co_runner(co_runner_kind)
        if co_runner_kind is not None and not isinstance(co_runner_kind, CoRunner):
            raise TypeError(
                "co_runner_kind must be a CoRunner, a registered co-runner "
                f"name or None, not {type(co_runner_kind).__name__}"
            )
        self.workload = workload
        self.co_runner_kind: Optional[CoRunner] = co_runner_kind
        self.label = label or (
            co_runner_kind.name if co_runner_kind is not None else "isolation"
        )
        self.analysis_core = analysis_core
        self.name = f"{workload.name}+{self.label}"
        self._opponent_cache = _TraceCache()

    # ------------------------------------------------------------------
    def prepare(self, platform: Platform) -> None:
        """Prepare the wrapped workload and validate the scenario fits."""
        build = getattr(self.workload, "build_trace", None)
        if build is None:
            raise ValueError(
                f"workload {self.workload.name!r} does not support "
                "co-scheduling (no build_trace hook)"
            )
        num_cores = platform.config.num_cores
        if not 0 <= self.analysis_core < num_cores:
            raise ValueError(
                f"analysis_core {self.analysis_core} out of range for a "
                f"{num_cores}-core platform"
            )
        if self.co_runner_kind is not None and num_cores < 2:
            raise ValueError(
                f"scenario {self.label!r} needs at least 2 cores, platform "
                f"{platform.name!r} has {num_cores} (pass --cores / "
                "num_cores to the platform factory)"
            )
        self.workload.prepare(platform)

    # ------------------------------------------------------------------
    def scheduled_cores(self, platform: Platform) -> Tuple[int, ...]:
        """Core ids this scenario occupies (analysis core first)."""
        cores = [self.analysis_core]
        if self.co_runner_kind is not None:
            cores.extend(
                core_id
                for core_id in range(platform.config.num_cores)
                if core_id != self.analysis_core
            )
        return tuple(cores)

    def _opponents(
        self, input_seed: int, num_cores: int, trace_len: int
    ) -> Tuple[Tuple[int, Trace], ...]:
        """Opponent traces for one run, memoized (pure in the key).

        Each opponent trace is a pure function of ``(input_seed,
        core_id, instructions)``, so caching them is observation-neutral
        — fixed-input campaigns generate each opponent set once instead
        of once per run.
        """
        if self.co_runner_kind is None:
            return ()
        instructions = max(1, min(trace_len, _MAX_OPPONENT_INSTRUCTIONS))
        key = (input_seed, num_cores, instructions)
        cached: Optional[Tuple[Tuple[int, Trace], ...]] = (
            self._opponent_cache.get(key)
        )
        if cached is None:
            pairs = []
            for core_id in range(num_cores):
                if core_id == self.analysis_core:
                    continue
                opponent_seed = derive_seed(
                    input_seed, SCENARIO_SEED_TAG, core_id
                )
                pairs.append(
                    (
                        core_id,
                        self.co_runner_kind.build(
                            instructions, opponent_seed, core_id
                        ),
                    )
                )
            cached = tuple(pairs)
            self._opponent_cache.put(key, cached)
        return cached

    def _observation(
        self, prepared: PreparedTrace, result: ConcurrentRunResult
    ) -> RunObservation:
        metadata: Dict[str, Any] = dict(prepared.metadata)
        metadata["scenario"] = self.label
        metadata["co_runner"] = (
            self.co_runner_kind.name if self.co_runner_kind is not None else None
        )
        metadata["instructions"] = result.analysis.instructions
        metadata.update(result.to_metadata())
        return RunObservation(
            cycles=float(result.cycles),
            path=prepared.path,
            metadata=metadata,
        )

    # ------------------------------------------------------------------
    def batch_unsupported_reason(self, platform: Platform) -> Optional[str]:
        """Why this scenario cannot batch on ``platform`` (None if it can).

        Consulted by :func:`repro.api.backend.resolve_backend`: the
        co-scheduled engine has its own support matrix (every scheduled
        core's component stack must vectorize), so scenarios override
        the default single-core probe.
        """
        if getattr(self.workload, "build_trace", None) is None:
            return (
                f"workload {self.workload.name!r} does not support "
                "co-scheduling (no build_trace hook)"
            )
        return concurrent_batch_unsupported_reason(
            platform, self.scheduled_cores(platform)
        )

    def plan_batch(
        self, platform: Platform, run_index: int, run_seed: int, input_seed: int
    ) -> Optional[BatchPlan]:
        """The run as a co-scheduled :class:`BatchPlan`.

        The plan carries the analysis trace plus the opponent traces and
        finalizes through :meth:`_observation`, which records the
        per-core / bus / memory breakdown in the metadata.  Both traces
        are memoized by ``input_seed`` — opponent traces derive from it
        — so fixed-input campaigns (``vary_inputs=False``) form one
        group.
        """
        build = getattr(self.workload, "build_trace", None)
        if build is None:
            return None
        prepared: PreparedTrace = build(platform, run_seed, input_seed)

        def finalize_concurrent(result: ConcurrentRunResult) -> RunObservation:
            return self._observation(prepared, result)

        return BatchPlan(
            segments=(prepared.trace,),
            core_id=self.analysis_core,
            co_runners=self._opponents(
                input_seed, platform.config.num_cores, len(prepared.trace)
            ),
            finalize_concurrent=finalize_concurrent,
        )
