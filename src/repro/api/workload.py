"""The unified workload abstraction.

Every measurable thing in the system — the TVCA case study, DSL
programs, synthetic generators — implements one small protocol:

* :meth:`Workload.prepare` — one-time setup against a platform (build
  programs, link images); called once per campaign, before any run,
* one way to describe a measured execution, fully determined by
  ``(run_seed, input_seed)``:

  - ``plan_batch(platform, run_index, run_seed, input_seed) ->
    BatchPlan`` for traced workloads: the run as trace segments plus a
    ``finalize`` callback (see :mod:`repro.api.backend`), which every
    backend measures under the paper's protocol;
  - ``execute(platform, run_seed, input_seed) -> RunObservation`` for
    plan-less workloads (no platform trace, e.g. synthetic
    generators).

Because a run depends only on the two seeds (the platform is fully
reset before it), campaigns can be sharded across processes and merged
by run index without changing a single observation — the property
:class:`repro.api.runner.CampaignRunner` builds on.

Three adapters cover the existing workload families.

Workloads whose run is a single instruction trace additionally implement
the optional ``build_trace(platform, run_seed, input_seed) ->
PreparedTrace`` hook: contention :class:`~repro.api.scenario.Scenario`\\ s
use it to obtain the trace and co-schedule it against opponents via
:meth:`~repro.platform.soc.Platform.run_concurrent`.  Trace construction
is memoized per workload instance (keyed by the generating seed): a
program whose trace is independent of the input seed is expanded exactly
once per process instead of once per run — see
``benchmarks/test_bench_trace_cache.py`` for the measured speedup.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

try:  # Python 3.8+: typing.Protocol
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - ancient interpreters
    Protocol = object  # type: ignore

    def runtime_checkable(cls: Any) -> Any:  # type: ignore
        return cls

from ..platform.prng import SplitMix64
from ..platform.soc import Platform
from ..platform.trace import Trace
from ..programs.compiler import generate_trace
from ..programs.dsl import Env, Program
from ..programs.layout import LinkedImage, link
from ..workloads.tvca.app import TvcaApplication, TvcaConfig, TvcaRunPlan
from ..workloads.tvca.scheduler import simulate_timeline
from .backend import BatchMeasurement, BatchPlan

__all__ = [
    "RunObservation",
    "PreparedTrace",
    "Workload",
    "TvcaWorkload",
    "ProgramWorkload",
    "SyntheticWorkload",
]

#: Default cap on memoized traces per workload instance; bounds memory
#: for seed-varying campaigns while keeping the common cases (constant
#: inputs, small seed sets) fully cached.
_TRACE_CACHE_SIZE = 128


@dataclass(frozen=True)
class RunObservation:
    """What one measured execution produced.

    Attributes
    ----------
    cycles:
        End-to-end execution time.
    path:
        Executed-path identifier (per-path MBPTA grouping key).
    metadata:
        Workload-specific extras; JSON-safe scalars only, so records
        survive process boundaries and artifact round-trips.
    """

    cycles: float
    path: str
    metadata: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class PreparedTrace:
    """A run reduced to one executable instruction trace.

    Returned by the optional ``Workload.build_trace`` hook; the trace is
    shared (possibly cached) and must be treated as read-only by
    executors — :class:`~repro.platform.core.CoreStepper` only reads it.
    """

    trace: Trace
    path: str
    metadata: Dict[str, Any] = field(default_factory=dict)


class _TraceCache:
    """A small LRU of ``key -> prepared trace/plan`` per workload.

    Traces and run plans are pure functions of their generating seed
    (plus the immutable program/image), so memoizing them is
    observation-neutral; forked campaign shards each warm their own
    copy.
    """

    def __init__(self, capacity: int = _TRACE_CACHE_SIZE) -> None:
        self.capacity = max(1, capacity)
        self._entries: "OrderedDict[Any, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: Any) -> Optional[Any]:
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(key)
        else:
            self.misses += 1
        return entry

    def put(self, key: Any, value: Any) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)


@runtime_checkable
class Workload(Protocol):
    """Anything the measurement harness can run.

    Besides ``name`` and :meth:`prepare`, a workload implements one of
    two hooks:

    * ``plan_batch(platform, run_index, run_seed, input_seed) ->
      Optional[BatchPlan]`` — traced workloads describe each run as
      trace segments plus a ``finalize`` callback; every backend
      measures the plans (batching runs whose plans share a
      ``group_key``), so this is the only description of the run.
    * ``execute(platform, run_seed, input_seed) -> RunObservation`` —
      plan-less workloads (no platform trace) measure one run
      themselves.

    Either hook must be a pure function of ``(platform configuration,
    run_seed, input_seed)`` — no state may leak between runs — so that
    sharded and serial campaigns agree.  That purity is also what
    adaptive campaigns rely on: the stopping rule consumes observations
    in run-index order, so an early-stopped campaign's records are
    exactly a prefix of the fixed-budget ones.

    Optional hook: ``build_trace(platform, run_seed, input_seed) ->
    PreparedTrace``.  Workloads whose run is one instruction trace
    expose it so contention scenarios can co-schedule the trace against
    opponents on the other cores; implementations must keep it a pure
    function of the seeds, like ``plan_batch``.
    """

    name: str

    def prepare(self, platform: Platform) -> None:
        """One-time setup before the campaign's first run."""
        ...


class TvcaWorkload:
    """The paper's case study as a :class:`Workload`.

    Wraps :class:`~repro.workloads.tvca.app.TvcaApplication`; the
    application (programs + linked image) is built once in
    :meth:`prepare` and reused across runs, as with the real single
    binary.
    """

    name = "TVCA"

    def __init__(
        self,
        config: Optional[TvcaConfig] = None,
        app: Optional[TvcaApplication] = None,
    ) -> None:
        self.config = config if config is not None else TvcaConfig()
        self._app = app
        self._trace_cache = _TraceCache()
        self._plan_cache = _TraceCache()

    def prepare(self, platform: Platform) -> None:
        if self._app is None:
            self._app = TvcaApplication(self.config)

    def _plan(self, input_seed: int) -> TvcaRunPlan:
        """The run plan for ``input_seed``, memoized (pure function)."""
        plan = self._plan_cache.get(input_seed)
        if plan is None:
            plan = self._app.build_plan(input_seed)
            self._plan_cache.put(input_seed, plan)
        return plan

    def build_trace(
        self, platform: Platform, run_seed: int, input_seed: int
    ) -> PreparedTrace:
        """The whole run as one trace (for contention scenarios).

        The closed-loop control mathematics is platform-independent, so
        the full job sequence can be planned from ``input_seed`` alone
        and concatenated; under co-scheduling the cycle clock runs
        continuously across jobs (no per-job restart), which is the
        faithful bare-metal behaviour for a busy multicore.  Plans are
        memoized by input seed.
        """
        if self._app is None:
            self.prepare(platform)
        prepared = self._trace_cache.get(input_seed)
        if prepared is None:
            plan = self._plan(input_seed)
            prepared = PreparedTrace(
                trace=plan.concatenated_trace(),
                path=plan.path_class,
                metadata={
                    "input_profile": plan.input_profile,
                    "jobs": len(plan.jobs),
                },
            )
            self._trace_cache.put(input_seed, prepared)
        return prepared

    def plan_batch(
        self, platform: Platform, run_index: int, run_seed: int, input_seed: int
    ) -> Optional[BatchPlan]:
        """The run as per-job trace segments: the paper's run protocol.

        Each job's cycle clock restarts while cache/bus/store-buffer
        state carries over from the previous job, so jobs after the
        first absorb some residual stall from their predecessor's tail.
        ``finalize`` recomputes the schedule outcome (response times,
        deadlines) from the measured per-job cycles.  Plans are memoized
        by input seed, so all runs of a fixed-input campaign share one
        trace group.
        """
        if self._app is None:
            self.prepare(platform)
        plan = self._plan(input_seed)

        def finalize(measurement: BatchMeasurement) -> RunObservation:
            executions: Dict[Any, int] = {}
            total_cycles = 0
            for job, cycles in zip(plan.jobs, measurement.segment_cycles):
                total_cycles += cycles
                executions[job] = cycles
            outcomes = simulate_timeline(plan.jobs, executions)
            deadlines_met = all(o.deadline_met for o in outcomes)
            max_response = max(o.response for o in outcomes)
            assert all(o.preemptions == 0 for o in outcomes), (
                "unexpected preemption: job execution times exceed the "
                "sensor inter-release gap"
            )
            return RunObservation(
                cycles=float(total_cycles),
                path=plan.path_class,
                metadata={
                    "input_profile": plan.input_profile,
                    "instructions": measurement.instructions,
                    "deadlines_met": deadlines_met,
                    "max_response_cycles": max_response,
                },
            )

        return BatchPlan(segments=plan.traces, finalize=finalize)


class ProgramWorkload:
    """An arbitrary DSL program as a :class:`Workload`.

    ``env_fn(input_seed)`` supplies the input environment of each run
    (default: empty) — seed-keyed rather than index-keyed so the same
    run produces the same inputs no matter which shard executes it.
    The program is linked in :meth:`prepare` unless an image is given.

    Trace expansion is memoized: the trace is a pure function of the
    input environment, so a program with no ``env_fn`` (trace
    independent of the input seed) is expanded exactly once per process
    and seed-keyed environments are cached under their seed.
    """

    def __init__(
        self,
        program: Program,
        image: Optional[LinkedImage] = None,
        env_fn: Optional[Callable[[int], Env]] = None,
        core_id: int = 0,
    ) -> None:
        self.name = program.name
        self.program = program
        self.image = image
        self.env_fn = env_fn
        self.core_id = core_id
        self._trace_cache = _TraceCache()

    def prepare(self, platform: Platform) -> None:
        num_cores = platform.config.num_cores
        if not 0 <= self.core_id < num_cores:
            raise ValueError(
                f"core_id {self.core_id} out of range for a "
                f"{num_cores}-core platform"
            )
        if self.image is None:
            self.image = link(self.program)

    def _prepared(self, input_seed: int) -> PreparedTrace:
        """The run's trace, memoized by its generating key (the input
        seed, or a constant when no ``env_fn`` makes the trace
        seed-independent)."""
        if self.image is None:
            self.image = link(self.program)
        cache_key = input_seed if self.env_fn is not None else "<static>"
        prepared = self._trace_cache.get(cache_key)
        if prepared is None:
            env = self.env_fn(input_seed) if self.env_fn is not None else {}
            trace, signature = generate_trace(self.program, self.image, env)
            prepared = PreparedTrace(trace=trace, path=signature.as_key())
            self._trace_cache.put(cache_key, prepared)
        return prepared

    def build_trace(
        self, platform: Platform, run_seed: int, input_seed: int
    ) -> PreparedTrace:
        """The run's trace (for contention scenarios); memoized."""
        return self._prepared(input_seed)

    def plan_batch(
        self, platform: Platform, run_index: int, run_seed: int, input_seed: int
    ) -> Optional[BatchPlan]:
        """The run as one batchable trace segment.

        Programs without an ``env_fn`` have a seed-independent trace, so
        every run of the campaign lands in one batch group; seed-keyed
        environments group by input seed (``vary_inputs=False`` then
        still yields a single group).  The observation's cycles are the
        run's end-to-end count; its metadata carries the instruction
        count.
        """
        prepared = self._prepared(input_seed)

        def finalize(measurement: BatchMeasurement) -> RunObservation:
            return RunObservation(
                cycles=float(measurement.total_cycles),
                path=prepared.path,
                metadata={"instructions": measurement.instructions},
            )

        return BatchPlan(
            segments=(prepared.trace,), finalize=finalize, core_id=self.core_id
        )


class SyntheticWorkload:
    """A synthetic execution-time generator as a :class:`Workload`.

    ``generator(n, seed, **params)`` must return a list of floats (any
    of :mod:`repro.workloads.synthetic`); each run draws one value with
    the run's input seed, so samples are i.i.d. across runs and
    shard-order independent.  No platform simulation is involved —
    useful for validating the analysis stack at campaign scale.
    """

    PATH = "<synthetic>"

    def __init__(
        self,
        generator: Callable[..., List[float]],
        name: str = "synthetic",
        **params: Any,
    ) -> None:
        self.name = name
        self.generator = generator
        self.params = dict(params)

    def prepare(self, platform: Platform) -> None:
        pass

    def execute(
        self, platform: Platform, run_seed: int, input_seed: int
    ) -> RunObservation:
        value = self.generator(1, input_seed, **self.params)[0]
        return RunObservation(cycles=float(value), path=self.PATH)


def seeded_env_fn(
    build: Callable[[SplitMix64], Env]
) -> Callable[[int], Env]:
    """Lift an RNG-consuming env builder into a seed-keyed ``env_fn``.

    ``build`` receives a :class:`SplitMix64` seeded with the run's input
    seed and returns the environment — the canonical way to give kernel
    workloads random per-run inputs that stay shard-deterministic.
    """

    def env_fn(input_seed: int) -> Env:
        return build(SplitMix64(input_seed))

    return env_fn
