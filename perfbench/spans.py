"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the program: :class:`Instrumentation`
wraps public entry points of each layer (module functions, methods, the
``finalize`` callbacks of returned batch plans) while it is active and
restores the originals on exit, so untraced runs execute the unmodified
code.  A span holds a name, start, end, its parent span and an ``op_id``
shared by every span under the same root (one campaign, one service
request).  A layer's self time is its span time minus the time its child
spans cover; children in one thread nest strictly, so that is a sum.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


@dataclasses.dataclass
class Span:
    span_id: int
    parent_id: Optional[int]
    op_id: int
    name: str
    start: float
    end: float = 0.0
    attrs: Dict[str, Any] = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans from every thread; per-thread parent stacks."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        # Per-run simulator results captured at engine boundaries (the
        # analysis core's RunResult of every measured run).
        self.run_results: List[Any] = []
        self.scalar_runs = 0
        self._pending_scalar: Dict[int, Tuple[Any, int]] = {}

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        before: Optional[Callable[..., None]] = None,
        after: Optional[Callable[..., Any]] = None,
    ) -> Callable[..., Any]:
        """``fn`` recorded as span ``name``.

        ``before(span, args, kwargs)`` runs inside the span before the
        call; ``after(span, args, kwargs, result)`` runs after it and
        returns the (possibly replaced) result.
        """
        recorder = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            span_id = next(recorder._ids)
            span = Span(
                span_id=span_id,
                parent_id=parent.span_id if parent is not None else None,
                op_id=parent.op_id if parent is not None else span_id,
                name=name,
                start=0.0,
            )
            stack.append(span)
            span.start = time.perf_counter()
            try:
                if before is not None:
                    before(span, args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    result = after(span, args, kwargs, result)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                with recorder._lock:
                    recorder.spans.append(span)

        return wrapper

    # -- scalar-interpreter run capture ---------------------------------
    def note_reset(self, platform_id: int) -> None:
        """A platform reset closes the previous scalar run on it."""
        pending = self._pending_scalar.pop(platform_id, None)
        if pending is not None:
            self.run_results.append(_with_contention(*pending))
            self.scalar_runs += 1

    def note_execute(self, platform_id: int, result: Any) -> None:
        """Core.execute stats are cumulative since the last reset, so the
        last call of a run carries the run's totals; bus waits are per
        call and are summed."""
        previous = self._pending_scalar.get(platform_id)
        waited = result.bus_contention_cycles
        if previous is not None:
            waited += previous[1]
        self._pending_scalar[platform_id] = (result, waited)

    def flush(self) -> None:
        for platform_id in list(self._pending_scalar):
            self.note_reset(platform_id)

    def dump(self, path: Path) -> None:
        payload = [dataclasses.asdict(span) for span in self.spans]
        path.write_text(json.dumps(payload, default=str))


def _with_contention(result: Any, waited: int) -> Any:
    return dataclasses.replace(result, bus_contention_cycles=waited)


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """span id -> self time (duration minus direct children)."""
    spans = list(spans)
    child_time: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent_id is not None:
            child_time[span.parent_id] += span.duration
    return {s.span_id: s.duration - child_time[s.span_id] for s in spans}


class Instrumentation:
    """Context manager that installs the layer wrappers on enter."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- patch helpers --------------------------------------------------
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap_attr(
        self,
        owners: Iterable[Any],
        attr: str,
        name: str,
        before: Optional[Callable[..., None]] = None,
        after: Optional[Callable[..., Any]] = None,
    ) -> None:
        """Wrap ``attr`` on every owner.  Owners that imported the same
        function by name share one wrapper, so a call records one span."""
        original = None
        wrapped = None
        for owner in owners:
            current = owner.__dict__[attr]
            if wrapped is None or current is not original:
                original = current
                wrapped = self.recorder.wrap(name, current, before, after)
            self._patch(owner, attr, wrapped)

    def _wrap_classmethod(self, owner: Any, attr: str, name: str) -> None:
        func = owner.__dict__[attr].__func__
        self._patch(owner, attr, classmethod(self.recorder.wrap(name, func)))

    def __enter__(self) -> "Instrumentation":
        from repro.api import backend, requests, runner, workload
        from repro.api.artifacts import CampaignArtifact
        from repro.api.scenario import Scenario
        from repro.core.analysis import pipeline
        from repro.platform import batch, batch_concurrent
        from repro.platform.core import Core
        from repro.platform.soc import Platform
        from repro.service import jobs
        from repro.service.server import CampaignService
        from repro.service.store import PersistentStore
        from repro.workloads.tvca.app import TvcaApplication

        rec = self.recorder

        def wrap_finalizer(span: Span, args: Any, kwargs: Any, plan: Any) -> Any:
            if plan is None:
                return None
            span.attrs["group"] = hash(plan.group_key)
            if plan.finalize is not None:
                return dataclasses.replace(
                    plan, finalize=rec.wrap("workload.finalize", plan.finalize)
                )
            return dataclasses.replace(
                plan,
                finalize_concurrent=rec.wrap(
                    "workload.finalize", plan.finalize_concurrent
                ),
            )

        def after_batch(span: Span, args: Any, kwargs: Any, outcome: Any) -> Any:
            lanes = len(outcome.results)
            span.attrs["lanes"] = lanes
            span.attrs["lane_instructions"] = lanes * outcome.instructions
            rec.run_results.extend(outcome.results)
            return outcome

        def after_concurrent(
            span: Span, args: Any, kwargs: Any, results: Any
        ) -> Any:
            span.attrs["lanes"] = len(results)
            span.attrs["lane_instructions"] = sum(
                r.instructions for result in results for r in result.per_core.values()
            )
            rec.run_results.extend(result.analysis for result in results)
            return results

        def after_run_concurrent(
            span: Span, args: Any, kwargs: Any, result: Any
        ) -> Any:
            span.attrs["instructions"] = sum(
                r.instructions for r in result.per_core.values()
            )
            rec.run_results.append(result.analysis)
            rec.scalar_runs += 1
            return result

        def after_execute(span: Span, args: Any, kwargs: Any, result: Any) -> Any:
            core = args[0]
            span.attrs["instructions"] = result.instructions
            rec.note_execute(id(core.bus), result)
            return result

        def after_to_json(span: Span, args: Any, kwargs: Any, text: Any) -> Any:
            span.attrs["bytes"] = len(text)
            return text

        def before_dispatch(span: Span, args: Any, kwargs: Any) -> None:
            service, method, path = args[0], args[1], args[2]
            span.attrs["label"] = service.endpoint_label(method, path)

        self._wrap_attr(
            [requests, jobs], "execute_request", "execute_request"
        )
        self._wrap_attr(
            [backend, runner],
            "execute_batch_indices",
            "backend.execute_batch_indices",
        )
        self._wrap_attr(
            [batch], "run_batch_segments", "batch.run_batch_segments",
            after=after_batch,
        )
        self._wrap_attr(
            [batch_concurrent],
            "run_concurrent_batch",
            "concurrent.run_concurrent_batch",
            after=after_concurrent,
        )
        self._wrap_attr([workload], "generate_trace", "workload.trace_build")
        self._wrap_attr([TvcaApplication], "build_plan", "workload.trace_build")
        for cls in (workload.TvcaWorkload, workload.ProgramWorkload, Scenario):
            self._wrap_attr(
                [cls], "plan_batch", "workload.plan_batch", after=wrap_finalizer
            )
            self._wrap_attr([cls], "prepare", "workload.prepare")
        for cls in (workload.TvcaWorkload, workload.ProgramWorkload):
            self._wrap_attr([cls], "build_trace", "workload.build_trace")
        # The platform reset closes a scalar run; keyed by the bus, which
        # a platform's cores share.
        self._wrap_attr(
            [Platform], "reset", "platform.reset",
            before=lambda span, args, kwargs: rec.note_reset(id(args[0].bus)),
        )
        self._wrap_attr(
            [Platform], "run_concurrent", "scalar.run_concurrent",
            after=after_run_concurrent,
        )
        self._wrap_attr([Core], "execute", "scalar.execute", after=after_execute)
        self._wrap_attr(
            [CampaignArtifact], "to_json", "artifact.to_json", after=after_to_json
        )
        self._wrap_classmethod(CampaignArtifact, "from_json", "artifact.from_json")
        for attr in ("load_campaign", "load_job_artifact_text"):
            self._wrap_attr([PersistentStore], attr, "store.load")
        for attr in ("save_campaign", "save_job_artifact"):
            self._wrap_attr([PersistentStore], attr, "store.save")
        for stage in pipeline.default_stages():
            self._wrap_attr([type(stage)], "run", f"analysis.{stage.name}")
        self._wrap_attr(
            [CampaignService], "dispatch", "service.dispatch",
            before=before_dispatch,
        )
        return self

    def __exit__(self, *exc: Any) -> None:
        self.recorder.flush()
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
