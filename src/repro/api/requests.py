"""The unified request-object API surface.

Every way of asking for a measurement campaign — the CLI, the
library, the experiment drivers, and the campaign service's HTTP API —
speaks the same two frozen config objects:

* :class:`CampaignRequest` — *what to measure*: workload, platform,
  contention scenario (all registry names plus factory kwargs), run
  budget, seeds, sharding, execution backend, and an optional adaptive
  :class:`~repro.core.convergence.ConvergencePolicy`.
* :class:`AnalysisRequest` — *how to analyse it*: tail-estimator
  registry key, bootstrap confidence-band knobs.

Both validate at construction (like
:class:`~repro.core.convergence.ConvergencePolicy`: a bad knob raises
``ValueError`` before any run is burned) and round-trip through JSON
(:meth:`to_json` / :meth:`from_json`, with unknown fields rejected so
typos surface instead of being silently dropped — see CONTRIBUTING.md
for the schema-versioning rule when adding fields).

Because a request is constructible from JSON, campaigns become
*content-addressable*: :meth:`CampaignRequest.execution_digest` hashes
exactly the fields that determine the observations (workload + kwargs,
scenario, the built platform's fingerprint, run budget, seeds,
convergence policy — **not** shards/backend/analysis, which are
provenance or post-processing), so two requests that must yield
bit-identical measurements share one digest.  The campaign service's
persistent store keys its cross-process artifact cache on it.

:func:`execute_request` is the one driver everything funnels through:
it resolves the request against the registries, runs the campaign via
:class:`~repro.api.runner.CampaignRunner`, optionally attaches the
requested analysis, and can package the whole thing as a
:class:`~repro.api.artifacts.CampaignArtifact` — so the CLI, the
library facade and the service produce byte-identical artifacts for
the same request.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from ..core.convergence import ConvergencePolicy
from ..harness.campaign import CampaignConfig, CampaignResult
from ..platform.soc import Platform
from .backend import validate_backend
from .registry import (
    create_platform,
    create_scenario,
    create_workload,
    platform_names,
    scenario_names,
    workload_names,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (api -> core)
    from ..core.analysis import AnalysisConfig, AnalysisResult
    from .artifacts import CampaignArtifact
    from .workload import Workload

__all__ = [
    "ANALYSIS_REQUEST_SCHEMA",
    "CAMPAIGN_REQUEST_SCHEMA",
    "AnalysisRequest",
    "CampaignExecution",
    "CampaignRequest",
    "execute_request",
]

#: Request schema identifiers; bump the suffix on breaking changes
#: (see CONTRIBUTING.md: additive fields need defaults, not a bump).
CAMPAIGN_REQUEST_SCHEMA = "repro.campaign-request/1"
ANALYSIS_REQUEST_SCHEMA = "repro.analysis-request/1"

Progress = Callable[[int, int], None]


def _canonical_json(payload: Any) -> str:
    """Canonical (sorted, compact) JSON — the digest input form."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _sha256(payload: Any) -> str:
    return hashlib.sha256(_canonical_json(payload).encode("utf-8")).hexdigest()


def _check_json_kwargs(name: str, kwargs: Dict[str, Any]) -> Dict[str, Any]:
    """Factory kwargs must survive JSON (requests cross processes)."""
    out = dict(kwargs)
    for key in out:
        if not isinstance(key, str):
            raise ValueError(f"{name} keys must be strings (got {key!r})")
    try:
        _canonical_json(out)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be JSON-serializable: {exc}") from None
    return out


def _reject_unknown(
    cls_name: str, data: Dict[str, Any], known: "frozenset[str]"
) -> None:
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValueError(
            f"unknown {cls_name} field(s): {', '.join(unknown)} "
            "(schema evolution is additive — see CONTRIBUTING.md)"
        )


@dataclass(frozen=True)
class AnalysisRequest:
    """How to analyse a campaign's per-path samples.

    A frozen, JSON-round-trippable subset of
    :class:`~repro.core.analysis.AnalysisConfig`: the knobs a *caller*
    picks (estimator, confidence bands), not the pipeline's internal
    thresholds.  Validated at construction by building the
    corresponding :class:`AnalysisConfig`, so every range/registry
    check lives in exactly one place.

    ``min_path_samples=None`` (default) derives the per-path fitting
    floor from the campaign's run count exactly as the CLI always has
    (``max(120, runs // 3)``); an explicit value pins it.
    """

    method: str = "block-maxima-gumbel"
    ci: Optional[float] = None
    bootstrap: int = 200
    bootstrap_kind: str = "parametric"
    min_path_samples: Optional[int] = None

    def __post_init__(self) -> None:
        # Probe-construct an AnalysisConfig so a bad method/ci/bootstrap
        # knob fails here, at request construction, with the pipeline's
        # own error message.
        self.analysis_config(num_runs=3 * 120)

    def analysis_config(self, num_runs: int) -> "AnalysisConfig":
        """The pipeline configuration for a ``num_runs``-run campaign."""
        from ..core.analysis import AnalysisConfig

        min_path = self.min_path_samples
        if min_path is None:
            min_path = max(120, num_runs // 3)
        return AnalysisConfig(
            method=self.method,
            min_path_samples=min_path,
            check_convergence=False,
            ci=self.ci,
            bootstrap=self.bootstrap,
            bootstrap_kind=self.bootstrap_kind,
        )

    # -- serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form (sorted keys; the wire/digest format)."""
        return {
            "bootstrap": self.bootstrap,
            "bootstrap_kind": self.bootstrap_kind,
            "ci": self.ci,
            "method": self.method,
            "min_path_samples": self.min_path_samples,
            "schema": ANALYSIS_REQUEST_SCHEMA,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "AnalysisRequest":
        """Inverse of :meth:`to_dict`; rejects unknown fields."""
        data = dict(data)
        schema = data.pop("schema", ANALYSIS_REQUEST_SCHEMA)
        if schema != ANALYSIS_REQUEST_SCHEMA:
            raise ValueError(
                f"not an analysis request (schema={schema!r}, "
                f"expected {ANALYSIS_REQUEST_SCHEMA!r})"
            )
        known = frozenset(f.name for f in fields(cls))
        _reject_unknown("AnalysisRequest", data, known)
        return cls(**data)

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialize (see :meth:`to_dict`)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, payload: str) -> "AnalysisRequest":
        """Inverse of :meth:`to_json`."""
        data = json.loads(payload)
        if not isinstance(data, dict):
            raise ValueError("analysis request must be a JSON object")
        return cls.from_dict(data)


@dataclass(frozen=True)
class CampaignRequest:
    """One measurement campaign, fully described by plain data.

    Everything is registry names plus JSON-safe factory kwargs, so the
    same object drives an in-process run, a forked shard, and an HTTP
    submission to the campaign service.  Validation happens at
    construction: unknown registry names, bad run budgets and
    non-serializable kwargs raise ``ValueError`` immediately (the CLI
    maps that to exit code 2 before any run executes).
    """

    workload: str = "tvca"
    platform: str = "rand"
    runs: int = 300
    base_seed: int = 2017
    vary_inputs: bool = True
    scenario: Optional[str] = None
    shards: int = 1
    backend: str = "auto"
    workload_kwargs: Dict[str, Any] = field(default_factory=dict)
    platform_kwargs: Dict[str, Any] = field(default_factory=dict)
    convergence: Optional[ConvergencePolicy] = None
    analysis: Optional[AnalysisRequest] = None

    def __post_init__(self) -> None:
        if self.workload not in workload_names():
            known = ", ".join(workload_names())
            raise ValueError(
                f"unknown workload {self.workload!r} (known: {known})"
            )
        if self.platform not in platform_names():
            known = ", ".join(platform_names())
            raise ValueError(
                f"unknown platform {self.platform!r} (known: {known})"
            )
        if self.scenario is not None and self.scenario not in scenario_names():
            known = ", ".join(scenario_names())
            raise ValueError(
                f"unknown scenario {self.scenario!r} (known: {known})"
            )
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        validate_backend(self.backend)
        object.__setattr__(
            self,
            "workload_kwargs",
            _check_json_kwargs("workload_kwargs", self.workload_kwargs),
        )
        object.__setattr__(
            self,
            "platform_kwargs",
            _check_json_kwargs("platform_kwargs", self.platform_kwargs),
        )
        if self.convergence is not None and not isinstance(
            self.convergence, ConvergencePolicy
        ):
            raise ValueError("convergence must be a ConvergencePolicy or None")
        if self.analysis is not None and not isinstance(
            self.analysis, AnalysisRequest
        ):
            raise ValueError("analysis must be an AnalysisRequest or None")
        # Range checks for runs/base_seed live in CampaignConfig.
        self.campaign_config()

    # -- resolution against the registries -----------------------------
    def campaign_config(self) -> CampaignConfig:
        """The runner-level configuration this request describes."""
        return CampaignConfig(
            runs=self.runs,
            base_seed=self.base_seed,
            vary_inputs=self.vary_inputs,
        )

    def build_workload(self) -> "Workload":
        """Instantiate the workload (wrapped in the scenario, if any)."""
        workload = create_workload(self.workload, **self.workload_kwargs)
        if self.scenario is not None:
            return create_scenario(self.scenario, workload)
        return workload

    def build_platform(self) -> Platform:
        """Instantiate the platform."""
        return create_platform(self.platform, **self.platform_kwargs)

    # -- content addressing --------------------------------------------
    def digest(self) -> str:
        """Hash of the *complete* request (job-coalescing key)."""
        return _sha256(self.to_dict())

    def execution_digest(self) -> str:
        """Hash of exactly the fields that determine the observations.

        Covers (workload name + kwargs, scenario, the built platform's
        fingerprint, run budget, seeds, input variation, convergence
        policy).  Excludes ``shards``/``backend`` — both are proven
        observation-neutral (deterministic by-index merge; bit-identical
        batch engine) — and ``analysis``, which is post-processing.
        Two requests with equal digests must produce bit-identical
        measurement records, so the campaign service uses this as the
        key of its cross-process artifact/trace cache.
        """
        from .artifacts import platform_fingerprint

        payload = {
            "base_seed": self.base_seed,
            "convergence": (
                self.convergence.to_dict()
                if self.convergence is not None
                else None
            ),
            "platform": platform_fingerprint(self.build_platform()),
            "runs": self.runs,
            "scenario": self.scenario,
            "schema": CAMPAIGN_REQUEST_SCHEMA,
            "vary_inputs": self.vary_inputs,
            "workload": self.workload,
            "workload_kwargs": self.workload_kwargs,
        }
        return _sha256(payload)

    # -- serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form (sorted keys; the wire/digest format)."""
        return {
            "analysis": (
                self.analysis.to_dict() if self.analysis is not None else None
            ),
            "backend": self.backend,
            "base_seed": self.base_seed,
            "convergence": (
                self.convergence.to_dict()
                if self.convergence is not None
                else None
            ),
            "platform": self.platform,
            "platform_kwargs": dict(self.platform_kwargs),
            "runs": self.runs,
            "scenario": self.scenario,
            "schema": CAMPAIGN_REQUEST_SCHEMA,
            "shards": self.shards,
            "vary_inputs": self.vary_inputs,
            "workload": self.workload,
            "workload_kwargs": dict(self.workload_kwargs),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignRequest":
        """Inverse of :meth:`to_dict`.

        Missing fields take their defaults (additive schema evolution);
        unknown fields raise so typos surface instead of silently
        measuring the wrong campaign.
        """
        data = dict(data)
        schema = data.pop("schema", CAMPAIGN_REQUEST_SCHEMA)
        if schema != CAMPAIGN_REQUEST_SCHEMA:
            raise ValueError(
                f"not a campaign request (schema={schema!r}, "
                f"expected {CAMPAIGN_REQUEST_SCHEMA!r})"
            )
        convergence = data.pop("convergence", None)
        analysis = data.pop("analysis", None)
        # Requests written before the draw-mode option was removed name
        # the exact mode, which is what every campaign still measures.
        mode = data.pop("prng_mode", "exact")
        if mode != "exact":
            raise ValueError(
                f"prng_mode {mode!r} is not supported: the draw mode was "
                "removed and every campaign uses the modelled LFSR generator"
            )
        known = frozenset(f.name for f in fields(cls))
        _reject_unknown("CampaignRequest", data, known)
        return cls(
            convergence=(
                ConvergencePolicy.from_dict(convergence)
                if convergence is not None
                else None
            ),
            analysis=(
                AnalysisRequest.from_dict(analysis)
                if analysis is not None
                else None
            ),
            **data,
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialize (see :meth:`to_dict`)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, payload: str) -> "CampaignRequest":
        """Inverse of :meth:`to_json`."""
        data = json.loads(payload)
        if not isinstance(data, dict):
            raise ValueError("campaign request must be a JSON object")
        return cls.from_dict(data)

    def with_scenario(self, scenario: Optional[str]) -> "CampaignRequest":
        """Copy of this request under a different contention scenario."""
        return replace(self, scenario=scenario)


@dataclass
class CampaignExecution:
    """Everything :func:`execute_request` produced for one request.

    ``analysis`` is populated only when the request carried an
    :class:`AnalysisRequest`; :meth:`artifact` packages the result (and
    the analysis summary, if any) exactly the way the CLI always has,
    so every consumer of the same request gets a byte-identical
    artifact.
    """

    request: CampaignRequest
    result: CampaignResult
    platform: Platform
    analysis: Optional["AnalysisResult"] = None

    def artifact(self) -> "CampaignArtifact":
        """The complete campaign artifact for this execution."""
        from .artifacts import CampaignArtifact

        artifact = CampaignArtifact.from_result(
            self.result,
            config=self.request.campaign_config(),
            platform=self.platform,
            workload=self.request.workload,
            shards=self.request.shards,
            scenario=self.request.scenario,
        )
        if self.analysis is not None:
            artifact.attach_analysis(self.analysis)
        return artifact


def execute_request(
    request: CampaignRequest, progress: Optional[Progress] = None
) -> CampaignExecution:
    """Run ``request`` in-process — the single driver behind every
    entry point (CLI, library, experiment drivers, campaign service).

    Resolves the registries, executes via
    :class:`~repro.api.runner.CampaignRunner` (honouring shards,
    backend and the adaptive convergence policy), and runs the attached
    :class:`AnalysisRequest`, if any, on the per-path samples.
    """
    from .runner import CampaignRunner

    workload = request.build_workload()
    platform = request.build_platform()
    runner = CampaignRunner.from_request(request)
    result = runner.run(
        workload, platform, progress=progress, convergence=request.convergence
    )
    analysis: Optional["AnalysisResult"] = None
    if request.analysis is not None:
        from ..core.analysis import AnalysisPipeline

        config = request.analysis.analysis_config(result.num_runs)
        analysis = AnalysisPipeline(config).run(result.samples)
    return CampaignExecution(
        request=request, result=result, platform=platform, analysis=analysis
    )
