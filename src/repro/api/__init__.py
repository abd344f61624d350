"""repro.api — the unified measurement facade.

One abstraction (:class:`Workload`), one driver (:class:`CampaignRunner`,
serial or sharded with a deterministic merge), one persistent record
(:class:`CampaignArtifact`), and string-keyed registries so every new
scenario is a registry entry instead of a new driver method.

Quickstart::

    from repro.api import CampaignArtifact, CampaignRequest, execute_request

    request = CampaignRequest(
        workload="tvca", platform="rand", runs=300, shards=4,
        platform_kwargs={"num_cores": 1, "cache_kb": 4},
    )
    execute_request(request).artifact().save("campaign.json")
    print(CampaignArtifact.load("campaign.json").analyse().report())

Live :class:`Workload`/:class:`Platform` objects go through
``CampaignRunner(CampaignConfig(...)).run(workload, platform)``.
"""

from __future__ import annotations

from ..core.convergence import (
    CampaignConvergenceSummary,
    ConvergencePolicy,
)
from ..harness.campaign import CampaignConfig, CampaignResult
from ..harness.records import RunRecord
from .artifacts import (
    ArtifactCorrupt,
    ArtifactStore,
    CampaignArtifact,
    load_measurements,
    platform_fingerprint,
)
from .backend import (
    BACKENDS,
    BatchMeasurement,
    BatchPlan,
    resolve_backend,
)
from .registry import (
    create_estimator,
    create_platform,
    create_scenario,
    create_workload,
    estimator_description,
    estimator_names,
    platform_names,
    register_estimator,
    register_platform,
    register_scenario,
    register_workload,
    registry_schema,
    scenario_description,
    scenario_names,
    workload_names,
)
from .requests import (
    AnalysisRequest,
    CampaignExecution,
    CampaignRequest,
    execute_request,
)
from .runner import CampaignRunner, default_shards
from .scenario import Scenario
from .workload import (
    PreparedTrace,
    ProgramWorkload,
    RunObservation,
    SyntheticWorkload,
    TvcaWorkload,
    Workload,
    seeded_env_fn,
)

__all__ = [
    "BACKENDS",
    "AnalysisRequest",
    "ArtifactCorrupt",
    "ArtifactStore",
    "BatchMeasurement",
    "BatchPlan",
    "CampaignArtifact",
    "CampaignConfig",
    "CampaignExecution",
    "CampaignRequest",
    "CampaignConvergenceSummary",
    "CampaignResult",
    "CampaignRunner",
    "ConvergencePolicy",
    "PreparedTrace",
    "ProgramWorkload",
    "RunObservation",
    "RunRecord",
    "Scenario",
    "SyntheticWorkload",
    "TvcaWorkload",
    "Workload",
    "create_estimator",
    "create_platform",
    "create_scenario",
    "create_workload",
    "default_shards",
    "estimator_description",
    "estimator_names",
    "execute_request",
    "load_measurements",
    "platform_fingerprint",
    "platform_names",
    "register_estimator",
    "register_platform",
    "register_scenario",
    "register_workload",
    "registry_schema",
    "resolve_backend",
    "scenario_description",
    "scenario_names",
    "seeded_env_fn",
    "workload_names",
]

