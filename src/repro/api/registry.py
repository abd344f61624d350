"""String-keyed platform, workload, scenario and estimator registries.

Every scenario becomes a registry entry instead of a new driver method:
the CLI, examples and tests resolve platforms, workloads, contention
scenarios and tail estimators by name, and new entries are one
:func:`register_platform` / :func:`register_workload` /
:func:`register_scenario` / :func:`register_estimator` call away.
Factories receive keyword arguments (sizes, seeds, modes) and must
ignore nothing — unknown keys raise, so typos surface early.

The tail-estimator registry itself lives in
:mod:`repro.core.analysis.estimators` (analysis code must not depend on
the API layer); it is re-exported here so the CLI and users find every
registry through one module.

Scenario factories take the workload under analysis as their first
argument and return a :class:`~repro.api.scenario.Scenario` (itself a
:class:`Workload`), so ``create_scenario(name, workload)`` slots
directly into :class:`~repro.api.runner.CampaignRunner`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..core.analysis.estimators import (
    create_estimator,
    estimator_description,
    estimator_names,
    register_estimator,
)
from ..platform.prng import SplitMix64
from ..platform.soc import Platform, leon3_det, leon3_rand
from ..workloads import kernels, synthetic
from ..workloads.tvca.app import TvcaConfig
from .scenario import Scenario
from .workload import (
    ProgramWorkload,
    SyntheticWorkload,
    TvcaWorkload,
    Workload,
    seeded_env_fn,
)

__all__ = [
    "REGISTRY_SCHEMA",
    "register_platform",
    "register_workload",
    "register_scenario",
    "register_estimator",
    "create_platform",
    "create_workload",
    "create_scenario",
    "create_estimator",
    "platform_names",
    "workload_names",
    "scenario_names",
    "scenario_description",
    "estimator_names",
    "estimator_description",
    "registry_schema",
]

#: Discovery schema identifier; served by both ``repro list --json``
#: and the campaign service's ``GET /registry`` endpoint.
REGISTRY_SCHEMA = "repro.registry/1"

PlatformFactory = Callable[..., Platform]
WorkloadFactory = Callable[..., Workload]
ScenarioFactory = Callable[..., Scenario]

_PLATFORMS: Dict[str, PlatformFactory] = {}
_WORKLOADS: Dict[str, WorkloadFactory] = {}
_SCENARIOS: Dict[str, ScenarioFactory] = {}
_SCENARIO_DESCRIPTIONS: Dict[str, str] = {}


def register_platform(name: str, factory: PlatformFactory) -> None:
    """Register (or replace) a platform factory under ``name``."""
    _PLATFORMS[name] = factory


def register_workload(name: str, factory: WorkloadFactory) -> None:
    """Register (or replace) a workload factory under ``name``."""
    _WORKLOADS[name] = factory


def register_scenario(
    name: str, factory: ScenarioFactory, description: str = ""
) -> None:
    """Register (or replace) a scenario factory under ``name``.

    ``factory(workload, **kwargs)`` must return a
    :class:`~repro.api.scenario.Scenario` wrapping ``workload``.
    """
    _SCENARIOS[name] = factory
    _SCENARIO_DESCRIPTIONS[name] = description


def create_platform(name: str, **kwargs: Any) -> Platform:
    """Instantiate the platform registered under ``name``."""
    try:
        factory = _PLATFORMS[name]
    except KeyError:
        known = ", ".join(platform_names())
        raise KeyError(f"unknown platform {name!r} (known: {known})") from None
    return factory(**kwargs)


def create_workload(name: str, **kwargs: Any) -> Workload:
    """Instantiate the workload registered under ``name``."""
    try:
        factory = _WORKLOADS[name]
    except KeyError:
        known = ", ".join(workload_names())
        raise KeyError(f"unknown workload {name!r} (known: {known})") from None
    return factory(**kwargs)


def create_scenario(name: str, workload: Workload, **kwargs: Any) -> Scenario:
    """Wrap ``workload`` in the scenario registered under ``name``."""
    try:
        factory = _SCENARIOS[name]
    except KeyError:
        known = ", ".join(scenario_names())
        raise KeyError(f"unknown scenario {name!r} (known: {known})") from None
    return factory(workload, **kwargs)


def platform_names() -> List[str]:
    """Registered platform names, sorted."""
    return sorted(_PLATFORMS)


def workload_names() -> List[str]:
    """Registered workload names, sorted."""
    return sorted(_WORKLOADS)


def scenario_names() -> List[str]:
    """Registered scenario names, sorted."""
    return sorted(_SCENARIOS)


def scenario_description(name: str) -> str:
    """One-line description of a registered scenario ('' if none)."""
    return _SCENARIO_DESCRIPTIONS.get(name, "")


def registry_schema() -> Dict[str, Any]:
    """Everything registered, as one JSON-safe discovery document.

    The single source of truth for "what can this installation
    measure": ``repro list --json`` prints it and the campaign
    service's ``GET /registry`` endpoint serves it, so remote clients
    can validate workload/platform/scenario/estimator names before
    submitting a :class:`~repro.api.requests.CampaignRequest`.
    """
    from .backend import BACKENDS

    return {
        "schema": REGISTRY_SCHEMA,
        "backends": list(BACKENDS),
        "estimators": [
            {"name": name, "description": estimator_description(name)}
            for name in estimator_names()
        ],
        "platforms": [
            {
                "name": name,
                "default_cores": create_platform(name).config.num_cores,
            }
            for name in platform_names()
        ],
        "scenarios": [
            {"name": name, "description": scenario_description(name)}
            for name in scenario_names()
        ],
        "workloads": [{"name": name} for name in workload_names()],
    }


# ----------------------------------------------------------------------
# Built-in platforms: the paper's two configurations.
# ----------------------------------------------------------------------
register_platform("rand", leon3_rand)
register_platform("det", leon3_det)


# ----------------------------------------------------------------------
# Built-in workloads: the case study, the ablation kernels, and a
# synthetic generator for analysis-stack validation.
# ----------------------------------------------------------------------
def _tvca(**kwargs: Any) -> TvcaWorkload:
    return TvcaWorkload(TvcaConfig(**kwargs))


def _matmul(dim: int = 8) -> ProgramWorkload:
    return ProgramWorkload(kernels.matmul_kernel(dim=dim))


def _fir(taps: int = 32, samples: int = 64) -> ProgramWorkload:
    return ProgramWorkload(kernels.fir_kernel(taps=taps, samples=samples))


def _strided(
    stride_elements: int = 16,
    accesses: int = 256,
    elements: int = 8192,
    passes: int = 4,
) -> ProgramWorkload:
    return ProgramWorkload(
        kernels.strided_access_kernel(
            stride_elements=stride_elements,
            accesses=accesses,
            elements=elements,
            passes=passes,
        )
    )


def _table_walk(entries: int = 1024, lookups: int = 128) -> ProgramWorkload:
    def env(rng: SplitMix64) -> Dict[str, Any]:
        return {"indices": [int(rng.random() * entries) for _ in range(lookups)]}

    return ProgramWorkload(
        kernels.table_walk_kernel(entries=entries, lookups=lookups),
        env_fn=seeded_env_fn(env),
    )


def _fpu_stress(divides: int = 32) -> ProgramWorkload:
    def env(rng: SplitMix64) -> Dict[str, Any]:
        return {"op_classes": [rng.random() for _ in range(divides)]}

    return ProgramWorkload(
        kernels.fpu_stress_kernel(divides=divides), env_fn=seeded_env_fn(env)
    )


def _synthetic_cache(**params: Any) -> SyntheticWorkload:
    return SyntheticWorkload(
        synthetic.cache_like_samples, name="synthetic-cache", **params
    )


register_workload("tvca", _tvca)
register_workload("matmul", _matmul)
register_workload("fir", _fir)
register_workload("strided", _strided)
register_workload("table-walk", _table_walk)
register_workload("fpu-stress", _fpu_stress)
register_workload("synthetic-cache", _synthetic_cache)


# ----------------------------------------------------------------------
# Built-in contention scenarios: the isolation baseline plus one entry
# per opponent archetype, replicated on every non-analysis core.
# ----------------------------------------------------------------------
def _scenario_factory(
    scenario_name: str, co_runner_name: Optional[str]
) -> Callable[..., Scenario]:
    def factory(workload: Workload, **kwargs: Any) -> Scenario:
        kwargs.setdefault("label", scenario_name)
        return Scenario(workload, co_runner_kind=co_runner_name, **kwargs)

    return factory


register_scenario(
    "isolation",
    _scenario_factory("isolation", None),
    "workload alone on the platform (co-scheduled baseline)",
)
register_scenario(
    "opponent-memory-hammer",
    _scenario_factory("opponent-memory-hammer", "memory-hammer"),
    "memory-hammer opponents on all other cores (worst realistic bus enemy)",
)
register_scenario(
    "opponent-cpu",
    _scenario_factory("opponent-cpu", "cpu-burn"),
    "CPU-burn opponents on all other cores (no shared-resource traffic)",
)
register_scenario(
    "full-rand",
    _scenario_factory("full-rand", "rand-mix"),
    "random ALU/memory/FP mix opponents on all other cores (average enemy)",
)
