"""Measurement harness: run protocol, sample containers, experiments."""

from .campaign import CampaignConfig, CampaignResult
from .experiment import (
    DetRandComparison,
    ScenarioComparison,
    band_relation,
    compare_requests,
    compare_scenarios_request,
)
from .measurements import ExecutionTimeSample, PathSamples
from .records import RunRecord

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "DetRandComparison",
    "ExecutionTimeSample",
    "PathSamples",
    "RunRecord",
    "ScenarioComparison",
    "band_relation",
    "compare_requests",
    "compare_scenarios_request",
]
