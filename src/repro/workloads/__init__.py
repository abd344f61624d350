"""Workloads: the TVCA case study, ablation kernels, synthetic samples
and contention opponents (co-runners)."""

from . import kernels, opponents, synthetic
from .opponents import CoRunner, co_runner, co_runner_names
from .tvca import TvcaApplication, TvcaConfig

__all__ = [
    "CoRunner",
    "TvcaApplication",
    "TvcaConfig",
    "co_runner",
    "co_runner_names",
    "kernels",
    "opponents",
    "synthetic",
]
