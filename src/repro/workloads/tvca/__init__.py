"""The Thrust Vector Control Application (TVCA) case study.

A faithful structural stand-in for the ESA application of the paper:
closed-loop control of a two-axis thrust-vector system, implemented as
three fixed-priority periodic tasks (sensor data acquisition, actuator
control x, actuator control y) whose generated-code shape is expressed
in the program DSL and driven by real control-law arithmetic.
"""

from .app import TvcaApplication, TvcaConfig
from .controller import (
    AxisController,
    ControlDecisions,
    FirFilter,
    PidConfig,
    PidState,
    SensorProcessor,
)
from .plant import AxisState, PlantConfig, SensorReading, TvcPlant
from .scheduler import (
    Job,
    JobOutcome,
    TaskSpec,
    build_jobs,
    hyperperiod,
    rta_response_times,
    simulate_timeline,
    utilization,
)
from .tasks import (
    build_actuator_task,
    build_math_helper,
    build_sensor_task,
)

__all__ = [
    "AxisController",
    "AxisState",
    "ControlDecisions",
    "FirFilter",
    "Job",
    "JobOutcome",
    "PidConfig",
    "PidState",
    "PlantConfig",
    "SensorProcessor",
    "SensorReading",
    "TaskSpec",
    "TvcPlant",
    "TvcaApplication",
    "TvcaConfig",
    "build_actuator_task",
    "build_jobs",
    "build_math_helper",
    "build_sensor_task",
    "hyperperiod",
    "rta_response_times",
    "simulate_timeline",
    "utilization",
]
