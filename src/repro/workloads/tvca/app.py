"""The TVCA application driver: closed loop of plant, controller and code.

One *measured execution* follows the paper's protocol: the platform is
fully reset and reseeded, then the application runs a fixed number of
control hyperperiods bare-metal.  Within one hyperperiod the fixed-
priority schedule releases the sensor-acquisition task twice (it runs at
twice the actuator rate) and each actuator task once; jobs execute back
to back on the core (the task set is schedulable with large slack, so no
preemption occurs — asserted via the timeline simulator).

For every job, :meth:`TvcaApplication.build_plan`

1. advances the *Python-level* controller against the plant to obtain
   the real numbers of this control step,
2. fills the DSL input environment (branch outcomes, loop trip counts,
   table indices, FDIV/FSQRT operand classes) from those numbers,
3. expands the task program into an instruction trace.

The resulting :class:`TvcaRunPlan` is measured job by job on the
platform core by ``TvcaWorkload.plan_batch`` (:mod:`repro.api.workload`),
which accumulates the cycles.

The run's **path identifier** groups executions for per-path MBPTA.  Two
granularities are produced: the exact concatenated DSL signature (which
can be very fine) and a coarse *path class* — saturation/fault flags and
the maximum gain-schedule depth per axis — matching the handful of
program-level paths a tool would distinguish on the real TVCA.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Tuple, Type

from ...platform.trace import Trace
from ...programs.compiler import PathSignature, generate_trace
from ...programs.layout import LayoutConfig, LinkedImage, link
from ...programs.dsl import Block, Call, Env, Program, alu
from .controller import (
    AxisController,
    PidConfig,
    SensorProcessor,
)
from .plant import PlantConfig, TvcPlant
from .scheduler import Job, TaskSpec, build_jobs
from .tasks import (
    DEFAULT_AERO_ELEMENTS,
    DEFAULT_AERO_WINDOW,
    DEFAULT_ESTIMATOR_DIM,
    build_actuator_task,
    build_math_helper,
    build_sensor_task,
)

__all__ = ["TvcaConfig", "TvcaRunPlan", "TvcaApplication"]

#: Job traces an application keeps (the workloads' trace-cache cap).
_JOB_TRACE_CACHE_SIZE = 128

#: A job's emission key: the task name and, per env entry, its name,
#: type and repr, so values that compare equal but emit differently
#: (``0.0``/``-0.0``, ``True``/``1``/``1.0``) never share a trace.
_JobKey = Tuple[str, Tuple[Tuple[str, Type[object], str], ...]]
_Emitted = Tuple[Trace, PathSignature]


@dataclass(frozen=True)
class TvcaConfig:
    """Application-level configuration.

    Attributes
    ----------
    clock_hz:
        Platform clock (used to convert periods to cycles).
    actuator_period_s:
        Period of the two actuator tasks; the sensor task runs at twice
        this rate.  One hyperperiod = one actuator period.
    hyperperiods:
        Control hyperperiods per measured execution.
    layout:
        Link layout; sweeping ``layout.layout_offset`` emulates the
        memory-layout sensitivity of the DET platform.
    plant / pid:
        Physical model and controller gains.
    estimator_dim / aero_elements / aero_window:
        Working-set sizes of the generated code (defaults give the
        measured configuration's cache pressure; tests shrink them).
    """

    clock_hz: float = 50e6
    actuator_period_s: float = 0.020
    hyperperiods: int = 2
    layout: LayoutConfig = field(default_factory=LayoutConfig)
    plant: PlantConfig = field(default_factory=PlantConfig)
    pid: PidConfig = field(default_factory=PidConfig)
    estimator_dim: int = DEFAULT_ESTIMATOR_DIM
    aero_elements: int = DEFAULT_AERO_ELEMENTS
    aero_window: int = DEFAULT_AERO_WINDOW

    @property
    def actuator_period_cycles(self) -> int:
        """Actuator period in platform cycles."""
        return int(self.actuator_period_s * self.clock_hz)

    @property
    def sensor_period_cycles(self) -> int:
        """Sensor period in platform cycles (half the actuator period)."""
        return self.actuator_period_cycles // 2


@dataclass(frozen=True)
class TvcaRunPlan:
    """The platform-independent half of one measured TVCA execution.

    The closed-loop control mathematics (plant, sensor processing, PID
    updates) is pure Python and depends only on the input seed — never
    on platform timing — so the complete sequence of per-job instruction
    traces can be built ahead of execution.  ``TvcaWorkload.plan_batch``
    (:mod:`repro.api.workload`) measures the plan job by job under the
    paper's protocol; contention scenarios concatenate it into a single
    trace, run on a continuous clock, and co-schedule it against
    opponents — so the two are not cycle-comparable.
    """

    jobs: Tuple["Job", ...]
    traces: Tuple[Trace, ...]
    signatures: Tuple[str, ...]
    path_class: str
    input_profile: str

    @property
    def full_signature(self) -> str:
        """Exact concatenated DSL signature of the whole run."""
        return "|".join(self.signatures)

    def concatenated_trace(self) -> Trace:
        """All job traces back to back, in release order — the form a
        co-scheduled (contention-scenario) run executes."""
        merged = Trace()
        for trace in self.traces:
            merged.extend(trace)
        return merged


class TvcaApplication:
    """The complete TVCA case study, ready to run on a platform."""

    TASK_SENSOR = "sensor_acquisition"
    TASK_ACT_X = "actuator_control_x"
    TASK_ACT_Y = "actuator_control_y"

    def __init__(self, config: TvcaConfig = TvcaConfig()) -> None:
        self.config = config
        self._math_helper = build_math_helper()
        self._sensor_program = build_sensor_task(estimator_dim=config.estimator_dim)
        self._act_x_program = build_actuator_task(
            "x",
            self._math_helper,
            aero_elements=config.aero_elements,
            aero_window=config.aero_window,
        )
        self._act_y_program = build_actuator_task(
            "y",
            self._math_helper,
            aero_elements=config.aero_elements,
            aero_window=config.aero_window,
        )
        # A synthetic main ties the three tasks into one linked image so
        # code and data of all tasks share the address space, as in the
        # real single binary.
        self._main_program = Program(
            name="tvca_main",
            body=[
                Block([alu(2)]),
                Call(self._sensor_program),
                Call(self._act_x_program),
                Call(self._act_y_program),
            ],
        )
        self.image: LinkedImage = link(self._main_program, config.layout)
        period = config.actuator_period_cycles
        self.tasks: List[TaskSpec] = [
            TaskSpec(self.TASK_SENSOR, period=period // 2, priority=0),
            TaskSpec(self.TASK_ACT_X, period=period, priority=1),
            TaskSpec(self.TASK_ACT_Y, period=period, priority=2),
        ]
        self._programs: Dict[str, Program] = {
            self.TASK_SENSOR: self._sensor_program,
            self.TASK_ACT_X: self._act_x_program,
            self.TASK_ACT_Y: self._act_y_program,
        }
        self._job_traces: "OrderedDict[_JobKey, _Emitted]" = OrderedDict()

    # ------------------------------------------------------------------
    # Environment construction
    # ------------------------------------------------------------------
    def _aero_index(self, error: float) -> int:
        """Map an attitude error to an aero-window base index."""
        top = self.config.aero_elements - self.config.aero_window - 1
        scale = abs(error) / self.config.plant.max_deflection
        return min(int(scale * top), top)

    # ------------------------------------------------------------------
    # Trace planning (platform-independent)
    # ------------------------------------------------------------------
    def _job_trace(self, name: str, env: Env) -> _Emitted:
        """The trace and path signature of one ``name`` job under ``env``.

        Memoized in a bounded LRU: emission is a pure function of the
        program, the image and the env, so equal jobs — within a run or
        across a campaign's runs — share one :class:`Trace` object, which
        :meth:`~repro.platform.core.Core.execute` then compiles once.
        Shared traces are read-only.
        """
        key: _JobKey = (
            name,
            tuple((k, type(v), repr(v)) for k, v in env.items()),
        )
        cache = self._job_traces
        emitted = cache.get(key)
        if emitted is None:
            emitted = generate_trace(self._programs[name], self.image, env)
            cache[key] = emitted
            if len(cache) > _JOB_TRACE_CACHE_SIZE:
                cache.popitem(last=False)
        else:
            cache.move_to_end(key)
        return emitted

    def build_plan(self, input_seed: int) -> TvcaRunPlan:
        """Run the closed control loop and build every job's trace.

        Pure function of ``input_seed``: the plant, sensor processing and
        controller mathematics never observe platform timing, so the
        traces (and the executed path) are fully determined before a
        single instruction is simulated.  Jobs with equal inputs share
        one trace object (see :meth:`_job_trace`).
        """
        cfg = self.config
        plant = TvcPlant(cfg.plant, input_seed)
        sensor_proc = SensorProcessor()
        sensor_proc.prime(plant.sense_x(), plant.sense_y())
        ctrl_x = AxisController(cfg.pid)
        ctrl_y = AxisController(cfg.pid)

        horizon = cfg.hyperperiods * cfg.actuator_period_cycles
        jobs = build_jobs(self.tasks, horizon=horizon)

        traces: List[Trace] = []
        signatures: List[str] = []
        any_fault = False
        any_sat_x = False
        any_sat_y = False
        max_steps_x = 0
        max_steps_y = 0

        dt = cfg.actuator_period_s / 2.0
        command_x = 0.0
        command_y = 0.0
        filtered = (0.0, 0.0, 0.0, 0.0)
        telemetry_slot = 0

        for job in jobs:
            name = job.task.name
            if name == self.TASK_SENSOR:
                decisions = sensor_proc.process(plant.sense_x(), plant.sense_y())
                filtered = decisions.filtered
                env = {"faults": decisions.faults, "telemetry_slot": telemetry_slot}
                telemetry_slot += 4
                any_fault = any_fault or any(decisions.faults)
                # The plant advances between sensor samples (held commands).
                plant.step(command_x, command_y, dt)
            elif name == self.TASK_ACT_X:
                d = ctrl_x.update(filtered[0], filtered[1], cfg.actuator_period_s)
                command_x = d.command
                any_sat_x = any_sat_x or d.saturated
                max_steps_x = max(max_steps_x, d.schedule_steps)
                env = {
                    "steps_x": d.schedule_steps,
                    "iclamp_x": d.integrator_clamped,
                    "sat_x": d.saturated,
                    "div_class_x": d.div_operand_class,
                    "sqrt_class_x": d.sqrt_operand_class,
                    "sqrt_class": d.sqrt_operand_class,
                    "aero_idx_x": self._aero_index(filtered[0]),
                }
            else:
                d = ctrl_y.update(filtered[2], filtered[3], cfg.actuator_period_s)
                command_y = d.command
                any_sat_y = any_sat_y or d.saturated
                max_steps_y = max(max_steps_y, d.schedule_steps)
                env = {
                    "steps_y": d.schedule_steps,
                    "iclamp_y": d.integrator_clamped,
                    "sat_y": d.saturated,
                    "div_class_y": d.div_operand_class,
                    "sqrt_class_y": d.sqrt_operand_class,
                    "sqrt_class": d.sqrt_operand_class,
                    "aero_idx_y": self._aero_index(filtered[2]),
                }

            trace, signature = self._job_trace(name, env)
            traces.append(trace)
            signatures.append(f"{name}[{job.index}]:{signature.as_key()}")

        path_class = f"fault={'T' if any_fault else 'F'}"
        input_profile = (
            f"sx={'T' if any_sat_x else 'F'};"
            f"sy={'T' if any_sat_y else 'F'};"
            f"gsx={max_steps_x};gsy={max_steps_y}"
        )
        return TvcaRunPlan(
            jobs=tuple(jobs),
            traces=tuple(traces),
            signatures=tuple(signatures),
            path_class=path_class,
            input_profile=input_profile,
        )
