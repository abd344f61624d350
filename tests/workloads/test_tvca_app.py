"""Tests for the TVCA application driver and task programs."""

import pytest

import repro.platform.core as core_module
from repro.harness.campaign import CampaignConfig
from repro.platform.batch import numpy_available, run_batch_segments
from repro.platform.prng import derive_seed
from repro.platform.soc import leon3_det, leon3_rand
from repro.platform.trace import InstrKind, Trace
from repro.programs.compiler import generate_trace
from repro.programs.layout import link
from repro.workloads.tvca.app import TvcaApplication, TvcaConfig
from repro.workloads.tvca.scheduler import simulate_timeline
from repro.workloads.tvca.tasks import (
    build_actuator_task,
    build_math_helper,
    build_sensor_task,
)


@pytest.fixture(scope="module")
def small_app():
    return TvcaApplication(
        TvcaConfig(estimator_dim=8, aero_elements=64, aero_window=8, hyperperiods=1)
    )


class TestTaskPrograms:
    def test_sensor_task_trace(self):
        prog = build_sensor_task(estimator_dim=4)
        image = link(prog)
        env = {"faults": (False, False, False, False), "telemetry_slot": 0}
        trace, path = generate_trace(prog, image, env)
        assert len(trace) > 100
        assert trace.count_kind(InstrKind.FMUL) > 0
        assert "fault=F" in path.as_key()

    def test_sensor_fault_changes_path(self):
        prog = build_sensor_task(estimator_dim=4)
        image = link(prog)
        base_env = {"faults": (False,) * 4, "telemetry_slot": 0}
        fault_env = {"faults": (True, False, False, False), "telemetry_slot": 0}
        _, p1 = generate_trace(prog, image, base_env)
        _, p2 = generate_trace(prog, image, fault_env)
        assert p1.as_key() != p2.as_key()

    def test_actuator_task_trace(self):
        helper = build_math_helper()
        prog = build_actuator_task("x", helper, aero_elements=64, aero_window=8)
        image = link(prog)
        env = {
            "steps_x": 3, "iclamp_x": False, "sat_x": True,
            "div_class_x": 0.7, "sqrt_class_x": 0.4, "sqrt_class": 0.4,
            "aero_idx_x": 10,
        }
        trace, path = generate_trace(prog, image, env)
        assert trace.count_kind(InstrKind.FDIV) == 1
        assert trace.count_kind(InstrKind.FSQRT) == 1
        assert "sched=3" in path.as_key()
        assert "sat=T" in path.as_key()

    def test_actuator_axis_validation(self):
        with pytest.raises(ValueError):
            build_actuator_task("z", build_math_helper())

    def test_estimator_dim_validation(self):
        with pytest.raises(ValueError):
            build_sensor_task(estimator_dim=1)

    def test_schedule_steps_scale_trace_length(self):
        helper = build_math_helper()
        prog = build_actuator_task("y", helper, aero_elements=64, aero_window=8)
        image = link(prog)

        def trace_length(steps):
            env = {
                "steps_y": steps, "iclamp_y": False, "sat_y": False,
                "div_class_y": 1.0, "sqrt_class_y": 1.0, "sqrt_class": 1.0,
                "aero_idx_y": 0,
            }
            t, _ = generate_trace(prog, image, env)
            return len(t)

        assert trace_length(5) > trace_length(1)


def default_input(run_seed):
    """An input seed derived from ``run_seed``."""
    return derive_seed(run_seed, 0xA11CE)


def measure(app, platform, run_seed, input_seed):
    """One run under the paper's protocol: the plan for ``input_seed``,
    then a platform reset and one core drain per job.  Returns the plan
    and the per-job cycle counts."""
    plan = app.build_plan(input_seed)
    platform.reset(run_seed)
    core = platform.cores[0]
    return plan, [core.execute(trace).cycles for trace in plan.traces]


class TestApplication:
    def test_run_reproducible(self, small_app):
        plat = leon3_rand(num_cores=1)
        a_plan, a_cycles = measure(small_app, plat, run_seed=5, input_seed=9)
        b_plan, b_cycles = measure(small_app, plat, run_seed=5, input_seed=9)
        assert a_cycles == b_cycles
        assert a_plan.path_class == b_plan.path_class
        assert a_plan.full_signature == b_plan.full_signature

    def test_input_seed_changes_inputs(self, small_app):
        plat = leon3_det(num_cores=1)
        a_plan, a_cycles = measure(small_app, plat, run_seed=5, input_seed=1)
        b_plan, b_cycles = measure(small_app, plat, run_seed=5, input_seed=2)
        assert sum(a_cycles) != sum(b_cycles) or a_plan.path_class != b_plan.path_class

    def test_all_three_tasks_execute(self, small_app):
        plat = leon3_rand(num_cores=1)
        plan, cycles = measure(small_app, plat, run_seed=3, input_seed=default_input(3))
        executed = {job.task.name for job, c in zip(plan.jobs, cycles) if c > 0}
        assert executed == {
            TvcaApplication.TASK_SENSOR,
            TvcaApplication.TASK_ACT_X,
            TvcaApplication.TASK_ACT_Y,
        }

    def test_deadlines_met(self, small_app):
        plat = leon3_rand(num_cores=1)
        plan, cycles = measure(small_app, plat, run_seed=8, input_seed=default_input(8))
        outcomes = simulate_timeline(plan.jobs, dict(zip(plan.jobs, cycles)))
        assert all(o.deadline_met for o in outcomes)
        assert max(o.response for o in outcomes) > 0

    def test_sensor_runs_twice_per_hyperperiod(self, small_app):
        plan = small_app.build_plan(default_input(8))
        assert plan.full_signature.count("sensor_acquisition[") == 2

    def test_path_class_format(self, small_app):
        plan = small_app.build_plan(default_input(8))
        assert plan.path_class in ("fault=F", "fault=T")
        assert plan.input_profile.startswith("sx=")
        assert ";gsx=" in plan.input_profile

    def test_input_profiles_vary_across_inputs(self, small_app):
        profiles = {
            small_app.build_plan(1000 + i).input_profile for i in range(25)
        }
        assert len(profiles) > 1

    def test_default_config_values(self):
        cfg = TvcaConfig()
        assert cfg.actuator_period_cycles == int(0.020 * 50e6)
        assert cfg.sensor_period_cycles == cfg.actuator_period_cycles // 2


def columns(trace):
    """Copies of every column of ``trace``."""
    return tuple(list(getattr(trace, name)) for name in Trace.__slots__)


ACT_X_ENV = {
    "steps_x": 3,
    "iclamp_x": False,
    "sat_x": True,
    "div_class_x": 0.5,
    "sqrt_class_x": 0.4,
    "sqrt_class": 0.4,
    "aero_idx_x": 10,
}


class TestJobTraceMemo:
    """Equal jobs share one emitted trace, and executing it mutates
    nothing, so sharing it is observation-neutral."""

    def test_equal_jobs_share_one_trace(self, small_app):
        first = small_app._job_trace(TvcaApplication.TASK_ACT_X, dict(ACT_X_ENV))
        second = small_app._job_trace(TvcaApplication.TASK_ACT_X, dict(ACT_X_ENV))
        assert first[0] is second[0]
        assert first[1] is second[1]

    @pytest.mark.parametrize(
        "name,left,right",
        [
            ("div_class_x", 0.0, -0.0),
            ("div_class_x", 1, 1.0),
            ("iclamp_x", True, 1),
            ("iclamp_x", True, 1.0),
        ],
    )
    def test_equal_values_of_other_types_do_not_share(
        self, small_app, name, left, right
    ):
        assert left == right
        task = TvcaApplication.TASK_ACT_X
        a, _ = small_app._job_trace(task, {**ACT_X_ENV, name: left})
        b, _ = small_app._job_trace(task, {**ACT_X_ENV, name: right})
        assert a is not b

    def test_faults_of_other_types_do_not_share(self, small_app):
        task = TvcaApplication.TASK_SENSOR
        a, _ = small_app._job_trace(
            task, {"faults": (True, False, False, False), "telemetry_slot": 0}
        )
        b, _ = small_app._job_trace(task, {"faults": (1, 0, 0, 0), "telemetry_slot": 0})
        assert a is not b

    def test_warm_and_fresh_apps_plan_equal_traces(self, small_app):
        for input_seed in (1, 2, 3):
            small_app.build_plan(input_seed)
        warm = small_app.build_plan(2)
        fresh = TvcaApplication(small_app.config).build_plan(2)
        assert warm.signatures == fresh.signatures
        assert warm.full_signature == fresh.full_signature
        assert [columns(t) for t in warm.traces] == [columns(t) for t in fresh.traces]

    def test_plan_traces_unchanged_by_scalar_execution(self, small_app):
        plan = small_app.build_plan(7)
        before = [columns(t) for t in plan.traces]
        platform = leon3_rand(num_cores=1, cache_kb=4)
        measure(small_app, platform, run_seed=3, input_seed=7)
        measure(small_app, platform, run_seed=4, input_seed=7)
        replanned = small_app.build_plan(7)
        assert all(a is b for a, b in zip(replanned.traces, plan.traces))
        assert [columns(t) for t in plan.traces] == before

    @pytest.mark.skipif(not numpy_available(), reason="batch engine requires numpy")
    def test_plan_traces_unchanged_by_plan_batch_execution(self, small_app):
        from repro.api.workload import TvcaWorkload

        workload = TvcaWorkload(app=small_app)
        platform = leon3_rand(num_cores=1, cache_kb=4)
        plan = workload.plan_batch(platform, 0, run_seed=3, input_seed=7)
        assert plan is not None
        before = [columns(t) for t in plan.segments]
        run_batch_segments(platform, plan.segments, [3, 4, 5])
        assert [columns(t) for t in plan.segments] == before

    def test_varied_campaign_compiles_each_sensor_trace_once(self, monkeypatch):
        """The `repro run` default: 12 runs with varied inputs execute 48
        sensor jobs, whose traces differ only in the telemetry slot."""
        compiled = []
        compile_segment = core_module._compile_segment

        def counting(trace, core_cfg, *args):
            compiled.append(trace)
            return compile_segment(trace, core_cfg, *args)

        monkeypatch.setattr(core_module, "_compile_segment", counting)
        app = TvcaApplication()
        campaign = CampaignConfig(runs=12, vary_inputs=True)
        platform = leon3_rand(num_cores=1, cache_kb=4)
        for run_index in range(campaign.runs):
            measure(
                app,
                platform,
                campaign.platform_seed(run_index),
                campaign.input_seed(run_index),
            )
        plan = app.build_plan(campaign.input_seed(0))
        sensor_entries = {
            trace.pcs[0]
            for job, trace in zip(plan.jobs, plan.traces)
            if job.task.name == TvcaApplication.TASK_SENSOR
        }
        assert len(plan.jobs) == 8 and len(sensor_entries) == 1
        assert len(compiled) >= 12 * 4  # the actuator jobs vary per run
        sensor_compiles = [t for t in compiled if t.pcs[0] in sensor_entries]
        assert 1 <= len(sensor_compiles) <= 4
