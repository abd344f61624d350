"""Campaign-level backend contract: batch == scalar, end to end.

The runner promises that ``backend=`` never changes an observation —
only how the inner loop executes.  These tests pin that at the
campaign/artifact level, including the composition cases the ISSUE
calls out: batch x fork-sharding, batch x adaptive stopping, and the
co-scheduled contention path (scenario campaigns batch through
:mod:`repro.platform.batch_concurrent`; an explicit ``backend="batch"``
on an unbatchable campaign fails fast).
"""

import json

import pytest

from repro.api import (
    CampaignArtifact,
    CampaignConfig,
    CampaignRunner,
    ProgramWorkload,
    SyntheticWorkload,
    TvcaWorkload,
    create_platform,
    create_scenario,
    create_workload,
)
from repro.api.backend import execute_batch_indices, execute_one
from repro.core import ConvergencePolicy
from repro.platform.batch import numpy_available
from repro.workloads.kernels import matmul_kernel
from repro.workloads.synthetic import gumbel_samples
from repro.workloads.tvca import TvcaConfig

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="batch backend requires numpy"
)

APP_CONFIG = TvcaConfig(estimator_dim=10, aero_window=16, hyperperiods=1)


def _tvca_campaign(backend, shards=1, runs=40, vary_inputs=False,
                   convergence=None):
    runner = CampaignRunner(
        CampaignConfig(runs=runs, base_seed=422, vary_inputs=vary_inputs),
        shards=shards,
        backend=backend,
    )
    platform = create_platform("rand", num_cores=1, cache_kb=1)
    return runner.run(
        TvcaWorkload(config=APP_CONFIG), platform, convergence=convergence
    )


def _kernel_campaign(backend, name="table-walk", shards=1, runs=24,
                     vary_inputs=True):
    runner = CampaignRunner(
        CampaignConfig(runs=runs, base_seed=97, vary_inputs=vary_inputs),
        shards=shards,
        backend=backend,
    )
    platform = create_platform("rand", num_cores=1, cache_kb=1)
    return runner.run(create_workload(name), platform)


@requires_numpy
def test_tvca_fixed_campaign_backend_parity():
    scalar = _tvca_campaign("scalar")
    batch = _tvca_campaign("batch")
    auto = _tvca_campaign("auto")
    assert scalar.run_details == batch.run_details == auto.run_details
    assert scalar.backend == "scalar"
    assert batch.backend == "batch"
    assert auto.backend == "batch"


@requires_numpy
def test_batch_composes_with_fork_sharding():
    serial = _tvca_campaign("batch")
    sharded = _tvca_campaign("batch", shards=4)
    assert serial.run_details == sharded.run_details


@requires_numpy
@pytest.mark.parametrize("vary_inputs", [False, True])
def test_kernel_campaign_backend_parity(vary_inputs):
    scalar = _kernel_campaign("scalar", vary_inputs=vary_inputs)
    batch = _kernel_campaign("batch", vary_inputs=vary_inputs)
    sharded = _kernel_campaign("batch", shards=3, vary_inputs=vary_inputs)
    assert scalar.run_details == batch.run_details == sharded.run_details


@requires_numpy
def test_sharded_adaptive_batch_artifact_bit_identical_to_scalar():
    """The ISSUE's acceptance case: a sharded adaptive campaign under
    backend="batch" produces an artifact bit-identical to "scalar"
    (modulo the provenance field naming the backend itself)."""
    policy = ConvergencePolicy(
        step=10, block_size=2, tolerance=0.5, probability=1e-3
    )
    scalar = _tvca_campaign("scalar", shards=3, runs=120, convergence=policy)
    batch = _tvca_campaign("batch", shards=3, runs=120, convergence=policy)

    def artifact_dict(result):
        platform = create_platform("rand", num_cores=1, cache_kb=1)
        artifact = CampaignArtifact.from_result(
            result, platform=platform, workload="tvca", shards=3
        )
        payload = json.loads(artifact.to_json())
        payload["config"].pop("backend")
        return payload

    assert artifact_dict(scalar) == artifact_dict(batch)


@requires_numpy
def test_artifact_records_backend():
    result = _tvca_campaign("batch", runs=10)
    artifact = CampaignArtifact.from_result(result)
    assert artifact.backend == "batch"
    assert CampaignArtifact.from_json(artifact.to_json()).backend == "batch"
    scalar_artifact = CampaignArtifact.from_result(_tvca_campaign("scalar", runs=10))
    assert scalar_artifact.backend == "scalar"


def _scenario_campaign(backend, scenario_name, runs=10, vary_inputs=False,
                       shards=1, platform_name="rand"):
    runner = CampaignRunner(
        CampaignConfig(runs=runs, base_seed=3, vary_inputs=vary_inputs),
        shards=shards,
        backend=backend,
    )
    platform = create_platform(platform_name, num_cores=2, cache_kb=1)
    scenario = create_scenario(scenario_name, create_workload("matmul"))
    return runner.run(scenario, platform)


@requires_numpy
@pytest.mark.parametrize("vary_inputs", [False, True])
def test_scenario_campaign_backend_parity(vary_inputs):
    """Co-scheduled scenarios batch on the concurrent engine, record for
    record — including the per-core/bus/memory breakdown metadata."""
    scalar = _scenario_campaign("scalar", "opponent-cpu",
                                vary_inputs=vary_inputs)
    batch = _scenario_campaign("batch", "opponent-cpu",
                               vary_inputs=vary_inputs)
    auto = _scenario_campaign("auto", "opponent-cpu",
                              vary_inputs=vary_inputs)
    assert scalar.backend == "scalar"
    assert batch.backend == "batch"
    assert auto.backend == "batch"
    assert scalar.run_details == batch.run_details == auto.run_details


@requires_numpy
def test_scenario_campaign_batch_composes_with_sharding():
    serial = _scenario_campaign("batch", "opponent-memory-hammer")
    sharded = _scenario_campaign("batch", "opponent-memory-hammer", shards=3)
    assert serial.run_details == sharded.run_details


@requires_numpy
def test_contention_dominates_isolation_under_batch():
    """Monotonicity oracle: a memory-hammer opponent can only slow the
    analysis core down, run by run, under the batch backend too."""
    isolation = _scenario_campaign("batch", "isolation", runs=12)
    hammer = _scenario_campaign("batch", "opponent-memory-hammer", runs=12)
    assert isolation.num_runs == hammer.num_runs == 12
    for alone, contended in zip(isolation.run_details, hammer.run_details):
        assert contended.cycles >= alone.cycles
        assert contended.metadata["contention_by_core"]["0"] >= 0


def test_explicit_batch_without_plan_fails_fast():
    """backend="batch" on a workload with no batch description raises
    with the reason instead of silently running scalar."""
    runner = CampaignRunner(CampaignConfig(runs=4), backend="batch")
    platform = create_platform("rand", num_cores=1, cache_kb=1)
    workload = SyntheticWorkload(gumbel_samples, name="synthetic-gumbel")
    with pytest.raises(ValueError, match="no plan_batch hook"):
        runner.run(workload, platform)


def test_explicit_batch_unbatchable_scenario_fails_fast(monkeypatch):
    """backend="batch" on a scenario the concurrent engine rejects
    (here: numpy absent on a randomized platform) raises with the
    engine's reason; auto still runs, on the scalar path."""
    from repro.platform import batch as batch_mod
    from repro.platform import batch_concurrent as concurrent_mod

    monkeypatch.setattr(batch_mod, "_np", None)
    monkeypatch.setattr(concurrent_mod, "_np", None)
    with pytest.raises(ValueError, match="numpy is not available"):
        _scenario_campaign("batch", "opponent-cpu", runs=2)
    auto = _scenario_campaign("auto", "opponent-cpu", runs=2)
    assert auto.backend == "scalar"
    assert auto.num_runs == 2


def test_invalid_backend_rejected():
    with pytest.raises(ValueError):
        CampaignRunner(CampaignConfig(runs=1), backend="gpu")


def test_numpy_free_auto_campaign_still_runs(monkeypatch):
    """Without numpy, auto resolves to scalar for randomized platforms
    and campaigns keep working unchanged."""
    from repro.platform import batch as batch_mod

    monkeypatch.setattr(batch_mod, "_np", None)
    result = _tvca_campaign("auto", runs=6)
    assert result.backend == "scalar"
    assert result.num_runs == 6


@pytest.mark.parametrize("backend", ["scalar", "auto", "batch"])
@pytest.mark.parametrize("core_id", [-1, 4])
def test_out_of_range_core_id_rejected_on_every_backend(backend, core_id):
    """A program pinned to a core the platform lacks fails in prepare,
    whichever backend would measure it (a negative id must not wrap
    around to the last core)."""
    platform = create_platform("rand", num_cores=4, cache_kb=1)
    workload = ProgramWorkload(matmul_kernel(dim=3), core_id=core_id)
    runner = CampaignRunner(CampaignConfig(runs=2), backend=backend)
    with pytest.raises(ValueError, match=f"core_id {core_id} out of range"):
        runner.run(workload, platform)


def test_planless_workload_measures_through_execute():
    """Without a plan_batch hook, every entry point runs the workload's
    own execute."""
    workload = SyntheticWorkload(gumbel_samples, name="synthetic-gumbel")
    platform = create_platform("rand", num_cores=1, cache_kb=1)
    config = CampaignConfig(runs=6, base_seed=5)
    expected = [
        gumbel_samples(1, config.input_seed(index))[0] for index in range(6)
    ]
    records = execute_batch_indices(workload, platform, config, range(6))
    assert [record.cycles for record in records] == expected
    assert execute_one(workload, platform, config, 2) == records[2]


def test_scalar_adaptive_campaign_measures_no_discarded_run():
    """A scalar adaptive campaign measures in blocks of one run, so it
    plans exactly the runs it keeps."""
    planned = []

    class CountingTvca(TvcaWorkload):
        def plan_batch(self, platform, run_index, run_seed, input_seed):
            planned.append(run_index)
            return super().plan_batch(platform, run_index, run_seed, input_seed)

    runner = CampaignRunner(
        CampaignConfig(runs=600, base_seed=20170327), backend="scalar"
    )
    policy = ConvergencePolicy(
        probability=1e-9, tolerance=0.02, step=25, block_size=5,
        stable_steps=2,
    )
    result = runner.run(
        CountingTvca(
            TvcaConfig(estimator_dim=8, aero_elements=64, aero_window=8,
                       hyperperiods=1)
        ),
        create_platform("rand", num_cores=1),
        convergence=policy,
    )
    assert result.stopped_early
    assert planned == list(range(result.runs_used))


def test_group_key_follows_trace_identity():
    """Plans share a group exactly when they execute the same objects."""
    from dataclasses import replace

    from repro.api.backend import BatchPlan
    from repro.platform.trace import Trace

    def finalize(measurement):
        return None

    first, second = Trace(), Trace()
    plan = BatchPlan(segments=(first,), finalize=finalize)
    assert BatchPlan(segments=(first,), finalize=finalize).group_key == (
        plan.group_key
    )
    assert replace(plan, finalize=lambda m: None).group_key == plan.group_key
    for other in (
        BatchPlan(segments=(second,), finalize=finalize),
        BatchPlan(segments=(first,), finalize=finalize, core_id=1),
        BatchPlan(segments=(first, first), finalize=finalize),
        BatchPlan(segments=(first,), co_runners=((1, second),),
                  finalize_concurrent=finalize),
        BatchPlan(segments=(first,), co_runners=((1, second),),
                  loop_co_runners=False, finalize_concurrent=finalize),
    ):
        assert hash(other.group_key) is not None
        assert other.group_key != plan.group_key
