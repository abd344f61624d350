"""Workload adapters: the protocol every measurable thing implements."""

from repro.api import (
    CampaignConfig,
    CampaignRequest,
    CampaignRunner,
    ProgramWorkload,
    RunObservation,
    SyntheticWorkload,
    TvcaWorkload,
    Workload,
    create_workload,
    seeded_env_fn,
)
from repro.platform.soc import leon3_det, leon3_rand
from repro.workloads.kernels import matmul_kernel
from repro.workloads.synthetic import cache_like_samples
from repro.workloads.tvca.app import TvcaConfig

SMALL_TVCA = TvcaConfig(
    estimator_dim=8, aero_elements=64, aero_window=8, hyperperiods=1
)


class TestTvcaWorkload:
    def test_implements_protocol(self):
        assert isinstance(TvcaWorkload(SMALL_TVCA), Workload)

    def test_execute_is_seed_determined(self):
        platform = leon3_rand(num_cores=1)
        workload = TvcaWorkload(SMALL_TVCA)
        workload.prepare(platform)
        first = workload.execute(platform, run_seed=5, input_seed=9)
        second = workload.execute(platform, run_seed=5, input_seed=9)
        assert first.cycles == second.cycles
        assert first.path == second.path

    def test_observation_metadata(self):
        platform = leon3_rand(num_cores=1)
        workload = TvcaWorkload(SMALL_TVCA)
        workload.prepare(platform)
        obs = workload.execute(platform, run_seed=1, input_seed=2)
        assert isinstance(obs, RunObservation)
        assert obs.path.startswith("fault=")
        assert obs.metadata["deadlines_met"] is True
        assert obs.metadata["instructions"] > 0


class TestProgramWorkload:
    def test_prepare_links_image(self):
        workload = ProgramWorkload(matmul_kernel(dim=3))
        assert workload.image is None
        workload.prepare(leon3_det(num_cores=1))
        assert workload.image is not None

    def test_env_fn_receives_input_seed(self):
        seeds = []

        def env_fn(input_seed):
            seeds.append(input_seed)
            return {}

        workload = ProgramWorkload(matmul_kernel(dim=3), env_fn=env_fn)
        platform = leon3_det(num_cores=1)
        workload.prepare(platform)
        workload.execute(platform, run_seed=1, input_seed=42)
        assert seeds == [42]

    def test_seeded_env_fn_deterministic(self):
        env_fn = seeded_env_fn(lambda rng: {"x": rng.random()})
        assert env_fn(7) == env_fn(7)
        assert env_fn(7) != env_fn(8)


class TestTraceMemoization:
    """Per-run trace generation is cached by its generating seed."""

    def test_static_program_expands_trace_once(self):
        workload = ProgramWorkload(matmul_kernel(dim=3))
        platform = leon3_det(num_cores=1)
        workload.prepare(platform)
        first = workload.build_trace(platform, run_seed=1, input_seed=10)
        second = workload.build_trace(platform, run_seed=2, input_seed=20)
        # Trace independent of the input seed: one cache entry, reused.
        assert second.trace is first.trace
        assert workload._trace_cache.misses == 1
        assert workload._trace_cache.hits == 1

    def test_cached_trace_does_not_change_observations(self):
        uncached = ProgramWorkload(matmul_kernel(dim=3))
        cached = ProgramWorkload(matmul_kernel(dim=3))
        platform = leon3_det(num_cores=1)
        for workload in (uncached, cached):
            workload.prepare(platform)
        baseline = uncached.execute(platform, run_seed=3, input_seed=4)
        cached.execute(platform, run_seed=99, input_seed=4)  # warm
        warm = cached.execute(platform, run_seed=3, input_seed=4)
        assert warm.cycles == baseline.cycles
        assert warm.path == baseline.path

    def test_env_fn_traces_keyed_by_input_seed(self):
        workload = create_workload("table-walk", entries=64, lookups=16)
        platform = leon3_rand(num_cores=1)
        workload.prepare(platform)
        a1 = workload.build_trace(platform, run_seed=0, input_seed=1)
        b = workload.build_trace(platform, run_seed=0, input_seed=2)
        a2 = workload.build_trace(platform, run_seed=0, input_seed=1)
        assert a2.trace is a1.trace
        assert b.trace is not a1.trace
        assert workload._trace_cache.misses == 2
        assert workload._trace_cache.hits == 1

    def test_cache_capacity_is_bounded(self):
        workload = create_workload("table-walk", entries=16, lookups=4)
        platform = leon3_rand(num_cores=1)
        workload.prepare(platform)
        capacity = workload._trace_cache.capacity
        for seed in range(capacity + 10):
            workload.build_trace(platform, run_seed=0, input_seed=seed)
        assert len(workload._trace_cache._entries) == capacity

    def test_tvca_plan_cached_by_input_seed(self):
        platform = leon3_rand(num_cores=4)
        workload = TvcaWorkload(SMALL_TVCA)
        workload.prepare(platform)
        first = workload.build_trace(platform, run_seed=1, input_seed=5)
        again = workload.build_trace(platform, run_seed=2, input_seed=5)
        other = workload.build_trace(platform, run_seed=1, input_seed=6)
        assert again.trace is first.trace
        assert other.trace is not first.trace
        assert first.metadata["jobs"] > 0


class TestSyntheticWorkload:
    def test_draws_one_value_per_run(self):
        workload = SyntheticWorkload(cache_like_samples, name="syn")
        platform = leon3_rand(num_cores=1)
        obs = workload.execute(platform, run_seed=0, input_seed=3)
        assert obs.path == SyntheticWorkload.PATH
        assert obs.cycles == cache_like_samples(1, 3)[0]

    def test_campaign_matches_direct_generation(self):
        cfg = CampaignConfig(runs=20, base_seed=77)
        result = CampaignRunner(cfg, shards=2).run(
            SyntheticWorkload(cache_like_samples, name="syn"),
            leon3_rand(num_cores=1),
        )
        expected = [
            cache_like_samples(1, cfg.input_seed(i))[0] for i in range(20)
        ]
        assert result.merged.values == expected


class TestRunCampaignFacade:
    """The two ways to run a campaign: a request of registry names, or
    live workload and platform objects through the runner."""

    def test_accepts_registry_names(self):
        result = CampaignRunner.run_request(
            CampaignRequest(
                workload="matmul", platform="det", runs=4, base_seed=1,
                workload_kwargs={"dim": 3},
                platform_kwargs={"num_cores": 1},
            )
        )
        assert result.num_runs == 4
        assert result.label == "matmul_3@DET"

    def test_accepts_objects(self):
        result = CampaignRunner(CampaignConfig(runs=3)).run(
            ProgramWorkload(matmul_kernel(dim=3)),
            leon3_det(num_cores=1),
        )
        assert result.num_runs == 3

    def test_registry_workload_with_random_env(self):
        result = CampaignRunner.run_request(
            CampaignRequest(
                workload="table-walk", platform="rand", runs=5, base_seed=9,
                workload_kwargs={"entries": 64, "lookups": 16},
                platform_kwargs={"num_cores": 1, "cache_kb": 4},
            )
        )
        assert result.num_runs == 5
