"""Tests for contention scenarios: registry, protocol compliance,
shard/adaptive determinism and the contention acceptance criteria."""

import json

import pytest

from repro.api import (
    CampaignArtifact,
    CampaignConfig,
    CampaignRunner,
    ConvergencePolicy,
    Scenario,
    SyntheticWorkload,
    Workload,
    create_platform,
    create_scenario,
    create_workload,
    scenario_description,
    scenario_names,
)
from repro.core import AnalysisConfig, AnalysisPipeline
from repro.workloads.opponents import co_runner, co_runner_names
from repro.workloads.synthetic import cache_like_samples

RUNS = 12
SEED = 424242


def _platform(num_cores=4):
    return create_platform("rand", num_cores=num_cores, cache_kb=4)


def _campaign(scenario_name, workload_name="table-walk", runs=RUNS, shards=1,
              convergence=None, num_cores=4):
    scenario = create_scenario(scenario_name, create_workload(workload_name))
    runner = CampaignRunner(
        CampaignConfig(runs=runs, base_seed=SEED), shards=shards
    )
    return runner.run(scenario, _platform(num_cores), convergence=convergence)


class TestRegistry:
    def test_builtin_scenarios_registered(self):
        names = scenario_names()
        for expected in (
            "isolation",
            "opponent-memory-hammer",
            "opponent-cpu",
            "full-rand",
        ):
            assert expected in names
            assert scenario_description(expected)

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            create_scenario("nope", create_workload("matmul"))

    def test_builtin_co_runners_registered(self):
        assert co_runner_names() == ["cpu-burn", "memory-hammer", "rand-mix"]
        with pytest.raises(KeyError, match="unknown co-runner"):
            co_runner("nope")

    def test_scenario_implements_workload_protocol(self):
        scenario = create_scenario("isolation", create_workload("matmul"))
        assert isinstance(scenario, Workload)
        assert scenario.name == "matmul_8+isolation"


class TestScenarioValidation:
    def test_rejects_workload_without_build_trace(self):
        workload = SyntheticWorkload(cache_like_samples, name="synthetic")
        scenario = create_scenario("opponent-cpu", workload)
        with pytest.raises(ValueError, match="co-scheduling"):
            scenario.prepare(_platform())

    def test_rejects_single_core_platform_for_opponents(self):
        scenario = create_scenario(
            "opponent-memory-hammer", create_workload("matmul")
        )
        with pytest.raises(ValueError, match="at least 2 cores"):
            scenario.prepare(_platform(num_cores=1))

    def test_isolation_allows_single_core(self):
        result = _campaign("isolation", runs=3, num_cores=1)
        assert result.num_runs == 3

    def test_rejects_bad_co_runner_kind(self):
        with pytest.raises(TypeError):
            Scenario(create_workload("matmul"), co_runner_kind=123)


class TestIsolationEquivalence:
    def test_isolation_scenario_matches_plain_workload(self):
        plain = CampaignRunner(CampaignConfig(runs=RUNS, base_seed=SEED)).run(
            create_workload("table-walk"), _platform()
        )
        scenario = _campaign("isolation")
        assert [r.cycles for r in scenario.run_details] == [
            r.cycles for r in plain.run_details
        ]
        assert [r.path for r in scenario.run_details] == [
            r.path for r in plain.run_details
        ]


class TestContentionAcceptance:
    """The headline guarantees of the contention axis."""

    def test_memory_hammer_dominates_isolation_per_run(self):
        isolation = _campaign("isolation")
        hammer = _campaign("opponent-memory-hammer")
        for base, contended in zip(
            isolation.run_details, hammer.run_details
        ):
            assert contended.cycles >= base.cycles
            assert contended.platform_seed == base.platform_seed
            assert contended.input_seed == base.input_seed

    def test_memory_hammer_pwcet_dominates_isolation(self):
        """pWCET(memory-hammer) >= pWCET(isolation), same workload/seed."""
        runs = 400
        results = {
            name: _campaign(name, runs=runs, shards=2)
            for name in ("isolation", "opponent-memory-hammer")
        }
        estimates = {}
        for name, result in results.items():
            analysis = AnalysisPipeline(
                AnalysisConfig(
                    min_path_samples=max(120, runs // 3),
                    check_convergence=False,
                )
            ).run(result.samples)
            estimates[name] = analysis.quantile(1e-9)
        assert (
            estimates["opponent-memory-hammer"] >= estimates["isolation"]
        )

    def test_cpu_burn_opponents_issue_minimal_bus_traffic(self):
        """CPU burners fetch their tiny loop once and then stay off the
        bus — the analysis core keeps (almost) all transactions."""
        result = _campaign("opponent-cpu", runs=4)
        for record in result.run_details:
            transactions = record.metadata["bus"]["transactions_by_master"]
            for core in ("1", "2", "3"):
                assert transactions.get(core, 0) <= 4
            assert transactions["0"] > 10 * max(
                transactions.get(core, 0) for core in ("1", "2", "3")
            )


class TestScenarioDeterminism:
    def test_sharded_matches_serial(self):
        serial = _campaign("opponent-memory-hammer")
        sharded = _campaign("opponent-memory-hammer", shards=4)
        assert [r.cycles for r in serial.run_details] == [
            r.cycles for r in sharded.run_details
        ]
        assert [r.metadata for r in serial.run_details] == [
            r.metadata for r in sharded.run_details
        ]

    def test_adaptive_sharded_matches_adaptive_serial(self):
        policy = ConvergencePolicy(
            probability=1e-6, tolerance=0.5, step=10, block_size=2
        )
        serial = _campaign(
            "full-rand", runs=80, convergence=policy
        )
        sharded = _campaign(
            "full-rand", runs=80, shards=4, convergence=policy
        )
        assert serial.runs_used == sharded.runs_used
        assert [r.cycles for r in serial.run_details] == [
            r.cycles for r in sharded.run_details
        ]
        assert serial.convergence.converged == sharded.convergence.converged


class TestScenarioArtifacts:
    def test_per_core_stats_survive_artifact_roundtrip(self, tmp_path):
        result = _campaign("opponent-memory-hammer", runs=4)
        artifact = CampaignArtifact.from_result(
            result,
            platform=_platform(),
            workload="table-walk",
            scenario="opponent-memory-hammer",
        )
        path = tmp_path / "scenario.json"
        artifact.save(path)
        loaded = CampaignArtifact.load(path)
        assert loaded.scenario == "opponent-memory-hammer"
        assert loaded.platform["num_cores"] == 4
        record = loaded.records[0]
        metadata = record.metadata
        assert metadata["scenario"] == "opponent-memory-hammer"
        assert metadata["co_runner"] == "memory-hammer"
        assert set(metadata["per_core_cycles"]) == {"0", "1", "2", "3"}
        assert metadata["bus"]["contention_cycles"] == sum(
            metadata["bus"]["contention_by_master"].values()
        )
        # The whole artifact is valid JSON end to end.
        json.loads(path.read_text())
