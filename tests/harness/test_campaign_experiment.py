"""Tests for measurement campaigns and the DET/RAND experiment driver."""

from dataclasses import replace

import pytest

from repro.api import (
    CampaignRequest,
    CampaignRunner,
    ProgramWorkload,
    TvcaWorkload,
)
from repro.harness.campaign import CampaignConfig
from repro.harness.experiment import compare_requests, compare_scenarios_request
from repro.platform.soc import leon3_det, leon3_rand
from repro.programs.layout import link
from repro.workloads.kernels import matmul_kernel
from repro.workloads.tvca.app import TvcaApplication, TvcaConfig

SMALL_TVCA_KWARGS = {
    "estimator_dim": 8, "aero_elements": 64, "aero_window": 8, "hyperperiods": 1,
}
SMALL_TVCA = TvcaConfig(**SMALL_TVCA_KWARGS)


def _det_rand(runs, base_seed=2017):
    """The small TVCA measured on DET and RAND with identical seeds."""
    det = CampaignRequest(
        workload="tvca", platform="det", runs=runs, base_seed=base_seed,
        workload_kwargs=SMALL_TVCA_KWARGS,
    )
    return compare_requests(det, replace(det, platform="rand"))


def _scenarios(workload, scenarios, runs, base_seed=2017, **platform_kwargs):
    """One workload on RAND under each contention scenario."""
    base = CampaignRequest(
        workload=workload, platform="rand", runs=runs, base_seed=base_seed,
        platform_kwargs=platform_kwargs,
    )
    return compare_scenarios_request(base, scenarios=scenarios)


class TestCampaignConfig:
    def test_seed_derivations_distinct(self):
        cfg = CampaignConfig(runs=10, base_seed=1)
        platform_seeds = {cfg.platform_seed(i) for i in range(10)}
        input_seeds = {cfg.input_seed(i) for i in range(10)}
        assert len(platform_seeds) == 10
        assert len(input_seeds) == 10
        assert platform_seeds.isdisjoint(input_seeds)

    def test_fixed_inputs_mode(self):
        cfg = CampaignConfig(runs=5, vary_inputs=False)
        assert cfg.input_seed(0) == cfg.input_seed(4)

    def test_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig(runs=0)


class TestTvcaCampaign:
    def test_collects_requested_runs(self):
        runner = CampaignRunner(CampaignConfig(runs=12, base_seed=3))
        result = runner.run(
            TvcaWorkload(app=TvcaApplication(SMALL_TVCA)), leon3_rand(num_cores=1)
        )
        assert result.num_runs == 12
        assert len(result.merged) == 12

    def test_reproducible_with_same_base_seed(self):
        app = TvcaApplication(SMALL_TVCA)
        c1 = CampaignRunner(CampaignConfig(runs=6, base_seed=9))
        c2 = CampaignRunner(CampaignConfig(runs=6, base_seed=9))
        r1 = c1.run(TvcaWorkload(app=app), leon3_rand(num_cores=1))
        r2 = c2.run(TvcaWorkload(app=app), leon3_rand(num_cores=1))
        assert r1.merged.values == r2.merged.values

    def test_progress_callback(self):
        seen = []
        runner = CampaignRunner(CampaignConfig(runs=4))
        runner.run(
            TvcaWorkload(app=TvcaApplication(SMALL_TVCA)),
            leon3_rand(num_cores=1),
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]

    def test_paths_recorded(self):
        runner = CampaignRunner(CampaignConfig(runs=15, base_seed=5))
        result = runner.run(
            TvcaWorkload(app=TvcaApplication(SMALL_TVCA)), leon3_rand(num_cores=1)
        )
        assert result.samples.num_paths >= 1
        assert sum(result.samples.counts().values()) == 15


class TestProgramCampaign:
    def test_kernel_campaign(self):
        prog = matmul_kernel(dim=4)
        image = link(prog)
        runner = CampaignRunner(CampaignConfig(runs=8))
        result = runner.run(ProgramWorkload(prog, image), leon3_rand(num_cores=1))
        assert result.num_runs == 8
        assert result.samples.num_paths == 1  # matmul has a single path

    def test_progress_callback(self):
        seen = []
        prog = matmul_kernel(dim=4)
        image = link(prog)
        runner = CampaignRunner(CampaignConfig(runs=5))
        runner.run(
            ProgramWorkload(prog, image), leon3_rand(num_cores=1),
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen == [(1, 5), (2, 5), (3, 5), (4, 5), (5, 5)]

    def test_run_details_typed(self):
        from repro.harness import RunRecord

        prog = matmul_kernel(dim=4)
        image = link(prog)
        runner = CampaignRunner(CampaignConfig(runs=3))
        result = runner.run(ProgramWorkload(prog, image), leon3_rand(num_cores=1))
        assert all(isinstance(r, RunRecord) for r in result.run_details)
        assert [r.index for r in result.run_details] == [0, 1, 2]

    def test_env_fn_drives_paths(self):
        from repro.programs.dsl import Block, If, Program, alu

        prog = Program(
            name="p",
            body=[If("c", lambda env: env["f"], [Block([alu(5)])], [Block([alu(1)])])],
        )
        image = link(prog)
        runner = CampaignRunner(CampaignConfig(runs=10))
        result = runner.run(
            ProgramWorkload(prog, image, env_fn=lambda seed: {"f": seed % 2 == 0}),
            leon3_det(num_cores=1),
        )
        assert result.samples.num_paths == 2


class TestCompareDetRand:
    def test_comparison_runs(self):
        comparison = _det_rand(runs=10)
        summary = comparison.summary()
        assert summary["det_mean"] > 0
        assert summary["rand_mean"] > 0
        assert 0.8 < summary["average_ratio"] < 1.2

    def test_identical_inputs_across_platforms(self):
        comparison = _det_rand(runs=6, base_seed=11)
        # Same number of observations on both platforms.
        assert len(comparison.det_sample) == len(comparison.rand_sample) == 6


class TestCompareScenarios:
    def test_isolation_vs_hammer_sweep(self):
        comparison = _scenarios(
            "table-walk",
            ("isolation", "opponent-memory-hammer"),
            runs=8,
            base_seed=55,
            num_cores=4,
            cache_kb=4,
        )
        summary = comparison.summary()
        assert set(summary) == {"isolation", "opponent-memory-hammer"}
        assert summary["opponent-memory-hammer"]["slowdown"] >= 1.0
        assert comparison.slowdown("isolation") == 1.0
        # Same seeds across scenarios: the per-run seeds line up.
        iso = comparison.by_scenario["isolation"].run_details
        ham = comparison.by_scenario["opponent-memory-hammer"].run_details
        assert [r.platform_seed for r in iso] == [r.platform_seed for r in ham]

    def test_slowdown_requires_baseline(self):
        comparison = _scenarios(
            "matmul", ("opponent-cpu",), runs=2, num_cores=2, cache_kb=4
        )
        with pytest.raises(ValueError):
            comparison.slowdown("opponent-cpu")


class TestBandRelation:
    def test_relations(self):
        from repro.harness import band_relation

        assert band_relation(10.0, 12.0, 5.0, 9.0) == "above"
        assert band_relation(1.0, 4.0, 5.0, 9.0) == "below"
        assert band_relation(1.0, 6.0, 5.0, 9.0) == "overlap"
        assert band_relation(5.0, 9.0, 5.0, 9.0) == "overlap"

    def test_point_reference_degenerate_interval(self):
        from repro.harness import band_relation

        assert band_relation(10.0, 12.0, 8.0, 8.0) == "above"
        assert band_relation(10.0, 12.0, 11.0, 11.0) == "overlap"


class TestScenarioBandSummary:
    def test_summary_carries_bands_and_overlap_is_decidable(self):
        from repro.api import AnalysisRequest
        from repro.harness import band_relation

        comparison = _scenarios(
            "table-walk",
            ("isolation", "opponent-memory-hammer"),
            runs=400,
            base_seed=55,
            num_cores=4,
            cache_kb=4,
        )
        summary = comparison.summary(
            cutoff=1e-9, analysis=AnalysisRequest(ci=0.9, bootstrap=100)
        )
        for name in ("isolation", "opponent-memory-hammer"):
            row = summary[name]
            assert row["pwcet_lo"] <= row["pwcet"] * 1.05
            assert row["pwcet_lo"] <= row["pwcet_hi"]
        # The hammer's x2+ contention gap dwarfs the estimator noise:
        # its band must sit entirely above isolation's.
        iso, ham = summary["isolation"], summary["opponent-memory-hammer"]
        assert band_relation(
            ham["pwcet_lo"], ham["pwcet_hi"],
            iso["pwcet_lo"], iso["pwcet_hi"],
        ) == "above"

    def test_summary_without_ci_has_no_band_columns(self):
        comparison = _scenarios(
            "table-walk", ("isolation",), runs=8, num_cores=4, cache_kb=4
        )
        summary = comparison.summary(cutoff=None)
        assert "pwcet_lo" not in summary["isolation"]


class TestDetRandBands:
    def test_analyse_rand_and_mbta_verdict(self):
        from repro.core import AnalysisConfig, mbta_bound

        comparison = _det_rand(runs=250, base_seed=7)
        analysis = comparison.analyse_rand(
            AnalysisConfig(
                min_path_samples=120, check_convergence=False, ci=0.9,
                bootstrap=100,
            )
        )
        mbta = mbta_bound(comparison.det_sample.values)
        verdict = comparison.mbta_vs_band(analysis, 1e-12, mbta.bound)
        assert verdict is not None
        assert verdict["relation"] in ("above", "below", "overlap")
        assert verdict["lower"] <= verdict["upper"]

    def test_no_band_returns_none(self):
        comparison = _det_rand(runs=250, base_seed=7)
        analysis = comparison.analyse_rand()
        assert comparison.mbta_vs_band(analysis, 1e-12, 1000.0) is None
