"""Adaptive (convergence-driven) campaigns through the runner API.

The tentpole invariants:

* with a :class:`ConvergencePolicy` the campaign stops at the first run
  where the MBPTA criterion holds — ``runs_used < runs_requested`` on a
  convergent workload — and records the full stopping decision,
* the sharded adaptive campaign is **bit-identical** to the serial one
  (the stopping rule is a pure function of the observation sequence in
  run-index order),
* the adaptive estimate agrees with the fixed-budget estimate to within
  the convergence tolerance (the point of stopping early),
* the whole decision round-trips through the campaign artifact.
"""

import pytest

from repro.api import (
    CampaignArtifact,
    CampaignConfig,
    CampaignRunner,
    ConvergencePolicy,
    SyntheticWorkload,
    TvcaWorkload,
)
from repro.core.evt import BlockMaximaTail, block_maxima, gumbel_fit_pwm
from repro.platform.soc import leon3_rand
from repro.workloads.synthetic import cache_like_samples
from repro.workloads.tvca.app import TvcaConfig

BASE_SEED = 20170327
POLICY = ConvergencePolicy(
    probability=1e-9, tolerance=0.02, step=25, block_size=5, stable_steps=2
)
SMALL_TVCA = TvcaConfig(
    estimator_dim=8, aero_elements=64, aero_window=8, hyperperiods=1
)


def _synthetic():
    return SyntheticWorkload(cache_like_samples, name="synthetic-cache")


def _run(workload, runs, shards=1, convergence=POLICY):
    runner = CampaignRunner(
        CampaignConfig(runs=runs, base_seed=BASE_SEED), shards=shards
    )
    return runner.run(workload, leon3_rand(num_cores=1), convergence=convergence)


def _path_estimate(result, path):
    """The policy's pWCET estimate on a result's per-path sample."""
    values = result.samples.paths[path].values
    fit = gumbel_fit_pwm(block_maxima(values, POLICY.block_size).maxima)
    tail = BlockMaximaTail(distribution=fit, block_size=POLICY.block_size)
    return tail.quantile(POLICY.probability)


class TestAdaptiveSynthetic:
    @pytest.fixture(scope="class")
    def serial(self):
        return _run(_synthetic(), runs=2000)

    def test_stops_before_cap(self, serial):
        assert serial.runs_requested == 2000
        assert serial.runs_used < 2000
        assert serial.stopped_early
        assert serial.convergence.converged
        assert serial.num_runs == serial.runs_used == len(serial.run_details)

    def test_stops_at_monitor_verdict(self, serial):
        report = serial.convergence.paths[SyntheticWorkload.PATH]
        assert report.converged
        assert serial.runs_used == report.runs_needed

    @pytest.mark.parametrize("shards", [2, 4])
    def test_sharded_bit_identical(self, serial, shards):
        sharded = _run(_synthetic(), runs=2000, shards=shards)
        assert sharded.run_details == serial.run_details
        assert sharded.convergence.to_dict() == serial.convergence.to_dict()

    def test_fixed_budget_leaves_fields_unset(self):
        fixed = _run(_synthetic(), runs=60, convergence=None)
        assert fixed.runs_requested is None
        assert fixed.convergence is None
        assert not fixed.stopped_early
        assert fixed.num_runs == 60

    def test_cap_reached_without_convergence(self):
        capped = _run(_synthetic(), runs=80)
        assert capped.runs_used == 80
        assert not capped.stopped_early
        assert not capped.convergence.converged
        assert capped.runs_requested == 80

    def test_artifact_round_trip(self, serial, tmp_path):
        artifact = CampaignArtifact.from_result(
            serial,
            config=CampaignConfig(runs=2000, base_seed=BASE_SEED),
            workload="synthetic-cache",
        )
        assert artifact.runs_requested == 2000
        assert artifact.runs_used == serial.runs_used
        path = artifact.save(tmp_path / "adaptive.json")
        restored = CampaignArtifact.load(path)
        assert restored.convergence is not None
        assert restored.convergence.to_dict() == serial.convergence.to_dict()
        assert restored.runs_requested == 2000
        assert restored.runs_used == serial.runs_used

    def test_default_policy(self):
        result = _run(_synthetic(), runs=2000, convergence=ConvergencePolicy())
        # Default policy (block 20, step 100) needs 400 runs to fit.
        assert result.runs_requested == 2000
        assert result.convergence is not None


class TestAdaptiveTvca:
    """The acceptance scenario on the paper's workload."""

    @pytest.fixture(scope="class")
    def adaptive(self):
        return _run(TvcaWorkload(SMALL_TVCA), runs=600)

    @pytest.fixture(scope="class")
    def fixed(self):
        return _run(TvcaWorkload(SMALL_TVCA), runs=600, shards=4, convergence=None)

    def test_stops_before_cap(self, adaptive):
        assert adaptive.convergence.converged
        assert adaptive.runs_used < 600

    def test_estimate_within_tolerance_of_fixed_budget(self, adaptive, fixed):
        path = max(
            adaptive.samples.counts(), key=lambda k: adaptive.samples.counts()[k]
        )
        early = _path_estimate(adaptive, path)
        full = _path_estimate(fixed, path)
        assert abs(early - full) / full <= POLICY.tolerance

    def test_sharded_artifact_bit_identical(self, adaptive):
        sharded = _run(TvcaWorkload(SMALL_TVCA), runs=600, shards=4)
        config = CampaignConfig(runs=600, base_seed=BASE_SEED)
        serial_json = CampaignArtifact.from_result(
            adaptive, config=config, workload="tvca"
        ).to_json()
        sharded_json = CampaignArtifact.from_result(
            sharded, config=config, workload="tvca"
        ).to_json()
        assert sharded_json == serial_json

    def test_adaptive_prefix_of_fixed_budget(self, adaptive, fixed):
        """Early stopping only truncates: the adaptive records are the
        exact prefix of the fixed-budget campaign's records."""
        n = adaptive.runs_used
        assert adaptive.run_details == fixed.run_details[:n]
