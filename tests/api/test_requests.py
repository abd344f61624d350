"""The unified request-object surface: validation, round-trips,
digests, and the experiment drivers that consume it."""

import json
from dataclasses import replace

import pytest

from repro.api import (
    AnalysisRequest,
    CampaignRequest,
    CampaignRunner,
    execute_request,
)
from repro.core import ConvergencePolicy
from repro.harness import compare_requests

SMALL = dict(
    workload="matmul",
    platform="rand",
    runs=12,
    base_seed=7,
    workload_kwargs={"dim": 3},
    platform_kwargs={"num_cores": 1, "cache_kb": 4},
)


def cycles(result):
    return [record.cycles for record in result.run_details]


class TestValidation:
    def test_unknown_workload(self):
        with pytest.raises(ValueError, match="unknown workload"):
            CampaignRequest(workload="nope")

    def test_unknown_platform(self):
        with pytest.raises(ValueError, match="unknown platform"):
            CampaignRequest(platform="nope")

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            CampaignRequest(scenario="nope")

    def test_bad_shards(self):
        with pytest.raises(ValueError, match="shards"):
            CampaignRequest(shards=0)

    def test_bad_backend(self):
        with pytest.raises(ValueError):
            CampaignRequest(backend="gpu")

    def test_bad_runs(self):
        with pytest.raises(ValueError, match="runs"):
            CampaignRequest(runs=0)

    def test_non_json_kwargs(self):
        with pytest.raises(ValueError, match="JSON-serializable"):
            CampaignRequest(workload_kwargs={"dim": object()})

    def test_convergence_type_checked(self):
        with pytest.raises(ValueError, match="ConvergencePolicy"):
            CampaignRequest(convergence="yes")

    def test_analysis_type_checked(self):
        with pytest.raises(ValueError, match="AnalysisRequest"):
            CampaignRequest(analysis={"method": "auto"})

    def test_bad_analysis_knobs(self):
        with pytest.raises(ValueError):
            AnalysisRequest(ci=1.5)
        with pytest.raises(ValueError):
            AnalysisRequest(bootstrap=-1)
        with pytest.raises(ValueError, match="unknown estimator"):
            AnalysisRequest(method="nope")


class TestRoundTrip:
    def full_request(self):
        return CampaignRequest(
            scenario="isolation",
            shards=2,
            backend="batch",
            convergence=ConvergencePolicy(),
            analysis=AnalysisRequest(ci=0.9, min_path_samples=80),
            **{**SMALL, "platform_kwargs": {"num_cores": 2, "cache_kb": 4}},
        )

    def test_campaign_round_trip(self):
        request = self.full_request()
        assert CampaignRequest.from_json(request.to_json()) == request

    def test_analysis_round_trip(self):
        analysis = AnalysisRequest(method="auto", ci=0.95, bootstrap=300)
        assert AnalysisRequest.from_json(analysis.to_json()) == analysis

    def test_schema_stamped(self):
        data = json.loads(self.full_request().to_json())
        assert data["schema"] == "repro.campaign-request/1"
        assert data["analysis"]["schema"] == "repro.analysis-request/1"

    def test_unknown_field_rejected(self):
        data = self.full_request().to_dict()
        data["runz"] = 10
        with pytest.raises(ValueError, match="runz"):
            CampaignRequest.from_dict(data)

    def test_wrong_schema_rejected(self):
        data = self.full_request().to_dict()
        data["schema"] = "repro.campaign-request/999"
        with pytest.raises(ValueError, match="schema"):
            CampaignRequest.from_dict(data)

    def test_missing_fields_take_defaults(self):
        request = CampaignRequest.from_dict({"workload": "matmul"})
        assert request.runs == 300
        assert request.platform == "rand"


class TestDigests:
    def test_digest_covers_provenance(self):
        a = CampaignRequest(**SMALL)
        assert a.digest() != replace(a, shards=4).digest()
        assert a.digest() != replace(a, backend="scalar").digest()

    def test_execution_digest_ignores_provenance(self):
        a = CampaignRequest(**SMALL)
        assert a.execution_digest() == replace(a, shards=4).execution_digest()
        assert (
            a.execution_digest()
            == replace(a, backend="scalar").execution_digest()
        )
        assert (
            a.execution_digest()
            == replace(
                a, analysis=AnalysisRequest(min_path_samples=80)
            ).execution_digest()
        )

    def test_execution_digest_tracks_measurement_fields(self):
        a = CampaignRequest(**SMALL)
        assert a.execution_digest() != replace(a, runs=13).execution_digest()
        assert (
            a.execution_digest() != replace(a, base_seed=8).execution_digest()
        )
        assert (
            a.execution_digest()
            != replace(a, platform="det").execution_digest()
        )

    def test_execution_digest_sees_platform_kwargs(self):
        a = CampaignRequest(**SMALL)
        b = replace(a, platform_kwargs={"num_cores": 1, "cache_kb": 8})
        assert a.execution_digest() != b.execution_digest()


class TestExecution:
    def test_execute_request_matches_runner(self):
        request = CampaignRequest(**SMALL)
        direct = CampaignRunner.run_request(request)
        execution = execute_request(request)
        assert cycles(execution.result) == cycles(direct)

    def test_artifact_embeds_request_provenance(self):
        request = CampaignRequest(**SMALL)
        artifact = execute_request(request).artifact()
        assert artifact.workload == "matmul"
        assert artifact.config["runs"] == 12
        assert artifact.config["shards"] == 1

    def test_analysis_attached_when_requested(self):
        request = CampaignRequest(
            analysis=AnalysisRequest(min_path_samples=80),
            **{**SMALL, "runs": 90},
        )
        execution = execute_request(request)
        assert execution.analysis is not None
        assert execution.artifact().analysis is not None

    def test_with_scenario(self):
        request = CampaignRequest(**SMALL)
        swept = request.with_scenario("isolation")
        assert swept.scenario == "isolation"
        assert request.scenario is None


class TestShimParity:
    """The experiment drivers over request objects."""

    def test_progress_labels(self):
        seen = []
        compare_requests(
            CampaignRequest(
                workload="tvca", platform="det", runs=3, base_seed=1
            ),
            CampaignRequest(
                workload="tvca", platform="rand", runs=3, base_seed=1
            ),
            progress=lambda name, done, total: seen.append(name),
        )
        assert set(seen) == {"DET", "RAND"}
