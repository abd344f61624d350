"""Campaign artifacts: full-fidelity persistence and re-analysis."""

import json

import pytest

from repro.api import (
    ArtifactCorrupt,
    ArtifactStore,
    CampaignArtifact,
    CampaignConfig,
    CampaignRequest,
    CampaignRunner,
    SyntheticWorkload,
    load_measurements,
    platform_fingerprint,
)
from repro.core import AnalysisConfig
from repro.harness.measurements import ExecutionTimeSample, PathSamples
from repro.platform.soc import leon3_rand
from repro.workloads.synthetic import cache_like_samples


@pytest.fixture(scope="module")
def campaign():
    runner = CampaignRunner(CampaignConfig(runs=600, base_seed=11), shards=2)
    workload = SyntheticWorkload(cache_like_samples, name="synthetic-cache")
    platform = leon3_rand(num_cores=1)
    result = runner.run(workload, platform)
    artifact = CampaignArtifact.from_result(
        result, config=runner.config, platform=platform,
        workload=workload.name, shards=runner.shards,
    )
    return result, artifact


class TestRoundTrip:
    def test_per_path_samples_survive(self, campaign, tmp_path):
        result, artifact = campaign
        path = artifact.save(tmp_path / "c.json")
        loaded = CampaignArtifact.load(path)
        assert loaded.label == result.label
        assert {k: s.values for k, s in loaded.samples.paths.items()} == {
            k: s.values for k, s in result.samples.paths.items()
        }

    def test_records_survive_with_seeds(self, campaign, tmp_path):
        result, artifact = campaign
        loaded = CampaignArtifact.from_json(artifact.to_json())
        assert loaded.records == result.run_details
        assert loaded.num_runs == result.num_runs

    def test_provenance_recorded(self, campaign):
        _, artifact = campaign
        assert artifact.config["runs"] == 600
        assert artifact.config["base_seed"] == 11
        assert artifact.config["shards"] == 2
        assert artifact.platform["name"] == "RAND"
        assert artifact.platform["is_randomized"] is True
        assert artifact.workload == "synthetic-cache"

    def test_feeds_analysis_directly(self, campaign):
        _, artifact = campaign
        loaded = CampaignArtifact.from_json(artifact.to_json())
        result = loaded.analyse(
            AnalysisConfig(min_path_samples=120, check_convergence=False)
        )
        assert result.quantile(1e-9) > 0

    def test_rejects_foreign_json(self):
        with pytest.raises(ValueError):
            CampaignArtifact.from_json(json.dumps({"values": [1, 2, 3]}))


class TestArtifactStore:
    def test_save_load_names(self, campaign, tmp_path):
        _, artifact = campaign
        store = ArtifactStore(tmp_path / "store")
        assert store.names() == []
        store.save("first", artifact)
        assert store.names() == ["first"]
        assert "first" in store
        assert store.load("first").label == artifact.label


class TestLoadMeasurements:
    def test_sniffs_artifact(self, campaign, tmp_path):
        _, artifact = campaign
        path = artifact.save(tmp_path / "a.json")
        assert isinstance(load_measurements(path), CampaignArtifact)

    def test_sniffs_path_samples(self, tmp_path):
        samples = PathSamples(label="x")
        samples.add("p1", 1.0)
        samples.add("p2", 2.0)
        path = tmp_path / "p.json"
        path.write_text(samples.to_json())
        loaded = load_measurements(path)
        assert isinstance(loaded, PathSamples)
        assert loaded.counts() == {"p1": 1, "p2": 1}

    def test_sniffs_legacy_sample(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(ExecutionTimeSample(values=[1.0, 2.0], label="old").to_json())
        loaded = load_measurements(path)
        assert isinstance(loaded, ExecutionTimeSample)
        assert loaded.values == [1.0, 2.0]

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"nope": 1}))
        with pytest.raises(ValueError):
            load_measurements(path)

    def test_parses_artifact_once(self, campaign, tmp_path, monkeypatch):
        _, artifact = campaign
        path = artifact.save(tmp_path / "a.json")
        calls = []
        real_loads = json.loads

        def counting_loads(*args, **kwargs):
            calls.append(1)
            return real_loads(*args, **kwargs)

        monkeypatch.setattr(json, "loads", counting_loads)
        loaded = load_measurements(path)
        assert len(calls) == 1
        assert loaded.to_json() == artifact.to_json()

    def test_corrupt_artifact_is_typed(self, campaign, tmp_path):
        _, artifact = campaign
        data = json.loads(artifact.to_json())
        data["records"][0]["cycles"] += 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ArtifactCorrupt, match="content digest mismatch"):
            load_measurements(path)


class TestPathSamplesJson:
    def test_round_trip_preserves_order_and_labels(self):
        samples = PathSamples(label="L")
        for value in (3.0, 1.0, 2.0):
            samples.add("a", value)
        samples.add("b", 9.0)
        restored = PathSamples.from_json(samples.to_json())
        assert restored.label == "L"
        assert restored.paths["a"].values == [3.0, 1.0, 2.0]
        assert restored.paths["a"].label == "L/a"
        assert restored.paths["b"].values == [9.0]

    def test_fingerprint_shape(self):
        fp = platform_fingerprint(leon3_rand(num_cores=2, cache_kb=4))
        assert fp["num_cores"] == 2
        assert fp["icache"]["size_bytes"] == 4096
        assert fp["icache"]["replacement"] == "random"
        assert fp["fpu_mode"] == "analysis"


class TestAnalysisSection:
    def _banded_artifact(self):
        from repro.core import AnalysisPipeline

        result = CampaignRunner.run_request(
            CampaignRequest(
                workload="synthetic-cache", platform="rand", runs=200,
                platform_kwargs={"num_cores": 1, "cache_kb": 4},
            )
        )
        artifact = CampaignArtifact.from_result(result)
        analysis = AnalysisPipeline(
            AnalysisConfig(
                method="auto", ci=0.9, min_path_samples=120,
                check_convergence=False,
            )
        ).run(result.samples)
        artifact.attach_analysis(analysis)
        return artifact, analysis

    def test_attach_and_round_trip(self, tmp_path):
        from repro.api import CampaignArtifact
        from repro.core.analysis import ConfidenceBand

        artifact, analysis = self._banded_artifact()
        path = tmp_path / "banded.json"
        artifact.save(path)
        loaded = CampaignArtifact.load(path)
        assert loaded.analysis == artifact.analysis
        assert loaded.analysis["method"] == "auto"
        assert loaded.analysis["ci"] == 0.9
        entry = next(iter(loaded.analysis["paths"].values()))
        band = ConfidenceBand.from_dict(entry["band"])
        stored = next(iter(analysis.bands().values()))
        assert band == stored
        # The raw samples are untouched: re-analysis works without rerun.
        assert loaded.samples.counts() == artifact.samples.counts()

    def test_artifact_without_analysis_loads(self, tmp_path):
        result = CampaignRunner.run_request(
            CampaignRequest(
                workload="synthetic-cache", platform="rand", runs=30,
                platform_kwargs={"num_cores": 1, "cache_kb": 4},
            )
        )
        artifact = CampaignArtifact.from_result(result)
        path = tmp_path / "plain.json"
        artifact.save(path)
        loaded = CampaignArtifact.load(path)
        assert loaded.analysis is None
        assert "analysis" not in json.loads(path.read_text())

    def test_summary_is_json_safe(self):
        artifact, _ = self._banded_artifact()
        payload = json.dumps(artifact.analysis)
        restored = json.loads(payload)
        assert restored["pwcet_band"]
        for _p, lo, hi in restored["pwcet_band"]:
            assert lo <= hi
