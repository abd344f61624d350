"""Cache hits and re-analyses served from verified stored bytes.

The store verifies each file once per process and then recognises it
by the SHA-256 of its bytes; hits splice the requested analysis into
the stored campaign text instead of re-encoding it.  These tests pin:

* every hit is byte-identical to a fresh in-process artifact, across
  estimators, confidence bands, adaptive and contention campaigns, and
  a restarted daemon (cold memo);
* the memo compares bytes, not stat data, and a store file outside the
  canonical layout is re-measured;
* the memo stays within its byte budget.
"""

import dataclasses
import json
import os
import sys
import threading

import pytest

from repro.api import AnalysisRequest, CampaignRequest, execute_request
from repro.api.artifacts import (
    ArtifactCorrupt,
    CampaignArtifact,
    saved_text,
    splice_analysis,
)
from repro.api.requests import CampaignExecution
from repro.core import AnalysisPipeline
from repro.core.convergence import ConvergencePolicy
from repro.service import CampaignService, PersistentStore
from repro.service import store as store_module

ESTIMATORS = ("block-maxima-gumbel", "gev", "pot-gpd", "auto")

CAMPAIGNS = {
    "plain": dict(
        workload="matmul",
        platform="rand",
        runs=120,
        base_seed=5,
        workload_kwargs={"dim": 3},
        platform_kwargs={"num_cores": 1, "cache_kb": 4},
    ),
    "adaptive": dict(
        workload="synthetic-cache",
        platform="rand",
        runs=400,
        base_seed=20170327,
        convergence=ConvergencePolicy(
            tolerance=0.02, step=25, block_size=5, stable_steps=2
        ),
    ),
    "contention": dict(
        workload="table-walk",
        platform="rand",
        runs=120,
        base_seed=7,
        scenario="opponent-memory-hammer",
        platform_kwargs={"num_cores": 2, "cache_kb": 4},
    ),
}


def analyses():
    for method in ESTIMATORS:
        for ci in (None, 0.9):
            yield AnalysisRequest(
                method=method, ci=ci, bootstrap=40, min_path_samples=80
            )


def expected_text(execution, request):
    """The artifact an in-process run of ``request`` writes, from the
    measurements of ``execution`` (same execution digest)."""
    analysis = None
    if request.analysis is not None:
        config = request.analysis.analysis_config(execution.result.num_runs)
        analysis = AnalysisPipeline(config).run(execution.result.samples)
    fresh = CampaignExecution(
        request=request,
        result=execution.result,
        platform=execution.platform,
        analysis=analysis,
    )
    return fresh.artifact().to_json(indent=2) + "\n"


def run_job(service, request):
    status, body, _ = service.dispatch("POST", "/campaigns", request.to_json())
    assert status == 202, body
    job_id = json.loads(body)["job"]["id"]
    job = service.jobs.wait(job_id, timeout=120)
    assert job.state == "done", job.error
    status, text, _ = service.dispatch(
        "GET", f"/campaigns/{job_id}/artifact", ""
    )
    assert status == 200, text
    return job, text


@pytest.fixture(scope="module", params=sorted(CAMPAIGNS))
def measured(request, tmp_path_factory):
    """A campaign measured once in-process and once by a service whose
    job carried an analysis (the miss path splices it too)."""
    campaign = CampaignRequest(
        analysis=AnalysisRequest(min_path_samples=80), **CAMPAIGNS[request.param]
    )
    execution = execute_request(campaign)
    root = tmp_path_factory.mktemp(f"store-{request.param}")
    service = CampaignService(root, workers=1)
    try:
        job, text = run_job(service, campaign)
        assert job.cached is False
        assert text == execution.artifact().to_json(indent=2) + "\n"
    finally:
        service.close()
    return campaign, execution, root


class TestHitByteIdentity:
    def test_campaign_kinds_are_covered(self, measured):
        campaign, execution, _ = measured
        if campaign.convergence is not None:
            assert execution.result.runs_used < campaign.runs
        if campaign.scenario is not None:
            assert execution.artifact().scenario == campaign.scenario

    @pytest.mark.parametrize("memo", ["warm", "cold"])
    def test_every_analysis_matches_in_process(self, measured, memo):
        campaign, execution, root = measured
        service = CampaignService(root, workers=1)
        try:
            if memo == "warm":  # the first hit fills the memo
                run_job(service, campaign)
            for analysis in analyses():
                hit = dataclasses.replace(campaign, analysis=analysis)
                job, text = run_job(service, hit)
                assert job.cached is True
                assert text == expected_text(execution, hit), analysis
                if memo == "cold":
                    break  # one cold verify per daemon; the rest are warm
            counters = service.metrics.snapshot()["counters"]
            assert "cache_misses_total" not in counters
            assert "store_corrupt_total" not in counters
        finally:
            service.close()

    def test_hit_without_analysis_is_the_stored_text(self, measured):
        campaign, execution, root = measured
        bare = dataclasses.replace(campaign, analysis=None)
        service = CampaignService(root, workers=1)
        try:
            _, text = run_job(service, bare)
        finally:
            service.close()
        digest = campaign.execution_digest()
        assert text == (root / "campaigns" / f"{digest}.json").read_text()
        assert text == expected_text(execution, bare)


def small_artifact(base_seed=5, runs=8):
    request = CampaignRequest(
        workload="matmul",
        platform="rand",
        runs=runs,
        base_seed=base_seed,
        workload_kwargs={"dim": 3},
        platform_kwargs={"num_cores": 1, "cache_kb": 4},
    )
    return request.execution_digest(), execute_request(request).artifact()


def memo_charge(store):
    """What the memo's entries are charged, summed."""
    return sum(verified.size for _, verified in store._memo.values())


@pytest.fixture()
def count_parses(monkeypatch):
    """Counts full artifact parses (``CampaignArtifact.from_json``)."""
    calls = []
    real = CampaignArtifact.from_json.__func__

    def counting(cls, payload):
        calls.append(1)
        return real(cls, payload)

    monkeypatch.setattr(CampaignArtifact, "from_json", classmethod(counting))
    return calls


def flip_digit(path):
    """Change one digit of the first record's cycles in place: same
    length, valid JSON, mtime restored."""
    stat = os.stat(path)
    text = path.read_text()
    start = text.index('"cycles": ') + len('"cycles": ')
    digit = text[start]
    flipped = "1" if digit != "1" else "2"
    path.write_text(text[:start] + flipped + text[start + 1 :])
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert os.stat(path).st_size == stat.st_size


class TestVerifiedMemo:
    def test_saved_campaign_loads_without_parse(self, tmp_path, count_parses):
        store = PersistentStore(tmp_path)
        digest, artifact = small_artifact()
        text, verified = store.save_campaign(digest, artifact)
        loaded_text, loaded = store.load_campaign_text(digest)
        assert count_parses == []
        assert loaded_text == text == artifact.to_json(indent=2) + "\n"
        assert loaded.num_runs == artifact.num_runs
        assert loaded.samples.to_dict() == artifact.samples.to_dict()

    def test_cold_load_parses_once(self, tmp_path, count_parses):
        digest, artifact = small_artifact()
        PersistentStore(tmp_path).save_campaign(digest, artifact)
        cold = PersistentStore(tmp_path)
        cold.load_campaign_text(digest)
        cold.load_campaign_text(digest)
        assert len(count_parses) == 1

    def test_memo_samples_are_private(self, tmp_path):
        store = PersistentStore(tmp_path)
        digest, artifact = small_artifact()
        store.save_campaign(digest, artifact)
        before = artifact.samples.to_dict()
        artifact.samples.add("extra", 1.0)
        _, loaded = store.load_campaign_text(digest)
        assert loaded.samples.to_dict() == before

    def test_same_length_flip_with_mtime_kept_is_caught(self, tmp_path):
        store = PersistentStore(tmp_path)
        digest, artifact = small_artifact()
        store.save_campaign(digest, artifact)
        flip_digit(store.campaigns.root / f"{digest}.json")
        with pytest.raises(ArtifactCorrupt, match="digest mismatch"):
            store.load_campaign_text(digest)

    def test_job_flip_is_caught(self, tmp_path):
        store = PersistentStore(tmp_path)
        digest, artifact = small_artifact()
        text, verified = store.save_campaign(digest, artifact)
        path = store.save_job_artifact("job-000001", text, verified)
        assert store.load_job_artifact_text("job-000001") == text
        flip_digit(path)
        with pytest.raises(ArtifactCorrupt, match=str(path)):
            store.load_job_artifact_text("job-000001")

    @pytest.mark.parametrize(
        "layout", ["compact", "digest-less", "analysis", "foreign"]
    )
    def test_non_canonical_campaign_is_corrupt(self, tmp_path, layout):
        digest, artifact = small_artifact()
        PersistentStore(tmp_path).save_campaign(digest, artifact)
        path = tmp_path / "campaigns" / f"{digest}.json"
        data = json.loads(path.read_text())
        if layout == "compact":
            text = json.dumps(data)  # verifies, but is not the stored layout
        elif layout == "digest-less":
            del data["digest"]
            text = json.dumps(data, indent=2) + "\n"
        elif layout == "analysis":
            with_analysis = dataclasses.replace(
                artifact, analysis={"method": "gev"}
            )
            text = saved_text(with_analysis)[0]
        else:
            text = json.dumps({"schema": "other/1"}, indent=2) + "\n"
        assert CampaignArtifact.from_json(json.dumps(data)) is not None
        path.write_text(text)
        with pytest.raises(ArtifactCorrupt, match=str(path)):
            PersistentStore(tmp_path).load_campaign_text(digest)

    def test_memo_stays_within_budget(self, tmp_path, monkeypatch):
        store = PersistentStore(tmp_path)
        _, artifact = small_artifact()
        entry_size = store.save_campaign("probe", artifact)[1].size
        budget = 3 * entry_size + entry_size // 2
        monkeypatch.setattr(store_module, "MEMO_BUDGET_BYTES", budget)
        digests = []
        for seed in range(12):
            digest, artifact = small_artifact(base_seed=100 + seed)
            store.save_campaign(digest, artifact)
            digests.append(digest)
            assert memo_charge(store) <= budget
        assert memo_charge(store) > 2 * entry_size  # recent entries kept
        # Evicted files still load: they are verified again.
        text, verified = store.load_campaign_text(digests[0])
        assert verified.num_runs == 8
        assert memo_charge(store) <= budget

    def test_concurrent_loads_keep_the_charge_exact(
        self, tmp_path, monkeypatch
    ):
        saved = [small_artifact(base_seed=200 + seed) for seed in range(4)]
        probe = PersistentStore(tmp_path / "probe")
        entry_size = probe.save_campaign(*saved[0])[1].size
        # Room for two of four: threads keep evicting each other's files
        # and re-verifying them.
        monkeypatch.setattr(store_module, "MEMO_BUDGET_BYTES", 2 * entry_size)
        store = PersistentStore(tmp_path / "store")
        for digest, artifact in saved:
            store.save_campaign(digest, artifact)
        errors = []

        def worker(offset):
            try:
                for step in range(60):
                    digest, artifact = saved[(offset + step) % len(saved)]
                    _, verified = store.load_campaign_text(digest)
                    assert verified.num_runs == artifact.num_runs
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert memo_charge(store) <= 2 * entry_size
        assert store._memo_bytes == memo_charge(store)


class TestCorruptJobFile:
    """A finished job's file, damaged on disk, is a 500 naming the path
    on both endpoints that read it."""

    @pytest.fixture()
    def finished(self, tmp_path):
        service = CampaignService(tmp_path, workers=1)
        request = dataclasses.replace(
            CampaignRequest(**CAMPAIGNS["plain"]), base_seed=321
        )
        job, _ = run_job(service, request)
        yield service, job.job_id, tmp_path / "jobs" / f"{job.job_id}.json"
        service.close()

    @staticmethod
    def assert_500_naming(service, job_id, path):
        for method, route, body in (
            ("GET", "artifact", ""),
            ("POST", "analyses", AnalysisRequest(min_path_samples=80).to_json()),
        ):
            status, reply, _ = service.dispatch(
                method, f"/campaigns/{job_id}/{route}", body
            )
            assert status == 500, reply
            assert str(path) in json.loads(reply)["error"]

    def test_torn_job_file_500(self, finished):
        service, job_id, path = finished
        path.write_text(path.read_text()[:-100])
        self.assert_500_naming(service, job_id, path)

    def test_same_length_flip_with_mtime_kept_500(self, finished):
        service, job_id, path = finished
        flip_digit(path)
        self.assert_500_naming(service, job_id, path)
        assert service.metrics.counter("analyses_total") == 0


class TestSplice:
    @pytest.mark.parametrize("ci", [None, 0.9])
    def test_matches_full_encode(self, ci):
        _, artifact = small_artifact(runs=90)
        request = AnalysisRequest(ci=ci, bootstrap=40, min_path_samples=80)
        config = request.analysis_config(artifact.num_runs)
        result = AnalysisPipeline(config).run(artifact.samples)
        bare_text, content = saved_text(artifact)
        attached = dataclasses.replace(artifact)
        attached.attach_analysis(result)
        spliced = splice_analysis(bare_text, content, attached.analysis)
        assert spliced == attached.to_json(indent=2) + "\n"
        assert CampaignArtifact.from_json(spliced).analysis is not None

    def test_rejects_text_of_other_contents(self):
        _, artifact = small_artifact()
        _, other = small_artifact(base_seed=6)
        text, _ = saved_text(artifact)
        _, content = saved_text(other)
        with pytest.raises(ValueError, match="saved form"):
            splice_analysis(text, content, {"method": "gev"})

    def test_rejects_artifact_with_analysis(self):
        _, artifact = small_artifact()
        with_analysis = dataclasses.replace(artifact, analysis={"x": 1})
        text, content = saved_text(with_analysis)
        with pytest.raises(ValueError, match="already"):
            splice_analysis(text, content, {"method": "gev"})
