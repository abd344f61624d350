"""End-to-end campaign service tests.

The load-bearing guarantees:

* an artifact fetched over HTTP is bit-identical to executing the same
  request in-process,
* a second identical submission is served from the persistent store
  without re-executing (asserted via the /metrics run counters),
* concurrent identical submissions coalesce onto one job,
* the re-analysis endpoint reproduces a local pipeline run exactly.
"""

import http.client
import json
import socket
import threading

import pytest

from repro.api import AnalysisRequest, CampaignRequest, execute_request
from repro.api.artifacts import CampaignArtifact, analysis_summary
from repro.core import AnalysisPipeline
from repro.service import ServiceClient, ServiceError, serve
from repro.service.server import MAX_BODY_BYTES


def small_request(**overrides):
    base = dict(
        workload="matmul",
        platform="rand",
        runs=90,
        base_seed=5,
        workload_kwargs={"dim": 3},
        platform_kwargs={"num_cores": 1, "cache_kb": 4},
        analysis=AnalysisRequest(min_path_samples=80),
    )
    base.update(overrides)
    return CampaignRequest(**base)


@pytest.fixture()
def server(tmp_path):
    srv = serve(tmp_path / "store", port=0, workers=1)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    thread.join(timeout=10)


@pytest.fixture()
def client(server):
    return ServiceClient(server.url)


class TestPlumbing:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert set(health["jobs"]) == {"queued", "running", "done", "failed"}

    def test_registry_matches_cli_schema(self, client):
        from repro.api import registry_schema

        assert client.registry() == registry_schema()

    def test_unknown_route_404(self, client):
        with pytest.raises(ServiceError, match="404"):
            client._json("GET", "/nope")

    def test_unknown_job_404(self, client):
        with pytest.raises(ServiceError, match="404"):
            client.job("job-999999")

    def test_invalid_request_400_with_validation_message(self, client):
        with pytest.raises(ServiceError, match="unknown workload"):
            client._json("POST", "/campaigns", {"workload": "nope"})

    def test_removed_draw_mode_400(self, client):
        payload = small_request().to_dict()
        payload["prng_mode"] = "fast-parity"
        with pytest.raises(ServiceError, match="HTTP 400: .*was removed"):
            client._json("POST", "/campaigns", payload)

    def test_exact_draw_mode_key_is_accepted(self, client):
        payload = small_request(analysis=None).to_dict()
        payload["prng_mode"] = "exact"
        response = client._json("POST", "/campaigns", payload)
        client.wait(response["job"]["id"], timeout=120)

    def test_artifact_before_done_409(self, server, client):
        # Submit directly to the queue-less dispatch so no worker races:
        # a queued job's artifact must 409 with the state in the body.
        status, body, _ = server.service.dispatch(
            "GET", "/campaigns/job-000000/artifact", ""
        )
        assert status == 404  # unknown id is 404; state 409 covered below


def raw_post(server, content_length, body=b""):
    """POST ``body`` to /campaigns with a verbatim Content-Length header
    over a raw socket; returns (status, decoded JSON body)."""
    host, port = server.address
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(
            b"POST /campaigns HTTP/1.1\r\nHost: test\r\n"
            + b"Content-Length: " + content_length + b"\r\n\r\n"
            + body
        )
        response = http.client.HTTPResponse(sock)
        response.begin()
        return response.status, json.loads(response.read())


class TestRequestBodyBounds:
    def test_non_integer_length_400(self, server):
        status, body = raw_post(server, b"ten")
        assert status == 400 and "not an integer" in body["error"]

    def test_negative_length_400_without_blocking(self, server):
        status, body = raw_post(server, b"-1", b"{}")
        assert status == 400 and "negative" in body["error"]

    def test_oversized_length_413_without_reading(self, server):
        # No body follows: the refusal must not wait for one.
        status, body = raw_post(server, str(MAX_BODY_BYTES + 1).encode())
        assert status == 413 and "limit" in body["error"]

    def test_non_utf8_body_400(self, server):
        payload = b'{"workload": "\xff\xfe"}'
        status, body = raw_post(server, str(len(payload)).encode(), payload)
        assert status == 400 and "UTF-8" in body["error"]

    def test_rejections_counted(self, server, client):
        raw_post(server, b"ten")
        raw_post(server, b"-5")
        raw_post(server, str(MAX_BODY_BYTES + 1).encode())
        raw_post(server, b"1", b"\xff")
        counters = client.metrics()["counters"]
        assert counters["http_requests_total.POST /campaigns.400"] == 3
        assert counters["http_requests_total.POST /campaigns.413"] == 1

    def test_body_at_limit_is_read(self, server):
        payload = b" " * (MAX_BODY_BYTES - 2) + b"[]"
        status, body = raw_post(server, str(len(payload)).encode(), payload)
        # Read and parsed: rejected as a non-object, not by the cap.
        assert status == 400 and "JSON object" in body["error"]


class TestEndToEnd:
    def test_http_artifact_bit_identical_to_in_process(self, client):
        request = small_request()
        text = client.run(request, timeout=120)
        local = execute_request(request).artifact().to_json(indent=2) + "\n"
        assert text == local

    def test_second_submission_is_cache_hit(self, client):
        request = small_request()
        first = client.run(request, timeout=120)
        snapshot = client.submit(request)
        job_id = snapshot["job"]["id"]
        client.wait(job_id, timeout=60)
        assert client.artifact_text(job_id) == first
        job = client.job(job_id)
        assert job["cached"] is True
        counters = client.metrics()["counters"]
        executed = sum(
            count
            for name, count in counters.items()
            if name.startswith("runs_executed_total.")
        )
        assert executed == 1
        assert counters["cache_hits_total"] == 1
        assert counters["cache_misses_total"] == 1

    def test_run_counter_is_keyed_by_backend(self, client):
        client.run(small_request(backend="scalar"), timeout=120)
        client.run(small_request(base_seed=6, backend="batch"), timeout=120)
        counters = client.metrics()["counters"]
        executed = {
            name: count
            for name, count in counters.items()
            if name.startswith("runs_executed_total.")
        }
        assert executed == {
            "runs_executed_total.scalar": 1,
            "runs_executed_total.batch": 1,
        }

    def test_provenance_variant_is_cache_hit(self, client):
        # Different shards/backend, same execution digest: no re-run.
        client.run(small_request(), timeout=120)
        snapshot = client.submit(small_request(shards=2, backend="scalar"))
        job_id = snapshot["job"]["id"]
        client.wait(job_id, timeout=60)
        assert client.job(job_id)["cached"] is True
        counters = client.metrics()["counters"]
        executed = sum(
            count
            for name, count in counters.items()
            if name.startswith("runs_executed_total.")
        )
        assert executed == 1

    def test_concurrent_identical_submissions_coalesce(self, client):
        request = small_request(base_seed=77)
        responses = [client.submit(request) for _ in range(4)]
        job_ids = {r["job"]["id"] for r in responses}
        assert len(job_ids) == 1
        created = [r["created"] for r in responses]
        assert created.count(True) == 1
        client.wait(job_ids.pop(), timeout=120)
        counters = client.metrics()["counters"]
        executed = sum(
            count
            for name, count in counters.items()
            if name.startswith("runs_executed_total.")
        )
        assert executed == 1
        assert counters["jobs_coalesced_total"] == 3

    def test_progress_reaches_total(self, client):
        request = small_request(base_seed=78)
        job_id = client.submit(request)["job"]["id"]
        done = client.wait(job_id, timeout=120)
        assert done["progress"]["done"] == done["progress"]["total"] == 90

    def test_failed_job_reports_error(self, client):
        # Kwargs that are JSON-valid but unknown to the workload factory
        # pass request validation and explode inside the worker — the
        # job must fail with the error recorded, not kill the daemon.
        request = small_request(
            analysis=None, workload_kwargs={"dim": 3, "bogus": 1}
        )
        job_id = client.submit(request)["job"]["id"]
        with pytest.raises(ServiceError, match="failed"):
            client.wait(job_id, timeout=60)
        job = client.job(job_id)
        assert job["state"] == "failed"
        assert job["error"]
        assert client.metrics()["counters"]["jobs_failed_total"] == 1

    def test_metrics_have_latency_histograms(self, client):
        client.healthz()
        metrics = client.metrics()
        label = "GET /healthz"
        assert label in metrics["latency_ms"]
        hist = metrics["latency_ms"][label]
        assert hist["count"] >= 1
        assert hist["buckets"]["le_inf"] == hist["count"]
        assert (
            metrics["counters"]["http_requests_total.GET /healthz.200"] >= 1
        )


class TestReanalysis:
    def test_matches_local_pipeline(self, client):
        request = small_request(analysis=None)
        text = client.run(request, timeout=120)
        job_id = client.jobs()["jobs"][-1]["id"]
        analysis = AnalysisRequest(min_path_samples=80, ci=0.9)
        remote = client.analyse(job_id, analysis)

        artifact = CampaignArtifact.from_json(text)
        config = analysis.analysis_config(artifact.num_runs)
        local = analysis_summary(AnalysisPipeline(config).run(artifact.samples))
        assert remote["analysis"] == json.loads(json.dumps(local))
        assert remote["job_id"] == job_id

    def test_reanalysis_does_not_rerun(self, client):
        request = small_request(analysis=None)
        text = client.run(request, timeout=120)
        job_id = client.jobs()["jobs"][-1]["id"]
        client.analyse(job_id, AnalysisRequest(min_path_samples=80))
        counters = client.metrics()["counters"]
        executed = sum(
            count
            for name, count in counters.items()
            if name.startswith("runs_executed_total.")
        )
        assert executed == 1
        assert counters["analyses_total"] == 1
        assert client.artifact_text(job_id) == text

    def test_unfinished_job_409(self, server):
        status, body, _ = server.service.dispatch(
            "POST", "/campaigns/job-404404/analyses", "{}"
        )
        assert status == 404

    def test_bad_analysis_body_400(self, client):
        request = small_request(analysis=None)
        client.run(request, timeout=120)
        job_id = client.jobs()["jobs"][-1]["id"]
        with pytest.raises(ServiceError, match="400"):
            client._json(
                "POST", f"/campaigns/{job_id}/analyses", {"method": 5}
            )


class TestStoreSharing:
    def test_cache_survives_daemon_restart(self, tmp_path):
        request = small_request(base_seed=99)
        store_root = tmp_path / "shared-store"

        first = serve(store_root, port=0)
        thread = threading.Thread(target=first.serve_forever, daemon=True)
        thread.start()
        text = ServiceClient(first.url).run(request, timeout=120)
        first.shutdown()
        thread.join(timeout=10)

        second = serve(store_root, port=0)
        thread = threading.Thread(target=second.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(second.url)
        job_id = client.submit(request)["job"]["id"]
        client.wait(job_id, timeout=60)
        assert client.job(job_id)["cached"] is True
        assert client.artifact_text(job_id) == text
        # A different analysis on the restarted daemon: spliced into the
        # stored bytes it verified cold, equal to an in-process run.
        banded = small_request(
            base_seed=99,
            analysis=AnalysisRequest(
                method="pot-gpd", ci=0.9, bootstrap=40, min_path_samples=80
            ),
        )
        job_id = client.submit(banded)["job"]["id"]
        client.wait(job_id, timeout=60)
        assert client.job(job_id)["cached"] is True
        local = execute_request(banded)
        assert client.artifact_text(job_id) == (
            local.artifact().to_json(indent=2) + "\n"
        )
        remote = client.analyse(job_id, AnalysisRequest(min_path_samples=80))
        config = AnalysisRequest(min_path_samples=80).analysis_config(90)
        expected = analysis_summary(
            AnalysisPipeline(config).run(local.result.samples)
        )
        assert remote["analysis"] == json.loads(json.dumps(expected))
        counters = client.metrics()["counters"]
        executed = sum(
            count
            for name, count in counters.items()
            if name.startswith("runs_executed_total.")
        )
        assert executed == 0
        assert "store_corrupt_total" not in counters
        second.shutdown()
        thread.join(timeout=10)

    def test_corrupt_store_entry_is_cache_miss(self, server, client):
        request = small_request(base_seed=123, analysis=None)
        text = client.run(request, timeout=120)
        # Corrupt the cached campaign on disk.
        store = server.service.store
        digest = request.execution_digest()
        path = store.campaigns.root / f"{digest}.json"
        data = json.loads(path.read_text())
        data["records"][0]["cycles"] += 1
        path.write_text(json.dumps(data))

        job_id = client.submit(request)["job"]["id"]
        client.wait(job_id, timeout=120)
        job = client.job(job_id)
        assert job["cached"] is False
        assert client.artifact_text(job_id) == text
        counters = client.metrics()["counters"]
        assert counters["store_corrupt_total"] == 1

    def test_non_canonical_store_entry_is_counted_miss(self, server, client):
        # Verifies (the digest matches), but is not the layout the store
        # writes, so no analysis can be spliced into it: re-measured once.
        request = small_request(base_seed=124)
        text = client.run(request, timeout=120)
        store = server.service.store
        path = store.campaigns.root / f"{request.execution_digest()}.json"
        path.write_text(json.dumps(json.loads(path.read_text())))

        job_id = client.submit(request)["job"]["id"]
        client.wait(job_id, timeout=120)
        assert client.job(job_id)["cached"] is False
        assert client.artifact_text(job_id) == text
        assert client.metrics()["counters"]["store_corrupt_total"] == 1
        # The re-measure rewrote the canonical text: the next one hits.
        job_id = client.submit(request)["job"]["id"]
        client.wait(job_id, timeout=120)
        assert client.job(job_id)["cached"] is True
        assert client.artifact_text(job_id) == text
