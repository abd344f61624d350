"""The removed ``prng_mode`` knob across the API surface.

Every campaign measures under the modelled SIL3 LFSR generator; the
opt-in draw mode that once swapped in a counter-based generator is
gone.  These tests pin what remains of the contract: request JSON that
still names the exact mode parses to the same request (and hashes to
the same execution digest), any other mode is rejected with a
``ValueError`` that says the mode was removed, and exact-mode digests,
fingerprints and artifacts carry no ``prng_mode`` key.
"""

import json

import pytest

from repro.api import CampaignRequest, execute_request

SMALL = dict(
    workload="matmul",
    platform="rand",
    runs=12,
    base_seed=7,
    workload_kwargs={"dim": 3},
    platform_kwargs={"num_cores": 1, "cache_kb": 4},
)

#: ``CampaignRequest(**SMALL).to_json()`` as written while the draw-mode
#: option existed, and the execution digest it had then.
LEGACY_JSON = (
    '{"analysis": null, "backend": "auto", "base_seed": 7, '
    '"convergence": null, "platform": "rand", "platform_kwargs": '
    '{"cache_kb": 4, "num_cores": 1}, "prng_mode": "exact", "runs": 12, '
    '"scenario": null, "schema": "repro.campaign-request/1", "shards": 1, '
    '"vary_inputs": true, "workload": "matmul", "workload_kwargs": '
    '{"dim": 3}}'
)
LEGACY_EXECUTION_DIGEST = (
    "b75447f26f096b39f17936fa296e1958cb5d2792cfa9f4f4bfdb753a9c8b332f"
)


class TestRequestSurface:
    def test_round_trips_through_json(self):
        request = CampaignRequest(**SMALL)
        assert "prng_mode" not in request.to_dict()
        assert CampaignRequest.from_json(request.to_json()) == request

    def test_from_dict_rejects_unknown_mode(self):
        for mode in ("fast-parity", "bogus"):
            payload = CampaignRequest(**SMALL).to_dict()
            payload["prng_mode"] = mode
            with pytest.raises(ValueError, match="draw mode was removed"):
                CampaignRequest.from_dict(payload)

    def test_legacy_payload_defaults_to_exact(self):
        # Request JSON written while the option existed names the exact
        # mode explicitly; it must still parse, to the same request.
        assert CampaignRequest.from_json(LEGACY_JSON) == CampaignRequest(
            **SMALL
        )


class TestDigests:
    def test_exact_mode_digest_is_byte_stable(self):
        from repro.api.artifacts import platform_fingerprint

        request = CampaignRequest(**SMALL)
        payload = request.to_dict()
        payload["prng_mode"] = "exact"
        with_key = CampaignRequest.from_dict(payload)
        assert with_key.execution_digest() == request.execution_digest()
        assert request.execution_digest() == LEGACY_EXECUTION_DIGEST
        assert "prng_mode" not in platform_fingerprint(request.build_platform())


class TestExecution:
    def test_exact_artifact_stays_byte_stable(self):
        # Artifacts never carried the key in exact mode, and existing
        # stores diff artifacts byte-for-byte.
        execution = execute_request(CampaignRequest(**SMALL))
        payload = json.loads(execution.artifact().to_json())
        assert "prng_mode" not in payload["config"]
        assert "prng_mode" not in payload["platform"]
