"""The campaign daemon: a stdlib-only HTTP JSON API over the job queue.

Endpoints (all JSON unless noted):

========  ============================  =======================================
Method    Path                          Purpose
========  ============================  =======================================
GET       /healthz                      liveness + job-state counts
GET       /metrics                      counters, latency histograms, store size
GET       /registry                     discovery document (``repro.registry/1``)
POST      /campaigns                    submit a ``CampaignRequest`` -> 202 job
GET       /campaigns                    list every job (submission order)
GET       /campaigns/{id}               one job's state/progress
GET       /campaigns/{id}/artifact      the finished campaign artifact (raw
                                        JSON text — bit-identical to an
                                        in-process run of the same request)
POST      /campaigns/{id}/analyses      re-analyse a finished campaign with an
                                        ``AnalysisRequest`` — no re-execution
========  ============================  =======================================

Error contract: invalid request bodies are ``400 {"error": ...}``
(exactly the ``ValueError`` a local construction would raise), unknown
jobs/routes are 404, and asking for the artifact of an unfinished job
is 409 with the job's current state, so clients can poll on it.  A
``Content-Length`` that is not a non-negative integer, or a body that
is not UTF-8, is 400; a declared length above :data:`MAX_BODY_BYTES`
is 413, refused before any of the body is read.

Built on :class:`http.server.ThreadingHTTPServer` — no third-party
dependency — with request routing factored into
:meth:`CampaignService.dispatch` so tests can drive the full API
without a socket.
"""

from __future__ import annotations

import json
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..api.artifacts import ArtifactCorrupt
from ..api.registry import registry_schema
from ..api.requests import AnalysisRequest, CampaignRequest
from .jobs import JobQueue
from .metrics import ServiceMetrics
from .store import PersistentStore

__all__ = ["CampaignService", "CampaignServer", "serve"]

#: Largest request body the daemon reads, in bytes.  Request documents
#: are a few hundred bytes; the cap bounds what one client can make a
#: handler thread buffer.
MAX_BODY_BYTES = 1 << 20


class _HTTPError(Exception):
    """Internal: maps a handler failure to one HTTP response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


Response = Tuple[int, str, str]  # (status, body, content type)


def _json_response(status: int, payload: Any) -> Response:
    body = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return status, body, "application/json"


class CampaignService:
    """The daemon's brain: store + metrics + job queue + routing."""

    def __init__(
        self, store_root: Union[str, Path], workers: int = 1
    ) -> None:
        self.store = PersistentStore(store_root)
        self.metrics = ServiceMetrics()
        self.jobs = JobQueue(self.store, self.metrics, workers=workers)

    def close(self) -> None:
        """Stop the worker threads (pending queue entries drain first)."""
        self.jobs.close()

    # -- routing --------------------------------------------------------
    def dispatch(self, method: str, path: str, body: str) -> Response:
        """Route one request; never raises (errors become responses)."""
        try:
            return self._route(method, path, body)
        except _HTTPError as exc:
            return _json_response(exc.status, {"error": str(exc)})
        except (ArtifactCorrupt, OSError) as exc:
            return _json_response(500, {"error": str(exc)})

    def endpoint_label(self, method: str, path: str) -> str:
        """Metrics label: the route pattern, job ids collapsed to {id}."""
        parts = [p for p in path.split("/") if p]
        if len(parts) >= 2 and parts[0] == "campaigns":
            parts[1] = "{id}"
        return f"{method} /" + "/".join(parts)

    def _route(self, method: str, path: str, body: str) -> Response:
        parts = [p for p in path.split("/") if p]
        if method == "GET" and parts == ["healthz"]:
            return _json_response(
                200, {"status": "ok", "jobs": self.jobs.state_counts()}
            )
        if method == "GET" and parts == ["metrics"]:
            return _json_response(200, self._metrics_payload())
        if method == "GET" and parts == ["registry"]:
            return _json_response(200, registry_schema())
        if parts[:1] == ["campaigns"]:
            return self._route_campaigns(method, parts[1:], body)
        raise _HTTPError(404, f"no route {method} {path}")

    def _route_campaigns(
        self, method: str, parts: List[str], body: str
    ) -> Response:
        if method == "POST" and not parts:
            return self._submit(body)
        if method == "GET" and not parts:
            return _json_response(
                200, {"jobs": [job.snapshot() for job in self.jobs.jobs()]}
            )
        if not parts:
            raise _HTTPError(404, f"no route {method} /campaigns")
        job = self.jobs.get(parts[0])
        if job is None:
            raise _HTTPError(404, f"unknown job {parts[0]!r}")
        rest = parts[1:]
        if method == "GET" and not rest:
            return _json_response(200, job.snapshot())
        if method == "GET" and rest == ["artifact"]:
            return self._artifact(job)
        if method == "POST" and rest == ["analyses"]:
            return self._analyse(job, body)
        tail = "/".join(rest)
        raise _HTTPError(404, f"no route {method} /campaigns/{{id}}/{tail}")

    # -- handlers -------------------------------------------------------
    def _submit(self, body: str) -> Response:
        request = self._parse(body, CampaignRequest.from_dict)
        job, created = self.jobs.submit(request)
        return _json_response(
            202, {"job": job.snapshot(), "created": created}
        )

    def _artifact(self, job: Any) -> Response:
        if job.state == "failed":
            raise _HTTPError(409, f"{job.job_id} failed: {job.error}")
        if job.state != "done":
            raise _HTTPError(
                409, f"{job.job_id} is {job.state}; poll until done"
            )
        text = self.store.load_job_artifact_text(job.job_id)
        if text is None:
            raise _HTTPError(404, f"{job.job_id} has no stored artifact")
        return 200, text, "application/json"

    def _analyse(self, job: Any, body: str) -> Response:
        """Re-analyse a finished campaign without re-running it."""
        from ..core.analysis import AnalysisPipeline

        from ..api.artifacts import analysis_summary

        if job.state != "done":
            raise _HTTPError(
                409, f"{job.job_id} is {job.state}; poll until done"
            )
        analysis = self._parse(body or "{}", AnalysisRequest.from_dict)
        loaded = self.store.load_job_artifact(job.job_id)
        if loaded is None:
            raise _HTTPError(404, f"{job.job_id} has no stored artifact")
        _, stored = loaded
        config = analysis.analysis_config(stored.num_runs)
        try:
            result = AnalysisPipeline(config).run(stored.samples)
        except (ValueError, RuntimeError) as exc:
            raise _HTTPError(422, f"analysis failed: {exc}") from None
        self.metrics.incr("analyses_total")
        return _json_response(
            200,
            {
                "job_id": job.job_id,
                "request": analysis.to_dict(),
                "analysis": analysis_summary(result),
            },
        )

    @staticmethod
    def _parse(body: str, from_dict: Any) -> Any:
        try:
            data = json.loads(body or "{}")
        except json.JSONDecodeError as exc:
            raise _HTTPError(400, f"request body is not JSON: {exc}") from None
        if not isinstance(data, dict):
            raise _HTTPError(400, "request body must be a JSON object")
        try:
            return from_dict(data)
        except (KeyError, TypeError, ValueError) as exc:
            raise _HTTPError(400, str(exc)) from None

    def _metrics_payload(self) -> Dict[str, Any]:
        payload = self.metrics.snapshot()
        payload["store"] = {
            "campaigns": len(self.store.campaign_digests()),
            "job_artifacts": len(self.store.job_ids()),
        }
        payload["jobs"] = self.jobs.state_counts()
        return payload


class _Handler(BaseHTTPRequestHandler):
    """Thin socket adapter: reads the body, times the dispatch."""

    service: CampaignService  # injected by CampaignServer

    # BaseHTTPRequestHandler logs every request to stderr by default.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    def _read_body(self) -> str:
        """The request body as text, or an :class:`_HTTPError` for a bad
        or oversized ``Content-Length`` or a non-UTF-8 body."""
        header = self.headers.get("Content-Length")
        try:
            length = int(header) if header else 0
        except ValueError:
            raise _HTTPError(
                400, f"Content-Length {header!r} is not an integer"
            ) from None
        if length < 0:
            raise _HTTPError(400, f"Content-Length {length} is negative")
        if length > MAX_BODY_BYTES:
            raise _HTTPError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
            )
        raw = self.rfile.read(length) if length else b""
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _HTTPError(400, f"request body is not UTF-8: {exc}") from None

    def _handle(self, method: str) -> None:
        response: Optional[Response] = None
        try:
            body = self._read_body()
        except _HTTPError as exc:
            # A body left unread would be parsed as the next request.
            self.close_connection = True
            response = _json_response(exc.status, {"error": str(exc)})
        started = time.monotonic()
        if response is None:
            response = self.service.dispatch(method, self.path, body)
        status, text, content_type = response
        elapsed_ms = (time.monotonic() - started) * 1000.0
        label = self.service.endpoint_label(method, self.path)
        self.service.metrics.incr(f"http_requests_total.{label}.{status}")
        self.service.metrics.observe_latency(label, elapsed_ms)
        payload = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server contract
        self._handle("POST")


class CampaignServer:
    """A bound, running campaign daemon (own it, then :meth:`shutdown`)."""

    def __init__(
        self,
        service: CampaignService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        handler = type("_BoundHandler", (_Handler,), {"service": service})
        self._http = ThreadingHTTPServer((host, port), handler)
        self._http.daemon_threads = True

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) — port resolved when 0 was asked."""
        host, port = self._http.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        """Base URL clients should target."""
        host, port = self.address
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        """Block serving requests until :meth:`shutdown`."""
        self._http.serve_forever()

    def shutdown(self) -> None:
        """Stop the HTTP loop and the job workers."""
        self._http.shutdown()
        self._http.server_close()
        self.service.close()


def serve(
    store_root: Union[str, Path],
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 1,
) -> CampaignServer:
    """Build a :class:`CampaignService` and bind it to ``host:port``.

    Returns the (not yet serving) :class:`CampaignServer`; call
    :meth:`CampaignServer.serve_forever` to block, or run it from a
    thread in tests.  ``port=0`` picks a free ephemeral port —
    :attr:`CampaignServer.url` tells you which.
    """
    return CampaignServer(
        CampaignService(store_root, workers=workers), host=host, port=port
    )
