"""TML over HTTP — the service's JSON API.

Stdlib-only (``http.server.ThreadingHTTPServer``); one
:class:`MiningHTTPServer` fronts one :class:`~repro.service.core.MiningService`.

Endpoints (all JSON):

``POST /v1/query``
    Body ``{"query": "<TML>", "async": bool, "priority": int,
    "budget": {"time": s, "candidates": n, "rules": n, "strict": bool},
    "timeout": seconds, "idempotency_key": str}``.
    Synchronous by default — the request is admitted through the
    scheduler (bounded concurrency applies) and the response carries the
    finished job record.  With ``"async": true`` the response is ``202``
    with the job id to poll.  ``idempotency_key`` makes the POST
    retry-safe: a resubmission carrying a key the service has seen
    returns the existing job instead of admitting a duplicate (the key
    is journaled, so the guarantee spans a crash-restart).

``POST /v1/transactions``
    Body ``{"transactions": [{"ts": "<ISO timestamp>", "items":
    ["a", "b"], "tid": optional int}, ...], "idempotency_key": str}``.
    Streams a batch of new transactions into the shared store without a
    full reload: the append is journaled as a write-ahead intent,
    committed idempotently, and folded into worker environments as a
    delta (cached per-unit counts survive under incremental modes).
    Returns ``{"applied", "appended", "tids", "delta_refreshed"}``.

``GET /v1/jobs/{id}``
    The job record (state, result, error, timings, cache provenance).

``DELETE /v1/jobs/{id}``
    Cancel: dequeues a queued job; trips a running job's cancellation
    token so it stops at the next pass boundary and keeps its sound
    partial result on the record.

``POST /v1/cache/invalidate``
    Body ``{"fingerprint": str}``.  Drops this process's cache entries
    recorded under one store fingerprint — the invalidation-fanout
    surface a cluster router calls on every peer after a mutation or
    append lands on one worker.

``GET /v1/traces/{id}`` / ``GET /v1/traces?min_ms=&limit=``
    Distributed tracing (PR 10): one stored trace document by id, or
    the worker's stored traces ranked slowest-first.  Tracing is
    enabled per query by ``"trace": true`` *or* by a W3C
    ``traceparent`` request header — the header additionally joins
    this worker's spans to the caller's trace id, which is how one
    trace covers router → worker → scheduler → mining passes.

``GET /v1/debug/slow``
    The slow-query flight recorder: requests past the configured
    latency threshold, captured in full (trace + plan + TML +
    resource attribution), ranked slowest-first.

``GET /v1/status``
    Queue depth, worker config, cache counters, metrics snapshot,
    store summary, and the worker identity block (id, pid, port,
    git SHA, started-at) that cluster health checks key on.

``GET /v1/metrics``
    The service's metrics registry in Prometheus text exposition
    format 0.0.4 (scrapeable; see :mod:`repro.obs.metrics`).

Error mapping: malformed requests → 400, unknown jobs → 404,
oversized bodies → 413, stalled bodies → 408 (the last two, and bad
``Content-Length`` headers, come from the shared request layer
:mod:`repro.wire`), admission rejection → 503 (with ``Retry-After`` —
honest when the service is draining for shutdown, where it reflects
the drain deadline), sync timeout → 504 (with the job id, so the
client can keep polling), statement errors → 422 on the job record /
response.

Every request is itself metered: ``repro_http_requests_total``
(method/route/status) and the per-route ``repro_http_request_seconds``
latency histogram.  Job paths collapse to the ``/v1/jobs/{id}`` route
label so cardinality stays bounded.
"""

from __future__ import annotations

import threading
from datetime import datetime
from http.server import ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from repro.errors import AdmissionError, MiningParameterError
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE
from repro.runtime.budget import RunBudget
from repro.service.core import MiningService
from repro.wire import JsonRequestHandler

#: Default wait for a synchronous query before answering 504.
SYNC_TIMEOUT_SECONDS = 300.0


def budget_from_request(spec: Optional[Dict]) -> Optional[RunBudget]:
    """Build a per-request budget from the JSON ``budget`` object."""
    if not spec:
        return None
    if not isinstance(spec, dict):
        raise MiningParameterError("budget must be a JSON object")
    known = {"time", "candidates", "rules", "strict"}
    unknown = set(spec) - known
    if unknown:
        raise MiningParameterError(
            f"unknown budget field(s): {', '.join(sorted(unknown))}"
        )
    return RunBudget.from_dict(spec)


class MiningRequestHandler(JsonRequestHandler):
    """Routes the ``/v1`` API onto the owning server's service."""

    server: "MiningHTTPServer"

    def extra_headers(self) -> Dict[str, str]:
        # Every response names the process that served it, so a cluster
        # router (and the load-gen report behind it) can attribute
        # latency to a specific worker without re-parsing bodies.
        return {"X-Repro-Worker": self.server.service.worker_label}

    @staticmethod
    def _job_document(job) -> Dict:
        record = job.to_dict()
        if job.started_at is not None and job.finished_at is not None:
            record["elapsed_seconds"] = job.finished_at - job.started_at
        return record

    # ------------------------------------------------------------------
    # routes
    # ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        self.dispatch(self._handle_get)

    def do_DELETE(self) -> None:  # noqa: N802
        self.dispatch(self._handle_delete)

    def do_POST(self) -> None:  # noqa: N802
        self.dispatch(self._handle_post)

    def _handle_get(self) -> None:
        path = self.route_path
        service = self.server.service
        if path == "/v1/status":
            self.send_json(200, service.status())
            return
        if path == "/v1/metrics":
            text = service.metrics.render_prometheus()
            self.send_body(200, text.encode("utf-8"), PROMETHEUS_CONTENT_TYPE)
            return
        trace_id = self.path_id("traces")
        if trace_id is not None:
            document = service.trace(trace_id)
            if document is None:
                self.send_json(404, {"error": f"no such trace: {trace_id!r}"})
            else:
                self.send_json(200, document)
            return
        if path == "/v1/traces":
            params = self.query_params()
            try:
                min_ms = float(params.get("min_ms", 0.0))
                limit = int(params.get("limit", 50))
            except (TypeError, ValueError) as error:
                self.send_json(400, {"error": f"bad query parameter: {error}"})
                return
            traces = service.list_traces(min_ms=min_ms, limit=limit)
            self.send_json(200, {"traces": traces})
            return
        if path == "/v1/debug/slow":
            self.send_json(200, service.slow_queries())
            return
        job_id = self.path_id("jobs")
        if job_id is not None:
            self.send_json(200, self._job_document(service.job(job_id)))
            return
        self.send_json(404, {"error": f"unknown path {path!r}"})

    def _handle_delete(self) -> None:
        job_id = self.path_id("jobs")
        if job_id is None:
            self.send_json(404, {"error": f"unknown path {self.path!r}"})
            return
        self.send_json(200, self._job_document(self.server.service.cancel(job_id)))

    def _handle_post(self) -> None:
        path = self.route_path
        if path == "/v1/transactions":
            self._handle_append()
            return
        if path == "/v1/cache/invalidate":
            self._handle_invalidate()
            return
        if path != "/v1/query":
            self.send_json(404, {"error": f"unknown path {path!r}"})
            return
        payload = self.read_json()
        try:
            query = payload.get("query")
            if not isinstance(query, str) or not query.strip():
                raise ValueError('missing required string field "query"')
            priority = int(payload.get("priority", 0))
            budget = budget_from_request(payload.get("budget"))
            wants_async = bool(payload.get("async", False))
            # Tracing turns on via the body flag OR a propagated W3C
            # traceparent header; the header additionally carries the
            # upstream trace id, so this worker's spans join the
            # caller's trace instead of starting a fresh one.
            trace: object = self.incoming_trace() or bool(payload.get("trace", False))
            timeout = float(payload.get("timeout", SYNC_TIMEOUT_SECONDS))
            idempotency_key = _idempotency_key(payload)
        except (ValueError, TypeError, MiningParameterError) as error:
            self.send_json(400, {"error": str(error)})
            return
        try:
            job = self.server.service.submit(
                query,
                priority=priority,
                budget=budget,
                trace=trace,
                idempotency_key=idempotency_key,
            )
        except AdmissionError as error:
            self.send_unavailable(str(error), error.retry_after or 1.0)
            return
        if wants_async:
            self.send_json(202, self._job_document(job))
            return
        job.wait(timeout)
        self.trace_id = job.trace_id
        document = self._job_document(job)
        if job.state == "failed":
            self.send_json(422, document)
        elif job.state in ("queued", "running"):
            self.send_json(504, document)
        else:
            self.send_json(200, document)

    def _handle_append(self) -> None:
        """``POST /v1/transactions`` — stream a batch into the store."""
        payload = self.read_json()
        try:
            entries = payload.get("transactions")
            if not isinstance(entries, list):
                raise ValueError('missing required array field "transactions"')
            idempotency_key = _idempotency_key(payload)
            batch = []
            for entry in entries:
                if not isinstance(entry, dict) or "ts" not in entry:
                    raise ValueError(
                        'each transaction must be an object with "ts" and "items"'
                    )
                timestamp = datetime.fromisoformat(str(entry["ts"]))
                items = entry.get("items")
                if not isinstance(items, list) or not items:
                    raise ValueError(
                        'each transaction needs a non-empty "items" array'
                    )
                tid = entry.get("tid")
                if tid is not None:
                    tid = int(tid)
                batch.append((timestamp, [str(item) for item in items], tid))
        except (ValueError, TypeError) as error:
            self.send_json(400, {"error": str(error)})
            return
        outcome = self.server.service.append_transactions(
            batch, idempotency_key=idempotency_key
        )
        self.send_json(200, outcome)

    def _handle_invalidate(self) -> None:
        """``POST /v1/cache/invalidate`` — drop one fingerprint's entries.

        The cluster fanout surface: a peer worker mutated the shared
        store, and the router tells this process to retire its memory
        tier's entries for the superseded fingerprint.
        """
        fingerprint = self.read_json().get("fingerprint")
        if not isinstance(fingerprint, str) or not fingerprint.strip():
            self.send_json(400, {"error": 'missing required string field "fingerprint"'})
            return
        removed = self.server.service.invalidate_fingerprint(fingerprint)
        self.send_json(200, {"invalidated": removed, "fingerprint": fingerprint})


def _idempotency_key(payload: Dict) -> Optional[str]:
    """The optional ``idempotency_key`` field; a present one must be a
    non-empty string."""
    key = payload.get("idempotency_key")
    if key is not None and (not isinstance(key, str) or not key.strip()):
        raise ValueError('"idempotency_key" must be a non-empty string')
    return key


class MiningHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`MiningService`.

    ``port=0`` binds an ephemeral port (tests); the resolved address is
    ``server.server_address``.  The server does **not** own the service:
    closing the server stops accepting requests, the caller shuts the
    service down.
    """

    daemon_threads = True
    # The socketserver default backlog (5) resets connections under
    # modest client fan-in; the scheduler, not the socket, is the
    # intended admission-control point.
    request_queue_size = 128

    def __init__(
        self,
        service: MiningService,
        host: str = "127.0.0.1",
        port: int = 8765,
        verbose: bool = False,
    ):
        self.service = service
        self.verbose = verbose
        # Registered up front, not lazily per request: the families are
        # always present in the exposition, and the per-request path is
        # two lock-free attribute reads instead of a registry lookup.
        self.m_requests = service.metrics.counter(
            "repro_http_requests_total",
            "API requests served, by method, route and status.",
            labelnames=("method", "route", "status"),
        )
        self.m_request_seconds = service.metrics.histogram(
            "repro_http_request_seconds",
            "API request latency, by route.",
            labelnames=("route",),
        )
        super().__init__((host, port), MiningRequestHandler)
        # ``port=0`` resolves only at bind time; advertise the real one
        # so ``/v1/status`` identity (and cluster port files) are honest.
        service.advertised_port = int(self.server_address[1])

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def start_server(
    service: MiningService,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
) -> Tuple[MiningHTTPServer, threading.Thread]:
    """Start a server on a background thread; returns (server, thread)."""
    server = MiningHTTPServer(service, host=host, port=port, verbose=verbose)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-service-http", daemon=True
    )
    thread.start()
    return server, thread
