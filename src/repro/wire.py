"""The HTTP request layer shared by the mining worker and the cluster router.

Both servers' handlers subclass :class:`JsonRequestHandler`, which owns
everything about a request that is not routing (see ``docs/service.md``):

* one ``wfile.write`` per response on a ``TCP_NODELAY`` socket — a
  separate header write lets Nagle's algorithm and the client's delayed
  ACK hold every keep-alive response for ~40 ms;
* bounded input: ``400`` for a bad ``Content-Length``, ``413`` past
  :data:`MAX_BODY_BYTES` (unread), ``408`` or a disconnect for a client
  silent for :data:`READ_TIMEOUT_SECONDS`, and a closed connection
  whenever a response leaves request bytes unread;
* JSON bodies, path ids, query parameters, the incoming
  ``traceparent``, the error mapping and the request metrics.
"""

from __future__ import annotations

import json
import socket
import time
from http.server import BaseHTTPRequestHandler
from typing import Any, Callable, Dict, Optional
from urllib.parse import parse_qs

from repro.errors import JobNotFoundError, ReproError
from repro.obs.distributed import TraceContext, parse_traceparent

#: Largest request body either server reads.  The largest body the
#: tests, scripts, load generator and benchmarks send is an append batch
#: of a few kB.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Longest wait for the client's next bytes: headers, body, or the next
#: request on a keep-alive connection.
READ_TIMEOUT_SECONDS = 10.0

JSON_CONTENT_TYPE = "application/json"

#: Paths metered under their own route label; the rest are ``(unknown)``.
ROUTES = frozenset(
    "/v1/" + name
    for name in (
        "status", "metrics", "query", "transactions", "cache/invalidate",
        "traces", "debug/slow",
    )
)


class RequestError(Exception):
    """A request the layer refuses; answered with ``status``."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class JsonRequestHandler(BaseHTTPRequestHandler):
    """Bounded reads, single-write JSON responses, error mapping, metrics.

    The owning server provides ``verbose``, ``m_requests`` (a counter
    labelled by some of ``method``/``route``/``status``) and
    ``m_request_seconds`` (a histogram labelled by ``route``).  A
    handler that resolves a trace id sets ``self.trace_id``; it becomes
    the latency exemplar.
    """

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    timeout = READ_TIMEOUT_SECONDS
    #: True while the request has body bytes no handler has read.
    _unread = False

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        server: Any = self.server
        if server.verbose:
            super().log_message(format, *args)

    def extra_headers(self) -> Dict[str, str]:
        """Headers every response of this server carries."""
        return {}

    # ------------------------------------------------------------------
    # responses
    # ------------------------------------------------------------------

    def send_body(
        self,
        status: int,
        body: bytes,
        content_type: str = JSON_CONTENT_TYPE,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        """Status line, headers and body in one write.

        A ``Content-Type`` among ``headers`` (e.g. passed through from
        a proxied response) yields to ``content_type``.
        """
        self.response_status = status
        self.log_request(status)
        if self._unread:
            self.close_connection = True
        reason = self.responses[status][0] if status in self.responses else ""
        lines = [
            f"{self.protocol_version} {status} {reason}",
            f"Server: {self.version_string()}",
            f"Date: {self.date_time_string()}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
        ]
        for name, value in {**self.extra_headers(), **(headers or {})}.items():
            if name.lower() != "content-type":
                lines.append(f"{name}: {value}")
        if self.close_connection:
            lines.append("Connection: close")
        head = "\r\n".join(lines) + "\r\n\r\n"
        self.wfile.write(head.encode("latin-1") + body)

    def send_json(
        self, status: int, payload: Dict, headers: Optional[Dict[str, str]] = None
    ) -> None:
        self.send_body(status, json.dumps(payload).encode("utf-8"), headers=headers)

    def send_unavailable(self, message: str, retry_after: float = 1.0) -> None:
        """``503`` with ``Retry-After`` in whole seconds (at least 1)."""
        seconds = str(max(1, int(round(retry_after))))
        self.send_json(503, {"error": message}, headers={"Retry-After": seconds})

    # ------------------------------------------------------------------
    # requests
    # ------------------------------------------------------------------

    def read_body(self) -> bytes:
        """The request body; raises :class:`RequestError` (400/408/413)."""
        declared = self.headers.get("Content-Length")
        if declared is None:
            raise RequestError(400, "Content-Length header is required")
        declared = declared.strip()
        if not (declared.isascii() and declared.isdigit()):
            raise RequestError(400, f"invalid Content-Length {declared!r}")
        length = int(declared)
        if length > MAX_BODY_BYTES:
            raise RequestError(
                413, f"request body of {length} bytes exceeds {MAX_BODY_BYTES}"
            )
        try:
            body = self.rfile.read(length)
        except socket.timeout:
            raise RequestError(
                408, f"request body not received within {self.timeout:g}s"
            ) from None
        if len(body) < length:
            raise RequestError(400, "request body ended early")
        self._unread = False
        return body

    def read_json(self) -> Dict:
        """The body as a JSON object (``{}`` when empty)."""
        return self.parse_json(self.read_body())

    @staticmethod
    def parse_json(raw: bytes) -> Dict:
        """A request body as a JSON object (``{}`` when empty), else 400."""
        if not raw:
            return {}
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            raise RequestError(400, f"request body is not valid JSON: {error}") from None
        if not isinstance(payload, dict):
            raise RequestError(400, "request body must be a JSON object")
        return payload

    @property
    def route_path(self) -> str:
        """The request path without its query string."""
        return self.path.split("?", 1)[0]

    def path_id(self, collection: str) -> Optional[str]:
        """``{id}`` of a ``/v1/{collection}/{id}`` path, else ``None``."""
        parts = [part for part in self.route_path.split("/") if part]
        if len(parts) == 3 and parts[0] == "v1" and parts[1] == collection:
            return parts[2]
        return None

    def query_params(self) -> Dict[str, str]:
        """Flattened (last value wins) query-string parameters."""
        query = self.path.split("?", 1)[1] if "?" in self.path else ""
        return {name: values[-1] for name, values in parse_qs(query).items()}

    def route_label(self) -> str:
        """The bounded-cardinality route label for request metrics."""
        for collection in ("jobs", "traces"):
            if self.path_id(collection) is not None:
                return f"/v1/{collection}/{{id}}"
        path = self.route_path
        return path if path in ROUTES else "(unknown)"

    def incoming_trace(self) -> Optional[TraceContext]:
        """The next-hop context of a valid incoming ``traceparent``.

        An invalid header is dropped (the W3C processing model): the
        trace restarts rather than the request failing.
        """
        parent = parse_traceparent(self.headers.get("traceparent"))
        return parent.child() if parent is not None else None

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def dispatch(self, handler: Callable[[], None]) -> None:
        """Run a route handler, answering what it raises, and meter it.

        :class:`RequestError` → its status; an unknown job → 404; any
        other :class:`~repro.errors.ReproError` → 500.
        """
        route = self.route_label()
        self.response_status = 0
        self.trace_id: Optional[str] = None
        declared = (self.headers.get("Content-Length") or "0").strip()
        self._unread = declared != "0" or "Transfer-Encoding" in self.headers
        started = time.perf_counter()
        try:
            handler()
        except (RequestError, ReproError) as error:
            if isinstance(error, RequestError):
                status = error.status
            else:
                status = 404 if isinstance(error, JobNotFoundError) else 500
            try:
                self.send_json(status, {"error": str(error)})
            except OSError:
                self.close_connection = True
        finally:
            server: Any = self.server
            labels = {
                "method": self.command,
                "route": route,
                "status": str(self.response_status),
            }
            server.m_requests.inc(
                **{name: labels[name] for name in server.m_requests.labelnames}
            )
            exemplar = {"trace_id": self.trace_id} if self.trace_id else None
            server.m_request_seconds.observe(
                time.perf_counter() - started, exemplar=exemplar, route=route
            )
