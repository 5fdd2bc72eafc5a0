"""The shared HTTP request layer, against a live worker and a live router.

* One write per response: a fake ``wfile`` sees the status line,
  headers and body arrive in a single call.
* No keep-alive stall: sequential cache hits on one persistent
  connection do not wait out the client's delayed ACK.
* Bounded input: bad ``Content-Length`` headers, oversized bodies and
  stalled clients get a well-formed refusal (or a close) within the
  read timeout, and every handler thread they occupied exits.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import pytest

from repro.cluster.router import RouterRequestHandler, start_router
from repro.obs.metrics import MetricsRegistry
from repro.service.core import MiningService, ServiceConfig
from repro.service.http import MiningRequestHandler, start_server
from repro.wire import MAX_BODY_BYTES, JsonRequestHandler

MINE_QUERY = (
    "MINE PERIODS FROM transactions AT GRANULARITY month "
    "WITH SUPPORT >= 0.2, CONFIDENCE >= 0.6 HAVING COVERAGE >= 2;"
)

#: The read timeout the live servers run with here, so stalled-client
#: cases finish quickly.
TEST_TIMEOUT = 1.0


class _OneWorkerFleet:
    """The smallest fleet view a router accepts: one live worker."""

    def __init__(self, url: str, service: MiningService):
        self.worker_id = service.worker_label
        self.base_url = url
        self._service = service

    def healthy_workers(self):
        return [self]

    def all_workers(self):
        return [self]

    def note_failure(self, worker_id):
        pass

    def fingerprint(self):
        return self._service.store.fingerprint()


@pytest.fixture
def live(seasonal_data, monkeypatch):
    """A live worker and a live router in front of it, both on a short
    read timeout; yields ``{"worker": port, "router": port}``."""
    monkeypatch.setattr(JsonRequestHandler, "timeout", TEST_TIMEOUT)
    service = MiningService(config=ServiceConfig(workers=1, metrics=MetricsRegistry()))
    service.load_database(seasonal_data.database)
    server, _ = start_server(service)
    router, _ = start_router(
        _OneWorkerFleet(server.url, service), metrics=MetricsRegistry()
    )
    try:
        yield {"worker": server.server_address[1], "router": router.server_address[1]}
    finally:
        for front in (router, server):
            front.shutdown()
            front.server_close()
        service.close()


def _exchange(port: int, data: bytes, wait: float = 10.0):
    """Send raw bytes, read until the server closes; ``(bytes, seconds)``."""
    started = time.perf_counter()
    with socket.create_connection(("127.0.0.1", port), timeout=wait) as sock:
        sock.sendall(data)
        received = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            received += chunk
    return received, time.perf_counter() - started


def _parse_response(raw: bytes):
    """``(status, headers, json body)`` of one complete HTTP response."""
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    version, status, _ = lines[0].split(" ", 2)
    assert version == "HTTP/1.1"
    headers = dict(line.split(": ", 1) for line in lines[1:])
    assert int(headers["Content-Length"]) == len(body)
    return int(status), headers, json.loads(body)


def _post_head(length: str) -> bytes:
    return (
        "POST /v1/query HTTP/1.1\r\nHost: test\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {length}\r\n\r\n"
    ).encode("ascii")


def _wait_for_threads(baseline: int, deadline: float = 5.0) -> int:
    end = time.monotonic() + deadline
    while threading.active_count() > baseline and time.monotonic() < end:
        time.sleep(0.02)
    return threading.active_count()


# ----------------------------------------------------------------------
# one write per response
# ----------------------------------------------------------------------


class _RecordingFile:
    def __init__(self):
        self.writes = []

    def write(self, data):
        self.writes.append(bytes(data))
        return len(data)

    def flush(self):
        pass


class _FakeServer:
    verbose = False

    class service:  # noqa: N801 — attribute namespace only
        worker_label = "w-test"


def _bare_handler(cls):
    handler = cls.__new__(cls)
    handler.server = _FakeServer()
    handler.wfile = _RecordingFile()
    handler.request_version = "HTTP/1.1"
    handler.requestline = "GET /v1/status HTTP/1.1"
    handler.command = "GET"
    handler.client_address = ("127.0.0.1", 0)
    handler.close_connection = False
    return handler


class TestSingleWrite:
    def test_worker_response_is_one_write(self):
        handler = _bare_handler(MiningRequestHandler)
        handler.send_json(200, {"ok": True}, headers={"Retry-After": "1"})
        assert len(handler.wfile.writes) == 1
        status, headers, body = _parse_response(handler.wfile.writes[0])
        assert (status, body) == (200, {"ok": True})
        assert headers["X-Repro-Worker"] == "w-test"
        assert headers["Retry-After"] == "1"
        assert headers["Content-Type"] == "application/json"
        assert "Connection" not in headers

    def test_router_passthrough_is_one_write_with_one_content_type(self):
        handler = _bare_handler(RouterRequestHandler)
        handler.send_body(
            202,
            b"{}",
            headers={"Content-Type": "text/html", "X-Repro-Worker": "w1"},
        )
        assert len(handler.wfile.writes) == 1
        raw = handler.wfile.writes[0]
        assert raw.count(b"Content-Type:") == 1
        status, headers, _ = _parse_response(raw)
        assert status == 202
        assert headers["Content-Type"] == "application/json"
        assert headers["X-Repro-Worker"] == "w1"

    def test_nagle_is_off(self):
        assert JsonRequestHandler.disable_nagle_algorithm is True


class TestKeepAlive:
    def test_sequential_cache_hits_do_not_stall(self, live):
        """40 warm hits on one persistent connection take well under the
        1.6 s that a 40 ms delayed-ACK stall per response would cost."""
        connection = http.client.HTTPConnection("127.0.0.1", live["worker"], timeout=30)
        body = json.dumps({"query": MINE_QUERY})
        headers = {"Content-Type": "application/json"}
        try:
            connection.request("POST", "/v1/query", body, headers)
            response = connection.getresponse()
            assert json.loads(response.read())["state"] == "done"
            started = time.perf_counter()
            for _ in range(40):
                connection.request("POST", "/v1/query", body, headers)
                response = connection.getresponse()
                assert json.loads(response.read())["cached"] is True
            elapsed = time.perf_counter() - started
        finally:
            connection.close()
        assert elapsed < 1.0, f"40 keep-alive hits took {elapsed:.2f}s"


# ----------------------------------------------------------------------
# bounded input, against both servers
# ----------------------------------------------------------------------


@pytest.mark.parametrize("front", ["worker", "router"])
class TestHostileInput:
    @pytest.mark.parametrize(
        "length, expected",
        [("-1", 400), ("abc", 400), ("1_0", 400), (str(MAX_BODY_BYTES + 1), 413), ("999999999", 413)],
    )
    def test_bad_content_length(self, live, front, length, expected):
        baseline = threading.active_count()
        raw, elapsed = _exchange(live[front], _post_head(length) + b'{"query"')
        status, headers, body = _parse_response(raw)
        assert status == expected
        assert headers["Connection"] == "close"
        assert "error" in body
        assert elapsed < TEST_TIMEOUT, "refusals must not wait for the body"
        assert _wait_for_threads(baseline) <= baseline

    def test_missing_content_length(self, live, front):
        raw, _ = _exchange(
            live[front],
            b"POST /v1/query HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n",
        )
        status, _, body = _parse_response(raw)
        assert status == 400 and "Content-Length" in body["error"]

    def test_half_sent_body_times_out_with_408(self, live, front):
        baseline = threading.active_count()
        raw, elapsed = _exchange(live[front], _post_head("100") + b'{"query": "MI')
        status, headers, body = _parse_response(raw)
        assert status == 408 and headers["Connection"] == "close"
        assert TEST_TIMEOUT * 0.9 <= elapsed < TEST_TIMEOUT + 3.0
        assert _wait_for_threads(baseline) <= baseline

    def test_stalled_headers_are_disconnected(self, live, front):
        baseline = threading.active_count()
        raw, elapsed = _exchange(
            live[front], b"POST /v1/query HTTP/1.1\r\nHost: te"
        )
        assert raw == b""
        assert elapsed < TEST_TIMEOUT + 3.0
        assert _wait_for_threads(baseline) <= baseline

    def test_unread_body_closes_the_connection(self, live, front):
        """A response sent before the body was read (unknown path) closes
        the connection instead of parsing the body as a next request."""
        payload = b'{"x": 1}'
        raw, _ = _exchange(
            live[front],
            b"POST /v1/nope HTTP/1.1\r\nHost: test\r\n"
            + f"Content-Length: {len(payload)}\r\n\r\n".encode("ascii")
            + payload,
        )
        status, headers, _ = _parse_response(raw)
        assert status == 404 and headers["Connection"] == "close"

    def test_well_formed_requests_still_work(self, live, front):
        connection = http.client.HTTPConnection("127.0.0.1", live[front], timeout=60)
        try:
            connection.request(
                "POST", "/v1/query", json.dumps({"query": "SHOW SUMMARY;"}),
                {"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["state"] == "done"
            connection.request("POST", "/v1/query", b"[1]", {"Content-Type": "application/json"})
            response = connection.getresponse()
            assert response.status == 400
            assert "JSON object" in json.loads(response.read())["error"]
            # The body was consumed, so the connection survives a 400.
            connection.request("GET", "/v1/status")
            assert connection.getresponse().status == 200
        finally:
            connection.close()


# ----------------------------------------------------------------------
# path helpers
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "path, route, job_id",
    [
        ("/v1/jobs/abc", "/v1/jobs/{id}", "abc"),
        ("/v1/jobs/abc?x=1", "/v1/jobs/{id}", "abc"),
        ("/v1/traces/t1", "/v1/traces/{id}", None),
        ("/v1/traces?min_ms=5", "/v1/traces", None),
        ("/v1/query", "/v1/query", None),
        ("/v1/jobs", "(unknown)", None),
        ("/v2/jobs/abc", "(unknown)", None),
    ],
)
def test_route_label_and_path_id(path, route, job_id):
    handler = _bare_handler(JsonRequestHandler)
    handler.path = path
    assert handler.route_label() == route
    assert handler.path_id("jobs") == job_id


def test_query_params_last_value_wins():
    handler = _bare_handler(JsonRequestHandler)
    handler.path = "/v1/traces?min_ms=1&limit=3&min_ms=7"
    assert handler.query_params() == {"min_ms": "7", "limit": "3"}
