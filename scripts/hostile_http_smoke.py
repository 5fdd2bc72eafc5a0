#!/usr/bin/env python
"""Hostile-input smoke test for the worker and the router.

Used by CI's service and cluster smoke jobs (and handy interactively)::

    python scripts/hostile_http_smoke.py

Boots ``python -m repro.service --demo`` and ``python -m repro.cluster
--demo --workers 1`` on ephemeral ports and sends, over raw sockets:

* ``Content-Length: -1`` and ``abc``          → ``400``,
* ``Content-Length: 999999999``               → ``413`` (body never read),
* a body cut off half way, then silence       → ``408`` after the read
  timeout,
* headers cut off half way, then silence      → the server disconnects,

asserting each answer (a well-formed response with a JSON ``error``
and ``Connection: close``, or a plain close) arrives within a deadline,
and that a well-formed query still succeeds afterwards.

Exit status 0 on success, 1 with a diagnostic on any failure.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Tuple

REPO = Path(__file__).resolve().parent.parent
SRC = str(REPO / "src")
sys.path.insert(0, SRC)

from repro.wire import READ_TIMEOUT_SECONDS  # noqa: E402

#: Slack on top of the server's read timeout for a stalled client's answer.
SLACK_SECONDS = 5.0

#: Deadline for a refusal that must not wait for the body at all.
PROMPT_SECONDS = 2.0


def _fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def _boot(argv: List[str], port_file: Path) -> Tuple[subprocess.Popen, int]:
    process = subprocess.Popen(
        [sys.executable, "-m", *argv, "--port", "0", "--port-file", str(port_file)],
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        if process.poll() is not None:
            _fail(f"{argv[0]} exited early with {process.returncode}")
        try:
            text = port_file.read_text().strip()
            if text:
                return process, int(text)
        except OSError:
            pass
        time.sleep(0.1)
    process.kill()
    _fail(f"{argv[0]} wrote no port file within 60s")
    raise AssertionError("unreachable")


def _exchange(port: int, data: bytes, wait: float) -> Tuple[bytes, float]:
    """Send raw bytes and read until the server closes the connection."""
    started = time.monotonic()
    with socket.create_connection(("127.0.0.1", port), timeout=wait) as sock:
        sock.sendall(data)
        received = b""
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                received += chunk
        except socket.timeout:
            _fail(f"no answer or close within {wait:.0f}s for {data[:60]!r}")
    return received, time.monotonic() - started


def _parse(raw: bytes) -> Tuple[int, Dict[str, str], Dict]:
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    headers = dict(line.split(": ", 1) for line in lines[1:])
    if int(headers.get("Content-Length", -1)) != len(body):
        _fail(f"Content-Length does not match the body: {raw[:200]!r}")
    return status, headers, json.loads(body)


def _post_head(length: str) -> bytes:
    return (
        "POST /v1/query HTTP/1.1\r\nHost: smoke\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {length}\r\n\r\n"
    ).encode("ascii")


def check_server(name: str, port: int) -> None:
    stalled = READ_TIMEOUT_SECONDS + SLACK_SECONDS
    cases = [
        ("Content-Length: -1", _post_head("-1"), 400, PROMPT_SECONDS),
        ("Content-Length: abc", _post_head("abc"), 400, PROMPT_SECONDS),
        ("Content-Length: 999999999", _post_head("999999999"), 413, PROMPT_SECONDS),
        ("half-sent body", _post_head("100") + b'{"query": "MI', 408, stalled),
        ("half-sent headers", b"POST /v1/query HTTP/1.1\r\nHost: sm", None, stalled),
    ]
    for label, data, expected, wait in cases:
        raw, elapsed = _exchange(port, data, wait)
        if expected is None:
            if raw:
                _fail(f"{name} / {label}: expected a close, got {raw[:200]!r}")
            outcome = "closed"
        else:
            status, headers, body = _parse(raw)
            if status != expected or "error" not in body:
                _fail(f"{name} / {label}: expected {expected}, got {status} {body}")
            if headers.get("Connection") != "close":
                _fail(f"{name} / {label}: connection left open after {status}")
            outcome = str(status)
        if elapsed > wait:
            _fail(f"{name} / {label}: answered after {elapsed:.1f}s (> {wait:.0f}s)")
        print(f"{name}: {label:28s} -> {outcome} in {elapsed:.2f}s")

    query = json.dumps({"query": "SHOW SUMMARY;"}).encode("utf-8")
    raw, _ = _exchange(
        port,
        _post_head(str(len(query))).replace(b"\r\n\r\n", b"\r\nConnection: close\r\n\r\n")
        + query,
        60.0,
    )
    status, _, body = _parse(raw)
    if status != 200 or body.get("state") != "done":
        _fail(f"{name}: a well-formed query after the hostile ones got {status} {body}")
    print(f"{name}: well-formed query still served")


def main() -> int:
    targets = {
        "service": ["repro.service", "--demo", "--workers", "1", "--log-level", "warning"],
        "cluster": ["repro.cluster", "--demo", "--workers", "1", "--log-level", "warning"],
    }
    with tempfile.TemporaryDirectory(prefix="repro-hostile-smoke-") as run_dir:
        for name, command in targets.items():
            process, port = _boot(command, Path(run_dir) / f"{name}.port")
            try:
                check_server(name, port)
            finally:
                process.terminate()
                try:
                    process.wait(timeout=60.0)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait(timeout=10.0)
    print("hostile-input smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
