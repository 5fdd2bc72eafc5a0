"""Plumbing shared by the workloads: statistics, hermetic child
processes, HTTP calls, the metrics scrape and the run record."""

from __future__ import annotations

import http.client
import json
import os
import platform
import re
import signal
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HOOK_DIR = Path(__file__).resolve().parent / "hook"

#: Environment variables that pin program behaviour; every run clears
#: them, in this process and in every child it starts.
PINNING_ENV = ("REPRO_PLAN", "REPRO_WORKERS", "REPRO_PLAN_CPUS", "REPRO_INCREMENTAL")
#: Set only for traced children: where ``hook/sitecustomize.py`` dumps spans.
SPAN_DIR_ENV = "PERFBENCH_SPAN_DIR"

clock = time.perf_counter


class BenchFailure(Exception):
    """A correctness gate failed; the run exits non-zero."""


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if not values:
        raise BenchFailure("no samples to take a percentile of")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# ----------------------------------------------------------------------
# hermetic environment and child processes
# ----------------------------------------------------------------------


def clear_pinning_env() -> None:
    for name in PINNING_ENV:
        os.environ.pop(name, None)


def child_env(tmp_dir: Path, span_dir: Optional[Path] = None) -> Dict[str, str]:
    """The environment every child process runs with.

    Pinning variables are removed, ``src`` is importable, temporary
    files land in the run directory, and only a traced run adds the
    interpreter-start hook.
    """
    env = {key: value for key, value in os.environ.items() if key not in PINNING_ENV}
    env.pop("PYTHONSTARTUP", None)
    paths = [str(SRC)]
    if span_dir is not None:
        paths.append(str(HOOK_DIR))
        env[SPAN_DIR_ENV] = str(span_dir)
    else:
        env.pop(SPAN_DIR_ENV, None)
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["TMPDIR"] = str(tmp_dir)
    return env


class Child:
    """One server process (and its process group) started by the benchmark."""

    #: Children not stopped yet; the entry point stops them on any exit.
    live: List["Child"] = []

    def __init__(self, argv: List[str], env: Dict[str, str], log_path: Path):
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.process = subprocess.Popen(
            argv,
            cwd=str(ROOT),
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        Child.live.append(self)

    @property
    def pid(self) -> int:
        return self.process.pid

    def wait_port(self, port_file: Path, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise BenchFailure(f"server exited early ({self.process.returncode}): {self.log_tail()}")
            try:
                text = port_file.read_text().strip()
            except FileNotFoundError:
                text = ""
            if text:
                return int(text)
            time.sleep(0.01)
        raise BenchFailure(f"server did not announce a port within {timeout}s: {self.log_tail()}")

    def stop(self, timeout: float = 60.0) -> int:
        """SIGTERM (a graceful drain), then SIGKILL whatever is left.

        Waits until no process of the group (a router's workers
        included) is alive any more.
        """
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                os.killpg(self.process.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        self._log.close()
        if self in Child.live:
            Child.live.remove(self)
        return self.process.returncode

    @classmethod
    def stop_all(cls) -> None:
        for child in list(cls.live):
            child.stop(timeout=10.0)

    def log_tail(self, lines: int = 20) -> str:
        try:
            self._log.flush()
            text = self.log_path.read_text(errors="replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii", errors="replace") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchFailure(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# HTTP
# ----------------------------------------------------------------------


def request(
    connection: http.client.HTTPConnection,
    method: str,
    path: str,
    payload: Optional[dict] = None,
) -> Tuple[int, bytes]:
    body = json.dumps(payload).encode("utf-8") if payload is not None else None
    headers = {"Content-Type": "application/json"} if body is not None else {}
    connection.request(method, path, body=body, headers=headers)
    response = connection.getresponse()
    return response.status, response.read()


def fresh_request(port: int, method: str, path: str, payload: Optional[dict] = None, timeout: float = 120.0) -> Tuple[int, bytes]:
    """One request on its own connection, closed afterwards."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        return request(connection, method, path, payload)
    finally:
        connection.close()


def wait_status(port: int, ready, timeout: float = 60.0) -> dict:
    """Poll ``GET /v1/status`` until ``ready(document)`` holds."""
    deadline = time.monotonic() + timeout
    last = None
    while time.monotonic() < deadline:
        try:
            status, body = fresh_request(port, "GET", "/v1/status", timeout=5.0)
            if status == 200:
                last = json.loads(body)
                if ready(last):
                    return last
        except OSError:
            pass
        time.sleep(0.02)
    raise BenchFailure(f"server on port {port} not ready within {timeout}s (last status: {last})")


def canonical_json(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")


# ----------------------------------------------------------------------
# Prometheus text: a small parser for before/after deltas
# ----------------------------------------------------------------------

_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)")


def parse_exposition(text: str) -> Dict[str, float]:
    """``{"name{labels}": value}`` for every sample line."""
    samples: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            raise BenchFailure(f"unparseable metrics line: {line!r}")
        name, labels, value = match.groups()
        samples[name + (labels or "")] = float(value)
    return samples


#: Families whose before/after deltas each untraced server run reports.
SCRAPED_FAMILIES = (
    "repro_cache_events_total",
    "repro_cache_disk_events_total",
    "repro_cache_single_flight_waits_total",
    "repro_scheduler_wait_seconds_sum",
    "repro_scheduler_wait_seconds_count",
    "repro_scheduler_run_seconds_sum",
    "repro_scheduler_jobs_total",
    "repro_incremental_dirty_units_total",
    "repro_incremental_fallbacks_total",
    "repro_service_appends_total",
    "repro_journal_transitions_total",
    "repro_cluster_invalidation_fanout_total",
    "repro_planner_decisions_total",
)


def scrape_delta(
    before: Dict[str, float], after: Dict[str, float], families: Sequence[str] = SCRAPED_FAMILIES
) -> Dict[str, float]:
    delta = {}
    for key, value in after.items():
        family = key.split("{", 1)[0]
        if family in families:
            change = value - before.get(key, 0.0)
            if change:
                delta[key] = round(change, 6)
    return delta


def scrape(port: int) -> Dict[str, float]:
    status, body = fresh_request(port, "GET", "/v1/metrics", timeout=30.0)
    if status != 200:
        raise BenchFailure(f"GET /v1/metrics answered {status}")
    return parse_exposition(body.decode("utf-8"))


# ----------------------------------------------------------------------
# the run record
# ----------------------------------------------------------------------


def git_sha() -> str:
    """HEAD of the checkout, or ``unknown`` outside a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(ROOT),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = completed.stdout.strip()
    return sha if completed.returncode == 0 and sha else "unknown"


def run_record() -> Dict[str, object]:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
    }
