"""``serve_warm`` — warm cache hits over persistent HTTP/1.1 connections.

A ``python -m repro.service --db <store>`` process with the default
flags for a file-backed store (journal and disk cache on).  Two client
threads each hold one keep-alive connection and send, closed loop,
seeded Zipf-ordered requests over 48 distinct canonical statements;
about half use case or whitespace variants.  The working set fits the
default 256-entry result cache, which set-up primes, so this workload
loads HTTP, TML lex/parse/canonicalize, the cache and the scheduler and
does no mining.
"""

from __future__ import annotations

import http.client
import json
import shutil
import sys
import threading
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from perfbench import inputs, tracing
from perfbench.common import (
    BenchFailure,
    Child,
    canonical_json,
    child_env,
    clock,
    fresh_request,
    mean,
    median,
    percentile,
    request,
    scrape,
    scrape_delta,
    vm_hwm_mb,
    wait_status,
)

SETUP_REPS = 3
CLIENTS = 2

REQUIRED_WRAPPERS = (
    ("repro.service.http:MiningRequestHandler.do_POST",),
    ("repro.tml.parser:parse_statement",),
    ("repro.tml.canonical:canonicalize_statement",),
    ("repro.service.scheduler:JobScheduler.submit",),
    ("repro.service.scheduler:Job.wait",),
    ("repro.service.core:MiningService._execute_job",),
    ("repro.service.cache:ResultCache.get",),
    ("repro.service.durability.journal:JobJournal.record_admitted",),
    ("repro.service.durability.journal:JobJournal.record_running",),
    ("repro.service.durability.journal:JobJournal.record_finished",),
    ("repro.db.sqlite_store:SqliteStore.fingerprint",),
)


def build_store(seed: int, path: Path) -> int:
    from repro.db.sqlite_store import SqliteStore

    dataset = inputs.serve_warm_dataset(seed)
    store = SqliteStore(str(path))
    try:
        return store.save_database(dataset.database)
    finally:
        store.close()


class PrimedServer:
    """One service process over a fresh copy of the store, cache primed."""

    def __init__(self, directory: Path, template: Path, statements: List[str], span_dir: Optional[Path] = None):
        directory.mkdir(parents=True)
        started = clock()
        database = directory / "store.db"
        shutil.copyfile(template, database)
        port_file = directory / "port"
        self.child = Child(
            [sys.executable, "-m", "repro.service", "--db", str(database), "--port", "0", "--port-file", str(port_file)],
            child_env(directory, span_dir),
            directory / "server.log",
        )
        try:
            self.port = self.child.wait_port(port_file)
            wait_status(self.port, lambda document: True)
            self.primed = [self._prime(text) for text in statements]
        except BaseException:
            self.child.stop()
            raise
        self.setup_s = clock() - started

    def _prime(self, text: str) -> bytes:
        status, body = fresh_request(self.port, "POST", "/v1/query", {"query": text})
        document = json.loads(body)
        if status != 200 or document.get("state") != "done" or document.get("cached"):
            raise BenchFailure(f"priming {text!r} answered {status}: {document.get('state')} cached={document.get('cached')}")
        return canonical_json(document["result"])

    def stop(self) -> None:
        self.child.stop()


def _client(port: int, requests: Iterator[Tuple[int, str]], primed: List[bytes], end: float, out: Dict) -> None:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60.0)
    sent = []
    try:
        for index, text in requests:
            if clock() >= end:
                break
            started = clock()
            status, body = request(connection, "POST", "/v1/query", {"query": text})
            elapsed = clock() - started
            sent.append((started, elapsed, len(body), index, text))
            document = json.loads(body)
            if status != 200 or document.get("state") != "done" or document.get("cached") is not True:
                raise BenchFailure(f"warm request answered {status}: state={document.get('state')} cached={document.get('cached')}")
            if canonical_json(document["result"]) != primed[index]:
                raise BenchFailure(f"warm hit for statement {index} differs from its primed body")
    except Exception as error:  # noqa: BLE001 — re-raised by the main thread
        out["error"] = error
    finally:
        connection.close()
        out["sent"] = sent


def _window(server: PrimedServer, seed: int, statements: List[str], seconds: float) -> Dict[str, object]:
    end = clock() + seconds
    outputs = [dict() for _ in range(CLIENTS)]
    threads = [
        threading.Thread(
            target=_client,
            args=(server.port, inputs.serve_warm_requests(seed, n, statements), server.primed, end, out),
            name=f"client-{n}",
        )
        for n, out in enumerate(outputs)
    ]
    started = clock()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    ended = clock()
    for out in outputs:
        if "error" in out:
            raise BenchFailure(f"serve_warm client failed: {out['error']}")
    sent = sorted(entry for out in outputs for entry in out["sent"])
    seen_raw, seen_canonical = set(), set()
    raw_repeats = canonical_repeats = 0
    for _, _, _, index, text in sent:
        raw_repeats += text in seen_raw
        canonical_repeats += index in seen_canonical
        seen_raw.add(text)
        seen_canonical.add(index)
    return {
        "started": started,
        "ended": ended,
        "latencies": [entry[1] for entry in sent],
        "sizes": [entry[2] for entry in sent],
        "raw_repeat_share": raw_repeats / len(sent),
        "canonical_repeat_share": canonical_repeats / len(sent),
    }


def run(seed: int, seconds: float, trace: bool, report, run_dir: Path) -> Dict[str, object]:
    statements = inputs.serve_warm_statements()
    template = run_dir / "template.db"
    rows = build_store(seed, template)

    reps = 1 if trace else SETUP_REPS
    setups = []
    server = None
    for rep in range(reps):
        if server is not None:
            server.stop()
        server = PrimedServer(run_dir / f"untraced-{rep}", template, statements)
        setups.append(server.setup_s)
    try:
        before = scrape(server.port)
        measured = _window(server, seed, statements, seconds)
        after = scrape(server.port)
        rss_mb = vm_hwm_mb(server.child.pid)
    finally:
        server.stop()

    latencies = measured["latencies"]
    window_s = measured["ended"] - measured["started"]
    delta = scrape_delta(before, after)
    hits = sum(value for key, value in delta.items() if key.startswith("repro_cache_events_total") and 'event="hit"' in key)
    if hits < len(latencies):
        raise BenchFailure(f"scrape shows {hits} cache hits for {len(latencies)} warm requests")
    report.line("workload", f"serve_warm: {CLIENTS} keep-alive clients, closed loop, {len(statements)} canonical statements, store of {rows} rows")
    report.line("requests", len(latencies))
    report.line("raw_repeat_share", round(measured["raw_repeat_share"], 4))
    report.line("canonical_repeat_share", round(measured["canonical_repeat_share"], 4))
    report.line("response_kb_mean", round(mean(measured["sizes"]) / 1024.0, 3))
    report.line("scrape_delta", delta)
    result = {
        "attempted": len(latencies),
        "failed": 0,
        "metrics": {
            "setup_s": median(setups),
            "throughput_ops_s": len(latencies) / window_s,
            "peak_rss_mb": rss_mb,
            "latency_p50_ms": median(latencies) * 1000.0,
            "latency_p90_ms": percentile(latencies, 90.0) * 1000.0,
        },
    }
    if not trace:
        return result

    span_dir = run_dir / "spans"
    span_dir.mkdir()
    server = PrimedServer(run_dir / "traced", template, statements, span_dir=span_dir)
    try:
        traced = _window(server, seed, statements, seconds)
    finally:
        server.stop()
    spans = tracing.load_window(str(span_dir), traced["started"], traced["ended"])
    result["attempted"] = len(traced["latencies"])
    result["per_layer"] = tracing.per_layer_metrics(
        spans,
        REQUIRED_WRAPPERS,
        traced["latencies"],
        latencies,
        response_kb=mean(traced["sizes"]) / 1024.0,
    )
    return result
