"""``append_mine`` — streamed appends and re-mines through the cluster.

A ``python -m repro.cluster --workers 1`` router plus worker over a
seeded 20k-transaction store.  One client, closed loop, a fresh
connection per request (as ``ServiceClient`` does).  Each op is one
cycle: ``POST /v1/transactions`` with 36 rows over 18 of the 365 days
and an idempotency key, then the same day-granularity ``MINE PERIODS``,
which must miss the cache.  This is the write path ``serve_warm``
bypasses: ``db.append_batch``, the journal, the delta refresh of the
worker's environment, cache invalidation and the router's routing and
fan-out.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path
from typing import Dict, List, Optional

from perfbench import inputs, tracing
from perfbench.common import (
    BenchFailure,
    Child,
    canonical_json,
    child_env,
    clock,
    fresh_request,
    median,
    percentile,
    scrape,
    scrape_delta,
    vm_hwm_mb,
    wait_status,
)

SETUP_REPS = 3

REQUIRED_WRAPPERS = (
    ("repro.cluster.router:RouterRequestHandler.do_POST",),
    ("repro.cluster.router:ClusterRouter.proxy",),
    ("repro.cluster.router:ClusterRouter.fan_out_invalidation",),
    ("repro.service.http:MiningRequestHandler.do_POST",),
    ("repro.db.sqlite_store:SqliteStore.append_batch",),
    ("repro.db.sqlite_store:SqliteStore.fingerprint",),
    ("repro.service.durability.journal:JobJournal.record_append_intent",),
    ("repro.service.durability.journal:JobJournal.record_append_applied",),
    ("repro.service.durability.journal:JobJournal.record_admitted",),
    ("repro.service.cache:ResultCache.get",),
    ("repro.service.cache:ResultCache.note_append",),
    ("repro.tml.executor:ExecutionEnvironment.apply_store_append",),
    ("repro.mining.engine:TemporalMiner.invalidate",),
    ("repro.columnar.encoded:EncodedDatabase.from_database",),
    ("repro.columnar.backends:VerticalBackend.count_pass", "repro.columnar.backends:PackedBackend.count_pass"),
    ("repro.core.apriori:generate_candidates",),
    ("repro.mining.rulespace:candidate_rules",),
    ("repro.planner.planner:plan_query",),
    ("repro.mining.valid_periods:discover_valid_periods",),
)


def build_store(seed: int, path: Path) -> int:
    from repro.db.sqlite_store import SqliteStore

    dataset = inputs.append_mine_dataset(seed)
    store = SqliteStore(str(path))
    try:
        return store.save_database(dataset.database)
    finally:
        store.close()


class Cluster:
    """Router plus one worker over a fresh copy of the store, mined once."""

    def __init__(self, directory: Path, template: Path, span_dir: Optional[Path] = None):
        directory.mkdir(parents=True)
        started = clock()
        self.database = directory / "store.db"
        shutil.copyfile(template, self.database)
        port_file = directory / "port"
        self.child = Child(
            [
                sys.executable, "-m", "repro.cluster",
                "--db", str(self.database),
                "--workers", "1",
                "--port", "0",
                "--port-file", str(port_file),
            ],
            child_env(directory, span_dir),
            directory / "cluster.log",
        )
        try:
            self.port = self.child.wait_port(port_file)
            status = wait_status(self.port, lambda document: document.get("healthy_workers") == 1)
            self.worker_pid = int(status["workers"][0]["pid"])
            remine(self.port)
        except BaseException:
            self.child.stop()
            raise
        self.setup_s = clock() - started

    def peak_rss_mb(self) -> float:
        """Router plus worker: the processes that serve."""
        return vm_hwm_mb(self.child.pid) + vm_hwm_mb(self.worker_pid)

    def stop(self) -> None:
        self.child.stop()


def remine(port: int) -> Dict:
    status, body = fresh_request(port, "POST", "/v1/query", {"query": inputs.REMINE_STATEMENT})
    document = json.loads(body)
    if status != 200 or document.get("state") != "done":
        raise BenchFailure(f"re-mine answered {status}: state={document.get('state')} error={document.get('error')}")
    if document.get("cached") is not False:
        raise BenchFailure("re-mine after an append was served from the cache")
    return document["result"]


def append(port: int, seed: int, number: int) -> int:
    rows = inputs.append_batch(seed, number)
    payload = {"transactions": rows, "idempotency_key": f"perfbench-{seed}-{number}"}
    status, body = fresh_request(port, "POST", "/v1/transactions", payload)
    document = json.loads(body)
    if status != 200 or document.get("applied") is not True or document.get("appended") != len(rows):
        raise BenchFailure(f"append {number} answered {status}: {document}")
    return int(document["appended"])


def _window(cluster: Cluster, seed: int, seconds: float) -> Dict[str, object]:
    appends: List[float] = []
    remines: List[float] = []
    cycles: List[float] = []
    acknowledged = 0
    number = 0
    last = None
    started = clock()
    while clock() - started < seconds:
        cycle_started = clock()
        acknowledged += append(cluster.port, seed, number)
        appended = clock()
        last = remine(cluster.port)
        ended = clock()
        appends.append(appended - cycle_started)
        remines.append(ended - appended)
        cycles.append(ended - cycle_started)
        number += 1
    ended = clock()
    return {
        "started": started,
        "ended": ended,
        "appends": appends,
        "remines": remines,
        "cycles": cycles,
        "acknowledged": acknowledged,
        "last_result": last,
    }


def _check_final(cluster: Cluster, base_rows: int, acknowledged: int, last_result: Dict) -> None:
    """Row count, and the last served re-mine against a from-scratch mine."""
    from repro.db.sqlite_store import SqliteStore
    from repro.service.serialize import payload_to_dict
    from repro.tml.executor import ExecutionEnvironment, TmlExecutor

    store = SqliteStore(str(cluster.database))
    try:
        rows = store.count_transactions()
        if rows != base_rows + acknowledged:
            raise BenchFailure(f"store holds {rows} rows, expected {base_rows} + {acknowledged} acknowledged")
        environment = ExecutionEnvironment(store=store)
        environment.set_incremental("off")
        execution = TmlExecutor(environment).execute(inputs.REMINE_STATEMENT)
        expected = payload_to_dict(execution.payload, environment.resolve("transactions").catalog)
        environment.close()
    finally:
        store.close()
    if canonical_json(expected) != canonical_json(last_result):
        raise BenchFailure("last served re-mine differs from a from-scratch TemporalMiner(incremental='off') mine")


def run(seed: int, seconds: float, trace: bool, report, run_dir: Path) -> Dict[str, object]:
    template = run_dir / "template.db"
    base_rows = build_store(seed, template)

    reps = 1 if trace else SETUP_REPS
    setups = []
    cluster = None
    for rep in range(reps):
        if cluster is not None:
            cluster.stop()
        cluster = Cluster(run_dir / f"untraced-{rep}", template)
        setups.append(cluster.setup_s)
    try:
        before = scrape(cluster.port)
        measured = _window(cluster, seed, seconds)
        after = scrape(cluster.port)
        rss_mb = cluster.peak_rss_mb()
    finally:
        cluster.stop()
    _check_final(cluster, base_rows, measured["acknowledged"], measured["last_result"])

    delta = scrape_delta(before, after)
    cache_hits = sum(value for key, value in delta.items() if key.startswith("repro_cache_events_total") and 'event="hit"' in key)
    if cache_hits:
        raise BenchFailure(f"scrape shows {cache_hits} cache hits on append_mine")
    cycles = measured["cycles"]
    report.line("workload", f"append_mine: router + 1 worker, 1 client, fresh connection per request, store of {base_rows} rows")
    report.line("cycles", len(cycles))
    report.metric("append_p50_ms", median(measured["appends"]) * 1000.0, "ms")
    report.metric("append_p90_ms", percentile(measured["appends"], 90.0) * 1000.0, "ms")
    report.metric("remine_p50_ms", median(measured["remines"]) * 1000.0, "ms")
    report.metric("remine_p90_ms", percentile(measured["remines"], 90.0) * 1000.0, "ms")
    report.line("rows_acknowledged", measured["acknowledged"])
    report.line("scrape_delta", delta)
    result = {
        "attempted": len(cycles),
        "failed": 0,
        "metrics": {
            "setup_s": median(setups),
            "throughput_ops_s": len(cycles) / (measured["ended"] - measured["started"]),
            "peak_rss_mb": rss_mb,
            "latency_p50_ms": median(cycles) * 1000.0,
            "latency_p90_ms": percentile(cycles, 90.0) * 1000.0,
        },
    }
    if not trace:
        return result

    span_dir = run_dir / "spans"
    span_dir.mkdir()
    cluster = Cluster(run_dir / "traced", template, span_dir=span_dir)
    try:
        traced = _window(cluster, seed, seconds)
    finally:
        cluster.stop()
    _check_final(cluster, base_rows, traced["acknowledged"], traced["last_result"])
    spans = tracing.load_window(str(span_dir), traced["started"], traced["ended"])
    result["attempted"] = len(traced["cycles"])
    result["per_layer"] = per_layer = tracing.per_layer_metrics(
        spans, REQUIRED_WRAPPERS, traced["cycles"], cycles
    )
    if per_layer["service.cache.hit_ratio"] != 0.0:
        raise BenchFailure(f"append_mine cache hit ratio is {per_layer['service.cache.hit_ratio']}, must be 0")
    return result
