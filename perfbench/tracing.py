"""Span recording for the traced benchmark run, entirely from outside.

The program under test is not edited: this module wraps the public
functions and methods of each layer after they are imported, records
one span per call in memory, and turns the spans into per-layer metrics
when the run ends.

* A *span* is ``[key, start, end, parent, thread, attrs]``: ``key`` is
  the wrapper id (:data:`NAME_OF` maps it to the layer's span name) and
  ``parent`` the enclosing span on the same thread, so a layer's self
  time is its duration minus the time its child spans cover.
* A *probe* records a zero-length event instead of a span: it counts
  calls (and carries attributes) without changing any self time.
* Module-level functions are replaced in their defining module *and* in
  every loaded module that bound them by name (``from x import f``
  binds at import time); methods are replaced on their class.

Timestamps come from :func:`time.perf_counter`, which is
``CLOCK_MONOTONIC`` on Linux and therefore comparable across the
benchmark, the service and the cluster processes on one host.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from perfbench.common import SPAN_DIR_ENV, BenchFailure

_clock = time.perf_counter


class Recorder:
    """In-memory span list plus a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        # job token id -> job id, so a scheduler worker thread's spans
        # can be paired with the HTTP thread that submitted the job.
        self.token_jobs: Dict[int, str] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, key: str) -> list:
        stack = self._stack()
        span = [key, 0.0, 0.0, stack[-1] if stack else None, threading.get_ident(), None]
        self.spans.append(span)
        stack.append(span)
        span[1] = _clock()
        return span

    def close(self, span: list) -> None:
        span[2] = _clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def event(self, key: str, attrs: Optional[dict]) -> None:
        stack = self._stack()
        now = _clock()
        self.spans.append(
            [key, now, now, stack[-1] if stack else None, threading.get_ident(), attrs]
        )

    def to_rows(self) -> List[list]:
        """Spans with parents replaced by list indices (JSON-ready)."""
        index = {id(span): position for position, span in enumerate(self.spans)}
        return [
            [key, start, end, index.get(id(parent)) if parent is not None else None, tid, attrs]
            for key, start, end, parent, tid, attrs in list(self.spans)
        ]


RECORDER = Recorder()


# ----------------------------------------------------------------------
# attribute hooks: (args, kwargs, result) -> attrs dict
# ----------------------------------------------------------------------


def _n_candidates(args, kwargs, result):
    return {"n": len(args[1])}


def _n_result(args, kwargs, result):
    return {"n": len(result)}


def _n_frequent_per_unit(args, kwargs, result):
    return {"n": sum(1 for itemset in result.counts if len(itemset) >= 2)}


def _n_frequent(args, kwargs, result):
    return {"n": sum(1 for itemset in result if len(itemset) >= 2)}


def _cache_hit(args, kwargs, result):
    return {"hit": result is not None}


def _submitted(args, kwargs, result):
    RECORDER.token_jobs[id(result.token)] = result.job_id
    return {"job": result.job_id}


def _executed(args, kwargs, result):
    token = args[2] if len(args) > 2 else kwargs.get("token")
    return {"job": RECORDER.token_jobs.get(id(token))}


def _waited(args, kwargs, result):
    return {"job": args[0].job_id}


def _dirty_fraction(args, kwargs, result):
    """Distinct days an appended batch touches / days the dataset spans."""
    environment = args[0]
    batch = list(args[1]) if len(args) > 1 else list(kwargs.get("transactions", ()))
    days = {entry[0].date() for entry in batch}
    database = environment.datasets.get("transactions")
    if database is None or not len(database) or not days:
        return {"fraction": None}
    start, end = database.time_span()
    span_days = (end.date() - start.date()).days + 1
    return {"fraction": len(days) / span_days}


# ----------------------------------------------------------------------
# the wrapper table
# ----------------------------------------------------------------------

#: (wrapper id "module:qualname", span name, kind, attrs hook).
#: ``kind`` is ``"span"`` (timed, nests) or ``"probe"`` (counted event).
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    # tml
    ("repro.tml.parser:parse_statement", "tml.parse", "span", None),
    ("repro.tml.canonical:canonicalize_statement", "tml.canonicalize", "span", None),
    ("repro.tml.executor:TmlExecutor.execute_statement", "tml.execute", "span", None),
    # columnar
    ("repro.columnar.encoded:EncodedDatabase.from_database", "columnar.encode", "span", None),
    ("repro.columnar.bitmaps:VerticalIndex.from_csr", "columnar.bitmap_build", "span", None),
    ("repro.columnar.bitmaps:VerticalIndex.from_baskets", "columnar.bitmap_build", "span", None),
    ("repro.columnar.backends:_HorizontalBackend.count_pass", "columnar.count", "span", _n_candidates),
    ("repro.columnar.backends:VerticalBackend.count_pass", "columnar.count", "span", _n_candidates),
    ("repro.columnar.backends:PackedBackend.count_pass", "columnar.count", "span", _n_candidates),
    # core
    ("repro.core.apriori:generate_candidates", "core.candidate_gen", "span", _n_result),
    ("repro.mining.rulespace:candidate_rules", "core.rulegen", "span", _n_result),
    ("repro.core.rulegen:generate_rules", "core.rulegen", "span", _n_result),
    ("repro.core.counting:auto_strategy", "core.auto_strategy", "probe", None),
    ("repro.mining.context:per_unit_frequent_itemsets", "core.frequent", "probe", _n_frequent_per_unit),
    ("repro.core.apriori:apriori", "core.frequent", "probe", _n_frequent),
    # planner
    ("repro.planner.planner:plan_query", "planner.plan", "span", None),
    ("repro.planner.stats:stats_of_encoded", "planner.stats", "span", None),
    ("repro.planner.stats:stats_of_database", "planner.stats", "span", None),
    # mining, one span name per statement kind
    ("repro.mining.valid_periods:discover_valid_periods", "mining.periods", "span", None),
    ("repro.mining.periodicities:discover_periodicities", "mining.periodicities", "span", None),
    ("repro.mining.constrained:mine_with_feature", "mining.rules_during", "span", None),
    ("repro.mining.itemset_periods:discover_itemset_periods", "mining.itemsets", "span", None),
    ("repro.mining.trends:detect_trends", "mining.trends", "span", None),
    # service
    ("repro.service.serialize:payload_to_dict", "service.serialize", "span", None),
    ("repro.service.http:MiningRequestHandler.do_POST", "service.http.handler", "span", None),
    ("repro.service.scheduler:JobScheduler.submit", "service.scheduler.submit", "span", _submitted),
    ("repro.service.scheduler:Job.wait", "service.scheduler.job_wait", "span", _waited),
    ("repro.service.core:MiningService._execute_job", "service.execute_job", "span", _executed),
    ("repro.service.cache:ResultCache.get", "service.cache.lookup", "span", _cache_hit),
    ("repro.service.cache:ResultCache.note_append", "service.cache.note_append", "probe", None),
    ("repro.service.durability.journal:JobJournal.record_admitted", "service.journal", "span", None),
    ("repro.service.durability.journal:JobJournal.record_running", "service.journal", "span", None),
    ("repro.service.durability.journal:JobJournal.record_finished", "service.journal", "span", None),
    ("repro.service.durability.journal:JobJournal.record_append_intent", "service.journal", "span", None),
    ("repro.service.durability.journal:JobJournal.record_append_applied", "service.journal", "span", None),
    # db
    ("repro.db.sqlite_store:SqliteStore.append_batch", "db.append_batch", "span", None),
    ("repro.db.sqlite_store:SqliteStore.fingerprint", "db.fingerprint", "span", None),
    # incremental maintenance as the service drives it
    ("repro.tml.executor:ExecutionEnvironment.apply_store_append", "incremental.fold", "span", _dirty_fraction),
    ("repro.tml.executor:ExecutionEnvironment.note_store_mutation", "incremental.full_reload", "probe", None),
    ("repro.mining.engine:TemporalMiner.invalidate", "incremental.invalidate", "probe", None),
    # cluster router
    ("repro.cluster.router:RouterRequestHandler.do_POST", "cluster.route", "span", None),
    ("repro.cluster.router:ClusterRouter.proxy", "cluster.proxy", "span", None),
    ("repro.cluster.router:ClusterRouter.fan_out_invalidation", "cluster.fanout", "span", None),
)

_INSTALLED: set = set()


def _make_wrapper(function, wrapper_id: str, kind: str, hook):
    recorder = RECORDER

    if kind == "probe":

        @functools.wraps(function)
        def probe(*args, **kwargs):
            result = function(*args, **kwargs)
            recorder.event(wrapper_id, hook(args, kwargs, result) if hook else None)
            return result

        return probe

    @functools.wraps(function)
    def span(*args, **kwargs):
        record = recorder.open(wrapper_id)
        try:
            result = function(*args, **kwargs)
        finally:
            recorder.close(record)
        if hook is not None:
            record[5] = hook(args, kwargs, result)
        return result

    return span


def install() -> None:
    """Wrap every target (once per process).

    A target that no longer exists raises, so a renamed function fails
    the traced run loudly instead of reporting a silent zero.
    """
    rebinds: Dict[int, object] = {}
    for wrapper_id, _, kind, hook in TARGETS:
        if wrapper_id in _INSTALLED:
            continue
        module_name, qualname = wrapper_id.split(":")
        module = importlib.import_module(module_name)
        if "." in qualname:
            class_name, attribute = qualname.split(".")
            owner = getattr(module, class_name)
            raw = owner.__dict__[attribute]
            if isinstance(raw, classmethod):
                replacement = classmethod(
                    _make_wrapper(raw.__func__, wrapper_id, kind, hook)
                )
            else:
                replacement = _make_wrapper(raw, wrapper_id, kind, hook)
            setattr(owner, attribute, replacement)
        else:
            original = getattr(module, qualname)
            rebinds[id(original)] = _make_wrapper(original, wrapper_id, kind, hook)
        _INSTALLED.add(wrapper_id)
    if rebinds:
        # Every module that bound a wrapped function by name at import
        # time gets the wrapper too.
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                replacement = rebinds.get(id(value))
                if replacement is not None:
                    namespace[key] = replacement


# ----------------------------------------------------------------------
# child processes: dump at exit
# ----------------------------------------------------------------------

def install_in_child() -> None:
    """Wrap everything and dump spans to ``$PERFBENCH_SPAN_DIR`` at exit."""
    directory = os.environ.get(SPAN_DIR_ENV)
    if not directory:
        return
    install()

    def dump() -> None:
        document = {
            "pid": os.getpid(),
            "argv": list(sys.argv),
            "spans": RECORDER.to_rows(),
        }
        path = os.path.join(directory, f"spans-{os.getpid()}.json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        os.replace(tmp, path)

    import atexit

    atexit.register(dump)


def load_window(directory: str, start: float, end: float) -> "SpanSet":
    """The spans every child dumped into ``directory``, inside the window."""
    spans = SpanSet()
    for name in sorted(os.listdir(directory)):
        if name.startswith("spans-") and name.endswith(".json"):
            with open(os.path.join(directory, name), encoding="utf-8") as handle:
                spans.extend(SpanSet(json.load(handle)["spans"], start, end))
    return spans


# ----------------------------------------------------------------------
# spans -> per-layer metrics
# ----------------------------------------------------------------------


#: wrapper id -> span name (the benchmark's own spans use their name).
NAME_OF: Dict[str, str] = {wrapper_id: name for wrapper_id, name, _, _ in TARGETS}


class SpanSet:
    """Spans of one window: names, durations, self times, attributes.

    ``items`` holds ``(name, duration, self_time, attrs, start, end)``;
    ``fired`` counts, per wrapper id, the calls seen inside the window.
    """

    def __init__(self, rows: Sequence[list] = (), start: float = 0.0, end: float = 0.0):
        child_time = [0.0] * len(rows)
        for row in rows:
            parent = row[3]
            if parent is not None:
                child_time[parent] += row[2] - row[1]
        self.items = []
        self.fired: Dict[str, int] = {}
        for i, row in enumerate(rows):
            if not start <= row[1] <= end:
                continue
            key = row[0]
            self.fired[key] = self.fired.get(key, 0) + 1
            duration = row[2] - row[1]
            self.items.append(
                (NAME_OF.get(key, key), duration, duration - child_time[i], row[5] or {}, row[1], row[2])
            )

    def extend(self, other: "SpanSet") -> None:
        self.items.extend(other.items)
        for key, count in other.fired.items():
            self.fired[key] = self.fired.get(key, 0) + count

    def named(self, name: str):
        return [item for item in self.items if item[0] == name]

    def total(self, name: str) -> float:
        return sum(item[1] for item in self.named(name))

    def self_total(self, name: str) -> float:
        return sum(item[2] for item in self.named(name))

    def count(self, name: str) -> int:
        return len(self.named(name))

    def attr_sum(self, name: str, key: str) -> float:
        return sum(float(item[3].get(key) or 0) for item in self.named(name))


MINING_KINDS = ("periods", "periodicities", "rules_during", "itemsets", "trends")

#: Every per-layer metric the traced run reports: (name, unit).
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("tml.parse_ms", "ms"),
    ("tml.parse_calls_per_op", "count"),
    ("tml.canonicalize_ms", "ms"),
    ("tml.execute_self_ms", "ms"),
    ("columnar.encode_ms", "ms"),
    ("columnar.bitmap_build_ms", "ms"),
    ("columnar.count_ms", "ms"),
    ("columnar.count_calls", "count"),
    ("columnar.candidates_counted", "count"),
    ("core.candidate_gen_ms", "ms"),
    ("core.candidates_generated", "count"),
    ("core.frequent_per_candidate", "ratio"),
    ("core.rulegen_ms", "ms"),
    ("core.rules_generated", "count"),
    ("core.auto_strategy_calls", "count"),
    ("planner.plan_ms", "ms"),
    ("planner.stats_ms", "ms"),
    ("planner.plan_changes", "count"),
    ("mining.self_ms", "ms"),
) + tuple((f"mining.{kind}.self_ms", "ms") for kind in MINING_KINDS) + (
    ("service.http.handler_ms", "ms"),
    ("service.http.wire_ms", "ms"),
    ("service.response_kb", "kB"),
    ("service.scheduler.wait_ms", "ms"),
    ("service.scheduler.handoff_ms", "ms"),
    ("service.cache.lookup_ms", "ms"),
    ("service.cache.hit_ratio", "ratio"),
    ("service.serialize_ms", "ms"),
    ("service.journal.ms_per_op", "ms"),
    ("service.journal.writes_per_op", "count"),
    ("db.append_batch_ms", "ms"),
    ("db.fingerprint_ms", "ms"),
    ("incremental.fold_ms", "ms"),
    ("incremental.dirty_fraction", "ratio"),
    ("incremental.delta_refreshes", "count"),
    ("incremental.full_fallbacks", "count"),
    ("cluster.route_ms", "ms"),
    ("cluster.fanout_ms", "ms"),
    ("trace.overhead_ms_per_op", "ms"),
    ("trace.overhead_pct", "%"),
)


def _scheduler_intervals(spans: SpanSet) -> Tuple[float, float]:
    """Queue wait and handoff totals, paired per job across threads.

    wait    = worker execute start - HTTP-thread submit end
    handoff = HTTP-thread Job.wait end - worker execute end
    """
    submit_end: Dict[str, float] = {}
    execute: Dict[str, Tuple[float, float]] = {}
    wait_end: Dict[str, float] = {}
    for name, _, _, attrs, start, end in spans.items:
        job = attrs.get("job")
        if job is None:
            continue
        if name == "service.scheduler.submit":
            submit_end[job] = end
        elif name == "service.execute_job":
            execute[job] = (start, end)
        elif name == "service.scheduler.job_wait":
            wait_end[job] = end
    wait_total = handoff_total = 0.0
    for job, (start, end) in execute.items():
        if job in submit_end and job in wait_end:
            wait_total += max(0.0, start - submit_end[job])
            handoff_total += max(0.0, wait_end[job] - end)
    return wait_total, handoff_total


def per_layer_metrics(
    spans: SpanSet,
    required: Sequence[Tuple[str, ...]],
    traced_latencies: Sequence[float],
    untraced_latencies: Sequence[float],
    response_kb: float = 0.0,
    plan_changes: int = 0,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric (times and counts per op), plus
    ``trace.spans_per_op`` and ``trace.wrappers_fired`` for the report.

    Raises when a ``required`` group has no wrapper that fired in the
    window.  Latencies are per op, in seconds, from the traced and the
    untraced window; their means give the tracing overhead, and the
    traced mean minus the service's handler time gives the wire time.
    """
    missing = [" | ".join(group) for group in required if not any(spans.fired.get(w) for w in group)]
    if missing:
        raise BenchFailure(f"declared wrappers never fired in the traced window: {missing}")
    ops = max(len(traced_latencies), 1)
    traced_ms = sum(traced_latencies) * 1000.0 / ops
    untraced_ms = sum(untraced_latencies) * 1000.0 / max(len(untraced_latencies), 1)

    def ms(seconds: float) -> float:
        return seconds * 1000.0 / ops

    candidates = spans.attr_sum("core.candidate_gen", "n")
    frequent = spans.attr_sum("core.frequent", "n")
    lookups = spans.named("service.cache.lookup")
    hits = sum(1 for item in lookups if item[3].get("hit"))
    handler_ms = ms(spans.total("service.http.handler"))
    wait, handoff = _scheduler_intervals(spans)
    folds = spans.named("incremental.fold")
    fractions = [item[3]["fraction"] for item in folds if item[3].get("fraction") is not None]
    values = {
        "tml.parse_ms": ms(spans.total("tml.parse")),
        "tml.parse_calls_per_op": spans.count("tml.parse") / ops,
        "tml.canonicalize_ms": ms(spans.total("tml.canonicalize")),
        "tml.execute_self_ms": ms(spans.self_total("tml.execute")),
        "columnar.encode_ms": ms(spans.total("columnar.encode")),
        "columnar.bitmap_build_ms": ms(spans.total("columnar.bitmap_build")),
        "columnar.count_ms": ms(spans.self_total("columnar.count")),
        "columnar.count_calls": spans.count("columnar.count") / ops,
        "columnar.candidates_counted": spans.attr_sum("columnar.count", "n") / ops,
        "core.candidate_gen_ms": ms(spans.total("core.candidate_gen")),
        "core.candidates_generated": candidates / ops,
        "core.frequent_per_candidate": frequent / candidates if candidates else 0.0,
        "core.rulegen_ms": ms(spans.total("core.rulegen")),
        "core.rules_generated": spans.attr_sum("core.rulegen", "n") / ops,
        "core.auto_strategy_calls": spans.count("core.auto_strategy") / ops,
        "planner.plan_ms": ms(spans.self_total("planner.plan")),
        "planner.stats_ms": ms(spans.total("planner.stats")),
        "planner.plan_changes": float(plan_changes),
        "mining.self_ms": ms(sum(spans.self_total(f"mining.{kind}") for kind in MINING_KINDS)),
        "service.http.handler_ms": handler_ms,
        "service.http.wire_ms": max(0.0, traced_ms - handler_ms) if handler_ms else 0.0,
        "service.response_kb": response_kb,
        "service.scheduler.wait_ms": ms(wait),
        "service.scheduler.handoff_ms": ms(handoff),
        "service.cache.lookup_ms": ms(spans.total("service.cache.lookup")),
        "service.cache.hit_ratio": hits / len(lookups) if lookups else 0.0,
        "service.serialize_ms": ms(spans.total("service.serialize")),
        "service.journal.ms_per_op": ms(spans.total("service.journal")),
        "service.journal.writes_per_op": spans.count("service.journal") / ops,
        "db.append_batch_ms": ms(spans.total("db.append_batch")),
        "db.fingerprint_ms": ms(spans.total("db.fingerprint")),
        "incremental.fold_ms": ms(spans.total("incremental.fold")),
        "incremental.dirty_fraction": sum(fractions) / len(fractions) if fractions else 0.0,
        "incremental.delta_refreshes": len(folds) / ops,
        "incremental.full_fallbacks": (
            spans.count("incremental.invalidate") + spans.count("incremental.full_reload")
        ) / ops,
        "cluster.route_ms": ms(spans.self_total("cluster.route")),
        "cluster.fanout_ms": ms(spans.total("cluster.fanout")),
        "trace.overhead_ms_per_op": traced_ms - untraced_ms,
        "trace.overhead_pct": (traced_ms - untraced_ms) / untraced_ms * 100.0,
        "trace.spans_per_op": len(spans.items) / ops,
        "trace.wrappers_fired": float(sum(1 for key in spans.fired if key in NAME_OF)),
    }
    for kind in MINING_KINDS:
        runs = spans.count(f"mining.{kind}")
        values[f"mining.{kind}.self_ms"] = (
            spans.self_total(f"mining.{kind}") * 1000.0 / runs if runs else 0.0
        )
    return values

