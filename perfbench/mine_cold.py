"""``mine_cold`` — five TML statements through the in-process library.

One thread, closed loop.  An op is one round of the five statements
(the analyst's loop: periods, periodicities, rules during a calendar,
itemsets, trends); its latency is the sum of the five statement
latencies, and each statement kind's own median is reported besides.
Every statement gets a fresh
:class:`~repro.tml.executor.ExecutionEnvironment`, so encoding,
planning, candidate generation, counting, rule generation and
``payload_to_dict`` all run each time; one metrics registry is shared
by the whole run, as in a long-lived session, so planner calibration
behaves the way users see it.  HTTP, the scheduler, the result cache
and the journal are bypassed.
"""

from __future__ import annotations

import gc
import resource
from typing import Dict, List, Tuple

from perfbench import inputs, tracing
from perfbench.common import BenchFailure, canonical_json, clock, median, parse_exposition, percentile, scrape_delta

SETUP_REPS = 3

#: Registry families whose change over the window the run reports.
REGISTRY_FAMILIES = (
    "repro_planner_decisions_total",
    "repro_planner_actual_seconds_total",
    "repro_planner_estimated_seconds_total",
)

REQUIRED_WRAPPERS = (
    ("repro.tml.parser:parse_statement",),
    ("repro.tml.executor:TmlExecutor.execute_statement",),
    ("repro.columnar.encoded:EncodedDatabase.from_database",),
    ("repro.columnar.bitmaps:VerticalIndex.from_csr", "repro.columnar.bitmaps:VerticalIndex.from_baskets"),
    ("repro.columnar.backends:_HorizontalBackend.count_pass",),
    ("repro.columnar.backends:VerticalBackend.count_pass", "repro.columnar.backends:PackedBackend.count_pass"),
    ("repro.core.apriori:generate_candidates",),
    ("repro.mining.rulespace:candidate_rules",),
    ("repro.core.rulegen:generate_rules",),
    ("repro.core.counting:auto_strategy",),
    ("repro.mining.context:per_unit_frequent_itemsets",),
    ("repro.core.apriori:apriori",),
    ("repro.planner.planner:plan_query",),
    ("repro.planner.stats:stats_of_encoded",),
    ("repro.planner.stats:stats_of_database",),
    ("repro.mining.valid_periods:discover_valid_periods",),
    ("repro.mining.periodicities:discover_periodicities",),
    ("repro.mining.constrained:mine_with_feature",),
    ("repro.mining.itemset_periods:discover_itemset_periods",),
    ("repro.mining.trends:detect_trends",),
    ("repro.service.serialize:payload_to_dict",),
)


def _plan_label(payload) -> str:
    plan = getattr(payload, "plan", None)
    if not plan:
        return "off-planner"
    return f"{plan['backend']}/w{plan['workers']}"


class Session:
    """The library session a ``mine_cold`` run drives."""

    def __init__(self, database, registry):
        from repro.service import serialize
        from repro.tml import executor

        # Modules, not functions: names are looked up at call time, so a
        # traced window sees the wrappers installed after construction.
        self._serialize = serialize
        self._tml = executor
        self.database = database
        self.registry = registry

    def statement(self, text: str, engine: str = "auto") -> Tuple[float, bytes, str]:
        """Run one statement; returns (seconds, canonical result, plan)."""
        started = clock()
        environment = self._tml.ExecutionEnvironment(metrics=self.registry)
        environment.register("sales", self.database)
        executor = self._tml.TmlExecutor(environment)
        if engine != "auto":
            executor.execute(f"SET ENGINE {engine};")
        result = executor.execute(text)
        document = self._serialize.payload_to_dict(result.payload, self.database.catalog)
        elapsed = clock() - started
        environment.close()
        return elapsed, canonical_json(document), _plan_label(result.payload)


def _check_ground_truth(kind: str, document: bytes) -> None:
    import json

    lines = json.loads(document)["results"]
    for prefix in inputs.MINE_COLD_EXPECTED[kind]:
        if not any(line.startswith(prefix) for line in lines):
            raise BenchFailure(f"mine_cold {kind}: embedded ground truth not recovered: {prefix!r}")


def _window(session: Session, reference: Dict[str, bytes], seconds: float, traced: bool = False):
    """Whole rounds of the five statements until ``seconds`` pass (at
    least one); a traced window opens a root span per statement."""
    samples: Dict[str, List[float]] = {kind: [] for kind, _ in inputs.MINE_COLD_STATEMENTS}
    plans: Dict[str, List[str]] = {kind: [] for kind, _ in inputs.MINE_COLD_STATEMENTS}
    rounds: List[float] = []
    recorder = tracing.RECORDER
    started = clock()
    while True:
        round_seconds = 0.0
        for kind, text in inputs.MINE_COLD_STATEMENTS:
            span = recorder.open("bench:statement") if traced else None
            try:
                elapsed, document, plan = session.statement(text)
            except Exception as error:  # noqa: BLE001 — any failure fails the run
                raise BenchFailure(f"mine_cold {kind} failed: {type(error).__name__}: {error}") from error
            finally:
                if span is not None:
                    recorder.close(span)
            if document != reference[kind]:
                raise BenchFailure(f"mine_cold {kind}: result differs from the SET ENGINE dict reference")
            samples[kind].append(elapsed)
            plans[kind].append(plan)
            round_seconds += elapsed
        rounds.append(round_seconds)
        if clock() - started >= seconds:
            break
    window = clock() - started
    return {
        "window_s": window,
        "started": started,
        "ended": started + window,
        "samples": samples,
        "plans": plans,
        "latencies": rounds,
    }


def _plan_changes(plans: Dict[str, List[str]]) -> int:
    return sum(
        sum(1 for before, after in zip(sequence, sequence[1:]) if before != after)
        for sequence in plans.values()
    )


def run(seed: int, seconds: float, trace: bool, report) -> Dict[str, object]:
    from repro.datagen.temporal import generate_temporal_dataset
    from repro.obs.metrics import MetricsRegistry

    spec = inputs.mine_cold_spec(seed)
    setups = []
    dataset = None
    for _ in range(SETUP_REPS):
        dataset = None
        gc.collect()
        started = clock()
        dataset = generate_temporal_dataset(spec)
        setups.append(clock() - started)
    database = dataset.database

    # The reference: every statement once under SET ENGINE dict, on a
    # registry of its own so it leaves the session's calibration alone.
    reference_session = Session(database, MetricsRegistry())
    reference: Dict[str, bytes] = {}
    for kind, text in inputs.MINE_COLD_STATEMENTS:
        _, document, _ = reference_session.statement(text, engine="dict")
        _check_ground_truth(kind, document)
        reference[kind] = document

    registry = MetricsRegistry()
    session = Session(database, registry)
    # One checked warm-up round: imports, numpy and lazy set-up.
    _window(session, reference, 0.0)
    before = parse_exposition(registry.render_prometheus())
    measured = _window(session, reference, seconds)
    after = parse_exposition(registry.render_prometheus())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    samples = measured["samples"]
    report.line("workload", "mine_cold: in-process library, 1 thread, closed loop, op = one round of 5 statements, |D| = %d" % len(database))
    for kind, _ in inputs.MINE_COLD_STATEMENTS:
        report.metric(f"stmt_{kind}_ms", median(samples[kind]) * 1000.0, "ms", f"median of {len(samples[kind])}")
    report.line("plans", {kind: sorted(set(plans)) for kind, plans in measured["plans"].items()})
    report.line("plan_changes", _plan_changes(measured["plans"]))
    report.line("registry_delta", scrape_delta(before, after, REGISTRY_FAMILIES) or "(none)")

    latencies = measured["latencies"]
    result = {
        "attempted": len(latencies),
        "failed": 0,
        "metrics": {
            "setup_s": median(setups),
            "throughput_ops_s": len(latencies) / measured["window_s"],
            "peak_rss_mb": rss_mb,
            "latency_p50_ms": median(latencies) * 1000.0,
            "latency_p90_ms": percentile(latencies, 90.0) * 1000.0,
        },
    }
    if not trace:
        return result

    tracing.install()
    traced = _window(session, reference, seconds, traced=True)
    spans = tracing.SpanSet(tracing.RECORDER.to_rows(), traced["started"], traced["ended"])
    result["attempted"] = len(traced["latencies"])
    result["per_layer"] = tracing.per_layer_metrics(
        spans,
        REQUIRED_WRAPPERS,
        traced["latencies"],
        latencies,
        plan_changes=_plan_changes(traced["plans"]),
    )
    return result
