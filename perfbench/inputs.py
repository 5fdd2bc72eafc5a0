"""Seeded inputs for the three workloads.

Everything here is a pure function of ``--seed``: the datasets, the
statement mix, the request order and the appended batches.  The
program under test only ever sees the generated inputs.
"""

from __future__ import annotations

import random
from datetime import datetime, timedelta
from typing import Dict, Iterator, List, Sequence, Tuple

YEAR_START = datetime(2025, 1, 1)
YEAR_END = datetime(2026, 1, 1)

# ----------------------------------------------------------------------
# mine_cold: a ~40k-transaction year with ground truth
# ----------------------------------------------------------------------

MINE_COLD_TRANSACTIONS = 40000

#: Statement kind -> TML text, rotated in this order.
MINE_COLD_STATEMENTS: Tuple[Tuple[str, str], ...] = (
    (
        "periods",
        "MINE PERIODS FROM sales AT GRANULARITY month "
        "WITH SUPPORT >= 0.05, CONFIDENCE >= 0.6 HAVING COVERAGE >= 2;",
    ),
    (
        "periodicities",
        "MINE PERIODICITIES FROM sales AT GRANULARITY week "
        "WITH SUPPORT >= 0.08, CONFIDENCE >= 0.6 HAVING PERIOD <= 4;",
    ),
    (
        "rules_during",
        "MINE RULES FROM sales DURING CALENDAR 'month=7' OR CALENDAR 'month=12' "
        "WITH SUPPORT >= 0.05, CONFIDENCE >= 0.6;",
    ),
    (
        "itemsets",
        "MINE ITEMSETS FROM sales AT GRANULARITY month "
        "WITH SUPPORT >= 0.06 HAVING COVERAGE >= 2;",
    ),
    (
        "trends",
        "MINE TRENDS FROM sales AT GRANULARITY month WITH SUPPORT >= 0.06;",
    ),
)

#: Statement kind -> result lines (prefixes) the embedded ground truth
#: must produce.
MINE_COLD_EXPECTED: Dict[str, Tuple[str, ...]] = {
    "periods": (
        "{summer_a} => {summer_b}  DURING  2025-06..2025-08 ",
        "{winter_a} => {winter_b}  DURING  2025-11..2025-12 ",
    ),
    "periodicities": ("{cycle_a} => {cycle_b}  PERIODIC  every 3 weeks at phase 1 ",),
    "rules_during": ("{holiday_a} => {holiday_b}  WITHIN  calendar[(month=7 OR month=12)] ",),
    "itemsets": (
        "{summer_a, summer_b}  DURING  2025-06..2025-08 ",
        "{winter_a, winter_b}  DURING  2025-11..2025-12 ",
    ),
    "trends": ("{rising_a}  emerging ", "{falling_a}  declining "),
}


def mine_cold_spec(seed: int):
    """Quest background plus embedded seasonal, cyclic, calendar rules and trends."""
    from repro.datagen.quest import QuestConfig
    from repro.datagen.temporal import EmbeddedRule, EmbeddedTrend, TemporalDatasetSpec
    from repro.temporal.calendar_algebra import CalendarPattern
    from repro.temporal.granularity import Granularity
    from repro.temporal.interval import TimeInterval
    from repro.temporal.periodicity import CyclicPeriodicity

    return TemporalDatasetSpec(
        quest=QuestConfig(
            n_transactions=MINE_COLD_TRANSACTIONS,
            avg_transaction_size=6,
            avg_pattern_size=3,
            # A wide pattern pool: the counting work then follows the
            # embedded ground truth, not the few heavy patterns one seed
            # happens to draw, so seeds vary the sample but not its cost.
            n_items=2000,
            n_patterns=2000,
            seed=seed,
        ),
        start=YEAR_START,
        end=YEAR_END,
        embedded=(
            EmbeddedRule(("summer_a", "summer_b"), TimeInterval(datetime(2025, 6, 1), datetime(2025, 9, 1)), 0.5),
            EmbeddedRule(("winter_a", "winter_b"), TimeInterval(datetime(2025, 11, 1), YEAR_END), 0.5),
            EmbeddedRule(
                ("cycle_a", "cycle_b"),
                CyclicPeriodicity(period=3, offset=1, granularity=Granularity.WEEK),
                0.4,
            ),
            EmbeddedRule(("holiday_a", "holiday_b"), CalendarPattern(months=frozenset({7, 12})), 0.6),
        ),
        trends=(
            EmbeddedTrend(("rising_a",), 0.02, 0.4),
            EmbeddedTrend(("falling_a",), 0.4, 0.02),
        ),
        granularity=Granularity.WEEK,
        seed=seed,
    )


# ----------------------------------------------------------------------
# serve_warm: a store plus 48 canonical statements in Zipf order
# ----------------------------------------------------------------------

SERVE_WARM_TRANSACTIONS = 8000
SERVE_WARM_SUPPORTS = (0.12, 0.15, 0.18, 0.21, 0.24, 0.27, 0.30, 0.33)
SERVE_WARM_CONFIDENCES = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95)
ZIPF_EXPONENT = 1.1
VARIANT_SHARE = 0.5


def serve_warm_dataset(seed: int):
    from repro.datagen import seasonal_dataset

    return seasonal_dataset(
        n_transactions=SERVE_WARM_TRANSACTIONS, n_seasonal_rules=3, quest_seed=seed, seed=seed + 1
    )


def serve_warm_statements() -> List[str]:
    """48 distinct canonical statements over the served store."""
    return [
        "MINE PERIODS FROM transactions AT GRANULARITY month "
        f"WITH SUPPORT >= {support}, CONFIDENCE >= {confidence};"
        for support in SERVE_WARM_SUPPORTS
        for confidence in SERVE_WARM_CONFIDENCES
    ]


def text_variant(text: str, rng: random.Random) -> str:
    """The same statement with changed keyword case and whitespace."""
    words = text.split(" ")
    out = []
    for word in words:
        if word.isupper() and rng.random() < 0.5:
            word = word.lower() if rng.random() < 0.5 else word.capitalize()
        out.append(word)
    separators = [" ", "  ", "\n", " \t"]
    glued = out[0]
    for word in out[1:]:
        glued += rng.choice(separators) + word
    return glued


def serve_warm_requests(seed: int, client: int, statements: Sequence[str]) -> Iterator[Tuple[int, str]]:
    """Endless (statement index, raw text) pairs for one client."""
    order = list(range(len(statements)))
    random.Random(seed).shuffle(order)
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(order))]
    rng = random.Random(seed * 1009 + client)
    while True:
        index = order[rng.choices(range(len(order)), weights=weights)[0]]
        text = statements[index]
        if rng.random() < VARIANT_SHARE:
            text = text_variant(text, rng)
        yield index, text


# ----------------------------------------------------------------------
# append_mine: a 20k store, batches of 36 rows over 18 days
# ----------------------------------------------------------------------

APPEND_MINE_TRANSACTIONS = 20000
APPEND_N_ITEMS = 1000
APPEND_DAYS_PER_BATCH = 18
APPEND_ROWS_PER_DAY = 2
REMINE_STATEMENT = (
    "MINE PERIODS FROM transactions AT GRANULARITY day "
    "WITH SUPPORT >= 0.2, CONFIDENCE >= 0.6 HAVING COVERAGE >= 2, SIZE <= 3;"
)


def append_mine_dataset(seed: int):
    """A Quest year with a three-week promotion and a weekend rule."""
    from repro.datagen.quest import QuestConfig
    from repro.datagen.temporal import EmbeddedRule, TemporalDatasetSpec, generate_temporal_dataset
    from repro.temporal.calendar_algebra import CalendarPattern
    from repro.temporal.interval import TimeInterval

    spec = TemporalDatasetSpec(
        quest=QuestConfig(
            n_transactions=APPEND_MINE_TRANSACTIONS,
            avg_transaction_size=6,
            avg_pattern_size=3,
            n_items=APPEND_N_ITEMS,
            n_patterns=200,
            seed=seed,
        ),
        start=YEAR_START,
        end=YEAR_END,
        embedded=(
            EmbeddedRule(("promo_a", "promo_b"), TimeInterval(datetime(2025, 3, 10), datetime(2025, 3, 31)), 0.6),
            EmbeddedRule(("weekend_a", "weekend_b"), CalendarPattern(weekdays=frozenset({5, 6})), 0.5),
        ),
        seed=seed,
    )
    return generate_temporal_dataset(spec)


def append_batch(seed: int, number: int) -> List[Dict[str, object]]:
    """Batch ``number``: 2 rows on each of 18 distinct days of the year."""
    from repro.datagen.quest import item_label

    rng = random.Random(seed * 7919 + number)
    days = sorted(rng.sample(range((YEAR_END - YEAR_START).days), APPEND_DAYS_PER_BATCH))
    rows = []
    for day in days:
        for _ in range(APPEND_ROWS_PER_DAY):
            stamp = YEAR_START + timedelta(days=day, seconds=rng.randrange(86400))
            items = sorted(item_label(i) for i in rng.sample(range(APPEND_N_ITEMS), rng.randint(3, 8)))
            rows.append({"ts": stamp.isoformat(), "items": items})
    return rows
