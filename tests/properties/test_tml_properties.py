"""Property-based tests: every generated TML statement round-trips, and
fuzzed text either parses to a statement that round-trips or raises the
TML syntax error."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TmlLexError, TmlParseError
from repro.temporal import Granularity
from repro.tml.ast import (
    CalendarFeature,
    CyclicFeature,
    ExplainStatement,
    MineItemsetsStatement,
    MineTrendsStatement,
    ProfileStatement,
    MinePeriodicitiesStatement,
    MinePeriodsStatement,
    MineRulesStatement,
    NamedCalendarFeature,
    PeriodFeature,
    ShowStatement,
)
from repro.tml.canonical import canonicalize_statement
from repro.tml.parser import parse_script, parse_statement
from repro.tml.tokens import KEYWORDS

granularities = st.sampled_from(list(Granularity))
sources = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,10}", fullmatch=True).filter(
    # identifiers must not collide with TML keywords
    lambda s: s.upper() not in __import__("repro.tml.tokens", fromlist=["KEYWORDS"]).KEYWORDS
)
fractions = st.sampled_from([0.05, 0.1, 0.25, 0.333, 0.5, 0.75, 0.9, 1.0])
small_ints = st.integers(min_value=1, max_value=50)
sizes = st.integers(min_value=0, max_value=5)

pattern_texts = st.sampled_from(
    ["month=12", "weekday=5|6", "day=1..7", "month=6|7|8 day=1|15", "year=2025"]
)

period_features = st.tuples(
    st.sampled_from(["2025-01-01", "2025-06-01T12:30:00"]),
    st.sampled_from(["2025-09-01", "2026-01-01T00:00:00"]),
).map(lambda t: PeriodFeature(*t))

calendar_features = pattern_texts.map(CalendarFeature)
named_features = st.sampled_from(["weekends", "december", "summer"]).map(
    NamedCalendarFeature
)
cyclic_features = st.builds(
    CyclicFeature,
    period=st.integers(min_value=1, max_value=30),
    granularity=granularities,
    offset=st.integers(min_value=0, max_value=29),
)

calendar_like = st.one_of(calendar_features, named_features)
calendar_combos = st.builds(
    __import__("repro.tml.ast", fromlist=["CalendarComboFeature"]).CalendarComboFeature,
    op=st.sampled_from(["AND", "OR", "MINUS"]),
    left=calendar_like,
    right=calendar_like,
)

features = st.one_of(
    period_features, calendar_features, named_features, cyclic_features,
    calendar_combos,
)

item_labels = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)

mine_rules_statements = st.builds(
    MineRulesStatement,
    source=sources,
    feature=features,
    min_support=fractions,
    min_confidence=fractions,
    granularity=st.none() | granularities,
    containing=st.lists(item_labels, max_size=3).map(tuple),
    max_size=sizes,
    max_consequent=sizes,
)

mine_periods_statements = st.builds(
    MinePeriodsStatement,
    source=sources,
    granularity=granularities,
    min_support=fractions,
    min_confidence=fractions,
    min_frequency=fractions,
    min_coverage=small_ints,
    max_size=sizes,
    max_consequent=sizes,
)

mine_periodicities_statements = st.builds(
    MinePeriodicitiesStatement,
    source=sources,
    granularity=granularities,
    min_support=fractions,
    min_confidence=fractions,
    max_period=small_ints,
    min_match=fractions,
    min_repetitions=small_ints,
    calendars=st.lists(pattern_texts, max_size=3).map(tuple),
    interleaved=st.booleans(),
    max_size=sizes,
    max_consequent=sizes,
)

mine_itemsets_statements = st.builds(
    MineItemsetsStatement,
    source=sources,
    granularity=granularities,
    min_support=fractions,
    min_frequency=fractions,
    min_coverage=small_ints,
    max_size=sizes,
)

mine_trends_statements = st.builds(
    MineTrendsStatement,
    source=sources,
    granularity=granularities,
    min_support=fractions,
    min_change=fractions,
    min_fit=fractions,
    max_size=sizes,
)

profile_statements = st.builds(
    ProfileStatement,
    labels=st.lists(item_labels, min_size=1, max_size=3).map(tuple),
    source=sources,
    granularity=granularities,
)

show_statements = st.one_of(
    st.just(ShowStatement(what="summary")),
    st.builds(ShowStatement, what=st.just("items"), limit=st.none() | small_ints),
    st.builds(ShowStatement, what=st.just("volume"), granularity=granularities),
)

mine_statements = st.one_of(
    mine_rules_statements, mine_periods_statements, mine_periodicities_statements
)
explain_statements = mine_statements.map(lambda s: ExplainStatement(inner=s))

statements = st.one_of(
    mine_statements,
    mine_itemsets_statements,
    mine_trends_statements,
    explain_statements,
    profile_statements,
    show_statements,
)


@given(statements)
@settings(max_examples=200, deadline=None)
def test_render_parse_roundtrip(statement):
    assert parse_statement(statement.render()) == statement


@given(st.lists(statements, min_size=1, max_size=5))
@settings(max_examples=50, deadline=None)
def test_script_roundtrip(script_statements):
    script = "\n".join(s.render() for s in script_statements)
    assert parse_script(script) == script_statements


# ----------------------------------------------------------------------
# fuzzing: arbitrary text and TML token soup
# ----------------------------------------------------------------------

soup_tokens = st.one_of(
    st.sampled_from(KEYWORDS),
    st.sampled_from(KEYWORDS).map(str.lower),
    st.sampled_from(
        [";", ",", "(", ")", ">=", "<=", "=", "<", ">", "'", "''", "--", "\n",
         "0.5", "-1", "1e9", "2025-01-01", "'month=12'", "'it''s'", "month",
         "day", "week", "transactions", "weekends", "|", ".."]
    ),
    item_labels,
    st.text(max_size=3),
)
token_soup = st.lists(soup_tokens, max_size=24).flatmap(
    lambda tokens: st.lists(
        st.sampled_from([" ", "  ", "\t", "\n", "", ";", " ; "]),
        min_size=len(tokens),
        max_size=len(tokens),
    ).map(lambda gaps: "".join(t + g for t, g in zip(tokens, gaps)))
)
mutated_statements = st.tuples(
    statements.map(lambda s: s.render()),
    st.integers(min_value=0, max_value=400),
    soup_tokens,
).map(lambda t: t[0][: t[1]] + " " + t[2] + " " + t[0][t[1]:])

#: Statements end in any mix of terminators and whitespace.
terminator_tails = st.lists(st.sampled_from(" ;\t\n"), max_size=5).map("".join)

fuzzed_text = st.tuples(
    st.one_of(st.text(), token_soup, mutated_statements), terminator_tails
).map("".join)


@given(fuzzed_text)
@settings(max_examples=400, deadline=None)
def test_fuzzed_text_parses_or_raises_syntax_error(text):
    try:
        statement = parse_statement(text)
    except (TmlLexError, TmlParseError):
        return
    canonical = canonicalize_statement(statement)
    assert canonicalize_statement(parse_statement(statement.render())) == canonical
