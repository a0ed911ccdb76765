"""Event loading, validation, daily binning, and canonical serialization."""

from __future__ import annotations

import csv
import json
import logging
from datetime import date, datetime, timedelta, timezone
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talkdyn import (
    COMMENT,
    EDIT,
    CommentEvent,
    Diagnostics,
    EditEvent,
    IngestError,
    build_series,
    load_events,
)
from talkdyn import cli, ingest
from talkdyn.ingest import (
    event_json_line,
    format_timestamp,
    parse_timestamp,
    write_events_jsonl,
)

from conftest import build_series_oracle, load_events_oracle, parse_timestamp_oracle, utc


class TestParseTimestamp:
    def test_z_suffix(self):
        assert parse_timestamp("2006-05-10T13:45:08Z") == utc(2006, 5, 10, 13, 45, 8)

    def test_utc_offset_suffix(self):
        assert parse_timestamp("2006-05-10T13:45:08+00:00") == utc(2006, 5, 10, 13, 45, 8)

    @pytest.mark.parametrize(
        "text",
        [
            "2006-05-10 13:45:08Z",      # space, not T
            "2006-05-10T13:45:08",       # no zone
            "2006-05-10T13:45:08+01:00", # non-UTC zone
            "2006-13-10T13:45:08Z",      # month 13
            "2006-02-30T00:00:00Z",      # impossible day
            "garbage",
            "",
            "2006-05-10T13:45:08Z extra",
        ],
    )
    def test_malformed_is_none(self, text):
        assert parse_timestamp(text) is None

    def test_non_string_is_none(self):
        assert parse_timestamp(None) is None
        assert parse_timestamp(1234567890) is None

    def test_plausibility_window(self):
        # Before any wiki existed, or after "now": both implausible.
        assert parse_timestamp("2000-12-31T23:59:59Z") is None
        assert parse_timestamp("2001-01-01T00:00:00Z") == utc(2001, 1, 1)
        now = utc(2010, 1, 1)
        assert parse_timestamp("2010-01-02T00:00:00Z", now=now) is None
        assert parse_timestamp("2009-12-31T00:00:00Z", now=now) == utc(2009, 12, 31)

    @given(
        st.datetimes(
            min_value=datetime(2001, 1, 1), max_value=datetime(2020, 1, 1)
        )
    )
    def test_round_trip(self, naive):
        ts = naive.replace(microsecond=0, tzinfo=timezone.utc)
        assert parse_timestamp(format_timestamp(ts)) == ts


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


def comment_rec(**overrides):
    base = {
        "article": "A", "id": "c0", "parent": None, "depth": 0,
        "ts": "2006-05-10T13:45:08Z", "author": "Alice", "ord": 0,
    }
    base.update(overrides)
    return base


class TestLoadComments:
    def test_well_formed_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [comment_rec()])
        diag = Diagnostics()
        events = list(load_events(path, COMMENT, diagnostics=diag))
        assert events == [
            CommentEvent("A", "c0", None, 0, utc(2006, 5, 10, 13, 45, 8), "Alice", 0)
        ]
        assert diag.tallies["lines_read"] == 1
        assert diag.tallies["events_used"] == 1
        assert diag.tallies.get("lines_dropped", 0) == 0

    def test_malformed_timestamp_keeps_structure(self, tmp_path):
        # A bad date must not cost us the comment: the tree still needs it.
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [comment_rec(ts="10 May 2006")])
        diag = Diagnostics()
        events = list(load_events(path, COMMENT, diagnostics=diag))
        assert len(events) == 1
        assert events[0].timestamp is None
        assert diag.tallies["comment_ts_malformed"] == 1
        assert diag.tallies["comments_undated"] == 1
        assert diag.tallies["events_used"] == 1

    def test_null_timestamp_is_undated_but_not_malformed(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [comment_rec(ts=None)])
        diag = Diagnostics()
        events = list(load_events(path, COMMENT, diagnostics=diag))
        assert events[0].timestamp is None
        assert diag.tallies["comments_undated"] == 1
        assert diag.tallies.get("comment_ts_malformed", 0) == 0

    def test_depth_parent_consistency_enforced(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [
            comment_rec(id="bad1", depth=1, parent=None),
            comment_rec(id="bad2", depth=0, parent="c9"),
            comment_rec(id="ok", depth=0, parent=None),
        ])
        diag = Diagnostics()
        events = list(load_events(path, COMMENT, diagnostics=diag))
        assert [e.comment_id for e in events] == ["ok"]
        assert diag.tallies["depth_parent_mismatch"] == 2
        assert diag.tallies["lines_dropped"] == 2

    def test_bad_json_is_dropped_not_fatal(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"article": "A"\nnot json\n' + json.dumps(comment_rec()) + "\n")
        diag = Diagnostics()
        events = list(load_events(path, COMMENT, diagnostics=diag))
        assert len(events) == 1
        assert diag.tallies["bad_json"] == 2

    def test_totals_reconcile(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [
            comment_rec(),
            comment_rec(id="c1", ord=1, ts="bad ts"),
            comment_rec(id="", ord=2),            # dropped: empty id
            comment_rec(id="c3", ord=-1),         # dropped: negative ord
            {"article": 5, "id": "c4", "parent": None, "depth": 0,
             "ts": None, "author": None, "ord": 4},  # dropped: bad article
        ])
        diag = Diagnostics()
        events = list(load_events(path, COMMENT, diagnostics=diag))
        assert diag.tallies["lines_read"] == 5
        assert diag.tallies["events_used"] == len(events) == 2
        assert diag.tallies["lines_dropped"] == 3
        assert diag.tallies["events_used"] + diag.tallies["lines_dropped"] \
            == diag.tallies["lines_read"]

    def test_blank_lines_are_invisible(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("\n" + json.dumps(comment_rec()) + "\n\n\n")
        diag = Diagnostics()
        assert len(list(load_events(path, COMMENT, diagnostics=diag))) == 1
        assert diag.tallies["lines_read"] == 1


class TestLoadEdits:
    def test_well_formed(self, tmp_path):
        path = tmp_path / "e.jsonl"
        write_jsonl(path, [{"article": "A", "ts": "2006-05-10T00:00:00Z"}])
        events = list(load_events(path, EDIT))
        assert events == [EditEvent("A", utc(2006, 5, 10))]

    def test_undatable_edit_is_dropped(self, tmp_path):
        # An edit IS its timestamp; without one there is nothing to keep.
        path = tmp_path / "e.jsonl"
        write_jsonl(path, [
            {"article": "A", "ts": "yesterday"},
            {"article": "A", "ts": None},
            {"article": "A", "ts": "2006-05-10T00:00:00Z"},
        ])
        diag = Diagnostics()
        events = list(load_events(path, EDIT, diagnostics=diag))
        assert len(events) == 1
        assert diag.tallies["edit_ts_malformed"] == 2
        assert diag.tallies["lines_dropped"] == 2

    def test_csv_format(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("article,ts\nA,2006-05-10T00:00:00Z\nB,2006-06-01T12:00:00Z\n")
        events = list(load_events(path, EDIT, fmt="csv"))
        assert [e.article_id for e in events] == ["A", "B"]

    def test_csv_missing_column_is_fatal(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("article,when\nA,2006-05-10T00:00:00Z\n")
        with pytest.raises(IngestError):
            list(load_events(path, EDIT, fmt="csv"))

    def test_unknown_kind_and_format_raise(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text("")
        with pytest.raises(IngestError):
            list(load_events(path, "revision"))
        with pytest.raises(IngestError):
            list(load_events(path, EDIT, fmt="parquet"))

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(IngestError):
            list(load_events(tmp_path / "nope.jsonl", EDIT))


class TestBuildSeries:
    def test_dense_and_trimmed(self):
        events = [
            EditEvent("A", utc(2006, 5, 10, 8)),
            EditEvent("A", utc(2006, 5, 10, 21)),
            EditEvent("A", utc(2006, 5, 13)),
        ]
        series = build_series(events, EDIT)["A"]
        assert series.start_day == date(2006, 5, 10)
        assert series.end_day == date(2006, 5, 13)
        assert series.counts.tolist() == [2, 0, 0, 1]
        assert series.total == 3

    def test_undated_events_contribute_nothing(self):
        events = [
            CommentEvent("A", "c0", None, 0, None, None, 0),
            CommentEvent("A", "c1", None, 0, utc(2006, 5, 10), None, 1),
        ]
        series = build_series(events, COMMENT)["A"]
        assert series.total == 1

    def test_article_with_no_dated_events_is_absent(self):
        events = [CommentEvent("A", "c0", None, 0, None, None, 0)]
        assert build_series(events, COMMENT) == {}

    @given(
        offsets=st.lists(
            st.integers(min_value=0, max_value=400), min_size=1, max_size=300
        )
    )
    @settings(max_examples=100)
    def test_conservation(self, offsets):
        t0 = utc(2006, 1, 1)
        events = [EditEvent("A", t0 + timedelta(days=o, hours=o % 24)) for o in offsets]
        series = build_series(events, EDIT)["A"]
        assert series.total == len(offsets)
        assert series.counts[0] > 0
        assert series.counts[-1] > 0

    def test_order_insensitive(self):
        t0 = utc(2006, 1, 1)
        events = [EditEvent("A", t0 + timedelta(days=d)) for d in (5, 1, 3, 1, 5, 5)]
        fwd = build_series(events, EDIT)["A"]
        rev = build_series(list(reversed(events)), EDIT)["A"]
        assert fwd.start_day == rev.start_day
        assert fwd.counts.tolist() == rev.counts.tolist()


class TestCanonicalSerialization:
    def test_comment_line_shape(self):
        event = CommentEvent("A", "c0", None, 0, utc(2006, 5, 10, 13, 45, 8), "Alice", 0)
        assert event_json_line(event) == (
            '{"article":"A","id":"c0","parent":null,"depth":0,'
            '"ts":"2006-05-10T13:45:08Z","author":"Alice","ord":0}'
        )

    def test_edit_line_shape(self):
        assert event_json_line(EditEvent("A", utc(2006, 5, 10))) == (
            '{"article":"A","ts":"2006-05-10T00:00:00Z"}'
        )

    def test_write_load_write_is_identity(self, tmp_path):
        events = [
            CommentEvent("A", "c0", None, 0, utc(2006, 5, 10, 1, 2, 3), "Alice", 0),
            CommentEvent("A", "c1", "c0", 1, None, None, 1),
            CommentEvent("B", "c0", None, 0, utc(2007, 1, 1), "B b", 0),
        ]
        first = tmp_path / "one.jsonl"
        second = tmp_path / "two.jsonl"
        write_events_jsonl(first, events)
        reloaded = list(load_events(first, COMMENT))
        write_events_jsonl(second, reloaded)
        assert first.read_bytes() == second.read_bytes()
        assert reloaded == events


class TestDiagnostics:
    def test_message_cap(self, tmp_path):
        path = tmp_path / "e.jsonl"
        write_jsonl(path, [{"article": "A", "ts": "bad"}] * 500)
        diag = Diagnostics()
        list(load_events(path, EDIT, diagnostics=diag))
        assert diag.tallies["edit_ts_malformed"] == 500
        assert len(diag.messages) == 50

    def test_rows_are_sorted(self):
        diag = Diagnostics()
        diag.tally("zeta")
        diag.tally("alpha", 2)
        assert diag.rows() == [("alpha", 2), ("zeta", 1)]


# ---------------------------------------------------------------------------
# The chunked loader against the per-line oracle


ORACLE_NOW = utc(2030, 6, 1, 12)


def assert_loads_like_oracle(path, kind, fmt="jsonl", now=ORACLE_NOW):
    """load_events and the per-line oracle agree in events, tallies and messages."""
    got_diag, want_diag = Diagnostics(), Diagnostics()
    got = list(load_events(path, kind, fmt=fmt, diagnostics=got_diag, now=now))
    want = list(load_events_oracle(path, kind, fmt=fmt, diagnostics=want_diag, now=now))
    assert got == want
    assert [type(e.timestamp) for e in got] == [type(e.timestamp) for e in want]
    assert got_diag.rows() == want_diag.rows()
    assert got_diag.messages == want_diag.messages
    return got, got_diag


def digits(year, month, day, hour=0, minute=0, second=0, suffix="Z"):
    return f"{year:04d}-{month:02d}-{day:02d}T{hour:02d}:{minute:02d}:{second:02d}{suffix}"


canonical_ts = st.builds(
    digits,
    st.sampled_from([0, 1999, 2000, 2001, 2004, 2005, 2100, 2400, 2029, 2030, 2031, 9999]),
    st.integers(0, 13), st.integers(0, 32), st.integers(0, 25),
    st.integers(0, 61), st.integers(0, 61), st.sampled_from(["Z", "+00:00", "+01:00", "z"]),
)
odd_ts = st.sampled_from([
    "2010-+1-05T00:00:00Z", "2010- 1-05T00:00:00Z", "2010-1 -05T00:00:00Z",
    "2010-01-05T0 :00:00Z", "٢٠١٠-٠١-٠٥T00:00:00Z", "2010-01-0\ud800T00:00:00Z",
    "2010-01-05 00:00:00Z", "2010-01-05T00:00:00", "2010-01-05T00:00:00Z\x00",
    "2010-01-05T00:00:00+00:00 ", "", " ", "2010-01-05",
])
any_ts = st.one_of(
    canonical_ts, odd_ts, st.text(max_size=26), st.none(), st.integers(-5, 5),
    st.lists(st.integers(), max_size=2),
)
field_value = st.one_of(
    st.none(), st.sampled_from(["", "A", "B", "c0", "c1", "-1", "2", " 3"]),
    st.integers(-2, 3), st.booleans(), st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def comment_lines(draw):
    record = {
        "article": draw(st.one_of(st.sampled_from(["A", "B", "C"]), field_value)),
        "id": draw(st.one_of(st.sampled_from(["c0", "c1"]), field_value)),
        "parent": draw(field_value),
        "depth": draw(st.one_of(st.integers(0, 2), field_value)),
        "ts": draw(any_ts),
        "author": draw(field_value),
        "ord": draw(st.one_of(st.integers(0, 9), field_value)),
    }
    for key in draw(st.lists(st.sampled_from(sorted(record)), max_size=2)):
        record.pop(key, None)
    return json.dumps(record)


@st.composite
def edit_lines(draw):
    record = {"article": draw(st.one_of(st.sampled_from(["A", "B", "C"]), field_value)),
              "ts": draw(any_ts)}
    if draw(st.booleans()) and draw(st.booleans()):
        del record["ts"]
    return json.dumps(record)


junk_lines = st.sampled_from([
    "", "   ", "{", "[1, 2]", '"text"', "3", "null", '{"a":1},{"b":2}', '{"c":[{}', "{}]}",
    '{"article": "A"} trailing', "\t",
])


# Near-canonical lines: event_json_line's shape, then one change; most changes
# send the line off the fast path, "raw" and a few others keep it on.
NAMES = ["A", "é", "日本", "A\"B", "a\\b", "x y", "\x7f", "\u2028"]
DIGITS_4301 = "1" + "0" * 4300
utf8_ts = st.one_of(canonical_ts, odd_ts.filter(lambda t: "\ud800" not in t))


def _swap_first_keys(record):
    keys = list(record)
    keys[0], keys[1] = keys[1], keys[0]
    return {k: record[k] for k in keys}


# Each change turns (record, text) into the line written: most edit the text of
# the canonical dump, the rest the record before it is dumped.
LINE_CHANGES = {
    "raw": lambda r, t: t,
    "ascii_escapes": lambda r, t: json.dumps(r, separators=(",", ":")),
    "default_separators": lambda r, t: json.dumps(r, ensure_ascii=False),
    "leading_space": lambda r, t: " " + t,
    "trailing_cr": lambda r, t: t + "\r",
    "trailing_space": lambda r, t: t + " ",
    "duplicate_key": lambda r, t: t[:-1] + ',"article":"B"}',
    "swapped_keys": lambda r, t: json.dumps(_swap_first_keys(r), ensure_ascii=False,
                                            separators=(",", ":")),
    "extra_key": lambda r, t: t[:-1] + ',"x":1}',
    "raw_control": lambda r, t: t.replace('"article":"', '"article":"\x01', 1),
    "raw_tab": lambda r, t: t.replace('"article":"', '"article":"\t', 1),
    "bom": lambda r, t: "\ufeff" + t,
    "empty_ts": lambda r, t: t.replace(f'"ts":{json.dumps(r["ts"], ensure_ascii=False)}',
                                       '"ts":""', 1),
    "null_ts": lambda r, t: t.replace(f'"ts":{json.dumps(r["ts"], ensure_ascii=False)}',
                                      '"ts":null', 1),
}
INT_TEXT = ["-0", "1e0", "01", "00", "1.0", "true", "false", "null", '"1"', "1e999", "-1",
            "Infinity", "NaN", "٣", "1٣", "10000000000000000000", "999999999999999999",
            DIGITS_4301]


def _set_int(key, value, record, text):
    return text.replace(f'"{key}":{record[key]}', f'"{key}":{value}', 1)


COMMENT_CHANGES = {
    **LINE_CHANGES,
    "empty_parent": lambda r, t: t.replace('"parent":null', '"parent":""', 1),
    "empty_author": lambda r, t: t.replace('"author":null', '"author":""', 1),
    **{f"{key}={v[:20]}": partial(_set_int, key, v) for key in ("depth", "ord") for v in INT_TEXT},
}


@st.composite
def near_canonical_comment_lines(draw):
    record = {
        "article": draw(st.sampled_from(NAMES)),
        "id": draw(st.sampled_from(["c0", "c1", "é"])),
        "parent": draw(st.sampled_from([None, "c0", "é"])),
        "depth": draw(st.integers(0, 2)),
        "ts": draw(st.one_of(st.none(), utf8_ts)),
        "author": draw(st.sampled_from([None, "U1", "日本"])),
        "ord": draw(st.integers(0, 10**18 - 1)),
    }
    text = json.dumps(record, ensure_ascii=False, separators=(",", ":"))
    return COMMENT_CHANGES[draw(st.sampled_from(sorted(COMMENT_CHANGES)))](record, text)


@st.composite
def near_canonical_edit_lines(draw):
    record = {"article": draw(st.sampled_from(NAMES)),
              "ts": draw(utf8_ts)}
    text = json.dumps(record, ensure_ascii=False, separators=(",", ":"))
    return LINE_CHANGES[draw(st.sampled_from(sorted(LINE_CHANGES)))](record, text)


def write_lines(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("oracle") / "events.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestTimestampContract:
    @given(text=st.one_of(canonical_ts, odd_ts, st.text(max_size=26), st.none(), st.integers()),
           now=st.one_of(st.none(), st.datetimes(min_value=datetime(2000, 1, 1),
                                                 max_value=datetime(2040, 1, 1),
                                                 timezones=st.just(timezone.utc))))
    @settings(max_examples=500)
    def test_parse_timestamp_is_the_oracle_rule(self, text, now):
        assert parse_timestamp(text, now=now) == parse_timestamp_oracle(text, now)


class TestLoaderMatchesOracle:
    @given(lines=st.lists(st.one_of(comment_lines(), junk_lines), max_size=40),
           chunk=st.integers(1, 8))
    @settings(max_examples=150, deadline=None)
    def test_comments_property(self, tmp_path_factory, lines, chunk):
        path = write_lines(tmp_path_factory, lines)
        with mock.patch.object(ingest, "_CHUNK_LINES", chunk):
            assert_loads_like_oracle(path, COMMENT)

    @given(lines=st.lists(st.one_of(edit_lines(), junk_lines), max_size=40),
           chunk=st.integers(1, 8))
    @settings(max_examples=150, deadline=None)
    def test_edits_property(self, tmp_path_factory, lines, chunk):
        path = write_lines(tmp_path_factory, lines)
        with mock.patch.object(ingest, "_CHUNK_LINES", chunk):
            assert_loads_like_oracle(path, EDIT)

    @given(lines=st.lists(near_canonical_comment_lines(), max_size=30),
           chunk=st.integers(1, 8))
    @settings(max_examples=300, deadline=None)
    def test_near_canonical_comments_property(self, tmp_path_factory, lines, chunk):
        path = write_lines(tmp_path_factory, lines)
        with mock.patch.object(ingest, "_CHUNK_LINES", chunk):
            assert_loads_like_oracle(path, COMMENT)

    @given(lines=st.lists(near_canonical_edit_lines(), max_size=30),
           chunk=st.integers(1, 8))
    @settings(max_examples=200, deadline=None)
    def test_near_canonical_edits_property(self, tmp_path_factory, lines, chunk):
        path = write_lines(tmp_path_factory, lines)
        with mock.patch.object(ingest, "_CHUNK_LINES", chunk):
            assert_loads_like_oracle(path, EDIT)

    def test_escaped_and_raw_names_are_one_article(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text('{"article":"é","ts":"2010-01-01T00:00:00Z"}\n'
                        '{"article":"\\u00e9","ts":"2010-01-02T00:00:00Z"}\n', encoding="utf-8")
        events, _ = assert_loads_like_oracle(path, EDIT)
        assert [e.article_id for e in events] == ["é", "é"]
        series = ingest.load_columns(path, EDIT, now=ORACLE_NOW).series()
        assert list(series) == ["é"] and series["é"].counts.tolist() == [1, 1]

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("last", [False, True])
    def test_line_endings(self, tmp_path, ending, last):
        line = '{"article":"A","id":"c0","parent":null,"depth":0,"ts":null,"author":null,"ord":0}'
        path = tmp_path / "c.jsonl"
        path.write_bytes((line + ending + line + (ending if last else "")).encode())
        events, diag = assert_loads_like_oracle(path, COMMENT)
        assert len(events) == 2 and diag.tallies["lines_read"] == 2

    @pytest.mark.parametrize("fields, detail", [
        ('"parent":null,"depth":1', "depth=1 parent=None"),
        ('"parent":"c0","depth":0', "depth=0 parent='c0'"),
        ('"parent":"","depth":2', "depth=2 parent=None"),
    ])
    def test_depth_parent_mismatch_on_both_paths(self, tmp_path, fields, detail):
        canonical = '{"article":"A","id":"c1",' + fields + ',"ts":null,"author":null,"ord":1}'
        spaced = canonical.replace(",", ", ")
        path = tmp_path / "c.jsonl"
        path.write_text(canonical + "\n" + spaced + "\n", encoding="utf-8")
        _, diag = assert_loads_like_oracle(path, COMMENT)
        assert diag.messages == [f"{path}:{n}: depth_parent_mismatch: {detail}" for n in (1, 2)]

    @pytest.mark.parametrize("ts, dated", [
        ("2000-12-31T23:59:59Z", False),
        ("2001-01-01T00:00:00Z", True),
        ("2004-02-29T12:00:00Z", True),
        ("2004-02-30T12:00:00Z", False),
        ("2003-02-29T12:00:00Z", False),
        ("2000-02-29T12:00:00+00:00", False),
        ("2024-02-29T12:00:00+00:00", True),
        ("2010-12-31T24:00:00Z", False),
        ("2010-12-31T23:59:60Z", False),
        ("2010-12-31T23:60:00Z", False),
        ("2010-04-31T00:00:00Z", False),
        ("2010-+1-05T00:00:00Z", False),
        ("2010- 1-05T00:00:00Z", False),
        ("٢٠١٠-٠١-٠٥T00:00:00Z", False),
        ("2031-01-01T00:00:00Z", False),
        (12345, False),
    ])
    @pytest.mark.parametrize("kind", [COMMENT, EDIT])
    def test_named_timestamps(self, tmp_path, ts, dated, kind):
        path = tmp_path / "e.jsonl"
        if kind == COMMENT:
            write_jsonl(path, [comment_rec(ts=ts)])
        else:
            write_jsonl(path, [{"article": "A", "ts": ts}])
        events, diag = assert_loads_like_oracle(path, kind)
        assert diag.tallies["lines_read"] == 1
        if kind == COMMENT:
            assert len(events) == 1 and (events[0].timestamp is not None) == dated
            malformed = not dated and isinstance(ts, str)
            assert diag.tallies["comment_ts_malformed"] == int(malformed)
        else:
            assert len(events) == int(dated)
            assert diag.tallies["edit_ts_malformed"] == int(not dated)

    @pytest.mark.parametrize("key, value, kept", [
        ("ord", "9223372036854775807", True),
        ("ord", "9223372036854775808", False),
        ("depth", "9223372036854775808", False),
        *((key, value, False) for key in ("depth", "ord")
          for value in ("0.9", "1.7", "1.0", "1e0", "true")),
    ])
    def test_named_counts(self, tmp_path, key, value, kept):
        """depth and ord are integers in [0, 2**63); a JSON float or boolean is not one."""
        line = json.dumps(comment_rec(id="c1", parent="c0", depth=1, ord=1), separators=(",", ":"))
        path = tmp_path / "c.jsonl"
        path.write_text(line.replace(f'"{key}":1', f'"{key}":{value}', 1) + "\n", encoding="utf-8")
        events, diag = assert_loads_like_oracle(path, COMMENT)
        if kept:
            assert [e.doc_order for e in events] == [int(value)] and not diag.messages
        else:
            assert events == [] and diag.tallies["bad_int_field"] == 1
            assert diag.messages == [f"{path}:1: bad_int_field: depth/ord in c1"]

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("key", ["depth", "ord"])
    @pytest.mark.parametrize("text, dropped_as", [
        ("7", None), ("007", None), ("-1", "negative_field"),
        *((text, "bad_int_field") for text in ("٠", "1_0", " 0 ", "+1", "0x1", "１", "1\n", "")),
    ])
    def test_named_count_strings(self, tmp_path, fmt, key, text, dropped_as):
        """A string depth or ord is a count only as ASCII digits with an optional '-'."""
        record = comment_rec(id="c1", parent="c0", depth=1, ord=1) | {key: text}
        path = tmp_path / f"c.{fmt}"
        if fmt == "jsonl":
            write_jsonl(path, [record])
        else:
            with open(path, "w", encoding="utf-8", newline="") as handle:
                writer = csv.DictWriter(handle, fieldnames=list(record))
                writer.writeheader()
                writer.writerow(record)
        events, diag = assert_loads_like_oracle(path, COMMENT, fmt=fmt)
        if dropped_as is None:
            assert [(e.depth, e.doc_order) for e in events] == [{"depth": (7, 1), "ord": (1, 7)}[key]]
        else:
            assert events == [] and diag.tallies[dropped_as] == 1

    def test_now_is_inclusive(self, tmp_path):
        path = tmp_path / "e.jsonl"
        write_jsonl(path, [{"article": "A", "ts": "2020-01-01T00:00:00Z"},
                           {"article": "A", "ts": "2020-01-01T00:00:01Z"}])
        now = utc(2020, 1, 1, 0, 0, 0) + timedelta(microseconds=999_999)
        events, diag = assert_loads_like_oracle(path, EDIT, now=now)
        assert len(events) == 1 and diag.tallies["edit_ts_malformed"] == 1

    def test_lines_that_join_into_json_are_each_bad(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"a":1},{"b":2}\n{"c":[{}\n{}]}\n', encoding="utf-8")
        events, diag = assert_loads_like_oracle(path, COMMENT)
        assert events == [] and diag.tallies["bad_json"] == 3

    def test_structure_failures_in_line_order(self, tmp_path):
        path = tmp_path / "c.jsonl"
        lines = [
            json.dumps(comment_rec()), "", "[1]", "  ",
            json.dumps(comment_rec(id="c1", depth=1, parent=None)),
            json.dumps(comment_rec(id="c2", depth=0, parent="c0")),
            json.dumps(comment_rec(id="c3", ts="2010-02-30T00:00:00Z")),
            "not json", json.dumps(comment_rec(article="")),
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        for chunk in (1, 2, 3, 100):
            with mock.patch.object(ingest, "_CHUNK_LINES", chunk):
                events, diag = assert_loads_like_oracle(path, COMMENT)
            assert [m.split(":")[1] for m in diag.messages] == ["3", "5", "6", "8", "9"]
            assert diag.tallies["not_an_object"] == 1
            assert diag.tallies["depth_parent_mismatch"] == 2
            assert diag.tallies["lines_read"] == 7

    def test_edit_messages_interleave_in_line_order(self, tmp_path):
        path = tmp_path / "e.jsonl"
        lines = [{"article": "A", "ts": "2010-02-30T00:00:00Z"}, {"article": ""},
                 {"article": "A", "ts": "bad"}, {"article": None, "ts": "bad"},
                 {"article": "A", "ts": "2010-02-03T00:00:00Z"}, {"article": "A"}]
        write_jsonl(path, lines)
        _, diag = assert_loads_like_oracle(path, EDIT)
        assert [m.split(":")[1] for m in diag.messages] == ["1", "2", "3", "4", "6"]

    def test_message_cap_across_chunks(self, tmp_path):
        path = tmp_path / "e.jsonl"
        lines = []
        for i in range(120):
            lines.append({"article": "A", "ts": "2010-01-01T00:00:00Z"} if i % 3 == 0
                         else {"article": "A", "ts": f"bad{i}"} if i % 3 == 1
                         else {"article": i})
        write_jsonl(path, lines)
        with mock.patch.object(ingest, "_CHUNK_LINES", 7):
            _, diag = assert_loads_like_oracle(path, EDIT)
        assert len(diag.messages) == 50 and diag.tallies["lines_dropped"] == 80

    @pytest.mark.parametrize("kind", [COMMENT, EDIT])
    def test_csv_rows_numbered_from_two(self, tmp_path, kind):
        path = tmp_path / "e.csv"
        if kind == COMMENT:
            path.write_text(
                "article,id,parent,depth,ts,author,ord\n"
                "A,c0,,0,2006-05-10T13:45:08Z,Alice,0\n"
                ",c1,c0,1,2006-05-10T13:45:08Z,Bob,1\n"
                "A,c2,c0,x,,Bob,2\n"
                "A,c3,c0,1,2006-02-30T00:00:00Z,,3\n",
                encoding="utf-8",
            )
        else:
            path.write_text("article,ts\nA,2006-05-10T13:45:08Z\n,2006-05-10T13:45:08Z\n"
                            "A,\nA,2006-02-30T00:00:00Z\n", encoding="utf-8")
        with mock.patch.object(ingest, "_CHUNK_LINES", 2):
            _, diag = assert_loads_like_oracle(path, kind, fmt="csv")
        assert diag.messages[0].split(":")[1] == "3"

    def test_default_now_keeps_past_and_drops_future(self, tmp_path):
        path = tmp_path / "e.jsonl"
        write_jsonl(path, [{"article": "A", "ts": "2010-01-01T00:00:00Z"},
                           {"article": "A", "ts": "2999-01-01T00:00:00Z"}])
        diag = Diagnostics()
        assert len(list(load_events(path, EDIT, diagnostics=diag))) == 1
        assert diag.tallies["edit_ts_malformed"] == 1


class TestNumericFieldsDoNotAbort:
    """A number json.loads or int() cannot take drops its line; the load goes on."""

    def load(self, tmp_path, bad_lines):
        path = tmp_path / "c.jsonl"
        good = json.dumps(comment_rec(), separators=(",", ":"))
        path.write_text("\n".join([good, *bad_lines, good.replace('"ord":0', '"ord":9')]) + "\n",
                        encoding="utf-8")
        events, diag = assert_loads_like_oracle(path, COMMENT)
        assert [e.doc_order for e in events] == [0, 9]
        return path, diag

    def test_infinite_depth_or_ord_is_bad_int_field(self, tmp_path):
        bad = [json.dumps(comment_rec(id="c1"), separators=(",", ":")).replace(
            '"depth":0', f'"depth":{v}') for v in ("1e999", "Infinity", "-Infinity")]
        bad.append(json.dumps(comment_rec(id="c2"), separators=(",", ":")).replace(
            '"ord":0', '"ord":1e999'))
        path, diag = self.load(tmp_path, bad)
        assert diag.tallies["bad_int_field"] == 4 and diag.tallies["lines_dropped"] == 4
        assert diag.messages == [f"{path}:2: bad_int_field: depth/ord in c1",
                                 f"{path}:3: bad_int_field: depth/ord in c1",
                                 f"{path}:4: bad_int_field: depth/ord in c1",
                                 f"{path}:5: bad_int_field: depth/ord in c2"]

    def test_ord_beyond_int_digit_limit_is_bad_json(self, tmp_path):
        line = json.dumps(comment_rec(), separators=(",", ":")).replace('"ord":0', '"ord":' + DIGITS_4301)
        path, diag = self.load(tmp_path, [line])
        assert diag.tallies["bad_json"] == 1 and diag.tallies["lines_dropped"] == 1
        assert diag.messages[0].startswith(f"{path}:2: bad_json: Exceeds the limit (4300 digits)")

    def test_nesting_too_deep_is_bad_json(self, tmp_path):
        path, diag = self.load(tmp_path, ["[" * 100_000])
        assert diag.tallies["bad_json"] == 1
        assert diag.messages[0].startswith(f"{path}:2: bad_json: ")

    def test_nineteen_digit_ord_takes_the_slow_path_and_loads(self, tmp_path):
        lines = [json.dumps(comment_rec(ord=n), separators=(",", ":")) for n in (10**18 - 1, 10**18)]
        assert [ingest._CANONICAL_COMMENT(line) is not None for line in lines] == [True, False]
        path = tmp_path / "c.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        events, _ = assert_loads_like_oracle(path, COMMENT)
        assert [e.doc_order for e in events] == [10**18 - 1, 10**18]

    def test_hindex_exits_zero_and_reports_both(self, tmp_path, capsys, caplog):
        good = json.dumps(comment_rec(), separators=(",", ":"))
        clean, path = tmp_path / "clean.jsonl", tmp_path / "c.jsonl"
        clean.write_text(good + "\n", encoding="utf-8")
        path.write_text("\n".join([good.replace('"depth":0', '"depth":1e999'),
                                   good.replace('"ord":0', '"ord":' + DIGITS_4301), good]) + "\n",
                        encoding="utf-8")
        assert cli.main(["hindex", "--comments", str(clean)]) == 0
        want = capsys.readouterr().out
        assert cli.main(["hindex", "--comments", str(path)]) == 0
        assert capsys.readouterr().out == want
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings[0] == f"{path}:1: bad_int_field: depth/ord in c0"
        assert warnings[1].startswith(f"{path}:2: bad_json: Exceeds the limit")


# Characters json.dumps writes unescaped (it escapes quote, backslash and
# control characters, and a file cannot hold a lone surrogate).
plain_text = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters='"\\'
                  + "".join(map(chr, range(0x20)))),
    min_size=1, max_size=12,
)
optional_stamp = st.one_of(st.none(), st.datetimes(
    min_value=datetime(2001, 1, 1), max_value=datetime(2100, 1, 1),
    timezones=st.just(timezone.utc)).map(lambda t: t.replace(microsecond=0)))
comment_events = st.builds(
    CommentEvent, plain_text, plain_text, st.one_of(st.none(), plain_text),
    st.integers(0, 10**18 - 1), optional_stamp, st.one_of(st.none(), plain_text),
    st.integers(0, 10**18 - 1),
)
edit_events = st.builds(EditEvent, plain_text, optional_stamp.filter(lambda t: t is not None))


class TestCanonicalPattern:
    """The fast path matches every line the writer writes, and reads it back unchanged."""

    @given(event=comment_events)
    @settings(max_examples=300)
    def test_every_written_comment_line_matches(self, event):
        line = event_json_line(event)
        for text in (line, line + "\n"):
            match = ingest._CANONICAL_COMMENT(text)
            assert match is not None, text
            ts = format_timestamp(event.timestamp) if event.timestamp else None
            assert match.groups() == (event.article_id, event.comment_id, event.parent_id,
                                      str(event.depth), ts, event.author, str(event.doc_order))

    @given(event=edit_events)
    @settings(max_examples=200)
    def test_every_written_edit_line_matches(self, event):
        line = event_json_line(event)
        for text in (line, line + "\n"):
            match = ingest._CANONICAL_EDIT(text)
            assert match is not None, text
            assert match.groups() == (event.article_id, format_timestamp(event.timestamp))

    @given(events=st.lists(comment_events, max_size=10), chunk=st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_written_comments_load_like_oracle(self, tmp_path_factory, events, chunk):
        path = tmp_path_factory.mktemp("canonical") / "c.jsonl"
        write_events_jsonl(path, events)
        with mock.patch.object(ingest, "_CHUNK_LINES", chunk):
            assert_loads_like_oracle(path, COMMENT, now=utc(2100, 1, 1))


class TestSeriesKernel:
    @given(lines=st.lists(st.one_of(comment_lines(), junk_lines), max_size=40),
           chunk=st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_load_series_equals_counter_oracle(self, tmp_path_factory, lines, chunk):
        path = write_lines(tmp_path_factory, lines)
        with mock.patch.object(ingest, "_CHUNK_LINES", chunk):
            columns = ingest.load_columns(path, COMMENT, diagnostics=Diagnostics(),
                                          now=ORACLE_NOW)
        series, latest = columns.series(), columns.latest()
        events = list(load_events_oracle(path, COMMENT, now=ORACLE_NOW))
        want = build_series_oracle(events, COMMENT)
        assert_same_series(series, want)
        assert_same_series(build_series(events, COMMENT), want)
        stamps = [e.timestamp for e in events if e.timestamp is not None]
        assert latest == (max(stamps) if stamps else None)

    def test_series_dtype_and_order(self):
        events = [EditEvent("B", utc(2006, 1, 3)), EditEvent("A", utc(2006, 1, 1)),
                  EditEvent("B", utc(2006, 1, 1))]
        series = build_series(events, EDIT)
        assert list(series) == ["B", "A"]
        assert series["B"].counts.dtype == np.int64
        assert series["B"].counts.tolist() == [1, 0, 1]


def assert_same_series(got, want):
    assert sorted(got) == sorted(want)
    for article, s in want.items():
        g = got[article]
        assert (g.article_id, g.kind, g.start_day) == (s.article_id, s.kind, s.start_day)
        assert g.counts.tolist() == s.counts.tolist()
