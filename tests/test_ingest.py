"""Event loading, validation, daily binning, and canonical serialization."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import runpy
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from datetime import date, datetime, timedelta, timezone
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from talkdyn import (
    COMMENT,
    EDIT,
    CommentEvent,
    Diagnostics,
    EditEvent,
    IngestError,
    PeakParams,
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

from conftest import (
    build_series_oracle,
    check_record_value,
    event_json_line_oracle,
    format_timestamp_oracle,
    load_events_oracle,
    parse_timestamp_oracle,
    utc,
)


class TestParseTimestamp:
    def test_z_suffix(self):
        assert parse_timestamp("2006-05-10T13:45:08Z") == utc(2006, 5, 10, 13, 45, 8)

    def test_utc_offset_suffix(self):
        assert parse_timestamp("2006-05-10T13:45:08+00:00") == utc(2006, 5, 10, 13, 45, 8)

    # The suffix is read as one masked word: each of its six bytes is in the mask.
    def test_every_one_byte_change_of_the_utc_offset_is_refused(self):
        good = "2006-05-10T13:45:08+00:00"
        changed = {good[:at] + byte + good[at + 1:] for at in range(19, 25) for byte in "01+-:Z\0"} - {good}
        assert len(changed) == 36
        assert [text for text in sorted(changed) if parse_timestamp(text) is not None] == []

    # The loader gathers 32 bytes from a timestamp's start: bytes past its 25th
    # (the rest of the line, or the next field's bytes on the slow path) are
    # outside the mask.
    def test_utc_offset_inside_a_line_reads_as_at_its_end(self, tmp_path):
        stamp = "2006-05-10T13:45:08+00:00"
        second = (utc(2006, 5, 10, 13, 45, 8) - utc(1970, 1, 1)) // timedelta(seconds=1)
        (tmp_path / "e.jsonl").write_text(f'{{"article":"A","ts":"{stamp}"}}', encoding="utf-8")
        (tmp_path / "c.jsonl").write_text(
            event_json_line(CommentEvent("A", "c0", None, 0, utc(2006, 5, 10), "Bob", 0))
            .replace("2006-05-10T00:00:00Z", stamp) + "\n"
            + json.dumps(comment_rec(id="c1", ts=stamp)) + "\n",  # not canonical: spaces
            encoding="utf-8",
        )
        for name, kind in (("e.jsonl", EDIT), ("c.jsonl", COMMENT)):
            diag = Diagnostics()
            columns = ingest.load_columns(tmp_path / name, kind, diagnostics=diag)
            assert columns.seconds.tolist() == [second] * diag.tallies["lines_read"]
        assert diag.tallies["lines_read"] == 2

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

    # The fields as given, whatever the zone or the microseconds.
    @given(st.datetimes(min_value=datetime(1000, 1, 1), timezones=st.timezones()))
    def test_format_equals_strftime(self, ts):
        assert format_timestamp(ts) == format_timestamp_oracle(ts)

    # Below year 1000 strftime's %Y is not zero-padded everywhere; isoformat is.
    @given(st.datetimes(max_value=datetime(999, 12, 31, 23, 59, 59, 999999), timezones=st.timezones()))
    @example(datetime(1, 1, 1))
    def test_format_before_year_1000_equals_isoformat(self, ts):
        assert format_timestamp(ts) == ts.isoformat()[:19] + "Z"


class TestEventTypes:
    def test_edit_event_is_a_value(self):
        check_record_value(EditEvent, {"article_id": "A", "timestamp": utc(2006, 5, 10)})

    def test_comment_event_is_a_value(self):
        check_record_value(CommentEvent, {
            "article_id": "A", "comment_id": "c1", "parent_id": "c0", "depth": 1,
            "timestamp": None, "author": "Bob", "doc_order": 1,
        })

    def test_load_events_yields_the_event_types(self, tmp_path):
        write_jsonl(tmp_path / "c.jsonl", [comment_rec()])
        write_jsonl(tmp_path / "e.jsonl", [{"article": "A", "ts": "2006-05-10T13:45:08Z"}])
        assert [type(e) for e in load_events(tmp_path / "c.jsonl", COMMENT)] == [CommentEvent]
        assert [type(e) for e in load_events(tmp_path / "e.jsonl", EDIT)] == [EditEvent]


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
        assert series.counts.tolist() == [2, 0, 0, 1]

    def test_undated_events_contribute_nothing(self):
        events = [
            CommentEvent("A", "c0", None, 0, None, None, 0),
            CommentEvent("A", "c1", None, 0, utc(2006, 5, 10), None, 1),
        ]
        series = build_series(events, COMMENT)["A"]
        assert series.counts.tolist() == [1]

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
        assert series.counts.sum() == len(offsets)
        assert series.counts[0] > 0
        assert series.counts[-1] > 0

    def test_order_insensitive(self):
        t0 = utc(2006, 1, 1)
        events = [EditEvent("A", t0 + timedelta(days=d)) for d in (5, 1, 3, 1, 5, 5)]
        fwd = build_series(events, EDIT)["A"]
        rev = build_series(list(reversed(events)), EDIT)["A"]
        assert fwd.start_day == rev.start_day
        assert fwd.counts.tolist() == rev.counts.tolist()


# Texts with what JSON must escape or may pass through: quotes, backslashes,
# control characters, non-ASCII text and lone surrogates.
json_texts = st.text(st.one_of(st.sampled_from('"\\/\x00\x08\n\x1f\x7f\u00e9\u2028\ud800\udfff'),
                               st.characters(exclude_categories=())))
json_counts = st.integers(min_value=0, max_value=10**20)
json_stamps = st.datetimes(datetime(2001, 1, 1), datetime(2030, 12, 31), timezones=st.just(timezone.utc))


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

    @given(event=st.one_of(
        st.builds(CommentEvent, json_texts, json_texts, st.none() | json_texts, json_counts,
                  st.none() | json_stamps, st.none() | json_texts, json_counts),
        st.builds(EditEvent, json_texts, json_stamps),
    ))
    @settings(max_examples=500)
    def test_line_is_json_dumps_of_the_record(self, event):
        assert event_json_line(event) == event_json_line_oracle(event)

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
           chunk=st.integers(1, 64))
    @settings(max_examples=150, deadline=None)
    def test_comments_property(self, tmp_path_factory, lines, chunk):
        path = write_lines(tmp_path_factory, lines)
        with mock.patch.object(ingest, "_CHUNK_BYTES", chunk):
            assert_loads_like_oracle(path, COMMENT)

    @given(lines=st.lists(st.one_of(edit_lines(), junk_lines), max_size=40),
           chunk=st.integers(1, 64))
    @settings(max_examples=150, deadline=None)
    def test_edits_property(self, tmp_path_factory, lines, chunk):
        path = write_lines(tmp_path_factory, lines)
        with mock.patch.object(ingest, "_CHUNK_BYTES", chunk):
            assert_loads_like_oracle(path, EDIT)

    @given(lines=st.lists(near_canonical_comment_lines(), max_size=30),
           chunk=st.integers(1, 64))
    @settings(max_examples=300, deadline=None)
    def test_near_canonical_comments_property(self, tmp_path_factory, lines, chunk):
        path = write_lines(tmp_path_factory, lines)
        with mock.patch.object(ingest, "_CHUNK_BYTES", chunk):
            assert_loads_like_oracle(path, COMMENT)

    @given(lines=st.lists(near_canonical_edit_lines(), max_size=30),
           chunk=st.integers(1, 64))
    @settings(max_examples=200, deadline=None)
    def test_near_canonical_edits_property(self, tmp_path_factory, lines, chunk):
        path = write_lines(tmp_path_factory, lines)
        with mock.patch.object(ingest, "_CHUNK_BYTES", chunk):
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
        for chunk in (1, 2, 64, 1 << 18):
            with mock.patch.object(ingest, "_CHUNK_BYTES", chunk):
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
        with mock.patch.object(ingest, "_CHUNK_BYTES", 64):
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

    @pytest.mark.parametrize("chunk", [1, 2, 1 << 14])
    @pytest.mark.parametrize("kind", [COMMENT, EDIT])
    def test_csv_rows_named_by_physical_line(self, tmp_path, kind, chunk):
        """Blank lines (empty or only whitespace) are not read but count toward line numbers,
        and a row whose quoted field spans lines is named by its last line."""
        path = tmp_path / "e.csv"
        if kind == COMMENT:
            path.write_text('article,id,parent,depth,ts,author,ord\nA,c0,,0,2006-05-10T13:45:08Z,Al,0\n\n   \n'
                            'A,c1,c0,x,,Bob,1\n"Multi\nline",c0,,0,2006-05-11T00:00:00Z,Bob,2\n'
                            '"Multi\nline",c1,c0,-1,,Bob,3\n', encoding="utf-8")
        else:
            path.write_text('article,ts\nA,2006-05-10T13:45:08Z\n \t\n\nA,garbage\n'
                            '"Multi\nline",2006-05-11T00:00:00Z\n"Multi\nline",bad\n', encoding="utf-8")
        with mock.patch.object(ingest, "_CHUNK_LINES", chunk):
            events, diag = assert_loads_like_oracle(path, kind, fmt="csv")
        assert [e.article_id for e in events] == ["A", "Multi\nline"]
        assert [m.split(":")[1] for m in diag.messages] == ["5", "9"]
        assert diag.tallies["lines_read"] == 4
        if kind == EDIT:
            assert diag.messages[0] == f"{path}:5: edit_ts_malformed: ts='garbage'"

    @pytest.mark.parametrize("before", [b"\n", b"\r\n \r\n", b" \t\n\n"])
    def test_blank_lines_before_the_header_are_skipped(self, tmp_path, before):
        path = tmp_path / "e.csv"
        path.write_bytes(before + b"article,ts\nA,2006-05-10T13:45:08Z\nA,bad\n")
        events, diag = assert_loads_like_oracle(path, EDIT, fmt="csv")
        assert [e.article_id for e in events] == ["A"]
        assert diag.tallies["lines_read"] == 2
        line = before.count(b"\n") + 3
        assert diag.messages == [f"{path}:{line}: edit_ts_malformed: ts='bad'"]

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
        path = tmp_path / "c.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with mock.patch.object(ingest, "_decode_json", wraps=ingest._decode_json) as per_line:
            events, _ = assert_loads_like_oracle(path, COMMENT)
        assert [call.args[0] for call in per_line.call_args_list] == [lines[1] + "\n"]
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
dated_stamp = st.datetimes(
    min_value=datetime(2001, 1, 1), max_value=datetime(2100, 1, 1),
    timezones=st.just(timezone.utc)).map(lambda t: t.replace(microsecond=0))
optional_stamp = st.one_of(st.none(), dated_stamp)
comment_events = st.builds(
    CommentEvent, plain_text, plain_text, st.one_of(st.none(), plain_text),
    st.integers(0, 10**18 - 1), optional_stamp, st.one_of(st.none(), plain_text),
    st.integers(0, 10**18 - 1),
)
edit_events = st.builds(EditEvent, plain_text, dated_stamp)


# Comments that obey the depth/parent rule, so every line written is canonical.
linked_comment_events = st.builds(
    lambda link, *rest: CommentEvent(rest[0], rest[1], link[1], link[0], *rest[2:]),
    st.one_of(st.tuples(st.just(0), st.none()),
              st.tuples(st.integers(1, 10**18 - 1), plain_text)),
    plain_text, plain_text, optional_stamp, st.one_of(st.none(), plain_text),
    st.integers(0, 10**18 - 1),
)


def load_on_byte_path(path, kind, chunk):
    """load_events' events and diagnostics, asserting that no line took the per-line path."""
    diag = Diagnostics()
    with mock.patch.object(ingest, "_CHUNK_BYTES", chunk), \
            mock.patch.object(ingest, "_decode_json", wraps=ingest._decode_json) as per_line:
        events = list(load_events(path, kind, diagnostics=diag, now=utc(2100, 1, 1)))
    assert per_line.call_count == 0
    return events, diag


class TestCanonicalPattern:
    """The byte path decides every line the writer writes, and reads it back unchanged."""

    @given(events=st.lists(linked_comment_events, min_size=1, max_size=12),
           ending=st.sampled_from(["\n", "\r\n", "\r"]), last=st.booleans(),
           chunk=st.integers(1, 64))
    @settings(max_examples=200, deadline=None)
    def test_every_written_comment_line_matches(self, tmp_path_factory, events, ending, last, chunk):
        path = tmp_path_factory.mktemp("canonical") / "c.jsonl"
        text = ending.join(map(event_json_line, events)) + (ending if last else "")
        path.write_bytes(text.encode("utf-8"))
        got, diag = load_on_byte_path(path, COMMENT, chunk)
        assert got == events
        assert diag.tallies["lines_read"] == len(events) and not diag.messages

    @given(events=st.lists(edit_events, min_size=1, max_size=12),
           ending=st.sampled_from(["\n", "\r\n", "\r"]), last=st.booleans(),
           chunk=st.integers(1, 64))
    @settings(max_examples=150, deadline=None)
    def test_every_written_edit_line_matches(self, tmp_path_factory, events, ending, last, chunk):
        path = tmp_path_factory.mktemp("canonical") / "e.jsonl"
        text = ending.join(map(event_json_line, events)) + (ending if last else "")
        path.write_bytes(text.encode("utf-8"))
        got, diag = load_on_byte_path(path, EDIT, chunk)
        assert got == events
        assert diag.tallies["lines_read"] == len(events) and not diag.messages

    @given(events=st.lists(comment_events, max_size=10), chunk=st.integers(1, 64))
    @settings(max_examples=100, deadline=None)
    def test_written_comments_load_like_oracle(self, tmp_path_factory, events, chunk):
        path = tmp_path_factory.mktemp("canonical") / "c.jsonl"
        write_events_jsonl(path, events)
        with mock.patch.object(ingest, "_CHUNK_BYTES", chunk):
            assert_loads_like_oracle(path, COMMENT, now=utc(2100, 1, 1))


# Byte-level changes to canonical lines.  Whitespace-only lines, Unicode
# spaces included, are blank to str.strip() and so neither read nor dropped;
# none of these characters ends a line.
WHITESPACE_LINES = [" ", "\t", "\x0b\x0c", "\x1c\x1d\x1e\x1f", "\x85", "\xa0", "\u2028", "\u3000 "]
NOT_UTF8 = [b"\xff", b"\x80", b"\xc3", b"\xe6\x97", b"\xed\xa0\x80", b"\xc0\xaf", b"\xf4\x90\x80\x80"]
INSERTS = [b"\r", b"\x00", b"\t", b"\\", b" ", "\xa0".encode(), "\u2028".encode(), *NOT_UTF8]


@st.composite
def mutated_line(draw, kind):
    if draw(st.integers(0, 7)) == 0:
        return draw(st.sampled_from(WHITESPACE_LINES)).encode()
    record = {"article": draw(st.sampled_from(NAMES)), "ts": draw(utf8_ts)}
    if kind == COMMENT:
        depth = draw(st.integers(0, 2))
        record = {"article": record["article"], "id": draw(st.sampled_from(["c0", "é", "c 1"])),
                  "parent": None if depth == 0 else draw(st.sampled_from(["c0", "日本"])),
                  "depth": depth, "ts": draw(st.one_of(st.none(), utf8_ts)),
                  "author": draw(st.sampled_from([None, "U1", "x y"])),
                  "ord": draw(st.one_of(st.integers(0, 10**18 - 1), st.integers(10**18, 2**63)))}
    line = json.dumps(record, ensure_ascii=False, separators=(",", ":")).encode()
    change = draw(st.sampled_from(["raw", "insert", "insert", "leading_zero"]))
    if change == "insert":
        at = draw(st.integers(0, len(line)))
        line = line[:at] + draw(st.sampled_from(INSERTS)) + line[at:]
    elif change == "leading_zero" and kind == COMMENT:
        key = draw(st.sampled_from([b'"depth":', b'"ord":']))
        line = line.replace(key, key + b"0", 1)
    return line


@st.composite
def mutated_files(draw, kind):
    lines = draw(st.lists(mutated_line(kind), max_size=20))
    endings = [draw(st.sampled_from([b"\n", b"\r\n", b"\r"])) for _ in lines]
    body = b"".join(line + ending for line, ending in zip(lines, endings))
    if lines and draw(st.booleans()):
        body = body[:-len(endings[-1])]  # no final line end
    return body


class TestByteLevelMutations:
    """Near-canonical bytes load exactly like the per-line oracle, whatever the chunk size."""

    @given(body=mutated_files(COMMENT), chunk=st.integers(1, 64), utf8_slice=st.integers(4, 16))
    @settings(max_examples=300, deadline=None)
    def test_comments(self, tmp_path_factory, body, chunk, utf8_slice):
        path = tmp_path_factory.mktemp("bytes") / "c.jsonl"
        path.write_bytes(body)
        with mock.patch.object(ingest, "_CHUNK_BYTES", chunk), \
                mock.patch.object(ingest, "_UTF8_SLICE", utf8_slice):
            assert_loads_like_oracle(path, COMMENT)

    @given(body=mutated_files(EDIT), chunk=st.integers(1, 64), utf8_slice=st.integers(4, 16))
    @settings(max_examples=200, deadline=None)
    def test_edits(self, tmp_path_factory, body, chunk, utf8_slice):
        path = tmp_path_factory.mktemp("bytes") / "e.jsonl"
        path.write_bytes(body)
        with mock.patch.object(ingest, "_CHUNK_BYTES", chunk), \
                mock.patch.object(ingest, "_UTF8_SLICE", utf8_slice):
            assert_loads_like_oracle(path, EDIT)

    @pytest.mark.parametrize("chunk", [1, 2, 100])
    def test_undecodable_line_is_dropped_with_its_number(self, tmp_path, chunk):
        good = json.dumps(comment_rec(), separators=(",", ":")).encode()
        path = tmp_path / "c.jsonl"
        path.write_bytes(b"\n".join([good, good.replace(b'"c0"', b'"c\xe6\x97"'), b" \xa0 ", good])
                         + b"\n")
        with mock.patch.object(ingest, "_CHUNK_BYTES", chunk):
            events, diag = assert_loads_like_oracle(path, COMMENT)
        assert len(events) == 2
        assert diag.tallies["lines_read"] == 4 and diag.tallies["bad_utf8"] == 2
        assert diag.messages == [
            f"{path}:2: bad_utf8: 'utf-8' codec can't decode bytes in position 22-23: "
            "invalid continuation byte",
            f"{path}:3: bad_utf8: 'utf-8' codec can't decode byte 0xa0 in position 1: "
            "invalid start byte",
        ]

    @pytest.mark.parametrize("field, char", [("article", "\ud800"), ("id", "\udce9"),
                                             ("parent", "\udfff"), ("author", "\ud83d")])
    def test_a_lone_surrogate_escape_drops_the_line_naming_the_field(self, tmp_path, field, char):
        # json.dumps writes each surrogate as an escape: a pair is one character, one alone
        # is a code point that UTF-8 cannot encode.
        good = comment_rec(id="c1", parent="c0", depth=1, author="\U0001f600")
        path = tmp_path / "c.jsonl"
        path.write_text("".join(json.dumps(rec, separators=(",", ":")) + "\n"
                                for rec in (comment_rec(), good, {**good, field: "x" + char})),
                        encoding="utf-8")
        events, diag = assert_loads_like_oracle(path, COMMENT)
        assert [e.author for e in events] == ["Alice", "\U0001f600"]
        assert diag.tallies["bad_utf8"] == 1
        assert diag.messages == [f"{path}:3: bad_utf8: {field}: 'utf-8' codec can't encode character "
                                 f"'\\u{ord(char):x}' in position 1: surrogates not allowed"]
        edits = tmp_path / "e.jsonl"
        edits.write_text("".join(json.dumps({"article": article, "ts": "2006-01-02T00:00:00Z"}) + "\n"
                                 for article in ("A", "B" + char)), encoding="utf-8")
        events, diag = assert_loads_like_oracle(edits, EDIT)
        assert len(events) == 1 and diag.tallies["bad_utf8"] == 1

    @pytest.mark.parametrize("kind", [COMMENT, EDIT])
    def test_undecodable_csv_row_is_dropped_with_its_number(self, tmp_path, kind):
        path = tmp_path / "e.csv"
        if kind == COMMENT:
            path.write_bytes(b"article,id,parent,depth,ts,author,ord\n"
                             b"A,c0,,0,2006-05-10T13:45:08Z,Alice,0\n"
                             b"A,c1,c0,1,2006-05-10T13:45:08Z,B\xffb,1\n"
                             b"A,c2,c0,1,2006-05-10T13:45:08Z,Bob,2\n")
        else:
            path.write_bytes(b"article,ts\nA,2006-05-10T13:45:08Z\nA\xff,2006-05-10T13:45:08Z\n"
                             b"A,2006-05-11T13:45:08Z\n")
        events, diag = assert_loads_like_oracle(path, kind, fmt="csv")
        assert len(events) == 2 and diag.tallies["bad_utf8"] == 1
        assert diag.messages[0].startswith(f"{path}:3: bad_utf8: 'utf-8' codec can't decode byte 0xff")


def block_lines(data: bytes, chunk: int) -> tuple[list[bytes], list[int]]:
    """The lines _line_blocks cuts data into at a chunk of bytes a read, and each block's size."""
    lines, sizes = [], []
    with mock.patch.object(ingest, "_CHUNK_BYTES", chunk):
        for padded, ends in ingest._line_blocks(io.BytesIO(data)):
            size = len(padded) - len(ingest._PAD)
            assert padded[size:] == ingest._PAD and ends[-1] == size
            starts = [0, *ends[:-1].tolist()]
            lines += [padded[lo:hi] for lo, hi in zip(starts, ends.tolist())]
            sizes.append(size)
    return lines, sizes


line_bodies = st.binary(max_size=80).map(lambda b: b.replace(b"\r", b"").replace(b"\n", b""))


class TestLineBlocks:
    """JSONL is read a block of bytes at a time and cut after the block's last whole line."""

    @given(lines=st.lists(st.tuples(line_bodies, st.sampled_from([b"\n", b"\r\n", b"\r"])),
                          max_size=20),
           last=line_bodies, chunk=st.integers(1, 64))
    @example(lines=[(b"ab", b"\r\n"), (b"c", b"\n")], last=b"", chunk=3)  # '\r\n' across two reads
    @example(lines=[(b"x" * 200, b"\r"), (b"y", b"\r")], last=b"z", chunk=7)  # a line longer than a read
    @settings(max_examples=500, deadline=None)
    def test_lines_are_splitlines(self, lines, last, chunk):
        data = b"".join(body + ending for body, ending in lines) + last
        want = data.splitlines(keepends=True)
        got, sizes = block_lines(data, chunk)
        assert got == want
        assert max(sizes, default=0) <= chunk + max(map(len, want), default=0)

    def test_lone_return_file_is_read_in_bounded_blocks(self, tmp_path):
        line = '{"article":"A","ts":"2006-05-10T13:45:08Z"}'
        chunk = 1 << 10
        data = (line + "\r").encode() * 1000
        lines, sizes = block_lines(data, chunk)
        assert len(lines) == 1000 and len(sizes) > 40
        assert max(sizes) <= chunk + len(line) + 1
        returns, feeds = tmp_path / "r.jsonl", tmp_path / "n.jsonl"
        returns.write_bytes(data)
        feeds.write_bytes(data.replace(b"\r", b"\n"))
        loads = []
        for path in (returns, feeds):
            diag = Diagnostics()
            with mock.patch.object(ingest, "_CHUNK_BYTES", chunk):
                events = list(load_events(path, EDIT, diagnostics=diag, now=utc(2100, 1, 1)))
            loads.append((events, diag.tallies))
        assert loads[0] == loads[1] and len(loads[0][0]) == 1000


class _Counted:
    """An array that counts how often it is indexed."""

    def __init__(self, array):
        self.array, self.calls = array, 0

    def __getitem__(self, index):
        self.calls += 1
        return self.array[index]


_PREFIX = "abcdefgh" * 6
# Names of equal width that differ in one byte of the first, a middle or the last word.
LONG_NAMES = [_PREFIX[:k] for k in (8, 31, 32, 33, 48)] + [
    _PREFIX[:k] + "X" + _PREFIX[k + 1:] for k in (2, 15, 26, 31, 40, 47)] + ["é" * 20, "é" * 19 + "ee"]


class TestReadersBoundedByBytes:
    """A long article name or a long line costs time linear in its bytes."""

    @given(names=st.lists(st.tuples(st.sampled_from(LONG_NAMES), st.booleans()), max_size=30),
           chunk=st.integers(1, 4096))
    @settings(max_examples=200, deadline=None)
    def test_long_names_load_like_oracle(self, tmp_path_factory, names, chunk):
        # ensure_ascii spells 'é' as an escape, which only the per-line check reads.
        lines = [json.dumps({"article": name, "ts": "2010-01-01T00:00:00Z"},
                            ensure_ascii=escaped, separators=(",", ":"))
                 for name, escaped in names]
        path = write_lines(tmp_path_factory, lines)
        with mock.patch.object(ingest, "_CHUNK_BYTES", chunk):
            assert_loads_like_oracle(path, EDIT)

    def test_long_name_is_compared_in_few_word_rounds(self, tmp_path):
        long = "N" * (1 << 16)
        names = [long, long, long[:-1] + "M"] + [f"A{i}" for i in range(100)]
        path = tmp_path / "e.jsonl"
        path.write_text("".join(f'{{"article":"{name}","ts":"2010-01-01T00:00:00Z"}}\n'
                                for name in names))
        assert path.stat().st_size < ingest._CHUNK_BYTES  # one block
        rounds = _Counted(ingest._LOW_BYTES)
        with mock.patch.object(ingest, "_LOW_BYTES", rounds):
            columns = ingest.load_columns(path, EDIT, now=ORACLE_NOW)
        assert [columns.names[code] for code in columns.articles.tolist()] == names
        # A few word rounds a block, not one for each of the name's 8,192 words.
        assert rounds.calls <= 8

    def test_long_line_is_scanned_once(self):
        chunk = 1 << 10
        # A '\r' at the end of a read, then one line of 256 reads, and short lines.
        data = b"x" * (chunk - 1) + b"\r" + b"y" * (256 * chunk) + b"\r\n" + b"z\n" * 100
        scanned = []
        frombuffer = np.frombuffer

        def counting(buffer, *args, **kwargs):
            scanned.append(len(buffer))
            return frombuffer(buffer, *args, **kwargs)

        with mock.patch.object(np, "frombuffer", counting):
            lines, _ = block_lines(data, chunk)
        assert lines == data.splitlines(keepends=True)
        assert len(data) <= sum(scanned) <= 2 * len(data)

    def test_paused_reader_keeps_only_the_tail(self):
        # 400-byte lines and a last line without an end: every block carries a
        # tail, and a block's line ends take less room than a line.
        line = b"x" * 399 + b"\n"
        data = line * 50 + b"y" * 50
        blocks = ingest._line_blocks(io.BytesIO(data))
        with mock.patch.object(ingest, "_CHUNK_BYTES", 1 << 12):
            for padded, ends in blocks:
                held = []
                for value in blocks.gi_frame.f_locals.values():
                    held += value if isinstance(value, (list, tuple)) else [value]
                sizes = [len(value) if isinstance(value, (bytes, memoryview)) else value.nbytes
                         for value in held if isinstance(value, (bytes, memoryview, np.ndarray))
                         and value is not ends]
                # Not the read, its line-end mask or the block: only the tail and line ends.
                assert max(sizes, default=0) < len(line)

    def test_block_checked_with_one_copy(self, tmp_path):
        # A block of a few UTF-8 check slices, each line with a byte beyond ASCII.
        chunk = 4 * ingest._UTF8_SLICE
        lines = [json.dumps({"article": "Café " + "N" * 990, "ts": "2010-01-01T00:00:00Z"},
                            ensure_ascii=False, separators=(",", ":"))] * (chunk // 1200)
        lines[30] = json.dumps({"article": "slow", "ts": "2010-01-02T00:00:00Z"})  # spaced: per-line check
        path = tmp_path / "e.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        with mock.patch.object(ingest, "_CHUNK_BYTES", chunk):
            with open(path, "rb") as handle:
                [(padded, ends)] = ingest._line_blocks(handle)
        size = int(ends[-1])
        assert size == path.stat().st_size < chunk
        load = ingest._Load(EDIT, ORACLE_NOW, Diagnostics())
        tracemalloc.start()
        try:
            chunk_out = load.lines(padded, ends, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [load.names[code] for code in chunk_out.codes.tolist()] == [
            json.loads(line)["article"] for line in lines]
        # The joined text is the one copy; neither the UTF-8 check nor the join makes a second.
        assert peak < 1.5 * size

    def test_replay_drops_each_chunk_before_the_next(self, tmp_path):
        # Ten comments a day, then a burst of thirty on the last day.
        path = tmp_path / "c.jsonl"
        path.write_text("".join(
            f'{{"article":"A{i % 3}","id":"c{i}","parent":null,"depth":0,'
            f'"ts":"2010-01-{1 + min(i, 170) // 10:02d}T00:00:00Z","author":null,"ord":{i}}}\n'
            for i in range(200)))
        params = PeakParams(c=2.0, n_min=1, window_halfwidth=7)
        alive = []
        read_chunks = ingest.read_chunks

        def chunks(*args, **kwargs):
            for chunk in read_chunks(*args, **kwargs):
                # The next block has been read and checked: the replay holds no earlier chunk.
                assert all(ref() is None for ref in alive)
                alive.append(weakref.ref(chunk))
                yield chunk

        with mock.patch.object(ingest, "_CHUNK_BYTES", 1 << 10):
            want = cli.simulate_watch(path, params, now=ORACLE_NOW)
            with mock.patch.object(ingest, "read_chunks", chunks):
                alerts = cli.simulate_watch(path, params, now=ORACLE_NOW)
        assert len(alive) > 2
        assert [(article, str(day)) for article, _, day, *_ in want][-3:] == [
            ("A0", "2010-01-18"), ("A1", "2010-01-18"), ("A2", "2010-01-18")]
        assert alerts == want

    def test_load_drops_each_chunk_before_the_next(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("".join(
            f'{{"article":"A{i % 3}","id":"c{i}","parent":null,"depth":0,'
            f'"ts":"2010-01-{1 + i // 10:02d}T00:00:00Z","author":null,"ord":{i}}}\n' for i in range(200)))
        alive = []
        read_chunks = ingest.read_chunks

        def chunks(*args, **kwargs):
            for chunk in read_chunks(*args, **kwargs):
                # The next block has been read and checked: the load holds no earlier chunk.
                assert all(ref() is None for ref in alive)
                alive.append(weakref.ref(chunk))
                yield chunk

        with mock.patch.object(ingest, "_CHUNK_BYTES", 1 << 10), \
                mock.patch.object(ingest, "read_chunks", chunks):
            columns = ingest.load_columns(path, COMMENT, now=ORACLE_NOW)
        assert len(alive) > 2
        assert columns.ids.tolist() == list(range(1, 201))


def first_seen(values: list) -> list[int]:
    """Each value's number in the order values first appear: the partition values make."""
    numbers: dict = {}
    return [numbers.setdefault(value, len(numbers)) for value in values]


# 1-40 bytes: texts that share none, the first 8 or the first 32 bytes, then
# differ in a tail of ASCII, two-byte and NUL characters (a NUL is written as
# the escape \u0000, which only the per-line check reads).
grouped_texts = st.builds(
    str.__add__, st.sampled_from(["", "abcdefgh", "abcdefgh" * 4]),
    st.text(alphabet="ab\0\xe9", max_size=4),
).filter(lambda text: 1 <= len(text.encode()) <= 40)


class TestTextGroups:
    """Names, ids and parents are coded by their bytes, one lookup per distinct text a chunk."""

    @given(records=st.lists(st.tuples(grouped_texts, grouped_texts, st.one_of(st.none(), grouped_texts),
                                      st.booleans()), max_size=40),
           chunk=st.integers(1, 4096))
    @settings(max_examples=200, deadline=None)
    def test_codes_partition_texts_like_a_dict(self, tmp_path_factory, records, chunk):
        lines = []
        for order, (article, comment_id, parent, spaced) in enumerate(records):
            record = {"article": article, "id": comment_id, "parent": parent,
                      "depth": int(parent is not None), "ts": "2010-01-01T00:00:00Z",
                      "author": None, "ord": order}
            # Spaced lines take the per-line check, the others the byte path.
            lines.append(json.dumps(record, ensure_ascii=False,
                                    separators=(", ", ": ") if spaced else (",", ":")))
        path = write_lines(tmp_path_factory, lines)
        with mock.patch.object(ingest, "_CHUNK_BYTES", chunk):
            columns = ingest.load_columns(path, COMMENT, now=ORACLE_NOW)
        articles = [article for article, *_ in records]
        assert columns.names == list(dict.fromkeys(articles))
        assert columns.articles.tolist() == first_seen(articles)
        parents = [parent for _, _, parent, _ in records]
        assert (columns.parents == ingest.NO_PARENT).tolist() == [parent is None for parent in parents]
        links = [comment_id for _, comment_id, *_ in records] + parents
        assert first_seen(np.concatenate((columns.ids, columns.parents)).tolist()) == first_seen(links)


class TestSeriesKernel:
    @given(lines=st.lists(st.one_of(comment_lines(), junk_lines), max_size=40),
           chunk=st.integers(1, 64))
    @settings(max_examples=100, deadline=None)
    def test_load_series_equals_counter_oracle(self, tmp_path_factory, lines, chunk):
        path = write_lines(tmp_path_factory, lines)
        with mock.patch.object(ingest, "_CHUNK_BYTES", chunk):
            columns = ingest.load_columns(path, COMMENT, diagnostics=Diagnostics(),
                                          now=ORACLE_NOW)
        series, latest = columns.series(), columns.latest()
        events = list(load_events_oracle(path, COMMENT, now=ORACLE_NOW))
        want = build_series_oracle(events, COMMENT)
        assert_same_series(series, want)
        assert_same_series(build_series(events, COMMENT), want)
        stamps = [e.timestamp for e in events if e.timestamp is not None]
        assert latest == (max(stamps) if stamps else None)

    @given(lines=st.lists(st.one_of(comment_lines(), junk_lines), max_size=40),
           chunk=st.integers(1, 64))
    @settings(max_examples=100, deadline=None)
    def test_comment_load_without_links_keeps_articles_and_seconds(self, tmp_path_factory,
                                                                   lines, chunk):
        path = write_lines(tmp_path_factory, lines)
        diagnostics = [Diagnostics(), Diagnostics()]
        with mock.patch.object(ingest, "_CHUNK_BYTES", chunk):
            linked, bare = [ingest.load_columns(path, COMMENT, diagnostics=diag, now=ORACLE_NOW,
                                                links=links)
                            for diag, links in zip(diagnostics, (True, False))]
        assert bare.names == linked.names
        assert bare.articles.tolist() == linked.articles.tolist()
        assert bare.seconds.tolist() == linked.seconds.tolist()
        # As an edit load leaves them.
        assert [c.size for c in (bare.ids, bare.parents, bare.depths, bare.orders)] == [0] * 4
        assert [(d.tallies, d.messages) for d in diagnostics] == \
            [(diagnostics[0].tallies, diagnostics[0].messages)] * 2

    @given(edits=st.lists(st.one_of(edit_lines(), junk_lines), max_size=40),
           comments=st.lists(st.one_of(comment_lines(), junk_lines), max_size=40),
           chunk=st.integers(1, 64))
    @settings(max_examples=100, deadline=None)
    def test_daily_totals_equal_counter_oracle(self, tmp_path_factory, edits, comments, chunk):
        sources = [(write_lines(tmp_path_factory, edits), EDIT),
                   (write_lines(tmp_path_factory, comments), COMMENT)]
        with mock.patch.object(ingest, "_CHUNK_BYTES", chunk):
            columns = [ingest.load_columns(path, kind, diagnostics=Diagnostics(), now=ORACLE_NOW)
                       for path, kind in sources]
        want = [Counter(e.timestamp.date() for e in load_events_oracle(path, kind, now=ORACLE_NOW)
                        if e.timestamp is not None) for path, kind in sources]
        assert cli._daily_total_rows(*(c.day_counts() for c in columns)) == [
            [day, want[0][day], want[1][day]] for day in sorted(want[0] | want[1])]

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


class TestCsvStructureErrors:
    """A row the csv module cannot parse is dropped, and the load goes on."""

    @pytest.mark.parametrize("chunk", [1, 2, 1 << 14])
    @pytest.mark.parametrize("kind", [COMMENT, EDIT])
    def test_oversized_field_is_dropped_with_its_number(self, tmp_path, kind, chunk):
        huge = "x" * (csv.field_size_limit() + 1)
        path = tmp_path / "e.csv"
        if kind == COMMENT:
            path.write_text("article,id,parent,depth,ts,author,ord\n"
                            "A,c0,,0,2006-05-10T13:45:08Z,Alice,0\n"
                            f"A,c1,c0,1,2006-05-10T13:45:08Z,{huge},1\n"
                            "A,c2,c0,1,2006-05-11T13:45:08Z,Bob,2\n", encoding="utf-8")
        else:
            path.write_text(f"article,ts\nA,2006-05-10T13:45:08Z\n{huge},2006-05-10T13:45:08Z\n"
                            "A,2006-05-11T13:45:08Z\n", encoding="utf-8")
        with mock.patch.object(ingest, "_CHUNK_LINES", chunk):
            events, diag = assert_loads_like_oracle(path, kind, fmt="csv")
        assert len(events) == 2
        tallies = diag.tallies
        assert tallies["bad_csv"] == 1 and tallies["lines_read"] == 3
        assert tallies["lines_read"] == tallies["events_used"] + tallies["lines_dropped"]
        assert diag.messages == [
            f"{path}:3: bad_csv: field larger than field limit ({csv.field_size_limit()})"]

    @pytest.mark.parametrize("extra", [0, 1])
    def test_field_spanning_lines_is_one_record(self, tmp_path, extra):
        """A quoted field over the limit is dropped whole, named by the line it ends on;
        one at the limit is kept."""
        limit = csv.field_size_limit()
        rest = "\nsecond line of the field\nthird"
        field = "x" * (limit + extra - len(rest)) + rest
        path = tmp_path / "e.csv"
        path.write_text(f'article,ts\n"{field}",2006-05-10T13:45:08Z\nB,2006-05-10T13:45:08Z\n',
                        encoding="utf-8")
        events, diag = assert_loads_like_oracle(path, EDIT, fmt="csv")
        names = ["B"] if extra else [field, "B"]
        assert [e.article_id for e in events] == names
        assert diag.tallies["lines_read"] == 2 and diag.tallies["events_used"] == len(names)
        assert diag.messages == ([f"{path}:4: bad_csv: field larger than field limit ({limit})"]
                                 if extra else [])
        assert csv.field_size_limit() == limit

    def test_oversized_header_is_input_error(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("article,ts," + "x" * (csv.field_size_limit() + 1) + "\n", encoding="utf-8")
        with pytest.raises(IngestError, match=f"^{path}:1: field larger than field limit"):
            list(load_events(path, EDIT, fmt="csv"))


class TestCsvNul:
    """A NUL in a CSV field is data, within a record that spans lines too."""

    def load(self, path, kind):
        diag = Diagnostics()
        return list(load_events(path, kind, fmt="csv", diagnostics=diag, now=utc(2100, 1, 1))), diag

    def test_edit_csv(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text('article,ts\nA,2006-01-01T00:00:00Z\n"B\0\nstill B",2006-01-02T00:00:00Z\n'
                        "C\0,2006-01-03T00:00:00Z\n\0\nD,2006-01-04T00:00:00Z\0\n", encoding="utf-8")
        events, diag = self.load(path, EDIT)
        assert [(e.article_id, e.timestamp.day) for e in events] == [("A", 1), ("B\0\nstill B", 2), ("C\0", 3)]
        assert diag.tallies["lines_read"] == 5 and diag.tallies["events_used"] == 3
        # A line of one NUL is not blank: it is a row with no ts.
        assert diag.messages == [f"{path}:6: edit_ts_malformed: ts=None",
                                 f"{path}:7: edit_ts_malformed: ts='2006-01-04T00:00:00Z\\x00'"]

    def test_comment_csv(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("article,id,parent,depth,ts,author,ord\n"
                        "A,c\0,,0,2006-05-10T13:45:08Z,Al\0ice,0\n"
                        '"A",c1,c\0,1,,"Bob\0\n",1\n', encoding="utf-8")
        events, diag = self.load(path, COMMENT)
        assert [(e.comment_id, e.parent_id, e.author) for e in events] \
            == [("c\0", None, "Al\0ice"), ("c1", "c\0", "Bob\0\n")]
        assert diag.tallies["lines_read"] == 2 and diag.messages == []


SYNTHETIC_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "make_synthetic_corpus.py"


class TestSyntheticCorpus:
    """The benchmark's corpus is all canonical lines, so its loads stay on the byte path."""

    def test_seed_writes_recorded_bytes(self, tmp_path):
        # The recorded benchmark digests are computed from this script's output,
        # so a seed must keep writing the same bytes (numpy 2.x's PCG64 streams).
        # Two articles' edits and two articles' comments take the burst branch.
        subprocess.run([sys.executable, str(SYNTHETIC_SCRIPT), "--out", str(tmp_path),
                        "--articles", "40", "--edits", "3000", "--comments", "5000", "--seed", "7"],
                       check=True, capture_output=True, timeout=120)
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("edits.jsonl", "comments.jsonl")}
        assert digests == {
            "edits.jsonl": "d1638904898e79a0a534fafdf341f4d2f2a75c2abdc5a5c072600512f3be377a",
            "comments.jsonl": "be3b71c6339daa649c68b667ded8b6bea432dec10cb24ca9ac248f0bec4987ba",
        }

    # The script's names, its main() not run.
    script = runpy.run_path(str(SYNTHETIC_SCRIPT))

    @pytest.mark.parametrize("flag, value", [
        ("--articles", "0"), ("--edits", "-5"), ("--comments", "-1"), ("--days", "30"), ("--days", "0"),
        ("--days", str(script["MAX_DAYS"] + 1)), ("--seed", "-1"),
    ])
    def test_refuses_what_it_cannot_write(self, tmp_path, capsys, flag, value):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as stop:
            self.script["main"](["--out", str(out), flag, value])
        assert stop.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and f"error: {flag} must be at" in err
        assert not out.exists()

    def test_writes_at_its_smallest_values(self, tmp_path):
        main = self.script["main"]
        assert main(["--out", str(tmp_path / "empty"), "--articles", "1", "--edits", "0",
                     "--comments", "0", "--seed", "0"]) == 0
        assert [(tmp_path / "empty" / name).read_bytes() for name in ("edits.jsonl", "comments.jsonl")] \
            == [b"", b""]
        assert main(["--out", str(tmp_path), "--articles", "3", "--edits", "200", "--comments", "200",
                     "--days", "31", "--seed", "0"]) == 0
        last = (self.script["CANON_DAY"] + 30).astype(str)
        for name in ("edits.jsonl", "comments.jsonl"):
            lines = (tmp_path / name).read_text(encoding="utf-8").splitlines()
            assert len(lines) == 200 and all(json.loads(line)["ts"][:10] <= last for line in lines)

    def test_widest_horizon_ends_on_9999_12_31(self):
        assert str(self.script["CANON_DAY"] + self.script["MAX_DAYS"] - 1) == "9999-12-31"

    def test_every_line_is_the_event_json_line_of_its_event(self, tmp_path):
        subprocess.run([sys.executable, str(SYNTHETIC_SCRIPT), "--out", str(tmp_path), "--articles", "20",
                        "--edits", "2000", "--comments", "2000"],
                       check=True, capture_output=True, timeout=120)
        for kind, name in ((EDIT, "edits.jsonl"), (COMMENT, "comments.jsonl")):
            lines = (tmp_path / name).read_text(encoding="utf-8").splitlines()
            events = list(load_events(tmp_path / name, kind, diagnostics=Diagnostics()))
            assert len(lines) == len(events) == 2000
            assert [event_json_line(e) for e in events] == lines
