"""Wikitext talk pages: block splitting, signatures, and tree building."""

from __future__ import annotations

import json
import time
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talkdyn import (
    COMMENT,
    Diagnostics,
    RawTalkPage,
    extract_signature,
    load_events,
    split_comments,
    to_events,
)
from talkdyn.ingest import event_json_line, write_events_jsonl
from talkdyn.talkparser import PatternError, load_patterns, parse_file

from conftest import utc

FIXTURE_DIR = Path(__file__).parent / "fixtures" / "talkpages"
FIXTURE_NAMES = sorted(p.stem for p in FIXTURE_DIR.glob("*.txt"))


class TestFixtureCorpus:
    """Every committed page must reproduce its expected event stream exactly."""

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_events_byte_for_byte(self, name):
        events = parse_file(FIXTURE_DIR / f"{name}.txt")
        got = "".join(event_json_line(e) + "\n" for e in events)
        expected = (FIXTURE_DIR / f"{name}.expected.jsonl").read_text(encoding="utf-8")
        assert got == expected

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_round_trip_identity(self, name, tmp_path):
        events = parse_file(FIXTURE_DIR / f"{name}.txt")
        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl"
        write_events_jsonl(first, events)
        write_events_jsonl(second, load_events(first, COMMENT))
        assert first.read_bytes() == second.read_bytes()

    def test_corpus_is_complete(self):
        assert len(FIXTURE_NAMES) == 25


class TestSplitComments:
    def test_blocks_split_on_depth_change(self):
        page = RawTalkPage("A", "top level\n:reply\n:same reply continues\n::deeper\n")
        blocks = split_comments(page)
        assert blocks == [
            (0, "top level"),
            (1, "reply\nsame reply continues"),
            (2, "deeper"),
        ]

    def test_blank_lines_split_blocks(self):
        page = RawTalkPage("A", "one\n\ntwo\n")
        assert split_comments(page) == [(0, "one"), (0, "two")]

    def test_headings_are_not_blocks(self):
        page = RawTalkPage("A", "== Title ==\nbody\n")
        assert split_comments(page) == [(0, "body")]

    def test_indent_prefix_is_stripped_from_bodies(self):
        page = RawTalkPage("A", "::*text after mixed indent\n")
        assert split_comments(page) == [(3, "text after mixed indent")]


class TestExtractSignature:
    def test_full_signature(self):
        sig = extract_signature("Fine by me. [[User:Alice]] 10:30, 5 May 2006 (UTC)")
        assert sig.author == "Alice"
        assert sig.timestamp == utc(2006, 5, 5, 10, 30)

    def test_last_date_wins(self):
        body = ("quoting [[User:Old]] 09:00, 1 May 2006 (UTC) here, "
                "signed [[User:New]] 11:00, 3 May 2006 (UTC)")
        sig = extract_signature(body)
        assert sig.author == "New"
        assert sig.timestamp == utc(2006, 5, 3, 11, 0)

    def test_date_without_time(self):
        sig = extract_signature("done. 7 June 2006 (UTC)")
        assert sig.author is None
        assert sig.timestamp == utc(2006, 6, 7)

    def test_author_too_far_from_date_is_dropped(self):
        body = "[[User:Far]] " + "x" * 100 + " 10:00, 5 May 2006 (UTC)"
        sig = extract_signature(body)
        assert sig.timestamp == utc(2006, 5, 5, 10, 0)
        assert sig.author is None

    def test_author_only(self):
        sig = extract_signature("see my edit -- [[User:Alice|A]]")
        assert sig.author == "Alice"
        assert sig.timestamp is None

    def test_nothing_at_all(self):
        assert extract_signature("just some text") is None

    def test_implausible_year_is_not_a_signature(self):
        # A far-future date cannot be a posting time.
        sig = extract_signature("[[User:Alice]] 10:00, 5 May 2106 (UTC)")
        assert sig.timestamp is None
        assert sig.author == "Alice"

    def test_case_insensitive_user_prefix(self):
        sig = extract_signature("[[user:bob]] 10:00, 5 May 2006 (UTC)")
        assert sig.author == "bob"


HOSTILE_SHAPES = [
    "[[User:abc ", "[[User:a|", "[[User:a#", "[[User:a|b\n",
    "[[User:a" + " " * 50, "[[User:" + " " * 50,
]


def signature_dates():
    return st.builds(
        "{:02d}:{:02d}, {} {} {} (UTC)".format,
        st.integers(0, 23), st.integers(0, 59), st.integers(1, 28),
        st.sampled_from(["March", "Sep.", "december"]), st.sampled_from([2000, 2001, 2012, 2099]),
    )


hostile_bodies = st.lists(
    st.one_of(
        st.sampled_from(["[[User:", "[[User talk:", "[[user_talk:", "|", "#", "]]", "[", "\n"]),
        st.text(alphabet="ab _:]-", max_size=6),
        signature_dates(),
    ),
    max_size=30,
).map("".join)


class TestHostileBodies:
    """Unclosed and broken user links cost one pass, and never leak into an author."""

    @pytest.mark.parametrize("shape", HOSTILE_SHAPES)
    def test_four_thousand_copies_parse_fast(self, shape):
        body = shape * 4000 + " 12:04, 7 March 2007 (UTC)"
        start = time.perf_counter()
        sig = extract_signature(body)
        assert time.perf_counter() - start < 0.5
        assert sig.timestamp == utc(2007, 3, 7, 12, 4)

    @settings(max_examples=400, deadline=None)
    @given(hostile_bodies)
    def test_signature_stays_inside_its_body(self, body):
        sig = extract_signature(body)
        if sig is None:
            return
        assert 0 <= sig.span[0] <= sig.span[1] <= len(body)
        if sig.author is not None:
            assert not set(sig.author) & set("[]|#\n")
            assert body.startswith("[[", sig.span[0])
        if sig.timestamp is not None:
            assert utc(2001, 1, 1) <= sig.timestamp <= datetime.now(timezone.utc)


class TestToEventsDiagnostics:
    def test_tallies_cover_all_repairs(self):
        text = (
            "== One ==\n"
            "unsigned banner text\n"
            "\n"
            "signed. [[User:A]] 10:00, 5 May 2006 (UTC)\n"
            "::jumped reply. [[User:B]] 11:00, 5 May 2006 (UTC)\n"
            "\n"
            "== Two ==\n"
            ":orphan reply. 12:00, 5 May 2006 (UTC)\n"
            "dangling unsigned\n"
        )
        diag = Diagnostics()
        events = to_events(RawTalkPage("A", text), diagnostics=diag)
        assert len(events) == 3
        assert diag.tallies["headings"] == 2
        assert diag.tallies["unsigned_merged"] == 1
        assert diag.tallies["unsigned_dropped"] == 1
        assert diag.tallies["depth_jump"] == 1
        assert diag.tallies["orphan_reply"] == 1
        assert diag.tallies["comments_unattributed"] == 1

    def test_signature_after_now_leaves_the_comment_undated(self, tmp_path):
        text = "a. [[User:A]] 10:00, 5 May 2006 (UTC)\n"
        diag = Diagnostics()
        early = to_events(RawTalkPage("A", text), diagnostics=diag, now=utc(2006, 5, 4, 23, 59))
        assert [(e.author, e.timestamp) for e in early] == [("A", None)]
        assert diag.tallies["comments_undated"] == 1
        page = tmp_path / "A.txt"
        page.write_text(text, encoding="utf-8")
        exact = parse_file(page, now=utc(2006, 5, 5, 10))
        assert [e.timestamp for e in exact] == [utc(2006, 5, 5, 10)]

    def test_event_ids_follow_document_order(self):
        text = (
            "a. [[User:A]] 10:00, 5 May 2006 (UTC)\n"
            ":b. [[User:B]] 11:00, 5 May 2006 (UTC)\n"
        )
        events = to_events(RawTalkPage("A", text))
        assert [e.comment_id for e in events] == ["c0", "c1"]
        assert [e.doc_order for e in events] == [0, 1]


class TestPatternRegistry:
    def good_entry(self):
        return {
            "name": "iso",
            "regex": r"(?P<year>\d{4})-(?P<month>\d{2})-(?P<day>\d{2})",
        }

    def test_loads_and_applies_custom_patterns(self, tmp_path):
        registry = tmp_path / "patterns.json"
        registry.write_text(json.dumps([self.good_entry()]))
        patterns = load_patterns(registry)
        sig = extract_signature("[[User:A]] 2006-05-05", patterns)
        assert sig.timestamp == utc(2006, 5, 5)

    def test_missing_required_group(self, tmp_path):
        registry = tmp_path / "patterns.json"
        registry.write_text(json.dumps([{"name": "bad", "regex": r"(?P<year>\d{4})"}]))
        with pytest.raises(PatternError, match="missing groups"):
            load_patterns(registry)

    def test_unknown_group(self, tmp_path):
        registry = tmp_path / "patterns.json"
        entry = self.good_entry()
        entry["regex"] += r"(?P<tz>\w+)?"
        registry.write_text(json.dumps([entry]))
        with pytest.raises(PatternError, match="unknown groups"):
            load_patterns(registry)

    def test_uncompilable_regex(self, tmp_path):
        registry = tmp_path / "patterns.json"
        registry.write_text(json.dumps([{"name": "broken", "regex": "("}]))
        with pytest.raises(PatternError, match="compile"):
            load_patterns(registry)

    def test_empty_registry(self, tmp_path):
        registry = tmp_path / "patterns.json"
        registry.write_text("[]")
        with pytest.raises(PatternError, match="nonempty"):
            load_patterns(registry)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(PatternError, match="cannot load"):
            load_patterns(tmp_path / "absent.json")
