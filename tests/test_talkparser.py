"""Wikitext talk pages: block splitting, signatures, and tree building."""

from __future__ import annotations

import json
import re
import time
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from talkdyn import (
    COMMENT,
    CommentEvent,
    Diagnostics,
    RawTalkPage,
    extract_signature,
    load_events,
    split_comments,
    to_events,
)
from talkdyn.ingest import event_json_line, write_events_jsonl
from talkdyn.talkparser import (
    DEFAULT_DATE_PATTERNS, INDENT_CHARS, PatternError, _last_link, load_patterns, parse_file,
)

from conftest import (
    DATE_PATTERNS_ORACLE, _last_user_link_oracle, extract_signature_oracle, to_events_oracle, utc,
)

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


class TestToEventsTypes:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_to_events_returns_comment_events(self, name):
        page = RawTalkPage(name, (FIXTURE_DIR / f"{name}.txt").read_text(encoding="utf-8"))
        assert all(type(event) is CommentEvent for event in to_events(page))


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


# Both default forms, valid or not: hour 25 and minute 61, day 31 of February,
# unknown months, years before 2001 or after the fixed now below.
default_dates = st.builds(
    "{}{} {} {} (UTC)".format,
    st.sampled_from(["", "10:30, ", "25:61, ", "9:05, "]),
    st.sampled_from([5, 29, 31]),
    st.sampled_from(["May", "February", "Sep.", "december", "Foo"]),
    st.sampled_from([2000, 2006, 2012]),
)
numeric_dates = st.builds("{}-{}-{}".format, st.sampled_from([2006, 2012]),
                          st.sampled_from(["05", "2", "13"]), st.sampled_from(["05", "31"]))
# A date may sit inside a link's name or display text: that link ends after the date starts.
user_links = st.builds(
    "{}{}{}{}".format,
    st.sampled_from(["[[User:", "[[User talk:", "[[user_talk:", "[[ User_Talk :", "[[User\n:"]),
    st.one_of(st.text(alphabet="ab _", max_size=4), default_dates, numeric_dates),
    st.one_of(st.sampled_from(["", "|", "|Ab c", "#", "#top", "|a\nb"]),
              default_dates.map("|".__add__)),
    st.sampled_from(["]]", "]]", "]", "", "\n]]"]),
)
signature_bodies = st.lists(
    st.one_of(user_links, default_dates, numeric_dates,
              st.sampled_from(["[", "]", "[[", "]]", "\n", " ", "-- ", "x" * 81]),
              st.text(alphabet="ab _:|#-", max_size=5)),
    max_size=16,
).map("".join)
NUMERIC_REGISTRY = [
    re.compile(r"(?P<year>\d{4})-(?P<month>\d{1,2})-(?P<day>\d{1,2})"),
    *DEFAULT_DATE_PATTERNS,
]
# A clock on the days default_dates names, so that a date can fall on now's own day.
signature_nows = st.builds(
    lambda day, hour, minute: utc(*day, hour, minute),
    st.sampled_from([(2006, 5, 5), (2006, 5, 29), (2006, 5, 31), (2006, 9, 5), (2012, 2, 29),
                     (2012, 12, 31)]),
    st.sampled_from([0, 9, 10, 23]),
    st.sampled_from([0, 5, 30, 59]),
)


class TestSignatureMatchesTwoScanOracle:
    """One link scan per body finds the author the per-date rescan of body[:start] found."""

    @pytest.mark.parametrize("patterns", [None, NUMERIC_REGISTRY], ids=["default", "numeric"])
    @settings(max_examples=600, deadline=None)
    @given(body=signature_bodies)
    def test_same_author_timestamp_and_span(self, patterns, body):
        now = utc(2010, 6, 1)
        assert (extract_signature(body, patterns, now)
                == extract_signature_oracle(body, patterns, now))

    # The timed reading is after now and the date alone is not: no date ends there.
    @example(body="[[User:A]] 10:30, 5 May 2006 (UTC)", now=utc(2006, 5, 5, 10))
    # A month of 30 letters is no month, so the date before it wins.
    @example(body="[[User:A]] 5 May 2006 (UTC) 10:30, 5 " + "May" * 10 + " 2006 (UTC)",
             now=utc(2006, 5, 5, 10))
    # Two " (UTC)" within 25 characters: the later one is after now.
    @example(body="[[User:A]] 5 May 2006 (UTC) 5 Sep 2006 (UTC)", now=utc(2006, 5, 29))
    @example(body="5 May 2006 (UTC)9 May 2006 (UTC)", now=utc(2006, 5, 29))
    # A ')' right before the hour.
    @example(body="[[User:A]] )10:30, 5 May 2006 (UTC)", now=utc(2006, 5, 29))
    @example(body="[[User:A]] 1)9:05, 31 May 2006 (UTC)", now=utc(2006, 5, 5))
    @settings(max_examples=600, deadline=None)
    @given(body=signature_bodies, now=signature_nows)
    def test_same_on_the_days_of_the_dates(self, body, now):
        assert extract_signature(body, None, now) == extract_signature_oracle(body, None, now)

    # A time after now on now's own day does not fall back to its date at midnight,
    # in the default reader and in a registry that holds the date-only entry too.
    @pytest.mark.parametrize("patterns", [None, DEFAULT_DATE_PATTERNS], ids=["default", "registry"])
    def test_time_after_now_gives_no_date(self, patterns):
        now = utc(2006, 5, 5, 10)
        sig = extract_signature("[[User:A]] 10:30, 5 May 2006 (UTC)", patterns, now)
        assert (sig.author, sig.timestamp, sig.span) == ("A", None, (0, 10))
        assert extract_signature("10:30, 5 May 2006 (UTC)", patterns, now) is None

    # An impossible time still falls back to the date alone, from the day on.
    @pytest.mark.parametrize("patterns", [None, DEFAULT_DATE_PATTERNS], ids=["default", "registry"])
    def test_impossible_time_falls_back_to_the_date(self, patterns):
        sig = extract_signature("[[User:A]] 25:30, 5 May 2006 (UTC)", patterns, utc(2006, 5, 5, 10))
        assert (sig.author, sig.timestamp, sig.span) == ("A", utc(2006, 5, 5), (0, 34))

    def test_future_time_moves_on_to_the_earlier_date(self):
        body = "[[User:A]] 9:00, 4 May 2006 (UTC) [[User:B]] 10:30, 5 May 2006 (UTC)"
        for patterns in (None, DEFAULT_DATE_PATTERNS):
            sig = extract_signature(body, patterns, utc(2006, 5, 5, 10))
            assert (sig.author, sig.timestamp) == ("A", utc(2006, 5, 4, 9))


class TestLastLinkSearchedBack:
    """The backward search from end finds the link a forward scan of body[:end] finds last."""

    @example(body="[[[User:A]] [[[[User:B|c]]")
    @example(body="[[User:A]][[User:B")
    @settings(max_examples=400, deadline=None)
    @given(body=st.one_of(signature_bodies, hostile_bodies))
    def test_same_span_and_name_at_every_end(self, body):
        for end in range(len(body) + 1):
            got, want = _last_link(body, end), _last_user_link_oracle(body, end)
            assert (got and (got.span(), got["name"])) == (want and (want.span(), want["name"]))


def digit_runs(*lengths: int) -> st.SearchStrategy[str]:
    """Runs of ASCII digits, each as long as one of lengths (a length listed twice, twice as often)."""
    return st.sampled_from(lengths).flatmap(lambda n: st.text(alphabet="0123456789", min_size=n, max_size=n))


# Text made of the default patterns' own pieces: both date forms with digit
# runs of the right length or not, and digits, separators, months and "(UTC)"
# on their own.
short_runs, minute_runs, year_runs = digit_runs(1, 2, 3), digit_runs(2, 2, 1, 3), digit_runs(4, 4, 3, 5)
month_tokens = st.sampled_from(["May", "Sep.", "december", "Foo", "x.", ""])
date_pieces = st.lists(
    st.one_of(
        st.builds("{}:{}, {} {} {} (UTC)".format, short_runs, minute_runs, short_runs, month_tokens,
                  year_runs),
        st.builds("{} {} {} (UTC)".format, short_runs, month_tokens, year_runs),
        digit_runs(0, 1, 2, 3, 4, 5),
        st.sampled_from([":", ", ", " ", ",", ".", " (UTC)", "(UTC)", "May", "x"]),
    ),
    max_size=8,
).map("".join)


class TestDefaultPatternsMatchAsFirstWritten:
    r"""\d\d? and \d\d find what \d{1,2} and \d{2} found: the same spans and groups."""

    @settings(max_examples=1000)
    @given(text=st.one_of(date_pieces, signature_bodies))
    def test_same_finditer(self, text):
        for pattern, oracle in zip(DEFAULT_DATE_PATTERNS, DATE_PATTERNS_ORACLE, strict=True):
            assert ([(m.span(), m.groupdict()) for m in pattern.finditer(text)]
                    == [(m.span(), m.groupdict()) for m in oracle.finditer(text)])


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


# Pages of headings, blank lines, unsigned lines and signature bodies, each
# line indented by a run of ':*#' that may jump several levels.
indents = st.text(alphabet=INDENT_CHARS, max_size=4)
talk_pages = st.lists(
    st.one_of(
        st.builds("{}== {} =={}".format, st.sampled_from(["", "="]), st.text(alphabet="ab ", max_size=3),
                  st.sampled_from(["", "  "])),
        st.sampled_from(["", " "]),
        st.builds("{}{}".format, indents, st.text(alphabet="ab -", min_size=1, max_size=6)),
        st.builds("{}{}".format, indents, signature_bodies),
    ),
    max_size=14,
).map("\n".join)


class TestToEventsMatchesOracle:
    """Tallies counted once per page give the events and tallies of one tally per block."""

    @pytest.mark.parametrize("patterns", [None, NUMERIC_REGISTRY], ids=["default", "numeric"])
    @settings(max_examples=400, deadline=None)
    @given(text=talk_pages, now=signature_nows)
    def test_same_events_and_tallies(self, patterns, text, now):
        page = RawTalkPage("A", text)
        diag, oracle_diag = Diagnostics(), Diagnostics()
        assert (to_events(page, patterns, diag, now=now)
                == to_events_oracle(page, patterns, oracle_diag, now=now))
        assert diag.tallies == oracle_diag.tallies


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

    def test_registry_replaces_the_defaults(self, tmp_path):
        # README's registry of the default patterns, added to a custom one, brings them back.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        defaults = json.loads(readme.split("```json\n", 1)[1].split("```", 1)[0])
        body = "[[User:Al]] 10:30, 5 May 2006 (UTC)"
        registry = tmp_path / "patterns.json"
        registry.write_text(json.dumps([self.good_entry()]))
        assert extract_signature(body, load_patterns(registry)).timestamp is None
        registry.write_text(json.dumps([self.good_entry(), *defaults]))
        patterns = load_patterns(registry)
        assert [p.pattern for p in patterns[1:]] == [p.pattern for p in DEFAULT_DATE_PATTERNS]
        assert extract_signature(body, patterns).timestamp == utc(2006, 5, 5, 10, 30)

    def test_required_group_left_out_of_a_match_is_no_date(self):
        patterns = [re.compile(r"(?P<year>\d{4})-(?P<month>\d\d)(?:-(?P<day>\d\d))?")]
        sig = extract_signature("[[User:A]] 2006-05", patterns)
        assert (sig.author, sig.timestamp) == ("A", None)

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
