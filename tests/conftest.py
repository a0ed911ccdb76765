"""Shared fixtures and reference oracles.

The oracles here are deliberately naive: they recompute everything from the
definition, with no sliding-window reuse, no incremental counters, and no
vectorization, so an agreement failure always points at the optimized path.
"""

from __future__ import annotations

import csv
import json
import os
import random
import re
import sys
from collections import Counter, defaultdict
from datetime import date, datetime, timezone
from pathlib import Path
from statistics import median
from typing import NamedTuple, Sequence

import pytest

import talkdyn
from talkdyn import (
    ActivitySeries,
    CommentEvent,
    EditEvent,
    HIndexCounter,
    NoDatedCommentsError,
    PeakParams,
    talkparser,
)
from talkdyn.ingest import (
    COMMENT,
    COMMENT_FIELDS,
    EDIT_FIELDS,
    KINDS,
    Diagnostics,
    IngestError,
)
from talkdyn.timeseries import OutOfOrderError

START_DAY = date(2006, 1, 1)


def make_series(counts: Sequence[int], article: str = "A", kind: str = "edit",
                start: date = START_DAY) -> ActivitySeries:
    import numpy as np

    return ActivitySeries(article, kind, start, np.asarray(counts, dtype=np.int64))


def utc(year: int, month: int, day: int, hour: int = 0, minute: int = 0,
        second: int = 0) -> datetime:
    return datetime(year, month, day, hour, minute, second, tzinfo=timezone.utc)


def check_record_value(cls: type, fields: dict) -> None:
    """cls, built from fields by keyword or in order, is an immutable value of those fields.

    Assigning any field raises AttributeError, and hash and == go by the
    fields: a value with another first field (a text) differs.
    """
    by_name, in_order = cls(**fields), cls(*fields.values())
    assert [getattr(by_name, name) for name in fields] == list(fields.values())
    assert by_name == in_order and hash(by_name) == hash(in_order)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(by_name, name, value)
    first = next(iter(fields))
    other = cls(**{**fields, first: fields[first] + "x"})
    assert other != by_name and len({by_name, in_order, other}) == 2


# ---------------------------------------------------------------------------
# Peak-detection oracle: recompute each window median independently.


def median_oracle(counts: Sequence[int], halfwidth: int) -> list[float]:
    n = len(counts)
    return [
        float(median(counts[max(0, t - halfwidth): t + halfwidth + 1]))
        for t in range(n)
    ]


def trailing_median_oracle(counts: Sequence[int], window: int) -> list[float]:
    """Median of the window days strictly before each day, 0 when none exist."""
    return [
        float(median(counts[max(0, t - window): t])) if t else 0.0
        for t in range(len(counts))
    ]


def peak_days_oracle(counts: Sequence[int], params: PeakParams) -> list[int]:
    """Indices of peak days straight from the day-wise inequality."""
    medians = median_oracle(counts, params.window_halfwidth)
    return [
        t for t in range(len(counts))
        if counts[t] > params.c * max(medians[t], params.n_min)
    ]


def trailing_peak_days_oracle(counts: Sequence[int], params: PeakParams) -> list[int]:
    """Peak-day indices when day t sees only the window days before it."""
    out = []
    for t in range(len(counts)):
        window = counts[max(0, t - params.window_halfwidth): t]
        m = float(median(window)) if window else 0.0
        if counts[t] > params.c * max(m, params.n_min):
            out.append(t)
    return out


def runs_from_days(days: Sequence[int]) -> list[tuple[int, int]]:
    """Collapse sorted day indices into (start, length) runs."""
    runs: list[tuple[int, int]] = []
    for day in days:
        if runs and day == runs[-1][0] + runs[-1][1]:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            runs.append((day, 1))
    return runs


# ---------------------------------------------------------------------------
# Ingest oracle: the loader one line at a time, json.loads -> dict -> field
# checks -> timestamp -> event, as it ran before chunked ingest but under the
# one input contract.  The chunked loader must match it in events, tallies
# and messages.

_EARLIEST = datetime(2001, 1, 1, tzinfo=timezone.utc)


def parse_timestamp_oracle(text: object, now: datetime | None = None) -> datetime | None:
    """ASCII 'YYYY-MM-DDTHH:MM:SS' + 'Z' or '+00:00' within [2001-01-01, now], by slicing."""
    if not isinstance(text, str):
        return None
    if not ((len(text) == 20 and text[19] == "Z") or (len(text) == 25 and text[19:] == "+00:00")):
        return None
    if text[4] + text[7] + text[10] + text[13] + text[16] != "--T::":
        return None
    fields = [text[0:4], text[5:7], text[8:10], text[11:13], text[14:16], text[17:19]]
    if not all(f.isascii() and f.isdigit() for f in fields):
        return None
    try:
        ts = datetime(*map(int, fields), tzinfo=timezone.utc)
    except ValueError:
        return None
    if ts < _EARLIEST or (now is not None and ts > now):
        return None
    return ts


def _coerce_optional_oracle(value: object) -> str | None:
    if value is None or value == "":
        return None
    if isinstance(value, str):
        return value
    return None


def _surrogate_oracle(line_no: int, diagnostics: Diagnostics, **texts: str | None) -> bool:
    """Whether a text holds a surrogate code point, which UTF-8 cannot encode; such a
    record is dropped as bad_utf8, named by the first such field."""
    for field, text in texts.items():
        if text is not None and any("\ud800" <= char <= "\udfff" for char in text):
            try:
                text.encode("utf-8")
            except UnicodeEncodeError as exc:
                diagnostics.record(line_no, "bad_utf8", f"{field}: {exc}")
                return True
            raise AssertionError(f"{text!r} encodes")
    return False


def _comment_oracle(record: dict, line_no: int, diagnostics: Diagnostics,
                    now: datetime) -> CommentEvent | None:
    article = record.get("article")
    comment_id = record.get("id")
    if not isinstance(article, str) or not article:
        diagnostics.record(line_no, "bad_article", f"article={article!r}")
        return None
    if not isinstance(comment_id, str) or not comment_id:
        diagnostics.record(line_no, "bad_comment_id", f"id={comment_id!r}")
        return None
    depth, doc_order = record.get("depth"), record.get("ord")
    try:
        if type(depth) in (bool, float) or type(doc_order) in (bool, float):
            raise TypeError("a JSON boolean or float is not a count")
        for value in (depth, doc_order):
            if isinstance(value, str) and not (value.isascii() and value.removeprefix("-").isdigit()):
                raise ValueError(f"{value!r} is not ASCII digits with an optional '-'")
        depth, doc_order = int(depth), int(doc_order)
    except (TypeError, ValueError):
        diagnostics.record(line_no, "bad_int_field", f"depth/ord in {comment_id}")
        return None
    if depth >= 2**63 or doc_order >= 2**63:  # beyond int64
        diagnostics.record(line_no, "bad_int_field", f"depth/ord in {comment_id}")
        return None
    if depth < 0 or doc_order < 0:
        diagnostics.record(line_no, "negative_field", f"depth={depth} ord={doc_order}")
        return None
    parent = _coerce_optional_oracle(record.get("parent"))
    if (depth == 0) != (parent is None):
        diagnostics.record(line_no, "depth_parent_mismatch", f"depth={depth} parent={parent!r}")
        return None
    author = _coerce_optional_oracle(record.get("author"))
    if _surrogate_oracle(line_no, diagnostics, article=article, id=comment_id, parent=parent,
                         author=author):
        return None
    raw_ts = _coerce_optional_oracle(record.get("ts"))
    timestamp = None
    if raw_ts is None:
        diagnostics.tally("comments_undated")
    else:
        timestamp = parse_timestamp_oracle(raw_ts, now)
        if timestamp is None:
            diagnostics.tally("comment_ts_malformed")
            diagnostics.tally("comments_undated")
    return CommentEvent(sys.intern(article), comment_id, parent, depth, timestamp, author,
                        doc_order)


def _edit_oracle(record: dict, line_no: int, diagnostics: Diagnostics,
                 now: datetime) -> EditEvent | None:
    article = record.get("article")
    if not isinstance(article, str) or not article:
        diagnostics.record(line_no, "bad_article", f"article={article!r}")
        return None
    if _surrogate_oracle(line_no, diagnostics, article=article):
        return None
    timestamp = parse_timestamp_oracle(record.get("ts"), now)
    if timestamp is None:
        diagnostics.record(line_no, "edit_ts_malformed", f"ts={record.get('ts')!r}")
        return None
    return EditEvent(sys.intern(article), timestamp)


def _undecodable_oracle(text: str) -> str | None:
    """Why a text read with surrogateescape was not UTF-8: what the strict decoder says."""
    if not any("\udc80" <= char <= "\udcff" for char in text):
        return None
    try:
        text.encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeDecodeError as exc:
        return str(exc)
    raise AssertionError(f"{text!r} decodes")


def _records_jsonl_oracle(handle, diagnostics: Diagnostics):
    for line_no, line in enumerate(handle, start=1):
        if not line.strip():
            continue
        diagnostics.tally("lines_read")
        if reason := _undecodable_oracle(line):
            diagnostics.record(line_no, "bad_utf8", reason)
            continue
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:
            diagnostics.record(line_no, "bad_json", str(exc))
            continue
        if not isinstance(record, dict):
            diagnostics.record(line_no, "not_an_object", type(record).__name__)
            continue
        yield line_no, record


def _blank_row(cells: list[str]) -> bool:
    return not cells or len(cells) == 1 and not cells[0].strip()


def _records_csv_oracle(handle, diagnostics: Diagnostics, kind: str):
    """Rows as csv.DictReader reads them, each numbered by the physical line it ends on (the
    header's line plus its csv.reader's line_num: the DictReader's own is stale after a
    csv.Error); one the csv module cannot parse, or one with a field over the csv module's
    limit once the whole record is read, is dropped as bad_csv, and one whose only cell is
    blank to str.strip() is skipped uncounted, as the DictReader skips a row of no cells.
    The header is the first row that is not blank."""
    expected = COMMENT_FIELDS if kind == COMMENT else EDIT_FIELDS
    header_rows = csv.reader(handle)
    try:
        fieldnames = next((row for row in header_rows if not _blank_row(row)), None)
    except csv.Error as exc:
        raise IngestError(f"{diagnostics.source}:{header_rows.line_num}: {exc}") from None
    if fieldnames is None:
        return
    missing = [c for c in expected if c not in fieldnames]
    if missing:
        raise IngestError(f"{diagnostics.source}: missing CSV columns {missing}")
    reader = csv.DictReader(handle, fieldnames)
    header_line = header_rows.line_num
    limit = csv.field_size_limit()
    while True:
        csv.field_size_limit(sys.maxsize)
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            diagnostics.tally("lines_read")
            diagnostics.record(header_line + reader.reader.line_num, "bad_csv", str(exc))
            continue
        finally:
            csv.field_size_limit(limit)
        line_no = header_line + reader.reader.line_num
        cells = [cell for value in row.values()
                 for cell in (value if isinstance(value, list) else [value]) if cell is not None]
        too_long = max(map(len, cells), default=0) > limit
        if _blank_row(cells) and not too_long:
            continue
        diagnostics.tally("lines_read")
        if too_long:
            diagnostics.record(line_no, "bad_csv", f"field larger than field limit ({limit})")
            continue
        reason = next(filter(None, map(_undecodable_oracle, cells)), None)
        if reason:
            diagnostics.record(line_no, "bad_utf8", reason)
            continue
        yield line_no, row


def load_events_oracle(path, kind: str, *, fmt: str = "jsonl",
                       diagnostics: Diagnostics | None = None, now: datetime | None = None):
    """The per-line loader; now defaults to the clock, as load_events does.

    The file is read as text with surrogateescape, so a line (or CSV row)
    holding a byte that is not UTF-8 is read whole and dropped as bad_utf8.
    """
    if kind not in KINDS:
        raise IngestError(f"unknown event kind {kind!r}")
    if fmt not in ("jsonl", "csv"):
        raise IngestError(f"unknown input format {fmt!r}")
    diag = diagnostics if diagnostics is not None else Diagnostics(source=str(path))
    if not diag.source:
        diag.source = str(path)
    if now is None:
        now = datetime.now(timezone.utc)
    try:
        handle = open(path, "r", encoding="utf-8", errors="surrogateescape", newline="")
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    with handle:
        if fmt == "jsonl":
            records = _records_jsonl_oracle(handle, diag)
        else:
            records = _records_csv_oracle(handle, diag, kind)
        for line_no, record in records:
            if kind == COMMENT:
                event = _comment_oracle(record, line_no, diag, now)
            else:
                event = _edit_oracle(record, line_no, diag, now)
            if event is not None:
                diag.tally("events_used")
                yield event


def format_timestamp_oracle(ts: datetime) -> str:
    return ts.strftime("%Y-%m-%dT%H:%M:%SZ")


def event_json_line_oracle(event: EditEvent | CommentEvent) -> str:
    """The canonical line as json.dumps writes the event's record."""
    if isinstance(event, CommentEvent):
        stamp = format_timestamp_oracle(event.timestamp) if event.timestamp else None
        record = {"article": event.article_id, "id": event.comment_id, "parent": event.parent_id,
                  "depth": event.depth, "ts": stamp, "author": event.author, "ord": event.doc_order}
    else:
        record = {"article": event.article_id, "ts": format_timestamp_oracle(event.timestamp)}
    return json.dumps(record, ensure_ascii=False, separators=(",", ":"))


def build_series_oracle(events, kind: str) -> dict[str, ActivitySeries]:
    """Per-article daily series from one Counter of day ordinals per article."""
    import numpy as np

    per_article: dict[str, Counter] = {}
    for event in events:
        if event.timestamp is not None:
            per_article.setdefault(event.article_id, Counter())[event.timestamp.toordinal()] += 1
    out = {}
    for article, days in per_article.items():
        lo = min(days)
        counts = np.zeros(max(days) - lo + 1, dtype=np.int64)
        for ordinal, n in days.items():
            counts[ordinal - lo] = n
        out[article] = ActivitySeries(article, kind, date.fromordinal(lo), counts)
    return out


def stream_alerts_oracle(days, params: PeakParams) -> list[list[object]]:
    """Alert rows of closed (article, kind, day ordinal, count) days, from the definitions.

    Day t of a stream sees the window_halfwidth days before it, back to the
    stream's first day, a day without events counting 0.  It peaks when
    count > c * max(median of those days (0 for none), n_min); its ratio is
    count / max(median, n_min), and its tier is 3, 2 or 1 for a ratio of at
    least 4c, 2c or c.
    """
    history: dict[tuple[str, str], dict[int, int]] = defaultdict(dict)
    alerts: list[list[object]] = []
    for article, kind, ordinal, count in days:
        seen = history[article, kind]
        first = min(seen, default=ordinal)
        window = [seen.get(d, 0) for d in range(max(first, ordinal - params.window_halfwidth), ordinal)]
        floor = max(float(median(window)) if window else 0.0, float(params.n_min))
        if count > params.c * floor:
            ratio = count / floor
            tier = next((k for k, m in ((3, 4.0), (2, 2.0), (1, 1.0)) if ratio >= m * params.c), None)
            alerts.append([article, kind, date.fromordinal(ordinal), count, ratio, tier])
        seen[ordinal] = count
    return alerts


def simulate_watch_oracle(events_path, params: PeakParams, kind: str = COMMENT,
                          sort: bool = False, now: datetime | None = None) -> list[list[object]]:
    """The event-at-a-time watch replay over the per-line loader."""
    events = load_events_oracle(events_path, kind, diagnostics=Diagnostics(), now=now)
    closed: list[tuple[str, str, int, int]] = []
    if sort:
        days: dict[str, Counter] = defaultdict(Counter)
        for event in events:
            if event.timestamp is not None:
                days[event.article_id][event.timestamp.toordinal()] += 1
        for article in sorted(days):
            closed += [(article, kind, ordinal, days[article][ordinal])
                       for ordinal in sorted(days[article])]
        return stream_alerts_oracle(closed, params)
    open_days: dict[str, tuple[date, int]] = {}
    for event in events:
        if event.timestamp is None:
            continue
        day = event.timestamp.date()
        entry = open_days.get(event.article_id)
        if entry is None or day == entry[0]:
            open_days[event.article_id] = (day, 1 if entry is None else entry[1] + 1)
            continue
        if day < entry[0]:
            raise OutOfOrderError(
                f"{event.article_id}: event on {day} arrived after {entry[0]};"
                " rerun with --sort"
            )
        closed.append((event.article_id, kind, entry[0].toordinal(), entry[1]))
        open_days[event.article_id] = (day, 1)
    for article in sorted(open_days):
        day, count = open_days[article]
        closed.append((article, kind, day.toordinal(), count))
    return stream_alerts_oracle(closed, params)


# ---------------------------------------------------------------------------
# Signature oracle: every match of every pattern a candidate, tried latest end
# first, and the author link searched again in body[:date start] for each
# date, as the parser did before it scanned the links once per body.


# The default signature date patterns as first written, with \d{1,2} and \d{2}.
DATE_PATTERNS_ORACLE = (
    re.compile(
        r"(?P<hour>\d{1,2}):(?P<minute>\d{2}), "
        r"(?P<day>\d{1,2}) (?P<month>[A-Za-z]+\.?) (?P<year>\d{4}) \(UTC\)"
    ),
    re.compile(r"(?P<day>\d{1,2}) (?P<month>[A-Za-z]+\.?) (?P<year>\d{4}) \(UTC\)"),
)


def overlap_oracle(comment_runs, edit_runs, tolerance_days: int) -> tuple[int, int]:
    """(overlapping comment runs, articles with one): every day of every comment run
    against every edit peak day of its article."""
    edit_days: dict[str, set[int]] = defaultdict(set)
    for run in edit_runs:
        start = run.start_day.toordinal()
        edit_days[run.article_id].update(range(start, start + run.length))
    hits = [
        run for run in comment_runs
        if any(abs(day - edit_day) <= tolerance_days
               for day in range(run.start_day.toordinal(), run.start_day.toordinal() + run.length)
               for edit_day in edit_days[run.article_id])
    ]
    return len(hits), len({run.article_id for run in hits})


def anniversaries_oracle(runs) -> dict[str, int]:
    """Per article, the gaps of 364-366 days between consecutive sorted run starts."""
    starts: dict[str, list[int]] = defaultdict(list)
    for run in runs:
        starts[run.article_id].append(run.start_day.toordinal())
    out = {}
    for article, days in starts.items():
        days.sort()
        out[article] = sum(1 for a, b in zip(days, days[1:]) if 364 <= b - a <= 366)
    return out


def _resolve_month_oracle(token: str) -> int | None:
    token = token.strip().rstrip(".").lower()
    if token.isdecimal():
        month = int(token)
        return month if 1 <= month <= 12 else None
    return talkparser.MONTHS.get(token)


def _candidate_timestamp_oracle(match: re.Match) -> datetime | None:
    """The real UTC time a match names, at any distance from now; None for none."""
    parts = match.groupdict()
    if None in (parts["year"], parts["month"], parts["day"]):
        return None
    month = _resolve_month_oracle(parts["month"])
    if month is None:
        return None
    try:
        return datetime(int(parts["year"]), month, int(parts["day"]), int(parts.get("hour") or 0),
                        int(parts.get("minute") or 0), tzinfo=timezone.utc)
    except ValueError:
        return None


def _clean_author_oracle(raw: str) -> str:
    return raw.replace("_", " ").strip()


def _last_user_link_oracle(body: str, end: int | None = None):
    last = None
    for m in talkparser.USER_LINK_RE.finditer(body if end is None else body[:end]):
        last = m
    return last


def extract_signature_oracle(body: str, patterns=None, now: datetime | None = None):
    pats = DATE_PATTERNS_ORACLE if patterns is None else patterns
    now = datetime.now(timezone.utc) if now is None else now
    candidates = sorted(((m.end(), priority, m) for priority, pattern in enumerate(pats)
                         for m in pattern.finditer(body)), key=lambda item: (-item[0], item[1]))
    future_ends = set()  # a match naming a time after now leaves no date at its end
    for end, _, match in candidates:
        ts = None if end in future_ends else _candidate_timestamp_oracle(match)
        if ts is not None and ts > now:
            future_ends.add(end)
        if ts is None or not _EARLIEST <= ts <= now:
            continue
        link = _last_user_link_oracle(body, match.start())
        if link is not None and match.start() - link.end() <= talkparser.AUTHOR_WINDOW_CHARS:
            return talkparser.SignatureMatch(
                _clean_author_oracle(link.group("name")), ts, (link.start(), match.end()))
        return talkparser.SignatureMatch(None, ts, match.span())
    link = _last_user_link_oracle(body)
    if link is not None:
        return talkparser.SignatureMatch(
            _clean_author_oracle(link.group("name")), None, link.span())
    return None


def to_events_oracle(page, patterns=None, diagnostics: Diagnostics | None = None, *,
                     now: datetime | None = None) -> list[CommentEvent]:
    """A page's events as the parser built them with one tally per block and a stack
    of open comments, its signatures read by extract_signature_oracle."""
    diag = diagnostics if diagnostics is not None else Diagnostics(source=page.article_id)
    now = datetime.now(timezone.utc) if now is None else now
    events: list[CommentEvent] = []
    stack: list[tuple[int, int, str]] = []  # (raw indent, event depth, comment id)
    pending_unsigned = 0
    for item in talkparser._iter_page_items(page.text):
        if item is None:
            diag.tally("headings")
            diag.tally("unsigned_dropped", pending_unsigned)
            pending_unsigned = 0
            stack.clear()
            continue
        depth, body = item
        diag.tally("blocks")
        signature = extract_signature_oracle(body, patterns, now)
        if signature is None:
            pending_unsigned += 1
            continue
        diag.tally("unsigned_merged", pending_unsigned)
        pending_unsigned = 0
        if signature.timestamp is None:
            diag.tally("comments_undated")
        if signature.author is None:
            diag.tally("comments_unattributed")
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if stack:
            parent_raw, parent_depth, parent_id = stack[-1]
            if parent_raw != depth - 1:
                diag.tally("depth_jump")
            event_depth = parent_depth + 1
        else:
            if depth > 0:
                diag.tally("orphan_reply")
            parent_id = None
            event_depth = 0
        comment_id = f"c{len(events)}"
        events.append(CommentEvent(
            article_id=page.article_id, comment_id=comment_id, parent_id=parent_id,
            depth=event_depth, timestamp=signature.timestamp, author=signature.author,
            doc_order=len(events)))
        stack.append((depth, event_depth, comment_id))
    diag.tally("unsigned_dropped", pending_unsigned)
    return events


# ---------------------------------------------------------------------------
# h-index oracle: exhaustive theta scan over exact-level counts.


def h_scan_oracle(depth_counts: dict[int, int]) -> int:
    best = 0
    for theta in range(0, max(depth_counts, default=0) + 1):
        if depth_counts.get(theta, 0) >= theta:
            best = max(best, theta)
    return best


# ---------------------------------------------------------------------------
# Discussion oracles: the event-at-a-time tree, effective timestamps and
# h-trace replay, as they ran before trees became columns.


class TreeOracle(NamedTuple):
    article_id: str
    nodes: tuple[CommentEvent, ...]
    levels: dict[str, int]
    depth_counts: dict[int, int]


def build_tree_oracle(article_id: str, events, diagnostics: Diagnostics) -> TreeOracle:
    """Levels from the parent chain in document order; orphans start threads, first id wins."""
    ordered = sorted(events, key=lambda e: e.doc_order)
    nodes: list[CommentEvent] = []
    levels: dict[str, int] = {}
    depth_counts: Counter = Counter()
    for event in ordered:
        assert event.article_id == article_id
        if event.comment_id in levels:
            diagnostics.tally("duplicate_comment_id")
            continue
        if event.parent_id is None:
            level = 1
        elif event.parent_id in levels:
            level = levels[event.parent_id] + 1
        else:
            diagnostics.tally("orphan_comment")
            level = 1
        if event.depth + 1 != level:
            diagnostics.tally("depth_level_mismatch")
        nodes.append(event)
        levels[event.comment_id] = level
        depth_counts[level] += 1
    return TreeOracle(article_id, tuple(nodes), levels, dict(depth_counts))


def effective_timestamps_oracle(tree: TreeOracle) -> list[tuple[datetime, int, CommentEvent]]:
    """Each comment with the nearest preceding dated timestamp (first dated for a
    leading undated run), sorted by (timestamp, document order)."""
    first_dated = next((n.timestamp for n in tree.nodes if n.timestamp is not None), None)
    if first_dated is None:
        raise NoDatedCommentsError(f"no dated comments in {tree.article_id!r}")
    out: list[tuple[datetime, int, CommentEvent]] = []
    last_dated = first_dated
    for node in tree.nodes:
        if node.timestamp is not None:
            last_dated = node.timestamp
        out.append((last_dated, node.doc_order, node))
    out.sort(key=lambda item: (item[0], item[1]))
    return out


def h_trace_oracle(tree: TreeOracle) -> tuple[tuple[datetime, int], ...]:
    """Trace steps from one HIndexCounter insertion per comment, batched by timestamp."""
    counter = HIndexCounter()
    steps: list[tuple[datetime, int]] = []
    pending_ts: datetime | None = None
    h_before_batch = 0

    def flush(ts: datetime, h_now: int) -> None:
        if h_now > h_before_batch:
            if not steps:
                steps.append((ts, h_now))
            else:
                for value in range(h_before_batch + 1, h_now + 1):
                    steps.append((ts, value))

    for ts, _, node in effective_timestamps_oracle(tree):
        if pending_ts is not None and ts != pending_ts:
            flush(pending_ts, counter.h)
            h_before_batch = counter.h
        pending_ts = ts
        counter.insert(tree.levels[node.comment_id])
    if pending_ts is not None:
        flush(pending_ts, counter.h)
    return tuple(steps)


# ---------------------------------------------------------------------------
# Random forest generator for discussion tests.


def random_forest(rng: random.Random, article: str, n_nodes: int,
                  max_depth: int = 30, dated_fraction: float = 1.0) -> list[CommentEvent]:
    """Random reply forest as events in document order.

    Each node replies to a uniformly chosen earlier node, or starts a thread;
    the depth cap redirects too-deep replies to the root level.
    """
    events: list[CommentEvent] = []
    depths: list[int] = []
    t0 = utc(2006, 1, 1)
    for i in range(n_nodes):
        parent_idx = rng.randrange(-1, i) if i else -1
        if parent_idx >= 0 and depths[parent_idx] + 1 < max_depth:
            parent = f"c{parent_idx}"
            depth = depths[parent_idx] + 1
        else:
            parent = None
            depth = 0
        ts = None
        if rng.random() < dated_fraction:
            ts = t0.fromtimestamp(
                t0.timestamp() + rng.randrange(0, 5 * 365) * 86400
                + rng.randrange(0, 86400),
                tz=timezone.utc,
            )
        events.append(
            CommentEvent(
                article_id=article, comment_id=f"c{i}", parent_id=parent,
                depth=depth, timestamp=ts, author=f"u{rng.randrange(40)}",
                doc_order=i,
            )
        )
        depths.append(depth)
    return events


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


# ---------------------------------------------------------------------------
# Running the command line in a child process.


def talkdyn_cmd(*args: str) -> list[str]:
    """Argv that runs the CLI as a module; no console script need be installed."""
    return [sys.executable, "-m", "talkdyn", *args]


def talkdyn_env() -> dict[str, str]:
    """Environment whose PYTHONPATH starts at the talkdyn package this process imported.

    The child then runs the same code as the test, whatever the working
    directory and whether or not another copy is installed.
    """
    env = dict(os.environ)
    root = str(Path(talkdyn.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env


# ---------------------------------------------------------------------------
# Acceptance-criterion reporting: one status line per criterion, printed in
# the terminal summary so the verdicts survive pytest's output capture.


ACCEPTANCE_LINES: list[tuple[str, str, str]] = []


def record_criterion(name: str, status: str, detail: str = "") -> None:
    ACCEPTANCE_LINES.append((name, status, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, status, detail in ACCEPTANCE_LINES:
        suffix = f"  [{detail}]" if detail else ""
        terminalreporter.write_line(f"{status:4s} {name}{suffix}")
