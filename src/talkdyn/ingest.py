"""Event ingestion: edit and comment records in, dense per-day activity series out.

Input records arrive as JSON Lines (one object per line) or CSV with identical
column names.  Edit records carry {article, ts}; comment records carry
{article, id, parent, depth, ts, author, ord} where parent, ts and author may
be null (empty string in CSV).  A timestamp is ASCII 'YYYY-MM-DDTHH:MM:SS'
plus 'Z' or '+00:00' within [2001-01-01, now]; depth and ord are integers in
[0, 2**63).  Malformed lines never abort a load: each one is counted and
reported through a Diagnostics collector and processing moves on.  A comment
whose timestamp is unparseable keeps its structural fields and simply loses
the timestamp; an edit without a valid timestamp carries no information at
all and is dropped.

One loader, read_chunks, reads a bounded chunk of lines at a time: each line
is checked on its own, then the chunk's timestamps become int64 epoch seconds
in one vectorised pass.  A JSONL line in the exact shape event_json_line
writes (fixed key order, no spaces, unescaped non-empty strings, unsigned
integers of at most 18 digits) is matched by one compiled pattern per kind;
the match proves every field's type, so only the depth/parent rule is left
to check.  Every other line, and every CSV row, is decoded and checked field
by field under the same rules, with the same messages and tallies; the
pattern only reads the writer's spelling faster.  Everything else is built
on the chunk columns: load_events yields event objects, load_columns joins
them into whole-file Columns (whose series() feeds peak detection and whose
comment links feed the reply trees) without building any, and the streaming
watch replays the chunks' (article, day, count) runs.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import re
from collections import Counter
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

logger = logging.getLogger(__name__)

EDIT = "edit"
COMMENT = "comment"
KINDS = (EDIT, COMMENT)

# Wikis in this data model did not exist before 2001; anything earlier (or in
# the future) is a corrupt or unexpanded timestamp, not a real event time.
EARLIEST_TIMESTAMP = datetime(2001, 1, 1, tzinfo=timezone.utc)

COMMENT_FIELDS = ("article", "id", "parent", "depth", "ts", "author", "ord")
EDIT_FIELDS = ("article", "ts")

# depth and ord are counts in [0, 2**63): they become int64 columns.
_INT64_LIMIT = 1 << 63

_MAX_MESSAGES = 50

# Lines decoded and checked before their timestamps are parsed in one pass;
# a chunk of typical comment lines holds ~1 MB.
_CHUNK_LINES = 1 << 10


class IngestError(Exception):
    """Fatal ingestion failure (unreadable file, unknown format)."""


@dataclass(frozen=True, slots=True)
class EditEvent:
    article_id: str
    timestamp: datetime


@dataclass(frozen=True, slots=True)
class CommentEvent:
    """One talk-page comment.

    depth counts reply nesting (0 = thread starter), doc_order is the
    position of the comment in its page's source, and timestamp/author are
    absent when the signature could not be recovered.
    """

    article_id: str
    comment_id: str
    parent_id: str | None
    depth: int
    timestamp: datetime | None
    author: str | None
    doc_order: int


@dataclass(eq=False)
class ActivitySeries:
    """Dense daily counts for one article and one event kind.

    counts[i] is the number of events on start_day + i days; the first and
    last entries are nonzero by construction (the span is trimmed to the
    observed range).
    """

    article_id: str
    kind: str
    start_day: date
    counts: np.ndarray

    def day(self, index: int) -> date:
        return date.fromordinal(self.start_day.toordinal() + index)

    @property
    def end_day(self) -> date:
        return self.day(len(self.counts) - 1)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass
class Diagnostics:
    """Collector for per-line ingest problems and volume counters.

    tallies holds named counters (lines_read, events_used, per-error kinds);
    messages keeps the first few human-readable per-line errors so a report
    stays bounded no matter how dirty the input is.
    """

    source: str = ""
    tallies: Counter = field(default_factory=Counter)
    messages: list[str] = field(default_factory=list)

    def tally(self, key: str, n: int = 1) -> None:
        if n:
            self.tallies[key] += n

    def record(self, line_no: int, key: str, detail: str) -> None:
        self.tally(key)
        self.tally("lines_dropped")
        if len(self.messages) < _MAX_MESSAGES:
            self.messages.append(f"{self.source or 'input'}:{line_no}: {key}: {detail}")

    def rows(self) -> list[tuple[str, int]]:
        return sorted(self.tallies.items())


def parse_timestamp(text: str, *, now: datetime | None = None) -> datetime | None:
    """Parse 'YYYY-MM-DDTHH:MM:SSZ' (or +00:00 suffix) to an aware UTC datetime.

    Returns None for anything else, or outside [2001-01-01, now]; it is the
    loader's own rule (_epoch_seconds) applied to one value.
    """
    seconds = int(_epoch_seconds([text], now or _LATEST)[0])
    return None if seconds == UNDATED else _UNIX_EPOCH + seconds * _SECOND


def format_timestamp(ts: datetime) -> str:
    return ts.strftime("%Y-%m-%dT%H:%M:%SZ")


# ---------------------------------------------------------------------------
# Timestamps, a chunk at a time

UNDATED = -1  # epoch seconds of a record without a usable timestamp

_UNIX_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_EPOCH_ORDINAL = _UNIX_EPOCH.toordinal()
_SECOND = timedelta(seconds=1)
_LATEST = datetime.max.replace(tzinfo=timezone.utc)
_DAY_S = 86400
_EARLIEST_S = (EARLIEST_TIMESTAMP - _UNIX_EPOCH) // _SECOND

# The canonical shape 'YYYY-MM-DDTHH:MM:SS' + 'Z' or '+00:00', as code points.
_SHAPE_WIDTH = 25
_DIGIT_AT = np.array([0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18])
_SEPARATOR_AT = np.array([4, 7, 10, 13, 16])
_SEPARATORS = np.array([ord(c) for c in "--T::"], dtype=np.uint32)
_UTC_SUFFIX = np.array([ord(c) for c in "+00:00"], dtype=np.uint32)
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


def _epoch_seconds(values: list, now: datetime) -> np.ndarray:
    """Epoch seconds of every value that is a timestamp, UNDATED for the others.

    A timestamp is an ASCII string 'YYYY-MM-DDTHH:MM:SS' plus 'Z' or
    '+00:00' naming a real time in [2001-01-01, now].  Every value is
    decided at once by arithmetic on its digits (month lengths, leap years,
    h < 24, m/s < 60, then the window), so one impossible date costs nothing
    extra.
    """
    n = len(values)
    out = np.full(n, UNDATED, dtype=np.int64)
    if n == 0:
        return out
    texts = [v if isinstance(v, str) else "" for v in values]
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=n)
    chars = np.array(texts, dtype=f"U{_SHAPE_WIDTH}").view(np.uint32).reshape(n, _SHAPE_WIDTH)
    digits = chars[:, _DIGIT_AT].astype(np.int64) - ord("0")
    shaped = (
        (((lengths == 20) & (chars[:, 19] == ord("Z")))
         | ((lengths == 25) & (chars[:, 19:] == _UTC_SUFFIX).all(axis=1)))
        & (chars[:, _SEPARATOR_AT] == _SEPARATORS).all(axis=1)
        & ((digits >= 0) & (digits <= 9)).all(axis=1)
    )
    year = digits[:, :4] @ np.array([1000, 100, 10, 1])
    month, day, hour, minute, second = (digits[:, 4::2] * 10 + digits[:, 5::2]).T
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _MONTH_DAYS[np.clip(month, 0, 12)] + (leap & (month == 2))
    first_of_month = (year - 1970).astype("datetime64[Y]").astype("datetime64[M]") + (month - 1)
    days = first_of_month.astype("datetime64[D]").astype(np.int64) + (day - 1)
    seconds = days * _DAY_S + hour * 3600 + minute * 60 + second
    valid = (
        shaped & (month >= 1) & (month <= 12) & (day >= 1) & (day <= month_days)
        & (hour < 24) & (minute < 60) & (second < 60)
        & (seconds >= _EARLIEST_S) & (seconds <= (now - _UNIX_EPOCH) // _SECOND)
    )
    out[valid] = seconds[valid]
    return out


def _day_ordinals(seconds: np.ndarray) -> np.ndarray:
    """Proleptic Gregorian ordinal (date.toordinal) of the UTC day of each epoch second."""
    return seconds // _DAY_S + _EPOCH_ORDINAL


# ---------------------------------------------------------------------------
# Record checks: the one place a line is accepted or rejected


class _BadRecord(Exception):
    """A line that cannot become an event; args are (tally key, message detail)."""


def _coerce_optional(value: object) -> str | None:
    # CSV has no null; empty string plays that role in both formats.
    if value is None or value == "":
        return None
    if isinstance(value, str):
        return value
    return None


def _decode_json(line: str) -> dict:
    try:
        record = json.loads(line)
    except (ValueError, RecursionError) as exc:
        # Besides JSONDecodeError: an integer of more than 4300 digits, or nesting too deep.
        raise _BadRecord("bad_json", str(exc)) from None
    if not isinstance(record, dict):
        raise _BadRecord("not_an_object", type(record).__name__)
    return record


def _check_comment(record: dict) -> tuple[str, str | None, tuple]:
    """(article, timestamp text or None, (id, parent, depth, author, ord)) of a comment."""
    article = record.get("article")
    comment_id = record.get("id")
    if not isinstance(article, str) or not article:
        raise _BadRecord("bad_article", f"article={article!r}")
    if not isinstance(comment_id, str) or not comment_id:
        raise _BadRecord("bad_comment_id", f"id={comment_id!r}")
    depth, doc_order = record.get("depth"), record.get("ord")
    try:
        # int() would truncate a JSON float (1.7 -> 1) and take true as 1.
        if isinstance(depth, (bool, float)) or isinstance(doc_order, (bool, float)):
            raise ValueError
        depth, doc_order = int(depth), int(doc_order)
        if max(depth, doc_order) >= _INT64_LIMIT:
            raise ValueError
    except (TypeError, ValueError):
        raise _BadRecord("bad_int_field", f"depth/ord in {comment_id}") from None
    if depth < 0 or doc_order < 0:
        raise _BadRecord("negative_field", f"depth={depth} ord={doc_order}")
    parent = _coerce_optional(record.get("parent"))
    if (depth == 0) != (parent is None):
        raise _depth_parent_mismatch(depth, parent)
    author = _coerce_optional(record.get("author"))
    return article, _coerce_optional(record.get("ts")), (comment_id, parent, depth, author, doc_order)


def _check_edit(record: dict) -> tuple[str, object, None]:
    """(article, raw timestamp value, None) of an edit; the timestamp is checked per chunk."""
    article = record.get("article")
    if not isinstance(article, str) or not article:
        raise _BadRecord("bad_article", f"article={article!r}")
    return article, record.get("ts"), None


def _depth_parent_mismatch(depth: int, parent: str | None) -> _BadRecord:
    return _BadRecord("depth_parent_mismatch", f"depth={depth} parent={parent!r}")


# The exact lines event_json_line writes.  A string is non-empty (an empty one
# means null to _coerce_optional) and holds no quote, backslash or control
# character, so it needs no unescaping; an integer is ASCII digits without sign
# or leading zero, at most 18 of them, so int() is exact and cheap.
_TEXT = r'"([^"\\\x00-\x1f]+)"'
_TEXT_OR_NULL = r"(?:null|" + _TEXT + r")"
_COUNT = r"(0|[1-9][0-9]{0,17})"
_CANONICAL_COMMENT = re.compile(
    r'\{"article":' + _TEXT + r',"id":' + _TEXT + r',"parent":' + _TEXT_OR_NULL
    + r',"depth":' + _COUNT + r',"ts":' + _TEXT_OR_NULL + r',"author":' + _TEXT_OR_NULL
    + r',"ord":' + _COUNT + r'\}\n?'
).fullmatch
_CANONICAL_EDIT = re.compile(r'\{"article":' + _TEXT + r',"ts":' + _TEXT + r'\}\n?').fullmatch


def _comment_line(line: str) -> tuple[str, str | None, tuple]:
    """_check_comment of a JSONL line; a canonical one needs only the depth/parent rule."""
    match = _CANONICAL_COMMENT(line)
    if match is None:
        return _check_comment(_decode_json(line))
    article, comment_id, parent, depth, stamp, author, doc_order = match.groups()
    depth = int(depth)
    if (depth == 0) != (parent is None):
        raise _depth_parent_mismatch(depth, parent)
    return article, stamp, (comment_id, parent, depth, author, int(doc_order))


def _edit_line(line: str) -> tuple[str, object, None]:
    """_check_edit of a JSONL line; a canonical one is already checked."""
    match = _CANONICAL_EDIT(line)
    if match is None:
        return _check_edit(_decode_json(line))
    article, stamp = match.groups()
    return article, stamp, None


def _jsonl_lines(handle: io.TextIOBase) -> Iterator[tuple[int, str]]:
    for line_no, line in enumerate(handle, start=1):
        if line.strip():
            yield line_no, line


def _csv_rows(handle: io.TextIOBase, kind: str, source: str) -> Iterator[tuple[int, dict]]:
    expected = COMMENT_FIELDS if kind == COMMENT else EDIT_FIELDS
    reader = csv.DictReader(handle)
    if reader.fieldnames is None:
        return
    missing = [c for c in expected if c not in reader.fieldnames]
    if missing:
        raise IngestError(f"{source}: missing CSV columns {missing}")
    yield from enumerate(reader, start=2)


# ---------------------------------------------------------------------------
# The chunked loader


@dataclass(frozen=True, eq=False)
class Chunk:
    """The usable records of one bounded run of input lines, in line order.

    codes index names, which one load shares across its chunks and extends
    as new articles appear (one string per article, however many lines name
    it).  seconds holds each record's epoch seconds, UNDATED for a comment
    without a usable timestamp; every edit kept is dated.  comments holds
    (id, parent, depth, author, ord) per record of a comment load.
    """

    names: list[str]
    codes: np.ndarray
    seconds: np.ndarray
    comments: list[tuple]

    def day_runs(self) -> list[tuple[str, int, int]]:
        """Consecutive dated records of one article and day as (article, day ordinal, count)."""
        dated = self.seconds != UNDATED
        codes, days = self.codes[dated], _day_ordinals(self.seconds[dated])
        if codes.size == 0:
            return []
        starts = np.flatnonzero(
            np.concatenate(([True], (codes[1:] != codes[:-1]) | (days[1:] != days[:-1])))
        )
        counts = np.diff(np.append(starts, codes.size))
        names = self.names
        return [
            (names[code], day, count)
            for code, day, count in zip(codes[starts].tolist(), days[starts].tolist(), counts.tolist())
        ]


def read_chunks(
    path: str | Path,
    kind: str,
    *,
    fmt: str = "jsonl",
    diagnostics: Diagnostics | None = None,
    now: datetime | None = None,
) -> Iterator[Chunk]:
    """Stream the usable records of one kind from a JSONL or CSV file, a chunk at a time.

    Each line is decoded and checked on its own; every unusable line is
    recorded in diagnostics in line order and skipped.  Timestamps outside
    [2001-01-01, now] are unusable; now defaults to the clock, read once when
    loading starts.  Memory stays bounded by the chunk size and the number of
    distinct articles.  Only an unreadable file or unknown format/kind raises.
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
    articles: dict[str, int] = {}
    names: list[str] = []
    try:
        handle = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    with handle:
        if fmt == "jsonl":
            numbered = _jsonl_lines(handle)
            check = _comment_line if kind == COMMENT else _edit_line
        else:
            numbered = _csv_rows(handle, kind, diag.source)
            check = _check_comment if kind == COMMENT else _check_edit
        while block := list(islice(numbered, _CHUNK_LINES)):
            yield _check_block(block, kind, check, articles, names, now, diag)


def _check_block(
    block: list[tuple[int, object]],
    kind: str,
    check: Callable[[object], tuple[str, object, tuple | None]],
    articles: dict[str, int],
    names: list[str],
    now: datetime,
    diag: Diagnostics,
) -> Chunk:
    """Check one block of numbered lines; record its failures in line order."""
    failures: list[tuple[int, str, str]] = []
    line_nos: list[int] = []
    codes: list[int] = []
    stamps: list[object] = []
    extras: list[tuple | None] = []
    for line_no, raw in block:
        try:
            article, stamp, extra = check(raw)
        except _BadRecord as bad:
            failures.append((line_no, *bad.args))
            continue
        code = articles.get(article)
        if code is None:
            code = articles[article] = len(names)
            names.append(article)
        line_nos.append(line_no)
        codes.append(code)
        stamps.append(stamp)
        extras.append(extra)
    seconds = _epoch_seconds(stamps, now)
    code_array = np.array(codes, dtype=np.int64)
    undated = np.flatnonzero(seconds == UNDATED)
    if kind == EDIT:
        extras = []
        if undated.size:
            # An edit without a time is dropped; its message joins the others in line order.
            failures.extend(
                (line_nos[i], "edit_ts_malformed", f"ts={stamps[i]!r}") for i in undated.tolist()
            )
            failures.sort()
            keep = seconds != UNDATED
            code_array, seconds = code_array[keep], seconds[keep]
    elif undated.size:
        diag.tally("comments_undated", int(undated.size))
        malformed = int(undated.size) - stamps.count(None)
        if malformed:
            diag.tally("comment_ts_malformed", malformed)
    diag.tally("lines_read", len(block))
    for failure in failures:
        diag.record(*failure)
    if seconds.size:
        diag.tally("events_used", int(seconds.size))
    return Chunk(names, code_array, seconds, extras)


def load_events(
    path: str | Path,
    kind: str,
    *,
    fmt: str = "jsonl",
    diagnostics: Diagnostics | None = None,
    now: datetime | None = None,
) -> Iterator[EditEvent | CommentEvent]:
    """Stream events of one kind from a JSONL or CSV file.

    The events are built from read_chunks' checked columns, so they pass
    exactly the checks every other reader sees.  Unusable lines are tallied
    in diagnostics and skipped; only an unreadable file or unknown
    format/kind raises.
    """
    for chunk in read_chunks(path, kind, fmt=fmt, diagnostics=diagnostics, now=now):
        names = chunk.names
        stamps = [
            None if s == UNDATED else datetime.fromtimestamp(s, timezone.utc)
            for s in chunk.seconds.tolist()
        ]
        if kind == COMMENT:
            for code, ts, (comment_id, parent, depth, author, doc_order) in zip(
                chunk.codes.tolist(), stamps, chunk.comments
            ):
                yield CommentEvent(names[code], comment_id, parent, depth, ts, author, doc_order)
        else:
            for code, ts in zip(chunk.codes.tolist(), stamps):
                yield EditEvent(names[code], ts)


# ---------------------------------------------------------------------------
# Whole-file columns and per-article daily series

NO_PARENT = -1  # parent code of a thread starter


@dataclass(frozen=True, eq=False)
class Columns:
    """Every usable record of one load, as whole-file int64 columns in line order.

    names, articles (codes into names) and seconds are the chunk columns
    joined.  A comment load also fills ids and parents, codes of the id
    texts shared across the load (NO_PARENT for a thread starter), depths
    and orders (document order); an edit load leaves them empty.
    """

    kind: str
    names: list[str]
    articles: np.ndarray
    seconds: np.ndarray
    ids: np.ndarray
    parents: np.ndarray
    depths: np.ndarray
    orders: np.ndarray

    def series(self) -> dict[str, ActivitySeries]:
        """Per-article dense daily series of the dated records, in article code order.

        Only (article, day) multiplicities matter, never the record order.
        """
        dated = self.seconds != UNDATED
        order = np.argsort(self.articles[dated])
        codes, days = self.articles[dated][order], _day_ordinals(self.seconds[dated][order])
        starts = np.flatnonzero(np.diff(codes, prepend=-1)).tolist()
        out: dict[str, ActivitySeries] = {}
        for lo, hi in zip(starts, [*starts[1:], codes.size]):
            first = int(days[lo:hi].min())
            article = self.names[codes[lo]]
            counts = np.bincount(days[lo:hi] - first).astype(np.int64, copy=False)
            out[article] = ActivitySeries(article, self.kind, date.fromordinal(first), counts)
        return out

    def latest(self) -> datetime | None:
        """The latest timestamp; None when nothing is dated."""
        latest = int(self.seconds.max(initial=UNDATED))
        return None if latest == UNDATED else datetime.fromtimestamp(latest, timezone.utc)


def _gather(chunks: Iterable[Chunk], kind: str) -> Columns:
    """Join chunks into one Columns; each id or parent text gets one code per load."""
    names: list[str] = []
    codes, seconds, links, numbers = [], [], [], []
    texts: dict[str | None, int] = {None: NO_PARENT}
    for chunk in chunks:
        names = chunk.names  # one list shared by every chunk, complete after the last
        codes.append(chunk.codes)
        seconds.append(chunk.seconds)
        if chunk.comments:
            ids, parents, depths, _, orders = zip(*chunk.comments)
            links.append(np.array(
                [[texts.setdefault(text, len(texts)) for text in column] for column in (ids, parents)],
                dtype=np.int64,
            ))
            numbers.append(np.array((depths, orders), dtype=np.int64))
    empty = np.empty((2, 0), dtype=np.int64)
    ids, parents = np.concatenate([empty, *links], axis=1)
    depths, orders = np.concatenate([empty, *numbers], axis=1)
    return Columns(kind, names, np.concatenate([empty[0], *codes]),
                   np.concatenate([empty[0], *seconds]), ids, parents, depths, orders)


def load_columns(
    path: str | Path,
    kind: str,
    *,
    fmt: str = "jsonl",
    diagnostics: Diagnostics | None = None,
    now: datetime | None = None,
) -> Columns:
    """Every usable record of one file as whole-file columns; no event object is built.

    read_chunks checks and tallies every line, so the columns hold exactly
    the records load_events would yield, in the same order.
    """
    return _gather(read_chunks(path, kind, fmt=fmt, diagnostics=diagnostics, now=now), kind)


def event_columns(events: Iterable[EditEvent | CommentEvent], kind: str) -> Columns:
    """The columns load_columns gives for a file holding these events in this order."""
    events = list(events)
    articles = {name: code for code, name in enumerate(dict.fromkeys(e.article_id for e in events))}
    return _gather([Chunk(
        list(articles),
        np.array([articles[e.article_id] for e in events], dtype=np.int64),
        np.array([UNDATED if e.timestamp is None else (e.timestamp - _UNIX_EPOCH) // _SECOND
                  for e in events], dtype=np.int64),
        [(e.comment_id, e.parent_id, e.depth, e.author, e.doc_order) for e in events]
        if kind == COMMENT else [],
    )], kind)


def build_series(events: Iterable[EditEvent | CommentEvent], kind: str) -> dict[str, ActivitySeries]:
    """Aggregate events into per-article daily series.

    Events without a timestamp contribute nothing (they have no day).  The
    result is keyed by article id; articles with no dated events are absent.
    Input order is irrelevant: only (article, day) multiplicities matter.
    """
    return event_columns(events, kind).series()


def comment_record(event: CommentEvent) -> dict:
    """Comment event as a plain dict in canonical field order."""
    return {
        "article": event.article_id,
        "id": event.comment_id,
        "parent": event.parent_id,
        "depth": event.depth,
        "ts": format_timestamp(event.timestamp) if event.timestamp else None,
        "author": event.author,
        "ord": event.doc_order,
    }


def edit_record(event: EditEvent) -> dict:
    return {"article": event.article_id, "ts": format_timestamp(event.timestamp)}


def event_json_line(event: EditEvent | CommentEvent) -> str:
    """Canonical one-line JSON for an event: fixed key order, no spaces.

    Serializing the same event always yields the same bytes, so round trips
    through dump/load are byte-identical.  The loader's canonical patterns
    match this shape; a change here must change them too.
    """
    if isinstance(event, CommentEvent):
        record = comment_record(event)
    else:
        record = edit_record(event)
    return json.dumps(record, ensure_ascii=False, separators=(",", ":"))


def write_events_jsonl(path: str | Path, events: Iterable[EditEvent | CommentEvent]) -> int:
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(event_json_line(event))
            handle.write("\n")
            count += 1
    return count
