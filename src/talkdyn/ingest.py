"""Event ingestion: edit and comment records in, per-day activity counts out.

Input records arrive as JSON Lines (one object per line) or CSV with identical
column names.  Edit records carry {article, ts}; comment records carry
{article, id, parent, depth, ts, author, ord} where parent, ts and author may
be null (empty string in CSV).  A timestamp is ASCII 'YYYY-MM-DDTHH:MM:SS'
plus 'Z' or '+00:00' within [2001-01-01, now]; depth and ord are integers in
[0, 2**63), given as a JSON integer or as a string of ASCII digits.
Malformed lines never abort a load: each one is counted and reported through
a Diagnostics collector and processing moves on.  A comment whose timestamp
is unparseable keeps its structural fields and simply loses the timestamp;
an edit without a valid timestamp carries no information at all and is
dropped.

Input is bytes.  A line ends at '\n', '\r\n' or a lone '\r', and each line
is decoded as UTF-8 on its own: one that does not decode is dropped as
bad_utf8 and the load goes on.

One loader, read_chunks, reads a bounded block of lines at a time: about
384 KiB of whole JSONL lines a block, memory bounded by the block plus the
longest line, or a fixed number of CSV rows.  A JSONL
line in the exact shape event_json_line writes (fixed key order, no spaces,
non-empty strings without quote, backslash or control byte, unsigned
integers of at most 18 digits) is read from its bytes: the block's quote,
backslash and control bytes are indexed once, and array comparisons decide
which lines hold the key bytes where the quotes put them, which counts are
canonical and which obey the depth/parent rule.  Every other line, and every
CSV row, is decoded and checked field by field under the same rules, with
the same messages and tallies, and its checked fields are spelled back as
bytes beside the block; the byte path only reads the writer's spelling
faster.  Then every record's timestamp becomes int64 epoch seconds in one
vectorised pass over a (rows, 25) byte matrix, and one kernel groups a
chunk's article names (and, for load_columns, its comment ids and parents)
by their bytes, so each distinct text is decoded or looked up once a
chunk.  Everything else is built on the chunk
columns: load_events yields event objects, load_columns joins them into
whole-file Columns without building any (whose day_counts() hold every
(article, day) count, which peak detection reads, series() spreads them into
dense per-article series, and comment links feed the reply trees), and the
streaming watch feeds the chunks' (article, day, count) runs to its
scorer; one run kernel counts both.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import logging
import re
from collections import Counter
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from itertools import islice, zip_longest
from json.encoder import encode_basestring as _quote
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

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

# depth and ord are counts in [0, 2**63): they become int64 columns.  A string
# spells one only as ASCII digits with an optional '-' (then negative_field).
_INT64_LIMIT = 1 << 63
_INT_TEXT = re.compile(r"-?[0-9]+").fullmatch

_MAX_MESSAGES = 50

# JSONL bytes read and checked as one block of whole lines (~3,500 typical
# comment lines), whose array operations then cost little per line; a CSV
# block is _CHUNK_LINES rows.  Each block costs a few hundred array operations
# of fixed cost; checking one holds ~3.5 bytes a block byte beside the block.
_CHUNK_BYTES = 3 << 17
_CHUNK_LINES = 1 << 11
# Bytes of a block checked as UTF-8 at a time: at least 4, the longest character,
# so every slice decodes at least one.
_UTF8_SLICE = 1 << 16


class IngestError(Exception):
    """Fatal ingestion failure (unreadable file, unknown format)."""


class OutOfOrderError(ValueError):
    """A streamed day arrived at or before the day already consumed."""


class EditEvent(NamedTuple):
    """One article edit.

    A named tuple, one built per record: immutable, hashed and compared by
    its fields, and like any tuple it unpacks, indexes, orders and equals a
    plain tuple of its fields.
    """

    article_id: str
    timestamp: datetime


class CommentEvent(NamedTuple):
    """One talk-page comment.

    depth counts reply nesting (0 = thread starter), doc_order is the
    position of the comment in its page's source, and timestamp/author are
    absent when the signature could not be recovered.  A named tuple, as
    EditEvent is.
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
    raw = text.encode("utf-8", "surrogatepass") if isinstance(text, str) else b""
    chars = np.frombuffer(raw[:_SHAPE_WIDTH].ljust(_SHAPE_WIDTH, b"\0"), dtype=np.uint8)
    seconds = int(_epoch_seconds(chars[None], np.array([len(raw)]), now or _LATEST)[0])
    return None if seconds == UNDATED else _UNIX_EPOCH + seconds * _SECOND


_TWO = [f"{n:02d}" for n in range(60)]  # a month, day, hour, minute or second in two digits


def format_timestamp(ts: datetime) -> str:
    """'YYYY-MM-DDTHH:MM:SSZ' of ts's own fields, each zero-padded to its width.

    The same text as isoformat()[:19] + 'Z' for any year, and as strftime
    writes it for years 1000-9999; microseconds and the UTC offset are not
    written.
    """
    return (f"{ts.year:04d}-{_TWO[ts.month]}-{_TWO[ts.day]}"
            f"T{_TWO[ts.hour]}:{_TWO[ts.minute]}:{_TWO[ts.second]}Z")


# ---------------------------------------------------------------------------
# Timestamps, a chunk at a time

UNDATED = -1  # epoch seconds of a record without a usable timestamp

_UNIX_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_EPOCH_ORDINAL = _UNIX_EPOCH.toordinal()
_SECOND = timedelta(seconds=1)
_LATEST = datetime.max.replace(tzinfo=timezone.utc)
_DAY_S = 86400
_EARLIEST_S = (EARLIEST_TIMESTAMP - _UNIX_EPOCH) // _SECOND

# The canonical shape 'YYYY-MM-DDTHH:MM:SS' + 'Z' or '+00:00', as bytes.
_SHAPE_WIDTH = 25
_DIGIT_AT = np.array([0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18])
_SEPARATOR_AT = np.array([4, 7, 10, 13, 16])
_SEPARATORS = np.frombuffer(b"--T::", dtype=np.uint8)
_UTC_SUFFIX = np.frombuffer(b"+00:00", dtype=np.uint8)
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])
_DAYS_BEFORE_MONTH = np.concatenate(([0], np.cumsum(_MONTH_DAYS)[:-1]))
_PAIR_LIMITS = np.array([100, 100, 13, 32, 24, 60, 60])  # each two-digit field stays below
# Per year 0-9999: whether it is a leap year, and its first day in days since 1970-01-01.
_YEARS = np.arange(10_000)
_LEAP = (_YEARS % 4 == 0) & ((_YEARS % 100 != 0) | (_YEARS % 400 == 0))
_YEAR_START = np.concatenate(([0], np.cumsum(365 + _LEAP[:-1]))) - (365 * 1970 + _LEAP[:1970].sum())


def _epoch_seconds(chars: np.ndarray, widths: np.ndarray, now: datetime) -> np.ndarray:
    """Epoch seconds of every row that spells a timestamp, UNDATED for the others.

    Row i of the (rows, 25) uint8 matrix chars holds the first bytes of a
    UTF-8 text widths[i] bytes long.  A timestamp is 'YYYY-MM-DDTHH:MM:SS'
    plus 'Z' or '+00:00', every byte of it ASCII, naming a real time in
    [2001-01-01, now].  Every row is decided at once by arithmetic on its
    digits (month lengths, leap years, h < 24, m/s < 60, then the window),
    so one impossible date costs nothing extra.
    """
    digits = chars[:, _DIGIT_AT] - np.uint8(ord("0"))  # a byte below '0' wraps past 9
    # century, year, month, day, hour, minute, second
    pairs = digits[:, 0::2].astype(np.int64) * 10 + digits[:, 1::2]
    shaped = (
        (((widths == 20) & (chars[:, 19] == ord("Z")))
         | ((widths == _SHAPE_WIDTH) & (chars[:, 19:_SHAPE_WIDTH] == _UTC_SUFFIX).all(axis=1)))
        & (chars[:, _SEPARATOR_AT] == _SEPARATORS).all(axis=1)
        & (digits <= 9).all(axis=1) & (pairs < _PAIR_LIMITS).all(axis=1)
    )
    pairs *= shaped[:, None]  # every table index below is then in range
    century, year, month, day, hour, minute, second = pairs.T
    year = century * 100 + year
    leap = _LEAP[year]
    days = _YEAR_START[year] + _DAYS_BEFORE_MONTH[month] + (leap & (month > 2)) + day - 1
    seconds = days * _DAY_S + hour * 3600 + minute * 60 + second
    valid = (
        shaped & (month >= 1) & (day >= 1) & (day <= _MONTH_DAYS[month] + (leap & (month == 2)))
        & (seconds >= _EARLIEST_S) & (seconds <= (now - _UNIX_EPOCH) // _SECOND)
    )
    return np.where(valid, seconds, UNDATED)


def _day_ordinals(seconds: np.ndarray) -> np.ndarray:
    """Proleptic Gregorian ordinal (date.toordinal) of the UTC day of each epoch second."""
    return seconds // _DAY_S + _EPOCH_ORDINAL


def _day_runs(codes: np.ndarray, days: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(article code, day ordinal, count) of each run of equal consecutive (code, day) pairs."""
    new = np.ones(codes.size, dtype=bool)
    new[1:] = (codes[1:] != codes[:-1]) | (days[1:] != days[:-1])
    starts = np.flatnonzero(new)
    return codes[starts], days[starts], np.diff(np.append(starts, codes.size))


# ---------------------------------------------------------------------------
# Record checks: the one place a line is accepted or rejected


class _BadRecord(Exception):
    """A line that cannot become an event; args are (tally key, message detail)."""


_ESCAPED = re.compile("[\udc80-\udcff]").search


def undecodable(text: str) -> str | None:
    """Why text, decoded with surrogateescape, is not UTF-8; None when it is.

    The reason is the strict decoder's message for the original bytes.
    """
    if text.isascii() or _ESCAPED(text) is None:
        return None
    try:
        text.encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeError as exc:
        return str(exc)
    return None


def _encodable(**texts: str | None) -> None:
    """Raise bad_utf8, naming the field, for a text that holds a surrogate code
    point (from a JSON escape such as \\ud800), which no UTF-8 table can hold."""
    for field, text in texts.items():
        if text is not None and not text.isascii():
            try:
                text.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise _BadRecord("bad_utf8", f"{field}: {exc}") from None


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


def _check_comment(record: dict) -> tuple[tuple[str | None, ...], tuple[int, int]]:
    """The texts (article, ts, id, parent, author) and counts (depth, ord) of a comment."""
    article = record.get("article")
    comment_id = record.get("id")
    if not isinstance(article, str) or not article:
        raise _BadRecord("bad_article", f"article={article!r}")
    if not isinstance(comment_id, str) or not comment_id:
        raise _BadRecord("bad_comment_id", f"id={comment_id!r}")
    try:
        depth, doc_order = int_field(record.get("depth")), int_field(record.get("ord"))
    except ValueError:
        raise _BadRecord("bad_int_field", f"depth/ord in {comment_id}") from None
    if depth < 0 or doc_order < 0:
        raise _BadRecord("negative_field", f"depth={depth} ord={doc_order}")
    parent = _coerce_optional(record.get("parent"))
    if (depth == 0) != (parent is None):
        raise _BadRecord("depth_parent_mismatch", f"depth={depth} parent={parent!r}")
    author = _coerce_optional(record.get("author"))
    _encodable(article=article, id=comment_id, parent=parent, author=author)
    return (article, _coerce_optional(record.get("ts")), comment_id, parent, author), (depth, doc_order)


def int_field(value: object) -> int:
    """A JSON integer, or ASCII digits with an optional '-', below 2**63; else ValueError.

    int() alone would truncate a JSON float (1.7 -> 1), take true as 1 and read
    strings such as '1_0', ' 0 ', '+1' and Arabic-Indic digits.
    """
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, str) and _INT_TEXT(value)
    ) or int(value) >= _INT64_LIMIT:
        raise ValueError(f"expected an integer of ASCII digits below 2**63, got {value!r}")
    return int(value)


def _check_edit(record: dict) -> tuple[tuple[str, str], tuple[int, int]]:
    """The texts (article, ts) and counts (0, 0) of an edit; the timestamp text is read per chunk."""
    article, stamp = record.get("article"), record.get("ts")
    if not isinstance(article, str) or not article:
        raise _BadRecord("bad_article", f"article={article!r}")
    _encodable(article=article)
    if not isinstance(stamp, str):
        raise _BadRecord("edit_ts_malformed", f"ts={stamp!r}")
    return (article, stamp), (0, 0)


def _json_line(raw: bytes) -> dict | None:
    """The object on one JSONL line; None for a line str.strip() leaves empty."""
    text = raw.decode("utf-8", "surrogateescape")
    if not text.strip():
        return None
    if reason := undecodable(text):
        raise _BadRecord("bad_utf8", reason)
    return _decode_json(text)


# A CSV row: the physical line it ends on, its cells ([] when the csv module
# cannot parse it) and the (tally key, detail) that makes it unusable, or None.
Row = tuple[int, list[str], tuple[str, str] | None]


# The csv module stops at a field over its limit and then resumes inside the
# field, so a record is read whole under this limit and the real one applied
# to the record afterwards.
_WHOLE_RECORD = (1 << 31) - 1


def _next_record(reader: Iterator[list[str]]) -> list[str] | None:
    """The next record of a csv.reader, read whole however long its fields are; None at the end."""
    limit = csv.field_size_limit(_WHOLE_RECORD)
    try:
        return next(reader, None)
    finally:
        csv.field_size_limit(limit)


def numbered_rows(lines: Iterable[str]) -> Iterator[Row]:
    """Each non-blank CSV row of lines, named by the physical line it ends on.

    A blank row (no cells, or one cell blank to str.strip()) is skipped and not
    counted.  A row the csv module cannot parse, or one with a field over
    csv.field_size_limit() (a quoted field that spans lines included: the
    record is read whole first), is bad_csv, and one with a cell that is not
    UTF-8 is bad_utf8.  A NUL is data.
    """
    reader = csv.reader(lines)
    limit = csv.field_size_limit()
    while True:
        try:
            cells = _next_record(reader)
        except csv.Error as exc:
            yield reader.line_num, [], ("bad_csv", str(exc))
            continue
        if cells is None:
            return
        if any(len(cell) > limit for cell in cells):
            yield reader.line_num, [], ("bad_csv", f"field larger than field limit ({limit})")
        elif len(cells) > 1 or cells and cells[0].strip():
            reason = next(filter(None, map(undecodable, cells)), None)
            yield reader.line_num, cells, reason and ("bad_utf8", reason)


def csv_rows(handle: io.TextIOBase, source: str) -> tuple[list[str] | None, Iterator[Row]]:
    """A CSV file's header (its first non-blank row, None when there is none) and the
    numbered_rows after it; a header the csv module cannot parse raises IngestError."""
    rows = numbered_rows(handle)
    line_no, header, bad = next(rows, (0, None, None))
    if bad and bad[0] == "bad_csv":
        raise IngestError(f"{source}:{line_no}: {bad[1]}")
    return header, rows


# ---------------------------------------------------------------------------
# Canonical JSONL lines, read from their bytes

# A record's texts, as (start, end) byte spans; NO_SPAN stands for None.
ARTICLE, TS, ID, PARENT, AUTHOR = range(5)
NO_SPAN = -1
_FIELDS = {EDIT: 2, COMMENT: 5}  # the texts a record of each kind has
DEPTH, ORD = range(2)  # a comment's counts

# The exact lines event_json_line writes, each text and count with the field
# it fills.  A text is non-empty (an empty one means null to _coerce_optional)
# and holds no quote, backslash or control byte, so it needs no unescaping; a
# count is ASCII digits without sign or leading zero, at most 18 of them, so
# it is exact in int64.
_TEXT, _TEXT_OR_NULL, _COUNT = "text", "text or null", "count"
_EDIT_SHAPE = (b'{"article":', (_TEXT, ARTICLE), b',"ts":', (_TEXT, TS), b"}")
_COMMENT_SHAPE = (
    b'{"article":', (_TEXT, ARTICLE), b',"id":', (_TEXT, ID),
    b',"parent":', (_TEXT_OR_NULL, PARENT), b',"depth":', (_COUNT, DEPTH),
    b',"ts":', (_TEXT_OR_NULL, TS), b',"author":', (_TEXT_OR_NULL, AUTHOR),
    b',"ord":', (_COUNT, ORD), b"}",
)
_MAX_COUNT_DIGITS = 18
# Zero bytes after a block, so every fixed-width read may run past its end.
_PAD = bytes(40)
_WORD_AT = np.arange(0, 32, 8)  # the words that hold a timestamp's 25 bytes


def _words(text: bytes) -> np.ndarray:
    """Every 8-byte word of text, one starting at each byte offset (a view, not a copy)."""
    return np.ndarray((len(text) - 7,), dtype=np.uint64, buffer=text, strides=(1,))


def _word_keys(part: bytes) -> list[tuple[int, np.uint64, np.uint64]]:
    """(offset, mask, value) of each 8-byte word of part, to compare it a word at a time."""
    keys = []
    for at in range(0, len(part), 8):
        piece = part[at:at + 8]
        mask, value = _words(b"\xff" * len(piece) + _PAD)[0], _words(piece + _PAD)[0]
        keys.append((at, mask, value))
    return keys


_SHAPE_KEYS = {part: _word_keys(part) for part in _COMMENT_SHAPE + _EDIT_SHAPE
               if isinstance(part, bytes)}
_NULL_KEY = _word_keys(b"null")[0]
# _LOW_BYTES[k] keeps the first k bytes of a word.
_LOW_BYTES = np.array([_words(b"\xff" * k + _PAD)[0] for k in range(9)])
# Texts are sorted by their width and at most this many leading words; two
# longer texts that tie on those are compared whole, on their own.
_NAME_WORDS = 4


def _text_groups(text: bytes, spans: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The texts of spans grouped by their bytes: each span's group, and each group's first span.

    spans is (texts, 2) (start, end) offsets into text, which _PAD follows;
    a NO_SPAN row is null, a class of its own.  Groups are numbered in the
    order their first spans come, so first ascends.  One lexsort by width
    and by at most _NAME_WORDS masked words puts equal texts side by side;
    only texts over 8 * _NAME_WORDS bytes that tie with their sorted
    neighbour are then compared whole.
    """
    lo, hi = spans.T
    # A width is part of the key, so a NUL byte and the end of a text never tie;
    # no text is empty, so width 0 is a null's alone.
    widths = hi - lo
    rounds = min(_NAME_WORDS, -(-int(widths.max(initial=0)) // 8))
    words = _words(text)
    keys = [words[lo + 8 * k] & _LOW_BYTES[np.clip(widths - 8 * k, 0, 8)] for k in range(rounds)]
    order = np.lexsort((*keys[::-1], widths))
    n = order.size
    new = np.zeros(n, dtype=bool)  # the sorted places whose text differs from the one before
    new[:1] = True
    for key in (widths, *keys):
        key = key[order]
        new[1:] |= key[1:] != key[:-1]
    # rep[p]: the sorted place of the first text equal to the one at sorted place p.
    rep = np.maximum.accumulate(np.where(new, np.arange(n), 0))
    tied = np.flatnonzero(~new & (widths[order] > 8 * _NAME_WORDS))
    if tied.size:
        marked = np.zeros(n, dtype=bool)
        marked[tied] = marked[rep[tied]] = True
        whole: dict[tuple[int, bytes], int] = {}
        places = np.flatnonzero(marked).tolist()
        for p, head, i in zip(places, rep[places].tolist(), order[places].tolist()):
            rep[p] = whole.setdefault((head, text[lo[i]:hi[i]]), p)
    first_of = np.empty(n, dtype=np.int64)
    first_of[order] = order[rep]
    first = np.flatnonzero(first_of == np.arange(n))
    number = np.zeros(n, dtype=np.int64)
    number[first] = np.arange(first.size)
    return number[first_of], first


def _line_blocks(handle: io.BufferedIOBase) -> Iterator[tuple[bytes, np.ndarray]]:
    """The file's bytes, about _CHUNK_BYTES of whole lines at a time, with each line's end offset.

    Each block is followed by _PAD.  A line ends after '\\n', '\\r\\n' or a
    lone '\\r', as text mode with newline="" splits it, or at the end of the
    file.  A block is cut after its last line end and the rest is carried to
    the next read; a read that holds no line end reads on, so a block holds
    at most _CHUNK_BYTES plus one line.  Each byte is scanned for line ends
    once, and the reads that make up a block are joined once.
    """
    pieces: list[bytes] = []  # what was read since the last cut, size bytes
    size = 0
    while True:
        piece = handle.read(_CHUNK_BYTES)
        if not piece:
            if size:
                yield b"".join((*pieces, _PAD)), np.array([size])
            return
        body = np.frombuffer(piece, dtype=np.uint8)
        at_end = body == ord("\n")
        if b"\r" in piece:
            # A '\r' ends a line unless a '\n' follows it; one that ends a
            # read waits for the next read, unless the file ends there.
            at_end[:-1] |= (body[:-1] == ord("\r")) & (body[1:] != ord("\n"))
        ends = np.flatnonzero(at_end) + (size + 1)
        if pieces and pieces[-1].endswith(b"\r") and body[0] != ord("\n"):
            ends = np.concatenate(([size], ends))
        if not ends.size:
            pieces.append(piece)
            size += len(piece)
            continue
        cut = int(ends[-1]) - size
        block = [b"".join((*pieces, memoryview(piece)[:cut], _PAD))]
        pieces, size = [piece[cut:]], len(piece) - cut
        # While the block is checked, the paused generator keeps only the
        # carried tail: not the read, its line-end mask or the block itself.
        del piece, body, at_end
        yield block.pop(), ends


def _canonical(
    padded: bytes, starts: np.ndarray, ends: np.ndarray, kind: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Which lines of a block (followed by _PAD) are canonical, with their text spans and counts.

    Returns the mask, the (lines, fields, 2) spans by ARTICLE, TS[, ID,
    PARENT, AUTHOR] and the (lines, 2) counts by DEPTH, ORD (zero for an
    edit); rows the mask leaves out hold garbage.
    """
    size = int(ends[-1])
    body = np.frombuffer(padded, dtype=np.uint8, count=size)
    last = body[ends - 1]
    feed = last == ord("\n")
    crlf = feed & (ends - 2 >= starts) & (body[np.maximum(ends - 2, 0)] == ord("\r"))
    body_ends = ends - (feed | (last == ord("\r"))) - crlf
    # No string holds a backslash or a control byte: no line body does.
    ok = np.ones(starts.size, dtype=bool)
    if np.count_nonzero(body < 0x20) + np.count_nonzero(body == ord("\\")) > (ends - body_ends).sum():
        stops = np.flatnonzero((body < 0x20) | (body == ord("\\")))
        ok = np.searchsorted(stops, starts) == np.searchsorted(stops, body_ends)
    if size and body.max() >= 0x80:
        # Decoding allocates up to five bytes a byte, so it runs a slice at a
        # time; a slice that ends inside a character leaves it to the next.
        view, at = memoryview(padded)[:size], 0
        try:
            while at < size:
                at += codecs.utf_8_decode(view[at:at + _UTF8_SLICE], None, at + _UTF8_SLICE >= size)[1]
        except UnicodeDecodeError:
            # Lines with a byte beyond ASCII decode one at a time instead.
            ok[np.searchsorted(ends, np.flatnonzero(body >= 0x80), side="right")] = False
    quotes = np.flatnonzero(body == ord('"'))
    if quotes.size == 0:
        quotes = np.array([size])  # past every line, so no line is canonical
    spans = np.empty((starts.size, _FIELDS[kind], 2), dtype=np.int64)
    counts = np.zeros((starts.size, 2), dtype=np.int64)
    ok &= _match(padded, size, quotes, starts, body_ends,
                 _COMMENT_SHAPE if kind == COMMENT else _EDIT_SHAPE, spans, counts)
    if kind == COMMENT:
        ok &= (counts[:, DEPTH] == 0) == (spans[:, PARENT, 0] == NO_SPAN)
    return ok, spans, counts


def _match(
    padded: bytes, size: int, quotes: np.ndarray, starts: np.ndarray, body_ends: np.ndarray,
    shape: tuple, spans: np.ndarray, counts: np.ndarray,
) -> np.ndarray:
    """Which line bodies spell shape; fills spans and counts with the fields it reads.

    One cursor per line walks the shape.  Key bytes must sit at the cursor
    (compared a word at a time); a text opens at the quote the cursor has
    counted up to and closes at the next one, so the quotes of a canonical
    line fall exactly where the shape puts them; a count is the digits at
    the cursor.
    """
    words = _words(padded)
    byte = np.frombuffer(padded, dtype=np.uint8)
    cursor = starts.copy()
    quote = np.searchsorted(quotes, starts)  # index in quotes of the next quote due
    ok = np.ones(starts.size, dtype=bool)
    for part in shape:
        if isinstance(part, bytes):
            for at, mask, value in _SHAPE_KEYS[part]:
                ok &= (words[cursor + at] & mask) == value
            cursor += len(part)
            quote += part.count(b'"')
            continue
        kind, field = part
        # Past a failed part a cursor may point anywhere; keep its reads inside the padding.
        np.minimum(cursor, size, out=cursor)
        if kind is _COUNT:
            count, width, live = np.zeros_like(cursor), np.zeros_like(cursor), ok.copy()
            for _ in range(_MAX_COUNT_DIGITS + 1):
                digit = byte[cursor + width] - np.uint8(ord("0"))
                live &= digit <= 9
                if not live.any():
                    break
                count = np.where(live, count * 10 + digit, count)
                width += live
            ok &= (width >= 1) & (width <= _MAX_COUNT_DIGITS) & ((byte[cursor] != ord("0")) | (width == 1))
            counts[:, field] = count
            cursor += width
            continue
        # A line that runs out of quotes reads the last one twice, an empty text.
        opening, closing = quotes.take(quote, mode="clip"), quotes.take(quote + 1, mode="clip")
        text = (opening == cursor) & (closing > cursor + 1)
        if kind is _TEXT:
            ok &= text
            spans[:, field, 0], spans[:, field, 1] = cursor + 1, closing
            cursor, quote = closing + 1, quote + 2
            continue
        _, mask, value = _NULL_KEY
        null = (words[cursor] & mask) == value
        ok &= null | text
        spans[:, field, 0] = np.where(null, NO_SPAN, cursor + 1)
        spans[:, field, 1] = np.where(null, NO_SPAN, closing)
        cursor = np.where(null, cursor + 4, closing + 1)
        quote += 2 * ~null
    return ok & (cursor == body_ends)


def _pack(rows: list[tuple[str | None, ...]], fields: int, offset: int) -> tuple[bytes, np.ndarray]:
    """rows' texts as UTF-8 bytes placed at offset, and their (rows, fields, 2) spans."""
    texts = [text for row in rows for text in row]
    encoded = [b"" if text is None else text.encode("utf-8", "surrogatepass") for text in texts]
    sizes = np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded))
    ends = offset + np.cumsum(sizes)
    spans = np.stack((ends - sizes, ends), axis=1)
    spans[[text is None for text in texts]] = NO_SPAN
    return b"".join(encoded), spans.reshape(len(rows), fields, 2)


# ---------------------------------------------------------------------------
# The chunked loader


@dataclass(frozen=True, eq=False)
class Chunk:
    """The usable records of one bounded run of input lines, in line order.

    codes index names, which one load shares across its chunks and extends
    as new articles appear (one string per article, however many lines name
    it).  seconds holds each record's epoch seconds, UNDATED for a comment
    without a usable timestamp; every edit kept is dated.  text holds every
    record's texts as UTF-8 bytes, and spans their (records, fields, 2)
    (start, end) offsets in it, by ARTICLE, TS and, for a comment, ID,
    PARENT and AUTHOR (NO_SPAN for None); counts holds each record's
    (records, 2) counts by DEPTH, ORD (zero for an edit).  So day_runs
    builds no per-record object.
    """

    names: list[str]
    codes: np.ndarray
    seconds: np.ndarray
    text: bytes
    spans: np.ndarray
    counts: np.ndarray

    def day_runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(article code, day ordinal, count) of each run of consecutive dated records of one article and day."""
        dated = self.seconds != UNDATED
        return _day_runs(self.codes[dated], _day_ordinals(self.seconds[dated]))

    def texts(self, field: int) -> list[bytes | None]:
        """One text field of every record as UTF-8 bytes, None where it is null."""
        text = self.text
        return [None if lo == NO_SPAN else text[lo:hi] for lo, hi in self.spans[:, field].tolist()]


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
    loading starts.  Memory stays bounded by the chunk size and the number
    of distinct articles.  A JSONL block holds at most _CHUNK_BYTES plus the
    longest line; while it is checked, the reader keeps only the block, the
    carried start of the next one and arrays of a few bytes per block byte
    (the UTF-8 check decodes _UTF8_SLICE bytes at a time), and a chunk's
    text is the block itself or one copy of it with its slow lines' fields.
    Only an unreadable file, unknown format/kind or an unusable CSV header
    raises.
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
    load = _Load(kind, now, diag)
    try:
        if fmt == "jsonl":
            handle = open(path, "rb")
        else:
            handle = open(path, "r", encoding="utf-8", errors="surrogateescape", newline="")
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    with handle:
        if fmt == "jsonl":
            first = 1
            for data, ends in _line_blocks(handle):
                yield load.lines(data, ends, first)
                first += ends.size
        else:
            header, rows = csv_rows(handle, diag.source)
            expected = COMMENT_FIELDS if kind == COMMENT else EDIT_FIELDS
            if header is not None and (missing := [c for c in expected if c not in header]):
                raise IngestError(f"{diag.source}: missing CSV columns {missing}")
            while block := list(islice(rows, _CHUNK_LINES)):
                yield load.rows(header, block)


class _Load:
    """What one load shares across its blocks: the article codes, the clock bound and the diagnostics."""

    def __init__(self, kind: str, now: datetime, diag: Diagnostics) -> None:
        self.kind, self.now, self.diag = kind, now, diag
        self.fields = _FIELDS[kind]
        self.check = _check_comment if kind == COMMENT else _check_edit
        self.articles: dict[bytes, int] = {}  # each name's UTF-8 bytes to its code
        self.names: list[str] = []

    def lines(self, padded: bytes, ends: np.ndarray, first: int) -> Chunk:
        """One block of JSONL lines: canonical ones read from their bytes, the rest one at a time."""
        starts = np.concatenate(([0], ends[:-1]))
        ok, spans, counts = _canonical(padded, starts, ends, self.kind)
        slow = [(i, padded[starts[i]:ends[i]]) for i in np.flatnonzero(~ok).tolist()]
        return self._chunk(padded, int(ends[-1]), first + np.arange(ends.size),
                           ok, spans, counts, slow, _json_line)

    def rows(self, header: list[str], block: list[Row]) -> Chunk:
        """One block of numbered CSV rows, each checked on its own."""

        def record(row: Row) -> dict:
            _, cells, bad = row
            if bad:
                raise _BadRecord(*bad)
            # Keyed as csv.DictReader keys it: a header column past the row's end is None.
            return dict(zip_longest(header, cells))

        n = len(block)
        return self._chunk(
            _PAD, 0, np.array([row[0] for row in block], dtype=np.int64), np.zeros(n, dtype=bool),
            np.zeros((n, self.fields, 2), dtype=np.int64), np.zeros((n, 2), dtype=np.int64),
            list(enumerate(block)), record,
        )

    def _chunk(
        self, padded: bytes, size: int, line_nos: np.ndarray, ok: np.ndarray, spans: np.ndarray,
        counts: np.ndarray, slow: list[tuple[int, object]], read: Callable[[object], dict | None],
    ) -> Chunk:
        """Check slow's lines one at a time, join them to the byte path's and record the failures.

        padded holds size bytes of the block and then _PAD.  A slow line that
        passes is spelled back as bytes after the block, so the names and
        timestamps of every record are then read the same way.
        """
        failures: list[tuple[int, str, str]] = []
        blank = 0
        kept, rows, numbers = [], [], []
        for i, raw in slow:
            try:
                record = read(raw)
                if record is None:
                    blank += 1
                    continue
                texts, pair = self.check(record)
            except _BadRecord as bad:
                failures.append((int(line_nos[i]), *bad.args))
                continue
            kept.append(i)
            rows.append(texts)
            numbers.append(pair)
        text = padded
        if kept:
            extra_text, spans[kept] = _pack(rows, self.fields, size)
            text = b"".join((memoryview(padded)[:size], extra_text, _PAD))
            ok[kept] = True
            counts[kept] = numbers
        if not ok.all():
            keep = np.flatnonzero(ok)
            spans, counts, line_nos = spans[keep], counts[keep], line_nos[keep]
        lo, hi = spans[:, TS].T
        chars = _words(text)[np.maximum(lo, 0)[:, None] + _WORD_AT].view(np.uint8)[:, :_SHAPE_WIDTH]
        seconds = _epoch_seconds(chars, hi - lo, self.now)
        undated = seconds == UNDATED
        if self.kind == EDIT:
            if undated.any():
                # An edit without a time is dropped; its message joins the others in line order.
                failures.extend(
                    (line_no, "edit_ts_malformed", f"ts={text[a:b].decode('utf-8', 'surrogatepass')!r}")
                    for line_no, a, b in zip(line_nos[undated].tolist(), lo[undated].tolist(),
                                             hi[undated].tolist())
                )
                seconds, spans, counts = seconds[~undated], spans[~undated], counts[~undated]
        else:
            self.diag.tally("comments_undated", int(np.count_nonzero(undated)))
            self.diag.tally("comment_ts_malformed", int(np.count_nonzero(undated & (lo != NO_SPAN))))
        # Only a kept record gives its article a code.
        codes = self._codes(text, spans[:, ARTICLE])
        self.diag.tally("lines_read", line_nos.size + len(slow) - len(kept) - blank)
        for failure in sorted(failures):
            self.diag.record(*failure)
        self.diag.tally("events_used", int(seconds.size))
        return Chunk(self.names, codes, seconds, text, spans, counts)

    def _codes(self, text: bytes, spans: np.ndarray) -> np.ndarray:
        """The article code of every record; each distinct name is looked up once.

        A name new to the load is decoded and gets the next code, in the order
        of its first record.
        """
        groups, first = _text_groups(text, spans)
        codes = []
        for a, b in spans[first].tolist():
            raw = text[a:b]
            code = self.articles.get(raw)
            if code is None:
                code = self.articles[raw] = len(self.names)
                self.names.append(raw.decode("utf-8", "surrogatepass"))
            codes.append(code)
        return np.array(codes, dtype=np.int64)[groups]


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
            ids, parents, authors = (
                [None if raw is None else raw.decode("utf-8", "surrogatepass") for raw in chunk.texts(field)]
                for field in (ID, PARENT, AUTHOR)
            )
            for code, ts, comment_id, parent, (depth, doc_order), author in zip(
                chunk.codes.tolist(), stamps, ids, parents, chunk.counts.tolist(), authors
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

    names lists each article with a kept record; articles (codes into names)
    and seconds are the chunk columns joined.  A comment load also fills ids
    and parents, codes of the id texts shared across the load (NO_PARENT for
    a thread starter), depths and orders (document order); an edit load
    leaves them empty.
    """

    kind: str
    names: list[str]
    articles: np.ndarray
    seconds: np.ndarray
    ids: np.ndarray
    parents: np.ndarray
    depths: np.ndarray
    orders: np.ndarray

    def day_counts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(article code, day ordinal, count) of every day with a dated record.

        Sorted by article name, in sorted() order, then by day; only (article,
        day) multiplicities matter, never the record order.
        """
        dated = self.seconds != UNDATED
        codes, days = self.articles[dated], _day_ordinals(self.seconds[dated])
        # rank[code] is the article's place in sorted() name order.
        rank = np.argsort(sorted(range(len(self.names)), key=self.names.__getitem__))
        order = np.argsort(rank[codes] * (int(days.max(initial=0)) + 1) + days)
        return _day_runs(codes[order], days[order])

    def series(self) -> dict[str, ActivitySeries]:
        """Per-article dense daily series of the dated records, in article code order."""
        codes, days, counts = self.day_counts()
        starts = np.flatnonzero(np.diff(codes, prepend=-1))
        ends = np.append(starts[1:], codes.size)
        out: dict[str, ActivitySeries] = {}
        for group in np.argsort(codes[starts]).tolist():
            lo, hi = int(starts[group]), int(ends[group])
            first = int(days[lo])
            dense = np.zeros(int(days[hi - 1]) - first + 1, dtype=np.int64)
            dense[days[lo:hi] - first] = counts[lo:hi]
            article = self.names[codes[lo]]
            out[article] = ActivitySeries(article, self.kind, date.fromordinal(first), dense)
        return out

    def latest(self) -> datetime | None:
        """The latest timestamp; None when nothing is dated."""
        latest = int(self.seconds.max(initial=UNDATED))
        return None if latest == UNDATED else datetime.fromtimestamp(latest, timezone.utc)


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
    names: list[str] = []
    codes, seconds, links, numbers = [], [], [], []
    texts: dict[bytes | None, int] = {None: NO_PARENT}
    for chunk in read_chunks(path, kind, fmt=fmt, diagnostics=diagnostics, now=now):
        names = chunk.names  # one list shared by every chunk, complete after the last
        codes.append(chunk.codes)
        seconds.append(chunk.seconds)
        if kind == COMMENT:
            links.append(_link_codes(chunk, texts))
            numbers.append(chunk.counts.T)
        # Not kept alive while the next block is read and checked.
        del chunk
    empty = np.empty((2, 0), dtype=np.int64)
    ids, parents = np.concatenate([empty, *links], axis=1)
    depths, orders = np.concatenate([empty, *numbers], axis=1)
    return Columns(kind, names, np.concatenate([empty[0], *codes]),
                   np.concatenate([empty[0], *seconds]), ids, parents, depths, orders)


def _link_codes(chunk: Chunk, texts: dict[bytes | None, int]) -> np.ndarray:
    """The (2, records) codes of a comment chunk's ids and parents.

    texts holds the code of every text seen so far (None's is NO_PARENT); a
    new text gets the next code, ids before parents and each in record
    order, and each distinct text of the chunk is looked up once.
    """
    text = chunk.text
    spans = chunk.spans[:, (ID, PARENT)].transpose(1, 0, 2).reshape(-1, 2)
    groups, first = _text_groups(text, spans)
    codes = [texts.setdefault(None if a == NO_SPAN else text[a:b], len(texts))
             for a, b in spans[first].tolist()]
    return np.array(codes, dtype=np.int64)[groups].reshape(2, -1)


def event_columns(events: Iterable[EditEvent | CommentEvent], kind: str) -> Columns:
    """The columns load_columns gives for a file holding these events in this order."""
    events = list(events)
    articles = {name: code for code, name in enumerate(dict.fromkeys(e.article_id for e in events))}
    comments = events if kind == COMMENT else []
    texts: dict[str | None, int] = {None: NO_PARENT}
    return Columns(
        kind, list(articles),
        np.array([articles[e.article_id] for e in events], dtype=np.int64),
        np.array([UNDATED if e.timestamp is None else (e.timestamp - _UNIX_EPOCH) // _SECOND
                  for e in events], dtype=np.int64),
        np.array([texts.setdefault(e.comment_id, len(texts)) for e in comments], dtype=np.int64),
        np.array([texts.setdefault(e.parent_id, len(texts)) for e in comments], dtype=np.int64),
        np.array([e.depth for e in comments], dtype=np.int64),
        np.array([e.doc_order for e in comments], dtype=np.int64),
    )


def build_series(events: Iterable[EditEvent | CommentEvent], kind: str) -> dict[str, ActivitySeries]:
    """Aggregate events into per-article daily series.

    Events without a timestamp contribute nothing (they have no day).  The
    result is keyed by article id; articles with no dated events are absent.
    Input order is irrelevant: only (article, day) multiplicities matter.
    """
    return event_columns(events, kind).series()


def event_json_line(event: EditEvent | CommentEvent) -> str:
    """Canonical one-line JSON for an event: fixed key order, no spaces.

    The line is json.dumps(record, ensure_ascii=False, separators=(",", ":"))
    of the event's record, written without building the record or an
    encoder: each text is quoted by json.encoder.encode_basestring, as
    json.dumps quotes it, and a timestamp needs no escaping.  Serializing the
    same event always yields the same bytes, so round trips through
    dump/load are byte-identical.  read_chunks reads lines of this exact
    shape from their bytes (_EDIT_SHAPE, _COMMENT_SHAPE); a change here must
    change those shapes too.
    """
    if isinstance(event, CommentEvent):
        article, comment_id, parent, depth, ts, author, doc_order = event
        stamp = "null" if ts is None else f'"{format_timestamp(ts)}"'
        return (f'{{"article":{_quote(article)},"id":{_quote(comment_id)},'
                f'"parent":{"null" if parent is None else _quote(parent)},"depth":{depth},"ts":{stamp},'
                f'"author":{"null" if author is None else _quote(author)},"ord":{doc_order}}}')
    return f'{{"article":{_quote(event.article_id)},"ts":"{format_timestamp(event.timestamp)}"}}'


def write_events_jsonl(path: str | Path, events: Iterable[EditEvent | CommentEvent]) -> int:
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(event_json_line(event))
            handle.write("\n")
            count += 1
    return count
