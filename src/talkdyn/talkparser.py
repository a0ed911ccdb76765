"""Talk-page wikitext to comment events.

Comments on a talk page are reconstructed from two fragile conventions:
reply nesting is expressed by a run of leading ':', '*' or '#' characters,
and authorship/time comes from a trailing signature ("-- [[User:Name]]
12:04, 7 March 2007 (UTC)").  Both are hand-typed, so this parser treats
every deviation as data: unsigned blocks merge into the following comment
or drop at section ends, impossible nesting jumps attach to the nearest
shallower comment, and every such repair is tallied in the diagnostics
rather than silently absorbed.

Section headings ("== Title ==") reset the reply context: indentation never
threads across a heading.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .ingest import EARLIEST_TIMESTAMP, CommentEvent, Diagnostics, undecodable

logger = logging.getLogger(__name__)

INDENT_CHARS = ":*#"
AUTHOR_WINDOW_CHARS = 80

HEADING_RE = re.compile(r"^(={1,6}).*?\1\s*$")

# Neither the name nor the display text may hold a '[' or a newline (both are
# illegal in user names), so a match attempt stops at the next link or line and
# an unclosed link costs one pass to there.  The name keeps its surrounding
# whitespace; _clean_author strips it.
USER_LINK_RE = re.compile(
    r"\[\[\s*[Uu]ser(?:[ _][Tt]alk)?\s*:(?P<name>[^|\]#\[\n]+)(?:[|#][^\]\[\n]*)?\]\]"
)

# Months accepted in signature dates: full English names plus the common
# abbreviations (an optional trailing period is stripped before lookup).
MONTHS = {
    name: i + 1
    for i, name in enumerate(
        [
            "january", "february", "march", "april", "may", "june",
            "july", "august", "september", "october", "november", "december",
        ]
    )
}
MONTHS.update(
    {
        "jan": 1, "feb": 2, "mar": 3, "apr": 4, "jun": 6, "jul": 7,
        "aug": 8, "sep": 9, "sept": 9, "oct": 10, "nov": 11, "dec": 12,
    }
)

_REQUIRED_GROUPS = {"day", "month", "year"}
_ALLOWED_GROUPS = {"hour", "minute", "day", "month", "year"}

# Ordered by priority: when two patterns end at the same character the
# earlier entry wins, so the timestamped form beats its date-only suffix.
# Each opens with a digit class, not a repeat ("\d\d?" matches as "\d{1,2}"
# does, two digits tried first), so the compiled pattern gets a charset
# prefix and the regex engine skips non-digits without trying a match there.
DEFAULT_DATE_PATTERNS: tuple[re.Pattern, ...] = (
    re.compile(
        r"(?P<hour>\d\d?):(?P<minute>\d\d), "
        r"(?P<day>\d\d?) (?P<month>[A-Za-z]+\.?) (?P<year>\d{4}) \(UTC\)"
    ),
    re.compile(r"(?P<day>\d\d?) (?P<month>[A-Za-z]+\.?) (?P<year>\d{4}) \(UTC\)"),
)

# Both default patterns in one pattern: lead is the hour when minute matched and
# the day when it did not.  Its first group is a digit group, as above, so the
# charset prefix stays.  A match with a time also holds the date-only match that
# ends where it ends (from the day group on), which extract_signature tries next.
_DEFAULT_DATE_RE = re.compile(
    r"(?P<lead>\d\d?)(?::(?P<minute>\d\d), (?P<day>\d\d?))? "
    r"(?P<month>[A-Za-z]+\.?) (?P<year>\d{4}) \(UTC\)"
)
# A match holds no ')' but the one closing its " (UTC)", so every match that
# ends at one " (UTC)" starts after the ')' before it, and all of them read the
# same month and year.  A month _resolve_month accepts is at most 10 characters
# ("september."), so a match that can give a date starts at most this many
# characters before its " (UTC)": "hh:mm, dd " and " yyyy" around the month.
_DATE_REACH = 25


class PatternError(ValueError):
    """A date-pattern registry entry is unusable."""


@dataclass(frozen=True)
class RawTalkPage:
    article_id: str
    text: str


@dataclass(frozen=True)
class SignatureMatch:
    """Signature found in a comment body; either half may be missing.

    span covers the matched signature region (author link through date) in
    body character offsets.
    """

    author: str | None
    timestamp: datetime | None
    span: tuple[int, int]


def load_patterns(path: str | Path) -> list[re.Pattern]:
    """Read a JSON date-pattern registry: [{"name":..., "regex":...}, ...].

    Each regex must define named groups day, month and year and may add hour
    and minute; month may be a name or a number.  Compilation or group
    problems raise PatternError with the offending entry's name.
    """
    try:
        entries = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise PatternError(f"cannot load pattern registry {path}: {exc}") from exc
    if not isinstance(entries, list) or not entries:
        raise PatternError(f"{path}: registry must be a nonempty list")
    patterns: list[re.Pattern] = []
    for entry in entries:
        name = entry.get("name", "?") if isinstance(entry, dict) else "?"
        if not isinstance(entry, dict) or not isinstance(entry.get("regex"), str):
            raise PatternError(f"{path}: entry {name!r} lacks a regex string")
        try:
            pattern = re.compile(entry["regex"])
        except re.error as exc:
            raise PatternError(f"{path}: entry {name!r} does not compile: {exc}") from exc
        groups = set(pattern.groupindex)
        if not _REQUIRED_GROUPS.issubset(groups):
            raise PatternError(
                f"{path}: entry {name!r} missing groups {sorted(_REQUIRED_GROUPS - groups)}"
            )
        if not groups.issubset(_ALLOWED_GROUPS):
            raise PatternError(
                f"{path}: entry {name!r} has unknown groups {sorted(groups - _ALLOWED_GROUPS)}"
            )
        patterns.append(pattern)
    return patterns


def _iter_page_items(text: str) -> Iterator[tuple[int, str] | None]:
    """Yield (depth, body) for each block and None for each heading, in page order.

    A block is a maximal run of non-blank lines sharing one indent depth;
    blank lines and headings close the current block.  Indent characters are
    stripped from block bodies.
    """
    depth = 0
    lines: list[str] = []
    for line in text.split("\n"):
        # HEADING_RE is anchored on a leading '=': test that first, it is cheaper.
        heading = line.startswith("=") and HEADING_RE.match(line) is not None
        # -1 (no depth) closes the open block: headings and blank lines.
        d = -1 if heading or not line.strip() else len(line) - len(line.lstrip(INDENT_CHARS))
        if lines and d != depth:
            yield depth, "\n".join(lines)
            lines = []
        if heading:
            yield None
        elif d >= 0:
            depth = d
            lines.append(line[d:])
    if lines:
        yield depth, "\n".join(lines)


def split_comments(page: RawTalkPage) -> list[tuple[int, str]]:
    """Candidate comment blocks of a page as (indent depth, body) pairs.

    Headings are structural, not comments, so they are absent here; any
    other text, signed or not, shows up as a block (unindented free text is
    a depth-0 block).
    """
    return [item for item in _iter_page_items(page.text) if item is not None]


def _resolve_month(token: str) -> int | None:
    token = token.strip().rstrip(".").lower()
    if token.isdecimal():
        month = int(token)
        return month if 1 <= month <= 12 else None
    return MONTHS.get(token)


def _timestamp(
    year: str, month: str, day: str, hour: str | int, minute: str | int, now: datetime
) -> datetime | None:
    """The UTC time these date parts name, or None for no date: an unknown month, an
    impossible day or time, or a time before EARLIEST_TIMESTAMP or after now."""
    month_no = _resolve_month(month)
    if month_no is None:
        return None
    try:
        ts = datetime(int(year), month_no, int(day), int(hour), int(minute), tzinfo=timezone.utc)
    except ValueError:
        return None
    return ts if EARLIEST_TIMESTAMP <= ts <= now else None


def _candidate_timestamp(match: re.Match, now: datetime) -> datetime | None:
    parts = match.groupdict()
    year, month, day = parts["year"], parts["month"], parts["day"]
    if year is None or month is None or day is None:  # an optional group left out
        return None
    return _timestamp(year, month, day, parts.get("hour") or 0, parts.get("minute") or 0, now)


def _clean_author(raw: str) -> str:
    return raw.replace("_", " ").strip()


def _last_link(body: str, end: int) -> re.Match | None:
    """The last user link of body[:end].

    A link holds no '[' after its opening "[[" and has one possible extent, so
    the links of body[:end] are the links of body that end by end.
    """
    link = None
    for link in USER_LINK_RE.finditer(body, 0, end):
        pass
    return link


def _dated(body: str, ts: datetime, start: int, end: int) -> SignatureMatch:
    """The signature whose date is body[start:end]: its author is the last user link
    ending by start, if it ends within AUTHOR_WINDOW_CHARS of it."""
    link = _last_link(body, start)
    if link is not None and start - link.end() <= AUTHOR_WINDOW_CHARS:
        return SignatureMatch(_clean_author(link.group("name")), ts, (link.start(), end))
    return SignatureMatch(None, ts, (start, end))


def extract_signature(
    body: str, patterns: Sequence[re.Pattern] | None = None, now: datetime | None = None
) -> SignatureMatch | None:
    """Find the signature of one comment body, scanning from the end.

    The LAST parseable signature date in the body wins (quoted earlier
    signatures then stay inside the text), and the author is the last user
    or user-talk link ending before that date, if it ends within
    AUTHOR_WINDOW_CHARS of it.  A date
    with no nearby link yields an authorless match; a user link with no
    parseable date yields a dateless match; a body with neither has no
    signature at all.  A date after now (default: the clock) is no date.
    """
    if now is None:
        now = datetime.now(timezone.utc)
    if patterns is None:
        # Latest " (UTC)" first; at one end the timed reading, then the date alone.
        end = len(body)
        while (end := body.rfind(" (UTC)", 0, end)) >= 0:
            m = _DEFAULT_DATE_RE.search(body, max(end - _DATE_REACH, body.rfind(")", 0, end) + 1), end + 6)
            if m is None:
                continue
            lead, minute, day, month, year = m.groups()
            if minute is None:
                day, start = lead, m.start()
            else:
                ts = _timestamp(year, month, day, lead, minute, now)
                if ts is not None:
                    return _dated(body, ts, m.start(), m.end())
                start = m.start("day")
            ts = _timestamp(year, month, day, 0, 0, now)
            if ts is not None:
                return _dated(body, ts, start, m.end())
    else:
        # Latest end first; at one end the earlier registry entry first.
        candidates = sorted(
            ((m.end(), priority, m) for priority, pattern in enumerate(patterns)
             for m in pattern.finditer(body)),
            key=lambda item: (-item[0], item[1]),
        )
        for _, _, match in candidates:
            ts = _candidate_timestamp(match, now)
            if ts is not None:
                return _dated(body, ts, *match.span())
    link = _last_link(body, len(body))
    if link is None:
        return None
    return SignatureMatch(_clean_author(link.group("name")), None, link.span())


def to_events(
    page: RawTalkPage,
    patterns: Sequence[re.Pattern] | None = None,
    diagnostics: Diagnostics | None = None,
    *,
    now: datetime | None = None,
) -> list[CommentEvent]:
    """Parse a talk page into comment events in document order.

    Each signed block becomes one event; ids are "c0", "c1", ... in document
    order.  Reply structure comes from indent depth via a stack of open
    comments: a block at depth d replies to the nearest preceding block at a
    smaller depth still open in its section.  Depth jumps (a reply more than
    one level below its parent) and replies with no open parent are kept,
    tallied as repairs; the event depth counts actual tree ancestry, so it
    can be smaller than the raw indent.  Unsigned blocks carry no event:
    they merge into the following signed comment (continuation text) or are
    dropped when a heading or the page end cuts them off.  Signature dates
    after now (default: one clock reading for the page) are no dates.
    """
    if now is None:
        now = datetime.now(timezone.utc)
    events: list[CommentEvent] = []
    stack: list[tuple[int, int, str]] = []  # (raw indent, event depth, comment id)
    pending_unsigned = 0
    # Tallies are counted here and added to diagnostics once per page.
    headings = blocks = merged = dropped = undated = unattributed = jumps = orphans = 0
    for item in _iter_page_items(page.text):
        if item is None:
            headings += 1
            dropped += pending_unsigned
            pending_unsigned = 0
            stack.clear()
            continue
        depth, body = item
        blocks += 1
        signature = extract_signature(body, patterns, now)
        if signature is None:
            pending_unsigned += 1
            continue
        merged += pending_unsigned
        pending_unsigned = 0
        undated += signature.timestamp is None
        unattributed += signature.author is None
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if stack:
            parent_raw, parent_depth, parent_id = stack[-1]
            jumps += parent_raw != depth - 1
            event_depth = parent_depth + 1
        else:
            orphans += depth > 0
            parent_id = None
            event_depth = 0
        comment_id = f"c{len(events)}"
        events.append(
            CommentEvent(
                article_id=page.article_id,
                comment_id=comment_id,
                parent_id=parent_id,
                depth=event_depth,
                timestamp=signature.timestamp,
                author=signature.author,
                doc_order=len(events),
            )
        )
        stack.append((depth, event_depth, comment_id))
    if diagnostics is not None:
        for key, n in (
            ("headings", headings), ("blocks", blocks), ("unsigned_merged", merged),
            ("unsigned_dropped", dropped + pending_unsigned), ("comments_undated", undated),
            ("comments_unattributed", unattributed), ("depth_jump", jumps),
            ("orphan_reply", orphans),
        ):
            diagnostics.tally(key, n)
    return events


def parse_file(
    path: str | Path,
    patterns: Sequence[re.Pattern] | None = None,
    diagnostics: Diagnostics | None = None,
    *,
    now: datetime | None = None,
) -> list[CommentEvent]:
    """Parse one talk-page file; the article id is the file's stem.

    A page whose file name or text is not UTF-8 yields no events: it is
    tallied as pages_bad_utf8, logged and skipped.
    """
    p = Path(path)
    if reason := undecodable(p.name):
        reason = f"file name: {reason}"
    else:
        text = p.read_text(encoding="utf-8", errors="surrogateescape")
        reason = undecodable(text)
    if reason:
        if diagnostics is not None:
            diagnostics.tally("pages_bad_utf8")
        logger.warning("%s: bad_utf8: %s; page skipped", p, reason)
        return []
    return to_events(RawTalkPage(p.stem, text), patterns, diagnostics, now=now)
