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
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .ingest import EARLIEST_TIMESTAMP, CommentEvent, Diagnostics

INDENT_CHARS = ":*#"
AUTHOR_WINDOW_CHARS = 80

HEADING_RE = re.compile(r"^(={1,6})(.*?)\1\s*$")

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
DEFAULT_DATE_PATTERNS: tuple[re.Pattern, ...] = (
    re.compile(
        r"(?P<hour>\d{1,2}):(?P<minute>\d{2}), "
        r"(?P<day>\d{1,2}) (?P<month>[A-Za-z]+\.?) (?P<year>\d{4}) \(UTC\)"
    ),
    re.compile(r"(?P<day>\d{1,2}) (?P<month>[A-Za-z]+\.?) (?P<year>\d{4}) \(UTC\)"),
)


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


def _indent_depth(line: str) -> int:
    depth = 0
    for ch in line:
        if ch in INDENT_CHARS:
            depth += 1
        else:
            break
    return depth


def _iter_page_items(text: str) -> Iterator[tuple[str, int, str]]:
    """Yield ("heading", 0, title) and ("block", depth, body) in page order.

    A block is a maximal run of non-blank lines sharing one indent depth;
    blank lines and headings close the current block.  Indent characters are
    stripped from block bodies.
    """
    depth: int | None = None
    lines: list[str] = []

    def close() -> Iterator[tuple[str, int, str]]:
        nonlocal depth, lines
        if lines:
            yield "block", depth, "\n".join(lines)
        depth = None
        lines = []

    for line in text.split("\n"):
        heading = HEADING_RE.match(line)
        if heading is not None:
            yield from close()
            yield "heading", 0, heading.group(2).strip()
            continue
        if not line.strip():
            yield from close()
            continue
        d = _indent_depth(line)
        if d != depth:
            yield from close()
            depth = d
        lines.append(line[d:])
    yield from close()


def split_comments(page: RawTalkPage) -> list[tuple[int, str]]:
    """Candidate comment blocks of a page as (indent depth, body) pairs.

    Headings are structural, not comments, so they are absent here; any
    other text, signed or not, shows up as a block (unindented free text is
    a depth-0 block).
    """
    return [
        (depth, body)
        for kind, depth, body in _iter_page_items(page.text)
        if kind == "block"
    ]


def _resolve_month(token: str) -> int | None:
    token = token.strip().rstrip(".").lower()
    if token.isdigit():
        month = int(token)
        return month if 1 <= month <= 12 else None
    return MONTHS.get(token)


def _candidate_timestamp(match: re.Match, now: datetime) -> datetime | None:
    parts = match.groupdict()
    month = _resolve_month(parts["month"])
    if month is None:
        return None
    try:
        ts = datetime(
            int(parts["year"]),
            month,
            int(parts["day"]),
            int(parts.get("hour") or 0),
            int(parts.get("minute") or 0),
            tzinfo=timezone.utc,
        )
    except ValueError:
        return None
    if ts < EARLIEST_TIMESTAMP or ts > now:
        return None
    return ts


def _last_user_link(body: str, end: int | None = None) -> re.Match | None:
    region = body if end is None else body[:end]
    last = None
    for m in USER_LINK_RE.finditer(region):
        last = m
    return last


def _clean_author(raw: str) -> str:
    return raw.replace("_", " ").strip()


def extract_signature(
    body: str, patterns: Sequence[re.Pattern] | None = None, now: datetime | None = None
) -> SignatureMatch | None:
    """Find the signature of one comment body, scanning from the end.

    The LAST parseable signature date in the body wins (quoted earlier
    signatures then stay inside the text), and the author is the last user
    or user-talk link within AUTHOR_WINDOW_CHARS before that date.  A date
    with no nearby link yields an authorless match; a user link with no
    parseable date yields a dateless match; a body with neither has no
    signature at all.  A date after now (default: the clock) is no date.
    """
    pats = DEFAULT_DATE_PATTERNS if patterns is None else patterns
    if now is None:
        now = datetime.now(timezone.utc)
    candidates: list[tuple[int, int, re.Match]] = []
    for priority, pattern in enumerate(pats):
        for m in pattern.finditer(body):
            candidates.append((m.end(), priority, m))
    candidates.sort(key=lambda item: (-item[0], item[1]))
    for _, _, match in candidates:
        ts = _candidate_timestamp(match, now)
        if ts is None:
            continue
        link = _last_user_link(body, match.start())
        if link is not None and match.start() - link.end() <= AUTHOR_WINDOW_CHARS:
            return SignatureMatch(
                author=_clean_author(link.group("name")),
                timestamp=ts,
                span=(link.start(), match.end()),
            )
        return SignatureMatch(author=None, timestamp=ts, span=match.span())
    link = _last_user_link(body)
    if link is not None:
        return SignatureMatch(
            author=_clean_author(link.group("name")), timestamp=None, span=link.span()
        )
    return None


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
    diag = diagnostics if diagnostics is not None else Diagnostics(source=page.article_id)
    if now is None:
        now = datetime.now(timezone.utc)
    events: list[CommentEvent] = []
    stack: list[tuple[int, int, str]] = []  # (raw indent, event depth, comment id)
    pending_unsigned = 0
    seq = 0
    for kind, depth, body in _iter_page_items(page.text):
        if kind == "heading":
            diag.tally("headings")
            if pending_unsigned:
                diag.tally("unsigned_dropped", pending_unsigned)
                pending_unsigned = 0
            stack.clear()
            continue
        diag.tally("blocks")
        signature = extract_signature(body, patterns, now)
        if signature is None:
            pending_unsigned += 1
            continue
        if pending_unsigned:
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
        comment_id = f"c{seq}"
        events.append(
            CommentEvent(
                article_id=page.article_id,
                comment_id=comment_id,
                parent_id=parent_id,
                depth=event_depth,
                timestamp=signature.timestamp,
                author=signature.author,
                doc_order=seq,
            )
        )
        stack.append((depth, event_depth, comment_id))
        seq += 1
    if pending_unsigned:
        diag.tally("unsigned_dropped", pending_unsigned)
    return events


def parse_file(
    path: str | Path,
    patterns: Sequence[re.Pattern] | None = None,
    diagnostics: Diagnostics | None = None,
    *,
    now: datetime | None = None,
) -> list[CommentEvent]:
    """Parse one talk-page file; the article id is the file's stem."""
    p = Path(path)
    page = RawTalkPage(p.stem, p.read_text(encoding="utf-8"))
    return to_events(page, patterns, diagnostics, now=now)
