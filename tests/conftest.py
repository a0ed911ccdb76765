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
)
from talkdyn.cli import _step_and_alert
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
    timestamp = parse_timestamp_oracle(record.get("ts"), now)
    if timestamp is None:
        diagnostics.record(line_no, "edit_ts_malformed", f"ts={record.get('ts')!r}")
        return None
    return EditEvent(sys.intern(article), timestamp)


def _records_jsonl_oracle(handle, diagnostics: Diagnostics):
    for line_no, line in enumerate(handle, start=1):
        if not line.strip():
            continue
        diagnostics.tally("lines_read")
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:
            diagnostics.record(line_no, "bad_json", str(exc))
            continue
        if not isinstance(record, dict):
            diagnostics.record(line_no, "not_an_object", type(record).__name__)
            continue
        yield line_no, record


def _records_csv_oracle(handle, diagnostics: Diagnostics, kind: str):
    expected = COMMENT_FIELDS if kind == COMMENT else EDIT_FIELDS
    reader = csv.DictReader(handle)
    if reader.fieldnames is None:
        return
    missing = [c for c in expected if c not in reader.fieldnames]
    if missing:
        raise IngestError(f"{diagnostics.source}: missing CSV columns {missing}")
    for line_no, row in enumerate(reader, start=2):
        diagnostics.tally("lines_read")
        yield line_no, row


def load_events_oracle(path, kind: str, *, fmt: str = "jsonl",
                       diagnostics: Diagnostics | None = None, now: datetime | None = None):
    """The per-line loader; now defaults to the clock, as load_events does."""
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
        handle = open(path, "r", encoding="utf-8", newline="")
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


def simulate_watch_oracle(events_path, params: PeakParams, kind: str = COMMENT,
                          sort: bool = False, now: datetime | None = None) -> list[list[object]]:
    """The event-at-a-time watch replay over the per-line loader."""
    states: dict = {}
    alerts: list[list[object]] = []
    events = load_events_oracle(events_path, kind, diagnostics=Diagnostics(), now=now)
    if sort:
        days: dict[str, dict[int, int]] = defaultdict(dict)
        for event in events:
            if event.timestamp is None:
                continue
            per = days[event.article_id]
            ordinal = event.timestamp.toordinal()
            per[ordinal] = per.get(ordinal, 0) + 1
        for article in sorted(days):
            for ordinal in sorted(days[article]):
                row = _step_and_alert(states, article, kind, date.fromordinal(ordinal),
                                      days[article][ordinal], params)
                if row:
                    alerts.append(row)
        return alerts
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
        row = _step_and_alert(states, event.article_id, kind, entry[0], entry[1], params)
        if row:
            alerts.append(row)
        open_days[event.article_id] = (day, 1)
    for article in sorted(open_days):
        row = _step_and_alert(states, article, kind, *open_days[article], params)
        if row:
            alerts.append(row)
    return alerts


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
