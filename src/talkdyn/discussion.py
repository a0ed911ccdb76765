"""Discussion structure metrics: reply trees, h-index, and growth speed.

A discussion's h-index is the largest level theta such that the tree holds
at least theta comments at nesting level theta, where thread starters sit at
level 1 and each reply one level below its parent.  Deep-and-wide
discussions score high; a thousand drive-by starters or one long chain of
two-comment levels both stay low.

Growth speed is read off the trace of h over time: delta-h is the mean time
the discussion needed to climb one level, and a discussion is considered
settled once no climb has happened for a few multiples of that pace.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Iterable, Mapping

import numpy as np

from .ingest import COMMENT, NO_PARENT, UNDATED, Columns, CommentEvent, Diagnostics, event_columns

SECONDS_PER_DAY = 86400.0
DEFAULT_MIN_COMMENTS = 1000
DEFAULT_MATURITY_MULTIPLE = 3.0


class NoDatedCommentsError(ValueError):
    """The tree has no comment with a usable timestamp; no trace exists."""


class InsufficientGrowthError(ValueError):
    """The trace has fewer than two steps, so no growth interval exists."""


@dataclass(frozen=True, eq=False)
class DiscussionTree:
    """Reply forest of one article's talk page.

    levels and seconds hold one entry per comment kept, in document order:
    its nesting level (thread starters = 1, each reply one below its parent)
    and its epoch seconds (ingest.UNDATED when undated).  depth_counts maps
    level to the number of comments sitting exactly there.
    """

    article_id: str
    levels: np.ndarray
    seconds: np.ndarray

    @property
    def depth_counts(self) -> dict[int, int]:
        return {lv: n for lv, n in enumerate(np.bincount(self.levels).tolist()) if n}

    @property
    def n_comments(self) -> int:
        return len(self.levels)

    @property
    def max_level(self) -> int:
        return max(self.depth_counts, default=0)


@dataclass(frozen=True)
class HTrace:
    """Piecewise record of h over time for one discussion.

    steps[0] carries the h value already accumulated when the first dated
    climb happened (structure built before the first usable timestamp is
    attributed to that moment); every later step raises h by exactly 1.
    Timestamps are non-decreasing and equal timestamps are legitimate: a
    burst can push h up several levels at once.
    """

    article_id: str
    steps: tuple[tuple[datetime, int], ...]
    h0: int

    @property
    def final_h(self) -> int:
        return self.steps[-1][1]

    @property
    def first_increase(self) -> datetime:
        return self.steps[0][0]

    @property
    def last_increase(self) -> datetime:
        return self.steps[-1][0]


@dataclass(frozen=True)
class DeltaH:
    """Mean days per h level over the dated part of a trace."""

    article_id: str
    value: float
    intervals_used: int
    first_increase: datetime
    last_increase: datetime
    final_h: int


@dataclass(frozen=True)
class MaturityStatus:
    article_id: str
    mature: bool
    time_since_last_increase: float
    threshold_multiple: float


@dataclass(frozen=True)
class SpeedRank:
    """One row of the growth-speed table, fastest rows sorting first."""

    article_id: str
    delta_h_days: float
    start_day: datetime
    end_day: datetime
    duration_days: int
    final_h: int
    n_comments: int | None


class HIndexCounter:
    """Incremental h-index over a stream of level insertions.

    insert() is O(1): after adding a comment at level L only the predicate
    "count at L >= L" can newly hold, and only when L exceeds the current h
    does the maximum move, so h = max(h, L if counts[L] >= L).
    """

    __slots__ = ("counts", "h")

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.h = 0

    def insert(self, level: int) -> int:
        if level < 1:
            raise ValueError(f"levels start at 1, got {level}")
        self.counts[level] += 1
        if level > self.h and self.counts[level] >= level:
            self.h = level
        return self.h


def h_index_from_counts(depth_counts: Mapping[int, int]) -> int:
    """Largest theta with at least theta comments at level theta exactly."""
    return max((lv for lv, n in depth_counts.items() if n >= lv), default=0)


def h_index(tree: DiscussionTree) -> int:
    return h_index_from_counts(tree.depth_counts)


def build_forest(
    comments: Columns, diagnostics: Diagnostics | None = None
) -> dict[str, DiscussionTree]:
    """Every article's reply tree from one load's comment columns, by article name.

    An article's comments are taken in document order, ties in line order.
    Levels derive from the parent chain, not the stored depth field: a
    comment whose parent id is unknown (or appears later in document order)
    is kept as a thread starter and tallied as an orphan, and disagreement
    between stored depth and derived level is tallied but the derived level
    wins.  Duplicate comment ids keep the first occurrence.
    """
    diag = diagnostics if diagnostics is not None else Diagnostics()
    order = np.lexsort((comments.orders, comments.articles))
    rows = np.arange(order.size)
    articles, parents = comments.articles[order], comments.parents[order]
    # Each (article, id) key's first row; a later row with that key is a duplicate.
    span = int(max(comments.ids.max(initial=0), parents.max(initial=0))) + 1
    keys = articles * span + comments.ids[order]
    unique, first = np.unique(keys, return_index=True)
    kept = first[np.searchsorted(unique, keys)] == rows
    keys = articles * span + parents
    at = np.minimum(np.searchsorted(unique, keys), unique.size - 1)
    up = np.where((parents != NO_PARENT) & (unique[at] == keys) & (first[at] < rows), first[at], -1)
    # Pointer doubling: up jumps to ever higher ancestors, levels adds the edges jumped.
    levels = (up >= 0).astype(np.int64)
    while (live := np.flatnonzero(up >= 0)).size:
        above = up[live]
        levels[live] += levels[above]
        up[live] = up[above]
    levels += 1
    diag.tally("duplicate_comment_id", order.size - np.count_nonzero(kept))
    diag.tally("orphan_comment", np.count_nonzero(kept & (parents != NO_PARENT) & (levels == 1)))
    diag.tally("depth_level_mismatch", np.count_nonzero(kept & (comments.depths[order] + 1 != levels)))
    articles, levels, seconds = articles[kept], levels[kept], comments.seconds[order][kept]
    starts = np.flatnonzero(np.diff(articles, prepend=-1)).tolist()
    trees = [
        DiscussionTree(comments.names[articles[lo]], levels[lo:hi], seconds[lo:hi])
        for lo, hi in zip(starts, [*starts[1:], articles.size])
    ]
    return {tree.article_id: tree for tree in sorted(trees, key=lambda tree: tree.article_id)}


def build_tree(
    article_id: str,
    events: Iterable[CommentEvent],
    diagnostics: Diagnostics | None = None,
) -> DiscussionTree:
    """Assemble one article's reply tree from its comment events, as build_forest does."""
    comments = event_columns(events, COMMENT)
    if stray := [name for name in comments.names if name != article_id]:
        raise ValueError(f"event for {stray[0]!r} in tree {article_id!r}")
    diag = diagnostics if diagnostics is not None else Diagnostics(source=article_id)
    empty = np.empty(0, dtype=np.int64)
    return build_forest(comments, diag).get(article_id) or DiscussionTree(article_id, empty, empty)


def effective_timestamps(tree: DiscussionTree) -> np.ndarray:
    """Every comment's effective epoch seconds, in document order.

    An undated comment inherits the timestamp of the nearest preceding dated
    comment in document order; undated comments before any dated one take
    the first dated comment's timestamp (the structure existed by then, and
    that moment is the earliest it can be placed).  Raises
    NoDatedCommentsError when nothing is dated.
    """
    dated = tree.seconds != UNDATED
    if not dated.any():
        raise NoDatedCommentsError(f"no dated comments in {tree.article_id!r}")
    source = np.where(dated, np.arange(dated.size), np.argmax(dated))
    return tree.seconds[np.maximum.accumulate(source)]


def h_trace(tree: DiscussionTree) -> HTrace:
    """Replay the discussion in time order and record every h increase.

    Comments sharing an effective timestamp are absorbed as one batch.  The
    first batch that lifts h above zero contributes a single opening step
    carrying the whole value reached (that is h0); every later batch that
    lifts h by k contributes k unit steps at its timestamp, so zero-length
    intervals survive into the trace.  Level L holds L comments from the
    time of its L-th comment on, so h after a batch is the largest L reached
    by then, and only those times need visiting.
    """
    seconds = effective_timestamps(tree)
    by_level = np.lexsort((seconds, tree.levels))
    counts = np.bincount(tree.levels)
    starts = np.cumsum(counts) - counts
    reached = sorted(
        (int(seconds[by_level[starts[level] + level - 1]]), level)
        for level in range(1, counts.size) if counts[level] >= level
    )
    h = max(level for second, level in reached if second == reached[0][0])
    steps = [(reached[0][0], h)]
    for second, level in reached:
        steps += [(second, value) for value in range(h + 1, level + 1)]
        h = max(h, level)
    dated = tuple((datetime.fromtimestamp(second, timezone.utc), value) for second, value in steps)
    return HTrace(tree.article_id, dated, dated[0][1])


def delta_h(trace: HTrace) -> DeltaH:
    """Average days per level across the dated growth of a trace.

    The opening step only anchors the clock; averaging starts there, so a
    trace needs at least two steps before a growth interval exists at all.
    """
    if len(trace.steps) < 2:
        raise InsufficientGrowthError(
            f"{trace.article_id!r}: {len(trace.steps)} step(s), need at least 2"
        )
    t_first, h_first = trace.steps[0]
    t_last, h_last = trace.steps[-1]
    span_days = (t_last - t_first).total_seconds() / SECONDS_PER_DAY
    intervals = h_last - h_first
    return DeltaH(
        article_id=trace.article_id,
        value=span_days / intervals,
        intervals_used=intervals,
        first_increase=t_first,
        last_increase=t_last,
        final_h=h_last,
    )


def maturity(
    trace: HTrace,
    now: datetime,
    k: float = DEFAULT_MATURITY_MULTIPLE,
) -> MaturityStatus:
    """Has the discussion stopped climbing, judged at time now?

    Mature means the time since the last h increase is at least k times the
    discussion's own pace (delta-h).  A non-positive k makes every
    discussion mature the moment it stops for an instant; that is permitted
    but almost never meant, so a caller taking k from a user should warn.
    """
    pace = delta_h(trace)
    idle_days = (now - pace.last_increase).total_seconds() / SECONDS_PER_DAY
    return MaturityStatus(
        article_id=trace.article_id,
        mature=idle_days >= k * pace.value,
        time_since_last_increase=idle_days,
        threshold_multiple=k,
    )


def rank_by_speed(
    traces: Iterable[HTrace],
    min_comments: int = DEFAULT_MIN_COMMENTS,
    comment_counts: Mapping[str, int] | None = None,
) -> list[SpeedRank]:
    """Rank discussions by delta-h, fastest first.

    Only discussions with strictly more than min_comments comments enter the
    table (tiny discussions reach any h value on a handful of posts, which
    says nothing about pace).  comment_counts supplies the sizes; with no
    mapping the filter cannot be applied, so it is skipped and sizes are
    reported as unknown.  Traces with fewer than two steps are skipped: they
    have no measurable pace.
    """
    rows: list[SpeedRank] = []
    for trace in traces:
        size: int | None = None
        if comment_counts is not None:
            size = comment_counts.get(trace.article_id)
            if size is None or size <= min_comments:
                continue
        try:
            pace = delta_h(trace)
        except InsufficientGrowthError:
            continue
        start = trace.steps[0][0]
        end = trace.steps[-1][0]
        rows.append(
            SpeedRank(
                article_id=trace.article_id,
                delta_h_days=pace.value,
                start_day=start,
                end_day=end,
                duration_days=(end.date() - start.date()).days,
                final_h=trace.final_h,
                n_comments=size,
            )
        )
    rows.sort(key=lambda r: (r.delta_h_days, r.article_id))
    return rows
