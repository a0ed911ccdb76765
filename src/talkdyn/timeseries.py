"""Activity-peak detection on daily count series.

A day counts as a peak when its activity exceeds a multiple of the local
median: n(t) > c * max(m(t), n_min), where m(t) is the median over a centered
window of window_halfwidth days on each side of t (t included).  The floor
n_min keeps quiet stretches from promoting trivial flutter: a median near
zero would otherwise flag any day with a handful of events.  Consecutive
peak days form one run; a run of length 2 is the twin-peak shape that
follows from a sharp onset decaying over two days.  detect_day_counts finds
the runs of many articles at once from their (article, day, count) rows, a
day without a row counting 0; detect_peaks is its one-article case.

The streaming variant looks only backwards (median of the trailing
window_halfwidth days before the current day), so it can run on live feeds;
its decisions match a batch pass that uses the same trailing window, not the
centered one.  stream_step scores one stream a day at a time (watch
--stdin), and TrailingScorer many streams a batch of event runs at a time
(the watch replay): it sums each stream's days, closes a day once a later
one arrives and scores it through detect_day_counts' kernel, with the same
decisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date, timedelta
from itertools import repeat
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .ingest import ActivitySeries, OutOfOrderError

DEFAULT_PEAK_FACTOR = 5.0
DEFAULT_MIN_ACTIVITY = 10
DEFAULT_WINDOW_HALFWIDTH = 14
# Days from date.min to date.max: a wider window sees no more days.
MAX_WINDOW_HALFWIDTH = date.max.toordinal() - date.min.toordinal()

# Alert tiers for the streaming detector: ratio >= tier * c, strongest first.
ALERT_TIERS = (4.0, 2.0, 1.0)

# Window values gathered and sorted at once by the median kernel (1 MB of
# float64), so a wide window over many rows stays small.
_SORT_CHUNK = 1 << 17

# (article code, day ordinal, count) rows, sorted by article and then day.
DayCounts = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class PeakParams:
    """Detector knobs: threshold factor c, activity floor, window halfwidth."""

    c: float = DEFAULT_PEAK_FACTOR
    n_min: int = DEFAULT_MIN_ACTIVITY
    window_halfwidth: int = DEFAULT_WINDOW_HALFWIDTH

    def __post_init__(self) -> None:
        if not 1.0 < self.c < math.inf:
            raise ValueError(f"c must be finite and exceed 1, got {self.c}")
        if self.n_min < 1:
            raise ValueError(f"n_min must be >= 1, got {self.n_min}")
        if not 1 <= self.window_halfwidth <= MAX_WINDOW_HALFWIDTH:
            raise ValueError(f"window_halfwidth must be in [1, {MAX_WINDOW_HALFWIDTH}], "
                             f"got {self.window_halfwidth}")


class PeakRun(NamedTuple):
    """A maximal stretch of consecutive peak days for one article and kind.

    day_ratios holds n / max(median, floor) per day of the run; it is empty
    on runs reconstructed from summary files where the profile was not kept.
    A named tuple, one built per run: immutable, hashed and compared by its
    fields, and like any tuple it unpacks, indexes, orders and equals a
    plain tuple of its fields.
    """

    article_id: str
    kind: str
    start_day: date
    length: int
    day_ratios: tuple[float, ...] = ()

    @property
    def end_day(self) -> date:
        return self.start_day + timedelta(days=self.length - 1)

    @property
    def max_ratio(self) -> float | None:
        """The run's highest day ratio; None when the profile was not kept."""
        return max(self.day_ratios, default=None)

    def days(self) -> Iterator[date]:
        for offset in range(self.length):
            yield self.start_day + timedelta(days=offset)


def sliding_median(
    counts: ActivitySeries | Sequence[int] | np.ndarray, halfwidth: int
) -> np.ndarray:
    """Median over a centered window of halfwidth days each side, per day.

    Accepts an ActivitySeries or a bare count sequence.  Windows are truncated
    at the series edges, so the first and last days see shorter, asymmetric
    windows.  Even-sized windows take the mean of the two central values.
    """
    if halfwidth < 1:
        raise ValueError(f"halfwidth must be >= 1, got {halfwidth}")
    arr = _dense(counts)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("counts must be a nonempty 1-d sequence")
    return _dense_medians(arr, halfwidth, 2 * halfwidth + 1)


def trailing_median(
    counts: ActivitySeries | Sequence[int] | np.ndarray, window: int
) -> np.ndarray:
    """Median of the window days strictly before each day (0 when none exist)."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    return _dense_medians(_dense(counts), window, window)


def _dense(counts: ActivitySeries | Sequence[int] | np.ndarray) -> np.ndarray:
    if isinstance(counts, ActivitySeries):
        counts = counts.counts
    return np.asarray(counts, dtype=np.float64)


def _dense_medians(arr: np.ndarray, lead: int, width: int) -> np.ndarray:
    """The (lead, width) window median of every day of a dense series, clipped to the series."""
    days = np.arange(arr.size)
    return _window_medians((np.zeros_like(days), days, arr), days, lead, width)


def _window_medians(day_counts: DayCounts, at: np.ndarray, lead: int, width: int) -> np.ndarray:
    """Median of each row i in at over days[i] - lead .. days[i] - lead + width - 1,
    clipped to its article's first and last row; a day without a row counts 0.

    The rows are sorted by article and day, one a day, so keyed by article
    and day they ascend and a window's rows are one slice of them, found by
    two binary searches.  Each slice is read by position into a matrix row,
    NaN past it, and _row_medians counts the window's days without a row as
    zeros; about _SORT_CHUNK values are read and sorted at a time, so a wide
    window over many rows stays small.
    """
    codes, days, counts = day_counts
    head = np.diff(codes, prepend=-1) != 0
    heads = np.flatnonzero(head)
    group = np.cumsum(head) - 1  # each row's article, counted in row order
    keys = group * (int(days.max(initial=0)) + 1) + days
    first, last = days[heads], np.append(days[heads[1:] - 1], days[-1:])
    article, day = group[at], days[at]
    starts = np.maximum(day - lead, first[article])
    ends = np.minimum(day - lead + width - 1, last[article])
    sizes = ends - starts + 1
    lo = np.searchsorted(keys, keys[at] - day + starts)
    found = np.searchsorted(keys, keys[at] - day + ends, side="right") - lo
    out = np.empty(at.size, dtype=np.float64)
    step = max(1, _SORT_CHUNK // max(int(sizes.max(initial=0)), 1))
    for a in range(0, at.size, step):
        b = a + step
        taken = np.arange(max(int(found[a:b].max()), 1))
        near = lo[a:b, None] + taken
        np.minimum(near, days.size - 1, out=near)
        rows = counts[near].astype(np.float64, copy=False)
        rows[taken >= found[a:b, None]] = np.nan
        out[a:b] = _row_medians(rows, sizes[a:b], sizes[a:b] - found[a:b])
    return out


def _row_medians(rows: np.ndarray, sizes: np.ndarray, zeros: np.ndarray) -> np.ndarray:
    """Median of each row's sizes[i] values, 0 for none: zeros[i] zeros, then the row's
    real values (none negative where zeros[i] > 0), the row padded with NaN past them.

    The rows are sorted in place (NaN sorts last) and the middle of each
    row's values is picked by its size; an even size takes the mean of the
    two central values.
    """
    rows.sort(axis=1)
    k = np.arange(sizes.size)

    def nth(n: np.ndarray) -> np.ndarray:
        n = n - zeros
        return np.where(n < 0, 0.0, rows[k, np.maximum(n, 0)])

    medians = (nth((sizes - 1) // 2) + nth(sizes // 2)) / 2
    medians[sizes == 0] = 0.0
    return medians


def _peak_rows(
    day_counts: DayCounts, rows: np.ndarray, p: PeakParams, width: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Those of rows that peak, in their order, and their ratios n / max(median, n_min).

    A row's median is _window_medians' over the width days from
    window_halfwidth days before its own.  PeakParams holds c > 1 and
    n_min >= 1, so a row with count <= c * n_min is no peak whatever its
    median: medians are read for the other rows only.
    """
    counts = day_counts[2]
    rows = rows[counts[rows] > p.c * p.n_min]
    if rows.size == 0:
        return rows, np.zeros(0)
    floor = np.maximum(_window_medians(day_counts, rows, p.window_halfwidth, width), float(p.n_min))
    hit = counts[rows] > p.c * floor
    return rows[hit], counts[rows[hit]] / floor[hit]


def detect_day_counts(
    names: Sequence[str], kind: str, day_counts: DayCounts, params: PeakParams | None = None,
    *, trailing: bool = False,
) -> list[PeakRun]:
    """Peak runs of every article of (article code, day ordinal, count) rows, in row order.

    day_counts is sorted by article, then day, one row a day, as
    Columns.day_counts() gives it; codes index names.  Each day's window,
    centred or (trailing) the window_halfwidth days before it, is clipped to
    its article's first and last row, and a day without a row counts 0.
    """
    p = params or PeakParams()
    codes, days, counts = day_counts
    h = p.window_halfwidth
    at, ratios = _peak_rows(day_counts, np.arange(codes.size), p, h if trailing else 2 * h + 1)
    if at.size == 0:
        return []
    ratios = ratios.tolist()
    code, day = codes[at], days[at]
    # A run breaks where the article changes or a day is skipped.
    breaks = (np.flatnonzero((np.diff(day) != 1) | (np.diff(code) != 0)) + 1).tolist()
    code, day = code.tolist(), day.tolist()
    return [
        PeakRun(names[code[a]], kind, date.fromordinal(day[a]), b - a, tuple(ratios[a:b]))
        for a, b in zip([0, *breaks], [*breaks, at.size])
    ]


def _one_article(series: ActivitySeries) -> tuple[list[str], str, DayCounts]:
    """detect_day_counts' first arguments for one dense series: rows for its
    nonzero days and for its first and last day, so that they span it."""
    counts = np.asarray(series.counts)
    kept = counts != 0
    kept[:1] = kept[-1:] = True
    at = np.flatnonzero(kept)
    days = series.start_day.toordinal() + at
    return [series.article_id], series.kind, (np.zeros_like(at), days, counts[at])


def detect_peaks(series: ActivitySeries, params: PeakParams | None = None) -> list[PeakRun]:
    """Find all peak runs in one daily series, in chronological order."""
    return detect_day_counts(*_one_article(series), params)


def detect_peaks_trailing(series: ActivitySeries, params: PeakParams | None = None) -> list[PeakRun]:
    """Batch peak detection with the trailing window the streaming path uses.

    This is the reference the stream is checked against; it differs from
    detect_peaks in that day t never sees its own or later days.
    """
    return detect_day_counts(*_one_article(series), params, trailing=True)


class StreamState:
    """Trailing window of daily counts for one (article, kind) stream.

    The window is read-only from outside: buffer is a snapshot, and push is
    the only way in.
    """

    __slots__ = ("window", "current_day", "_days")

    def __init__(
        self,
        window: int = DEFAULT_WINDOW_HALFWIDTH,
        buffer: Iterable[int] = (),
        current_day: date | None = None,
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self.current_day = current_day
        self._days = list(buffer)[-window:]

    def __repr__(self) -> str:
        return (f"StreamState(window={self.window}, buffer={self.buffer},"
                f" current_day={self.current_day!r})")

    @property
    def buffer(self) -> tuple[int, ...]:
        """The buffered days' counts, oldest first."""
        return tuple(self._days)

    def push(self, count: int) -> None:
        """Append one day's count, evicting the oldest once the window is full."""
        self._days.append(count)
        if len(self._days) > self.window:
            del self._days[0]

    def push_zeros(self, n: int) -> None:
        """Append n zero-count days, as n calls of push(0) would."""
        self._days.extend(repeat(0, min(n, self.window)))
        del self._days[:-self.window]

    def median(self) -> float:
        """Median of the buffered days, 0 for none: the sum and halving _row_medians
        takes on one row."""
        ordered = sorted(self._days)
        size = len(ordered)
        return (float(ordered[(size - 1) // 2]) + float(ordered[size // 2])) / 2 if size else 0.0


def stream_step(
    state: StreamState, day: date, count: int, params: PeakParams | None = None
) -> tuple[float, bool, StreamState]:
    """Consume one day's count; return (ratio, is_peak, state) for that day.

    Gaps between the previous day and this one are filled with zero-count
    days first, so a quiet fortnight drags the trailing median down exactly
    as a dense feed would.  Feeding a day at or before the last one raises
    OutOfOrderError: the buffer cannot be rewound.  The returned state is the
    input object, advanced in place.
    """
    p = params or PeakParams()
    if state.current_day is not None:
        gap = (day - state.current_day).days
        if gap <= 0:
            raise OutOfOrderError(f"day {day} after {state.current_day} already consumed")
        state.push_zeros(gap - 1)
    floor = max(state.median(), float(p.n_min))
    ratio = count / floor
    is_peak = count > p.c * floor
    state.push(count)
    state.current_day = day
    return ratio, is_peak, state


class TrailingScorer:
    """Streaming peak detection for many streams, fed runs of events a batch at a time.

    A stream is a nonnegative integer code that the caller gives each
    (article, kind).  Runs of one stream and day are summed, and a stream's
    last day stays open until a later day of it arrives, which closes it, or
    until close().  Every closed day is scored as stream_step scores it:
    against the median of the window_halfwidth days before it, back to its
    stream's first day, a day not given counting 0.  The scorer keeps the
    (stream, day, count) rows a later window can still reach, each stream's
    together and in day order: its open day, the window_halfwidth days
    before it, and the newest day before them with its count set to 0.  That
    anchor lies before every later window, so it adds no count, but it keeps
    the windows from being clipped to the first kept day as to a stream's
    first day.  So a stream keeps at most window_halfwidth + 2 rows, and
    never more than the days it was given.  A batch is put after its
    streams' kept rows, its days summed, and the days it closes scored by
    _peak_rows, the kernel detect_day_counts runs.  A feed that gives a day
    at a time is scored by stream_step instead, one StreamState per stream.
    """

    def __init__(self, params: PeakParams | None = None) -> None:
        self.params = params or PeakParams()
        # The kept rows, as three int64 columns: stream, day, count.
        self._kept = (np.zeros(0, dtype=np.int64),) * 3

    def feed(
        self, names: Sequence[str], streams: Sequence[int] | np.ndarray,
        days: Sequence[int] | np.ndarray, counts: Sequence[int] | np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Consume a batch of runs; return (streams, days, counts, ratios) of the peak days it closes.

        streams, days (ordinals) and counts are equal-length integer
        sequences in arrival order, as Chunk.day_runs() gives them; streams
        index names, which only name a stream in an error.  The days come
        out in the order of the runs that close them.  A run on a day before
        the one before it in its stream raises OutOfOrderError, for the
        first such run in batch order, and nothing of the batch is consumed.
        """
        batch = tuple(np.asarray(a, dtype=np.int64) for a in (streams, days, counts))
        if batch[0].size == 0:
            return (*batch, np.zeros(0))
        given = np.zeros(int(max(batch[0].max(), self._kept[0].max(initial=0))) + 1, dtype=bool)
        given[batch[0]] = True
        mine = given[self._kept[0]]
        # The batch's streams' kept rows, then the batch: a stable sort groups each stream's in day order.
        stream, day, count = (np.concatenate((kept[mine], new)) for kept, new in zip(self._kept, batch))
        order = np.argsort(stream, kind="stable")
        stream, day, count = stream[order], day[order], count[order]
        position = order - np.count_nonzero(mine)  # in the batch; negative for a kept row
        stream_head = np.ones(stream.size, dtype=bool)
        stream_head[1:] = stream[1:] != stream[:-1]
        backward = np.flatnonzero(~stream_head[1:] & (day[1:] < day[:-1])) + 1
        if backward.size:
            i = int(backward[np.argmin(position[backward])])
            raise OutOfOrderError(
                f"{names[stream[i]]}: event on {date.fromordinal(int(day[i]))} arrived after"
                f" {date.fromordinal(int(day[i - 1]))}; rerun with --sort"
            )
        day_head = stream_head.copy()
        day_head[1:] |= day[1:] != day[:-1]
        heads = np.flatnonzero(day_head)
        rows = stream, day, count = stream[heads], day[heads], np.add.reduceat(count, heads)
        position = position[heads]
        # A stream's last day stays open; a kept day before its stream's last kept day is scored.
        last = np.append(stream[1:] != stream[:-1], True)
        scored = position < 0
        scored[:-1] &= position[1:] < 0
        w = self.params.window_halfwidth
        hits, ratios = _peak_rows(rows, np.flatnonzero(~scored & ~last), self.params, w)
        # A day is closed by the first run of the next day of its stream.
        by_closing = np.argsort(position[hits + 1])
        hits = hits[by_closing]
        closed = stream[hits], day[hits], count[hits], ratios[by_closing]
        # A stream keeps its days from its last day less w, a suffix of its rows, and the row
        # before them as the anchor, its count 0.
        ends = np.flatnonzero(last)
        keep = day >= np.repeat(day[ends], np.diff(ends, prepend=-1)) - w
        anchor = np.zeros_like(keep)
        anchor[:-1] = keep[1:] & ~keep[:-1]
        count[anchor] = 0
        keep |= anchor
        self._kept = tuple(np.concatenate((kept[~mine], new[keep])) for kept, new in zip(self._kept, rows))
        return closed

    def close(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Score every stream's open day and empty the state; return (streams, days, counts,
        ratios) of those that peak."""
        rows = stream, day, count = self._kept
        self._kept = (np.zeros(0, dtype=np.int64),) * 3
        last = np.flatnonzero(np.append(stream[1:] != stream[:-1], stream.size > 0))
        hits, ratios = _peak_rows(rows, last, self.params, self.params.window_halfwidth)
        return stream[hits], day[hits], count[hits], ratios


def alert_tier(ratio: float, params: PeakParams | None = None) -> int | None:
    """Tier 1/2/3 for ratios reaching c, 2c, 4c; None below the base factor."""
    p = params or PeakParams()
    for index, multiple in enumerate(ALERT_TIERS):
        if ratio >= multiple * p.c:
            return len(ALERT_TIERS) - index
    return None


def inter_peak_intervals(runs: Iterable[PeakRun]) -> list[int]:
    """Day gaps between starts of consecutive runs of one article and kind."""
    ordered = sorted(runs, key=lambda r: r.start_day)
    starts = [r.start_day.toordinal() for r in ordered]
    return [b - a for a, b in zip(starts, starts[1:])]
