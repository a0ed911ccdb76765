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
--stdin), and TrailingScorer many streams a batch of closed days at a time
(the watch replay), with the same decisions.
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

# Alert tiers for the streaming detector: ratio >= tier * c, strongest first.
ALERT_TIERS = (4.0, 2.0, 1.0)

# Window values gathered and sorted at once by the median kernels (1 MB of
# float64), so the watch scorer's (rows, window) temporaries stay small too.
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
        if self.window_halfwidth < 1:
            raise ValueError(f"window_halfwidth must be >= 1, got {self.window_halfwidth}")


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


def _row_medians(rows: np.ndarray, sizes: np.ndarray, zeros: np.ndarray | int = 0) -> np.ndarray:
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


def detect_day_counts(
    names: Sequence[str], kind: str, day_counts: DayCounts, params: PeakParams | None = None,
    *, trailing: bool = False,
) -> list[PeakRun]:
    """Peak runs of every article of (article code, day ordinal, count) rows, in row order.

    day_counts is sorted by article, then day, one row a day, as
    Columns.day_counts() gives it; codes index names.  Each day's window,
    centred or (trailing) the window_halfwidth days before it, is clipped to
    its article's first and last row, and a day without a row counts 0.
    PeakParams holds c > 1 and n_min >= 1, so a row with count <= c * n_min
    is no peak whatever its median: medians are read for the other rows
    only.
    """
    p = params or PeakParams()
    codes, days, counts = day_counts
    candidates = np.flatnonzero(counts > p.c * p.n_min)
    if candidates.size == 0:
        return []
    h = p.window_halfwidth
    floor = np.maximum(_window_medians(day_counts, candidates, h, h if trailing else 2 * h + 1),
                       float(p.n_min))
    hits = counts[candidates] > p.c * floor
    at = candidates[hits]
    if at.size == 0:
        return []
    ratios = (counts[at] / floor[hits]).tolist()
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


def _out_of_order(day: date, last: date) -> OutOfOrderError:
    """The error for a day at or before the last day its stream consumed."""
    return OutOfOrderError(f"day {day} after {last} already consumed")


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
            raise _out_of_order(day, state.current_day)
        state.push_zeros(gap - 1)
    floor = max(state.median(), float(p.n_min))
    ratio = count / floor
    is_peak = count > p.c * floor
    state.push(count)
    state.current_day = day
    return ratio, is_peak, state


class TrailingScorer:
    """Streaming peak detection for many streams, a batch of closed days at a time.

    A stream is a nonnegative integer code that the caller gives each
    (article, kind).  Every day is scored as stream_step scores it: against
    the median of the window_halfwidth days before it, back to its stream's
    first day, a day not given counting 0.  Per stream the scorer keeps its
    first day, its last day and a ring of window_halfwidth slots, slot
    day % window_halfwidth holding the latest day given there and its count:
    every day within the window of the last day is in the ring, and a slot
    that holds another day stands for a 0.  So what a call costs does not
    grow with the number of streams, and the per-stream arrays double when a
    larger code arrives.  A day with count <= c * n_min is no peak whatever its
    median, so medians are read only for the other days: each such candidate
    is one row of a (candidates, window) matrix, its window's counts taken
    from the ring and from its stream's earlier days in the batch, NaN past
    its window's size, and the rows go to _row_medians.  A feed that gives a
    day at a time is scored by stream_step instead, one StreamState per stream.
    """

    def __init__(self, params: PeakParams | None = None) -> None:
        self.params = params or PeakParams()
        # Per stream code: its first and last day (0 before it has one), and its ring.
        self._first = np.zeros(0, dtype=np.int64)
        self._last = np.zeros(0, dtype=np.int64)
        self._ring_days = np.zeros((0, self.params.window_halfwidth), dtype=np.int64)
        self._ring_counts = np.zeros_like(self._ring_days)

    def score(
        self, streams: Sequence[int] | np.ndarray, days: Sequence[int] | np.ndarray,
        counts: Sequence[int] | np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Consume a batch of closed days; return the positions of its peak days and their ratios.

        streams, days (ordinals) and counts are equal-length integer
        sequences, and each stream's days are scored in the order given.  A
        day at or before the day before it in its stream raises
        OutOfOrderError, as stream_step does, and nothing of the batch is
        consumed.
        """
        streams, days, counts = (np.asarray(a, dtype=np.int64) for a in (streams, days, counts))
        if streams.size == 0:
            return streams, np.zeros(0)
        self._reserve(int(streams.max()) + 1)
        order = np.argsort(streams, kind="stable")
        stream, day, count = streams[order], days[order], counts[order]
        head = np.ones(stream.size, dtype=bool)
        head[1:] = stream[1:] != stream[:-1]
        before = np.where(head, self._last[stream], np.roll(day, 1))
        if (late := (day <= before).nonzero()[0]).size:
            i = late[np.argmin(order[late])]
            raise _out_of_order(date.fromordinal(int(day[i])), date.fromordinal(int(before[i])))
        heads = head.nonzero()[0]
        tails = np.append(heads[1:] - 1, stream.size - 1)
        group = np.cumsum(head) - 1
        first = self._first[stream]
        first = np.where(first > 0, first, day[heads][group])
        hits, ratios = self._peaks(stream, day, count, first, heads[group])
        # The ring keeps the days within the window of each stream's new last day, one a slot.
        w = self.params.window_halfwidth
        kept = day > day[tails][group] - w
        self._ring_days[stream[kept], day[kept] % w] = day[kept]
        self._ring_counts[stream[kept], day[kept] % w] = count[kept]
        self._first[stream[heads]] = first[heads]
        self._last[stream[tails]] = day[tails]
        hits = order[hits]
        by_position = np.argsort(hits)
        return hits[by_position], ratios[by_position]

    def _reserve(self, streams: int) -> None:
        """Room for the stream codes below streams: the per-stream arrays at least double."""
        have = self._first.size
        if streams <= have:
            return
        grow = max(streams, 2 * have) - have
        self._first = np.append(self._first, np.zeros(grow, dtype=np.int64))
        self._last = np.append(self._last, np.zeros(grow, dtype=np.int64))
        ring = np.zeros((grow, self.params.window_halfwidth), dtype=np.int64)
        self._ring_days = np.concatenate((self._ring_days, ring))
        self._ring_counts = np.concatenate((self._ring_counts, ring))

    def _ring_rows(self, streams: np.ndarray, starts: np.ndarray, sizes: np.ndarray, width: int) -> np.ndarray:
        """One float row per stream: the counts its ring holds for days starts .. starts + width - 1,
        0 for a day it does not hold, NaN from sizes on."""
        wanted = starts[:, None] + np.arange(width)
        at = streams[:, None], wanted % self.params.window_halfwidth
        rows = np.where(self._ring_days[at] == wanted, self._ring_counts[at], 0).astype(np.float64)
        rows[np.arange(width) >= sizes[:, None]] = np.nan
        return rows

    def _peaks(
        self, stream: np.ndarray, day: np.ndarray, count: np.ndarray, first: np.ndarray, head: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The peak positions and ratios of a batch grouped by stream, before it enters the rings.

        first and head hold each position's stream's first day and its
        stream's first position in the batch.
        """
        p = self.params
        cand = (count > p.c * p.n_min).nonzero()[0]
        if cand.size == 0:
            return cand, np.zeros(0)
        sizes = np.minimum(day[cand] - first[cand], p.window_halfwidth)
        starts = day[cand] - sizes
        width = max(int(sizes.max()), 1)
        medians = np.empty(cand.size)
        step = max(1, _SORT_CHUNK // width)
        for a in range(0, cand.size, step):
            at, start, size = cand[a:a + step], starts[a:a + step], sizes[a:a + step]
            rows = self._ring_rows(stream[at], start, size, width)
            # A window's days in the batch are among the width positions before its day.
            back = at[:, None] - np.arange(1, width + 1)
            r, k = ((back >= head[at, None]) & (day[np.maximum(back, 0)] >= start[:, None])).nonzero()
            back = back[r, k]
            rows[r, day[back] - start[r]] = count[back]
            medians[a:a + step] = _row_medians(rows, size)
        floor = np.maximum(medians, float(p.n_min))
        hit = count[cand] > p.c * floor
        return cand[hit], count[cand][hit] / floor[hit]


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
