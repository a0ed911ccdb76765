"""Activity-peak detection on daily count series.

A day counts as a peak when its activity exceeds a multiple of the local
median: n(t) > c * max(m(t), n_min), where m(t) is the median over a centered
window of window_halfwidth days on each side of t (t included).  The floor
n_min keeps quiet stretches from promoting trivial flutter: a median near
zero would otherwise flag any day with a handful of events.  Consecutive
peak days form one run; a run of length 2 is the twin-peak shape that
follows from a sharp onset decaying over two days.

The streaming variant looks only backwards (median of the trailing
window_halfwidth days before the current day), so it can run on live feeds;
its decisions match a batch pass that uses the same trailing window, not the
centered one.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from datetime import date, timedelta
from itertools import repeat
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .ingest import ActivitySeries

DEFAULT_PEAK_FACTOR = 5.0
DEFAULT_MIN_ACTIVITY = 10
DEFAULT_WINDOW_HALFWIDTH = 14

# Alert tiers for the streaming detector: ratio >= tier * c, strongest first.
ALERT_TIERS = (4.0, 2.0, 1.0)

# Window values sorted at once by the batch median kernel (8 MB of float64).
_SORT_CHUNK = 1 << 20


class OutOfOrderError(ValueError):
    """A streamed day arrived at or before the day already consumed."""


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


@dataclass(frozen=True)
class PeakRun:
    """A maximal stretch of consecutive peak days for one article and kind.

    day_ratios holds n / max(median, floor) per day of the run; it is empty
    on runs reconstructed from summary files where the profile was not kept.
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
    if isinstance(counts, ActivitySeries):
        counts = counts.counts
    arr = np.asarray(counts, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("counts must be a nonempty 1-d sequence")
    return _window_medians(arr, *_centred(arr.size, halfwidth), np.arange(arr.size))


def _centred(n: int, halfwidth: int) -> tuple[int, int]:
    """(lead, width) of the centred window on n days."""
    # A halfwidth beyond the series length sees the same (whole) series.
    halfwidth = min(halfwidth, n)
    return halfwidth, 2 * halfwidth + 1


def _trailing(n: int, window: int) -> tuple[int, int]:
    """(lead, width) of the trailing window on n days."""
    # No day sees more than the days before it, so a longer window is moot.
    window = min(window, max(n, 1))
    return window, window


def _window_medians(arr: np.ndarray, lead: int, width: int, rows: np.ndarray) -> np.ndarray:
    """Median of arr[t - lead : t - lead + width], clipped to arr, for each t in rows.

    One kernel for every window shape: the array is padded with NaN, each
    day's window is a row of one strided view, rows are sorted (NaN sorts
    last) and the middle of each row's real values is picked by its true
    size.  Empty windows give 0.  Rows are gathered and sorted a chunk at a
    time so a wide window on a long series never holds more than
    ~_SORT_CHUNK values.
    """
    n = arr.size
    padded = np.concatenate(
        (np.full(lead, np.nan), arr, np.full(max(0, width - 1 - lead), np.nan))
    )
    windows = sliding_window_view(padded, width)
    start = rows - lead
    sizes = np.minimum(start + width, n) - np.maximum(start, 0)
    lo, hi = (sizes - 1) // 2, sizes // 2
    out = np.empty(rows.size, dtype=np.float64)
    step = max(1, _SORT_CHUNK // width)
    for first in range(0, rows.size, step):
        last = min(first + step, rows.size)
        ordered = windows[rows[first:last]]
        ordered.sort(axis=1)
        k = np.arange(last - first)
        out[first:last] = (ordered[k, lo[first:last]] + ordered[k, hi[first:last]]) / 2
    out[sizes == 0] = 0.0
    return out


def detect_peaks(series: ActivitySeries, params: PeakParams | None = None) -> list[PeakRun]:
    """Find all peak runs in one daily series, in chronological order."""
    p = params or PeakParams()
    return _detect(series, p, *_centred(len(series.counts), p.window_halfwidth))


def _detect(series: ActivitySeries, p: PeakParams, lead: int, width: int) -> list[PeakRun]:
    """Peak runs of series against the medians of the (lead, width) window.

    PeakParams holds c > 1 and n_min >= 1, so a day with n(t) <= c * n_min is
    no peak whatever its median: medians are read on the other days only,
    with the same kernel, so every float matches the whole-series medians.
    """
    counts = np.asarray(series.counts, dtype=np.float64)
    n_min = float(p.n_min)
    candidates = np.flatnonzero(counts > p.c * n_min)
    if candidates.size == 0:
        return []
    floor = np.maximum(_window_medians(counts, lead, width, candidates), n_min)
    hits = counts[candidates] > p.c * floor
    idx = candidates[hits]
    if idx.size == 0:
        return []
    ratios = (counts[idx] / floor[hits]).tolist()
    # Split the sorted peak-day indices wherever consecutive days break.
    breaks = (np.flatnonzero(np.diff(idx) > 1) + 1).tolist()
    return [
        PeakRun(
            article_id=series.article_id,
            kind=series.kind,
            start_day=series.day(int(idx[a])),
            length=b - a,
            day_ratios=tuple(ratios[a:b]),
        )
        for a, b in zip([0, *breaks], [*breaks, idx.size])
    ]


def trailing_median(
    counts: ActivitySeries | Sequence[int] | np.ndarray, window: int
) -> np.ndarray:
    """Median of the window days strictly before each day (0 when none exist)."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if isinstance(counts, ActivitySeries):
        counts = counts.counts
    arr = np.asarray(counts, dtype=np.float64)
    return _window_medians(arr, *_trailing(arr.size, window), np.arange(arr.size))


def detect_peaks_trailing(series: ActivitySeries, params: PeakParams | None = None) -> list[PeakRun]:
    """Batch peak detection with the trailing window the streaming path uses.

    This is the reference the stream is checked against; it differs from
    detect_peaks in that day t never sees its own or later days.
    """
    p = params or PeakParams()
    return _detect(series, p, *_trailing(len(series.counts), p.window_halfwidth))


class StreamState:
    """Trailing window of daily counts for one (article, kind) stream.

    The window is read-only from outside: buffer is a snapshot, and push is
    the only way in.  Next to it the same values are kept sorted, so each
    step updates the window median in O(window) list moves instead of sorting
    it (the running median of Haerdle & Steiger, Appl. Stat. 1995).
    """

    __slots__ = ("window", "current_day", "_days", "_sorted")

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
        self._days: deque = deque(buffer, maxlen=window)
        self._sorted = sorted(self._days)

    def __repr__(self) -> str:
        return (f"StreamState(window={self.window}, buffer={self.buffer},"
                f" current_day={self.current_day!r})")

    @property
    def buffer(self) -> tuple[int, ...]:
        """The buffered days' counts, oldest first."""
        return tuple(self._days)

    def push(self, count: int) -> None:
        """Append one day's count, evicting the oldest once the window is full."""
        days = self._days
        if len(days) == self.window:
            del self._sorted[bisect_left(self._sorted, days[0])]
        days.append(count)
        insort(self._sorted, count)

    def push_zeros(self, n: int) -> None:
        """Append n zero-count days, as n calls of push(0) would.

        Once n reaches the window, every day in it is a zero: the window is
        reset in one step instead.
        """
        if n >= self.window:
            self._days.extend(repeat(0, self.window))
            self._sorted = [0] * self.window
            return
        for _ in range(n):
            self.push(0)

    def median(self) -> float:
        """Median of the buffered days; 0 for an empty buffer."""
        values = self._sorted
        if not values:
            return 0.0
        mid = len(values) // 2
        if len(values) % 2:
            return float(values[mid])
        return (values[mid - 1] + values[mid]) / 2


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
