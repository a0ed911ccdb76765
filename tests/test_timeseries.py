"""Peak detection: sliding medians, thresholding, runs, and the stream path."""

from __future__ import annotations

import math
import random
import tracemalloc
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from talkdyn import (
    OutOfOrderError,
    PeakParams,
    StreamState,
    detect_peaks,
    detect_peaks_trailing,
    inter_peak_intervals,
    sliding_median,
    stream_step,
)
from talkdyn import timeseries
from talkdyn.timeseries import PeakRun, alert_tier, trailing_median

from conftest import (
    START_DAY,
    make_series,
    median_oracle,
    peak_days_oracle,
    runs_from_days,
    trailing_median_oracle,
    trailing_peak_days_oracle,
)

counts_lists = st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=200)
halfwidths = st.integers(min_value=1, max_value=20)
params_st = st.builds(
    PeakParams,
    c=st.sampled_from([2.0, 5.0, 10.0, 20.0]),
    n_min=st.sampled_from([1, 10]),
    window_halfwidth=st.integers(min_value=1, max_value=20),
)


class TestSlidingMedian:
    def test_constant_series(self):
        assert sliding_median([7] * 40, 14).tolist() == [7.0] * 40

    def test_isolated_spike_leaves_median_at_zero(self):
        m = sliding_median([0, 0, 0, 0, 100, 0, 0, 0, 0], 2)
        assert m[4] == 0.0

    def test_single_day(self):
        assert sliding_median([5], 3).tolist() == [5.0]

    def test_truncated_edges(self):
        # Window shrinks at the edges: first day sees [1,2,3], last [3,2,1].
        m = sliding_median([1, 2, 3, 100, 3, 2, 1], 2)
        assert m.tolist() == [2.0, 2.5, 3.0, 3.0, 3.0, 2.5, 2.0]

    def test_even_window_takes_midpoint(self):
        # Day 0 with halfwidth 1 sees only [0, 10]: median is their mean.
        m = sliding_median([0, 10, 0], 1)
        assert m[0] == 5.0

    def test_accepts_activity_series(self):
        series = make_series([1, 2, 3])
        assert sliding_median(series, 1).tolist() == sliding_median([1, 2, 3], 1).tolist()

    def test_rejects_empty_and_bad_halfwidth(self):
        with pytest.raises(ValueError):
            sliding_median([], 2)
        with pytest.raises(ValueError):
            sliding_median([1, 2], 0)

    @given(counts=counts_lists, halfwidth=halfwidths)
    def test_matches_per_window_recomputation(self, counts, halfwidth):
        got = sliding_median(counts, halfwidth)
        assert got.tolist() == median_oracle(counts, halfwidth)

    @pytest.mark.parametrize("halfwidth", [1, 3, 14, 40])
    def test_rows_sorted_in_chunks_match_oracle(self, monkeypatch, halfwidth):
        # A tiny sort budget forces many chunks, several rows to one chunk.
        monkeypatch.setattr(timeseries, "_SORT_CHUNK", 100)
        counts = [random.Random(halfwidth).randrange(60) for _ in range(257)]
        assert sliding_median(counts, halfwidth).tolist() == median_oracle(counts, halfwidth)
        assert trailing_median(counts, halfwidth).tolist() \
            == trailing_median_oracle(counts, halfwidth)

    def test_huge_halfwidth_is_clamped_to_the_series(self):
        got, peak = peak_bytes(sliding_median, [1, 2, 3], 10**6)
        assert got.tolist() == [2.0, 2.0, 2.0]
        assert peak < 1 << 20


class TestDetectPeaks:
    def test_spike_over_quiet_background(self):
        # threshold = 5 * max(2, 10) = 50; 60 > 50, ratio 60/10 = 6.0
        counts = [2] * 30
        counts[15] = 60
        runs = detect_peaks(make_series(counts))
        assert len(runs) == 1
        run = runs[0]
        assert run.length == 1
        assert run.start_day == date(2006, 1, 16)
        assert run.day_ratios == (6.0,)
        assert run.max_ratio == 6.0

    def test_max_ratio_of_a_run_without_profile_is_none(self):
        assert PeakRun("A", "edit", START_DAY, 3).max_ratio is None
        assert PeakRun("A", "edit", START_DAY, 2, (6.5, 7.0)).max_ratio == 7.0

    def test_constant_series_never_peaks(self):
        for level in (1, 10, 500):
            assert detect_peaks(make_series([level] * 60)) == []

    def test_twin_peak_coalesces(self):
        counts = [2] * 30
        counts[15] = counts[16] = 60
        runs = detect_peaks(make_series(counts))
        assert len(runs) == 1
        assert runs[0].length == 2
        assert list(runs[0].days()) == [date(2006, 1, 16), date(2006, 1, 17)]

    def test_threshold_is_strict(self):
        # Exactly c * n_min is not a peak; one more is.
        counts = [0] * 30
        counts[15] = 50
        assert detect_peaks(make_series(counts)) == []
        counts[15] = 51
        assert len(detect_peaks(make_series(counts))) == 1

    def test_runs_are_chronological(self):
        counts = [2] * 90
        counts[10] = counts[50] = counts[80] = 70
        runs = detect_peaks(make_series(counts))
        assert [r.start_day for r in runs] == sorted(r.start_day for r in runs)
        assert len(runs) == 3

    @given(counts=counts_lists, params=params_st)
    def test_matches_brute_force_oracle(self, counts, params):
        runs = detect_peaks(make_series(counts), params)
        got = [((r.start_day - date(2006, 1, 1)).days, r.length) for r in runs]
        assert got == runs_from_days(peak_days_oracle(counts, params))

    @given(counts=counts_lists, halfwidth=halfwidths)
    def test_c_monotonicity(self, counts, halfwidth):
        days = {}
        for c in (5.0, 10.0, 20.0):
            p = PeakParams(c=c, n_min=10, window_halfwidth=halfwidth)
            days[c] = set(peak_day_set(detect_peaks(make_series(counts), p)))
        assert days[20.0] <= days[10.0] <= days[5.0]

    @given(counts=counts_lists, params=params_st)
    def test_n_min_monotonicity(self, counts, params):
        higher = PeakParams(c=params.c, n_min=params.n_min + 7,
                            window_halfwidth=params.window_halfwidth)
        low = peak_day_set(detect_peaks(make_series(counts), params))
        high = peak_day_set(detect_peaks(make_series(counts), higher))
        assert high <= low

    @given(counts=counts_lists, params=params_st, k=st.integers(min_value=2, max_value=9))
    def test_scaling_invariance_above_floor(self, counts, params, k):
        # Where the median already clears n_min on both sides, the ratio is
        # scale-free, so peak days must survive multiplying all counts by k.
        before = sliding_median(counts, params.window_halfwidth)
        scaled = [v * k for v in counts]
        after = sliding_median(scaled, params.window_halfwidth)
        stable = {
            t for t in range(len(counts))
            if before[t] >= params.n_min and after[t] >= params.n_min
        }
        days_before = peak_day_set(detect_peaks(make_series(counts), params))
        days_after = peak_day_set(detect_peaks(make_series(scaled), params))
        assert days_before & stable == days_after & stable


def peak_day_set(runs: list[PeakRun]) -> set[date]:
    return {day for run in runs for day in run.days()}


def thresholded(series, params: PeakParams, medians) -> list[tuple[int, int, list[float]]]:
    """(start, length, day ratios) of the runs over whole-series medians."""
    counts = series.counts.astype(np.float64)
    floor = np.maximum(medians(counts, params.window_halfwidth), float(params.n_min))
    days = np.flatnonzero(counts > params.c * floor).tolist()
    return [
        (start, length, [float(counts[t] / floor[t]) for t in range(start, start + length)])
        for start, length in runs_from_days(days)
    ]


def as_tuples(runs: list[PeakRun]) -> list[tuple[int, int, list[float]]]:
    return [((r.start_day - START_DAY).days, r.length, list(r.day_ratios)) for r in runs]


@st.composite
def edge_inputs(draw):
    """Counts around the candidate bound c * n_min, and windows up to far beyond the series."""
    c = draw(st.sampled_from([math.nextafter(1.0, 2.0), 1.5, 2.0, 4.0]))
    n_min = draw(st.sampled_from([1, 2, 3, 10]))
    edge = math.floor(c * n_min)  # c * n_min itself whenever that is whole
    values = st.one_of(st.integers(0, 3 * edge + 3), st.sampled_from([edge, edge + 1]))
    counts = draw(st.lists(values, min_size=1, max_size=120))
    halfwidth = draw(st.one_of(st.integers(1, 20), st.just(10**6)))
    return counts, PeakParams(c=c, n_min=n_min, window_halfwidth=halfwidth)


DETECTORS = [(detect_peaks, sliding_median), (detect_peaks_trailing, trailing_median)]


class TestCandidateDaysOnly:
    """Medians are read only on days above c * n_min, with an identical result."""

    @pytest.mark.parametrize("detect,medians", DETECTORS)
    @given(case=edge_inputs())
    @example(case=([1, 2, 1, 1, 2], PeakParams(math.nextafter(1.0, 2.0), 1, 1)))
    @example(case=([6, 7, 0, 6, 7, 7], PeakParams(2.0, 3, 2)))
    @example(case=([0, 3, 4, 0, 0, 4], PeakParams(1.5, 2, 10**6)))
    @settings(max_examples=300)
    def test_equals_thresholding_whole_series_medians(self, detect, medians, case):
        counts, params = case
        series = make_series(counts)
        assert as_tuples(detect(series, params)) == thresholded(series, params, medians)

    @staticmethod
    def spy(monkeypatch) -> list[list[int]]:
        asked: list[list[int]] = []
        kernel = timeseries._window_medians

        def spy(arr, lead, width, rows):
            asked.append(rows.tolist())
            return kernel(arr, lead, width, rows)

        monkeypatch.setattr(timeseries, "_window_medians", spy)
        return asked

    @pytest.mark.parametrize("detect,medians", DETECTORS)
    def test_series_without_candidates_never_reaches_the_kernel(self, monkeypatch,
                                                                 detect, medians):
        asked = self.spy(monkeypatch)
        params = PeakParams(c=2.0, n_min=3, window_halfwidth=5)
        # 6 == c * n_min: no day can be a peak, whatever its median.
        assert detect(make_series([6, 0, 6, 1] * 50), params) == []
        assert asked == []

    @pytest.mark.parametrize("detect,medians", DETECTORS)
    def test_kernel_sees_exactly_the_candidate_rows(self, monkeypatch, detect, medians):
        asked = self.spy(monkeypatch)
        params = PeakParams(c=2.0, n_min=3, window_halfwidth=5)
        counts = [6] * 40
        for day, count in ((0, 7), (17, 50), (18, 9), (39, 100)):
            counts[day] = count
        runs = detect(make_series(counts), params)
        assert asked == [[0, 17, 18, 39]]
        assert runs and {day for run in runs for day in run.days()} <= {
            START_DAY + timedelta(days=d) for d in (0, 17, 18, 39)}

    def test_candidates_are_gathered_a_chunk_at_a_time(self, monkeypatch):
        monkeypatch.setattr(timeseries, "_SORT_CHUNK", 100)
        rng = random.Random(7)
        counts = [rng.choice([0, 1, 2, 40]) for _ in range(300)]
        params = PeakParams(c=2.0, n_min=3, window_halfwidth=40)
        series = make_series(counts)
        for detect, medians in DETECTORS:
            assert as_tuples(detect(series, params)) == thresholded(series, params, medians)

    @pytest.mark.parametrize("detect,medians", DETECTORS)
    def test_huge_window_over_many_candidates_stays_in_budget(self, monkeypatch,
                                                              detect, medians):
        # 2,000 candidate rows of 4,001 values would be 64 MB gathered at once.
        monkeypatch.setattr(timeseries, "_SORT_CHUNK", 1 << 14)
        series = make_series([7, 50, 9, 80] * 500)
        params = PeakParams(c=2.0, n_min=3, window_halfwidth=10**6)
        runs, peak = peak_bytes(detect, series, params)
        assert as_tuples(runs) == thresholded(series, params, medians)
        assert peak < 1 << 20


class TestPeakParams:
    def test_defaults(self):
        p = PeakParams()
        assert (p.c, p.n_min, p.window_halfwidth) == (5.0, 10, 14)

    @pytest.mark.parametrize(
        "kwargs", [{"c": 1.0}, {"c": 0.5}, {"n_min": 0}, {"window_halfwidth": 0}]
    )
    def test_rejects_degenerate_values(self, kwargs):
        with pytest.raises(ValueError):
            PeakParams(**kwargs)


class TestInterPeakIntervals:
    def run(self, start: date, length: int = 1) -> PeakRun:
        return PeakRun("A", "edit", start, length)

    def test_year_apart(self):
        runs = [self.run(date(2006, 1, 1)), self.run(date(2007, 1, 1))]
        assert inter_peak_intervals(runs) == [365]

    def test_single_run_has_no_interval(self):
        assert inter_peak_intervals([self.run(date(2006, 1, 1))]) == []

    def test_pairwise_differences(self):
        base = date(2006, 1, 1)
        runs = [self.run(base + timedelta(days=d)) for d in (0, 3, 10)]
        assert inter_peak_intervals(runs) == [3, 7]

    def test_run_length_does_not_matter(self):
        # Consecutive peak days count once: intervals run start to start.
        runs = [self.run(date(2006, 1, 1), length=4), self.run(date(2006, 1, 20))]
        assert inter_peak_intervals(runs) == [19]


class TestStreamStep:
    def test_spike_after_quiet_fortnight(self):
        state = StreamState(window=14)
        day = date(2006, 1, 1)
        for i in range(14):
            stream_step(state, day + timedelta(days=i), 2)
        ratio, is_peak, _ = stream_step(state, day + timedelta(days=14), 60)
        assert ratio == pytest.approx(6.0)
        assert is_peak

    def test_all_zeros_never_peak(self):
        state = StreamState(window=14)
        day = date(2006, 1, 1)
        for i in range(100):
            ratio, is_peak, _ = stream_step(state, day + timedelta(days=i), 0)
            assert ratio == 0.0
            assert not is_peak

    def test_first_day_median_is_zero(self):
        ratio, is_peak, _ = stream_step(StreamState(window=14), date(2006, 1, 1), 200)
        assert ratio == pytest.approx(20.0)
        assert is_peak

    def test_gap_days_fill_with_zeros(self):
        # 3 busy days, then a 10-day silence: the zeros dominate the median.
        state = StreamState(window=5)
        day = date(2006, 1, 1)
        for i in range(3):
            stream_step(state, day + timedelta(days=i), 40)
        ratio, is_peak, _ = stream_step(state, day + timedelta(days=13), 90)
        # Buffer is now [0,0,0,0,0]: median 0, floor 10.
        assert ratio == pytest.approx(9.0)
        assert is_peak

    def test_out_of_order_day_raises(self):
        state = StreamState(window=5)
        stream_step(state, date(2006, 1, 5), 1)
        with pytest.raises(OutOfOrderError):
            stream_step(state, date(2006, 1, 5), 1)
        with pytest.raises(OutOfOrderError):
            stream_step(state, date(2006, 1, 4), 1)

    def test_returns_the_advanced_state(self):
        state = StreamState(window=5)
        _, _, out = stream_step(state, date(2006, 1, 1), 3)
        assert out is state
        assert out.current_day == date(2006, 1, 1)
        assert list(out.buffer) == [3]

    @given(prefix=st.lists(st.integers(min_value=0, max_value=50), max_size=12),
           tail=counts_lists)
    def test_prefilled_buffer_equals_fed_days(self, prefix, tail):
        # A state built from a buffer must step exactly like one that was
        # fed those days: the sorted window is rebuilt from the buffer.
        params = PeakParams(c=2.0, n_min=1, window_halfwidth=5)
        day0 = date(2006, 1, 1)
        fed = StreamState(window=5)
        for i, count in enumerate(prefix):
            stream_step(fed, day0 + timedelta(days=i), count, params)
        prefilled = StreamState(window=5, buffer=prefix,
                                current_day=fed.current_day)
        assert list(prefilled.buffer) == list(fed.buffer)
        start = len(prefix)
        for i, count in enumerate(tail, start=start):
            day = day0 + timedelta(days=i)
            assert stream_step(prefilled, day, count, params)[:2] \
                == stream_step(fed, day, count, params)[:2]

    def test_window_is_read_only_from_outside(self):
        # Appending to the exposed window used to desync it from the sorted
        # copy, and the next full-window step raised IndexError.
        state = StreamState(window=3)
        with pytest.raises(AttributeError):
            state.buffer.extend([100, 100, 100])
        with pytest.raises(AttributeError):
            state.buffer = [100, 100, 100]
        stream_step(state, date(2020, 1, 1), 60)
        assert state.buffer == (60,)
        for i, count in enumerate([1, 2, 3, 4], start=2):
            stream_step(state, date(2020, 1, i), count)
        assert state.buffer == (2, 3, 4)
        assert state.median() == 3.0

    def test_gap_longer_than_window_leaves_only_zeros(self):
        state = StreamState(window=4)
        day = date(2006, 1, 1)
        for i, count in enumerate([50, 7, 90, 3]):
            stream_step(state, day + timedelta(days=i), count)
        ratio, _, _ = stream_step(state, day + timedelta(days=30), 20)
        assert ratio == pytest.approx(2.0)  # median 0, floor n_min=10
        assert list(state.buffer) == [0, 0, 0, 20]
        assert state.median() == 0.0
        stream_step(state, day + timedelta(days=31), 20)
        assert state.median() == 10.0  # window [0, 0, 20, 20]

    @given(counts=counts_lists, params=params_st)
    @settings(max_examples=200)
    def test_equals_trailing_batch_detection(self, counts, params):
        series = make_series(counts)
        state = StreamState(window=params.window_halfwidth)
        streamed = []
        for i, count in enumerate(counts):
            _, is_peak, _ = stream_step(state, series.day(i), int(count), params)
            if is_peak:
                streamed.append(i)
        batch = trailing_peak_days_oracle(counts, params)
        assert streamed == batch
        runs = detect_peaks_trailing(series, params)
        assert [((r.start_day - series.start_day).days, r.length) for r in runs] \
            == runs_from_days(batch)

    @given(counts=counts_lists, window=halfwidths, gap=st.integers(min_value=2, max_value=40))
    @settings(max_examples=100)
    def test_sparse_feed_equals_dense_feed(self, counts, window, gap):
        # Feeding an explicit zero for every quiet day must equal skipping
        # those days entirely and letting the gap fill do it.
        params = PeakParams(c=5.0, n_min=1, window_halfwidth=window)
        day0 = date(2006, 1, 1)
        dense = StreamState(window=window)
        sparse = StreamState(window=window)
        dense_out = []
        sparse_out = []
        # A nonzero day, then `gap` zero days, then replay of counts.
        schedule = [(0, 9)] + [(1 + i, 0) for i in range(gap)] \
            + [(1 + gap + i, c) for i, c in enumerate(counts)]
        for offset, count in schedule:
            r, p_, _ = stream_step(dense, day0 + timedelta(days=offset), count, params)
            dense_out.append((offset, round(r, 12), p_))
        for offset, count in schedule:
            if count == 0:
                continue
            r, p_, _ = stream_step(sparse, day0 + timedelta(days=offset), count, params)
            sparse_out.append((offset, round(r, 12), p_))
        dense_nonzero = [item for item in dense_out
                         if counts_at(schedule, item[0]) != 0]
        assert sparse_out == dense_nonzero


    @given(steps=st.lists(st.tuples(st.integers(1, 60), st.integers(0, 500)), min_size=1,
                          max_size=60),
           window=halfwidths, params=params_st)
    @settings(max_examples=200)
    def test_gap_fill_equals_zero_pushes(self, steps, window, params):
        # Filling a gap by one reset when it covers the window equals one
        # push(0) per missing day, in ratios, flags and the buffer.
        state = StreamState(window=window)
        looped = StreamState(window=window)
        day = date(2006, 1, 1)
        for gap, count in steps:
            day += timedelta(days=gap)
            got = stream_step(state, day, count, params)[:2]
            if looped.current_day is not None:
                for _ in range(gap - 1):
                    looped.push(0)
            floor = max(looped.median(), float(params.n_min))
            assert got == (count / floor, count > params.c * floor)
            looped.push(count)
            looped.current_day = day
            assert state.buffer == looped.buffer
            assert state.median() == looped.median()

    def test_push_zeros_resets_to_a_window_of_zeros(self):
        state = StreamState(window=3, buffer=[5, 9, 1])
        state.push_zeros(2)
        assert state.buffer == (1, 0, 0) and state.median() == 0.0
        state.push_zeros(40)
        assert state.buffer == (0, 0, 0)
        state.push(7)
        assert state.buffer == (0, 0, 7) and state.median() == 0.0


def counts_at(schedule: list[tuple[int, int]], offset: int) -> int:
    for o, c in schedule:
        if o == offset:
            return c
    raise KeyError(offset)


class TestAlertTier:
    @pytest.mark.parametrize(
        "ratio,tier",
        [(4.9, None), (5.0, 1), (9.9, 1), (10.0, 2), (19.9, 2), (20.0, 3), (500.0, 3)],
    )
    def test_tier_boundaries(self, ratio, tier):
        assert alert_tier(ratio, PeakParams(c=5.0)) == tier


class TestTrailingMedian:
    def test_first_day_sees_nothing(self):
        assert trailing_median([9, 9, 9], 5)[0] == 0.0

    def test_window_is_strictly_past(self):
        m = trailing_median([1, 100, 1], 1)
        assert m.tolist() == [0.0, 1.0, 100.0]

    def test_accepts_activity_series(self):
        series = make_series([3, 1, 4])
        assert trailing_median(series, 2).tolist() == trailing_median([3, 1, 4], 2).tolist()

    @given(counts=st.lists(st.integers(min_value=0, max_value=1000), max_size=60),
           window=st.integers(min_value=1, max_value=80))
    @example(counts=[], window=3)
    @example(counts=[7], window=1)
    @example(counts=[7], window=5)
    @example(counts=[4, 1, 9], window=50)
    @settings(max_examples=200)
    def test_matches_statistics_median_per_window(self, counts, window):
        assert trailing_median(counts, window).tolist() == trailing_median_oracle(counts, window)

    def test_huge_window_is_clamped_to_the_series(self):
        got, peak = peak_bytes(trailing_median, [1, 2, 3], 10**6)
        assert got.tolist() == [0.0, 1.0, 1.5]
        assert peak < 1 << 20


def peak_bytes(fn, *args):
    """Call fn(*args); return its result and the peak bytes traced meanwhile."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
