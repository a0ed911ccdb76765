"""Corpus statistics: overlaps, anniversaries, power-law fits, correlation."""

from __future__ import annotations

import math
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talkdyn import (
    Histogram,
    anniversaries,
    fit_power_law,
    integer_histogram,
    log_binned_histogram,
    overlap,
    pearson,
)
from talkdyn.peakstats import (
    MIN_FIT_SAMPLES,
    _beta_cf,
    delta_h_vs_max_run_length,
    peaks_per_article,
    run_lengths,
    student_t_p,
)
from talkdyn.timeseries import PeakRun

from conftest import anniversaries_oracle, overlap_oracle


def run(article: str, start: date, length: int = 1, kind: str = "edit") -> PeakRun:
    return PeakRun(article, kind, start, length)


class TestOverlap:
    def setup_method(self):
        self.edit_runs = [
            run("A", date(2006, 5, 10)),
            run("A", date(2006, 9, 1), length=2),
            run("B", date(2006, 5, 10)),
        ]

    def test_same_day_overlap(self):
        comment_runs = [run("A", date(2006, 5, 10), kind="comment")]
        report = overlap(comment_runs, self.edit_runs, 0)
        assert report.n_overlapping_comment_peaks == 1
        assert report.n_articles_with_overlap == 1

    def test_tolerance_widens_the_net(self):
        comment_runs = [run("A", date(2006, 5, 12), kind="comment")]
        assert overlap(comment_runs, self.edit_runs, 0).n_overlapping_comment_peaks == 0
        assert overlap(comment_runs, self.edit_runs, 1).n_overlapping_comment_peaks == 0
        assert overlap(comment_runs, self.edit_runs, 2).n_overlapping_comment_peaks == 1

    def test_articles_must_match(self):
        comment_runs = [run("C", date(2006, 5, 10), kind="comment")]
        assert overlap(comment_runs, self.edit_runs, 2).n_overlapping_comment_peaks == 0

    def test_any_run_day_can_touch(self):
        # Comment run spans 9-1 .. 9-3; the edit run 9-1..9-2 overlaps day 1.
        comment_runs = [run("A", date(2006, 9, 3), kind="comment", length=1)]
        assert overlap(comment_runs, self.edit_runs, 1).n_overlapping_comment_peaks == 1

    def test_each_run_counts_once(self):
        # One comment run near two edit runs is still one overlapping run.
        comment_runs = [run("A", date(2006, 5, 11), kind="comment")]
        edit_runs = [run("A", date(2006, 5, 10)), run("A", date(2006, 5, 12))]
        report = overlap(comment_runs, edit_runs, 1)
        assert report.n_overlapping_comment_peaks == 1

    def test_a_long_edit_run_reaches_past_a_later_short_one(self):
        # Hand-written runs may overlap: 5-1..5-6 still covers 5-5 after 5-2 has ended.
        edit_runs = [run("A", date(2006, 5, 1), length=6), run("A", date(2006, 5, 2))]
        comment_runs = [run("A", date(2006, 5, 5), kind="comment")]
        assert overlap(comment_runs, edit_runs, 0).n_overlapping_comment_peaks == 1

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            overlap([], [], -1)

    @given(
        starts=st.lists(st.integers(min_value=0, max_value=400), min_size=0, max_size=25),
        edit_starts=st.lists(st.integers(min_value=0, max_value=400), min_size=0, max_size=25),
    )
    @settings(max_examples=150)
    def test_monotone_in_tolerance(self, starts, edit_starts):
        base = date(2006, 1, 1).toordinal()
        comment_runs = [run("A", date.fromordinal(base + s), kind="comment") for s in starts]
        edit_runs = [run("A", date.fromordinal(base + s)) for s in edit_starts]
        counts = [
            overlap(comment_runs, edit_runs, tol).n_overlapping_comment_peaks
            for tol in (0, 1, 2, 5)
        ]
        assert counts == sorted(counts)


@st.composite
def peak_runs(draw, kind: str, starts=st.integers(0, 60)) -> list[PeakRun]:
    """Up to 8 runs over three articles, overlapping ones included."""
    base = date(2006, 1, 1).toordinal()
    return [run(draw(st.sampled_from("ABC")), date.fromordinal(base + draw(starts)),
                draw(st.integers(1, 6)), kind)
            for _ in range(draw(st.integers(0, 8)))]


class TestOverlapMatchesOracle:
    # Starts within 20 days make runs of one article overlap often, as in a hand-written peaks.csv.
    @given(comment_runs=peak_runs("comment", st.integers(0, 20)),
           edit_runs=peak_runs("edit", st.integers(0, 20)), tolerance=st.integers(0, 5))
    @settings(max_examples=400)
    def test_per_day_oracle(self, comment_runs, edit_runs, tolerance):
        report = overlap(comment_runs, edit_runs, tolerance)
        assert (report.n_overlapping_comment_peaks, report.n_articles_with_overlap) \
            == overlap_oracle(comment_runs, edit_runs, tolerance)


class TestAnniversaries:
    @given(runs=peak_runs("edit", st.builds(lambda year, drift: 2 + 365 * year + drift,
                                            st.integers(0, 3), st.integers(-2, 2))))
    @settings(max_examples=200)
    def test_sorted_starts_oracle(self, runs):
        assert anniversaries(runs) == anniversaries_oracle(runs)

    def test_year_gaps_count(self):
        runs = [
            run("A", date(2006, 5, 10)),
            run("A", date(2007, 5, 10)),   # 365 days
            run("A", date(2008, 5, 9)),    # 365 days (2008 is a leap year)
        ]
        assert anniversaries(runs) == {"A": 2}

    @pytest.mark.parametrize("gap,expected", [(363, 0), (364, 1), (365, 1), (366, 1), (367, 0)])
    def test_gap_window(self, gap, expected):
        start = date(2006, 1, 1)
        runs = [run("A", start), run("A", date.fromordinal(start.toordinal() + gap))]
        assert anniversaries(runs) == {"A": expected}

    def test_zero_counts_are_reported(self):
        runs = [run("A", date(2006, 1, 1)), run("A", date(2006, 3, 1))]
        assert anniversaries(runs) == {"A": 0}

    def test_gaps_are_consecutive_not_all_pairs(self):
        # 2006 -> 2008 is ~730 days: no anniversary without the middle year.
        runs = [run("A", date(2006, 5, 10)), run("A", date(2008, 5, 10))]
        assert anniversaries(runs) == {"A": 0}


def grid_alpha(samples: list[int], x_min: int = 1) -> float:
    """Grid-search oracle maximizing the same continuous-form likelihood.

    L(alpha) = n log(alpha - 1) - alpha * sum(log(x / (x_min - 0.5))) up to
    alpha-free terms; scanned at 1e-3 resolution over a wide bracket.
    """
    used = [x for x in samples if x >= x_min]
    n = len(used)
    s = math.fsum(math.log(x / (x_min - 0.5)) for x in used)
    grid = np.arange(1.001, 6.0, 0.001)
    ll = n * np.log(grid - 1.0) - grid * s
    return float(grid[int(np.argmax(ll))])


class TestFitPowerLaw:
    def test_recovers_heavy_tail_exponent(self):
        # At x_min = 1 the half-shift form is accurate for small exponents
        # (heavy tails); steeper laws need a larger x_min (next test).
        from scipy.stats import zipf

        rng = np.random.default_rng(42)
        samples = zipf.rvs(1.4, size=50_000, random_state=rng).tolist()
        fit = fit_power_law(samples, x_min=1)
        assert fit.alpha == pytest.approx(1.4, abs=0.1)
        assert fit.n_samples == 50_000
        assert not fit.degenerate

    def test_recovers_steep_exponent_above_x_min(self):
        from scipy.stats import zipf

        rng = np.random.default_rng(42)
        samples = zipf.rvs(2.5, size=200_000, random_state=rng).tolist()
        fit = fit_power_law(samples, x_min=5)
        assert fit.alpha == pytest.approx(2.5, abs=0.05)

    def test_matches_grid_search(self):
        rng = np.random.default_rng(7)
        from scipy.stats import zipf

        samples = zipf.rvs(1.8, size=5_000, random_state=rng).tolist()
        fit = fit_power_law(samples)
        assert fit.alpha == pytest.approx(grid_alpha(samples), abs=0.01)

    def test_x_min_filters_low_samples(self):
        samples = [1] * 100 + [5, 6, 7, 8, 9, 10, 12, 15, 20, 30, 50, 80]
        fit = fit_power_law(samples, x_min=5)
        assert fit.n_samples == 12
        assert fit.alpha == pytest.approx(grid_alpha(samples, x_min=5), abs=0.01)

    def test_too_few_samples_raise(self):
        with pytest.raises(ValueError):
            fit_power_law([1] * (MIN_FIT_SAMPLES - 1))

    def test_all_samples_at_x_min_is_degenerate(self, caplog):
        with caplog.at_level("WARNING"):
            fit = fit_power_law([1] * 50)
        assert fit.degenerate
        assert math.isinf(fit.alpha)
        assert fit.n_samples == 50

    def test_bad_x_min_rejected(self):
        with pytest.raises(ValueError):
            fit_power_law([1] * 20, x_min=0)


class TestLogBinnedHistogram:
    def test_decade_bins(self):
        hist = log_binned_histogram([1, 10, 100], bins_per_decade=1)
        assert hist.bin_edges == (1.0, 10.0, 100.0, 1000.0)
        assert hist.counts == (1, 1, 1)
        assert hist.scheme == "logarithmic"

    def test_every_sample_lands_in_a_bin(self):
        samples = [0.3, 1.7, 2.2, 9.9, 10.1, 400.0]
        hist = log_binned_histogram(samples, bins_per_decade=5)
        assert hist.total == len(samples)
        assert hist.bin_edges[0] <= min(samples)
        assert hist.bin_edges[-1] > max(samples)

    def test_density_normalizes_by_linear_width(self):
        hist = log_binned_histogram([1, 10, 100], bins_per_decade=1)
        dens = hist.density()
        assert dens[0] == pytest.approx(1 / (3 * 9.0))
        assert dens[1] == pytest.approx(1 / (3 * 90.0))

    def test_rejects_nonpositive_samples(self):
        with pytest.raises(ValueError):
            log_binned_histogram([1.0, 0.0])

    def test_empty_input_gives_empty_histogram(self):
        hist = log_binned_histogram([])
        assert hist.bin_edges == ()
        assert hist.total == 0

    @given(
        samples=st.lists(
            st.floats(min_value=1e-3, max_value=1e6, allow_nan=False), min_size=1, max_size=80
        ),
        bpd=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=150)
    def test_total_is_preserved(self, samples, bpd):
        hist = log_binned_histogram(samples, bins_per_decade=bpd)
        assert hist.total == len(samples)


class TestIntegerHistogram:
    def test_unit_bins_cover_observed_range(self):
        hist = integer_histogram([3, 3, 5])
        assert hist.bin_edges == (3.0, 4.0, 5.0, 6.0)
        assert hist.counts == (2, 0, 1)
        assert hist.value_counts() == {3: 2, 5: 1}

    def test_round_trip_through_value_counts(self):
        values = [1, 1, 1, 2, 7, 7]
        assert sorted(
            v for v, c in integer_histogram(values).value_counts().items() for _ in range(c)
        ) == sorted(values)

    def test_run_helpers(self):
        runs = [
            run("A", date(2006, 1, 1), length=2),
            run("A", date(2006, 3, 1)),
            run("B", date(2006, 1, 1)),
        ]
        assert peaks_per_article(runs).value_counts() == {1: 1, 2: 1}
        assert run_lengths(runs).value_counts() == {1: 2, 2: 1}


class TestPearson:
    def test_perfect_positive_line(self):
        xs = [float(i) for i in range(20)]
        ys = [3.0 * x + 1.0 for x in xs]
        r, p = pearson(xs, ys)
        assert abs(r - 1.0) < 1e-12
        assert p == 0.0

    def test_perfect_negative_line(self):
        xs = [float(i) for i in range(20)]
        ys = [-0.5 * x + 7.0 for x in xs]
        r, p = pearson(xs, ys)
        assert abs(r + 1.0) < 1e-12
        assert p == 0.0

    def test_symmetry(self):
        xs = [1.0, 4.0, 2.0, 8.0, 5.0]
        ys = [2.0, 3.0, 1.0, 9.0, 4.0]
        assert pearson(xs, ys) == pearson(ys, xs)

    def test_order_invariance(self):
        # fsum makes the sums exact, so permuting points changes nothing.
        xs = [0.1 * i for i in range(50)]
        ys = [math.sin(x) for x in xs]
        r1, p1 = pearson(xs, ys)
        perm = list(zip(xs, ys))[::-1]
        r2, p2 = pearson([a for a, _ in perm], [b for _, b in perm])
        assert r1 == r2
        assert p1 == p2

    def test_matches_scipy(self):
        from scipy.stats import pearsonr

        rng = np.random.default_rng(3)
        xs = rng.normal(size=40).tolist()
        ys = (0.4 * np.asarray(xs) + rng.normal(size=40)).tolist()
        r, p = pearson(xs, ys)
        ref = pearsonr(xs, ys)
        assert r == pytest.approx(ref.statistic, abs=1e-12)
        assert p == pytest.approx(ref.pvalue, rel=1e-9)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            pearson([1.0, 2.0, 3.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_correlation_against_longest_run(self):
        delta = {"A": 10.0, "B": 20.0, "C": 30.0, "D": 5.0}
        runs = [
            run("A", date(2006, 1, 1), length=4),
            run("A", date(2006, 2, 1), length=1),
            run("B", date(2006, 1, 1), length=3),
            run("C", date(2006, 1, 1), length=2),
            run("D", date(2006, 1, 1), length=5),
            run("E", date(2006, 1, 1), length=9),  # no delta: excluded
        ]
        r, p, n = delta_h_vs_max_run_length(delta, runs)
        assert n == 4
        xs = [10.0, 20.0, 30.0, 5.0]
        ys = [4.0, 3.0, 2.0, 5.0]
        assert (r, p) == pearson(xs, ys)


# Degrees of freedom 1..40 one by one, then log-spaced up to 20,000; t
# log-spaced from 1e-8 (p within 1e-8 of 1) to 60.
T_GRID_DF = sorted({*range(1, 41), *np.geomspace(41, 20_000, 24).round().astype(int).tolist()})
T_GRID_T = np.geomspace(1e-8, 60.0, 40).tolist()


class TestStudentTail:
    """The two-sided t tail against a 40-digit incomplete beta, not against scipy.

    scipy's own t.sf is off by ~3e-9 at df = 1, t = 1e-8, so it cannot be
    the reference for a 1e-12 bound.
    """

    def test_grid_against_mpmath(self):
        import mpmath

        worst = (0.0, (0, 0.0))
        with mpmath.workdps(40):
            for df in T_GRID_DF:
                a = mpmath.mpf(df) / 2
                for t in T_GRID_T:
                    x = mpmath.mpf(df) / (df + mpmath.mpf(t) ** 2)
                    exact = mpmath.betainc(a, 0.5, 0, x, regularized=True)
                    err = abs(student_t_p(t, df) - float(exact))
                    worst = max(worst, (err, (df, t)))
        assert worst[0] <= 1e-12, worst

    @pytest.mark.parametrize("t", [0.0, 1e-8, 1e-3, 0.5, 1.0, 3.0, 40.0, 1e6])
    def test_closed_forms(self, t):
        # df = 1 is the Cauchy distribution; df = 2 has an algebraic tail.
        assert student_t_p(t, 1) == pytest.approx(1.0 - 2.0 / math.pi * math.atan(t), abs=1e-14)
        assert student_t_p(t, 2) == pytest.approx(1.0 - t / math.sqrt(2.0 + t * t), abs=1e-14)

    def test_sign_of_t_does_not_matter(self):
        assert student_t_p(-2.5, 7) == student_t_p(2.5, 7)

    def test_extreme_t(self):
        assert student_t_p(1e-200, 5) == 1.0
        assert student_t_p(1e200, 5) == 0.0

    def test_non_finite_input_raises_instead_of_looping(self):
        with pytest.raises(ArithmeticError):
            _beta_cf(0.5, 3.0, math.nan)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_r_one_ulp_from_one(self, sign):
        # Found by search: data whose compensated r is the double next to +-1.
        xs = [3.0, 4.0, 1.0, 4.0, 8.0, 3.0]
        ys = [sign * x for x in xs]
        ys[3] += sign * 1e-8
        r, p = pearson(xs, ys)
        assert r == sign * math.nextafter(1.0, 0.0)
        assert math.isfinite(p) and 0.0 <= p <= 1.0


class TestHistogramInvariants:
    def test_density_integrates_to_one(self):
        hist = log_binned_histogram([1.5, 2.5, 30.0, 40.0, 700.0], bins_per_decade=3)
        widths = np.diff(hist.bin_edges)
        area = float(np.sum(np.asarray(hist.density()) * widths))
        assert area == pytest.approx(1.0)

    def test_empty_histogram_density(self):
        assert Histogram((), (), "linear").density() == ()


class TestPearsonNonFinite:
    """A NaN or infinity anywhere is rejected like zero variance, not clamped into r = 1."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", ["x", "y"])
    def test_raises(self, bad, side):
        good = [1.0, 2.0, 3.0, 5.0]
        other = [1.0, 2.0, bad, 4.0]
        xs, ys = (other, good) if side == "x" else (good, other)
        with pytest.raises(ValueError, match="non-finite"):
            pearson(xs, ys)
