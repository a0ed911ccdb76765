"""Corpus-level statistics over peak runs and growth metrics.

Covers co-occurrence of discussion and edit peaks, yearly recurrence of
peaks, maximum-likelihood power-law exponents, logarithmically binned
histograms for heavy-tailed counts, and an exact Pearson correlation with a
t-distribution p-value.

The p-value needs only the standard library: the two-sided Student-t tail
is the regularized incomplete beta I_x(df/2, 1/2), evaluated by the
modified Lentz continued fraction (Press et al., Numerical Recipes, 6.4;
DiDonato and Morris, ACM TOMS Algorithm 708, 1992), with an asymptotic
series for the log-gamma ratio at large df/2.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Mapping, Sequence

import numpy as np

from .timeseries import PeakRun, inter_peak_intervals

logger = logging.getLogger(__name__)

# A peak one year after another lands 364-366 days later depending on leap
# years and weekday drift of the commemorated date.
ANNIVERSARY_GAPS = frozenset({364, 365, 366})

MIN_FIT_SAMPLES = 10
DEFAULT_BINS_PER_DECADE = 5

# Continued-fraction stopping rule: a step that changes the value by less
# than _CF_EPS relative ends it; _CF_TINY keeps Lentz's ratios off zero.
# Up to df = 1e8 it converges within ~60 steps, so _CF_MAX_STEPS only
# bounds a non-finite input.
_CF_EPS = 1e-16
_CF_TINY = 1e-300
_CF_MAX_STEPS = 10_000
# Below this a, lgamma(a + 1/2) - lgamma(a) is exact enough; above it the
# difference cancels, and the asymptotic series is exact to ~2e-14.
_LGAMMA_SERIES_FROM = 16.0
_LOG_SQRT_PI = 0.5 * math.log(math.pi)


@dataclass(frozen=True)
class OverlapReport:
    """How many comment-activity peak runs sit near an edit peak."""

    tolerance_days: int
    n_overlapping_comment_peaks: int
    n_articles_with_overlap: int


@dataclass(frozen=True)
class PowerLawFit:
    """MLE exponent for samples >= x_min; degenerate when all mass sits at x_min."""

    alpha: float
    x_min: int
    n_samples: int
    degenerate: bool = False


@dataclass(frozen=True)
class Histogram:
    """Binned counts with explicit edges; bin i covers [edges[i], edges[i+1]).

    scheme is "linear" (unit-width integer bins) or "logarithmic" (edges at
    powers of 10^(1/bins_per_decade)).
    """

    bin_edges: tuple[float, ...]
    counts: tuple[int, ...]
    scheme: str

    @property
    def total(self) -> int:
        return sum(self.counts)

    def density(self) -> tuple[float, ...]:
        """Counts normalized by total mass and linear bin width.

        This estimates the probability density, whose log-log slope is the
        distribution exponent; wide bins are penalized by their width.
        """
        total = self.total
        if total == 0:
            return ()
        return tuple(
            c / (total * (hi - lo))
            for c, lo, hi in zip(self.counts, self.bin_edges, self.bin_edges[1:])
        )

    def value_counts(self) -> dict[int, int]:
        """Value -> count mapping; only meaningful for unit-width linear bins."""
        if self.scheme != "linear":
            raise ValueError("value_counts applies to linear unit-bin histograms")
        return {
            int(lo): c for lo, c in zip(self.bin_edges, self.counts) if c > 0
        }


def overlap(
    comment_runs: Iterable[PeakRun],
    edit_runs: Iterable[PeakRun],
    tolerance_days: int,
) -> OverlapReport:
    """Count comment peak runs with an edit peak day within tolerance_days.

    A run overlaps when any of its days lies within the tolerance of any
    edit peak day of the same article; each run counts once no matter how
    many edit peaks it touches.  n_articles_with_overlap counts distinct
    articles with at least one overlapping run.  Widening the tolerance can
    only grow both numbers.
    """
    if tolerance_days < 0:
        raise ValueError(f"tolerance_days must be >= 0, got {tolerance_days}")
    spans: dict[str, list[tuple[int, int]]] = defaultdict(list)
    for run in edit_runs:
        start = run.start_day.toordinal()
        spans[run.article_id].append((start, start + run.length - 1))
    # Per article, the edit runs' starts in order and the furthest day any run so far reaches.
    reach = {}
    for article, pairs in spans.items():
        pairs.sort()
        reach[article] = ([a for a, _ in pairs], list(accumulate((b for _, b in pairs), max)))
    n_runs = 0
    articles: set[str] = set()
    for run in comment_runs:
        if run.article_id not in reach:
            continue
        starts, furthest = reach[run.article_id]
        lo = run.start_day.toordinal() - tolerance_days
        hi = run.start_day.toordinal() + run.length - 1 + tolerance_days
        # Some edit run meets [lo, hi] when one starting by hi reaches lo.
        last = bisect_right(starts, hi) - 1
        if last >= 0 and furthest[last] >= lo:
            n_runs += 1
            articles.add(run.article_id)
    return OverlapReport(tolerance_days, n_runs, len(articles))


def anniversaries(runs: Iterable[PeakRun]) -> dict[str, int]:
    """Per article: consecutive run-start gaps of 364-366 days.

    Zero counts are included so the caller can see which articles were
    checked and found nothing.
    """
    by_article: dict[str, list[PeakRun]] = defaultdict(list)
    for run in runs:
        by_article[run.article_id].append(run)
    return {
        article: sum(gap in ANNIVERSARY_GAPS for gap in inter_peak_intervals(article_runs))
        for article, article_runs in by_article.items()
    }


def fit_power_law(samples: Sequence[int], x_min: int = 1) -> PowerLawFit:
    """MLE exponent alpha for a discrete power law over samples >= x_min.

    Uses the continuous approximation alpha = 1 + n / sum(ln(x / (x_min - 0.5)))
    which is accurate for integer data when x_min is small.  With fewer than
    MIN_FIT_SAMPLES usable samples the estimate is noise, so that raises.
    When every usable sample equals x_min the discrete likelihood increases
    without bound in alpha (all mass collapses onto x_min), so there is no
    finite maximizer; alpha is reported as infinity with the degenerate flag
    set instead of the finite artifact the approximation formula would give.
    """
    if x_min < 1:
        raise ValueError(f"x_min must be >= 1, got {x_min}")
    used = [x for x in samples if x >= x_min]
    n = len(used)
    if n < MIN_FIT_SAMPLES:
        raise ValueError(f"need at least {MIN_FIT_SAMPLES} samples >= x_min, got {n}")
    shift = x_min - 0.5
    log_sum = math.fsum(math.log(x / shift) for x in used)
    if all(x == x_min for x in used):
        logger.warning("power-law fit degenerate: all %d samples equal x_min=%d", n, x_min)
        return PowerLawFit(alpha=math.inf, x_min=x_min, n_samples=n, degenerate=True)
    return PowerLawFit(alpha=1.0 + n / log_sum, x_min=x_min, n_samples=n)


def integer_histogram(values: Iterable[int]) -> Histogram:
    """Unit-width linear histogram over the observed integer range."""
    counter = Counter(values)
    if not counter:
        return Histogram((), (), "linear")
    lo = min(counter)
    hi = max(counter)
    edges = tuple(float(v) for v in range(lo, hi + 2))
    counts = tuple(counter.get(v, 0) for v in range(lo, hi + 1))
    return Histogram(edges, counts, "linear")


def log_binned_histogram(
    samples: Sequence[float], bins_per_decade: int = DEFAULT_BINS_PER_DECADE
) -> Histogram:
    """Histogram with bin edges at powers of 10^(1/bins_per_decade).

    The edge grid is anchored at the largest grid point at or below the
    smallest sample and extended one edge past the largest sample, so every
    sample falls strictly inside some bin.  Only positive samples make
    sense on a log axis; zero or negative input raises.
    """
    if bins_per_decade < 1:
        raise ValueError(f"bins_per_decade must be >= 1, got {bins_per_decade}")
    if len(samples) == 0:
        return Histogram((), (), "logarithmic")
    arr = np.asarray(samples, dtype=np.float64)
    if np.any(arr <= 0):
        raise ValueError("log binning requires strictly positive samples")
    low = float(arr.min())
    high = float(arr.max())
    k = math.floor(bins_per_decade * math.log10(low))
    while 10.0 ** (k / bins_per_decade) > low:
        k -= 1
    edges = [10.0 ** (k / bins_per_decade)]
    while edges[-1] <= high:
        k += 1
        edges.append(10.0 ** (k / bins_per_decade))
    counts, _ = np.histogram(arr, bins=np.array(edges))
    return Histogram(tuple(edges), tuple(int(c) for c in counts), "logarithmic")


def peaks_per_article(runs: Iterable[PeakRun]) -> Histogram:
    """Distribution of peak-run counts per article (articles with >= 1 run)."""
    per_article = Counter(run.article_id for run in runs)
    return integer_histogram(per_article.values())


def run_lengths(runs: Iterable[PeakRun]) -> Histogram:
    return integer_histogram(run.length for run in runs)


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b), by the modified Lentz method.

    I_x(a, b) = x^a (1-x)^b / (a B(a, b)) times the returned value; it
    converges fast for x < (a + 1) / (a + b + 2).
    """
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
    h = d
    for m in range(1, _CF_MAX_STEPS + 1):
        m2 = 2 * m
        even = m * (b - m) * x / ((a + m2 - 1.0) * (a + m2))
        odd = -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0))
        for coeff in (even, odd):
            d = 1.0 + coeff * d
            d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
            c = 1.0 + coeff / c
            c = c if abs(c) > _CF_TINY else _CF_TINY
            step = c * d
            h *= step
        if abs(step - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError(f"incomplete beta did not converge: a={a}, b={b}, x={x}")


def _log_gamma_ratio(a: float) -> float:
    """ln(Gamma(a + 1/2) / Gamma(a)) for a > 0."""
    if a < _LGAMMA_SERIES_FROM:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    inv = 1.0 / a
    inv2 = inv * inv
    series = 1 / 8 - inv2 * (1 / 192 - inv2 * (1 / 640 - inv2 * (17 / 14336)))
    return 0.5 * math.log(a) - inv * series


def student_t_p(t: float, df: int) -> float:
    """Two-sided tail P(|T| >= |t|) of Student's t with df degrees of freedom.

    That is I_x(df/2, 1/2) with x = df / (df + t^2).  Both x and 1 - x are
    computed from t, never one as 1 minus the other, so neither loses digits
    when the other is close to 1.  Past the switch point the symmetry
    I_x(a, b) = 1 - I_{1-x}(b, a) keeps the continued fraction short.
    Against a 40-digit reference the result is within 1e-13 for df up to
    20,000; the continued fraction loses digits near its switch point as df
    grows further (~6e-13 at df = 1e5, ~9e-12 at 1e6).
    """
    t2 = t * t
    if t2 == 0.0:
        return 1.0
    a = 0.5 * df
    x = df / (df + t2)
    y = t2 / (df + t2)
    # ln(x^a y^(1/2) / B(a, 1/2)), with B(a, 1/2) = Gamma(a) sqrt(pi) / Gamma(a + 1/2).
    log_front = (
        -a * math.log1p(t2 / df)
        - 0.5 * math.log1p(df / t2)
        + _log_gamma_ratio(a)
        - _LOG_SQRT_PI
    )
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + 2.5):
        return front * _beta_cf(a, 0.5, x) / a
    return 1.0 - 2.0 * front * _beta_cf(0.5, a, y)


def pearson(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Pearson r and two-sided p-value from the exact t transform.

    Sums are compensated (math.fsum), so r is reproducible to full double
    precision regardless of summation order.  Requires n >= 3, finite
    values and nonzero variance on both sides; |r| = 1 maps to p = 0
    rather than a divide by zero in the t statistic.  The p-value is
    student_t_p: the regularized incomplete beta by a Lentz continued
    fraction, with an asymptotic log-gamma ratio for large (n - 2) / 2.
    """
    n = len(xs)
    if len(ys) != n:
        raise ValueError(f"length mismatch: {n} vs {len(ys)}")
    if n < 3:
        raise ValueError(f"need at least 3 points, got {n}")
    if not all(map(math.isfinite, xs)) or not all(map(math.isfinite, ys)):
        raise ValueError("non-finite input")
    mean_x = math.fsum(xs) / n
    mean_y = math.fsum(ys) / n
    dx = [x - mean_x for x in xs]
    dy = [y - mean_y for y in ys]
    sxx = math.fsum(d * d for d in dx)
    syy = math.fsum(d * d for d in dy)
    if sxx == 0.0 or syy == 0.0:
        raise ValueError("zero variance input")
    r = math.fsum(a * b for a, b in zip(dx, dy)) / math.sqrt(sxx * syy)
    r = max(-1.0, min(1.0, r))
    denom = 1.0 - r * r
    if denom <= 0.0:
        return r, 0.0
    t = r * math.sqrt((n - 2) / denom)
    return r, student_t_p(t, n - 2)


def delta_h_vs_max_run_length(
    delta_h_by_article: Mapping[str, float],
    runs: Iterable[PeakRun],
) -> tuple[float, float, int]:
    """Correlate growth time per level with the longest peak run per article.

    Only articles present on both sides enter; returns (r, p, n_articles).
    Raises like pearson when fewer than 3 articles qualify.
    """
    longest: dict[str, int] = {}
    for run in runs:
        if run.length > longest.get(run.article_id, 0):
            longest[run.article_id] = run.length
    both = sorted(set(delta_h_by_article) & set(longest))
    xs = [delta_h_by_article[a] for a in both]
    ys = [float(longest[a]) for a in both]
    r, p = pearson(xs, ys)
    return r, p, len(both)
