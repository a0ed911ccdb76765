"""Command-line front end.

Subcommands cover the full pipeline: parse-talk turns talk-page wikitext
into comment events, peaks/stats/hindex/deltah/maturity run individual
analyses, report runs everything into an output directory, and watch runs
the streaming detector over a live feed or an event-file replay.

Output tables are CSV with LF line endings and fixed column orders, and all
rows are sorted, so identical inputs produce byte-identical files.  With
--output-format json every table gains a .json mirror (list of row objects)
next to the canonical CSV.  Exit codes: 0 success, 1 unusable input data,
2 unusable configuration.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from pathlib import Path
from statistics import median
from typing import Iterable, Sequence

import numpy as np

from . import discussion, ingest, peakstats, talkparser, timeseries
from .ingest import COMMENT, EDIT, CommentEvent, Diagnostics, IngestError
from .talkparser import PatternError
from .timeseries import OutOfOrderError, PeakParams, PeakRun, StreamState

logger = logging.getLogger(__name__)

DEFAULT_TOLERANCES = (0, 1, 2)
DEFAULT_TOP_N = 15
POWERLAW_COLUMNS = ("length", "interval", "count")


@dataclass(frozen=True)
class RunConfig:
    """Everything the report pipeline needs, in one place."""

    edits_path: Path
    comments_path: Path
    out_dir: Path
    input_format: str = "jsonl"
    output_format: str = "csv"
    params: PeakParams = field(default_factory=PeakParams)
    tolerances: tuple[int, ...] = DEFAULT_TOLERANCES
    min_comments: int = discussion.DEFAULT_MIN_COMMENTS
    maturity_multiple: float = discussion.DEFAULT_MATURITY_MULTIPLE
    top_n: int = DEFAULT_TOP_N
    as_of: datetime | None = None
    bins_per_decade: int = peakstats.DEFAULT_BINS_PER_DECADE

    def __post_init__(self) -> None:
        if self.input_format not in ("jsonl", "csv"):
            raise ValueError(f"unknown input format {self.input_format!r}")
        if self.output_format not in ("csv", "json"):
            raise ValueError(f"unknown output format {self.output_format!r}")
        if self.min_comments < 0:
            raise ValueError("min_comments must be >= 0")
        if self.top_n < 1:
            raise ValueError("top_n must be >= 1")
        if not set(self.tolerances) <= {0, 1, 2}:
            raise ValueError("tolerances must be drawn from {0, 1, 2}")


@dataclass(frozen=True)
class ArticleReport:
    """Per-article summary line of the report pipeline.

    Optional fields stay None when their precondition is unmet (no dated
    comments, too few h steps, ...) rather than defaulting to zero, so a
    blank cell in articles.csv always means "not computable", never "0".
    """

    article_id: str
    n_edits: int
    n_comments: int
    comment_runs: int
    edit_runs: int
    max_run_length: int | None
    final_h: int | None
    delta_h: float | None = None
    maturity: bool | None = None

    def row(self) -> list[object]:
        return [
            self.article_id, self.n_edits, self.n_comments,
            self.edit_runs, self.comment_runs, self.max_run_length,
            self.final_h, self.delta_h, self.maturity,
        ]


def _fmt(value: object) -> str:
    """One stable textual form per value type for deterministic tables."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return f"{value:.6g}"
    if isinstance(value, datetime):
        return ingest.format_timestamp(value)
    if isinstance(value, date):
        return value.isoformat()
    return str(value)


def _write_table(
    out_dir: Path, name: str, header: Sequence[str], rows: Iterable[Sequence[object]],
    output_format: str = "csv",
) -> list[Path]:
    rows = [list(row) for row in rows]
    csv_path = out_dir / f"{name}.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])
    written = [csv_path]
    if output_format == "json":
        json_path = out_dir / f"{name}.json"
        payload = [
            {key: _fmt(cell) for key, cell in zip(header, row)} for row in rows
        ]
        json_path.write_text(
            json.dumps(payload, ensure_ascii=False, indent=2) + "\n", encoding="utf-8"
        )
        written.append(json_path)
    return written


def _parse_as_of(text: str) -> datetime:
    ts = ingest.parse_timestamp(text)
    if ts is not None:
        return ts
    try:
        day = date.fromisoformat(text)
    except ValueError:
        raise ValueError(f"cannot parse --as-of {text!r}; use YYYY-MM-DD or full timestamp")
    return datetime(day.year, day.month, day.day, tzinfo=timezone.utc)


# ---------------------------------------------------------------------------
# Shared loading steps


def _load_comment_forest(
    path: Path, fmt: str, diagnostics: Diagnostics, now: datetime | None = None
) -> tuple[dict[str, list[CommentEvent]], datetime | None]:
    """Comments grouped by article, plus the latest timestamp seen."""
    by_article: dict[str, list[CommentEvent]] = defaultdict(list)
    latest: datetime | None = None
    for event in ingest.load_events(path, COMMENT, fmt=fmt, diagnostics=diagnostics, now=now):
        by_article[event.article_id].append(event)
        ts = event.timestamp
        if ts is not None and (latest is None or ts > latest):
            latest = ts
    return dict(by_article), latest


def _detect_all(
    series_by_article: dict[str, ingest.ActivitySeries], params: PeakParams
) -> list[PeakRun]:
    runs: list[PeakRun] = []
    for article in sorted(series_by_article):
        runs.extend(timeseries.detect_peaks(series_by_article[article], params))
    return runs


def _load_peak_runs(path: Path) -> list[PeakRun]:
    """Read back a peaks.csv table (ratio profiles are not retained there)."""
    runs: list[PeakRun] = []
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.DictReader(handle)
            required = {"article", "kind", "start_day", "length"}
            if reader.fieldnames is None or not required.issubset(reader.fieldnames):
                raise IngestError(f"{path}: expected columns {sorted(required)}")
            for row in reader:
                runs.append(
                    PeakRun(
                        article_id=row["article"],
                        kind=row["kind"],
                        start_day=date.fromisoformat(row["start_day"]),
                        length=int(row["length"]),
                    )
                )
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise IngestError(f"{path}: malformed peaks table: {exc}") from exc
    return runs


def _peak_rows(runs: Iterable[PeakRun]) -> list[list[object]]:
    ordered = sorted(runs, key=lambda r: (r.article_id, r.kind, r.start_day))
    return [
        [r.article_id, r.kind, r.start_day, r.length,
         max(r.day_ratios) if r.day_ratios else None]
        for r in ordered
    ]


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_parse_talk(args: argparse.Namespace) -> int:
    patterns = talkparser.load_patterns(args.patterns) if args.patterns else None
    source = Path(args.in_path)
    if source.is_dir():
        files = sorted(p for p in source.iterdir() if p.is_file() and not p.name.startswith("."))
    else:
        files = [source]
    diag = Diagnostics(source=str(source))
    events: list[CommentEvent] = []
    for path in files:
        try:
            events.extend(talkparser.parse_file(path, patterns, diag))
        except OSError as exc:
            raise IngestError(f"cannot read {path}: {exc}") from exc
    lines = [ingest.event_json_line(event) for event in events]
    if args.out:
        Path(args.out).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    else:
        for line in lines:
            print(line)
    for key, count in diag.rows():
        print(f"# {key}: {count}", file=sys.stderr)
    return 0


def _params_from_args(args: argparse.Namespace) -> PeakParams:
    return PeakParams(c=args.c, n_min=args.nmin, window_halfwidth=args.window)


def _cmd_peaks(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    runs: list[PeakRun] = []
    for path, kind in ((args.edits, EDIT), (args.comments, COMMENT)):
        if path is None:
            continue
        diag = Diagnostics()
        series, _ = ingest.load_series(path, kind, fmt=args.format, diagnostics=diag)
        runs.extend(_detect_all(series, params))
        for message in diag.messages:
            logger.warning("%s", message)
    out_dir = Path(args.out).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    name = Path(args.out).name
    name = name[:-4] if name.endswith(".csv") else name
    _write_table(
        out_dir, name,
        ["article", "kind", "start_day", "length", "max_ratio"],
        _peak_rows(runs),
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    runs = _load_peak_runs(Path(args.peaks))
    comment_runs = [r for r in runs if r.kind == COMMENT]
    edit_runs = [r for r in runs if r.kind == EDIT]
    if args.powerlaw:
        return _stats_powerlaw(args, runs)
    out_dir = Path(args.out).parent if args.out else None
    rows: list[list[object]]
    if args.report == "overlap":
        header = ["tolerance_days", "n_overlapping_comment_peaks", "n_articles_with_overlap"]
        rows = []
        for tolerance in args.tolerance:
            rep = peakstats.overlap(comment_runs, edit_runs, tolerance)
            rows.append([rep.tolerance_days, rep.n_overlapping_comment_peaks,
                         rep.n_articles_with_overlap])
    elif args.report == "anniversary":
        header = ["kind", "article", "n_anniversaries"]
        rows = []
        for kind, kind_runs in ((COMMENT, comment_runs), (EDIT, edit_runs)):
            counts = peakstats.anniversaries(kind_runs)
            for article, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
                rows.append([kind, article, n])
    elif args.report == "distributions":
        header = ["table", "kind", "value", "count"]
        rows = []
        for kind, kind_runs in ((COMMENT, comment_runs), (EDIT, edit_runs)):
            for table, hist in (
                ("peaks_per_article", peakstats.peaks_per_article(kind_runs)),
                ("run_length", peakstats.run_lengths(kind_runs)),
            ):
                for value, count in sorted(hist.value_counts().items()):
                    rows.append([table, kind, value, count])
            by_article: dict[str, list[PeakRun]] = defaultdict(list)
            for run in kind_runs:
                by_article[run.article_id].append(run)
            intervals: list[int] = []
            for article_runs in by_article.values():
                intervals.extend(timeseries.inter_peak_intervals(article_runs))
            for value, count in sorted(peakstats.integer_histogram(intervals).value_counts().items()):
                rows.append(["inter_peak", kind, value, count])
    else:
        raise ValueError("stats needs --report or --powerlaw")
    if args.out:
        out_dir.mkdir(parents=True, exist_ok=True)
        name = Path(args.out).name
        name = name[:-4] if name.endswith(".csv") else name
        _write_table(out_dir, name, header, rows)
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])
    return 0


def _stats_powerlaw(args: argparse.Namespace, runs: list[PeakRun]) -> int:
    for kind in (COMMENT, EDIT):
        kind_runs = [r for r in runs if r.kind == kind]
        if args.powerlaw == "length":
            samples = [r.length for r in kind_runs]
        elif args.powerlaw == "count":
            counts: dict[str, int] = defaultdict(int)
            for run in kind_runs:
                counts[run.article_id] += 1
            samples = list(counts.values())
        else:
            by_article: dict[str, list[PeakRun]] = defaultdict(list)
            for run in kind_runs:
                by_article[run.article_id].append(run)
            samples = []
            for article_runs in by_article.values():
                samples.extend(timeseries.inter_peak_intervals(article_runs))
        try:
            fit = peakstats.fit_power_law(samples, x_min=args.xmin)
        except ValueError as exc:
            print(f"{kind}: no fit ({exc})", file=sys.stderr)
            continue
        flag = " degenerate" if fit.degenerate else ""
        print(f"{kind}: alpha={_fmt(fit.alpha)} x_min={fit.x_min} n={fit.n_samples}{flag}")
    return 0


def _cmd_hindex(args: argparse.Namespace) -> int:
    diag = Diagnostics()
    by_article, _ = _load_comment_forest(Path(args.comments), args.format, diag)
    rows = []
    for article in sorted(by_article):
        tree = discussion.build_tree(article, by_article[article], diag)
        rows.append([article, discussion.h_index(tree), tree.max_level, tree.n_comments])
    _write_rows_or_stdout(args.out, ["article", "final_h", "max_depth", "n_comments"], rows)
    return 0


def _speed_rows(ranked: list[discussion.SpeedRank]) -> list[list[object]]:
    return [
        [r.article_id, r.delta_h_days, r.start_day.date(), r.end_day.date(),
         r.duration_days, r.final_h, r.n_comments]
        for r in ranked
    ]


SPEED_HEADER = [
    "article", "delta_h_days", "start_day", "end_day",
    "duration_days", "final_h", "n_comments",
]


def _traces_for(
    by_article: dict[str, list[CommentEvent]], diag: Diagnostics
) -> tuple[dict[str, discussion.DiscussionTree], dict[str, discussion.HTrace]]:
    trees: dict[str, discussion.DiscussionTree] = {}
    traces: dict[str, discussion.HTrace] = {}
    for article in sorted(by_article):
        tree = discussion.build_tree(article, by_article[article], diag)
        trees[article] = tree
        try:
            traces[article] = discussion.h_trace(tree)
        except discussion.NoDatedCommentsError:
            diag.tally("articles_without_dated_comments")
    return trees, traces


def _cmd_deltah(args: argparse.Namespace) -> int:
    diag = Diagnostics()
    by_article, _ = _load_comment_forest(Path(args.comments), args.format, diag)
    trees, traces = _traces_for(by_article, diag)
    counts = {article: tree.n_comments for article, tree in trees.items()}
    ranked = discussion.rank_by_speed(
        traces.values(), min_comments=args.min_comments, comment_counts=counts
    )
    _write_rows_or_stdout(args.out, SPEED_HEADER, _speed_rows(ranked))
    return 0


def _cmd_maturity(args: argparse.Namespace) -> int:
    diag = Diagnostics()
    by_article, latest = _load_comment_forest(Path(args.comments), args.format, diag)
    _, traces = _traces_for(by_article, diag)
    as_of = _parse_as_of(args.as_of) if args.as_of else latest
    if as_of is None:
        raise IngestError("no dated comments and no --as-of; nothing to judge maturity against")
    rows = []
    for article in sorted(traces):
        try:
            pace = discussion.delta_h(traces[article])
        except discussion.InsufficientGrowthError:
            continue
        status = discussion.maturity(traces[article], as_of, args.threshold_multiple)
        rows.append([
            article, status.mature, status.time_since_last_increase,
            status.threshold_multiple, pace.value,
        ])
    _write_rows_or_stdout(
        args.out,
        ["article", "mature", "days_since_last_increase", "threshold_multiple", "delta_h_days"],
        rows,
    )
    return 0


def _write_rows_or_stdout(out: str | None, header: Sequence[str], rows: list[list[object]]) -> None:
    if out:
        out_path = Path(out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        name = out_path.name
        name = name[:-4] if name.endswith(".csv") else name
        _write_table(out_path.parent, name, header, rows)
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


# ---------------------------------------------------------------------------
# Full report pipeline


def run_report(config: RunConfig) -> list[Path]:
    """Run every analysis over one corpus and write all tables to out_dir.

    Returns the written paths.  Edits become (article, day) columns, never
    event objects; comments are held in memory grouped by article, which is
    what the tree metrics need anyway.
    """
    config.out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    diag_edits = Diagnostics()
    diag_comments = Diagnostics()
    # One clock reading bounds "future" timestamps in both files and stands
    # in for as_of when nothing is dated.
    now = datetime.now(timezone.utc)

    edit_series, latest_edit = ingest.load_series(
        config.edits_path, EDIT, fmt=config.input_format, diagnostics=diag_edits, now=now
    )
    by_article, latest_comment = _load_comment_forest(
        config.comments_path, config.input_format, diag_comments, now
    )
    comment_series = ingest.build_series(
        (event for events in by_article.values() for event in events), COMMENT
    )

    as_of = config.as_of
    if as_of is None:
        candidates = [ts for ts in (latest_comment, latest_edit) if ts is not None]
        as_of = max(candidates) if candidates else now

    edit_runs = _detect_all(edit_series, config.params)
    comment_runs = _detect_all(comment_series, config.params)

    written += _write_table(
        config.out_dir, "peaks",
        ["article", "kind", "start_day", "length", "max_ratio"],
        _peak_rows(edit_runs + comment_runs), config.output_format,
    )

    written += _write_table(
        config.out_dir, "daily_totals",
        ["day", "edits", "comments"],
        _daily_total_rows(edit_series, comment_series), config.output_format,
    )

    overlap_rows = []
    for tolerance in config.tolerances:
        rep = peakstats.overlap(comment_runs, edit_runs, tolerance)
        overlap_rows.append([rep.tolerance_days, rep.n_overlapping_comment_peaks,
                             rep.n_articles_with_overlap])
    written += _write_table(
        config.out_dir, "overlap",
        ["tolerance_days", "n_overlapping_comment_peaks", "n_articles_with_overlap"],
        overlap_rows, config.output_format,
    )

    anniversary_rows = []
    for kind, kind_runs in ((COMMENT, comment_runs), (EDIT, edit_runs)):
        for article, n in sorted(
            peakstats.anniversaries(kind_runs).items(), key=lambda kv: (-kv[1], kv[0])
        ):
            anniversary_rows.append([kind, article, n])
    written += _write_table(
        config.out_dir, "anniversaries",
        ["kind", "article", "n_anniversaries"],
        anniversary_rows, config.output_format,
    )

    dist_rows: list[list[object]] = []
    fits: list[tuple[str, str, peakstats.PowerLawFit | None]] = []
    for kind, kind_runs in ((COMMENT, comment_runs), (EDIT, edit_runs)):
        per_article = peakstats.peaks_per_article(kind_runs)
        lengths = peakstats.run_lengths(kind_runs)
        by_art: dict[str, list[PeakRun]] = defaultdict(list)
        for run in kind_runs:
            by_art[run.article_id].append(run)
        intervals: list[int] = []
        for article_runs in by_art.values():
            intervals.extend(timeseries.inter_peak_intervals(article_runs))
        inter_hist = peakstats.integer_histogram(intervals)
        for table, hist in (
            ("peaks_per_article", per_article),
            ("run_length", lengths),
            ("inter_peak", inter_hist),
        ):
            for value, count in sorted(hist.value_counts().items()):
                dist_rows.append([table, kind, value, count])
        for table, samples in (
            ("peaks_per_article", _hist_samples(per_article)),
            ("run_length", [run.length for run in kind_runs]),
            ("inter_peak", intervals),
        ):
            try:
                fits.append((table, kind, peakstats.fit_power_law(samples)))
            except ValueError:
                fits.append((table, kind, None))
    written += _write_table(
        config.out_dir, "distributions",
        ["table", "kind", "value", "count"],
        dist_rows, config.output_format,
    )

    trees, traces = _traces_for(by_article, diag_comments)
    counts = {article: tree.n_comments for article, tree in trees.items()}
    paces: dict[str, discussion.DeltaH] = {}
    mature: dict[str, bool] = {}
    for article in sorted(traces):
        try:
            paces[article] = discussion.delta_h(traces[article])
        except discussion.InsufficientGrowthError:
            continue
        mature[article] = discussion.maturity(
            traces[article], as_of, config.maturity_multiple
        ).mature

    ranked = discussion.rank_by_speed(
        traces.values(), min_comments=config.min_comments, comment_counts=counts
    )
    speed_rows = [["fastest", i + 1, *row] for i, row in enumerate(_speed_rows(ranked[: config.top_n]))]
    slowest = ranked[-config.top_n :][::-1] if ranked else []
    speed_rows += [["slowest", i + 1, *row] for i, row in enumerate(_speed_rows(slowest))]
    written += _write_table(
        config.out_dir, "speed",
        ["group", "rank", *SPEED_HEADER], speed_rows, config.output_format,
    )

    filtered_delta = [r.delta_h_days for r in ranked]
    positive_delta = [d for d in filtered_delta if d > 0]
    hist = peakstats.log_binned_histogram(positive_delta, config.bins_per_decade)
    density = hist.density()
    delta_rows = [
        [lo, hi, count, dens]
        for lo, hi, count, dens in zip(hist.bin_edges, hist.bin_edges[1:], hist.counts, density)
    ]
    written += _write_table(
        config.out_dir, "dist_delta_h",
        ["bin_lo", "bin_hi", "count", "density"], delta_rows, config.output_format,
    )

    article_rows = []
    edit_run_count: dict[str, int] = defaultdict(int)
    comment_run_count: dict[str, int] = defaultdict(int)
    longest_run: dict[str, int] = defaultdict(int)
    for run in edit_runs:
        edit_run_count[run.article_id] += 1
        longest_run[run.article_id] = max(longest_run[run.article_id], run.length)
    for run in comment_runs:
        comment_run_count[run.article_id] += 1
        longest_run[run.article_id] = max(longest_run[run.article_id], run.length)
    all_articles = sorted(set(edit_series) | set(by_article))
    for article in all_articles:
        tree = trees.get(article)
        pace = paces.get(article)
        article_rows.append(ArticleReport(
            article_id=article,
            n_edits=edit_series[article].total if article in edit_series else 0,
            n_comments=tree.n_comments if tree else 0,
            edit_runs=edit_run_count.get(article, 0),
            comment_runs=comment_run_count.get(article, 0),
            max_run_length=longest_run.get(article),
            final_h=discussion.h_index(tree) if tree else None,
            delta_h=pace.value if pace else None,
            maturity=mature.get(article),
        ).row())
    written += _write_table(
        config.out_dir, "articles",
        ["article", "n_edits", "n_comments", "n_edit_runs", "n_comment_runs",
         "max_run_length", "final_h", "delta_h_days", "mature"],
        article_rows, config.output_format,
    )

    delta_by_article = {a: p.value for a, p in paces.items()}
    correlation: tuple[float, float, int] | None = None
    try:
        correlation = peakstats.delta_h_vs_max_run_length(delta_by_article, edit_runs)
    except ValueError:
        pass

    summary_rows = _summary_rows(
        config, as_of, edit_series, comment_series, by_article,
        edit_runs, comment_runs, traces, paces, mature, filtered_delta,
        correlation, fits, diag_edits, diag_comments,
    )
    written += _write_table(
        config.out_dir, "summary", ["key", "value"], summary_rows, config.output_format
    )

    diag_rows = []
    for source, diag in (("edits", diag_edits), ("comments", diag_comments)):
        for key, count in diag.rows():
            diag_rows.append([source, key, count])
    written += _write_table(
        config.out_dir, "diagnostics", ["source", "key", "count"],
        diag_rows, config.output_format,
    )
    return written


def _hist_samples(hist: peakstats.Histogram) -> list[int]:
    samples: list[int] = []
    for value, count in hist.value_counts().items():
        samples.extend([value] * count)
    return samples


def _daily_total_rows(
    edit_series: dict[str, ingest.ActivitySeries],
    comment_series: dict[str, ingest.ActivitySeries],
) -> list[list[object]]:
    """Corpus-wide (day, edits, comments) for every day with any activity."""
    every = [*edit_series.values(), *comment_series.values()]
    if not every:
        return []
    first = min(s.start_day.toordinal() for s in every)
    last = max(s.start_day.toordinal() + len(s.counts) for s in every)
    # One ordinal-indexed row per kind; each series adds in as one slice.
    totals = np.zeros((2, last - first), dtype=np.int64)
    for slot, series_map in enumerate((edit_series, comment_series)):
        for series in series_map.values():
            start = series.start_day.toordinal() - first
            totals[slot, start : start + len(series.counts)] += series.counts
    active = np.flatnonzero(totals.sum(axis=0))
    return [
        [date.fromordinal(first + offset), edits, comments]
        for offset, edits, comments in zip(active.tolist(), *totals[:, active].tolist())
    ]


def _summary_rows(
    config: RunConfig,
    as_of: datetime,
    edit_series: dict[str, ingest.ActivitySeries],
    comment_series: dict[str, ingest.ActivitySeries],
    by_article: dict[str, list[CommentEvent]],
    edit_runs: list[PeakRun],
    comment_runs: list[PeakRun],
    traces: dict[str, discussion.HTrace],
    paces: dict[str, discussion.DeltaH],
    mature: dict[str, bool],
    filtered_delta: list[float],
    correlation: tuple[float, float, int] | None,
    fits: list[tuple[str, str, peakstats.PowerLawFit | None]],
    diag_edits: Diagnostics,
    diag_comments: Diagnostics,
) -> list[list[object]]:
    n_edit_events = sum(s.total for s in edit_series.values())
    n_comment_events = sum(len(events) for events in by_article.values())
    rows: list[list[object]] = [
        ["as_of", as_of],
        ["peak_factor_c", config.params.c],
        ["n_min", config.params.n_min],
        ["window_halfwidth", config.params.window_halfwidth],
        ["min_comments", config.min_comments],
        ["maturity_multiple", config.maturity_multiple],
        ["n_edit_events", n_edit_events],
        ["n_comment_events", n_comment_events],
        ["comment_edit_ratio", n_comment_events / n_edit_events if n_edit_events else None],
        ["n_articles_with_edits", len(edit_series)],
        ["n_articles_with_comments", len(by_article)],
        ["peak_runs_edit", len(edit_runs)],
        ["peak_runs_comment", len(comment_runs)],
        ["peak_days_edit", sum(r.length for r in edit_runs)],
        ["peak_days_comment", sum(r.length for r in comment_runs)],
        ["twin_peaks_edit", sum(1 for r in edit_runs if r.length == 2)],
        ["twin_peaks_comment", sum(1 for r in comment_runs if r.length == 2)],
        ["articles_with_edit_runs", len({r.article_id for r in edit_runs})],
        ["articles_with_comment_runs", len({r.article_id for r in comment_runs})],
        ["n_traces", len(traces)],
        ["n_delta_h", len(paces)],
        ["n_delta_h_ranked", len(filtered_delta)],
        ["n_mature", sum(1 for flag in mature.values() if flag)],
    ]
    if filtered_delta:
        rows += [
            ["delta_h_mean", sum(filtered_delta) / len(filtered_delta)],
            ["delta_h_median", float(median(filtered_delta))],
            ["delta_h_min", min(filtered_delta)],
            ["delta_h_max", max(filtered_delta)],
        ]
    if correlation is not None:
        r, p, n = correlation
        rows += [
            ["delta_h_vs_max_edit_run_r", r],
            ["delta_h_vs_max_edit_run_p", p],
            ["delta_h_vs_max_edit_run_n", n],
        ]
    for table, kind, fit in fits:
        if fit is None:
            continue
        rows.append([f"alpha_{table}_{kind}", fit.alpha])
        rows.append([f"alpha_{table}_{kind}_n", fit.n_samples])
    rows.append(["edit_lines_read", diag_edits.tallies.get("lines_read", 0)])
    rows.append(["edit_events_used", diag_edits.tallies.get("events_used", 0)])
    rows.append(["edit_lines_dropped", diag_edits.tallies.get("lines_dropped", 0)])
    rows.append(["comment_lines_read", diag_comments.tallies.get("lines_read", 0)])
    rows.append(["comment_events_used", diag_comments.tallies.get("events_used", 0)])
    rows.append(["comment_lines_dropped", diag_comments.tallies.get("lines_dropped", 0)])
    return rows


def _cmd_report(args: argparse.Namespace) -> int:
    config = RunConfig(
        edits_path=Path(args.edits),
        comments_path=Path(args.comments),
        out_dir=Path(args.out),
        input_format=args.format,
        output_format=args.output_format,
        params=_params_from_args(args),
        tolerances=tuple(args.tolerance),
        min_comments=args.min_comments,
        maturity_multiple=args.threshold_multiple,
        top_n=args.top_n,
        as_of=_parse_as_of(args.as_of) if args.as_of else None,
        bins_per_decade=args.bins_per_decade,
    )
    written = run_report(config)
    for path in written:
        print(path)
    return 0


# ---------------------------------------------------------------------------
# Streaming watch


WATCH_HEADER = ("article", "kind", "day", "count", "ratio", "tier")


def _step_and_alert(
    states: dict[tuple[str, str], StreamState], article: str, kind: str,
    day: date, count: int, params: PeakParams,
) -> list[object] | None:
    """Feed one closed day to the per-article detector; alert row if it peaks."""
    key = (article, kind)
    state = states.get(key)
    if state is None:
        state = states[key] = StreamState(window=params.window_halfwidth)
    ratio, is_peak, _ = timeseries.stream_step(state, day, count, params)
    if not is_peak:
        return None
    tier = timeseries.alert_tier(ratio, params)
    return [article, kind, day, count, float(ratio), tier]


def simulate_watch(
    events_path: Path | str,
    params: PeakParams | None = None,
    kind: str = COMMENT,
    fmt: str = "jsonl",
    sort: bool = False,
    diagnostics: Diagnostics | None = None,
) -> list[list[object]]:
    """Replay an event file through the streaming detector.

    Returns one alert row (article, kind, day, count, ratio, tier) per
    detected peak day.  A day is closed and scored once a later day for the
    same article arrives, or at end of file.  Without sort=True the events
    must already be chronological within each article and a step backwards
    raises OutOfOrderError; sort=True buffers everything and replays in day
    order, trading memory for shuffled input.  Undated events are skipped
    (and tallied in diagnostics).
    """
    p = params or PeakParams()
    diag = diagnostics if diagnostics is not None else Diagnostics()
    states: dict[tuple[str, str], StreamState] = {}
    alerts: list[list[object]] = []
    if sort:
        series, _ = ingest.load_series(events_path, kind, fmt=fmt, diagnostics=diag)
        for article in sorted(series):
            counts = series[article].counts
            for offset in np.flatnonzero(counts).tolist():
                row = _step_and_alert(
                    states, article, kind, series[article].day(offset), int(counts[offset]), p
                )
                if row:
                    alerts.append(row)
        return alerts
    # Each chunk arrives as runs of one article's events on one day; a run
    # extends the article's open day, or closes it and opens the next.
    open_days: dict[str, tuple[int, int]] = {}
    for chunk in ingest.read_chunks(events_path, kind, fmt=fmt, diagnostics=diag):
        for article, ordinal, count in chunk.day_runs():
            entry = open_days.get(article)
            if entry is None or ordinal == entry[0]:
                open_days[article] = (ordinal, count if entry is None else entry[1] + count)
                continue
            if ordinal < entry[0]:
                raise OutOfOrderError(
                    f"{article}: event on {date.fromordinal(ordinal)} arrived after"
                    f" {date.fromordinal(entry[0])}; rerun with --sort"
                )
            row = _step_and_alert(states, article, kind, date.fromordinal(entry[0]), entry[1], p)
            if row:
                alerts.append(row)
            open_days[article] = (ordinal, count)
    for article in sorted(open_days):
        ordinal, count = open_days[article]
        row = _step_and_alert(states, article, kind, date.fromordinal(ordinal), count, p)
        if row:
            alerts.append(row)
    return alerts


def _cmd_watch(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    out_handle = open(args.out, "w", encoding="utf-8", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(out_handle, lineterminator="\n")
        writer.writerow(WATCH_HEADER)
        if args.events:
            for row in simulate_watch(
                args.events, params, kind=args.kind, fmt=args.format, sort=args.sort
            ):
                writer.writerow([_fmt(cell) for cell in row])
        else:
            states: dict[tuple[str, str], StreamState] = {}
            reader = csv.reader(sys.stdin)
            for row_no, row in enumerate(reader, start=1):
                if not row or row[0].strip().startswith("#"):
                    continue
                if row_no == 1 and row[:2] == ["article", "kind"]:
                    continue
                if len(row) != 4:
                    raise IngestError(f"stdin:{row_no}: expected article,kind,day,count")
                article, kind, day_text, count_text = (cell.strip() for cell in row)
                try:
                    day = date.fromisoformat(day_text)
                    count = int(count_text)
                except ValueError as exc:
                    raise IngestError(f"stdin:{row_no}: {exc}") from exc
                if kind not in ingest.KINDS:
                    raise IngestError(
                        f"stdin:{row_no}: kind must be one of {', '.join(ingest.KINDS)},"
                        f" got {kind!r}"
                    )
                if count < 0:
                    raise IngestError(f"stdin:{row_no}: count must be >= 0, got {count}")
                alert = _step_and_alert(states, article, kind, day, count, params)
                if alert:
                    writer.writerow([_fmt(cell) for cell in alert])
    finally:
        if args.out:
            out_handle.close()
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def _add_input_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("jsonl", "csv"), default="jsonl",
                        help="input event file format")


def _add_peak_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-c", dest="c", type=float,
                        default=timeseries.DEFAULT_PEAK_FACTOR,
                        help="peak threshold as a multiple of the local median")
    parser.add_argument("--nmin", type=int,
                        default=timeseries.DEFAULT_MIN_ACTIVITY,
                        help="floor under the median before thresholding")
    parser.add_argument("--window", type=int,
                        default=timeseries.DEFAULT_WINDOW_HALFWIDTH,
                        help="median window halfwidth in days")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="talkdyn",
        description="Activity peaks and discussion-growth metrics for wiki articles.",
    )
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse-talk", help="parse talk-page wikitext into comment events")
    p.add_argument("--in", dest="in_path", required=True,
                   help="talk-page file or directory of files (article id = file stem)")
    p.add_argument("--out", help="output JSONL path (default stdout)")
    p.add_argument("--patterns", help="JSON registry of extra signature date patterns")
    p.set_defaults(handler=_cmd_parse_talk)

    p = sub.add_parser("peaks", help="detect activity peak runs")
    p.add_argument("--edits", help="edit events file")
    p.add_argument("--comments", help="comment events file")
    p.add_argument("--out", required=True, help="output CSV path")
    _add_input_format(p)
    _add_peak_params(p)
    p.set_defaults(handler=_cmd_peaks)

    p = sub.add_parser("stats", help="statistics over a peaks table")
    p.add_argument("--peaks", required=True, help="peaks CSV from the peaks subcommand")
    p.add_argument("--report", choices=("overlap", "anniversary", "distributions"))
    p.add_argument("--powerlaw", choices=POWERLAW_COLUMNS,
                   help="fit a power-law exponent to run lengths, inter-peak "
                        "intervals, or per-article peak counts")
    p.add_argument("--xmin", type=int, default=1, help="smallest sample used in the fit")
    p.add_argument("--tolerance", type=int, nargs="+", default=list(DEFAULT_TOLERANCES),
                   help="day tolerances for overlap")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser("hindex", help="discussion h-index per article")
    p.add_argument("--comments", required=True)
    p.add_argument("--out", help="output CSV path (default stdout)")
    _add_input_format(p)
    p.set_defaults(handler=_cmd_hindex)

    p = sub.add_parser("deltah", help="discussion growth speed per article")
    p.add_argument("--comments", required=True)
    p.add_argument("--min-comments", type=int, default=discussion.DEFAULT_MIN_COMMENTS,
                   help="only rank discussions with strictly more comments than this")
    p.add_argument("--out", help="output CSV path (default stdout)")
    _add_input_format(p)
    p.set_defaults(handler=_cmd_deltah)

    p = sub.add_parser("maturity", help="has each discussion stopped growing?")
    p.add_argument("--comments", required=True)
    p.add_argument("--as-of", help="judgement time (YYYY-MM-DD or full timestamp); "
                                   "default: latest comment timestamp")
    p.add_argument("-k", "--threshold-multiple", type=float,
                   default=discussion.DEFAULT_MATURITY_MULTIPLE,
                   help="idle time required, in multiples of the discussion's own pace")
    p.add_argument("--out", help="output CSV path (default stdout)")
    _add_input_format(p)
    p.set_defaults(handler=_cmd_maturity)

    p = sub.add_parser("report", help="run every analysis into a directory")
    p.add_argument("--edits", required=True)
    p.add_argument("--comments", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--output-format", choices=("csv", "json"), default="csv",
                   help="csv only, or csv plus json mirrors")
    p.add_argument("--tolerance", type=int, nargs="+", default=list(DEFAULT_TOLERANCES))
    p.add_argument("--min-comments", type=int, default=discussion.DEFAULT_MIN_COMMENTS)
    p.add_argument("-k", "--threshold-multiple", type=float,
                   default=discussion.DEFAULT_MATURITY_MULTIPLE)
    p.add_argument("--top-n", type=int, default=DEFAULT_TOP_N)
    p.add_argument("--as-of", help="maturity judgement time; default: latest event timestamp")
    p.add_argument("--bins-per-decade", type=int, default=peakstats.DEFAULT_BINS_PER_DECADE)
    _add_input_format(p)
    _add_peak_params(p)
    p.set_defaults(handler=_cmd_report)

    p = sub.add_parser("watch", help="streaming peak alerts")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--stdin", action="store_true",
                       help="read article,kind,day,count lines from stdin")
    group.add_argument("--events", help="replay an event file through the detector")
    p.add_argument("--kind", choices=(EDIT, COMMENT), default=COMMENT,
                   help="event kind when replaying --events")
    p.add_argument("--sort", action="store_true",
                   help="buffer and order --events first instead of requiring "
                        "chronological input")
    p.add_argument("--out", help="alerts CSV path (default stdout)")
    _add_input_format(p)
    _add_peak_params(p)
    p.set_defaults(handler=_cmd_watch)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.handler(args)
    except (IngestError, PatternError, OutOfOrderError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
