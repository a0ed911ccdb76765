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
import io
import json
import logging
import math
import re
import sys
from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from itertools import zip_longest
from pathlib import Path
from statistics import median
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO

import numpy as np

from . import discussion, ingest, peakstats, talkparser, timeseries
from .ingest import COMMENT, EDIT, CommentEvent, Diagnostics, IngestError
from .talkparser import PatternError
from .timeseries import DayCounts, OutOfOrderError, PeakParams, PeakRun

logger = logging.getLogger(__name__)

DEFAULT_TOLERANCES = (0, 1, 2)
DEFAULT_TOP_N = 15
# stats --powerlaw choice -> the distributions table its samples come from.
POWERLAW_SAMPLES = {"length": "run_length", "interval": "inter_peak", "count": "peaks_per_article"}
# The tallies every load reconciles: lines_read = events_used + lines_dropped.
RECONCILED = ("lines_read", "events_used", "lines_dropped")
SPEED_HEADER = [
    "article", "delta_h_days", "start_day", "end_day",
    "duration_days", "final_h", "n_comments",
]

Trees = dict[str, discussion.DiscussionTree]
Traces = dict[str, discussion.HTrace]
Runs = dict[str, list[PeakRun]]  # COMMENT, then EDIT -> that kind's peak runs
Samples = dict[str, dict[str, list[int]]]  # kind -> distributions table -> samples
Paces = dict[str, discussion.DeltaH]
Statuses = dict[str, discussion.MaturityStatus]


# The smallest value of each number setting that is checked where it comes in;
# every one must also be finite.  Overlap tolerances are day counts.
MINIMUMS = {
    "min_comments": 0, "top_n": 1, "bins_per_decade": 1, "x_min": 1, "tolerance": 0,
    "maturity_multiple": -math.inf, "threshold_multiple": -math.inf,
}
# The largest, where a setting sizes work: the delta-h histogram builds one
# edge per bin across its samples' decades.
MAXIMUMS = {"bins_per_decade": 1000}


def _check_bounds(**settings: float) -> None:
    for name, value in settings.items():
        if not -math.inf < value < math.inf:
            raise ValueError(f"{name} must be finite, got {value}")
        if value < MINIMUMS[name]:
            raise ValueError(f"{name} must be >= {MINIMUMS[name]}, got {value}")
        if value > MAXIMUMS.get(name, math.inf):
            raise ValueError(f"{name} must be <= {MAXIMUMS[name]}, got {value}")


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
    now: datetime | None = None  # bounds "future" timestamps; None reads the clock once

    def __post_init__(self) -> None:
        if self.input_format not in ("jsonl", "csv"):
            raise ValueError(f"unknown input format {self.input_format!r}")
        if self.output_format not in ("csv", "json"):
            raise ValueError(f"unknown output format {self.output_format!r}")
        _check_bounds(
            min_comments=self.min_comments, top_n=self.top_n, bins_per_decade=self.bins_per_decade,
            tolerance=min(self.tolerances, default=0), maturity_multiple=self.maturity_multiple,
        )


class Table(NamedTuple):
    """One output table: its file stem, its columns and its rows."""

    name: str
    header: Sequence[str]
    rows: Iterable[Sequence[object]]


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


def _write_csv(handle: TextIO, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(cell) for cell in row])


def _write_table(
    out_dir: Path, name: str, header: Sequence[str], rows: Iterable[Sequence[object]],
    output_format: str = "csv",
) -> list[Path]:
    rows = [list(row) for row in rows]
    csv_path = out_dir / f"{name}.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as handle:
        _write_csv(handle, header, rows)
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
    logger.info("table %s: %d rows -> %s", name, len(rows), csv_path)
    return written


def _emit(table: Table, out: str | None) -> None:
    """Write a subcommand's table to --out (as <out without .csv>.csv) or to stdout."""
    if out:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        _write_table(path.parent, path.name.removesuffix(".csv"), table.header, table.rows)
    else:
        _write_csv(sys.stdout, table.header, table.rows)


_DAY = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}").fullmatch


def _parse_day(text: str) -> date:
    """An ASCII YYYY-MM-DD day; ValueError for any other spelling."""
    if not _DAY(text):
        raise ValueError(f"expected a YYYY-MM-DD day, got {text!r}")
    return date.fromisoformat(text)


def _parse_time(text: str, flag: str) -> datetime:
    """A full timestamp, or an ASCII YYYY-MM-DD day at 00:00 UTC, read by ingest's parser."""
    ts = ingest.parse_timestamp(f"{text}T00:00:00Z" if _DAY(text) else text)
    if ts is None:
        raise ValueError(f"cannot parse {flag} {text!r}; use YYYY-MM-DD or full timestamp,"
                         " from 2001-01-01 on")
    return ts


def _now(args: argparse.Namespace) -> datetime:
    """--now as a time, or else one clock reading: the one the command's callees all use."""
    now = _parse_time(args.now, "--now") if args.now else datetime.now(timezone.utc)
    logger.info("now %s (%s)", ingest.format_timestamp(now), "--now" if args.now else "clock")
    return now


# ---------------------------------------------------------------------------
# Loading


def _log_load(diag: Diagnostics) -> None:
    """Warn of each dropped line diag kept; log the load's line reconciliation."""
    for message in diag.messages:
        logger.warning("%s", message)
    logger.info(
        "%s: lines_read %d = events_used %d + lines_dropped %d",
        diag.source, *(diag.tallies[key] for key in RECONCILED),
    )


def _load(
    path: Path, kind: str, fmt: str, now: datetime | None = None, links: bool = True
) -> tuple[ingest.Columns, Diagnostics]:
    """One file's usable records as columns, and the load's diagnostics, logged."""
    diag = Diagnostics()
    columns = ingest.load_columns(path, kind, fmt=fmt, diagnostics=diag, now=now, links=links)
    _log_load(diag)
    return columns, diag


class _DayTable(NamedTuple):
    """A table of days: its name in messages, and the name and least value of its number."""

    name: str
    number: str
    least: int


PEAKS_TABLE = _DayTable("peaks", "length", 1)
STDIN_TABLE = _DayTable("day-count", "count", 0)


def _day_row(where: str, cells: Sequence[str | None], table: _DayTable) -> tuple[str, str, date, int]:
    """The checked article, kind, day and number of the row of table at where (path:line)."""
    article, kind, day_text, number_text = cells
    try:
        day, number = _parse_day(day_text), ingest.int_field(number_text)
    except (TypeError, ValueError) as exc:
        raise IngestError(f"{where}: malformed {table.name} row: {exc}") from exc
    if kind not in ingest.KINDS:
        raise IngestError(f"{where}: kind must be one of {', '.join(ingest.KINDS)}, got {kind!r}")
    if number < table.least:
        raise IngestError(f"{where}: {table.number} must be >= {table.least}, got {number}")
    return article, kind, day, number


def _load_peak_runs(path: Path) -> Runs:
    """Read back a peaks.csv table, by kind (ratio profiles are not retained there)."""
    runs: list[PeakRun] = []
    required = ("article", "kind", "start_day", "length")
    try:
        with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as handle:
            header, rows = ingest.csv_rows(handle, str(path))
            if header is None or not set(required).issubset(header):
                raise IngestError(f"{path}: expected columns {sorted(required)}")
            for line_no, cells, bad in rows:
                where = f"{path}:{line_no}"
                if bad:
                    raise IngestError(f"{where}: {bad[1]}")
                row = dict(zip_longest(header, cells))
                runs.append(PeakRun(*_day_row(where, [row[c] for c in required], PEAKS_TABLE)))
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    return {kind: [r for r in runs if r.kind == kind] for kind in (COMMENT, EDIT)}


def _traces(trees: Trees, diag: Diagnostics) -> Traces:
    traces: Traces = {}
    for article, tree in trees.items():
        try:
            traces[article] = discussion.h_trace(tree)
        except discussion.NoDatedCommentsError:
            diag.tally("articles_without_dated_comments")
    return traces


# ---------------------------------------------------------------------------
# Table builders, one per table, shared by report and the subcommands.  They
# call the analysis functions through their modules (peakstats.overlap, not a
# from-import), so a caller that rebinds a module attribute, such as a
# profiler, sees every call.


def _peaks_table(runs: Runs) -> Table:
    ordered = sorted(
        (run for kind_runs in runs.values() for run in kind_runs),
        key=lambda r: (r.article_id, r.kind, r.start_day),
    )
    rows = [[r.article_id, r.kind, r.start_day, r.length, r.max_ratio] for r in ordered]
    return Table("peaks", ["article", "kind", "start_day", "length", "max_ratio"], rows)


def _overlap_table(runs: Runs, tolerances: Iterable[int]) -> Table:
    reports = [peakstats.overlap(runs[COMMENT], runs[EDIT], t) for t in tolerances]
    rows = [[r.tolerance_days, r.n_overlapping_comment_peaks, r.n_articles_with_overlap]
            for r in reports]
    header = ["tolerance_days", "n_overlapping_comment_peaks", "n_articles_with_overlap"]
    return Table("overlap", header, rows)


def _anniversaries_table(runs: Runs) -> Table:
    rows = []
    for kind, kind_runs in runs.items():
        counts = peakstats.anniversaries(kind_runs)
        for article, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
            rows.append([kind, article, n])
    return Table("anniversaries", ["kind", "article", "n_anniversaries"], rows)


def _sample_sets(runs: Runs) -> Samples:
    """Per kind, the power-law samples, keyed by the distributions table they feed.

    Per-article counts come in first-seen order; the fit sums with math.fsum,
    so any order gives the same alpha.
    """
    sets = {}
    for kind, kind_runs in runs.items():
        by_article = peakstats.runs_by_article(kind_runs)
        sets[kind] = {
            "peaks_per_article": [len(article_runs) for article_runs in by_article.values()],
            "run_length": [run.length for run in kind_runs],
            "inter_peak": [
                gap for article_runs in by_article.values()
                for gap in timeseries.inter_peak_intervals(article_runs)
            ],
        }
    return sets


def _distributions_table(runs: Runs, samples: Samples) -> Table:
    rows = []
    for kind, kind_runs in runs.items():
        for table, hist in (
            ("peaks_per_article", peakstats.peaks_per_article(kind_runs)),
            ("run_length", peakstats.run_lengths(kind_runs)),
            ("inter_peak", peakstats.integer_histogram(samples[kind]["inter_peak"])),
        ):
            for value, count in sorted(hist.value_counts().items()):
                rows.append([table, kind, value, count])
    return Table("distributions", ["table", "kind", "value", "count"], rows)


def _fit(samples: list[int], x_min: int = 1) -> peakstats.PowerLawFit | ValueError:
    """The power-law fit of samples, or the error that says why there is none."""
    try:
        return peakstats.fit_power_law(samples, x_min=x_min)
    except ValueError as exc:
        return exc


def _paces(traces: Traces) -> Paces:
    """The one delta_h of every trace that grew enough to have a pace."""
    paces: Paces = {}
    for article, trace in traces.items():
        try:
            paces[article] = discussion.delta_h(trace)
        except discussion.InsufficientGrowthError:
            continue
    return paces


def _maturities(paces: Paces, as_of: datetime, multiple: float) -> Statuses:
    """Maturity at as_of of every paced discussion, read off its pace."""
    if multiple <= 0:
        logger.warning("maturity threshold multiple %.3g is degenerate: everything is mature",
                       multiple)
    return {article: discussion.maturity(pace, as_of, multiple) for article, pace in paces.items()}


def _rank(trees: Trees, paces: Paces, min_comments: int) -> list[discussion.DeltaH]:
    counts = {article: tree.n_comments for article, tree in trees.items()}
    return discussion.rank_by_speed(paces.values(), counts, min_comments)


def _speed_rows(ranked: list[discussion.DeltaH], trees: Trees) -> list[list[object]]:
    rows: list[list[object]] = []
    for pace in ranked:
        start, end = pace.first_increase.date(), pace.last_increase.date()
        rows.append([pace.article_id, pace.value, start, end, (end - start).days, pace.final_h,
                     trees[pace.article_id].n_comments])
    return rows


def _articles_table(
    edit_counts: dict[str, int], trees: Trees, runs: Runs, paces: Paces, statuses: Statuses
) -> Table:
    """One row per article.

    A cell whose precondition is unmet (no dated comments, too few h steps,
    ...) stays blank rather than 0, so a blank always means "not computable".
    """
    by_article = {kind: peakstats.runs_by_article(kind_runs) for kind, kind_runs in runs.items()}
    rows = []
    for article in sorted(set(edit_counts) | set(trees)):
        tree = trees.get(article)
        pace, status = paces.get(article), statuses.get(article)
        edit_runs, comment_runs = (by_article[kind].get(article, []) for kind in (EDIT, COMMENT))
        rows.append([
            article,
            edit_counts.get(article, 0),
            tree.n_comments if tree else 0,
            len(edit_runs),
            len(comment_runs),
            max((run.length for run in edit_runs + comment_runs), default=None),
            discussion.h_index(tree) if tree else None,
            pace.value if pace else None,
            status.mature if status else None,
        ])
    header = ["article", "n_edits", "n_comments", "n_edit_runs", "n_comment_runs",
              "max_run_length", "final_h", "delta_h_days", "mature"]
    return Table("articles", header, rows)


def _daily_total_rows(edits: DayCounts, comments: DayCounts) -> list[list[object]]:
    """Corpus-wide (day, edits, comments) for every day with any activity, from each load's day_counts()."""
    # With return_inverse, np.unique leaves numpy.ma unimported; a plain call imports it.
    active, where = np.unique(np.concatenate((edits[1], comments[1])), return_inverse=True)
    split = edits[1].size
    totals = [np.bincount(at, counts, active.size).astype(np.int64).tolist()
              for at, counts in ((where[:split], edits[2]), (where[split:], comments[2]))]
    return [[date.fromordinal(day), *kinds] for day, *kinds in zip(active.tolist(), *totals)]


# Summary rows that take more than a count; run_report lists the rest.


def _growth_rows(
    traces: Traces, paces: Paces, statuses: Statuses, ranked: list[discussion.DeltaH],
    edit_runs: list[PeakRun],
) -> list[list[object]]:
    ranked_delta = [pace.value for pace in ranked]
    rows: list[list[object]] = [
        ["n_traces", len(traces)],
        ["n_delta_h", len(paces)],
        ["n_delta_h_ranked", len(ranked_delta)],
        ["n_mature", sum(1 for status in statuses.values() if status.mature)],
    ]
    if ranked_delta:
        rows += [
            ["delta_h_mean", sum(ranked_delta) / len(ranked_delta)],
            ["delta_h_median", float(median(ranked_delta))],
            ["delta_h_min", min(ranked_delta)],
            ["delta_h_max", max(ranked_delta)],
        ]
    delta_by_article = {article: pace.value for article, pace in paces.items()}
    try:
        r, p, n = peakstats.delta_h_vs_max_run_length(delta_by_article, edit_runs)
    except ValueError:
        return rows
    return rows + [
        ["delta_h_vs_max_edit_run_r", r],
        ["delta_h_vs_max_edit_run_p", p],
        ["delta_h_vs_max_edit_run_n", n],
    ]


def _alpha_rows(samples: Samples) -> list[list[object]]:
    rows: list[list[object]] = []
    for kind, sets in samples.items():
        for table, values in sets.items():
            fit = _fit(values)
            if isinstance(fit, peakstats.PowerLawFit):
                rows.append([f"alpha_{table}_{kind}", fit.alpha])
                rows.append([f"alpha_{table}_{kind}_n", fit.n_samples])
    return rows


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_parse_talk(args: argparse.Namespace) -> int:
    # --now, or one clock reading, bounds "future" signature dates on every page.
    now = _now(args)
    patterns = talkparser.load_patterns(args.patterns) if args.patterns else None
    source = Path(args.in_path)
    if source.is_dir():
        files = sorted(p for p in source.iterdir() if p.is_file() and not p.name.startswith("."))
    else:
        files = [source]
    diag = Diagnostics(source=str(source))

    def events() -> Iterator[CommentEvent]:
        """Each page's events, parsed as the writer reaches the page."""
        for path in files:
            try:
                yield from talkparser.parse_file(path, patterns, diag, now=now)
            except OSError as exc:
                raise IngestError(f"cannot read {path}: {exc}") from exc

    if args.out:
        ingest.write_events_jsonl(args.out, events())
    else:
        for event in events():
            print(ingest.event_json_line(event))
    for key, count in diag.rows():
        print(f"# {key}: {count}", file=sys.stderr)
    return 0


def _params_from_args(args: argparse.Namespace) -> PeakParams:
    return PeakParams(c=args.c, n_min=args.nmin, window_halfwidth=args.window)


def _cmd_peaks(args: argparse.Namespace) -> int:
    sources = [(p, kind) for p, kind in ((args.edits, EDIT), (args.comments, COMMENT)) if p]
    if not sources:
        raise ValueError("peaks needs --edits, --comments or both")
    params = _params_from_args(args)
    # --now, or one clock reading, bounds "future" timestamps in both files.
    now = _now(args)
    runs = {}
    for path, kind in sources:
        # Day counts read no comment ids, so none are coded.
        columns, _ = _load(path, kind, args.format, now, links=False)
        runs[kind] = timeseries.detect_day_counts(columns.names, kind, columns.day_counts(), params)
    _emit(_peaks_table(runs), args.out)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    if bool(args.report) == bool(args.powerlaw):
        raise ValueError("stats needs exactly one of --report or --powerlaw")
    if args.powerlaw and args.out:
        raise ValueError("stats --powerlaw prints its fits and writes no --out")
    _check_bounds(x_min=args.xmin, tolerance=min(args.tolerance))
    runs = _load_peak_runs(Path(args.peaks))
    if args.report == "overlap":
        table = _overlap_table(runs, args.tolerance)
    elif args.report == "anniversary":
        table = _anniversaries_table(runs)
    elif args.report == "distributions":
        table = _distributions_table(runs, _sample_sets(runs))
    else:
        for kind, sets in _sample_sets(runs).items():
            fit = _fit(sets[POWERLAW_SAMPLES[args.powerlaw]], args.xmin)
            if isinstance(fit, ValueError):
                print(f"{kind}: no fit ({fit})", file=sys.stderr)
                continue
            flag = " degenerate" if fit.degenerate else ""
            print(f"{kind}: alpha={_fmt(fit.alpha)} x_min={fit.x_min} n={fit.n_samples}{flag}")
        return 0
    _emit(table, args.out)
    return 0


def _cmd_hindex(args: argparse.Namespace) -> int:
    comments, diag = _load(Path(args.comments), COMMENT, args.format, _now(args))
    rows = [
        [article, discussion.h_index(tree), tree.max_level, tree.n_comments]
        for article, tree in discussion.build_forest(comments, diag).items()
    ]
    _emit(Table("hindex", ["article", "final_h", "max_depth", "n_comments"], rows), args.out)
    return 0


def _cmd_deltah(args: argparse.Namespace) -> int:
    _check_bounds(min_comments=args.min_comments)
    comments, diag = _load(Path(args.comments), COMMENT, args.format, _now(args))
    trees = discussion.build_forest(comments, diag)
    ranked = _rank(trees, _paces(_traces(trees, diag)), args.min_comments)
    _emit(Table("deltah", SPEED_HEADER, _speed_rows(ranked, trees)), args.out)
    return 0


def _cmd_maturity(args: argparse.Namespace) -> int:
    _check_bounds(threshold_multiple=args.threshold_multiple)
    as_of = _parse_time(args.as_of, "--as-of") if args.as_of else None
    comments, diag = _load(Path(args.comments), COMMENT, args.format, _now(args))
    as_of = as_of or comments.latest()
    if as_of is None:
        raise IngestError("no dated comments and no --as-of; nothing to judge maturity against")
    paces = _paces(_traces(discussion.build_forest(comments, diag), diag))
    rows = [
        [article, status.mature, status.time_since_last_increase,
         status.threshold_multiple, paces[article].value]
        for article, status in _maturities(paces, as_of, args.threshold_multiple).items()
    ]
    header = ["article", "mature", "days_since_last_increase", "threshold_multiple",
              "delta_h_days"]
    _emit(Table("maturity", header, rows), args.out)
    return 0


# ---------------------------------------------------------------------------
# Full report pipeline


def run_report(config: RunConfig) -> list[Path]:
    """Run every analysis over one corpus and write all tables to out_dir.

    Returns the written paths.  Each file is loaded once into columns, never
    event objects; the comment columns feed the day counts and the trees alike.
    """
    config.out_dir.mkdir(parents=True, exist_ok=True)
    # config.now, or one clock reading, bounds "future" timestamps in both files.
    now = config.now or datetime.now(timezone.utc)
    edits, diag_edits = _load(config.edits_path, EDIT, config.input_format, now)
    comments, diag_comments = _load(config.comments_path, COMMENT, config.input_format, now)
    # Trees first: the forest's sort buffers are freed before the day counts exist.
    trees = discussion.build_forest(comments, diag_comments)
    as_of = config.as_of or max(
        (ts for ts in (comments.latest(), edits.latest()) if ts is not None), default=None
    )

    # One day_counts() per load feeds its peak runs and the daily totals.
    edit_days, comment_days = edits.day_counts(), comments.day_counts()
    comment_runs = timeseries.detect_day_counts(comments.names, COMMENT, comment_days, config.params)
    edit_runs = timeseries.detect_day_counts(edits.names, EDIT, edit_days, config.params)
    runs = {COMMENT: comment_runs, EDIT: edit_runs}
    samples = _sample_sets(runs)
    traces = _traces(trees, diag_comments)
    paces = _paces(traces)
    statuses = _maturities(paces, as_of, config.maturity_multiple)
    ranked = _rank(trees, paces, config.min_comments)
    top_n, params = config.top_n, config.params
    edit_counts = dict(zip(edits.names, np.bincount(edits.articles, minlength=len(edits.names)).tolist()))
    n_edit_events, n_comment_events = edits.articles.size, comments.articles.size
    delta_hist = peakstats.log_binned_histogram(
        [pace.value for pace in ranked if pace.value > 0], config.bins_per_decade
    )
    tables = [
        _peaks_table(runs),
        Table("daily_totals", ["day", "edits", "comments"],
              _daily_total_rows(edit_days, comment_days)),
        _overlap_table(runs, config.tolerances),
        _anniversaries_table(runs),
        _distributions_table(runs, samples),
        Table("speed", ["group", "rank", *SPEED_HEADER], [
            [group, rank, *row]
            for group, part in (("fastest", ranked[:top_n]), ("slowest", ranked[-top_n:][::-1]))
            for rank, row in enumerate(_speed_rows(part, trees), start=1)
        ]),
        Table("dist_delta_h", ["bin_lo", "bin_hi", "count", "density"], list(zip(
            delta_hist.bin_edges, delta_hist.bin_edges[1:], delta_hist.counts, delta_hist.density()
        ))),
        _articles_table(edit_counts, trees, runs, paces, statuses),
        Table("summary", ["key", "value"], [
            ["as_of", as_of],
            ["peak_factor_c", params.c],
            ["n_min", params.n_min],
            ["window_halfwidth", params.window_halfwidth],
            ["min_comments", config.min_comments],
            ["maturity_multiple", config.maturity_multiple],
            ["n_edit_events", n_edit_events],
            ["n_comment_events", n_comment_events],
            ["comment_edit_ratio", n_comment_events / n_edit_events if n_edit_events else None],
            ["n_articles_with_edits", len(edit_counts)],
            ["n_articles_with_comments", len(comments.names)],
            ["peak_runs_edit", len(edit_runs)],
            ["peak_runs_comment", len(comment_runs)],
            ["peak_days_edit", sum(r.length for r in edit_runs)],
            ["peak_days_comment", sum(r.length for r in comment_runs)],
            ["twin_peaks_edit", sum(1 for r in edit_runs if r.length == 2)],
            ["twin_peaks_comment", sum(1 for r in comment_runs if r.length == 2)],
            ["articles_with_edit_runs", len({r.article_id for r in edit_runs})],
            ["articles_with_comment_runs", len({r.article_id for r in comment_runs})],
            *_growth_rows(traces, paces, statuses, ranked, edit_runs),
            *_alpha_rows(samples),
            *([f"{prefix}_{key}", diag.tallies[key]]
              for prefix, diag in (("edit", diag_edits), ("comment", diag_comments))
              for key in RECONCILED),
        ]),
        Table("diagnostics", ["source", "key", "count"], [
            [source, key, count]
            for source, diag in (("edits", diag_edits), ("comments", diag_comments))
            for key, count in diag.rows()
        ]),
    ]
    written: list[Path] = []
    for table in tables:
        written += _write_table(config.out_dir, *table, config.output_format)
    return written


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
        as_of=_parse_time(args.as_of, "--as-of") if args.as_of else None,
        bins_per_decade=args.bins_per_decade,
        now=_now(args),
    )
    written = run_report(config)
    for path in written:
        print(path)
    return 0


# ---------------------------------------------------------------------------
# Streaming watch


WATCH_HEADER = ("article", "kind", "day", "count", "ratio", "tier")


def _alerts(
    params: PeakParams, names: list[str], kind: str,
    codes: np.ndarray, days: np.ndarray, counts: np.ndarray, ratios: np.ndarray,
) -> list[list[object]]:
    """An alert row for each peak day a scorer gives, on stream (names[code], kind)."""
    return [
        [names[code], kind, date.fromordinal(day), count, ratio, timeseries.alert_tier(ratio, params)]
        for code, day, count, ratio in zip(codes.tolist(), days.tolist(), counts.tolist(), ratios.tolist())
    ]


def simulate_watch(
    events_path: Path | str,
    params: PeakParams | None = None,
    kind: str = COMMENT,
    fmt: str = "jsonl",
    sort: bool = False,
    diagnostics: Diagnostics | None = None,
    now: datetime | None = None,
) -> list[list[object]]:
    """Replay an event file through the streaming detector.

    Returns one alert row (article, kind, day, count, ratio, tier) per
    detected peak day.  Each chunk's (article, day) runs are fed to one
    TrailingScorer, which closes and scores a day once a later day for the
    same article arrives; the days still open at end of file come last, by
    article name.  Without sort=True the events must already be
    chronological within each article and a step backwards raises
    OutOfOrderError; sort=True buffers everything and replays each
    article's days in order, articles by name, trading memory for shuffled
    input.  Undated events are skipped (and tallied in diagnostics), as are
    events after now (default: the clock, read once when loading starts).
    """
    scorer = timeseries.TrailingScorer(params)
    p = scorer.params
    if sort:
        columns = ingest.load_columns(events_path, kind, fmt=fmt, diagnostics=diagnostics, now=now,
                                      links=False)
        names = columns.names
        alerts = _alerts(p, names, kind, *scorer.feed(names, *columns.day_counts()))
        alerts += _alerts(p, names, kind, *scorer.close())
        alerts.sort(key=lambda row: (row[0], row[2]))
        return alerts
    alerts = []
    names: list[str] = []
    for chunk in ingest.read_chunks(events_path, kind, fmt=fmt, diagnostics=diagnostics, now=now):
        names, runs = chunk.names, chunk.day_runs()
        # Not kept alive while the next block is read and checked.
        del chunk
        alerts += _alerts(p, names, kind, *scorer.feed(names, *runs))
    alerts += sorted(_alerts(p, names, kind, *scorer.close()), key=lambda row: row[0])
    return alerts


def _stdin_days() -> Iterator[tuple[str, str, str, date, int]]:
    """The article,kind,day,count rows on stdin, checked as each arrives, each after
    where it is (stdin:<line>)."""
    if isinstance(sys.stdin, io.TextIOWrapper):
        # Read bytes that are not UTF-8 as lone surrogates, so a bad row names its line.
        sys.stdin.reconfigure(encoding="utf-8", errors="surrogateescape")
    first = True  # the first row that is not a comment may be the header
    for line_no, cells, bad in ingest.numbered_rows(sys.stdin):
        cells = [cell.strip() for cell in cells]
        if cells and cells[0].startswith("#"):
            continue
        header, first = first and cells[:2] == ["article", "kind"], False
        if header:
            continue
        where = f"stdin:{line_no}"
        if bad:
            raise IngestError(f"{where}: {bad[1]}")
        if len(cells) != 4:
            raise IngestError(f"{where}: expected article,kind,day,count")
        yield where, *_day_row(where, cells, STDIN_TABLE)


def _stdin_alerts(params: PeakParams) -> Iterator[list[object]]:
    """The alert rows of the day counts on stdin, each scored by stream_step as its row
    arrives, one StreamState per (article, kind)."""
    states: dict[tuple[str, str], timeseries.StreamState] = {}
    for where, article, kind, day, count in _stdin_days():
        state = states.get((article, kind))
        if state is None:
            state = states[article, kind] = timeseries.StreamState(params.window_halfwidth)
        try:
            ratio, is_peak, _ = timeseries.stream_step(state, day, count, params)
        except OutOfOrderError as exc:
            raise OutOfOrderError(f"{where}: {article},{kind}: {exc}") from exc
        if is_peak:
            yield [article, kind, day, count, ratio, timeseries.alert_tier(ratio, params)]


def _cmd_watch(args: argparse.Namespace) -> int:
    if args.stdin and (args.sort or args.kind):
        raise ValueError("--sort/--kind apply to --events only")
    params = _params_from_args(args)
    now = _now(args)  # checked with --stdin too, where no timestamp is read
    if args.stdin:
        alerts: Iterable[list[object]] = _stdin_alerts(params)
    else:
        diag = Diagnostics()
        alerts = simulate_watch(
            args.events, params, kind=args.kind or COMMENT, fmt=args.format, sort=args.sort,
            diagnostics=diag, now=now,
        )
        _log_load(diag)
    _emit(Table("alerts", WATCH_HEADER, alerts), args.out)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="talkdyn",
        description="Activity peaks and discussion-growth metrics for wiki articles.",
    )
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)
    # Flags shared by several subcommands, declared once.
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("jsonl", "csv"), default="jsonl",
                     help="input event file format")
    peak = argparse.ArgumentParser(add_help=False)
    peak.add_argument("-c", dest="c", type=float,
                      default=timeseries.DEFAULT_PEAK_FACTOR,
                      help="peak threshold as a multiple of the local median")
    peak.add_argument("--nmin", type=int,
                      default=timeseries.DEFAULT_MIN_ACTIVITY,
                      help="floor under the median before thresholding")
    peak.add_argument("--window", type=int,
                      default=timeseries.DEFAULT_WINDOW_HALFWIDTH,
                      help="median window halfwidth in days")
    comments = argparse.ArgumentParser(add_help=False)
    comments.add_argument("--comments", required=True)
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--out", help="output CSV path (default stdout)")
    clock = argparse.ArgumentParser(add_help=False)
    clock.add_argument("--now", help="latest time an input may name (YYYY-MM-DD or full "
                                     "timestamp); later ones are dropped as future. "
                                     "Default: the clock, read once")

    p = sub.add_parser("parse-talk", parents=[clock],
                       help="parse talk-page wikitext into comment events")
    p.add_argument("--in", dest="in_path", required=True,
                   help="talk-page file or directory of files (article id = file stem)")
    p.add_argument("--out", help="output JSONL path (default stdout)")
    p.add_argument("--patterns",
                   help="JSON registry of signature date patterns, used instead of the defaults")
    p.set_defaults(handler=_cmd_parse_talk)

    p = sub.add_parser("peaks", parents=[fmt, peak, clock], help="detect activity peak runs")
    p.add_argument("--edits", help="edit events file")
    p.add_argument("--comments", help="comment events file")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(handler=_cmd_peaks)

    p = sub.add_parser("stats", parents=[table], help="statistics over a peaks table")
    p.add_argument("--peaks", required=True, help="peaks CSV from the peaks subcommand")
    p.add_argument("--report", choices=("overlap", "anniversary", "distributions"))
    p.add_argument("--powerlaw", choices=tuple(POWERLAW_SAMPLES),
                   help="fit a power-law exponent to run lengths, inter-peak "
                        "intervals, or per-article peak counts")
    p.add_argument("--xmin", type=int, default=1, help="smallest sample used in the fit")
    p.add_argument("--tolerance", type=int, nargs="+", default=list(DEFAULT_TOLERANCES),
                   help="day tolerances for overlap")
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser("hindex", parents=[fmt, comments, table, clock],
                       help="discussion h-index per article")
    p.set_defaults(handler=_cmd_hindex)

    p = sub.add_parser("deltah", parents=[fmt, comments, table, clock],
                       help="discussion growth speed per article")
    p.add_argument("--min-comments", type=int, default=discussion.DEFAULT_MIN_COMMENTS,
                   help="only rank discussions with strictly more comments than this")
    p.set_defaults(handler=_cmd_deltah)

    p = sub.add_parser("maturity", parents=[fmt, comments, table, clock],
                       help="has each discussion stopped growing?")
    p.add_argument("--as-of", help="judgement time (YYYY-MM-DD or full timestamp); "
                                   "default: latest comment timestamp")
    p.add_argument("-k", "--threshold-multiple", type=float,
                   default=discussion.DEFAULT_MATURITY_MULTIPLE,
                   help="idle time required, in multiples of the discussion's own pace")
    p.set_defaults(handler=_cmd_maturity)

    p = sub.add_parser("report", parents=[fmt, peak, comments, clock],
                       help="run every analysis into a directory")
    p.add_argument("--edits", required=True)
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
    p.set_defaults(handler=_cmd_report)

    p = sub.add_parser("watch", parents=[fmt, peak, clock], help="streaming peak alerts")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--stdin", action="store_true",
                       help="read article,kind,day,count lines from stdin")
    group.add_argument("--events", help="replay an event file through the detector")
    p.add_argument("--kind", choices=(EDIT, COMMENT),
                   help="event kind when replaying --events (default: comment)")
    p.add_argument("--sort", action="store_true",
                   help="buffer and order --events first instead of requiring "
                        "chronological input")
    p.add_argument("--out", help="alerts CSV path (default stdout)")
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
