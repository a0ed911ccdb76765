"""Timing wrappers swapped onto the talkdyn module attributes the CLI calls.

The benchmark measures each layer from outside: it replaces a module
attribute (``ingest.load_events``, ``timeseries.detect_peaks``, ...) with a
wrapper that times the call.  Because ``cli`` and the other modules look these
names up at call time, the wrapped version is what runs.  Nothing under
``src/`` changes.

Spans stay in memory, aggregated per name, as (calls, inclusive seconds,
seconds covered by child spans).  A span's self time is its inclusive time
minus the time its child spans cover, so the self times of every span plus the
root's self time add up to the traced wall time exactly.  A wrapped generator
opens one span per ``next()``, so time the consumer spends between items is
charged to the consumer, not to the generator.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from pathlib import Path

from talkdyn import cli, discussion, ingest, peakstats, talkparser, timeseries

ROOT = "root"
PEAKSTATS_FUNCTIONS = (
    "overlap", "anniversaries", "fit_power_law", "integer_histogram",
    "log_binned_histogram", "peaks_per_article", "run_lengths", "pearson",
    "delta_h_vs_max_run_length",
)


class Tracer:
    """Span and counter store for one traced workload run."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.open: list[float] = []          # child seconds of each open span
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.step_times: list[float] = []
        self.signature_max = 0.0
        self.counts: Counter = Counter()

    def begin(self) -> float:
        self.open.append(0.0)
        return self.clock()

    def end(self, name: str, t0: float) -> float:
        dt = self.clock() - t0
        child = self.open.pop()
        if self.open:
            self.open[-1] += dt
        span = self.spans[name]
        span[0] += 1
        span[1] += dt
        span[2] += child
        return dt

    def wrap(self, name, fn, after=None, timing=None):
        """Time every call of fn as a span.

        timing(seconds) sees each call's duration; after(result, args, kwargs)
        counts the work a call did.
        """

        def traced(*args, **kwargs):
            t0 = self.begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = self.end(name, t0)
            if timing is not None:
                timing(dt)
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def wrap_generator(self, name_of, fn, finish):
        """Time each next() of the generator fn returns; finish(args, kwargs) at exhaustion."""

        def traced(*args, **kwargs):
            name = name_of(args, kwargs)
            iterator = fn(*args, **kwargs)

            def steps():
                while True:
                    t0 = self.begin()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        self.end(name, t0)
                        finish(args, kwargs)
                        return
                    except BaseException:
                        self.end(name, t0)
                        raise
                    self.end(name, t0)
                    yield item

            return steps()

        return traced

    def self_s(self, name: str) -> float:
        calls, total, child = self.spans.get(name, (0, 0.0, 0.0))
        return total - child


def install(tracer: Tracer) -> None:
    """Swap timing wrappers onto the module attributes the pipeline looks up."""
    counts = tracer.counts

    def load_events_name(args, kwargs):
        kind = args[1] if len(args) > 1 else kwargs["kind"]
        return f"ingest.{'edits' if kind == ingest.EDIT else 'comments'}"

    def finish_load(args, kwargs):
        # Every caller in the pipeline passes its own Diagnostics by keyword.
        tallies = kwargs["diagnostics"].tallies
        for key in ("lines_read", "events_used", "lines_dropped"):
            counts[f"ingest.{key}"] += tallies.get(key, 0)

    ingest.load_events = tracer.wrap_generator(load_events_name, ingest.load_events, finish_load)
    ingest.build_series = tracer.wrap(
        "ingest.build_series", ingest.build_series,
        after=lambda result, a, k: counts.update({"ingest.series": len(result)}),
    )
    timeseries.detect_peaks = tracer.wrap(
        "timeseries.detect_peaks", timeseries.detect_peaks,
        after=lambda result, a, k: counts.update({"timeseries.peak_runs": len(result)}),
    )
    timeseries.stream_step = tracer.wrap(
        "timeseries.stream_step", timeseries.stream_step, timing=tracer.step_times.append,
        after=lambda result, a, k: counts.update({"timeseries.alerts": int(result[1])}),
    )
    discussion.build_tree = tracer.wrap("discussion.build_tree", discussion.build_tree)
    discussion.h_trace = tracer.wrap(
        "discussion.h_trace", discussion.h_trace,
        after=lambda result, a, k: counts.update({"discussion.h_steps": len(result.steps)}),
    )
    for name in ("delta_h", "maturity", "rank_by_speed"):
        setattr(discussion, name, tracer.wrap(f"discussion.{name}", getattr(discussion, name)))

    def count_peakstats(name):
        if name == "run_lengths":
            return lambda result, a, k: counts.update({"peakstats.runs_in": len(a[0])})
        if name == "fit_power_law":
            return lambda result, a, k: counts.update(
                {"peakstats.fits_nondegenerate": int(not result.degenerate)})
        return None

    for name in PEAKSTATS_FUNCTIONS:
        setattr(peakstats, name, tracer.wrap(
            f"peakstats.{name}", getattr(peakstats, name), after=count_peakstats(name)))

    def signature_max(dt):
        tracer.signature_max = max(tracer.signature_max, dt)

    talkparser.extract_signature = tracer.wrap(
        "talkparser.extract_signature", talkparser.extract_signature, timing=signature_max)

    def count_parse(result, args, kwargs):
        counts["talkparser.events"] += len(result)

    talkparser.parse_file = tracer.wrap("talkparser.parse_file", talkparser.parse_file,
                                        after=count_parse)

    def count_table(result, args, kwargs):
        counts["cli.bytes_written"] += sum(Path(p).stat().st_size for p in result)

    write_table = cli._write_table

    def write_table_counted(out_dir, name, header, rows, *rest, **kwargs):
        rows = list(rows)
        counts["cli.rows_written"] += len(rows)
        return write_table(out_dir, name, header, rows, *rest, **kwargs)

    cli._write_table = tracer.wrap("cli.write_table", write_table_counted, after=count_table)
    cli._daily_total_rows = tracer.wrap("cli.daily_totals", cli._daily_total_rows)
    cli.run_report = tracer.wrap("cli.report", cli.run_report)
    cli.simulate_watch = tracer.wrap("cli.watch", cli.simulate_watch)


def layer_metrics(tracer: Tracer, page_blocks: int) -> dict[str, float]:
    """Per-layer figures of one traced run; 0 where a layer did not run."""
    spans = tracer.spans
    counts = tracer.counts
    busy = tracer.self_s
    steps = sorted(tracer.step_times)
    lines_read = counts["ingest.lines_read"]
    return {
        "ingest.edits.busy_s": busy("ingest.edits"),
        "ingest.comments.busy_s": busy("ingest.comments"),
        "ingest.build_series.busy_s": busy("ingest.build_series"),
        "ingest.series": counts["ingest.series"],
        "ingest.lines_read": lines_read,
        "ingest.events_used": counts["ingest.events_used"],
        "ingest.lines_dropped": counts["ingest.lines_dropped"],
        "ingest.used_ratio": counts["ingest.events_used"] / lines_read if lines_read else 0.0,
        "timeseries.detect_peaks.busy_s": busy("timeseries.detect_peaks"),
        "timeseries.detect_peaks.calls": spans["timeseries.detect_peaks"][0],
        "timeseries.peak_runs": counts["timeseries.peak_runs"],
        "timeseries.stream_step.busy_s": busy("timeseries.stream_step"),
        "timeseries.stream_step.calls": spans["timeseries.stream_step"][0],
        "timeseries.stream_step.p99_us": percentile(steps, 0.99) * 1e6,
        "timeseries.alerts": counts["timeseries.alerts"],
        "discussion.build_tree.busy_s": busy("discussion.build_tree"),
        "discussion.h_trace.busy_s": busy("discussion.h_trace"),
        "discussion.pace.busy_s": sum(
            busy(f"discussion.{name}") for name in ("delta_h", "maturity", "rank_by_speed")),
        "discussion.trees": spans["discussion.build_tree"][0],
        "discussion.h_steps": counts["discussion.h_steps"],
        "peakstats.busy_s": sum(busy(f"peakstats.{name}") for name in PEAKSTATS_FUNCTIONS),
        "peakstats.runs_in": counts["peakstats.runs_in"],
        "peakstats.fits_nondegenerate": counts["peakstats.fits_nondegenerate"],
        "talkparser.parse_file.busy_s": busy("talkparser.parse_file"),
        "talkparser.extract_signature.busy_s": busy("talkparser.extract_signature"),
        "talkparser.extract_signature.calls": spans["talkparser.extract_signature"][0],
        "talkparser.extract_signature.max_ms": tracer.signature_max * 1e3,
        "talkparser.blocks": page_blocks,
        "talkparser.signed_ratio": counts["talkparser.events"] / page_blocks if page_blocks else 0.0,
        "cli.write_table.busy_s": busy("cli.write_table"),
        "cli.rows_written": counts["cli.rows_written"],
        "cli.bytes_written": counts["cli.bytes_written"],
        "cli.daily_totals.busy_s": busy("cli.daily_totals"),
        "cli.report.self_s": busy("cli.report"),
        "cli.watch.self_s": busy("cli.watch"),
        "trace.uncovered_s": busy(ROOT),
    }


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list; 0.0 when empty."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, max(0, int(round(q * len(ordered))) - 1))]
