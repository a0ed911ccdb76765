"""End-to-end exercises of the command line and the report/watch pipelines.

The golden-fixture tests pin every byte of the report output for a small
two-article corpus; they are the regression net for output formatting,
row ordering, and float rendering, not just for the numbers.
"""

import csv
import io
import json
import logging
import random
import re
import shlex
import subprocess
import sys
import textwrap
import tracemalloc
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import pytest

from conftest import simulate_watch_oracle, talkdyn_cmd, talkdyn_env
from talkdyn import cli, discussion, ingest, talkparser
from talkdyn.cli import OutOfOrderError, simulate_watch
from talkdyn.timeseries import PeakParams

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "report_golden"
TALKPAGES = FIXTURES / "talkpages"

GOLDEN_FLAGS = [
    "-c", "5", "--nmin", "2", "--window", "14",
    "--min-comments", "5", "-k", "3",
    "--tolerance", "0", "1", "2", "--top-n", "5",
]

REPORT_TABLES = [
    "peaks", "daily_totals", "overlap", "anniversaries", "distributions",
    "speed", "dist_delta_h", "articles", "summary", "diagnostics",
]


def run_cli(*argv: str) -> int:
    return cli.main(list(argv))


def report_args(edits: Path, comments: Path, out: Path, *extra: str) -> list[str]:
    return [
        "report", "--edits", str(edits), "--comments", str(comments),
        "--out", str(out), *GOLDEN_FLAGS, *extra,
    ]


def read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


class TestRunReportGolden:
    def test_matches_committed_golden_bytes(self, tmp_path, capsys):
        rc = run_cli(*report_args(GOLDEN / "edits.jsonl", GOLDEN / "comments.jsonl", tmp_path))
        assert rc == 0
        capsys.readouterr()
        expected_files = sorted((GOLDEN / "expected").glob("*.csv"))
        assert [p.stem for p in expected_files] == sorted(REPORT_TABLES)
        for expected in expected_files:
            produced = tmp_path / expected.name
            assert produced.read_bytes() == expected.read_bytes(), expected.name

    def test_two_runs_byte_identical(self, tmp_path, capsys):
        for out in (tmp_path / "a", tmp_path / "b"):
            assert run_cli(*report_args(GOLDEN / "edits.jsonl", GOLDEN / "comments.jsonl", out)) == 0
        capsys.readouterr()
        for name in REPORT_TABLES:
            first = (tmp_path / "a" / f"{name}.csv").read_bytes()
            second = (tmp_path / "b" / f"{name}.csv").read_bytes()
            assert first == second, name

    def test_shuffled_input_lines_identical_reports(self, tmp_path, capsys):
        """Line order in the event files must not leak into any output table."""
        rng = random.Random(0xBEEF)
        for name in ("edits.jsonl", "comments.jsonl"):
            lines = (GOLDEN / name).read_text(encoding="utf-8").splitlines()
            rng.shuffle(lines)
            (tmp_path / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli(*report_args(tmp_path / "edits.jsonl", tmp_path / "comments.jsonl", out)) == 0
        capsys.readouterr()
        for expected in sorted((GOLDEN / "expected").glob("*.csv")):
            assert (out / expected.name).read_bytes() == expected.read_bytes(), expected.name

    def test_prints_written_paths(self, tmp_path, capsys):
        run_cli(*report_args(GOLDEN / "edits.jsonl", GOLDEN / "comments.jsonl", tmp_path))
        printed = capsys.readouterr().out.splitlines()
        assert sorted(Path(p).stem for p in printed) == sorted(REPORT_TABLES)


class TestCommentColumnsOnly:
    """Comment commands build no event object: the event entry points are never called."""

    EXPECTED = {
        "hindex": "article,final_h,max_depth,n_comments\nAlpha,3,3,44\nBeta,1,12,12\n",
        "deltah": "article,delta_h_days,start_day,end_day,duration_days,final_h,n_comments\n"
                  "Alpha,13.4792,2006-01-05,2006-02-01,27,3,44\n",
        "maturity": "article,mature,days_since_last_increase,threshold_multiple,delta_h_days\n"
                    "Alpha,false,39.1667,3,13.4792\n",
    }

    @pytest.fixture(autouse=True)
    def no_event_entry_points(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("event entry point called")

        monkeypatch.setattr(ingest, "load_events", refuse)
        monkeypatch.setattr(ingest, "build_series", refuse)
        monkeypatch.setattr(discussion, "build_tree", refuse)

    def test_report_writes_golden_bytes(self, tmp_path, capsys):
        assert run_cli(*report_args(GOLDEN / "edits.jsonl", GOLDEN / "comments.jsonl", tmp_path)) == 0
        capsys.readouterr()
        for expected in sorted((GOLDEN / "expected").glob("*.csv")):
            assert (tmp_path / expected.name).read_bytes() == expected.read_bytes(), expected.name

    @pytest.mark.parametrize("command", sorted(EXPECTED))
    def test_subcommand_writes_same_bytes(self, tmp_path, capsys, command):
        extra = ["--min-comments", "5"] if command == "deltah" else []
        out = tmp_path / f"{command}.csv"
        assert run_cli(command, "--comments", str(GOLDEN / "comments.jsonl"), *extra,
                       "--out", str(out)) == 0
        assert out.read_bytes() == self.EXPECTED[command].encode()


class TestRunReportEdges:
    def test_empty_inputs_make_empty_tables_with_headers(self, tmp_path, capsys):
        edits = tmp_path / "edits.jsonl"
        comments = tmp_path / "comments.jsonl"
        edits.write_text("", encoding="utf-8")
        comments.write_text("", encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli(*report_args(edits, comments, out)) == 0
        capsys.readouterr()
        for name in ("peaks", "daily_totals", "anniversaries", "distributions",
                      "speed", "dist_delta_h", "articles"):
            rows = read_rows(out / f"{name}.csv")
            assert len(rows) == 1, name
            assert rows[0][0] in ("article", "day", "kind", "table", "group", "bin_lo")
        overlap = read_rows(out / "overlap.csv")
        assert [row[0] for row in overlap[1:]] == ["0", "1", "2"]
        assert all(row[1:] == ["0", "0"] for row in overlap[1:])
        summary = dict((row[0], row[1]) for row in read_rows(out / "summary.csv")[1:])
        assert summary["n_edit_events"] == "0"
        assert summary["comment_edit_ratio"] == ""

    def test_json_mirrors_when_requested(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = run_cli(*report_args(GOLDEN / "edits.jsonl", GOLDEN / "comments.jsonl", out,
                                  "--output-format", "json"))
        assert rc == 0
        capsys.readouterr()
        for name in REPORT_TABLES:
            csv_rows = read_rows(out / f"{name}.csv")
            payload = json.loads((out / f"{name}.json").read_text(encoding="utf-8"))
            assert len(payload) == len(csv_rows) - 1, name
            if payload:
                assert list(payload[0]) == csv_rows[0]

    def test_as_of_controls_maturity(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = run_cli(*report_args(GOLDEN / "edits.jsonl", GOLDEN / "comments.jsonl", out,
                                  "--as-of", "2006-02-03"))
        assert rc == 0
        capsys.readouterr()
        articles = read_rows(out / "articles.csv")
        alpha = dict(zip(articles[0], articles[1]))
        assert alpha["article"] == "Alpha"
        assert alpha["mature"] == "false"

    def test_missing_edits_file_is_input_error(self, tmp_path, capsys):
        rc = run_cli(*report_args(tmp_path / "nope.jsonl", GOLDEN / "comments.jsonl",
                                  tmp_path / "out"))
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestModuleEntry:
    """`python -m talkdyn` is how the CLI runs from a checkout with nothing installed."""

    def test_help_runs_without_warnings(self):
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "talkdyn", "--help"],
            capture_output=True, text=True, env=talkdyn_env(), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: talkdyn")

    def test_cli_module_runs_without_warnings(self):
        """The package no longer imports cli, so runpy has nothing to warn about."""
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "talkdyn.cli", "--help"],
            capture_output=True, text=True, env=talkdyn_env(), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: talkdyn")

    def test_exit_code_is_passed_through(self):
        proc = subprocess.run(
            talkdyn_cmd("maturity", "--comments", str(GOLDEN / "comments.jsonl"),
                        "--as-of", "not-a-date"),
            capture_output=True, text=True, env=talkdyn_env(), timeout=60,
        )
        assert proc.returncode == 2
        assert "config error" in proc.stderr


def readme_cli_examples() -> list[list[str]]:
    """The argv of every talkdyn command in README's CLI section, continuations joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", section, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            command = re.search(r"(?:^|\|)\s*talkdyn\s(.*)", line)
            if command:
                commands.append(shlex.split(command.group(1), comments=True))
    return commands


class TestReadmeExamples:
    def test_every_cli_example_parses(self):
        examples = readme_cli_examples()
        parser = cli.build_parser()
        assert {argv[0] for argv in examples} == {
            "parse-talk", "peaks", "stats", "hindex", "deltah", "maturity", "report", "watch"}
        for argv in examples:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README example rejected: talkdyn {shlex.join(argv)}")


class TestExitCodes:
    def test_bad_peak_factor_is_config_error(self, tmp_path, capsys):
        rc = run_cli("peaks", "--edits", str(GOLDEN / "edits.jsonl"),
                     "--out", str(tmp_path / "p.csv"), "-c", "0.5")
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_as_of_is_config_error(self, tmp_path, capsys):
        rc = run_cli("maturity", "--comments", str(GOLDEN / "comments.jsonl"),
                     "--as-of", "not-a-date")
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_stats_without_mode_is_config_error(self, tmp_path, capsys):
        peaks = tmp_path / "p.csv"
        run_cli("peaks", "--edits", str(GOLDEN / "edits.jsonl"), "--out", str(peaks))
        capsys.readouterr()
        assert run_cli("stats", "--peaks", str(peaks)) == 2

    def test_malformed_peaks_table_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("who,what\n1,2\n", encoding="utf-8")
        rc = run_cli("stats", "--peaks", str(bad), "--report", "overlap")
        assert rc == 1
        assert "expected columns" in capsys.readouterr().err

    @pytest.mark.parametrize("row, error", [
        ("Alpha,bogus,2006-01-10,2,1.5", "kind must be one of edit, comment, got 'bogus'"),
        ("Alpha,edit,2006-01-10,0,1.5", "length must be >= 1, got 0"),
        ("Alpha,comment,2006-01-10,-2,1.5", "length must be >= 1, got -2"),
    ])
    @pytest.mark.parametrize("report", ["distributions", "overlap"])
    def test_impossible_peak_row_is_input_error(self, tmp_path, capsys, row, error, report):
        peaks = tmp_path / "p.csv"
        peaks.write_text("article,kind,start_day,length,max_ratio\n"
                         f"Alpha,edit,2006-01-05,1,6.0\n{row}\n", encoding="utf-8")
        out = tmp_path / "t.csv"
        assert run_cli("stats", "--peaks", str(peaks), "--report", report, "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {peaks}:3: {error}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["maturity", "report"])
    @pytest.mark.parametrize("as_of", ["2007-W01-1", "20070101", "2007-001"])
    def test_as_of_takes_only_a_day_or_a_full_timestamp(self, tmp_path, capsys, command, as_of):
        """ISO week dates, basic and ordinal forms are not YYYY-MM-DD."""
        out = tmp_path / "out"
        if command == "report":
            argv = report_args(GOLDEN / "edits.jsonl", GOLDEN / "comments.jsonl", out)
        else:
            argv = ["maturity", "--comments", str(GOLDEN / "comments.jsonl"),
                    "--out", str(out / "maturity.csv")]
        assert run_cli(*argv, "--as-of", as_of) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "config error" in captured.err
        assert not out.exists()


def comments_with_gamma(tmp_path: Path) -> Path:
    """The golden comments plus Gamma, a copy of Alpha: two paced discussions."""
    lines = (GOLDEN / "comments.jsonl").read_text(encoding="utf-8").splitlines()
    comments = tmp_path / "c.jsonl"
    comments.write_text("\n".join(lines + [line.replace('"Alpha"', '"Gamma"') for line in lines
                                            if '"Alpha"' in line]) + "\n", encoding="utf-8")
    return comments


class TestDegenerateMaturityWarning:
    @pytest.mark.parametrize("command", ["report", "maturity"])
    def test_warned_once_per_run(self, tmp_path, capsys, caplog, command):
        comments = comments_with_gamma(tmp_path)
        if command == "report":
            argv = report_args(GOLDEN / "edits.jsonl", comments, tmp_path / "out", "-k", "0")
        else:
            argv = ["maturity", "--comments", str(comments), "-k", "0",
                    "--out", str(tmp_path / "out" / "maturity.csv")]
        assert run_cli(*argv) == 0
        header, *rows = read_rows(tmp_path / "out" / ("maturity.csv" if command == "maturity"
                                                      else "articles.csv"))
        mature = header.index("mature")
        assert [row[0] for row in rows if row[mature] == "true"] == ["Alpha", "Gamma"]
        warnings = [r.getMessage() for r in caplog.records if "degenerate" in r.getMessage()]
        assert warnings == ["maturity threshold multiple 0 is degenerate: everything is mature"]


class TestOnePacePerDiscussion:
    """Each h-trace gets one delta_h; maturity and the speed ranking read it."""

    @pytest.mark.parametrize("command", ["report", "deltah", "maturity"])
    def test_delta_h_at_most_once_per_trace(self, tmp_path, capsys, command):
        comments = comments_with_gamma(tmp_path)
        argv = {
            "report": report_args(GOLDEN / "edits.jsonl", comments, tmp_path / "out"),
            "deltah": ["deltah", "--comments", str(comments), "--min-comments", "0"],
            "maturity": ["maturity", "--comments", str(comments)],
        }[command]
        with mock.patch.object(discussion, "h_trace", wraps=discussion.h_trace) as traced, \
                mock.patch.object(discussion, "delta_h", wraps=discussion.delta_h) as paced:
            assert run_cli(*argv) == 0
        capsys.readouterr()
        assert traced.call_count >= 3  # Alpha, Beta and Gamma
        assert paced.call_count <= traced.call_count
        traces = [call.args[0] for call in paced.call_args_list]
        assert len({id(trace) for trace in traces}) == len(traces)


class TestPeaksAndStatsRoundTrip:
    def test_peaks_table_feeds_stats(self, tmp_path, capsys):
        peaks = tmp_path / "peaks.csv"
        rc = run_cli("peaks", "--edits", str(GOLDEN / "edits.jsonl"),
                     "--comments", str(GOLDEN / "comments.jsonl"),
                     "--out", str(peaks), "-c", "5", "--nmin", "2")
        assert rc == 0
        rows = read_rows(peaks)
        assert rows[0] == ["article", "kind", "start_day", "length", "max_ratio"]
        assert len(rows) == 4
        assert run_cli("stats", "--peaks", str(peaks), "--report", "overlap",
                       "--tolerance", "0", "2") == 0
        out_rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
        assert out_rows[0][0] == "tolerance_days"
        assert out_rows[1] == ["0", "1", "1"]

    def test_runs_read_back_have_no_max_ratio(self, tmp_path):
        peaks = tmp_path / "peaks.csv"
        assert run_cli("peaks", "--edits", str(GOLDEN / "edits.jsonl"),
                       "--out", str(peaks), "-c", "5", "--nmin", "2") == 0
        rows = read_rows(peaks)[1:]
        table = cli._peaks_table(cli._load_peak_runs(peaks))
        assert rows and [row[:4] for row in table.rows] == [
            [a, k, date.fromisoformat(d), int(n)] for a, k, d, n, _ in rows]
        assert [row[4] for row in table.rows] == [None] * len(rows)

    def test_anniversary_report(self, tmp_path, capsys):
        peaks = tmp_path / "peaks.csv"
        run_cli("peaks", "--edits", str(GOLDEN / "edits.jsonl"),
                "--out", str(peaks), "-c", "5", "--nmin", "2")
        capsys.readouterr()
        assert run_cli("stats", "--peaks", str(peaks), "--report", "anniversary") == 0
        lines = capsys.readouterr().out.splitlines()
        assert "edit,Alpha,1" in lines

    def test_powerlaw_reports_no_fit_on_tiny_input(self, tmp_path, capsys):
        peaks = tmp_path / "peaks.csv"
        run_cli("peaks", "--edits", str(GOLDEN / "edits.jsonl"),
                "--out", str(peaks), "-c", "5", "--nmin", "2")
        capsys.readouterr()
        assert run_cli("stats", "--peaks", str(peaks), "--powerlaw", "length") == 0
        err = capsys.readouterr().err
        assert "no fit" in err


class TestSubcommandShapes:
    def test_parse_talk_matches_fixture(self, tmp_path, capsys):
        source = TALKPAGES / "simple_chain.txt"
        out = tmp_path / "events.jsonl"
        assert run_cli("parse-talk", "--in", str(source), "--out", str(out)) == 0
        capsys.readouterr()
        assert out.read_bytes() == (TALKPAGES / "simple_chain.expected.jsonl").read_bytes()

    def test_parse_talk_stdout_and_diagnostics(self, capsys):
        assert run_cli("parse-talk", "--in", str(TALKPAGES / "unsigned_only.txt")) == 0
        captured = capsys.readouterr()
        for line in captured.err.splitlines():
            assert line.startswith("# ")

    def test_hindex_rows(self, capsys):
        assert run_cli("hindex", "--comments", str(GOLDEN / "comments.jsonl")) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
        assert rows[0] == ["article", "final_h", "max_depth", "n_comments"]
        assert rows[1] == ["Alpha", "3", "3", "44"]
        assert rows[2] == ["Beta", "1", "12", "12"]

    def test_deltah_default_floor_filters_small_discussions(self, capsys):
        assert run_cli("deltah", "--comments", str(GOLDEN / "comments.jsonl")) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1

    def test_deltah_with_lowered_floor(self, capsys):
        assert run_cli("deltah", "--comments", str(GOLDEN / "comments.jsonl"),
                       "--min-comments", "5") == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
        assert rows[0][:2] == ["article", "delta_h_days"]
        assert len(rows) == 2
        assert rows[1][0] == "Alpha"
        assert rows[1][1] == "13.4792"

    def test_maturity_judged_at_latest_comment(self, capsys):
        """Idle span 39.2d misses the 3 * 13.48d bar when edits are not loaded."""
        assert run_cli("maturity", "--comments", str(GOLDEN / "comments.jsonl")) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
        assert rows[0][0] == "article"
        assert len(rows) == 2
        assert rows[1][:2] == ["Alpha", "false"]

    def test_maturity_with_explicit_as_of(self, capsys):
        assert run_cli("maturity", "--comments", str(GOLDEN / "comments.jsonl"),
                       "--as-of", "2007-01-01") == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
        assert rows[1][:2] == ["Alpha", "true"]


def write_daily_events(path: Path, spec: list[tuple[str, str, int]]) -> None:
    """spec rows are (article, day, count); events spread through the day."""
    lines = []
    for article, day, count in spec:
        for i in range(count):
            lines.append(json.dumps(
                {"article": article, "ts": f"{day}T{8 + i % 12:02d}:{(7 * i) % 60:02d}:00Z"},
                separators=(",", ":"),
            ))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def days_of(year_month: str, counts: list[int], start: int = 1) -> list[tuple[str, str, int]]:
    return [("W", f"{year_month}-{start + i:02d}", c) for i, c in enumerate(counts)]


class TestSimulateWatch:
    def test_single_spike_single_alert(self, tmp_path):
        events = tmp_path / "events.jsonl"
        write_daily_events(events, days_of("2020-01", [2] * 14 + [90]))
        alerts = simulate_watch(events, kind="edit")
        assert len(alerts) == 1
        article, kind, day, count, ratio, tier = alerts[0]
        assert (article, kind, str(day), count) == ("W", "edit", "2020-01-15", 90)
        assert ratio == pytest.approx(9.0)
        assert tier == 1

    def test_flat_stream_no_alerts(self, tmp_path):
        events = tmp_path / "events.jsonl"
        write_daily_events(events, days_of("2020-01", [2] * 28))
        assert simulate_watch(events, kind="edit") == []

    def test_two_spikes_five_days_apart(self, tmp_path):
        events = tmp_path / "events.jsonl"
        counts = [2] * 14 + [90] + [2] * 4 + [120]
        write_daily_events(events, days_of("2020-01", counts))
        alerts = simulate_watch(events, kind="edit")
        assert [str(a[2]) for a in alerts] == ["2020-01-15", "2020-01-20"]
        assert [a[5] for a in alerts] == [1, 2]

    def test_out_of_order_raises_without_sort(self, tmp_path):
        events = tmp_path / "events.jsonl"
        rows = days_of("2020-01", [2] * 14 + [90])
        rows[2], rows[6] = rows[6], rows[2]
        write_daily_events(events, rows)
        with pytest.raises(OutOfOrderError, match="--sort"):
            simulate_watch(events, kind="edit")

    def test_sort_recovers_shuffled_input(self, tmp_path):
        ordered = tmp_path / "ordered.jsonl"
        write_daily_events(ordered, days_of("2020-01", [2] * 14 + [90] + [2] * 4 + [120]))
        lines = ordered.read_text(encoding="utf-8").splitlines()
        random.Random(7).shuffle(lines)
        shuffled = tmp_path / "shuffled.jsonl"
        shuffled.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert simulate_watch(shuffled, kind="edit", sort=True) == simulate_watch(
            ordered, kind="edit"
        )

    def test_interleaved_articles_tracked_separately(self, tmp_path):
        events = tmp_path / "events.jsonl"
        spec = []
        for i in range(15):
            day = f"2020-01-{1 + i:02d}"
            spec.append(("A", day, 2 if i < 14 else 90))
            spec.append(("B", day, 3))
        write_daily_events(events, spec)
        alerts = simulate_watch(events, kind="edit")
        assert [a[0] for a in alerts] == ["A"]

    def test_undated_comments_skipped(self, tmp_path):
        events = tmp_path / "events.jsonl"
        records = [
            {"article": "A", "id": "c0", "parent": None, "depth": 0,
             "ts": "2020-01-01T10:00:00Z", "author": "X", "ord": 0},
            {"article": "A", "id": "c1", "parent": "c0", "depth": 1,
             "ts": None, "author": None, "ord": 1},
        ]
        events.write_text(
            "\n".join(json.dumps(r, separators=(",", ":")) for r in records) + "\n",
            encoding="utf-8",
        )
        assert simulate_watch(events, kind="comment") == []

    def test_custom_params_change_threshold(self, tmp_path):
        events = tmp_path / "events.jsonl"
        write_daily_events(events, days_of("2020-01", [2] * 14 + [9]))
        loose = PeakParams(c=2, n_min=1, window_halfwidth=14)
        assert simulate_watch(events, kind="edit") == []
        assert len(simulate_watch(events, loose, kind="edit")) == 1


class TestReportClock:
    @staticmethod
    def frozen(monkeypatch, now: datetime) -> list:
        """Patch cli's clock to now; any other module reading the clock fails."""
        reads = []

        class FrozenClock(datetime):
            @classmethod
            def now(cls, tz=None):
                reads.append(tz)
                return now

        class NoClock(datetime):
            @classmethod
            def now(cls, tz=None):
                raise AssertionError("a callee read the clock itself")

        monkeypatch.setattr(cli, "datetime", FrozenClock)
        monkeypatch.setattr(ingest, "datetime", NoClock)
        monkeypatch.setattr(talkparser, "datetime", NoClock)
        return reads

    def test_one_clock_reading_bounds_both_loads(self, tmp_path, monkeypatch):
        reads = self.frozen(monkeypatch, datetime(2006, 1, 20, 12, tzinfo=timezone.utc))
        cli.run_report(cli.RunConfig(GOLDEN / "edits.jsonl", GOLDEN / "comments.jsonl", tmp_path))
        assert reads == [timezone.utc]

        def future(name: str) -> int:
            lines = (GOLDEN / name).read_text(encoding="utf-8").splitlines()
            stamps = [json.loads(line)["ts"] for line in lines]
            return sum(ts is not None and ts > "2006-01-20T12:00:00Z" for ts in stamps)

        tallies = {(source, key): int(n)
                   for source, key, n in read_rows(tmp_path / "diagnostics.csv")[1:]}
        assert future("edits.jsonl") > 0 and future("comments.jsonl") > 0
        assert tallies[("edits", "edit_ts_malformed")] == future("edits.jsonl")
        assert tallies[("comments", "comment_ts_malformed")] == future("comments.jsonl")

    def test_parse_talk_reads_the_clock_once_for_all_pages(self, tmp_path, monkeypatch):
        names = ["simple_chain", "depth_jump", "multiple_signatures"]
        pages = tmp_path / "pages"
        pages.mkdir()
        for name in names:
            (pages / f"{name}.txt").write_bytes((TALKPAGES / f"{name}.txt").read_bytes())
        reads = self.frozen(monkeypatch, datetime(2030, 1, 1, tzinfo=timezone.utc))
        out = tmp_path / "events.jsonl"
        assert run_cli("parse-talk", "--in", str(pages), "--out", str(out)) == 0
        assert reads == [timezone.utc]
        assert out.read_bytes() == b"".join(
            (TALKPAGES / f"{name}.expected.jsonl").read_bytes() for name in sorted(names))

    def test_peaks_reads_the_clock_once_for_both_files(self, tmp_path, monkeypatch):
        reads = self.frozen(monkeypatch, datetime(2030, 1, 1, tzinfo=timezone.utc))
        assert run_cli("peaks", "--edits", str(GOLDEN / "edits.jsonl"),
                       "--comments", str(GOLDEN / "comments.jsonl"),
                       "--out", str(tmp_path / "peaks.csv"), "-c", "5", "--nmin", "2") == 0
        assert reads == [timezone.utc]


def comment_stream(rng: random.Random, articles: int, days: int) -> list[str]:
    """Chronological comment lines per article, interleaved, with bursts and dirt."""
    lines = []
    start = date(2015, 3, 1)
    for offset in range(days):
        day = start + timedelta(days=offset)
        for a in range(articles):
            n = rng.choice([0, 1, 2, 3]) if rng.random() > 0.05 else rng.randrange(20, 60)
            for i in range(n):
                ts = f"{day}T{i % 24:02d}:{rng.randrange(60):02d}:00Z"
                if rng.random() < 0.03:
                    ts = rng.choice([None, f"{day}T25:00:00Z", "garbage"])
                lines.append(json.dumps({
                    "article": f"A{a}", "id": f"c{len(lines)}", "parent": None, "depth": 0,
                    "ts": ts, "author": "u", "ord": len(lines),
                }))
            if rng.random() < 0.02:
                lines.append(rng.choice(["{", "[]", "", '{"article": ""}']))
    return lines


class TestWatchChunkParity:
    PARAMS = PeakParams(c=3.0, n_min=4, window_halfwidth=7)

    @pytest.mark.parametrize("chunk", [1, 4, 37, 1 << 14])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_alerts_equal_event_at_a_time_replay(self, tmp_path, monkeypatch, chunk, seed):
        monkeypatch.setattr(ingest, "_CHUNK_LINES", chunk)
        lines = comment_stream(random.Random(seed), articles=3, days=60)
        ordered = tmp_path / "ordered.jsonl"
        ordered.write_text("\n".join(lines) + "\n", encoding="utf-8")
        random.Random(seed).shuffle(lines)
        shuffled = tmp_path / "shuffled.jsonl"
        shuffled.write_text("\n".join(lines) + "\n", encoding="utf-8")
        want = simulate_watch_oracle(ordered, self.PARAMS)
        assert want, "the stream should alert"
        assert simulate_watch(ordered, self.PARAMS) == want
        assert simulate_watch(ordered, self.PARAMS, sort=True) == simulate_watch_oracle(
            ordered, self.PARAMS, sort=True)
        assert simulate_watch(shuffled, self.PARAMS, sort=True) == simulate_watch_oracle(
            shuffled, self.PARAMS, sort=True)

    def test_day_run_across_chunk_boundary(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ingest, "_CHUNK_LINES", 4)
        events = tmp_path / "events.jsonl"
        # 90 events on 2020-01-15 span 23 chunks; they must count as one day.
        write_daily_events(events, days_of("2020-01", [2] * 14 + [90, 3]))
        alerts = simulate_watch(events, kind="edit")
        assert [(str(a[2]), a[3]) for a in alerts] == [("2020-01-15", 90)]
        assert alerts == simulate_watch_oracle(events, PeakParams(), kind="edit")

    @pytest.mark.parametrize("chunk", [1, 3, 1 << 14])
    def test_out_of_order_message_unchanged(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(ingest, "_CHUNK_LINES", chunk)
        events = tmp_path / "events.jsonl"
        rows = days_of("2020-01", [2] * 14 + [90])
        rows[2], rows[6] = rows[6], rows[2]
        write_daily_events(events, rows)
        with pytest.raises(OutOfOrderError) as want:
            simulate_watch_oracle(events, PeakParams(), kind="edit")
        with pytest.raises(OutOfOrderError) as got:
            simulate_watch(events, kind="edit")
        assert str(got.value) == str(want.value)

    def test_loader_memory_does_not_grow_with_file_length(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ingest, "_CHUNK_LINES", 256)
        lines = comment_stream(random.Random(5), articles=4, days=150)
        short, long = tmp_path / "short.jsonl", tmp_path / "long.jsonl"
        short.write_text("\n".join(lines) + "\n", encoding="utf-8")
        long.write_text("\n".join(lines * 10) + "\n", encoding="utf-8")

        def peak(path: Path) -> int:
            tracemalloc.start()
            try:
                for chunk in ingest.read_chunks(path, "comment", diagnostics=ingest.Diagnostics()):
                    chunk.day_runs()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert len(lines) > 4 * 256
        short_peak, long_peak = peak(short), peak(long)
        assert long_peak < short_peak * 1.1 + 16_384, (short_peak, long_peak)


class TestWatchCommand:
    def test_events_replay_writes_csv(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        write_daily_events(events, days_of("2020-01", [2] * 14 + [90]))
        out = tmp_path / "alerts.csv"
        rc = run_cli("watch", "--events", str(events), "--kind", "edit", "--out", str(out))
        assert rc == 0
        rows = read_rows(out)
        assert rows[0] == list(cli.WATCH_HEADER)
        assert rows[1] == ["W", "edit", "2020-01-15", "90", "9", "1"]

    def test_out_of_order_events_exit_1(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        rows = days_of("2020-01", [2] * 14 + [90])
        rows[2], rows[6] = rows[6], rows[2]
        write_daily_events(events, rows)
        rc = run_cli("watch", "--events", str(events), "--kind", "edit")
        assert rc == 1
        assert "--sort" in capsys.readouterr().err

    def test_sort_flag_matches_ordered_replay(self, tmp_path, capsys):
        ordered = tmp_path / "ordered.jsonl"
        write_daily_events(ordered, days_of("2020-01", [2] * 14 + [90]))
        lines = ordered.read_text(encoding="utf-8").splitlines()
        random.Random(3).shuffle(lines)
        shuffled = tmp_path / "shuffled.jsonl"
        shuffled.write_text("\n".join(lines) + "\n", encoding="utf-8")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("watch", "--events", str(ordered), "--kind", "edit",
                       "--out", str(a)) == 0
        assert run_cli("watch", "--events", str(shuffled), "--kind", "edit",
                       "--sort", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def feed_stdin(self, monkeypatch, text: str) -> None:
        monkeypatch.setattr("sys.stdin", io.StringIO(text))

    def test_stdin_day_counts(self, tmp_path, capsys, monkeypatch):
        lines = ["article,kind,day,count"]
        for i in range(14):
            lines.append(f"X,comment,2021-03-{1 + i:02d},2")
        lines.append("X,comment,2021-03-15,101")
        self.feed_stdin(monkeypatch, "\n".join(lines) + "\n")
        assert run_cli("watch", "--stdin") == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == ",".join(cli.WATCH_HEADER)
        assert out[1] == "X,comment,2021-03-15,101,10.1,2"

    def test_stdin_comments_and_blank_lines_skipped(self, capsys, monkeypatch):
        self.feed_stdin(monkeypatch, "# warmup\n\nX,edit,2021-03-01,2\n")
        assert run_cli("watch", "--stdin") == 0
        assert len(capsys.readouterr().out.splitlines()) == 1

    def test_stdin_malformed_row_exit_1(self, capsys, monkeypatch):
        self.feed_stdin(monkeypatch, "X,edit,2021-03-01\n")
        assert run_cli("watch", "--stdin") == 1
        assert "expected article,kind,day,count" in capsys.readouterr().err

    def test_stdin_unknown_kind_exit_1(self, capsys, monkeypatch):
        self.feed_stdin(monkeypatch, "A,bogus,2020-01-16,90\n")
        assert run_cli("watch", "--stdin") == 1
        captured = capsys.readouterr()
        assert "stdin:1: kind must be one of edit, comment" in captured.err
        assert captured.out.splitlines() == [",".join(cli.WATCH_HEADER)]

    def test_stdin_negative_count_exit_1(self, capsys, monkeypatch):
        self.feed_stdin(monkeypatch, "A,edit,2020-01-15,2\nA,edit,2020-01-16,-90\n")
        assert run_cli("watch", "--stdin") == 1
        assert "stdin:2: count must be >= 0" in capsys.readouterr().err

    def test_tier_boundaries_from_stdin(self, capsys, monkeypatch):
        """Ratios land in tiers at >c, >=2c, >=4c with the default c=5."""
        lines = []
        for i in range(14):
            lines.append(f"T,edit,2021-05-{1 + i:02d},2")
        lines.append("T,edit,2021-05-15,201")
        self.feed_stdin(monkeypatch, "\n".join(lines) + "\n")
        assert run_cli("watch", "--stdin") == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1].endswith(",201,20.1,3")


def with_bad_second_line(source: Path, dest: Path) -> Path:
    lines = source.read_text(encoding="utf-8").splitlines(keepends=True)
    dest.write_text("".join([lines[0], "not json\n", *lines[1:]]), encoding="utf-8")
    return dest


class TestDroppedLinesReported:
    """Every subcommand that loads an event file warns of the lines it dropped."""

    @pytest.mark.parametrize("argv", [
        ["hindex", "--comments"],
        ["deltah", "--min-comments", "5", "--comments"],
        ["maturity", "--comments"],
        ["watch", "--sort", "--events"],
    ], ids=lambda argv: argv[0])
    def test_bad_line_warns_and_keeps_output(self, tmp_path, capsys, caplog, argv):
        clean = GOLDEN / "comments.jsonl"
        dirty = with_bad_second_line(clean, tmp_path / "comments.jsonl")
        assert run_cli(*argv, str(clean)) == 0
        want = capsys.readouterr().out
        caplog.clear()
        assert run_cli(*argv, str(dirty)) == 0
        assert capsys.readouterr().out == want
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert [m for m in warnings if m.startswith(f"{dirty}:2: bad_json")], warnings


class TestInputChecks:
    def test_peaks_without_inputs_is_config_error(self, tmp_path, capsys):
        assert run_cli("peaks", "--out", str(tmp_path / "p.csv")) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()

    def test_stats_mode_checked_before_reading(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        assert run_cli("stats", "--peaks", missing) == 2
        assert "config error" in capsys.readouterr().err

    def test_stats_with_both_modes_is_config_error(self, tmp_path, capsys):
        peaks = tmp_path / "p.csv"
        run_cli("peaks", "--edits", str(GOLDEN / "edits.jsonl"), "--out", str(peaks))
        capsys.readouterr()
        assert run_cli("stats", "--peaks", str(peaks), "--report", "overlap",
                       "--powerlaw", "length") == 2
        captured = capsys.readouterr()
        assert "config error" in captured.err
        assert captured.out == ""

    def test_negative_tolerance_is_config_error_everywhere(self, tmp_path, capsys):
        assert run_cli("stats", "--peaks", str(tmp_path / "missing.csv"),
                       "--report", "overlap", "--tolerance", "0", "-1") == 2
        with pytest.raises(ValueError, match=">= 0"):
            cli.RunConfig(GOLDEN / "edits.jsonl", GOLDEN / "comments.jsonl", tmp_path,
                          tolerances=(0, -1))

    def test_powerlaw_xmin_checked_before_reading(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        assert run_cli("stats", "--peaks", missing, "--powerlaw", "length", "--xmin", "0") == 2
        captured = capsys.readouterr()
        assert "config error: x_min must be >= 1, got 0" in captured.err
        assert captured.out == ""

    def test_bins_per_decade_checked_before_any_load(self, tmp_path, capsys):
        out = tmp_path / "report"
        assert run_cli(*report_args(tmp_path / "no_edits.jsonl", tmp_path / "no_comments.jsonl",
                                    out, "--bins-per-decade", "0")) == 2
        assert "config error: bins_per_decade must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_min_comments_one_rule_for_deltah_and_report(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.jsonl")
        assert run_cli("deltah", "--comments", missing, "--min-comments", "-3") == 2
        err = capsys.readouterr().err
        with pytest.raises(ValueError) as raised:
            cli.RunConfig(GOLDEN / "edits.jsonl", GOLDEN / "comments.jsonl", tmp_path,
                          min_comments=-3)
        assert err == f"config error: {raised.value}\n"
        assert str(raised.value) == "min_comments must be >= 0, got -3"

    @pytest.mark.parametrize("argv", [
        ["peaks", "--edits", str(GOLDEN / "edits.jsonl"), "-c", "nan"],
        ["peaks", "--edits", str(GOLDEN / "edits.jsonl"), "-c", "inf"],
        ["maturity", "--comments", str(GOLDEN / "comments.jsonl"), "-k", "nan"],
        ["report", "--edits", str(GOLDEN / "edits.jsonl"),
         "--comments", str(GOLDEN / "comments.jsonl"), "-k", "inf"],
    ], ids=["peaks-c-nan", "peaks-c-inf", "maturity-k-nan", "report-k-inf"])
    def test_non_finite_factor_is_config_error(self, tmp_path, capsys, argv):
        out = tmp_path / ("report" if argv[0] == "report" else "out.csv")
        assert run_cli(*argv, "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    def test_wide_tolerance_same_in_report_and_stats(self, tmp_path, capsys):
        cli.RunConfig(GOLDEN / "edits.jsonl", GOLDEN / "comments.jsonl", tmp_path,
                      tolerances=(7,))
        out = tmp_path / "report"
        assert run_cli(*report_args(GOLDEN / "edits.jsonl", GOLDEN / "comments.jsonl", out,
                                    "--tolerance", "7")) == 0
        stats_out = tmp_path / "overlap.csv"
        assert run_cli("stats", "--peaks", str(out / "peaks.csv"), "--report", "overlap",
                       "--tolerance", "7", "--out", str(stats_out)) == 0
        capsys.readouterr()
        assert read_rows(out / "overlap.csv")[1][0] == "7"
        assert stats_out.read_bytes() == (out / "overlap.csv").read_bytes()


class TestVerboseLogging:
    def test_report_logs_each_table_and_each_load(self, tmp_path, capsys, caplog):
        caplog.set_level(logging.INFO, logger="talkdyn.cli")
        assert run_cli(*report_args(GOLDEN / "edits.jsonl", GOLDEN / "comments.jsonl",
                                    tmp_path)) == 0
        capsys.readouterr()
        infos = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
        tables = {}
        for message in infos:
            if message.startswith("table "):
                name, rows, path = message.removeprefix("table ").split(" ", 2)
                tables[name.rstrip(":")] = (int(rows), path.removeprefix("rows -> "))
        assert sorted(tables) == sorted(REPORT_TABLES)
        for name, (rows, path) in tables.items():
            assert Path(path) == tmp_path / f"{name}.csv"
            assert rows == len(read_rows(Path(path))) - 1, name
        loads = [m for m in infos if "lines_read" in m]
        assert [m.split(":")[0] for m in loads] == [
            str(GOLDEN / "edits.jsonl"), str(GOLDEN / "comments.jsonl")]
        for message in loads:
            numbers = [int(word) for word in message.split() if word.isdigit()]
            assert numbers[0] == numbers[1] + numbers[2], message

    def test_verbose_flag_logs_to_stderr(self):
        proc = subprocess.run(
            talkdyn_cmd("--verbose", "hindex", "--comments", str(GOLDEN / "comments.jsonl")),
            capture_output=True, text=True, env=talkdyn_env(), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "INFO talkdyn.cli:" in proc.stderr
        assert "lines_read 56 = events_used 56 + lines_dropped 0" in proc.stderr


def write_daily_comments(path: Path, spec: list[tuple[str, str, int]]) -> None:
    """Like write_daily_events, as top-level comments with ids and document order."""
    lines = []
    for article, day, count in spec:
        for i in range(count):
            n = len(lines)
            lines.append(json.dumps(
                {"article": article, "id": f"c{n}", "parent": None, "depth": 0,
                 "ts": f"{day}T{8 + i % 12:02d}:{(7 * i) % 60:02d}:00Z", "author": "u",
                 "ord": n},
                separators=(",", ":"),
            ))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def bursty_spec(articles: int, days: int = 240) -> list[tuple[str, str, int]]:
    """Two events a day, and per article 2-4 bursts of 40 a day lasting 1-3 days."""
    start = date(2020, 1, 1)
    spec = []
    for a in range(articles):
        burst_days = set()
        for k in range(2 + a % 3):
            first = 20 + k * (30 + (7 * a) % 20)
            burst_days.update(range(first, first + 1 + (a + k) % 3))
        for offset in range(days):
            spec.append((f"A{a:02d}", (start + timedelta(days=offset)).isoformat(),
                         40 if offset in burst_days else 2))
    return spec


class TestOneTablePath:
    """report and the stats subcommand build each shared table through one builder."""

    @pytest.mark.parametrize("report, table", [
        ("overlap", "overlap"), ("anniversary", "anniversaries"),
        ("distributions", "distributions"),
    ])
    def test_stats_on_report_peaks_writes_report_bytes(self, tmp_path, capsys, report, table):
        out = tmp_path / "report"
        assert run_cli(*report_args(GOLDEN / "edits.jsonl", GOLDEN / "comments.jsonl", out)) == 0
        stats_out = tmp_path / "stats" / f"{table}.csv"
        assert run_cli("stats", "--peaks", str(out / "peaks.csv"), "--report", report,
                       "--out", str(stats_out)) == 0
        capsys.readouterr()
        assert stats_out.read_bytes() == (out / f"{table}.csv").read_bytes()

    def test_powerlaw_lines_match_summary_alphas(self, tmp_path, capsys):
        edits, comments = tmp_path / "edits.jsonl", tmp_path / "comments.jsonl"
        spec = bursty_spec(articles=12)
        write_daily_events(edits, spec)
        write_daily_comments(comments, spec)
        out = tmp_path / "report"
        assert run_cli("report", "--edits", str(edits), "--comments", str(comments),
                       "--out", str(out), "-c", "5", "--nmin", "2", "--window", "14") == 0
        capsys.readouterr()
        summary = dict(read_rows(out / "summary.csv")[1:])
        for choice, table in cli.POWERLAW_SAMPLES.items():
            assert run_cli("stats", "--peaks", str(out / "peaks.csv"),
                           "--powerlaw", choice) == 0
            lines = capsys.readouterr().out.splitlines()
            for kind in ("comment", "edit"):
                alpha, n = summary[f"alpha_{table}_{kind}"], summary[f"alpha_{table}_{kind}_n"]
                assert int(n) >= 10 and alpha != "inf", (table, kind)
                assert f"{kind}: alpha={alpha} x_min=1 n={n}" in lines, (choice, lines)


class TestBenchmarkSurface:
    """perfbench/tracer.py rebinds cli and module attributes; the report must call them."""

    def test_tracer_sees_tables_and_statistics(self, tmp_path):
        perfbench = Path(__file__).resolve().parents[1] / "perfbench"
        script = textwrap.dedent("""
            import json, sys
            from pathlib import Path
            sys.path.insert(0, sys.argv[1])
            import tracer as tracing
            from talkdyn import cli
            tracer = tracing.Tracer()
            tracing.install(tracer)
            edits, comments, out = map(Path, sys.argv[2:])
            cli.run_report(cli.RunConfig(edits, comments, out))
            print(json.dumps({name: span[0] for name, span in tracer.spans.items()}))
        """)
        proc = subprocess.run(
            [sys.executable, "-c", script, str(perfbench), str(GOLDEN / "edits.jsonl"),
             str(GOLDEN / "comments.jsonl"), str(tmp_path)],
            capture_output=True, text=True, env=talkdyn_env(), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        calls = json.loads(proc.stdout)
        assert calls["cli.report"] == 1
        assert calls["cli.write_table"] == len(REPORT_TABLES)
        assert calls["cli.daily_totals"] == 1
        for name in ("peakstats.overlap", "peakstats.anniversaries", "peakstats.fit_power_law",
                     "peakstats.run_lengths", "discussion.delta_h", "discussion.maturity",
                     "discussion.rank_by_speed", "timeseries.detect_peaks"):
            assert calls.get(name, 0) > 0, name
