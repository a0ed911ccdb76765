"""End-to-end exercises of the command line and the report/watch pipelines.

The golden-fixture tests pin every byte of the report output for a small
two-article corpus; they are the regression net for output formatting,
row ordering, and float rendering, not just for the numbers.
"""

import contextlib
import csv
import io
import json
import logging
import os
import random
import re
import shlex
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import simulate_watch_oracle, talkdyn_cmd, talkdyn_env
from talkdyn import cli, discussion, ingest, talkparser, timeseries
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

    def test_csv_input_writes_golden_bytes(self, tmp_path, capsys):
        """The golden corpus as CSV (same columns, null as an empty cell) reports the same bytes."""
        for name in ("edits", "comments"):
            records = [json.loads(line) for line in
                       (GOLDEN / f"{name}.jsonl").read_text(encoding="utf-8").splitlines() if line]
            with open(tmp_path / f"{name}.csv", "w", encoding="utf-8", newline="") as handle:
                writer = csv.writer(handle, lineterminator="\n")
                writer.writerow(records[0])
                writer.writerows([["" if v is None else v for v in r.values()] for r in records])
        out = tmp_path / "out"
        assert run_cli(*report_args(tmp_path / "edits.csv", tmp_path / "comments.csv", out,
                                    "--format", "csv")) == 0
        capsys.readouterr()
        for expected in sorted((GOLDEN / "expected").glob("*.csv")):
            assert (out / expected.name).read_bytes() == expected.read_bytes(), expected.name


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
        assert summary["as_of"] == ""

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


BLOCK_SCIPY = textwrap.dedent("""
    import runpy, sys

    class BlockScipy:
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ImportError(f"{name} is blocked")

    sys.meta_path.insert(0, BlockScipy())
    sys.argv = ["talkdyn", *sys.argv[1:]]
    runpy.run_module("talkdyn", run_name="__main__")
""")


class TestNumpyOnlyRuntime:
    """The CLI imports and runs with numpy alone; scipy is a test dependency."""

    def test_import_leaves_scipy_out(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, talkdyn.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True, env=talkdyn_env(), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def run_without_scipy(self, *argv: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-c", BLOCK_SCIPY, *argv],
            capture_output=True, text=True, env=talkdyn_env(), timeout=120,
        )

    def test_report_writes_golden_bytes(self, tmp_path):
        proc = self.run_without_scipy(
            *report_args(GOLDEN / "edits.jsonl", GOLDEN / "comments.jsonl", tmp_path))
        assert proc.returncode == 0, proc.stderr
        for expected in sorted((GOLDEN / "expected").glob("*.csv")):
            assert (tmp_path / expected.name).read_bytes() == expected.read_bytes(), expected.name

    def test_watch_runs(self, tmp_path):
        proc = self.run_without_scipy(
            "watch", "--events", str(GOLDEN / "comments.jsonl"), "--kind", "comment",
            "--out", str(tmp_path / "alerts.csv"))
        assert proc.returncode == 0, proc.stderr
        assert read_rows(tmp_path / "alerts.csv")[0] == list(cli.WATCH_HEADER)

    def test_commands_leave_numpy_ma_out(self, tmp_path):
        """A plain np.unique imports numpy.ma on its first call, inside the timed run."""
        proc = subprocess.run(
            [sys.executable, "-c", NO_MASKED_ARRAYS, str(GOLDEN / "edits.jsonl"),
             str(GOLDEN / "comments.jsonl"), str(tmp_path)],
            capture_output=True, text=True, env=talkdyn_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        # numpy.ma is not imported after the replay, nor after the report.
        assert proc.stdout.split() == ["False", "False"]


NO_MASKED_ARRAYS = """
import sys
from pathlib import Path
from talkdyn import cli
edits, comments, out = map(Path, sys.argv[1:])
cli.simulate_watch(comments)
print("numpy.ma" in sys.modules)
assert len(cli.run_report(cli.RunConfig(edits, comments, out))) == 10
print("numpy.ma" in sys.modules)
"""


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

    def test_undecodable_peak_row_is_input_error(self, tmp_path, capsys):
        peaks = tmp_path / "p.csv"
        peaks.write_bytes(b"article,kind,start_day,length,max_ratio\n"
                          b"Alpha,edit,2006-01-05,1,6.0\nAlph\xff,edit,2006-01-10,2,1.5\n")
        assert run_cli("stats", "--peaks", str(peaks), "--report", "overlap") == 1
        assert capsys.readouterr().err == (
            f"error: {peaks}:3: 'utf-8' codec can't decode byte 0xff in position 4: invalid start byte\n")

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

    @pytest.mark.parametrize("flag", [["--sort"], ["--kind", "comment"]], ids=["sort", "kind"])
    def test_events_only_watch_flag_with_stdin_is_config_error(self, capsys, monkeypatch, flag):
        monkeypatch.setattr("sys.stdin", io.StringIO("A,comment,2020-01-15,90\n"))
        assert run_cli("watch", "--stdin", *flag) == 2
        captured = capsys.readouterr()
        assert captured.err == "config error: --sort/--kind apply to --events only\n"
        assert captured.out == ""


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

    @pytest.mark.parametrize("before", ["\n", "\r\n \r\n"])
    def test_blank_lines_before_the_header_are_skipped(self, tmp_path, capsys, before):
        peaks = tmp_path / "peaks.csv"
        assert run_cli("peaks", "--edits", str(GOLDEN / "edits.jsonl"),
                       "--comments", str(GOLDEN / "comments.jsonl"),
                       "--out", str(peaks), "-c", "5", "--nmin", "2") == 0
        assert run_cli("stats", "--peaks", str(peaks), "--report", "overlap") == 0
        want = capsys.readouterr().out
        padded = tmp_path / "padded.csv"
        padded.write_bytes(before.encode() + peaks.read_bytes())
        assert run_cli("stats", "--peaks", str(padded), "--report", "overlap") == 0
        assert capsys.readouterr().out == want

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

    @pytest.fixture
    def logged_pages(self, tmp_path, monkeypatch):
        """Three signed pages A, B, C, and the page parses and line writes in call order."""
        pages = tmp_path / "pages"
        pages.mkdir()
        for name in "ABC":
            (pages / f"{name}.txt").write_text(
                f"x. [[User:{name}]] 10:00, 5 May 2006 (UTC)\n"
                ":y. [[User:Z]] 11:00, 5 May 2006 (UTC)\n", encoding="utf-8")
        calls: list[tuple[str, str]] = []
        parse, line = talkparser.parse_file, ingest.event_json_line

        def logged_parse(path, *args, **kwargs):
            calls.append(("parse", Path(path).stem))
            return parse(path, *args, **kwargs)

        def logged_line(event):
            calls.append(("line", event.article_id))
            return line(event)

        monkeypatch.setattr(talkparser, "parse_file", logged_parse)
        monkeypatch.setattr(ingest, "event_json_line", logged_line)
        return pages, calls

    @pytest.mark.parametrize("to_file", [True, False])
    def test_parse_talk_writes_each_page_before_parsing_the_next(
            self, tmp_path, capsys, logged_pages, to_file):
        pages, calls = logged_pages
        out = ["--out", str(tmp_path / "events.jsonl")] if to_file else []
        assert run_cli("parse-talk", "--in", str(pages), *out) == 0
        assert calls == [(step, name) for name in "ABC"
                         for step in ("parse", "line", "line")]

    def test_parse_talk_unreadable_page_keeps_the_pages_before(
            self, tmp_path, capsys, monkeypatch, logged_pages):
        pages, _ = logged_pages
        parse = talkparser.parse_file

        def unreadable_b(path, *args, **kwargs):
            if Path(path).stem == "B":
                raise PermissionError(13, "Permission denied")
            return parse(path, *args, **kwargs)

        monkeypatch.setattr(talkparser, "parse_file", unreadable_b)
        out = tmp_path / "events.jsonl"
        assert run_cli("parse-talk", "--in", str(pages), "--out", str(out)) == 1
        assert f"cannot read {pages / 'B.txt'}" in capsys.readouterr().err
        rows = out.read_text(encoding="utf-8").splitlines()
        assert [json.loads(row)["article"] for row in rows] == ["A", "A"]

    def test_month_group_of_a_superscript_digit_is_no_date(self, tmp_path, capsys):
        # "²" passes str.isdigit() but int() rejects it.
        registry = tmp_path / "patterns.json"
        registry.write_text(json.dumps(
            [{"name": "slashed", "regex": r"(?P<day>\d+)/(?P<month>\S+)/(?P<year>\d{4})"}]))
        page = tmp_path / "P.txt"
        page.write_text("hello [[User:A]] 5/\u00b2/2006\n", encoding="utf-8")
        assert run_cli("parse-talk", "--in", str(page), "--patterns", str(registry)) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [(row["author"], row["ts"]) for row in rows] == [("A", None)]

    @pytest.mark.parametrize("pages", ["fixtures", "fallbacks"])
    def test_parse_talk_with_readme_registry_writes_the_default_bytes(
            self, tmp_path, capsys, pages):
        # One scan of both default patterns against README's registry of them.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        registry = tmp_path / "patterns.json"
        registry.write_text(readme.split("```json\n", 1)[1].split("```", 1)[0], encoding="utf-8")
        source = tmp_path / "pages"
        source.mkdir()
        if pages == "fixtures":
            for page in sorted(TALKPAGES.glob("*.txt")):
                (source / page.name).write_bytes(page.read_bytes())
        else:
            (source / "F.txt").write_text(
                "== Times ==\n"
                "Impossible time. [[User:A]] 25:61, 5 May 2006 (UTC)\n"
                ":Future. [[User:B]] 10:30, 5 May 2999 (UTC)\n"
                "::Both. [[User:C]] 25:61, 6 May 2006 (UTC) or 10:00, 7 May 2999 (UTC)\n"
                "25:61, 8 May 2006 (UTC)\n", encoding="utf-8")
        default, registered = tmp_path / "default.jsonl", tmp_path / "registered.jsonl"
        assert run_cli("parse-talk", "--in", str(source), "--out", str(default)) == 0
        assert run_cli("parse-talk", "--in", str(source), "--out", str(registered),
                       "--patterns", str(registry)) == 0
        assert default.read_bytes() == registered.read_bytes()
        if pages == "fixtures":
            assert default.read_bytes() == b"".join(
                page.with_suffix(".expected.jsonl").read_bytes()
                for page in sorted(TALKPAGES.glob("*.txt")))
        else:
            rows = [json.loads(line) for line in default.read_text(encoding="utf-8").splitlines()]
            assert [(row["author"], row["ts"]) for row in rows] == [
                ("A", "2006-05-05T00:00:00Z"), ("B", None), ("C", "2006-05-06T00:00:00Z"),
                (None, "2006-05-08T00:00:00Z")]

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


# Every command that judges timestamps against the clock, and so takes --now.
CLOCKED_COMMANDS = ["parse-talk", "peaks", "report", "hindex", "deltah", "maturity", "watch"]


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

    @pytest.mark.parametrize("command", ["hindex", "deltah", "maturity", "watch"])
    def test_loading_command_reads_the_clock_once(self, tmp_path, monkeypatch, capsys, command):
        reads = self.frozen(monkeypatch, datetime(2030, 1, 1, tzinfo=timezone.utc))
        argv, _ = self.clocked_argv(command, tmp_path)
        assert run_cli(*argv) == 0
        capsys.readouterr()
        assert reads == [timezone.utc]

    NOW = "2006-01-20T12:00:00Z"

    @staticmethod
    def clocked_argv(command: str, tmp_path: Path) -> tuple[list[str], Path]:
        """Arguments that run command over the fixtures, and the file or directory it writes."""
        tmp_path.mkdir(parents=True, exist_ok=True)
        comments = ["--comments", str(GOLDEN / "comments.jsonl")]
        if command == "parse-talk":
            pages = tmp_path / "pages"
            pages.mkdir(exist_ok=True)
            for name in ("simple_chain", "depth_jump", "multiple_signatures"):
                (pages / f"{name}.txt").write_bytes((TALKPAGES / f"{name}.txt").read_bytes())
            out = tmp_path / "events.jsonl"
            return ["parse-talk", "--in", str(pages), "--out", str(out)], out
        if command == "report":
            out = tmp_path / "report"
            return report_args(GOLDEN / "edits.jsonl", GOLDEN / "comments.jsonl", out), out
        out = tmp_path / f"{command}.csv"
        extra = {
            "peaks": ["--edits", str(GOLDEN / "edits.jsonl"), *comments, "-c", "2", "--nmin", "1"],
            "hindex": comments, "deltah": [*comments, "--min-comments", "0"], "maturity": comments,
            "watch": ["--events", str(GOLDEN / "comments.jsonl"), "-c", "1.5", "--nmin", "1"],
        }[command]
        return [command, *extra, "--out", str(out)], out

    @staticmethod
    def written(out: Path) -> dict[str, bytes]:
        paths = sorted(out.iterdir()) if out.is_dir() else [out]
        return {path.name: path.read_bytes() for path in paths}

    @pytest.mark.parametrize("command", CLOCKED_COMMANDS)
    def test_now_reads_no_clock_and_fixes_the_output(self, tmp_path, monkeypatch, capsys, command):
        """Under two clocks, --now writes the same bytes and drops the same later events."""
        reads, outputs = [], []
        for clock in (datetime(2006, 2, 1, tzinfo=timezone.utc), datetime(2030, 1, 1, tzinfo=timezone.utc)):
            class FrozenClock(datetime):
                @classmethod
                def now(cls, tz=None):
                    reads.append(tz)
                    return clock

            for module in (cli, ingest, talkparser):
                monkeypatch.setattr(module, "datetime", FrozenClock)
            argv, out = self.clocked_argv(command, tmp_path / str(clock.year))
            assert run_cli(*argv, "--now", self.NOW) == 0
            outputs.append(self.written(out))
        argv, out = self.clocked_argv(command, tmp_path / "later")
        assert run_cli(*argv, "--now", "2030-01-01") == 0
        later = self.written(out)
        capsys.readouterr()
        assert reads == []
        assert outputs[0] == outputs[1]
        # A later --now keeps the events NOW drops as future.  Those still count
        # in the h-index, which reads only the reply structure.
        assert (later == outputs[0]) == (command == "hindex")
        if command == "parse-talk":  # every signature on these pages is after NOW
            assert all(json.loads(line)["ts"] is None
                       for line in outputs[0]["events.jsonl"].decode().splitlines())

    def test_now_drops_later_events_as_future(self, tmp_path, capsys):
        argv, out = self.clocked_argv("report", tmp_path)
        assert run_cli(*argv, "--now", self.NOW) == 0
        capsys.readouterr()
        tallies = {(source, key): int(n) for source, key, n in read_rows(out / "diagnostics.csv")[1:]}
        for source, name in (("edits", "edit"), ("comments", "comment")):
            lines = (GOLDEN / f"{source}.jsonl").read_text(encoding="utf-8").splitlines()
            future = sum((json.loads(line)["ts"] or "") > self.NOW for line in lines)
            assert future > 0
            assert tallies[(source, f"{name}_ts_malformed")] == future

    @pytest.mark.parametrize("command", CLOCKED_COMMANDS)
    @pytest.mark.parametrize("now", ["not-a-date", "2000-12-31", "2006-02-30", "20060101"])
    def test_bad_now_is_config_error(self, tmp_path, capsys, command, now):
        argv, out = self.clocked_argv(command, tmp_path)
        assert run_cli(*argv, "--now", now) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"config error: cannot parse --now {now!r}" in captured.err
        assert not out.exists()


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
        monkeypatch.setattr(ingest, "_CHUNK_BYTES", chunk)
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

    @pytest.mark.parametrize("chunk", [1, 37, 1 << 14])
    def test_alerts_equal_replay_when_most_days_are_candidates(self, tmp_path, monkeypatch, chunk):
        # With c near 1 and n_min 1 nearly every day is above c * n_min, so
        # the scorer reads a window median for most of them.
        monkeypatch.setattr(ingest, "_CHUNK_BYTES", chunk)
        params = PeakParams(c=1.01, n_min=1, window_halfwidth=5)
        lines = comment_stream(random.Random(3), articles=3, days=60)
        ordered = tmp_path / "ordered.jsonl"
        ordered.write_text("\n".join(lines) + "\n", encoding="utf-8")
        want = simulate_watch_oracle(ordered, params)
        assert len(want) > 60, "most days should be candidates and many should alert"
        assert simulate_watch(ordered, params) == want
        assert simulate_watch(ordered, params, sort=True) == simulate_watch_oracle(
            ordered, params, sort=True)

    @pytest.mark.parametrize("chunk", [2, 5, 1 << 14])
    def test_first_backward_run_in_file_order_is_named(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(ingest, "_CHUNK_BYTES", chunk)
        events = tmp_path / "events.jsonl"
        # B steps back before A does, though A's article sorts first.
        write_daily_events(events, [("A", "2020-01-02", 1), ("B", "2020-01-03", 1),
                                    ("B", "2020-01-01", 1), ("A", "2020-01-01", 1)])
        with pytest.raises(OutOfOrderError) as want:
            simulate_watch_oracle(events, PeakParams(), kind="edit")
        with pytest.raises(OutOfOrderError) as got:
            simulate_watch(events, kind="edit")
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("B: event on 2020-01-01 arrived after 2020-01-03")

    def test_day_run_across_chunk_boundary(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ingest, "_CHUNK_BYTES", 64)
        events = tmp_path / "events.jsonl"
        # 90 events on 2020-01-15 span over 60 blocks; they must count as one day.
        write_daily_events(events, days_of("2020-01", [2] * 14 + [90, 3]))
        alerts = simulate_watch(events, kind="edit")
        assert [(str(a[2]), a[3]) for a in alerts] == [("2020-01-15", 90)]
        assert alerts == simulate_watch_oracle(events, PeakParams(), kind="edit")

    @pytest.mark.parametrize("chunk", [1, 3, 1 << 14])
    def test_out_of_order_message_unchanged(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(ingest, "_CHUNK_BYTES", chunk)
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
        monkeypatch.setattr(ingest, "_CHUNK_BYTES", 1 << 15)
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

        assert short.stat().st_size > 4 * (1 << 15)
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

    @pytest.mark.parametrize("again", ["2020-01-15", "2020-01-03"])
    def test_stdin_day_not_after_the_last_exit_1_after_earlier_alerts(self, capsys, monkeypatch, again):
        lines = [f"A,edit,2020-01-{1 + i:02d},2" for i in range(14)]
        # Another stream of the same article is not in the way.
        lines += ["A,edit,2020-01-15,90", "A,comment,2020-01-02,1", f"A,edit,{again},3"]
        self.feed_stdin(monkeypatch, "\n".join(lines) + "\n")
        assert run_cli("watch", "--stdin") == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [",".join(cli.WATCH_HEADER), "A,edit,2020-01-15,90,9,1"]
        assert captured.err == f"error: stdin:17: A,edit: day {again} after 2020-01-15 already consumed\n"

    def test_stdin_out_of_order_row_names_its_line(self, capsys, monkeypatch):
        feed = "article,kind,day,count\nA,edit,2006-01-03,5\nB,edit,2006-01-01,1\nA,edit,2006-01-02,7\n"
        message = "stdin:4: A,edit: day 2006-01-02 after 2006-01-03 already consumed"
        self.feed_stdin(monkeypatch, feed)
        with pytest.raises(OutOfOrderError, match=f"^{message}$"):
            list(cli._stdin_alerts(PeakParams()))
        self.feed_stdin(monkeypatch, feed)
        assert run_cli("watch", "--stdin") == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_stdin_comments_and_blank_lines_skipped(self, capsys, monkeypatch):
        self.feed_stdin(monkeypatch, "# warmup\n\nX,edit,2021-03-01,2\n")
        assert run_cli("watch", "--stdin") == 0
        assert len(capsys.readouterr().out.splitlines()) == 1

    @pytest.mark.parametrize("before,header", [("\n", "article,kind,day,count"),
                                               ("\r\n \r\n", "article,kind,day,count"),
                                               ("# feed\n\n", "article,kind,day,count"),
                                               ("", "article, kind, day, count")])
    def test_stdin_header_after_blank_and_comment_lines(self, capsys, monkeypatch, before, header):
        # Cells are stripped, the header's as a day row's.
        self.feed_stdin(monkeypatch, f"{before}{header}\nA,edit,2020-01-15,90\n")
        assert run_cli("watch", "--stdin") == 0
        assert capsys.readouterr().out.splitlines() == [",".join(cli.WATCH_HEADER),
                                                        "A,edit,2020-01-15,90,9,1"]

    def test_stdin_header_after_a_day_row_is_a_day_row(self, capsys, monkeypatch):
        self.feed_stdin(monkeypatch, "A,edit,2020-01-15,2\narticle,kind,day,count\n")
        assert run_cli("watch", "--stdin") == 1
        assert "stdin:2: malformed day-count row: expected a YYYY-MM-DD day, got 'day'" \
            in capsys.readouterr().err

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

    def test_stdin_pipe_writes_the_sorted_replay_bytes(self, tmp_path):
        """A corpus's day counts piped in a row at a time alert as its events replayed with --sort."""
        script = Path(__file__).resolve().parents[1] / "scripts" / "make_synthetic_corpus.py"
        subprocess.run([sys.executable, str(script), "--out", str(tmp_path), "--articles", "40",
                        "--edits", "1", "--comments", "5000", "--seed", "7"],
                       check=True, capture_output=True, timeout=120)
        events = tmp_path / "comments.jsonl"
        columns = ingest.load_columns(events, "comment", now=datetime(2030, 1, 1, tzinfo=timezone.utc))
        codes, days, counts = (a.tolist() for a in columns.day_counts())
        feed = "".join(f"{columns.names[code]},comment,{date.fromordinal(day)},{count}\n"
                       for code, day, count in zip(codes, days, counts))
        flags = ["-c", "1.5", "--nmin", "1", "--window", "7", "--now", "2030-01-01"]

        def watch(*argv: str, stdin: bytes | None = None) -> subprocess.CompletedProcess:
            return subprocess.run(talkdyn_cmd("watch", *argv, *flags), input=stdin,
                                  capture_output=True, env=talkdyn_env(), timeout=120)

        piped = watch("--stdin", stdin=feed.encode())
        replayed = watch("--events", str(events), "--sort")
        assert piped.returncode == replayed.returncode == 0, piped.stderr + replayed.stderr
        assert piped.stdout.count(b"\n") > 100
        assert piped.stdout == replayed.stdout

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

    def test_powerlaw_with_out_is_config_error(self, tmp_path, capsys):
        missing, out = str(tmp_path / "missing.csv"), tmp_path / "fits.csv"
        assert run_cli("stats", "--peaks", missing, "--powerlaw", "length", "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert "config error: stats --powerlaw prints its fits and writes no --out" in captured.err
        assert captured.out == ""
        assert not out.exists()

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

    def test_bins_per_decade_bounded_above(self, tmp_path, capsys):
        out = tmp_path / "report"
        assert run_cli(*report_args(tmp_path / "no_edits.jsonl", tmp_path / "no_comments.jsonl",
                                    out, "--bins-per-decade", str(10**8))) == 2
        assert capsys.readouterr().err == \
            "config error: bins_per_decade must be <= 1000, got 100000000\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["peaks", "report", "watch"])
    def test_window_past_the_date_range_checked_before_any_load(self, tmp_path, capsys, command):
        missing = str(tmp_path / "missing.jsonl")
        inputs = {"peaks": ["--comments", missing], "watch": ["--events", missing],
                  "report": ["--edits", missing, "--comments", missing]}[command]
        out = tmp_path / "out"
        assert run_cli(command, *inputs, "--out", str(out), "--window", str(2**62)) == 2
        assert capsys.readouterr().err == ("config error: window_halfwidth must be in "
                                           f"[1, 3652058], got {2**62}\n")
        assert not out.exists()

    def test_widest_window_sees_every_day(self, tmp_path, capsys):
        # A window as wide as the date range is one median over each article's days.
        widest, wide = tmp_path / "widest.csv", tmp_path / "wide.csv"
        for window, out in ((timeseries.MAX_WINDOW_HALFWIDTH, widest), (10**5, wide)):
            assert run_cli("peaks", "--comments", str(GOLDEN / "comments.jsonl"), "-c", "1.5",
                           "--nmin", "1", "--window", str(window), "--out", str(out)) == 0
        capsys.readouterr()
        assert widest.read_bytes() == wide.read_bytes()
        assert len(read_rows(widest)) > 1

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

    @pytest.mark.parametrize("now, source", [(None, "clock"), ("2006-01-20", "--now")])
    def test_now_and_its_source_logged_once(self, capsys, caplog, monkeypatch, now, source):
        caplog.set_level(logging.INFO, logger="talkdyn.cli")
        TestReportClock.frozen(monkeypatch, datetime(2030, 1, 1, 12, tzinfo=timezone.utc))
        flags = ["--now", now] if now else []
        assert run_cli("hindex", "--comments", str(GOLDEN / "comments.jsonl"), *flags) == 0
        capsys.readouterr()
        logged = [r.getMessage() for r in caplog.records if r.getMessage().startswith("now ")]
        want = "2006-01-20T00:00:00Z" if now else "2030-01-01T12:00:00Z"
        assert logged == [f"now {want} ({source})"]


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


class TestArticlesRunColumns:
    """articles.csv and summary.csv count the same runs that peaks.csv lists."""

    def test_run_columns_match_peaks_rows(self, tmp_path, capsys):
        edits, comments = tmp_path / "edits.jsonl", tmp_path / "comments.jsonl"
        spec = bursty_spec(articles=12)
        write_daily_events(edits, spec)
        # Comments follow another article's bursts, and A09-A11 have none.
        write_daily_comments(comments, [(f"A{11 - int(article[1:]):02d}", day, count)
                                        for article, day, count in spec if article >= "A03"])
        out = tmp_path / "report"
        assert run_cli("report", "--edits", str(edits), "--comments", str(comments),
                       "--out", str(out), "-c", "5", "--nmin", "2", "--window", "14") == 0
        capsys.readouterr()
        runs: dict[tuple[str, str], list[int]] = {}
        for article, kind, _, length, _ in read_rows(out / "peaks.csv")[1:]:
            runs.setdefault((article, kind), []).append(int(length))
        header, *rows = read_rows(out / "articles.csv")
        assert len(rows) == 12
        counts = []
        for row in rows:
            cells = dict(zip(header, row))
            article = cells["article"]
            edit, comment = runs.get((article, "edit"), []), runs.get((article, "comment"), [])
            counts.append((len(edit), len(comment)))
            assert int(cells["n_edit_runs"]) == len(edit), article
            assert int(cells["n_comment_runs"]) == len(comment), article
            assert cells["max_run_length"] == str(max(edit + comment, default="")), article
        # The corpus tells the two kinds apart, and some article has no comment runs.
        assert any(e != c for e, c in counts) and any(c == 0 for _, c in counts)
        summary = dict(read_rows(out / "summary.csv")[1:])
        for kind in ("edit", "comment"):
            assert int(summary[f"articles_with_{kind}_runs"]) == len(
                {article for article, k in runs if k == kind}), kind


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
                     "discussion.rank_by_speed"):
            assert calls.get(name, 0) > 0, name


class TestOneDetectionPerKind:
    """The commands detect each kind's peaks with one call of the day-run kernel."""

    @staticmethod
    def spy(monkeypatch) -> list[str]:
        kinds: list[str] = []
        kernel = timeseries.detect_day_counts

        def spy(names, kind, day_counts, params=None, **kwargs):
            kinds.append(kind)
            return kernel(names, kind, day_counts, params, **kwargs)

        monkeypatch.setattr(timeseries, "detect_day_counts", spy)
        return kinds

    def test_report(self, monkeypatch, tmp_path):
        kinds = self.spy(monkeypatch)
        cli.run_report(cli.RunConfig(GOLDEN / "edits.jsonl", GOLDEN / "comments.jsonl", tmp_path))
        assert sorted(kinds) == ["comment", "edit"]

    def test_peaks(self, monkeypatch, tmp_path, capsys):
        kinds = self.spy(monkeypatch)
        assert run_cli("peaks", "--edits", str(GOLDEN / "edits.jsonl"),
                       "--comments", str(GOLDEN / "comments.jsonl"),
                       "--out", str(tmp_path / "peaks.csv")) == 0
        assert sorted(kinds) == ["comment", "edit"]


def with_undecodable_line(source: Path, dest: Path, at: int, line: bytes) -> Path:
    """source with line inserted before its line number at (1-based)."""
    lines = source.read_bytes().splitlines(keepends=True)
    dest.write_bytes(b"".join([*lines[:at - 1], line, *lines[at - 1:]]))
    return dest


BAD_EDIT = b'{"article":"A\xff","ts":"2006-01-02T00:00:00Z"}\n'
BAD_COMMENT = (b'{"article":"Alpha","id":"c\xff","parent":null,"depth":0,'
               b'"ts":"2006-01-05T10:00:00Z","author":"U","ord":99}\n')
BAD_EDIT_REASON = "'utf-8' codec can't decode byte 0xff in position 13: invalid start byte"


class TestUndecodableBytes:
    """A byte that is not UTF-8 drops its line, page or row, never the whole run."""

    def test_report_drops_the_line_and_tallies_it(self, tmp_path, capsys, caplog):
        dirty = with_undecodable_line(GOLDEN / "edits.jsonl", tmp_path / "edits.jsonl", 4, BAD_EDIT)
        clean_out, dirty_out = tmp_path / "clean", tmp_path / "dirty"
        assert run_cli(*report_args(GOLDEN / "edits.jsonl", GOLDEN / "comments.jsonl", clean_out)) == 0
        caplog.clear()
        assert run_cli(*report_args(dirty, GOLDEN / "comments.jsonl", dirty_out)) == 0
        capsys.readouterr()
        for name in REPORT_TABLES:
            if name not in ("diagnostics", "summary"):  # both count the lines read
                assert (dirty_out / f"{name}.csv").read_bytes() == (clean_out / f"{name}.csv").read_bytes()
        tallies = {(source, key): int(n)
                   for source, key, n in read_rows(dirty_out / "diagnostics.csv")[1:]}
        assert tallies[("edits", "bad_utf8")] == 1
        assert tallies[("edits", "lines_read")] == 604
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert f"{dirty}:4: bad_utf8: {BAD_EDIT_REASON}" in warnings

    def test_peaks_exits_zero_with_the_same_table(self, tmp_path, capsys):
        dirty = with_undecodable_line(GOLDEN / "edits.jsonl", tmp_path / "edits.jsonl", 4, BAD_EDIT)
        for path, out in ((GOLDEN / "edits.jsonl", "clean.csv"), (dirty, "dirty.csv")):
            assert run_cli("peaks", "--edits", str(path), "--out", str(tmp_path / out),
                           "-c", "5", "--nmin", "2") == 0
        assert (tmp_path / "dirty.csv").read_bytes() == (tmp_path / "clean.csv").read_bytes()

    def test_watch_events_drops_a_bad_comment_id(self, tmp_path, capsys, caplog):
        dirty = with_undecodable_line(GOLDEN / "comments.jsonl", tmp_path / "comments.jsonl", 2,
                                      BAD_COMMENT)
        assert run_cli("watch", "--sort", "--events", str(GOLDEN / "comments.jsonl")) == 0
        want = capsys.readouterr().out
        caplog.clear()
        assert run_cli("watch", "--sort", "--events", str(dirty)) == 0
        assert capsys.readouterr().out == want
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert [m for m in warnings if m.startswith(f"{dirty}:2: bad_utf8: ")], warnings

    def test_parse_talk_skips_only_the_bad_page(self, tmp_path, capsys, caplog):
        names = ["simple_chain", "depth_jump"]
        pages = tmp_path / "pages"
        pages.mkdir()
        for name in names:
            (pages / f"{name}.txt").write_bytes((TALKPAGES / f"{name}.txt").read_bytes())
        (pages / "bad.txt").write_bytes((TALKPAGES / "simple_chain.txt").read_bytes() + b"\xff\n")
        out = tmp_path / "events.jsonl"
        assert run_cli("parse-talk", "--in", str(pages), "--out", str(out)) == 0
        assert "# pages_bad_utf8: 1" in capsys.readouterr().err.splitlines()
        assert out.read_bytes() == b"".join(
            (TALKPAGES / f"{name}.expected.jsonl").read_bytes() for name in sorted(names))
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert [m for m in warnings if m.startswith(f"{pages / 'bad.txt'}: bad_utf8: ")], warnings

    def test_report_drops_a_lone_surrogate_escape(self, tmp_path, capsys, caplog):
        # json.loads turns the escape into a code point that no UTF-8 table can hold.
        line = b'{"article":"B\\ud800","ts":"2006-01-02T00:00:00Z"}\n'
        dirty = with_undecodable_line(GOLDEN / "edits.jsonl", tmp_path / "edits.jsonl", 4, line)
        clean_out, dirty_out = tmp_path / "clean", tmp_path / "dirty"
        assert run_cli(*report_args(GOLDEN / "edits.jsonl", GOLDEN / "comments.jsonl", clean_out)) == 0
        caplog.clear()
        assert run_cli(*report_args(dirty, GOLDEN / "comments.jsonl", dirty_out)) == 0
        capsys.readouterr()
        assert sorted(p.stem for p in dirty_out.glob("*.csv")) == sorted(REPORT_TABLES)
        for name in REPORT_TABLES:
            if name not in ("diagnostics", "summary"):
                assert (dirty_out / f"{name}.csv").read_bytes() == (clean_out / f"{name}.csv").read_bytes()
        tallies = {(source, key): int(n)
                   for source, key, n in read_rows(dirty_out / "diagnostics.csv")[1:]}
        assert tallies[("edits", "bad_utf8")] == 1
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert (f"{dirty}:4: bad_utf8: article: 'utf-8' codec can't encode character '\\ud800'"
                " in position 1: surrogates not allowed") in warnings

    def test_peaks_and_watch_drop_a_bursting_surrogate_article(self, tmp_path, capsys):
        burst = [2] * 14 + [90]
        clean, dirty = tmp_path / "clean.jsonl", tmp_path / "dirty.jsonl"
        write_daily_events(clean, days_of("2020-01", burst))
        write_daily_events(dirty, days_of("2020-01", burst)
                           + [("B\ud800", day, n) for _, day, n in days_of("2020-01", burst)])
        outs = []
        for path in (clean, dirty):
            peaks, alerts = tmp_path / f"{path.stem}_peaks.csv", tmp_path / f"{path.stem}_alerts.csv"
            assert run_cli("peaks", "--edits", str(path), "--out", str(peaks), "-c", "5", "--nmin", "2") == 0
            assert run_cli("watch", "--events", str(path), "--kind", "edit", "--out", str(alerts)) == 0
            assert run_cli("watch", "--events", str(path), "--kind", "edit") == 0
            outs.append((peaks.read_bytes(), alerts.read_bytes(), capsys.readouterr().out))
        assert outs[0] == outs[1]
        assert outs[0][2].splitlines()[1:] == ["W,edit,2020-01-15,90,9,1"]

    def test_parse_talk_skips_a_page_whose_name_is_not_utf8(self, tmp_path, capsys, caplog):
        pages = tmp_path / "pages"
        pages.mkdir()
        (pages / "simple_chain.txt").write_bytes((TALKPAGES / "simple_chain.txt").read_bytes())
        bad = pages / os.fsdecode(b"caf\xe9.txt")
        bad.write_bytes((TALKPAGES / "depth_jump.txt").read_bytes())
        out = tmp_path / "events.jsonl"
        assert run_cli("parse-talk", "--in", str(pages), "--out", str(out)) == 0
        assert "# pages_bad_utf8: 1" in capsys.readouterr().err.splitlines()
        assert out.read_bytes() == (TALKPAGES / "simple_chain.expected.jsonl").read_bytes()
        assert run_cli("parse-talk", "--in", str(pages)) == 0
        assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert [m for m in warnings if m.startswith(f"{bad}: bad_utf8: file name: ")], warnings

    def test_watch_stdin_names_the_row(self, capsys, monkeypatch):
        rows = b"A,edit,2020-01-15,2\n# \xfe comment\nA\xff,edit,2020-01-16,3\n"
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(rows), encoding="ascii"))
        assert run_cli("watch", "--stdin") == 1
        err = capsys.readouterr().err
        assert "stdin:3: 'utf-8' codec can't decode byte 0xff in position 1" in err
        assert "config error" not in err


FIELD_LIMIT = f"field larger than field limit ({csv.field_size_limit()})"
HUGE_FIELD = "x" * (csv.field_size_limit() + 1)


class TestCsvStructureErrors:
    """A CSV field over the csv module's limit names its row instead of ending in a traceback."""

    def test_peaks_drops_the_event_row(self, tmp_path, capsys, caplog):
        lines = (GOLDEN / "edits.jsonl").read_text(encoding="utf-8").splitlines()
        rows = [f"{r['article']},{r['ts']}" for r in map(json.loads, lines)]
        clean, dirty = tmp_path / "clean.csv", tmp_path / "dirty.csv"
        clean.write_text("\n".join(["article,ts", *rows]) + "\n", encoding="utf-8")
        dirty.write_text("\n".join(["article,ts", rows[0], f"{HUGE_FIELD},{rows[0]}", *rows[1:]]) + "\n",
                         encoding="utf-8")
        for path, out in ((clean, "clean_peaks.csv"), (dirty, "dirty_peaks.csv")):
            assert run_cli("peaks", "--format", "csv", "--edits", str(path),
                           "--out", str(tmp_path / out), "-c", "5", "--nmin", "2") == 0
        assert len(read_rows(tmp_path / "clean_peaks.csv")) > 1
        assert (tmp_path / "dirty_peaks.csv").read_bytes() == (tmp_path / "clean_peaks.csv").read_bytes()
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == [f"{dirty}:3: bad_csv: {FIELD_LIMIT}"]

    def test_stats_names_the_peaks_row(self, tmp_path, capsys):
        peaks = tmp_path / "p.csv"
        peaks.write_text("article,kind,start_day,length,max_ratio\nAlpha,edit,2006-01-05,1,6.0\n"
                         f"{HUGE_FIELD},edit,2006-01-10,2,1.5\n", encoding="utf-8")
        assert run_cli("stats", "--peaks", str(peaks), "--report", "overlap") == 1
        assert capsys.readouterr().err == f"error: {peaks}:3: {FIELD_LIMIT}\n"

    def test_watch_stdin_names_the_row(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(f"A,edit,2020-01-15,2\n{HUGE_FIELD},edit,2020-01-16,3\n"))
        assert run_cli("watch", "--stdin") == 1
        assert capsys.readouterr().err == f"error: stdin:2: {FIELD_LIMIT}\n"

    def test_peaks_names_the_physical_line(self, tmp_path, capsys, caplog):
        """Blank lines count: the rows after two of them are lines 5 and 6, not records 3 and 4."""
        edits = tmp_path / "e.csv"
        edits.write_text(f"article,ts\nA,2006-05-10T13:45:08Z\n\n\n{HUGE_FIELD},2006-05-10T13:45:08Z\n"
                         "A,garbage\n", encoding="utf-8")
        assert run_cli("peaks", "--format", "csv", "--edits", str(edits),
                       "--out", str(tmp_path / "p.csv")) == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == [f"{edits}:5: bad_csv: {FIELD_LIMIT}",
                            f"{edits}:6: edit_ts_malformed: ts='garbage'"]

    def test_stats_names_the_physical_line(self, tmp_path, capsys):
        peaks = tmp_path / "p.csv"
        peaks.write_text("article,kind,start_day,length,max_ratio\nAlpha,edit,2006-01-05,1,6.0\n\n\n"
                         f"{HUGE_FIELD},edit,2006-01-10,2,1.5\n", encoding="utf-8")
        assert run_cli("stats", "--peaks", str(peaks), "--report", "overlap") == 1
        assert capsys.readouterr().err == f"error: {peaks}:5: {FIELD_LIMIT}\n"

    def test_watch_stdin_names_the_physical_line(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin",
                            io.StringIO(f"A,edit,2020-01-15,2\n\n\n\n{HUGE_FIELD},edit,2020-01-16,3\n"))
        assert run_cli("watch", "--stdin") == 1
        assert capsys.readouterr().err == f"error: stdin:5: {FIELD_LIMIT}\n"


class TestCsvNul:
    """A NUL in a CSV field is data on every Python, so the row it is in is read whole."""

    def test_stats_peaks(self, tmp_path, capsys):
        table = ("article,kind,start_day,length,max_ratio\n{a},edit,2006-01-05,1,6.0\n"
                 "{a},comment,2006-01-05,2,6.0\n{b},edit,2007-01-05,1,6.0\n")
        clean, nul = tmp_path / "clean.csv", tmp_path / "nul.csv"
        clean.write_text(table.format(a="Alpha", b="Beta"), encoding="utf-8")
        nul.write_text(table.format(a="Al\0pha", b='"Be\0\nta"'), encoding="utf-8")
        for report in ("overlap", "distributions"):
            outs = []
            for path in (clean, nul):
                assert run_cli("stats", "--peaks", str(path), "--report", report) == 0
                outs.append(capsys.readouterr().out)
            assert outs[0] == outs[1]

    def test_stats_peaks_names_the_row(self, tmp_path, capsys):
        peaks = tmp_path / "p.csv"
        peaks.write_text('article,kind,start_day,length,max_ratio\n"Be\0\nta",edit,2006-01-05,1\0,6.0\n',
                         encoding="utf-8")
        assert run_cli("stats", "--peaks", str(peaks), "--report", "overlap") == 1
        assert capsys.readouterr().err == (f"error: {peaks}:3: malformed peaks row: expected an integer"
                                           " of ASCII digits below 2**63, got '1\\x00'\n")

    def test_watch_stdin(self, capsys, monkeypatch):
        days = "".join(f"X,comment,2021-03-{1 + i:02d},2\n" for i in range(14)) + "X,comment,2021-03-15,101\n"
        outs = []
        for quiet in ("Beta", '"Be\0\nta"'):
            monkeypatch.setattr("sys.stdin", io.StringIO(f"{quiet},comment,2021-03-01,2\n{days}"))
            assert run_cli("watch", "--stdin") == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert outs[0].splitlines()[1:] == ["X,comment,2021-03-15,101,10.1,2"]

    def test_article_name_through_the_tables_and_back(self, tmp_path, capsys):
        edits = tmp_path / "edits.jsonl"
        write_daily_events(edits, [("Al\0pha", f"2006-01-{day:02d}", 20 if day == 20 else 1)
                                   for day in range(1, 21)])
        out = tmp_path / "report"
        assert run_cli(*report_args(edits, GOLDEN / "comments.jsonl", out)) == 0
        assert ["Al\0pha", "edit", "2006-01-20", "1", "10"] in read_rows(out / "peaks.csv")
        assert "Al\0pha" in [row[0] for row in read_rows(out / "articles.csv")]
        capsys.readouterr()
        assert run_cli("stats", "--peaks", str(out / "peaks.csv"), "--report", "anniversary") == 0
        assert "edit,Al\0pha,0" in capsys.readouterr().out.splitlines()

    def test_watch_stdin_names_the_row(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO('"Be\0\nta",comment,2021-03-01,2\nX,comment,2021-03-01,2\0\n'))
        assert run_cli("watch", "--stdin") == 1
        assert capsys.readouterr().err == ("error: stdin:3: malformed day-count row: expected an integer"
                                           " of ASCII digits below 2**63, got '2\\x00'\n")


# Spellings Python 3.11's date.fromisoformat and int() accept, and the input contract does not.
LOOSE_DAYS = ["20200116", "2020-W03-4"]
LOOSE_COUNTS = ["1_0", "+1", "١٠"]


class TestOneDayAndCountRule:
    """A day is ASCII YYYY-MM-DD and a count or length ASCII digits, on every interpreter."""

    @pytest.mark.parametrize("day, number", [*((d, "2") for d in LOOSE_DAYS),
                                             *(("2020-01-16", n) for n in LOOSE_COUNTS)])
    def test_peaks_row(self, tmp_path, capsys, day, number):
        peaks = tmp_path / "p.csv"
        peaks.write_text("article,kind,start_day,length,max_ratio\nAlpha,edit,2020-01-05,1,6.0\n"
                         f"Alpha,edit,{day},{number},1.5\n", encoding="utf-8")
        assert run_cli("stats", "--peaks", str(peaks), "--report", "overlap") == 1
        assert capsys.readouterr().err.startswith(f"error: {peaks}:3: malformed peaks row: ")

    @pytest.mark.parametrize("day, number", [*((d, "2") for d in LOOSE_DAYS),
                                             *(("2020-01-16", n) for n in LOOSE_COUNTS)])
    def test_stdin_row(self, capsys, monkeypatch, day, number):
        monkeypatch.setattr("sys.stdin", io.StringIO(f"A,edit,2020-01-15,2\nA,edit,{day},{number}\n"))
        assert run_cli("watch", "--stdin") == 1
        assert capsys.readouterr().err.startswith("error: stdin:2: ")

    # Three ways to put a bad row on line 5 after a good one: blank lines, a row whose
    # quoted article spans two lines, and the bad row's own article spanning lines.
    @pytest.mark.parametrize("before, article", [
        ("\n\n", "Alpha"), ("  \n\t\u3000\n", "Alpha"), ('"Al\npha",edit,2020-01-07,1,2.0\n', "Alpha"),
        ("", '"Al\n\npha"')])
    def test_peaks_row_named_by_its_last_line(self, tmp_path, capsys, before, article):
        peaks = tmp_path / "p.csv"
        peaks.write_text("article,kind,start_day,length,max_ratio\nAlpha,edit,2020-01-05,1,6.0\n"
                         f"{before}{article},edit,20200116,2,1.5\n", encoding="utf-8")
        assert run_cli("stats", "--peaks", str(peaks), "--report", "overlap") == 1
        assert capsys.readouterr().err.startswith(f"error: {peaks}:5: malformed peaks row: ")

    @pytest.mark.parametrize("before, article", [
        ("\n\n\n", "A"), ("   \n\n\t\n", "A"), ('"A\nB",edit,2020-01-14,2\n\n', "A"),
        ("", '"A\n\n\nB"')])
    def test_stdin_row_named_by_its_last_line(self, capsys, monkeypatch, before, article):
        rows = f"A,edit,2020-01-15,2\n{before}{article},edit,20200116,2\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(rows))
        assert run_cli("watch", "--stdin") == 1
        assert capsys.readouterr().err.startswith("error: stdin:5: malformed day-count row: ")


class TestArticleWithoutKeptEdits:
    def test_appears_in_no_table(self, tmp_path, capsys):
        """An article whose every edit is dropped for its ts is no article with edits."""
        edits = tmp_path / "edits.jsonl"
        edits.write_bytes((GOLDEN / "edits.jsonl").read_bytes()
                          + b'{"article":"Ghost","ts":"2999-01-01T00:00:00Z"}\n{"article":"Ghost","ts":null}\n')
        assert "Ghost" not in ingest.load_columns(edits, "edit").names
        clean, dirty = tmp_path / "clean", tmp_path / "dirty"
        for path, out in ((GOLDEN / "edits.jsonl", clean), (edits, dirty)):
            assert run_cli(*report_args(path, GOLDEN / "comments.jsonl", out)) == 0
        for name in REPORT_TABLES:
            text = (dirty / f"{name}.csv").read_text(encoding="utf-8")
            assert "Ghost" not in text, name
            if name not in ("diagnostics", "summary"):  # both count the lines read
                assert text == (clean / f"{name}.csv").read_text(encoding="utf-8"), name
        summaries = [dict(read_rows(out / "summary.csv")[1:]) for out in (clean, dirty)]
        for key in ("n_edit_events", "n_articles_with_edits", "comment_edit_ratio"):
            assert summaries[0][key] == summaries[1][key], key


# Each command's numeric and time flags, after the arguments it needs to run
# on the golden corpus (out stands for a fresh output path).
FLAG_SWEEP_COMMANDS = {
    "report": (["report", "--edits", str(GOLDEN / "edits.jsonl"),
                "--comments", str(GOLDEN / "comments.jsonl"), "--out", "{out}"],
               ["-c", "--nmin", "--window", "--tolerance", "--min-comments", "-k", "--top-n",
                "--as-of", "--bins-per-decade", "--now"]),
    "peaks": (["peaks", "--edits", str(GOLDEN / "edits.jsonl"),
               "--comments", str(GOLDEN / "comments.jsonl"), "--out", "{out}"],
              ["-c", "--nmin", "--window", "--now"]),
    "watch": (["watch", "--events", str(GOLDEN / "comments.jsonl"), "--out", "{out}"],
              ["-c", "--nmin", "--window", "--now"]),
    "deltah": (["deltah", "--comments", str(GOLDEN / "comments.jsonl"), "--out", "{out}"],
               ["--min-comments", "--now"]),
    "maturity": (["maturity", "--comments", str(GOLDEN / "comments.jsonl"), "--out", "{out}"],
                 ["--as-of", "-k", "--now"]),
}
# Values at the edges of every type a flag takes, and past int64.
FLAG_SWEEP_VALUES = [
    "0", "-1", "1", "1e-300", "1e308", "inf", "-inf", "nan", str(10**8), str(10**30),
    "0001-01-01", "1970-01-01", "2038-01-19", "9999-12-31", str(2**62), str(2**63),
]


@st.composite
def flag_settings(draw):
    command = draw(st.sampled_from(sorted(FLAG_SWEEP_COMMANDS)))
    flag = draw(st.sampled_from(FLAG_SWEEP_COMMANDS[command][1]))
    return command, flag, draw(st.sampled_from(FLAG_SWEEP_VALUES))


class TestEveryNumericFlag:
    """Any value of any numeric or time flag ends in exit 0, 1 or 2, never a traceback.

    argparse refuses a value its type does not parse with SystemExit(2), the
    command's exit; every other refusal is main's own.  A value that would
    size work without bound must be refused by a check, not by running out.
    """

    @settings(max_examples=80, deadline=None)
    @given(flag_settings())
    def test_exit_code_is_a_verdict(self, setting):
        command, flag, value = setting
        argv, _ = FLAG_SWEEP_COMMANDS[command]
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            out = str(Path(tmp) / "out")
            try:
                code = cli.main([arg.format(out=out) for arg in argv] + [f"{flag}={value}"])
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), (command, flag, value, code)
        assert "Traceback" not in err.getvalue()
