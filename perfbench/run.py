#!/usr/bin/env python3
"""talkdyn benchmark: seeded inputs, timed runs in fresh interpreters, checked outputs.

    python3 perfbench/run.py --workload report --seed 1 --seconds 20 --trace 0

Run from the root of a talkdyn source tree.  One invocation:

1. builds the workload's inputs from --seed several times (the median build
   time, plus the median interpreter start and import time of the runs, is
   ``setup_s``) and checks that every build gives the same bytes;
2. runs the workload again and again for --seconds, each time in a fresh
   ``python perfbench/worker.py`` child with ``PYTHONPATH=src``, one child at
   a time (closed loop, one process, no extra threads), and times a fixed
   piece of pure-Python work between every two children to follow the speed
   of the host (see ``calibrate``);
3. checks every run's outputs (table digests, ingest reconciliation, the
   watch/batch cross-check, the parse round trip) and counts a run that
   raised or failed a check as failed;
4. prints a readable summary and, as the last line, one JSON object with
   ``correct``, ``attempted``, ``failed`` and ``metrics``.

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json.  With
--trace 1 untraced and traced runs alternate and the metrics are the
per-layer ones, read from the spans of the traced runs (see tracer.py).
The exit status is 0 only when every check passed.  --record stores the
output digests of a seed in digests.json once they verify, for later runs
to check against.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
DIGESTS = BENCH / "digests.json"

SOURCES = (ROOT / "src" / "talkdyn" / "cli.py", ROOT / "scripts" / "make_synthetic_corpus.py")
# The ROADMAP's default corpus shrunk tenfold in articles and events, so the
# per-article density, horizon, Zipf sizes and single-day bursts stay the same.
CORPUS = ["scripts/make_synthetic_corpus.py",
          "--articles", "1000", "--edits", "100000", "--comments", "100000"]
GENERATORS = {
    "report": CORPUS,
    "pages-report": ["perfbench/gen_pages.py"],
    "watch": CORPUS,
}
REPORT_TABLES = tuple(f"{name}.csv" for name in (
    "anniversaries", "articles", "daily_totals", "diagnostics", "dist_delta_h",
    "distributions", "overlap", "peaks", "speed", "summary",
))
SETUPS = 3
MIN_RUNS = 3
CHILD_TIMEOUT_S = 120.0
RUN_BUDGET_S = 150.0
WATCH_SAMPLE = 12
# Keep numeric libraries from starting worker threads in the children.
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Host speed.  On a shared host the same run can take twice as long in one
# minute as in the next (other tenants, not this process: CPU time slows with
# wall time), and a median over one invocation does not average that out.  So
# a fixed piece of pure-Python work, independent of talkdyn, is timed before
# the first build and after every build and every run, and every time of the
# invocation is scaled by its host speed: CAL_REF_S over the median piece
# time.  That gives the seconds the work would have taken with the host at
# reference speed (speed 1.0: a piece in CAL_REF_S).  A change to talkdyn
# moves the runs and not the pieces, so it shows in full.
CAL_PIECES = 160
CAL_REF_S = 3.0e-3
CAL_LINES = tuple(json.dumps({
    "article": f"A{i % 97}", "ts": f"2006-{1 + i % 12:02d}-{1 + i % 28:02d}T12:00:00Z",
    "user": f"u{i}", "depth": i % 5,
}) for i in range(300))


class CheckFailed(Exception):
    """A workload output or an input build did not verify."""


def calibration_piece() -> int:
    """Fixed work in the style of the pipeline: JSON lines, dates, grouping, sorting, loops."""
    by_article: dict[str, list] = {}
    for line in CAL_LINES:
        event = json.loads(line)
        day = datetime.date.fromisoformat(event["ts"][:10])
        by_article.setdefault(event["article"], []).append((day, event["depth"]))
    total = 0
    for days in by_article.values():
        days.sort()
        total += len(days)
    for i in range(20000):
        total += i * i % 7
    return total


def calibrate() -> float:
    """Mean seconds one calibration piece takes on the host right now."""
    t0 = time.perf_counter()
    for _ in range(CAL_PIECES):
        calibration_piece()
    return (time.perf_counter() - t0) / CAL_PIECES


def spawn(cmd: list[str], log: Path, timeout: float) -> tuple[int, float, object]:
    """Run cmd from the tree root; return (exit code, wall seconds, rusage of that child)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update(SINGLE_THREAD)
    start = time.monotonic()
    with open(log, "wb") as handle:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=handle, stderr=subprocess.STDOUT)
    deadline = start + timeout
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.005)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, time.monotonic() - start, usage


def file_digests(directory: Path, names=None) -> dict[str, str]:
    paths = [directory / n for n in names] if names else sorted(
        p for p in directory.rglob("*") if p.is_file())
    return {str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def count_lines(path: Path) -> int:
    with open(path, "rb") as handle:
        return sum(1 for line in handle if line.strip())


def build_inputs(workload: str, seed: int, run_dir: Path, builds: int,
                 cal: list[float]) -> tuple[Path, list[float]]:
    """Build the inputs `builds` times; keep the first, check the rest match it.

    Returns the build times; `cal` receives a calibration after each build.
    """
    times = []
    first = None
    for i in range(builds):
        target = run_dir / f"inputs{i}"
        cmd = [sys.executable, *GENERATORS[workload], "--out", str(target), "--seed", str(seed)]
        code, wall, _ = spawn(cmd, run_dir / f"build{i}.log", CHILD_TIMEOUT_S)
        if code != 0:
            raise CheckFailed(f"input build exited {code}: {(run_dir / f'build{i}.log').read_text()}")
        cal.append(calibrate())
        times.append(wall)
        digests = file_digests(target)
        if first is None:
            first = digests
        else:
            if digests != first:
                raise CheckFailed("two builds from one seed gave different inputs")
            shutil.rmtree(target)
    return run_dir / "inputs0", times


def read_table(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[1:]]


def check_reconciled(source: str, tallies: dict, lines: int, dropped: int) -> None:
    read = tallies.get("lines_read", 0)
    used = tallies.get("events_used", 0)
    lost = tallies.get("lines_dropped", 0)
    if read != used + lost:
        raise CheckFailed(f"{source}: lines_read {read} != events_used {used} + lines_dropped {lost}")
    if read != lines or lost != dropped:
        raise CheckFailed(f"{source}: read {read}/dropped {lost}, expected {lines}/{dropped}")


def report_tallies(tables: Path) -> dict[str, dict]:
    out: dict[str, dict] = {"edits": {}, "comments": {}}
    for source, key, count in read_table(tables / "diagnostics.csv"):
        out[source][key] = int(count)
    return out


class Checks:
    """Output checks of one workload for one seed; digests must agree across runs."""

    def __init__(self, name: str, seed: int, inputs: Path):
        self.name = name
        self.inputs = inputs
        self.expected = recorded_digests().get(name, {}).get(str(seed))
        self.digest_source = "recorded" if self.expected else "first run"
        self.deep_checked = False
        if name == "pages-report":
            self.manifest = json.loads((inputs / "manifest.json").read_text(encoding="utf-8"))
            self.lines = {"edits": self.manifest["edit_lines_read"]}
        else:
            self.lines = {"comments": count_lines(inputs / "comments.jsonl")}
            if name == "report":
                self.lines["edits"] = count_lines(inputs / "edits.jsonl")

    def events(self, result: dict) -> int:
        """Event lines one run consumed."""
        if self.name == "pages-report":
            return self.lines["edits"] + result["comment_lines"]
        return sum(self.lines.values())

    def check(self, out: Path, result: dict) -> None:
        if self.name == "watch":
            digests = file_digests(out, ["alerts.csv"])
            check_reconciled("comments", result["watch_tallies"], self.lines["comments"], 0)
        else:
            tables = out / "tables"
            written = sorted(p.name for p in tables.iterdir())
            if written != sorted(REPORT_TABLES):
                raise CheckFailed(f"report wrote {written}, expected the 10 tables")
            digests = file_digests(tables, REPORT_TABLES)
            tallies = report_tallies(tables)
            if self.name == "report":
                check_reconciled("edits", tallies["edits"], self.lines["edits"], 0)
                check_reconciled("comments", tallies["comments"], self.lines["comments"], 0)
            else:
                m = self.manifest
                digests.update(file_digests(out, ["comments.jsonl"]))
                check_reconciled("edits", tallies["edits"], m["edit_lines_read"],
                                 m["edit_lines_dropped"])
                check_reconciled("comments", tallies["comments"], result["comment_lines"],
                                 m["comment_noise_dropped"])
                repaired = tallies["comments"].get("comment_ts_malformed", 0)
                if repaired != m["comment_noise_repaired"]:
                    raise CheckFailed(f"comments: {repaired} timestamps repaired, "
                                      f"expected {m['comment_noise_repaired']}")
        if self.expected is None:
            self.expected = digests
        elif digests != self.expected:
            bad = sorted(k for k in digests if digests[k] != self.expected.get(k))
            raise CheckFailed(f"output digests differ from the {self.digest_source}: {bad}")
        if not self.deep_checked:
            if self.name == "watch":
                check_watch_against_batch(self.inputs / "comments.jsonl", out / "alerts.csv")
            elif self.name == "pages-report":
                check_round_trip(out / "comments.jsonl", self.inputs / "comment_noise.jsonl",
                                 result["parsed_events"], out)
            self.deep_checked = True


def import_talkdyn():
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from talkdyn import ingest, timeseries
    return ingest, timeseries


def check_watch_against_batch(comments: Path, alerts_csv: Path) -> None:
    """Alerts of a fixed article sample must equal detect_peaks_trailing's peak days."""
    ingest, timeseries = import_talkdyn()
    alerts = {(a, day, int(count)) for a, kind, day, count, *_ in read_table(alerts_csv)}
    series = ingest.build_series(ingest.load_events(comments, ingest.COMMENT), ingest.COMMENT)
    articles = sorted(series)
    step = max(1, len(articles) // WATCH_SAMPLE)
    sample = set(articles[::step]) | {a for a, _, _ in alerts}
    expected = set()
    for article in sample:
        s = series[article]
        for run in timeseries.detect_peaks_trailing(s):
            for day in run.days():
                offset = day.toordinal() - s.start_day.toordinal()
                expected.add((article, day.isoformat(), int(s.counts[offset])))
    if expected != alerts:
        raise CheckFailed(f"watch alerts disagree with detect_peaks_trailing on "
                          f"{len(expected ^ alerts)} article-days")


def check_round_trip(comments: Path, noise_path: Path, parsed: int, scratch: Path) -> None:
    """Parsed events re-read through ingest must serialise to the same lines."""
    ingest, _ = import_talkdyn()
    noise = set(noise_path.read_text(encoding="utf-8").splitlines())
    lines = [line for line in comments.read_text(encoding="utf-8").splitlines() if line not in noise]
    clean = scratch / "parsed.jsonl"
    clean.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    events = list(ingest.load_events(clean, ingest.COMMENT))
    if len(lines) != parsed or len(events) != parsed:
        raise CheckFailed(f"{parsed} parsed events, {len(lines)} lines, {len(events)} re-read")
    for line, event in zip(lines, events):
        if ingest.event_json_line(event) != line:
            raise CheckFailed(f"parsed event does not round-trip: {line}")


def run_once(workload: str, inputs: Path, run_dir: Path, index: int, trace: bool) -> tuple[dict, Path]:
    out = run_dir / f"out{index}"
    spec = {
        "workload": workload, "inputs": str(inputs), "out": str(out), "trace": trace,
        "result": str(run_dir / f"result{index}.json"), "spawned": time.monotonic(),
    }
    spec_path = run_dir / f"spec{index}.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    log = run_dir / f"run{index}.log"
    code, _, usage = spawn([sys.executable, str(BENCH / "worker.py"), str(spec_path)],
                           log, CHILD_TIMEOUT_S)
    if code != 0:
        raise CheckFailed(f"run exited {code}:\n{log.read_text(errors='replace')[-2000:]}")
    result = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    return result, out


def page_latency(runs: list[dict], key: str, speed: float) -> float:
    """Median over runs of one per-page parse latency percentile, at reference speed.

    0.0 on a workload without pages.
    """
    if key not in runs[0]:
        return 0.0
    return statistics.median(r[key] for r in runs) * speed


def end_to_end(checks: Checks, runs: list[dict], build_s: list[float], speed: float) -> dict:
    """Medians over the runs; times and rates at reference host speed."""
    walls = [r["wall_s"] * speed for r in runs]
    ready = statistics.median(r["ready_s"] for r in runs)
    return {
        "setup_s": ((statistics.median(build_s) + ready) * speed, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "events_per_s": (statistics.median(checks.events(r) / w for r, w in zip(runs, walls)), "1/s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in runs), "MB"),
    }


UNITS = {"busy_s": "s", "self_s": "s", "uncovered_s": "s", "p99_us": "us", "max_ms": "ms",
         "page_p50_ms": "ms", "page_p99_ms": "ms", "cpu_s": "s", "bytes_written": "bytes",
         "used_ratio": "ratio", "signed_ratio": "ratio", "overhead_ratio": "ratio",
         "speed": "ratio", "raw_wall_s": "s"}
TIME_UNITS = ("s", "ms", "us")


def unit_of(name: str) -> str:
    return UNITS.get(name.rsplit(".", 1)[-1], "count")


def per_layer(plain: list[dict], traced: list[dict], speed: float) -> dict:
    """Median of each layer figure over the traced runs; counts must repeat exactly.

    Times are scaled to reference host speed like the end-to-end ones;
    ``host.raw_wall_s`` is the unscaled median wall of the untraced runs and
    ``host.speed`` the scale factor.
    """
    metrics = {}
    for name in traced[0]["layers"]:
        scaled = unit_of(name) in TIME_UNITS
        values = [r["layers"][name] * (speed if scaled else 1.0) for r in traced]
        if unit_of(name) != "count":
            metrics[name] = statistics.median(values)
        elif len(set(values)) == 1:
            metrics[name] = values[0]
        else:
            raise CheckFailed(f"{name} differs between traced runs: {values}")
    for r in traced:
        if abs(r["self_sum_s"] - r["traced_wall_s"]) > 1e-6 * max(1.0, r["traced_wall_s"]):
            raise CheckFailed("span self times do not add up to the traced wall time")
    metrics["talkparser.page_p50_ms"] = page_latency(plain, "page_p50_ms", speed)
    metrics["talkparser.page_p99_ms"] = page_latency(plain, "page_p99_ms", speed)
    metrics["process.cpu_s"] = statistics.median(r["cpu_s"] for r in plain) * speed
    metrics["trace.overhead_ratio"] = (statistics.median(r["wall_s"] for r in traced)
                                       / statistics.median(r["wall_s"] for r in plain))
    metrics["host.speed"] = speed
    metrics["host.raw_wall_s"] = statistics.median(r["wall_s"] for r in plain)
    return {name: (value, unit_of(name)) for name, value in metrics.items()}


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric names and units BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def recorded_digests() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}


def record_digests(workload: str, seed: int, digests: dict) -> None:
    recorded = recorded_digests()
    recorded.setdefault(workload, {})[str(seed)] = digests
    ordered = {name: dict(sorted(by_seed.items(), key=lambda kv: int(kv[0])))
               for name, by_seed in sorted(recorded.items())}
    DIGESTS.write_text(json.dumps(ordered, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's output digests in digests.json once they verify")
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit so the running child is
    # killed and reaped and the work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    missing = [str(p.relative_to(ROOT)) for p in SOURCES if not p.exists()]
    if missing:
        print(f"run from a talkdyn source tree; missing {missing}", file=sys.stderr)
        return 2

    started = time.monotonic()
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    plain: list[dict] = []
    traced: list[dict] = []
    attempted = failed = 0
    errors: list[str] = []
    cal = [calibrate()]
    try:
        try:
            inputs, build_s = build_inputs(args.workload, args.seed, run_dir,
                                           1 if args.trace else SETUPS, cal)
            checks = Checks(args.workload, args.seed, inputs)
        except CheckFailed as exc:
            print(f"set-up failed: {exc}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
            return 1
        deadline = time.monotonic() + args.seconds
        min_runs = 2 if args.trace else MIN_RUNS
        while (attempted < min_runs or time.monotonic() < deadline) \
                and time.monotonic() - started < RUN_BUDGET_S:
            trace = bool(args.trace) and attempted % 2 == 1
            attempted += 1
            try:
                result, out = run_once(args.workload, inputs, run_dir, attempted, trace)
                cal.append(calibrate())
                checks.check(out, result)
            except (CheckFailed, OSError, ValueError, KeyError) as exc:
                failed += 1
                errors.append(f"run {attempted}: {type(exc).__name__}: {exc}")
                continue
            finally:
                shutil.rmtree(run_dir / f"out{attempted}", ignore_errors=True)
            (traced if trace else plain).append(result)
        host_speed = CAL_REF_S / statistics.median(cal)
        metrics = {}
        try:
            if args.trace and plain and traced:
                metrics = per_layer(plain, traced, host_speed)
            elif not args.trace and plain:
                metrics = end_to_end(checks, plain, build_s, host_speed)
        except CheckFailed as exc:
            failed += 1
            errors.append(f"trace: {exc}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()

    declared = declared_metrics(bool(args.trace))
    emitted = {name: unit for name, (_, unit) in metrics.items()}
    if metrics and emitted != declared:
        errors.append(f"metrics differ from BENCHMARK.json: {sorted(set(emitted.items()) ^ set(declared.items()))}")
    correct = failed == 0 and bool(metrics) and emitted == declared
    if correct and args.record:
        record_digests(args.workload, args.seed, checks.expected)
    for error in errors:
        print(error, file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  runs {attempted}  failed {failed}"
          f"  fail_ratio {failed / attempted:.3f}  digests checked against {checks.digest_source}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    if plain:
        print("  raw wall_s of each untraced run: " + " ".join(f"{r['wall_s']:.3f}" for r in plain))
    print(f"  host speed {host_speed:.3f}: times above are scaled by it; a piece took "
          + " ".join(f"{c * 1e3:.2f}" for c in cal) + f" ms (reference {CAL_REF_S * 1e3:g} ms)")
    if args.workload == "pages-report" and plain and not args.trace:
        for key in ("page_p50_ms", "page_p99_ms"):
            print(f"  {key:40s} {page_latency(plain, key, host_speed):14.6g} ms  "
                  f"(per page, {plain[0]['pages']} pages a run)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
