"""One timed workload run in a fresh interpreter.

Started by run.py as ``python perfbench/worker.py <spec.json>`` with
``PYTHONPATH=src``, so talkdyn is imported from the source tree and no
installed console script is needed.  The spec names the workload, its input
and output directories, whether to trace, and the monotonic time at which the
parent spawned this process.  The worker writes its figures to the spec's
``result`` path as JSON; run.py checks the outputs it leaves behind.
"""

from __future__ import annotations

import csv
import itertools
import json
import sys
import time
from pathlib import Path

import tracer as tracing
from talkdyn import cli, ingest, talkparser
from talkdyn.timeseries import PeakParams

# pages-report runs with a lower activity floor so its years-long series yield
# thousands of peak runs from a modest event count, and ranks every discussion
# of a size talk pages reach.
PAGES_PARAMS = PeakParams(c=4.0, n_min=3, window_halfwidth=14)
PAGES_MIN_COMMENTS = 40


def run_report(inputs: Path, out: Path) -> dict:
    config = cli.RunConfig(inputs / "edits.jsonl", inputs / "comments.jsonl", out / "tables")
    t0 = time.perf_counter()
    cli.run_report(config)
    return {"wall_s": time.perf_counter() - t0}


def run_pages_report(inputs: Path, out: Path) -> dict:
    """Parse every talk page to comment JSONL (noise interleaved), then report."""
    manifest = json.loads((inputs / "manifest.json").read_text(encoding="utf-8"))
    every = manifest["comment_noise_every"]
    noise = (inputs / "comment_noise.jsonl").read_text(encoding="utf-8").splitlines()
    pages = sorted((inputs / "pages").glob("*.wiki"))
    comments = out / "comments.jsonl"
    diag = ingest.Diagnostics(source="pages")
    page_ms = []
    written = 0
    clock = time.perf_counter
    t0 = clock()
    with open(comments, "w", encoding="utf-8") as handle:
        pending = iter(noise)
        for page in pages:
            p0 = clock()
            events = talkparser.parse_file(page, None, diag)
            page_ms.append((clock() - p0) * 1e3)
            for event in events:
                handle.write(ingest.event_json_line(event) + "\n")
                written += 1
                if written % every == 0:
                    for line in itertools.islice(pending, 1):
                        handle.write(line + "\n")
        for line in pending:
            handle.write(line + "\n")
    config = cli.RunConfig(
        inputs / "edits.jsonl", comments, out / "tables",
        params=PAGES_PARAMS, min_comments=PAGES_MIN_COMMENTS,
    )
    cli.run_report(config)
    wall = clock() - t0
    page_ms.sort()
    return {
        "wall_s": wall,
        "pages": len(pages),
        "page_p50_ms": tracing.percentile(page_ms, 0.50),
        "page_p99_ms": tracing.percentile(page_ms, 0.99),
        "parsed_events": written,
        "comment_lines": written + len(noise),
        "parse_tallies": dict(diag.tallies),
    }


def run_watch(inputs: Path, out: Path) -> dict:
    diag = ingest.Diagnostics()
    t0 = time.perf_counter()
    alerts = cli.simulate_watch(inputs / "comments.jsonl", diagnostics=diag)
    wall = time.perf_counter() - t0
    with open(out / "alerts.csv", "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(cli.WATCH_HEADER)
        for row in alerts:
            writer.writerow([cli._fmt(cell) for cell in row])
    return {"wall_s": wall, "watch_tallies": dict(diag.tallies)}


WORKLOADS = {"report": run_report, "pages-report": run_pages_report, "watch": run_watch}


def peak_rss_mb() -> float:
    """Peak resident memory of this process since it started, in MB.

    Read from VmHWM, which covers only this program's own memory.  ru_maxrss
    would also count the pages of the parent this process was forked from
    before it exec'd Python.
    """
    for line in Path("/proc/self/status").read_text(encoding="ascii").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    out = Path(spec["out"])
    out.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[spec["workload"]]
    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        root_t0 = tracer.begin()
    ready_s = time.monotonic() - spec["spawned"]
    result = workload(Path(spec["inputs"]), out)
    result["ready_s"] = ready_s
    result["rss_mb"] = peak_rss_mb()
    if tracer is not None:
        tracer.end(tracing.ROOT, root_t0)
        blocks = result.get("parse_tallies", {}).get("blocks", 0)
        result["layers"] = tracing.layer_metrics(tracer, blocks)
        result["traced_wall_s"] = tracer.spans[tracing.ROOT][1]
        result["self_sum_s"] = sum(tracer.self_s(name) for name in tracer.spans)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
