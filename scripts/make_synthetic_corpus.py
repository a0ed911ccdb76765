#!/usr/bin/env python3
"""Generate a synthetic wiki activity corpus for benchmarks and stress tests.

Writes edits.jsonl and comments.jsonl into --out. Article popularity is
Zipf-distributed, each article is active over a random contiguous window,
and a fraction of articles get engineered burst days so peak detection has
something to find. Comment threads are random trees capped at depth 30,
with ids assigned in timestamp order the way the talk-page parser would.

The default sizes match the performance target: 1e6 edits + 1e6 comments
over 1e4 articles.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

CANON_DAY = np.datetime64("2004-01-01")
# An article's window is at least 30 days long and ends inside the horizon, whose
# last day is at most 9999-12-31.
MIN_DAYS = 31
MAX_DAYS = int((np.datetime64("9999-12-31") - CANON_DAY) // np.timedelta64(1, "D")) + 1
MINIMUMS = {"articles": 1, "edits": 0, "comments": 0, "days": MIN_DAYS, "seed": 0}
# A clock is "HH:" for its hour and "MM:SS" for its second within the hour.
HOURS = [f"{h:02d}:" for h in range(24)]
MINUTE_SECONDS = [f"{m:02d}:{s:02d}" for m in range(60) for s in range(60)]


def day_table(horizon: int) -> list[str]:
    """ISO day strings indexed by days after CANON_DAY, over the whole horizon."""
    return np.arange(CANON_DAY, CANON_DAY + horizon).astype(str).tolist()


def timestamps(days: list[str], start_day: int, day_offsets: np.ndarray,
               seconds: np.ndarray) -> list[str]:
    hours, rest = np.divmod(seconds, 3600)
    return [f"{days[d]}T{HOURS[h]}{MINUTE_SECONDS[r]}Z" for d, h, r
            in zip((start_day + day_offsets).tolist(), hours.tolist(), rest.tolist())]


def allocate(total: int, n_articles: int, rng: np.random.Generator) -> np.ndarray:
    """Split total events over articles with a Zipf-ish popularity profile."""
    weights = 1.0 / np.arange(1, n_articles + 1) ** 1.1
    weights = rng.permutation(weights / weights.sum())
    counts = rng.multinomial(total, weights)
    return counts


def article_windows(n_articles: int, horizon: int, rng: np.random.Generator):
    starts = rng.integers(0, horizon // 2, n_articles)
    lengths = rng.integers(30, horizon, n_articles)
    ends = np.minimum(starts + lengths, horizon)
    return starts, ends


def articles(n_articles: int, total: int, horizon: int, rng: np.random.Generator):
    """Yield (name, events, start day, span) for each article given events."""
    counts = allocate(total, n_articles, rng)
    starts, ends = article_windows(n_articles, horizon, rng)
    for idx, (n, start, end) in enumerate(zip(counts.tolist(), starts.tolist(), ends.tolist())):
        if n:
            yield f"A{idx:05d}", n, start, end - start


def day_offsets(n: int, span: int, burst_max: int, rng: np.random.Generator) -> np.ndarray:
    """Sorted event days within the span; one article in ten with over 40 gets a burst day."""
    offsets = rng.integers(0, span, n)
    if n > 40 and rng.random() < 0.10:
        burst_day = int(rng.integers(0, span))
        n_burst = min(n // 2, int(rng.integers(20, burst_max)))
        offsets[:n_burst] = burst_day
    offsets.sort()
    return offsets


def write_edits(out: Path, n_articles: int, total: int, horizon: int,
                rng: np.random.Generator) -> int:
    days = day_table(horizon)
    written = 0
    with open(out, "w", encoding="utf-8", buffering=1 << 20) as handle:
        for article, n, start, span in articles(n_articles, total, horizon, rng):
            offsets = day_offsets(n, span, 200, rng)
            stamps = timestamps(days, start, offsets, rng.integers(0, 86400, n))
            handle.write("".join([f'{{"article":"{article}","ts":"{ts}"}}\n' for ts in stamps]))
            written += n
    return written


def write_comments(out: Path, n_articles: int, total: int, horizon: int,
                   rng: np.random.Generator) -> int:
    days = day_table(horizon)
    written = 0
    with open(out, "w", encoding="utf-8", buffering=1 << 20) as handle:
        for article, n, start, span in articles(n_articles, total, horizon, rng):
            offsets = day_offsets(n, span, 150, rng)
            stamps = timestamps(days, start, offsets, np.sort(rng.integers(0, 86400, n)))
            roots = (rng.random(n) < 0.25).tolist()
            picks = (rng.random(n) * np.arange(n)).astype(np.int64).tolist()
            authors = rng.integers(0, 5000, n).tolist()
            depths = [0] * n
            lines = []
            for j, (ts, author) in enumerate(zip(stamps, authors)):
                if j == 0 or roots[j]:
                    parent, depth = "null", 0
                else:
                    k = picks[j]
                    if depths[k] >= 30:
                        k = 0
                    parent, depth = f'"c{k}"', depths[k] + 1
                depths[j] = depth
                lines.append(f'{{"article":"{article}","id":"c{j}","parent":{parent},'
                             f'"depth":{depth},"ts":"{ts}","author":"U{author}","ord":{j}}}\n')
            handle.write("".join(lines))
            written += n
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--articles", type=int, default=10_000)
    parser.add_argument("--edits", type=int, default=1_000_000)
    parser.add_argument("--comments", type=int, default=1_000_000)
    parser.add_argument("--days", type=int, default=1825, help="corpus horizon in days")
    parser.add_argument("--seed", type=int, default=20060101)
    args = parser.parse_args(argv)
    for name, low in MINIMUMS.items():
        if getattr(args, name) < low:
            parser.error(f"--{name} must be at least {low}")
    if args.days > MAX_DAYS:
        parser.error(f"--days must be at most {MAX_DAYS}: no day may pass 9999-12-31")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)

    t0 = time.perf_counter()
    n_edits = write_edits(out / "edits.jsonl", args.articles, args.edits, args.days, rng)
    n_comments = write_comments(out / "comments.jsonl", args.articles, args.comments,
                                args.days, rng)
    dt = time.perf_counter() - t0
    print(f"wrote {n_edits} edits + {n_comments} comments "
          f"across {args.articles} articles in {dt:.1f}s -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
