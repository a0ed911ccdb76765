#!/usr/bin/env python3
"""Seeded generator for the `pages-report` benchmark workload.

Writes into --out:

  pages/<article>.wiki   wikitext talk pages, one per article
  edits.jsonl            a rough edit stream for the same articles, in feed
                         (timestamp) order, with malformed lines at fixed rates
  comment_noise.jsonl    malformed comment lines that the workload interleaves
                         into the comment JSONL it writes from the parsed pages
  manifest.json          line counts and the exact drop/repair tallies that
                         ingest must report for the two event files

Compared with the synthetic report corpus the articles are fewer and live for
years, bursts last several days or recur on the same day every year, threads
run deep, some signatures lack a date or an author, and a fixed share of pages
carry a vandalised block of unclosed ``[[User:`` links.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

N_ARTICLES = 500
EPOCH = np.datetime64("2002-01-01")
HORIZON_DAYS = 3650
MIN_LIFE_DAYS = 3 * 365

HOSTILE_PAGES = 10            # fixed share: 2% of the pages
HOSTILE_LINKS = 250           # unclosed "[[User:abc " copies per hostile block

EDIT_BACKGROUND_PER_DAY = 0.03
BURST_PER_DAY = (13, 21)      # counts on a burst day; > c * n_min for c=4, n_min=3
COMMENT_BASE_MEAN = 18

# Malformed edit lines by kind, as a share of the edit events; every one is dropped.
EDIT_NOISE = (
    ("bad_json", 0.005),
    ("bad_ts", 0.003),
    ("pre_2001", 0.002),
    ("no_article", 0.002),
    ("not_object", 0.001),
)
EDIT_BLANK_RATE = 0.001        # blank lines are skipped, never counted as read

# Malformed comment lines, per parsed comment event (the workload interleaves
# one after every NOISE_EVERY-th event).  "repair" lines keep their structure
# and lose only the timestamp, so ingest keeps them as undated comments.
COMMENT_NOISE = (
    ("bad_json", 0.004),
    ("depth_parent_mismatch", 0.003),
    ("negative_field", 0.002),
    ("bad_comment_id", 0.002),
    ("not_object", 0.001),
    ("repair", 0.008),
)
NOISE_EVERY = 50

MONTHS = ("January", "February", "March", "April", "May", "June", "July",
          "August", "September", "October", "November", "December")
WORDS = ("the", "source", "article", "claim", "revert", "consensus", "section",
         "citation", "needed", "policy", "agree", "disagree", "merge", "move",
         "neutral", "edit", "war", "lead", "page", "talk", "see", "above",
         "below", "fixed", "vandalism", "reliable", "wording", "propose")


def comment_days(rng: np.random.Generator, start: int, life: int) -> np.ndarray:
    """Day offsets of one talk page's comments: background, multi-day and yearly bursts."""
    n_base = int(rng.geometric(1.0 / COMMENT_BASE_MEAN))
    days = [rng.integers(start, start + life, n_base)]
    if rng.random() < 0.25:
        for _ in range(int(rng.integers(1, 3))):
            first = int(rng.integers(start, start + life - 4))
            for d in range(first, first + int(rng.integers(2, 4))):
                days.append(np.full(int(rng.integers(*BURST_PER_DAY)), d))
    if rng.random() < 0.10:
        first = int(rng.integers(start, start + 365))
        for d in range(first, start + life, 365):
            if rng.random() < 0.7:
                days.append(np.full(int(rng.integers(*BURST_PER_DAY)), d))
    return np.sort(np.concatenate(days))


def edit_days(rng: np.random.Generator, start: int, life: int) -> np.ndarray:
    """Day offsets of one article's edits: sparse background plus burst runs."""
    days = [rng.integers(start, start + life, rng.poisson(EDIT_BACKGROUND_PER_DAY * life))]
    for _ in range(int(rng.integers(1, 4))):
        first = int(rng.integers(start, start + life - 6))
        for d in range(first, first + int(rng.integers(1, 6))):
            days.append(np.full(int(rng.integers(*BURST_PER_DAY)), d))
    if rng.random() < 0.3:
        first = int(rng.integers(start, start + 365))
        for d in range(first, start + life, 365):
            if rng.random() < 0.8:
                for k in range(int(rng.integers(1, 3))):
                    days.append(np.full(int(rng.integers(*BURST_PER_DAY)), d + k))
    return np.concatenate(days)


def day_parts(day: int) -> tuple[int, int, int]:
    y, m, d = str(EPOCH + day).split("-")
    return int(y), int(m), int(d)


def signature(rng: np.random.Generator, day: int, second: int) -> str:
    """One signature in a hand-typed variant; '' for an unsigned comment."""
    user = f"U{int(rng.integers(0, 3000))}"
    year, month, dom = day_parts(day)
    clock = f"{second // 3600:02d}:{second // 60 % 60:02d}"
    stamp = f"{clock}, {dom} {MONTHS[month - 1]} {year} (UTC)"
    r = rng.random()
    if r < 0.80:
        return f"[[User:{user}|{user}]] ([[User talk:{user}|talk]]) {stamp}"
    if r < 0.84:
        return ""
    if r < 0.89:
        return f"[[User:{user}|{user}]]"
    if r < 0.93:
        return stamp
    if r < 0.97:
        return f"[[User talk:{user}|{user}]] {clock}, {dom} {MONTHS[month - 1][:3]}. {year} (UTC)"
    return f"[[User:{user}]] {dom} {MONTHS[month - 1]} {year} (UTC)"


def text(rng: np.random.Generator) -> str:
    return " ".join(WORDS[i] for i in rng.integers(0, len(WORDS), int(rng.integers(4, 24))))


def talk_page(rng: np.random.Generator, days: np.ndarray, hostile: bool) -> str:
    """Wikitext for one page; comments appear in time order, threads run deep."""
    seconds = np.sort(rng.integers(0, 86400, days.size))
    order = np.lexsort((seconds, days))
    lines: list[str] = []
    i = 0
    section = 0
    while i < days.size:
        size = int(rng.geometric(1 / 12)) if rng.random() < 0.8 else int(rng.integers(30, 80))
        climb = 0.85 if rng.random() < 0.15 else 0.55
        marker = "*" if rng.random() < 0.1 else ":"
        lines.append(f"== Thread {section} ==")
        section += 1
        depth = 0
        for j, k in enumerate(order[i:i + size]):
            if j:
                r = rng.random()
                if r < 0.02:
                    depth += 2
                elif r < climb:
                    depth = min(depth + 1, 24)
                elif r > climb + 0.25:
                    depth = int(rng.integers(0, depth + 1))
                lines.append("")
            prefix = marker * depth
            if rng.random() < 0.1:
                lines.append(prefix + text(rng))
            lines.append(f"{prefix}{text(rng)} {signature(rng, int(days[k]), int(seconds[k]))}".rstrip())
        i += size
        if hostile and section == 1:
            junk = "[[User:abc " * HOSTILE_LINKS
            year, month, dom = day_parts(int(days[min(i, days.size) - 1]))
            lines += ["", f":{junk}12:00, {dom} {MONTHS[month - 1]} {year} (UTC)"]
    return "\n".join(lines) + "\n"


def edit_lines(rng: np.random.Generator, edits: list[tuple[str, np.ndarray]]) -> tuple[list[str], int]:
    """Edit JSONL lines in feed order with noise mixed in; returns (lines, n_dropped)."""
    articles = np.concatenate([np.full(d.size, i) for i, (_, d) in enumerate(edits)])
    days = np.concatenate([d for _, d in edits])
    seconds = rng.integers(0, 86400, days.size)
    order = np.lexsort((articles, seconds, days))
    stamps = (EPOCH + days[order]).astype(str)
    names = [a for a, _ in edits]
    lines = []
    for a, stamp, s in zip(articles[order], stamps, seconds[order]):
        lines.append(f'{{"article":"{names[a]}","ts":"{stamp}T{s // 3600:02d}:'
                     f'{s // 60 % 60:02d}:{s % 60:02d}Z"}}')
    noise = []
    for kind, rate in EDIT_NOISE:
        for _ in range(round(rate * len(lines))):
            name = names[int(rng.integers(0, len(names)))]
            noise.append({
                "bad_json": f'{{"article":"{name}","ts":"2006-04-0',
                "bad_ts": f'{{"article":"{name}","ts":"2006-13-40T25:61:00Z"}}',
                "pre_2001": f'{{"article":"{name}","ts":"1999-05-01T10:00:00Z"}}',
                "no_article": '{"ts":"2006-04-01T10:00:00Z"}',
                "not_object": f'["{name}","2006-04-01T10:00:00Z"]',
            }[kind])
    noise += [""] * round(EDIT_BLANK_RATE * len(lines))
    slots = np.sort(rng.integers(0, len(lines) + 1, len(noise)))
    mixed = []
    prev = 0
    for slot, line in zip(slots, rng.permutation(noise)):
        mixed += lines[prev:slot]
        mixed.append(str(line))
        prev = slot
    mixed += lines[prev:]
    return mixed, sum(1 for line in noise if line)


def comment_noise(rng: np.random.Generator, names: list[str], n_events: int) -> tuple[list[str], dict]:
    noise = []
    tallies = {"dropped": 0, "repaired": 0}
    for kind, rate in COMMENT_NOISE:
        for _ in range(round(rate * n_events)):
            name = names[int(rng.integers(0, len(names)))]
            base = {"article": name, "id": f"n{len(noise)}", "parent": None, "depth": 0,
                    "ts": "2006-02-30T10:00:00Z", "author": "Noise", "ord": 900000 + len(noise)}
            if kind == "bad_json":
                line = json.dumps(base, separators=(",", ":"))[:-9]
            elif kind == "depth_parent_mismatch":
                line = json.dumps({**base, "depth": 2}, separators=(",", ":"))
            elif kind == "negative_field":
                line = json.dumps({**base, "ord": -1}, separators=(",", ":"))
            elif kind == "bad_comment_id":
                line = json.dumps({**base, "id": ""}, separators=(",", ":"))
            elif kind == "not_object":
                line = json.dumps(list(base.values()), separators=(",", ":"))
            else:
                line = json.dumps(base, separators=(",", ":"))
            tallies["repaired" if kind == "repair" else "dropped"] += 1
            noise.append(line)
    order = rng.permutation(len(noise))
    return [noise[i] for i in order], tallies


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    rng = np.random.default_rng([args.seed, 0x7A1C])
    out = Path(args.out)
    pages_dir = out / "pages"
    pages_dir.mkdir(parents=True, exist_ok=True)

    hostile = set(rng.choice(N_ARTICLES, HOSTILE_PAGES, replace=False).tolist())
    names = [f"P{i:04d}" for i in range(N_ARTICLES)]
    edits = []
    n_comments = 0
    for i, name in enumerate(names):
        start = int(rng.integers(0, HORIZON_DAYS - MIN_LIFE_DAYS))
        life = int(rng.integers(MIN_LIFE_DAYS, HORIZON_DAYS - start + 1))
        days = comment_days(rng, start, life)
        n_comments += days.size
        (pages_dir / f"{name}.wiki").write_text(talk_page(rng, days, i in hostile), encoding="utf-8")
        edits.append((name, edit_days(rng, start, life)))

    lines, edit_dropped = edit_lines(rng, edits)
    (out / "edits.jsonl").write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    noise, noise_tallies = comment_noise(rng, names, n_comments)
    (out / "comment_noise.jsonl").write_text("".join(line + "\n" for line in noise), encoding="utf-8")
    manifest = {
        "pages": N_ARTICLES,
        "hostile_pages": HOSTILE_PAGES,
        "edit_lines_read": sum(1 for line in lines if line),
        "edit_lines_dropped": edit_dropped,
        "comment_noise_every": NOISE_EVERY,
        "comment_noise_dropped": noise_tallies["dropped"],
        "comment_noise_repaired": noise_tallies["repaired"],
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
