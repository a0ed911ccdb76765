"""Shared fixtures and reference oracles.

The oracles here are deliberately naive: they recompute everything from the
definition, with no sliding-window reuse, no incremental counters, and no
vectorization, so an agreement failure always points at the optimized path.
"""

from __future__ import annotations

import os
import random
import sys
from datetime import date, datetime, timezone
from pathlib import Path
from statistics import median
from typing import Sequence

import pytest

import talkdyn
from talkdyn import ActivitySeries, CommentEvent, PeakParams

START_DAY = date(2006, 1, 1)


def make_series(counts: Sequence[int], article: str = "A", kind: str = "edit",
                start: date = START_DAY) -> ActivitySeries:
    import numpy as np

    return ActivitySeries(article, kind, start, np.asarray(counts, dtype=np.int64))


def utc(year: int, month: int, day: int, hour: int = 0, minute: int = 0,
        second: int = 0) -> datetime:
    return datetime(year, month, day, hour, minute, second, tzinfo=timezone.utc)


# ---------------------------------------------------------------------------
# Peak-detection oracle: recompute each window median independently.


def median_oracle(counts: Sequence[int], halfwidth: int) -> list[float]:
    n = len(counts)
    return [
        float(median(counts[max(0, t - halfwidth): t + halfwidth + 1]))
        for t in range(n)
    ]


def trailing_median_oracle(counts: Sequence[int], window: int) -> list[float]:
    """Median of the window days strictly before each day, 0 when none exist."""
    return [
        float(median(counts[max(0, t - window): t])) if t else 0.0
        for t in range(len(counts))
    ]


def peak_days_oracle(counts: Sequence[int], params: PeakParams) -> list[int]:
    """Indices of peak days straight from the day-wise inequality."""
    medians = median_oracle(counts, params.window_halfwidth)
    return [
        t for t in range(len(counts))
        if counts[t] > params.c * max(medians[t], params.n_min)
    ]


def trailing_peak_days_oracle(counts: Sequence[int], params: PeakParams) -> list[int]:
    """Peak-day indices when day t sees only the window days before it."""
    out = []
    for t in range(len(counts)):
        window = counts[max(0, t - params.window_halfwidth): t]
        m = float(median(window)) if window else 0.0
        if counts[t] > params.c * max(m, params.n_min):
            out.append(t)
    return out


def runs_from_days(days: Sequence[int]) -> list[tuple[int, int]]:
    """Collapse sorted day indices into (start, length) runs."""
    runs: list[tuple[int, int]] = []
    for day in days:
        if runs and day == runs[-1][0] + runs[-1][1]:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            runs.append((day, 1))
    return runs


# ---------------------------------------------------------------------------
# h-index oracle: exhaustive theta scan over exact-level counts.


def h_scan_oracle(depth_counts: dict[int, int]) -> int:
    best = 0
    for theta in range(0, max(depth_counts, default=0) + 1):
        if depth_counts.get(theta, 0) >= theta:
            best = max(best, theta)
    return best


# ---------------------------------------------------------------------------
# Random forest generator for discussion tests.


def random_forest(rng: random.Random, article: str, n_nodes: int,
                  max_depth: int = 30, dated_fraction: float = 1.0) -> list[CommentEvent]:
    """Random reply forest as events in document order.

    Each node replies to a uniformly chosen earlier node, or starts a thread;
    the depth cap redirects too-deep replies to the root level.
    """
    events: list[CommentEvent] = []
    depths: list[int] = []
    t0 = utc(2006, 1, 1)
    for i in range(n_nodes):
        parent_idx = rng.randrange(-1, i) if i else -1
        if parent_idx >= 0 and depths[parent_idx] + 1 < max_depth:
            parent = f"c{parent_idx}"
            depth = depths[parent_idx] + 1
        else:
            parent = None
            depth = 0
        ts = None
        if rng.random() < dated_fraction:
            ts = t0.fromtimestamp(
                t0.timestamp() + rng.randrange(0, 5 * 365) * 86400
                + rng.randrange(0, 86400),
                tz=timezone.utc,
            )
        events.append(
            CommentEvent(
                article_id=article, comment_id=f"c{i}", parent_id=parent,
                depth=depth, timestamp=ts, author=f"u{rng.randrange(40)}",
                doc_order=i,
            )
        )
        depths.append(depth)
    return events


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


# ---------------------------------------------------------------------------
# Running the command line in a child process.


def talkdyn_cmd(*args: str) -> list[str]:
    """Argv that runs the CLI as a module; no console script need be installed."""
    return [sys.executable, "-m", "talkdyn", *args]


def talkdyn_env() -> dict[str, str]:
    """Environment whose PYTHONPATH starts at the talkdyn package this process imported.

    The child then runs the same code as the test, whatever the working
    directory and whether or not another copy is installed.
    """
    env = dict(os.environ)
    root = str(Path(talkdyn.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env


# ---------------------------------------------------------------------------
# Acceptance-criterion reporting: one status line per criterion, printed in
# the terminal summary so the verdicts survive pytest's output capture.


ACCEPTANCE_LINES: list[tuple[str, str, str]] = []


def record_criterion(name: str, status: str, detail: str = "") -> None:
    ACCEPTANCE_LINES.append((name, status, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, status, detail in ACCEPTANCE_LINES:
        suffix = f"  [{detail}]" if detail else ""
        terminalreporter.write_line(f"{status:4s} {name}{suffix}")
