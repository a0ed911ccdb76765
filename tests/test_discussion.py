"""Discussion h-index, h-traces, growth speed, and maturity."""

from __future__ import annotations

import json
import random
from collections import defaultdict
from datetime import date, timedelta
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talkdyn import (
    COMMENT,
    CommentEvent,
    DeltaH,
    Diagnostics,
    HIndexCounter,
    InsufficientGrowthError,
    NoDatedCommentsError,
    build_forest,
    build_tree,
    delta_h,
    h_index,
    h_trace,
    maturity,
    rank_by_speed,
)
from talkdyn import cli, discussion, ingest
from talkdyn.discussion import effective_timestamps, h_index_from_counts

from conftest import (
    build_series_oracle,
    build_tree_oracle,
    effective_timestamps_oracle,
    h_scan_oracle,
    h_trace_oracle,
    load_events_oracle,
    random_forest,
    utc,
)


def comment(i: int, parent: int | None, ts=None, article: str = "A") -> CommentEvent:
    depth = 0
    return CommentEvent(
        article_id=article, comment_id=f"c{i}",
        parent_id=None if parent is None else f"c{parent}",
        depth=0 if parent is None else 1,  # raw depth; build_tree derives levels
        timestamp=ts, author=None, doc_order=i,
    )


def chain(length: int, article: str = "A", ts=None) -> list[CommentEvent]:
    """c0 <- c1 <- ... : one straight reply chain."""
    events = []
    for i in range(length):
        events.append(
            CommentEvent(
                article_id=article, comment_id=f"c{i}",
                parent_id=None if i == 0 else f"c{i - 1}",
                depth=i, timestamp=ts, author=None, doc_order=i,
            )
        )
    return events


level_count_maps = st.dictionaries(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=60),
    max_size=15,
)


class TestHIndexFromCounts:
    def test_counts_levels_exactly_not_cumulatively(self):
        # One starter, one level-2 reply, three level-3 replies: the three
        # comments AT level 3 already satisfy theta = 3 on their own.
        assert h_index_from_counts({1: 1, 2: 1, 3: 3}) == 3

    def test_empty_discussion(self):
        assert h_index_from_counts({}) == 0

    def test_wide_flat_discussion(self):
        # 50 thread starters but nothing deeper: hic level 1 alone gives 1.
        assert h_index_from_counts({1: 50}) == 1

    def test_deep_thin_discussion(self):
        # A single chain to level 10: only level 1 has >= 1 comment... and
        # every level has exactly 1, so only theta = 1 holds.
        assert h_index_from_counts({k: 1 for k in range(1, 11)}) == 1

    @given(counts=level_count_maps)
    def test_matches_theta_scan(self, counts):
        assert h_index_from_counts(counts) == h_scan_oracle(counts)


class TestHIndexCounter:
    def test_incremental_equals_batch(self):
        counter = HIndexCounter()
        for level in (1, 2, 3, 3, 3, 2):
            counter.insert(level)
        assert counter.h == h_index_from_counts({1: 1, 2: 2, 3: 3})

    def test_insert_returns_current_h(self):
        counter = HIndexCounter()
        assert counter.insert(1) == 1
        assert counter.insert(5) == 1
        assert counter.insert(2) == 1
        assert counter.insert(2) == 2

    def test_h_never_decreases(self):
        counter = HIndexCounter()
        rng = random.Random(7)
        last = 0
        for _ in range(2000):
            h = counter.insert(rng.randint(1, 12))
            assert h >= last
            last = h

    def test_rejects_nonpositive_level(self):
        with pytest.raises(ValueError):
            HIndexCounter().insert(0)

    @given(levels=st.lists(st.integers(min_value=1, max_value=25), max_size=300))
    def test_every_prefix_matches_scan(self, levels):
        counter = HIndexCounter()
        seen: dict[int, int] = {}
        for level in levels:
            seen[level] = seen.get(level, 0) + 1
            assert counter.insert(level) == h_scan_oracle(seen)


class TestBuildTree:
    def test_levels_are_one_based_ancestry_counts(self):
        tree = build_tree("A", chain(4))
        assert tree.levels.tolist() == [1, 2, 3, 4]
        assert tree.depth_counts == {1: 1, 2: 1, 3: 1, 4: 1}
        assert tree.max_level == 4

    def test_doc_order_wins_over_input_order(self):
        times = [utc(2006, 1, d) for d in (1, 2, 3)]
        events = list(reversed(dated_chain_with_times(times)))
        diag = Diagnostics()
        tree = build_tree("A", events, diag)
        assert tree.seconds.tolist() == [int(t.timestamp()) for t in times]
        assert tree.levels.tolist() == [1, 2, 3]
        assert diag.tallies == {}

    def test_orphan_becomes_thread_starter(self):
        diag = Diagnostics()
        orphan = CommentEvent("A", "c1", "missing", 1, None, None, 1)
        tree = build_tree("A", [comment(0, None), orphan], diag)
        assert tree.levels.tolist() == [1, 1]
        assert diag.tallies["orphan_comment"] == 1

    def test_duplicate_ids_keep_first(self):
        diag = Diagnostics()
        dup = CommentEvent("A", "c0", None, 0, None, "other", 1)
        tree = build_tree("A", [comment(0, None), dup], diag)
        assert tree.n_comments == 1
        assert diag.tallies["duplicate_comment_id"] == 1

    def test_h_index_of_tree(self):
        # Two starters, two level-2 replies: theta = 2 holds at level 2.
        events = [comment(0, None), comment(1, None), comment(2, 0), comment(3, 1)]
        assert h_index(build_tree("A", events)) == 2


def dated_chain_with_times(times) -> list[CommentEvent]:
    events = []
    for i, ts in enumerate(times):
        events.append(
            CommentEvent(
                article_id="A", comment_id=f"c{i}",
                parent_id=None if i == 0 else f"c{i - 1}",
                depth=i, timestamp=ts, author=None, doc_order=i,
            )
        )
    return events


class TestHTrace:
    def test_worked_example(self):
        t = [utc(2006, 1, d) for d in range(1, 6)]
        events = [
            CommentEvent("A", "c0", None, 0, t[0], None, 0),    # level 1 -> h 1
            CommentEvent("A", "c1", "c0", 1, t[1], None, 1),    # level 2
            CommentEvent("A", "c2", "c0", 1, t[2], None, 2),    # level 2 -> h 2
            CommentEvent("A", "c3", None, 0, t[3], None, 3),    # level 1
            CommentEvent("A", "c4", "c1", 2, t[4], None, 4),    # level 3
            CommentEvent("A", "c5", "c1", 2, t[4], None, 5),    # level 3
            CommentEvent("A", "c6", "c1", 2, t[4], None, 6),    # level 3 -> h 3
        ]
        trace = h_trace(build_tree("A", events))
        assert trace.steps == ((t[0], 1), (t[2], 2), (t[4], 3))
        assert trace.h0 == 1
        assert trace.final_h == 3
        assert trace.first_increase == t[0]
        assert trace.last_increase == t[4]

    def test_opening_step_carries_full_initial_value(self):
        # Everything posted at one instant: a single step at h = final h.
        t0 = utc(2006, 3, 1)
        events = [comment(0, None, t0), comment(1, None, t0),
                  comment(2, 0, t0), comment(3, 1, t0)]
        trace = h_trace(build_tree("A", events))
        assert trace.steps == ((t0, 2),)
        assert trace.h0 == 2

    def test_later_batch_expands_to_unit_steps(self):
        t0, t1 = utc(2006, 3, 1), utc(2006, 3, 11)
        events = [comment(0, None, t0)]
        events += [comment(i, 0, t1) for i in range(1, 4)]
        events += [
            CommentEvent("A", f"c{i}", "c1", 2, t1, None, i) for i in range(4, 7)
        ]
        trace = h_trace(build_tree("A", events))
        # The t1 batch lifts h 1 -> 3: two unit steps, both at t1.
        assert trace.steps == ((t0, 1), (t1, 2), (t1, 3))

    def test_undated_comments_inherit_preceding_timestamp(self):
        t0, t1 = utc(2006, 3, 1), utc(2006, 3, 5)
        events = [
            comment(0, None, t0),
            comment(1, 0, None),       # rides along at t0
            comment(2, 0, t1),
        ]
        eff = effective_timestamps(build_tree("A", events))
        assert eff.tolist() == [int(t.timestamp()) for t in (t0, t0, t1)]

    def test_undated_prefix_takes_first_dated_timestamp(self):
        t0 = utc(2006, 3, 1)
        events = [comment(0, None, None), comment(1, 0, t0)]
        eff = effective_timestamps(build_tree("A", events))
        assert eff.tolist() == [int(t0.timestamp())] * 2

    def test_all_undated_raises(self):
        with pytest.raises(NoDatedCommentsError):
            h_trace(build_tree("A", [comment(0, None, None)]))

    @given(st.data())
    @settings(max_examples=150)
    def test_trace_is_monotone_and_ends_at_tree_h(self, data):
        rng = random.Random(data.draw(st.integers(min_value=0, max_value=10_000)))
        events = random_forest(rng, "A", rng.randint(1, 80), dated_fraction=0.8)
        tree = build_tree("A", events)
        try:
            trace = h_trace(tree)
        except NoDatedCommentsError:
            return
        values = [h for _, h in trace.steps]
        times = [ts for ts, _ in trace.steps]
        assert values[0] == trace.h0
        assert values == sorted(values)
        assert times == sorted(times)
        # After the opening step every increase is exactly one.
        assert all(b - a == 1 for a, b in zip(values[1:], values[2:]))
        assert trace.final_h == h_index(tree)


class TestDeltaH:
    def test_uniform_spacing_gives_spacing(self):
        t0 = utc(2006, 1, 1)
        times = [t0 + timedelta(days=3 * i) for i in range(6)]
        trace = h_trace(build_tree("A", uniform_growth_events(times)))
        pace = delta_h(trace)
        assert pace.value == pytest.approx(3.0, abs=1e-12)
        assert pace.intervals_used == len(trace.steps) - 1

    def test_truncated_trace_divides_by_growth_after_opening(self):
        # Opening step lands at h0 = 2; two more levels over 10 days: the
        # average is 10 / (4 - 2) = 5 days per level, not 10 / 4.
        t0 = utc(2006, 1, 1)
        events = [comment(0, None, t0), comment(1, None, t0),
                  comment(2, 0, t0), comment(3, 1, t0)]
        nxt = 4
        # Day 4: three replies under c2 reach level 3; day 10: four replies
        # under the first of those reach level 4.
        for day, level, parent in ((4, 3, "c2"), (10, 4, "c4")):
            ts = t0 + timedelta(days=day)
            for _ in range(level):
                events.append(
                    CommentEvent("A", f"c{nxt}", parent, level - 1, ts, None, nxt)
                )
                nxt += 1
        tree = build_tree("A", events)
        trace = h_trace(tree)
        assert trace.h0 == 2
        pace = delta_h(trace)
        assert pace.value == pytest.approx(10.0 / 2.0)
        assert pace.intervals_used == 2

    def test_single_step_raises(self):
        t0 = utc(2006, 1, 1)
        trace = h_trace(build_tree("A", [comment(0, None, t0)]))
        with pytest.raises(InsufficientGrowthError):
            delta_h(trace)

    def test_sub_day_resolution(self):
        t0 = utc(2006, 1, 1)
        times = [t0, t0 + timedelta(hours=12)]
        trace = h_trace(build_tree("A", uniform_growth_events(times)))
        assert delta_h(trace).value == pytest.approx(0.5)


def uniform_growth_events(times) -> list[CommentEvent]:
    """Events whose h-trace steps once at each given time.

    At step k the tree gains enough level-k comments to lift h to k: level 1
    first, then k comments at level k off the first thread.
    """
    events = [CommentEvent("A", "c0", None, 0, times[0], None, 0)]
    nxt = 1
    for k, ts in enumerate(times[1:], start=2):
        # Build a fresh chain to depth k - 1, then add k leaves at level k.
        anchor = "c0"
        for d in range(1, k - 1):
            events.append(CommentEvent("A", f"c{nxt}", anchor, d, ts, None, nxt))
            anchor = f"c{nxt}"
            nxt += 1
        for _ in range(k):
            events.append(
                CommentEvent("A", f"c{nxt}", anchor, k - 1, ts, None, nxt)
            )
            nxt += 1
    return events


class TestMaturity:
    def make_pace(self):
        t0 = utc(2006, 1, 1)
        times = [t0 + timedelta(days=10 * i) for i in range(4)]  # pace 10 d/level
        return delta_h(h_trace(build_tree("A", uniform_growth_events(times))))

    def test_idle_long_enough_is_mature(self):
        pace = self.make_pace()
        last = pace.last_increase
        assert maturity(pace, last + timedelta(days=30), 3.0).mature
        assert not maturity(pace, last + timedelta(days=29), 3.0).mature

    def test_threshold_is_inclusive(self):
        pace = self.make_pace()
        status = maturity(pace, pace.last_increase + timedelta(days=30), 3.0)
        assert status.mature
        assert status.article_id == "A"
        assert status.time_since_last_increase == pytest.approx(30.0)
        assert status.threshold_multiple == 3.0

    def test_degenerate_multiple_makes_everything_mature(self):
        pace = self.make_pace()
        assert maturity(pace, pace.last_increase, 0.0).mature

    def test_reads_the_pace_without_recomputing_it(self):
        pace = DeltaH("A", 10.0, 3, utc(2006, 1, 1), utc(2006, 1, 31), 4)
        with mock.patch.object(discussion, "delta_h", side_effect=AssertionError("recomputed")):
            status = maturity(pace, utc(2006, 3, 2), 3.0)
        assert status.mature and status.time_since_last_increase == pytest.approx(30.0)


class TestRankBySpeed:
    def trees(self):
        out = {}
        for article, spacing in (("slow", 20), ("fast", 2), ("mid", 7)):
            t0 = utc(2006, 1, 1)
            times = [t0 + timedelta(days=spacing * i) for i in range(4)]
            events = [
                CommentEvent(article, e.comment_id, e.parent_id, e.depth,
                             e.timestamp, e.author, e.doc_order)
                for e in uniform_growth_events(times)
            ]
            out[article] = build_tree(article, events)
        return out

    def paces(self, trees):
        return {article: delta_h(h_trace(tree)) for article, tree in trees.items()}

    def test_orders_fastest_first(self):
        trees = self.trees()
        ranked = rank_by_speed(self.paces(trees).values(), {a: 5000 for a in trees})
        assert [r.article_id for r in ranked] == ["fast", "mid", "slow"]
        assert [r.value for r in ranked] == [2.0, 7.0, 20.0]

    def test_size_filter_is_strict(self):
        paces = self.paces(self.trees())
        counts = {"fast": 1001, "mid": 1000, "slow": 5000}
        ranked = rank_by_speed(paces.values(), counts, min_comments=1000)
        # 1000 comments does not clear a "more than 1000" bar.
        assert [r.article_id for r in ranked] == ["fast", "slow"]
        # A discussion the counts do not name counts as empty.
        assert rank_by_speed(paces.values(), {"mid": 3}, min_comments=2) == [paces["mid"]]

    def test_ties_break_by_article_id(self):
        trees = self.trees()
        trees["aaa"] = build_tree("aaa", [
            CommentEvent("aaa", e.comment_id, e.parent_id, e.depth,
                         e.timestamp, e.author, e.doc_order)
            for e in uniform_growth_events(
                [utc(2006, 1, 1) + timedelta(days=2 * i) for i in range(4)]
            )
        ])
        ranked = rank_by_speed(reversed(self.paces(trees).values()), {a: 5000 for a in trees})
        assert [r.article_id for r in ranked[:2]] == ["aaa", "fast"]

    def test_duration_in_whole_days(self):
        trees = self.trees()
        ranked = rank_by_speed(self.paces(trees).values(), {a: 5000 for a in trees})
        rows = cli._speed_rows(ranked, trees)
        fast = next(row for row in rows if row[0] == "fast")
        assert fast[1:5] == [2.0, date(2006, 1, 1), date(2006, 1, 7), 6]
        assert fast[6] == trees["fast"].n_comments

    def test_stagnant_traces_are_skipped(self):
        t0 = utc(2006, 1, 1)
        stuck = h_trace(build_tree("A", [comment(0, None, t0)]))
        assert cli._paces({"A": stuck}) == {}

    def test_reads_the_paces_without_recomputing_them(self):
        trees = self.trees()
        paces = self.paces(trees)
        with mock.patch.object(discussion, "delta_h", side_effect=AssertionError("recomputed")):
            ranked = rank_by_speed(paces.values(), {a: 5000 for a in trees})
        assert ranked == sorted(paces.values(), key=lambda pace: pace.value)


FOREST_NOW = utc(2030, 1, 1)


@st.composite
def comment_files(draw) -> list[str]:
    """Comment JSONL lines of one to three articles, in shuffled line order.

    Ids, parents and ords are drawn from small ranges, so duplicate ids,
    duplicate ords, orphans and parents later in document order all occur;
    timestamps are drawn from a few seconds, so batches share them, or are
    missing or malformed, so leading and inner undated runs occur.  Some
    files carry ords and depths beyond int64 (unusable lines), and some a
    line that is not JSON.
    """
    lines = []
    for article in draw(st.lists(st.sampled_from(["A", "B", "Z\u00e9"]), min_size=1,
                                 max_size=3, unique=True)):
        n = draw(st.integers(1, 30))
        wide = draw(st.booleans())
        for _ in range(n):
            parent = draw(st.one_of(st.none(), st.integers(0, n + 2).map("c{}".format)))
            depth = draw(st.sampled_from([1, 2, 3, 10**20] if wide else [1, 2, 3]))
            stamp = st.builds("2006-01-0{}T00:00:0{}Z".format, st.integers(1, 3), st.integers(0, 1))
            lines.append(json.dumps({
                "article": article,
                "id": f"c{draw(st.integers(0, n))}",
                "parent": parent,
                "depth": 0 if parent is None else depth,
                "ts": draw(st.one_of(st.none(), st.just("2006-02-30T00:00:00Z"), stamp, stamp)),
                "author": None,
                "ord": draw(st.integers(0, n)) + (10**19 if wide and draw(st.booleans()) else 0),
            }, separators=(",", ":"), ensure_ascii=False))
    lines += draw(st.lists(st.just('{"article":'), max_size=1))
    return draw(st.permutations(lines))


class TestColumnForest:
    """One column load feeds series, trees and traces exactly as the event oracles do."""

    @given(lines=comment_files(), chunk=st.integers(1, 64))
    @settings(max_examples=300, deadline=None)
    def test_matches_event_oracles(self, tmp_path_factory, lines, chunk):
        path = tmp_path_factory.mktemp("forest") / "c.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        got_diag, want_diag = Diagnostics(), Diagnostics()
        with mock.patch.object(ingest, "_CHUNK_BYTES", chunk):
            comments = ingest.load_columns(path, COMMENT, diagnostics=got_diag, now=FOREST_NOW)
        trees = build_forest(comments, got_diag)
        traces = cli._traces(trees, got_diag)
        events = list(load_events_oracle(path, COMMENT, diagnostics=want_diag, now=FOREST_NOW))
        by_article = defaultdict(list)
        for event in events:
            by_article[event.article_id].append(event)
        assert list(trees) == sorted(by_article)
        for article, tree in trees.items():
            want = build_tree_oracle(article, by_article[article], want_diag)
            assert tree.levels.tolist() == [want.levels[n.comment_id] for n in want.nodes]
            assert tree.seconds.tolist() == [
                ingest.UNDATED if n.timestamp is None else int(n.timestamp.timestamp())
                for n in want.nodes
            ]
            assert tree.depth_counts == want.depth_counts
            assert tree.n_comments == len(want.nodes)
            try:
                eff = effective_timestamps_oracle(want)
            except NoDatedCommentsError:
                want_diag.tally("articles_without_dated_comments")
                assert article not in traces
                continue
            at = {id(node): int(ts.timestamp()) for ts, _, node in eff}
            assert effective_timestamps(tree).tolist() == [at[id(n)] for n in want.nodes]
            assert traces[article].steps == h_trace_oracle(want)
            assert traces[article].h0 == traces[article].steps[0][1]
        assert got_diag.tallies == want_diag.tallies
        assert got_diag.messages == want_diag.messages
        assert comments.articles.size == len(events)
        assert {a: (s.start_day, s.counts.tolist()) for a, s in comments.series().items()} == {
            a: (s.start_day, s.counts.tolist())
            for a, s in build_series_oracle(events, COMMENT).items()
        }
        assert comments.latest() == max(
            (e.timestamp for e in events if e.timestamp is not None), default=None)
