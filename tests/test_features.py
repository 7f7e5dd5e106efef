"""Feature extraction against hand values, brute-force recounts, and the
frozen golden fixture."""

from __future__ import annotations

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DAY, JAN1_2007, WEEK, columns, dist_stats, epoch, ev
from linkcdr import features
from linkcdr.errors import DatasetError
from linkcdr.features import (
    WeekGrid,
    _Events,
    _group_stats,
    _interevent,
    _local_parts,
    _transform,
    _weekly_stats,
    _weekly_tensor,
    compute_feature_matrix,
)
from linkcdr.ingest import ObservationWindow
from linkcdr.manifest import (
    DAYPARTS,
    FEATURE_NAMES,
    FEATURE_SPECS,
    GROUP_SIZES,
    N_FEATURES,
    QUANTITIES,
    STATS,
    TRANSFORM_LOG1P,
    TRANSFORM_NONE,
    TRANSFORM_SIGNED_LOG1P,
    WEEKPARTS,
)
from linkcdr.pairgraph import (
    apply_regularity_filter,
    build_links,
    common_contacts,
    mutual_top_rank_pairs,
)
from linkcdr.relations import PairKey
from linkcdr.scaling import apply_scaler, fit_scaler
from oracles import (
    _daypart,
    _local,
    _signed_log1p,
    _weekpart,
    feature_vector_oracle,
    moment_stats,
)

AB = PairKey.of("a", "b")


def feature_index(name: str) -> int:
    return FEATURE_NAMES.index(name)


# _local_parts' segment index of each weekpart_daypart name
SEGMENT = {
    f"{wp}_{dp}": 3 * i + j for i, wp in enumerate(WEEKPARTS) for j, dp in enumerate(DAYPARTS)
}
ACTIVE_DAYS = [
    feature_index(f"active_days_{kind}_{wp}_{dp}")
    for kind in ("call", "text")
    for wp in WEEKPARTS
    for dp in DAYPARTS
]


def stamps(*texts: str) -> np.ndarray:
    return np.asarray([epoch(t) for t in texts], dtype=np.int64)


def oracle_segment(ts: int, utc_offset: int = 0) -> int:
    dt = _local(ts, utc_offset)
    return SEGMENT[f"{_weekpart(dt)}_{_daypart(dt)}"]


class TestSegmentOf:
    def test_tuesday_morning_is_weekday_daytime(self):
        _, seg = _local_parts(stamps("2007-01-02 08:30:00"), 0)
        assert seg.tolist() == [SEGMENT["weekday_daytime"]]

    def test_friday_night_is_weekend_late_night(self):
        _, seg = _local_parts(stamps("2007-01-05 23:30:00"), 0)
        assert seg.tolist() == [SEGMENT["weekend_late_night"]]

    def test_evening_boundary_convention(self):
        _, seg = _local_parts(stamps("2007-01-04 16:59:59", "2007-01-04 17:00:00"), 0)
        assert seg.tolist() == [SEGMENT["weekday_daytime"], SEGMENT["weekday_evening"]]

    def test_late_night_boundaries(self):
        _, seg = _local_parts(
            stamps(
                "2007-01-04 22:59:59",
                "2007-01-04 23:00:00",
                "2007-01-04 06:59:59",
                "2007-01-04 07:00:00",
            ),
            0,
        )
        assert seg.tolist() == [
            SEGMENT["weekday_evening"],
            SEGMENT["weekday_late_night"],
            SEGMENT["weekday_late_night"],
            SEGMENT["weekday_daytime"],
        ]

    def test_weekpart_uses_own_calendar_day(self):
        # Monday 02:00 is weekday late-night, Friday 02:00 weekend late-night
        _, seg = _local_parts(stamps("2007-01-08 02:00:00", "2007-01-05 02:00:00"), 0)
        assert seg.tolist() == [SEGMENT["weekday_late_night"], SEGMENT["weekend_late_night"]]

    def test_utc_offset_shifts_local_clock(self):
        ts = stamps("2007-01-02 23:30:00")
        assert _local_parts(ts, 0)[1].tolist() == [SEGMENT["weekday_late_night"]]
        assert _local_parts(ts, 8 * 3600)[1].tolist() == [SEGMENT["weekday_daytime"]]

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(
        ts=st.lists(st.integers(-(2**35), 2**35), min_size=1, max_size=20),
        utc_offset=st.one_of(
            st.sampled_from([19800, -34200, 14 * 3600, -14 * 3600]),
            st.integers(-14 * 3600, 14 * 3600),
        ),
    )
    def test_segment_matches_oracle_at_any_offset(self, ts, utc_offset):
        # stamps from about the year 881 to 3058, so before 1970 too
        _, seg = _local_parts(np.array(ts, dtype=np.int64), utc_offset)
        assert seg.tolist() == [oracle_segment(t, utc_offset) for t in ts]

    def test_partition_and_segment_totals(self, default_window):
        rng = np.random.default_rng(2)
        ts = rng.integers(default_window.start, default_window.end, size=500)
        _, seg = _local_parts(ts, 0)
        assert seg.tolist() == [oracle_segment(int(t)) for t in ts]
        cols = columns([ev("a", "b", int(t)) for t in ts])
        events = _Events.select(cols, slice(None), np.zeros(len(cols), dtype=np.int64), 0)
        weekly = _weekly_tensor(events, 1, WeekGrid.from_window(default_window))[0, :-1]
        # summing all call cells over full weeks never exceeds the total
        assert weekly[:, :6].sum() <= 500


# 7 days from a Monday, and 13 days from a Wednesday (2007-01-08 to 01-15).
ONE_WEEK_WINDOWS = (
    ObservationWindow.from_dates("2007-01-01", "2007-01-08"),
    ObservationWindow.from_dates("2007-01-03", "2007-01-16"),
)
# 6 days from a Monday, and 7 days from a Thursday.
NO_WEEK_WINDOWS = (
    ObservationWindow.from_dates("2007-01-01", "2007-01-07"),
    ObservationWindow.from_dates("2007-01-04", "2007-01-11"),
)


class TestWeekGrid:
    def test_default_window_has_thirty_weeks(self, default_window):
        grid = WeekGrid.from_window(default_window)
        assert grid.n_weeks == 30
        assert grid.first_monday_day * DAY == JAN1_2007

    def test_short_window_fatal(self):
        window = ObservationWindow.from_dates("2007-01-02", "2007-01-31")
        # first full Monday week starts Jan 8; Jan 8 + 7d <= Jan 31 holds once
        assert WeekGrid.from_window(window).n_weeks == 3
        with pytest.raises(DatasetError):
            WeekGrid.from_window(ObservationWindow.from_dates("2007-01-02", "2007-01-08"))

    @pytest.mark.parametrize("window", ONE_WEEK_WINDOWS)
    def test_one_full_week(self, window):
        assert WeekGrid.from_window(window).n_weeks == 1

    @pytest.mark.parametrize("window", NO_WEEK_WINDOWS)
    def test_feature_matrix_needs_a_full_week(self, window):
        cols = columns([ev("a", "b", window.start + 3600), ev("b", "a", window.end - 1)], window)
        graph = build_links(cols)
        with pytest.raises(DatasetError, match="no full Monday-aligned week"):
            compute_feature_matrix(graph, sorted(graph.keys()))


class TestWeeklySeries:
    """The kernel's (weeks + 1, 18) weekly tensor of one pair: calls, call
    durations, then texts, each over the six segments; the last week slot
    holds the events outside every full week."""

    def test_constant_cell(self, default_window):
        events = []
        for week in range(30):
            base = JAN1_2007 + week * WEEK
            events.append(ev("a", "b", base + 9 * 3600))  # Monday 09:00
            events.append(ev("a", "b", base + DAY + 10 * 3600))  # Tuesday 10:00
        cols = columns(events)
        one_row = _Events.select(cols, slice(None), np.zeros(len(cols), dtype=np.int64), 0)
        calls, _, texts = np.split(
            _weekly_tensor(one_row, 1, WeekGrid.from_window(default_window))[0, :-1], 3, axis=1
        )
        assert (calls[:, 0] == 2).all()
        cells = np.ones((30, 6), dtype=bool)
        cells[:, 0] = False
        assert calls[cells].sum() == 0
        assert texts.sum() == 0

    def test_unknown_duration_counts_call_only(self, default_window):
        cols = columns([ev("a", "b", JAN1_2007 + 9 * 3600, "call", None)])
        one_row = _Events.select(cols, slice(None), np.zeros(len(cols), dtype=np.int64), 0)
        weekly = _weekly_tensor(one_row, 1, WeekGrid.from_window(default_window))[0]
        assert weekly[0, 0] == 1  # calls, weekday daytime
        assert weekly[0, 6] == 0  # duration, weekday daytime

    def test_edge_week_events_excluded(self):
        window = ObservationWindow.from_dates("2007-01-03", "2007-02-01")
        # Jan 3 is Wednesday; full weeks start Jan 8
        cols = columns([ev("a", "b", epoch("2007-01-03 10:00:00"))])
        one_row = _Events.select(cols, slice(None), np.zeros(len(cols), dtype=np.int64), 0)
        weekly = _weekly_tensor(one_row, 1, WeekGrid.from_window(window))[0]
        assert weekly[:-1].sum() == 0
        assert weekly[-1].tolist() == [1, 0, 0, 0, 0, 0, 60] + [0] * 11

    def test_extra_slot_holds_exactly_the_events_outside_full_weeks(self):
        # Wednesday to Thursday: partial weeks at both ends of four full ones
        window = ObservationWindow.from_dates("2007-01-03", "2007-02-08")
        grid = WeekGrid.from_window(window)
        assert grid.n_weeks == 4
        rng = np.random.default_rng(8)
        events, rows, outside = [], [], np.zeros((3, 18))
        for _ in range(600):
            ts = int(rng.integers(window.start, window.end))
            kind = "text" if rng.random() < 0.4 else "call"
            row = int(rng.integers(3))
            events.append(ev("a", "b", ts, kind, int(rng.integers(1, 900))))
            rows.append(row)
            widx = (ts // DAY - grid.first_monday_day) // 7
            if not 0 <= widx < grid.n_weeks:
                seg = oracle_segment(ts)
                if kind == "call":
                    outside[row, seg] += 1
                    outside[row, 6 + seg] += events[-1].duration
                else:
                    outside[row, 12 + seg] += 1
        cols = columns(events, window)
        three_rows = _Events.select(cols, slice(None), np.asarray(rows), 0)
        tally = _weekly_tensor(three_rows, 3, grid)
        assert tally.shape == (3, grid.n_weeks + 1, 18)
        assert outside.sum() > 0
        np.testing.assert_array_equal(tally[:, -1], outside)
        # every event lands in one slot: the slots sum to the row totals
        totals = np.zeros((3, 18))
        for e, row in zip(events, rows):
            seg = oracle_segment(e.timestamp)
            if e.kind.value == "call":
                totals[row, [seg, 6 + seg]] += [1, e.duration]
            else:
                totals[row, 12 + seg] += 1
        np.testing.assert_array_equal(tally.sum(axis=1), totals)

    def test_fifty_event_brute_recount(self, default_window):
        rng = np.random.default_rng(11)
        events = []
        for _ in range(50):
            ts = int(rng.integers(default_window.start, default_window.end))
            kind = "text" if rng.random() < 0.5 else "call"
            events.append(ev("a", "b", ts, kind, int(rng.integers(1, 500))))
        grid = WeekGrid.from_window(default_window)
        cols = columns(events)
        one_row = _Events.select(cols, slice(None), np.zeros(len(cols), dtype=np.int64), 0)
        calls, durations, texts = np.split(_weekly_tensor(one_row, 1, grid)[0, :-1], 3, axis=1)
        counts = np.zeros((grid.n_weeks, 6))
        text_counts = np.zeros((grid.n_weeks, 6))
        durs = np.zeros((grid.n_weeks, 6))
        for e in events:
            day = e.timestamp // DAY
            weekday = (day + 3) % 7
            monday = day - weekday
            widx = (monday - grid.first_monday_day) // 7
            if not 0 <= widx < grid.n_weeks:
                continue
            seg_idx = oracle_segment(e.timestamp)
            if e.kind.value == "call":
                counts[widx, seg_idx] += 1
                durs[widx, seg_idx] += e.duration
            else:
                text_counts[widx, seg_idx] += 1
        assert (calls == counts).all()
        assert (texts == text_counts).all()
        assert (durations == durs).all()


def column_stats(weeks: np.ndarray) -> np.ndarray:
    """(rows, 18, 7) statistics of each column of a (rows, weeks, 18) array
    over its weeks: ``_group_stats`` of the kernel's sorted weekly runs."""
    return _weekly_stats(weeks).reshape(len(weeks), 18, 7)


class TestDistStats:
    def test_constant_series(self):
        assert dist_stats([2, 2, 2, 2]) == (2, 2, 0, 2, 2, 0, 0)

    def test_one_two_three(self):
        stats = dist_stats([1, 2, 3])
        assert stats.mean == 2
        assert stats.median == 2
        assert stats.std == pytest.approx(math.sqrt(2 / 3), rel=1e-12)
        assert (stats.min, stats.max) == (1, 3)
        assert stats.skew == 0
        assert stats.kurt == pytest.approx(-1.5, rel=1e-12)

    def test_large_normal_sample(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(200_000)
        stats = dist_stats(x)
        assert abs(stats.skew) < 0.02
        assert abs(stats.kurt) < 0.05

    def test_matches_moment_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            n = int(rng.integers(1, 100))
            x = rng.uniform(-50, 50, size=n)
            got = np.asarray(dist_stats(x))
            want = np.asarray(moment_stats(x))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        runs=st.lists(
            st.one_of(
                st.lists(st.integers(0, 2**40), min_size=1, max_size=2),
                st.lists(st.integers(0, 3), min_size=1, max_size=12),  # ties
                st.lists(st.integers(0, 2**40), min_size=1, max_size=40),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_group_stats_match_moment_oracle(self, runs):
        count = np.asarray([len(run) for run in runs])
        values = np.concatenate([np.sort(np.asarray(run, dtype=np.float64)) for run in runs])
        got = _group_stats(values, np.cumsum(count) - count, count)
        want = [moment_stats(run) for run in runs]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("weeks", [1, 2, 29, 30])
    def test_median_is_np_median_bitwise(self, weeks):
        rng = np.random.default_rng(weeks)
        counts = np.floor(rng.pareto(1.0, size=(40, weeks, 18)) * 10)  # many ties
        spread = rng.uniform(-50, 50, size=(40, weeks, 18))
        for x in (counts, spread):
            before = x.copy()
            got = np.ascontiguousarray(column_stats(x)[..., 1])
            assert got.tobytes() == np.median(x, axis=1).tobytes()
            column_stats(x[:1])  # one row's runs can be a view of the tensor
            assert x.tobytes() == before.tobytes()

    def test_heavy_tailed_weeks_match_moment_oracle(self):
        rng = np.random.default_rng(5)
        # weekly durations in seconds: Pareto tails up to 1e7, a lone busy
        # week in an idle stretch, and constant series
        weeks = np.minimum(np.floor(rng.pareto(0.7, size=(48, 30, 18)) * 100), 1e7)
        weeks[:8] = 0.0
        weeks[:8, 17] = 1e7
        weeks[8:16] = rng.integers(0, 10**7, size=(8, 1, 18))
        stats = column_stats(weeks)
        for row in range(weeks.shape[0]):
            for col in range(weeks.shape[2]):
                want = moment_stats(weeks[row, :, col])
                np.testing.assert_allclose(stats[row, col], want, rtol=1e-12, atol=1e-12)
        assert (stats[8:16, :, 5:] == 0).all()  # constant: no skewness or kurtosis


def weekday_calls(daytime: int, evening: int, late_night: int) -> list:
    """Calls from a to b on Mondays of the default window, one per week, at
    10:00, 18:00 and 23:30 local time."""
    hours = [10] * daytime + [18] * evening + [23.5] * late_night
    return [ev("a", "b", JAN1_2007 + k * WEEK + int(h * 3600)) for k, h in enumerate(hours)]


class TestFractionFeatures:
    def test_hand_arithmetic_with_late_night_log(self):
        cols = columns(weekday_calls(10, 5, 5))
        graph = build_links(cols)
        (vec,) = compute_feature_matrix(graph, [AB])
        assert vec[feature_index("frac_weekday_calls_daytime")] == pytest.approx(0.5)
        assert vec[feature_index("frac_weekday_calls_evening")] == pytest.approx(0.25)
        assert vec[feature_index("frac_weekday_calls_late_night")] == pytest.approx(
            math.log1p(0.25)
        )

    def test_all_daytime_texts(self):
        cols = columns([ev("a", "b", JAN1_2007 + k * WEEK + 9 * 3600, "text") for k in range(8)])
        graph = build_links(cols)
        (vec,) = compute_feature_matrix(graph, [AB])
        fracs = [vec[feature_index(f"frac_weekday_texts_{dp}")] for dp in DAYPARTS]
        assert fracs == [1.0, 0.0, 0.0]

    def test_zero_weekpart_yields_zeros(self):
        events = weekday_calls(4, 4, 4)
        events += [ev("b", "a", e.timestamp + 60, "text") for e in events]
        cols = columns(events)
        graph = build_links(cols)
        (vec,) = compute_feature_matrix(graph, [AB])
        weekend = [feature_index(f"frac_weekend_{q}_{dp}") for q in QUANTITIES for dp in DAYPARTS]
        assert (vec[weekend] == 0).all()

    def test_raw_fractions_sum_to_one(self, default_window):
        rng = np.random.default_rng(5)
        events = []
        for _ in range(400):
            ts = int(rng.integers(default_window.start, default_window.end))
            kind = "text" if rng.random() < 0.5 else "call"
            events.append(ev("a", "b", ts, kind, int(rng.integers(1, 900))))
        cols = columns(events)
        graph = build_links(cols)
        (vec,) = compute_feature_matrix(graph, [AB])
        for wp in WEEKPARTS:
            for qty in QUANTITIES:
                chunk = np.asarray([vec[feature_index(f"frac_{wp}_{qty}_{dp}")] for dp in DAYPARTS])
                if qty in ("calls", "duration"):
                    chunk[2] = math.expm1(chunk[2])
                assert chunk.sum() == pytest.approx(1.0, rel=1e-12)


class TestActiveDays:
    def test_same_day_dedup(self):
        cols = columns(
            [
                ev("a", "b", epoch("2007-01-08 08:00:00")),
                ev("a", "b", epoch("2007-01-08 09:00:00")),
            ]
        )
        graph = build_links(cols)
        (vec,) = compute_feature_matrix(graph, [AB])
        out = vec[ACTIVE_DAYS]
        assert out[0] == pytest.approx(math.log1p(1))
        assert out[1:].sum() == 0

    def test_no_texts_all_zero(self):
        cols = columns([ev("a", "b", epoch("2007-01-08 08:00:00"))])
        graph = build_links(cols)
        (vec,) = compute_feature_matrix(graph, [AB])
        assert (vec[ACTIVE_DAYS][6:] == 0).all()

    def test_month_fixture_matches_brute_count(self):
        rng = np.random.default_rng(6)
        window = ObservationWindow.from_dates("2007-01-01", "2007-02-01")
        events = []
        for _ in range(300):
            ts = int(rng.integers(window.start, window.end))
            events.append(ev("a", "b", ts, "text" if rng.random() < 0.5 else "call"))
        out = compute_feature_matrix(build_links(columns(events, window)), [AB])[0][ACTIVE_DAYS]
        brute: dict[tuple[str, int], set] = {}
        for e in events:
            brute.setdefault((e.kind.value, oracle_segment(e.timestamp)), set()).add(
                e.timestamp // DAY
            )
        for kind_idx, kind in enumerate(("call", "text")):
            for seg_idx in range(6):
                want = math.log1p(len(brute.get((kind, seg_idx), set())))
                assert out[kind_idx * 6 + seg_idx] == pytest.approx(want)


RECIPROCITY = [feature_index(f"reciprocity_{q}") for q in QUANTITIES]


def directed_calls(n_ab: int, n_ba: int, start: int) -> list:
    return [ev("a", "b", start + 3600 * i) for i in range(n_ab)] + [
        ev("b", "a", start + 3600 * (n_ab + i)) for i in range(n_ba)
    ]


class TestReciprocity:
    def test_balanced_is_zero(self, default_window):
        cols = columns(directed_calls(7, 7, default_window.start))
        graph = build_links(cols)
        (vec,) = compute_feature_matrix(graph, [AB])
        assert vec[feature_index("reciprocity_calls")] == 0
        assert vec[feature_index("reciprocity_duration")] == 0

    def test_one_sided_is_one(self, default_window):
        cols = columns(directed_calls(10, 0, default_window.start))
        graph = build_links(cols)
        (vec,) = compute_feature_matrix(graph, [AB])
        assert vec[feature_index("reciprocity_calls")] == 1

    def test_three_to_one(self, default_window):
        cols = columns(directed_calls(3, 1, default_window.start))
        graph = build_links(cols)
        (vec,) = compute_feature_matrix(graph, [AB])
        assert vec[feature_index("reciprocity_calls")] == 0.5

    def test_range_and_symmetry(self, default_window):
        # 200 random pairs in one call; reversing every event swaps in and out
        rng = np.random.default_rng(7)
        events = []
        for i in range(200):
            for _ in range(int(rng.integers(1, 30))):
                caller, callee = (f"u{i}", f"v{i}") if rng.random() < 0.5 else (f"v{i}", f"u{i}")
                ts = int(rng.integers(default_window.start, default_window.end))
                kind = "text" if rng.random() < 0.3 else "call"
                events.append(ev(caller, callee, ts, kind, int(rng.integers(0, 900))))
        reversed_events = [
            ev(e.callee_id, e.caller_id, e.timestamp, e.kind.value, e.duration) for e in events
        ]
        pairs = [PairKey.of(f"u{i}", f"v{i}") for i in range(200)]
        cols, reversed_cols = columns(events), columns(reversed_events)
        r = compute_feature_matrix(build_links(cols), pairs)
        r_reversed = compute_feature_matrix(build_links(reversed_cols), pairs)
        assert ((r[:, RECIPROCITY] >= 0) & (r[:, RECIPROCITY] <= 1)).all()
        np.testing.assert_array_equal(r[:, RECIPROCITY], r_reversed[:, RECIPROCITY])


INTEREVENT_CALLS = [feature_index(f"interevent_calls_{stat}") for stat in STATS]


class TestIntereventStats:
    def test_hand_arithmetic(self, default_window):
        cols = columns([ev("a", "b", default_window.start + t) for t in (0, 60, 180, 300)])
        graph = build_links(cols)
        (vec,) = compute_feature_matrix(graph, [AB])
        assert vec[feature_index("interevent_calls_mean")] == pytest.approx(math.log1p(100))
        assert vec[feature_index("interevent_calls_median")] == pytest.approx(math.log1p(120))
        assert vec[feature_index("interevent_calls_min")] == pytest.approx(math.log1p(60))
        assert vec[feature_index("interevent_calls_max")] == pytest.approx(math.log1p(120))

    def test_single_event_sentinel(self, default_window):
        cols = columns([ev("a", "b", default_window.start + 5)])
        graph = build_links(cols)
        (vec,) = compute_feature_matrix(graph, [AB])
        out = vec[INTEREVENT_CALLS]
        np.testing.assert_allclose(out[:5], math.log1p(default_window.n_seconds))
        assert out[5] == 0 and out[6] == 0

    def test_constant_gaps_zero_std(self, default_window):
        cols = columns([ev("a", "b", default_window.start + t) for t in (0, 50, 100, 150)])
        graph = build_links(cols)
        (vec,) = compute_feature_matrix(graph, [AB])
        assert vec[feature_index("interevent_calls_std")] == 0  # log1p(0)

    def test_unsorted_input_is_sorted(self, default_window):
        vectors = []
        for offsets in ((300, 0, 180, 60), (0, 60, 180, 300)):
            cols = columns([ev("a", "b", default_window.start + t) for t in offsets])
            graph = build_links(cols)
            vectors.append(compute_feature_matrix(graph, [AB])[0])
        np.testing.assert_array_equal(vectors[0], vectors[1])

    def test_heavy_tailed_gaps_match_moment_oracle(self):
        window_seconds = 26 * WEEK
        rng = np.random.default_rng(6)
        gaps = []
        for count in rng.integers(1, 80, size=60):
            # log-uniform gaps from 1 s to the window length
            gaps.append(np.round(np.exp(rng.uniform(0, math.log(window_seconds), count))))
        for g in range(6):  # constant gaps, one gap, and the longest gap
            gaps[g] = np.full(g + 1, [1, 60, 3600, 86400, 999_983, window_seconds][g])
        group = np.repeat(np.arange(len(gaps)), [len(g) + 1 for g in gaps])
        ts = np.concatenate([np.cumsum([0, *g]) for g in gaps]).astype(np.int64)
        order = rng.permutation(ts.size)  # the stage sorts each group's times
        out = _interevent(group[order], ts[order], len(gaps), window_seconds)
        for g, series in enumerate(gaps):
            np.testing.assert_allclose(out[g], moment_stats(series), rtol=1e-12, atol=1e-12)
        assert (out[:6, 5:] == 0).all()  # constant gaps: no skewness or kurtosis

    def test_time_span_too_long_for_sort_keys(self):
        # the guard lives in the gap stage; no window holds such a span
        with pytest.raises(DatasetError, match="span too long"):
            _interevent(np.zeros(2, dtype=np.int64), np.asarray([-(2**62), 2**62]), 1, 1000)


def build_pair_fixture(window, seed=9, n=120):
    rng = np.random.default_rng(seed)
    events = []
    for _ in range(n):
        ts = int(rng.integers(window.start, window.end))
        kind = "text" if rng.random() < 0.4 else "call"
        duration = None if kind == "call" and rng.random() < 0.1 else int(rng.integers(1, 900))
        caller, callee = ("p1", "p2") if rng.random() < 0.55 else ("p2", "p1")
        events.append(ev(caller, callee, ts, kind, duration))
    side = [
        ev("p1", "s1", window.start + 100),
        ev("p2", "s1", window.start + 200),
        ev("p1", "s2", window.start + 300),
    ]
    return events, side


P12 = PairKey.of("p1", "p2")
# the columns computed from a pair's own events; the last two count common contacts
EVENT_COLUMNS = N_FEATURES - 2


class TestAssembleFeatureVector:
    """One pair's vector as a one-pair ``compute_feature_matrix`` call."""

    def test_length_and_group_counts(self, default_window):
        assert N_FEATURES == 175
        assert GROUP_SIZES == {
            "weekly_stats": 126,
            "daypart_fractions": 18,
            "active_days": 12,
            "reciprocity": 3,
            "interevent": 14,
            "common_contacts": 2,
        }
        events, side = build_pair_fixture(default_window)
        cols = columns(events + side)
        graph = build_links(cols)
        matrix = compute_feature_matrix(graph, [P12])
        assert matrix.shape == (1, 175)
        assert np.isfinite(matrix).all()

    def test_zero_texts_take_degenerate_values(self, default_window):
        cols = columns([ev("p1", "p2", default_window.start + i * 9999) for i in range(40)])
        graph = build_links(cols)
        (vec,) = compute_feature_matrix(graph, [P12])
        assert vec[feature_index("interevent_texts_mean")] == pytest.approx(
            math.log1p(default_window.n_seconds)
        )
        assert vec[feature_index("weekly_texts_weekday_daytime_mean")] == 0
        assert vec[feature_index("reciprocity_texts")] == 0

    def test_permutation_invariance(self, default_window):
        events, side = build_pair_fixture(default_window)
        cols = columns(events + side)
        graph = build_links(cols)
        base = compute_feature_matrix(graph, [P12])
        rng = np.random.default_rng(0)
        shuffled = columns([(events + side)[i] for i in rng.permutation(len(events + side))])
        graph = build_links(shuffled)
        np.testing.assert_array_equal(base, compute_feature_matrix(graph, [P12]))

    def test_matches_independent_oracle(self, default_window):
        events, side = build_pair_fixture(default_window)
        cols = columns(events + side)
        graph = build_links(cols)
        (vec,) = compute_feature_matrix(graph, [P12])
        (common,) = common_contacts(graph, [P12])
        want = feature_vector_oracle(events, default_window, 0, common)
        np.testing.assert_allclose(vec, want, rtol=1e-12, atol=1e-12)

    def test_oracle_agreement_with_utc_offset(self, default_window):
        events, side = build_pair_fixture(default_window, seed=77)
        cols = columns(events + side)
        graph = build_links(cols)
        offset = 2 * 3600
        (vec,) = compute_feature_matrix(graph, [P12], utc_offset=offset)
        (common,) = common_contacts(graph, [P12])
        want = feature_vector_oracle(events, default_window, offset, common)
        np.testing.assert_allclose(vec, want, rtol=1e-12, atol=1e-12)

    def test_golden_fixture(self, default_window):
        payload = json.loads(
            (Path(__file__).parent / "data" / "golden_pair_features.json").read_text()
        )
        assert payload["feature_names"] == list(FEATURE_NAMES)
        rows = [f"caller_id,callee_id,timestamp,kind,duration"] + payload["event_rows"]
        import io

        from linkcdr.ingest import parse_events

        cols, diags = parse_events(io.BytesIO("\n".join(rows).encode()), default_window)
        assert diags == []
        graph = build_links(cols)
        (pair,) = graph.keys()
        (vec,) = compute_feature_matrix(graph, [pair])
        # splice in the fixture's common-contact counts
        vec[-2] = payload["common_top5"]
        vec[-1] = payload["common_all"]
        want = np.asarray([float(v) for v in payload["values"]])
        np.testing.assert_allclose(vec, want, rtol=1e-12, atol=1e-12)


class TestTransform:
    def test_each_raw_column_takes_its_manifest_transform(self):
        by_name = {
            TRANSFORM_NONE: float,
            TRANSFORM_LOG1P: math.log1p,
            TRANSFORM_SIGNED_LOG1P: _signed_log1p,
        }
        specs = FEATURE_SPECS[:EVENT_COLUMNS]
        assert {spec.transform for spec in FEATURE_SPECS} == set(by_name)
        rng = np.random.default_rng(14)
        raw = rng.exponential(1.0, size=(6, EVENT_COLUMNS)) * 10.0 ** rng.integers(-3, 8, size=(6, 1))
        signed = [spec.transform == TRANSFORM_SIGNED_LOG1P for spec in specs]
        raw[::2, signed] *= -1  # only signed columns take negative values
        raw[-1] = 0.0
        got = raw.copy()
        _transform(got)
        for col, spec in enumerate(specs):
            want = [by_name[spec.transform](v) for v in raw[:, col]]
            np.testing.assert_allclose(got[:, col], want, rtol=1e-14, atol=0, err_msg=spec.name)
            if spec.transform == TRANSFORM_NONE:
                assert got[:, col].tobytes() == raw[:, col].tobytes()


class TestComputeFeatureMatrix:
    def test_matches_per_pair_assembly(self, default_window):
        rng = np.random.default_rng(12)
        users = [f"u{i}" for i in range(6)]
        events = []
        for _ in range(400):
            a, b = rng.choice(6, size=2, replace=False)
            ts = int(rng.integers(default_window.start, default_window.end))
            events.append(ev(users[a], users[b], ts, "text" if rng.random() < 0.3 else "call"))
        cols = columns(events)
        graph = build_links(cols)
        pairs = sorted(graph.keys())[:6]
        pairs.append(pairs[2])  # a repeated pair gets its own identical row
        matrix = compute_feature_matrix(graph, pairs)
        np.testing.assert_array_equal(matrix[:, EVENT_COLUMNS:], common_contacts(graph, pairs))
        for i, pair in enumerate(pairs):
            own = columns([e for e in events if PairKey.of(e.caller_id, e.callee_id) == pair])
            (one_pair,) = compute_feature_matrix(build_links(own), [pair])
            np.testing.assert_array_equal(matrix[i, :EVENT_COLUMNS], one_pair[:EVENT_COLUMNS])


class TestGraphIndex:
    """The kernel selects events through the graph's ``event_link``."""

    def test_filtered_graph_selects_the_same_events(self, default_window):
        events, side = build_pair_fixture(default_window)
        q = [ev("q1", "q2", default_window.start + i * 3 * DAY) for i in range(60)]
        # calls in two months: kept at min_months 2, dropped at 3
        s3 = [ev("p2", "s3", default_window.start + 1000), ev("s3", "p2", epoch("2007-04-02"))]
        cols = columns(events + side + q + s3)
        graph = build_links(cols)
        kept = {m: apply_regularity_filter(graph, m) for m in (2, 3)}
        pairs = mutual_top_rank_pairs(graph, kept[3])
        assert pairs == [P12, PairKey.of("q1", "q2")]
        assert (len(graph), len(kept[2]), len(kept[3])) == (6, 3, 2)
        full = compute_feature_matrix(graph, pairs)
        for links in kept.values():
            matrix = compute_feature_matrix(graph, pairs, 0, links)
            np.testing.assert_array_equal(matrix[:, :EVENT_COLUMNS], full[:, :EVENT_COLUMNS])
            np.testing.assert_array_equal(
                matrix[:, EVENT_COLUMNS:], common_contacts(graph, pairs, links)
            )


def many_pair_events(window: ObservationWindow, n_pairs: int, seed: int, most: int) -> list:
    """Events of ``n_pairs`` pairs, 1 to ``most`` each, mixed calls (some of
    unknown duration) and texts, plus a few links between pairs so common
    contacts count; sorted by time, so the pairs interleave in the file."""
    rng = np.random.default_rng(seed)
    events = []
    for i in range(n_pairs):
        for _ in range(int(rng.integers(1, most + 1))):
            caller, callee = (f"a{i}", f"b{i}") if rng.random() < 0.5 else (f"b{i}", f"a{i}")
            kind = "text" if rng.random() < 0.4 else "call"
            duration = None if rng.random() < 0.1 else int(rng.integers(0, 900))
            ts = int(rng.integers(window.start, window.end))
            events.append(ev(caller, callee, ts, kind, duration))
    for i in range(0, n_pairs - 1, 3):
        events.append(ev(f"a{i}", f"a{i + 1}", window.start + i))
    return sorted(events, key=lambda e: e.timestamp)


class TestRowBlocks:
    """The kernel over blocks of ``features.ROW_BLOCK`` output rows."""

    @pytest.mark.parametrize("offset", [0, 19800])
    def test_block_size_moves_no_bit(self, monkeypatch, default_window, offset):
        graph = build_links(columns(many_pair_events(default_window, 30, 31, 40)))
        rng = np.random.default_rng(32)
        keys = graph.keys()
        pairs = [keys[i] for i in rng.permutation(len(keys))] + keys[:3]  # shuffled, repeats
        n_rows = len(keys)
        monkeypatch.setattr(features, "ROW_BLOCK", n_rows)
        whole = compute_feature_matrix(graph, pairs, offset)
        for block in (1, 7, n_rows - 1, n_rows + 5):
            monkeypatch.setattr(features, "ROW_BLOCK", block)
            got = compute_feature_matrix(graph, pairs, offset)
            assert got.tobytes() == whole.tobytes(), block
        for i, pair in enumerate(pairs[:5]):
            (one_pair,) = compute_feature_matrix(graph, [pair], offset)
            assert one_pair.tobytes() == whole[i].tobytes()

    def test_temporaries_do_not_grow_with_the_rows(self, monkeypatch, default_window):
        """The kernel's traced peak above its output at 4 and at 16 blocks of
        16 rows: it holds one block's temporaries, its per-row indices and 4
        bytes per event for each of the row lookup and the grouped positions,
        so the 16-block overhead may exceed the 4-block one by at most a
        quarter. Computing every row at once makes it about 4 times larger."""
        monkeypatch.setattr(features, "ROW_BLOCK", 16)

        def overhead(n_blocks: int) -> int:
            graph = build_links(columns(many_pair_events(default_window, 16 * n_blocks, 33, 16)))
            pairs = [PairKey.of(f"a{i}", f"b{i}") for i in range(16 * n_blocks)]
            compute_feature_matrix(graph, pairs[:20])  # warm caches
            tracemalloc.start()
            try:
                matrix = compute_feature_matrix(graph, pairs)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert matrix.shape == (len(pairs), N_FEATURES)
            return peak - kept

        small, large = overhead(4), overhead(16)
        assert large <= 1.25 * small, (small, large)

    def test_temporaries_do_not_grow_with_the_links(self, monkeypatch, default_window):
        """The kernel's traced peak above its output for 64 pairs in blocks
        of one row, in a graph with 8,192 and with 16,384 more links of one
        event each. Common contacts, which count over the links, are left
        out. Each further link may add at most 12 bytes. It reads 8.2:
        ``LinkGraph.index`` holds one int64 per link, and the row lookup and
        each event's row are int32. Stacking the graph's reciprocity
        counters in each block before taking its rows reads 24."""
        monkeypatch.setattr(features, "ROW_BLOCK", 1)
        monkeypatch.setattr(
            features, "common_contacts", lambda graph, pairs, links: np.zeros((len(pairs), 2))
        )
        pairs = [PairKey.of(f"a{i}", f"b{i}") for i in range(64)]
        planted = many_pair_events(default_window, 64, 34, 16)

        def overhead(n_extra: int) -> int:
            extra = [ev(f"c{i}", f"d{i}", default_window.start + i) for i in range(n_extra)]
            graph = build_links(columns(sorted(planted + extra, key=lambda e: e.timestamp)))
            compute_feature_matrix(graph, pairs[:20])  # warm caches
            tracemalloc.start()
            try:
                matrix = compute_feature_matrix(graph, pairs)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert matrix.shape == (len(pairs), N_FEATURES)
            return peak - kept

        n = 8192
        small, large = overhead(n), overhead(2 * n)
        assert large - small <= 12 * n, (small, large)


# A month-aligned window that ends mid-week, and one that starts on a
# Wednesday and ends mid-month, so events fall outside the full weeks; the
# last two hold exactly one full Monday-aligned week.
KERNEL_WINDOWS = (
    ObservationWindow.default(),
    ObservationWindow.from_dates("2007-01-03", "2007-02-20"),
    *ONE_WEEK_WINDOWS,
)


@st.composite
def multi_pair_events(draw):
    """Events of 1-4 pairs over six users; each pair sends calls only,
    texts only, or both, and some calls have unknown durations."""
    window = draw(st.sampled_from(KERNEL_WINDOWS))
    # a 7-day window holds a full local week at UTC offset 0 only
    offsets = (0,) if window.n_seconds == WEEK else (0, 7200, -5 * 3600, 19800)
    offset = draw(st.sampled_from(offsets))
    codes = draw(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda p: p[0] != p[1]),
            min_size=1,
            max_size=4,
            unique_by=lambda p: frozenset(p),
        )
    )
    events = []
    for a, b in codes:
        kinds = draw(st.sampled_from((("call",), ("text",), ("call", "text"))))
        for _ in range(draw(st.integers(1, 12))):
            caller, callee = (a, b) if draw(st.booleans()) else (b, a)
            ts = window.start + draw(st.integers(0, window.n_seconds - 1))
            kind = draw(st.sampled_from(kinds))
            duration = draw(st.one_of(st.none(), st.integers(0, 3600)))
            events.append(ev(f"u{caller}", f"u{callee}", ts, kind, duration))
    events.sort(key=lambda e: e.timestamp)  # interleave the pairs
    return window, offset, events


class TestKernelDifferential:
    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(multi_pair_events())
    def test_rows_match_oracle_and_one_pair_assembly(self, case):
        window, offset, events = case
        graph = build_links(columns(events, window))
        pairs = sorted(graph.keys())
        matrix = compute_feature_matrix(graph, pairs, utc_offset=offset)
        assert matrix.shape == (len(pairs), N_FEATURES)
        for row, pair, common in zip(matrix, pairs, common_contacts(graph, pairs)):
            own = [e for e in events if PairKey.of(e.caller_id, e.callee_id) == pair]
            want = feature_vector_oracle(own, window, offset, common)
            np.testing.assert_allclose(row, want, rtol=1e-12, atol=1e-12)
            (one_pair,) = compute_feature_matrix(build_links(columns(own, window)), [pair], offset)
            np.testing.assert_array_equal(row[:EVENT_COLUMNS], one_pair[:EVENT_COLUMNS])


class TestScaler:
    def test_hand_column(self):
        params = fit_scaler(np.asarray([[1.0], [2.0], [3.0]]))
        assert params.mean[0] == 2
        assert params.std[0] == pytest.approx(math.sqrt(2 / 3), rel=1e-12)
        z = apply_scaler(np.asarray([[1.0], [2.0], [3.0]]), params)
        np.testing.assert_allclose(z[:, 0], [-1.22474487, 0, 1.22474487], rtol=1e-8)

    def test_idempotent_on_standardized_input(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((400, 3))
        z = apply_scaler(x, fit_scaler(x))
        params = fit_scaler(z)
        np.testing.assert_allclose(params.mean, 0, atol=1e-12)
        np.testing.assert_allclose(params.std, 1, atol=1e-12)
        np.testing.assert_allclose(apply_scaler(z, params), z, atol=1e-10)

    def test_constant_column_named(self):
        x = np.ones((10, 2))
        x[:, 0] = np.arange(10)
        with pytest.raises(DatasetError, match="at fit time: 1$"):
            fit_scaler(x)

    def test_constant_manifest_column_named(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((20, 175))
        x[:, 3] = 5.0
        with pytest.raises(DatasetError, match=FEATURE_NAMES[3]):
            fit_scaler(x)

    def test_apply_uses_training_parameters(self):
        rng = np.random.default_rng(16)
        train = rng.standard_normal((100, 4)) * 3 + 1
        other = rng.standard_normal((50, 4))
        params = fit_scaler(train)
        z_other = apply_scaler(other, params)
        np.testing.assert_allclose(z_other, (other - params.mean) / params.std)


class TestSegmentPartitionInvariant:
    def test_weekly_cells_reproduce_totals_on_aligned_window(self):
        # window exactly covered by full weeks: every event falls in exactly
        # one (week, segment) cell, so cell sums reproduce the pair totals
        window = ObservationWindow.from_dates("2007-01-01", "2007-07-30")
        rng = np.random.default_rng(21)
        events = []
        n_calls = n_texts = 0
        duration_total = 0
        for _ in range(400):
            ts = int(rng.integers(window.start, window.end))
            if rng.random() < 0.4:
                events.append(ev("a", "b", ts, "text"))
                n_texts += 1
            else:
                d = int(rng.integers(1, 300))
                events.append(ev("a", "b", ts, "call", d))
                n_calls += 1
                duration_total += d
        cols = columns(events)
        one_row = _Events.select(cols, slice(None), np.zeros(len(cols), dtype=np.int64), 0)
        calls, durations, texts = np.split(
            _weekly_tensor(one_row, 1, WeekGrid.from_window(window))[0, :-1], 3, axis=1
        )
        assert calls.sum() == n_calls
        assert texts.sum() == n_texts
        assert durations.sum() == duration_total
