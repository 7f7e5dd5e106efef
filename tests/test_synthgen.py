"""Generator determinism, planted structure, and event-law checks."""

from __future__ import annotations

import io
import math
import re
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import planted_factor_membership, read_truth_csv
from linkcdr import synthgen
from linkcdr.errors import ConfigError
from linkcdr.features import WeekGrid, _local_parts
from linkcdr.ingest import (
    EVENTS_HEADER,
    EventColumns,
    ObservationWindow,
    parse_events,
    validate_dataset,
)
from linkcdr.manifest import SEGMENT_OF_HOUR
from linkcdr.presets import PRESETS, planted_factors, table3_like
from linkcdr.relations import label_relationship
from linkcdr.synthgen import (
    ArchetypeConfig,
    BackgroundConfig,
    GeneratorConfig,
    _distinct_draws,
    _event_order,
    _write_event_rows,
    generate,
    verify_planted,
    write_dataset,
)
from oracles import _local, event_rows_reference


def small_archetype(**overrides) -> ArchetypeConfig:
    base = dict(
        code="-M peers",
        prevalence=1.0,
        call_rates=(1.0, 1.5, 0.5, 1.0, 1.2, 0.5),
        text_rates=(1.0, 1.0, 0.5, 0.8, 0.8, 0.4),
        duration_log_mean=4.5,
        duration_log_std=0.8,
        direction_skew=0.5,
    )
    base.update(overrides)
    return ArchetypeConfig(**base)


def small_config(n_pairs=40, seed=5, **overrides) -> GeneratorConfig:
    base = dict(
        n_pairs=n_pairs,
        seed=seed,
        archetypes=(small_archetype(),),
        background=BackgroundConfig(side_links=2, rate_multiplier=0.05),
    )
    base.update(overrides)
    return GeneratorConfig(**base)


class TestGenerate:
    def test_same_seed_byte_identical(self, tmp_path):
        for run in ("a", "b"):
            write_dataset(generate(small_config()), tmp_path / run)
        for name in ("events.csv", "subscribers.csv", "truth.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_different_seed_differs(self, tmp_path):
        write_dataset(generate(small_config(seed=5)), tmp_path / "a")
        write_dataset(generate(small_config(seed=6)), tmp_path / "b")
        assert (tmp_path / "a" / "events.csv").read_bytes() != (
            tmp_path / "b" / "events.csv"
        ).read_bytes()

    def test_truth_row_count(self):
        dataset = generate(small_config(n_pairs=100))
        assert len(dataset.truth) == 100

    def test_truth_round_trip(self, tmp_path):
        dataset = generate(small_config())
        paths = write_dataset(dataset, tmp_path)
        assert read_truth_csv(paths["truth"]) == dataset.truth

    def test_generated_events_parse_cleanly(self, tmp_path):
        config = small_config()
        dataset = generate(config)
        paths = write_dataset(dataset, tmp_path)
        with open(paths["events"], "rb") as handle:
            cols, diagnostics = parse_events(handle, config.window)
        assert diagnostics == []
        assert len(cols) == len(dataset.columns)
        report = validate_dataset(cols, dataset.subscribers)
        assert report.ok
        assert report.n_unknown_duration_calls > 0  # background calls arrive unknown

    def test_columns_carry_the_config_window(self):
        config = small_config(window=ObservationWindow.from_dates("2007-02-01", "2007-05-01"))
        assert generate(config).columns.window is config.window

    def test_text_events_have_zero_duration(self):
        dataset = generate(small_config())
        texts = ~dataset.columns.is_call
        assert (dataset.columns.duration[texts] == 0).all()

    def test_unknown_durations_only_from_background_callers(self):
        dataset = generate(small_config())
        unknown = dataset.columns.duration < 0
        callers = [dataset.columns.users[c] for c in dataset.columns.caller[unknown]]
        assert callers and all(c.startswith("b") for c in callers)

    def test_unknown_duration_fraction_zero(self):
        config = small_config(
            background=BackgroundConfig(side_links=2, rate_multiplier=0.05,
                                        unknown_duration_fraction=0.0)
        )
        dataset = generate(config)
        assert (dataset.columns.duration >= 0).all()

    def test_ages_respect_archetype_ranges(self):
        dataset = generate(small_config(n_pairs=80))
        for planted in dataset.truth:
            younger = min(planted.age_first, planted.age_second)
            gap = abs(planted.age_first - planted.age_second)
            assert 29 <= younger <= 45
            assert 0 <= gap <= 19
            assert planted.gender_first != planted.gender_second

    @pytest.mark.parametrize("channel", ["calls", "texts"])
    @pytest.mark.parametrize("segment", range(6))
    def test_poisson_weekly_mean(self, segment, channel):
        # pooled counts of one (channel, segment) cell over full weeks obey the rate
        rate = 4.0
        rates = tuple(rate if s == segment else 0.0 for s in range(6))
        zero = (0.0,) * 6
        config = small_config(
            n_pairs=60,
            archetypes=(small_archetype(call_rates=rates if channel == "calls" else zero,
                                        text_rates=rates if channel == "texts" else zero),),
            background=BackgroundConfig(side_links=0, rate_multiplier=0.0),
            pair_activity_sigma=0.0,
        )
        dataset = generate(config)
        cols = dataset.columns
        grid = WeekGrid.from_window(config.window, 0)
        day, seg = _local_parts(cols.timestamp, 0)
        widx = grid.week_index(day)
        on_channel = cols.is_call if channel == "calls" else ~cols.is_call
        assert on_channel.all()
        in_full_weeks = (widx < grid.n_weeks) & on_channel
        n_cells = 60 * grid.n_weeks
        mean_count = in_full_weeks.sum() / n_cells
        tolerance = 3 * np.sqrt(rate / n_cells)
        assert abs(mean_count - rate) < tolerance
        assert (seg[in_full_weeks] == segment).all()

    def test_direction_skew(self):
        skew = 0.8
        config = small_config(
            n_pairs=50,
            archetypes=(small_archetype(direction_skew=skew),),
            background=BackgroundConfig(side_links=0, rate_multiplier=0.0),
        )
        cols = generate(config).columns
        # user 2i ("u...even") is the canonical-first user of planted pair i
        share = float(np.mean(cols.caller % 2 == 0))
        assert abs(share - skew) < 3 * np.sqrt(skew * (1 - skew) / len(cols))

    def test_side_links_reach_distinct_pool_users(self):
        side_links = 3
        config = small_config(
            n_pairs=40,
            background=BackgroundConfig(side_links=side_links, rate_multiplier=2.0, pool_size=4),
        )
        dataset = generate(config)
        cols, n_users = dataset.columns, 2 * config.n_pairs
        contacts: dict[int, set[int]] = {u: set() for u in range(n_users)}
        for a, b in zip(cols.caller.tolist(), cols.callee.tolist()):
            for ego, alter in ((a, b), (b, a)):
                if ego < n_users and alter >= n_users:
                    contacts[ego].add(alter)
        assert all(len(pool) == side_links for pool in contacts.values())
        assert all(cols.users[c].startswith("b") for pool in contacts.values() for c in pool)

    def test_distinct_draws_uniform_over_subsets(self):
        rows = 6000
        chosen = _distinct_draws(np.random.default_rng(3), rows, 2, 4)
        assert (chosen[:, 0] != chosen[:, 1]).all()
        assert ((chosen >= 0) & (chosen < 4)).all()
        subsets = Counter(tuple(sorted(r)) for r in chosen.tolist())
        assert len(subsets) == 6
        expected = rows / 6
        sd = np.sqrt(expected * (1 - 1 / 6))
        assert all(abs(count - expected) < 4 * sd for count in subsets.values())

    def test_prevalence_allocation_exact(self):
        archetypes = (
            small_archetype(code="-M peers", prevalence=0.61),
            small_archetype(code="+M peers", prevalence=0.29),
            small_archetype(code="M child", prevalence=0.10),
        )
        dataset = generate(small_config(n_pairs=2000, archetypes=archetypes))
        codes = [p.code for p in dataset.truth]
        for code, want in (("-M peers", 0.61), ("+M peers", 0.29), ("M child", 0.10)):
            share = codes.count(code) / 2000
            assert abs(share - want) <= 0.02

    def test_infeasible_prevalence_rounding(self):
        archetypes = (
            small_archetype(code="-M peers", prevalence=0.999),
            small_archetype(code="+M peers", prevalence=0.001),
        )
        with pytest.raises(ConfigError, match="rounding"):
            generate(small_config(n_pairs=3, archetypes=archetypes))

    def test_prevalences_must_sum_to_one(self):
        with pytest.raises(ConfigError, match="sum"):
            generate(small_config(archetypes=(small_archetype(prevalence=0.5),)))


class TestArchetypeCodes:
    @pytest.mark.parametrize(
        "code, match",
        [
            ("a", "not a peer or child code"),
            ("Y grandchild", "not a peer or child code"),
            ("-80+ peers", "ages can exceed 120"),
        ],
    )
    def test_code_without_a_plantable_law(self, code, match):
        with pytest.raises(ConfigError, match=f"^'?{re.escape(code)}'?: {match}"):
            small_config(archetypes=(small_archetype(code=code),)).validate()

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @pytest.mark.parametrize("seed", [1, 2])
    def test_planted_pairs_label_as_their_code(self, preset, seed):
        dataset = generate(PRESETS[preset](1500, seed))
        subscribers = dataset.subscribers
        mismatched = [
            p.code
            for p in dataset.truth
            if label_relationship(subscribers[p.first], subscribers[p.second]).code != p.code
        ]
        assert len(dataset.truth) == 1500 and mismatched == []


class TestSortKeyBound:
    # 2**30 users: 2 * (2**29 - 16) planted and a pool of 32
    N_PAIRS, POOL = 2**29 - 16, 32

    def config(self, n_seconds: int) -> GeneratorConfig:
        return small_config(
            n_pairs=self.N_PAIRS,
            window=ObservationWindow(0, n_seconds),
            background=BackgroundConfig(pool_size=self.POOL),
        )

    def test_key_that_fits_passes(self):
        self.config(2**33 - 1).validate()

    def test_key_that_reaches_two_to_the_63_is_rejected(self):
        with pytest.raises(ConfigError, match=r"8589934592 s times 1073741824 users"):
            self.config(2**33).validate()


class TestCodeBound:
    """User codes, an event's link index and the event positions are int32;
    the bounds are patched, so nothing large is allocated. 400 pairs with
    two side links per user make 832 users (a pool of 32) and 2,000 links."""

    def test_codes_and_columns_are_int32(self):
        cols = generate(small_config()).columns
        assert cols.caller.dtype == cols.callee.dtype == np.int32

    def test_users_past_the_bound(self, monkeypatch):
        monkeypatch.setattr(synthgen, "MAX_USERS", 832)
        small_config(n_pairs=400).validate()
        monkeypatch.setattr(synthgen, "MAX_USERS", 831)
        with pytest.raises(ConfigError, match="832 users: int32 user codes hold at most 831"):
            small_config(n_pairs=400).validate()

    def test_links_past_the_bound(self, monkeypatch):
        monkeypatch.setattr(synthgen, "MAX_USERS", 2000)
        generate(small_config(n_pairs=400))
        monkeypatch.setattr(synthgen, "MAX_USERS", 1999)
        with pytest.raises(ConfigError, match="2000 links: an event's int32 link index"):
            generate(small_config(n_pairs=400))

    def test_events_past_the_bound(self, monkeypatch):
        n_events = len(generate(small_config()).columns)
        monkeypatch.setattr(synthgen, "MAX_EVENTS", n_events)
        generate(small_config())
        monkeypatch.setattr(synthgen, "MAX_EVENTS", n_events - 1)
        with pytest.raises(ConfigError, match=f"{n_events} events: int32 event positions"):
            generate(small_config())


class TestGenerateMemory:
    def test_traced_peak_per_event(self):
        """``generate``'s tracemalloc peak per event it returns, at 200
        ``table3-like`` pairs (100,550 events). It reads 36.0 bytes, set by
        the column permutation: the int64 sort key and durations (two
        copies), the int32 callee and order, and the kinds. The bound of 41
        leaves about 14% headroom; int64 caller and callee gathers read 44.1."""
        config = PRESETS["table3-like"](200, 3, ObservationWindow.default())
        generate(config)  # warm caches
        tracemalloc.start()
        try:
            events = len(generate(config).columns)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 41 * events, peak / events


class TestBackgroundValidation:
    @pytest.mark.parametrize(
        "background, match",
        [
            (BackgroundConfig(side_links=40, pool_size=32), "exceeds the pool"),
            (BackgroundConfig(side_links=-1), "negative"),
            (BackgroundConfig(pool_size=-5), "pool_size"),
            (BackgroundConfig(pool_size=0), "pool_size"),
        ],
        ids=["side-links-over-pool", "negative-side-links", "negative-pool", "empty-pool"],
    )
    def test_rejected(self, background, match):
        with pytest.raises(ConfigError, match=match):
            generate(small_config(n_pairs=400, background=background))

    def test_default_pool_bounds_side_links(self):
        # 400 pairs give the default pool of max(32, 400 // 16) = 32 users
        small_config(n_pairs=400, background=BackgroundConfig(side_links=32)).validate()
        with pytest.raises(ConfigError, match="exceeds the pool of 32"):
            small_config(n_pairs=400, background=BackgroundConfig(side_links=33)).validate()

    def test_side_links_may_fill_the_pool(self):
        config = small_config(
            n_pairs=10, background=BackgroundConfig(side_links=3, pool_size=3)
        )
        dataset = generate(config)
        assert len(dataset.columns.users) == 2 * 10 + 3


class TestScaleValidation:
    """``validate`` names the key of a scale that is not finite and
    nonnegative, and of an unknown-duration fraction outside [0, 1]."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -0.5])
    @pytest.mark.parametrize(
        "key", ["pair_activity_sigma", "duration_jitter_sigma", "background.rate_multiplier"]
    )
    def test_scale_rejected(self, key, value):
        config = small_config()
        owner, _, name = key.rpartition(".")
        if owner:
            config = replace(config, background=replace(config.background, **{name: value}))
        else:
            config = replace(config, **{name: value})
        message = f"{key} {value} must be finite and nonnegative"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            config.validate()

    @pytest.mark.parametrize("value", [-0.1, 1.5, math.nan])
    def test_unknown_duration_fraction_rejected(self, value):
        background = replace(small_config().background, unknown_duration_fraction=value)
        message = f"background.unknown_duration_fraction {value} must lie in [0, 1]"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            small_config(background=background).validate()


class TestRunValidation:
    """``validate`` names the key of a pair count, seed or UTC offset out of
    range; ``generate`` checks its flags first, so only library callers
    reach these."""

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("n_pairs", 0, "n_pairs must be positive"),
            ("n_pairs", -3, "n_pairs must be positive"),
            ("seed", -1, "seed -1 must be non-negative"),
            ("utc_offset", 50401, "utc_offset 50401 must lie in -50400..50400"),
            ("utc_offset", -50401, "utc_offset -50401 must lie in -50400..50400"),
        ],
    )
    def test_rejected(self, key, value, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            small_config(**{key: value}).validate()

    def test_bounds_accepted(self):
        small_config(n_pairs=1, seed=0).validate()
        for utc_offset in (-50400, 50400):
            small_config(utc_offset=utc_offset).validate()


class TestSlotMapping:
    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        utc_offset=st.integers(-14 * 3600, 14 * 3600),
        segment=st.integers(0, 5),
        channel=st.sampled_from(["calls", "texts"]),
    )
    def test_events_land_in_their_drawn_segment(self, seed, utc_offset, segment, channel):
        rates = tuple(6.0 if s == segment else 0.0 for s in range(6))
        zero = (0.0,) * 6
        config = small_config(
            n_pairs=4,
            seed=seed,
            utc_offset=utc_offset,
            archetypes=(small_archetype(call_rates=rates if channel == "calls" else zero,
                                        text_rates=rates if channel == "texts" else zero),),
            background=BackgroundConfig(side_links=1, rate_multiplier=0.5, pool_size=2),
        )
        cols = generate(config).columns
        assert len(cols) > 0
        _, seg = _local_parts(cols.timestamp, utc_offset)
        assert (seg == segment).all()
        assert (cols.timestamp >= config.window.start).all()
        assert (cols.timestamp < config.window.end).all()

    @pytest.mark.parametrize("utc_offset", [0, 19800, -34200])
    @pytest.mark.parametrize("segment", range(6))
    def test_every_hour_of_the_segment_is_reached(self, segment, utc_offset):
        rates = tuple(300.0 if s == segment else 0.0 for s in range(6))
        config = small_config(
            n_pairs=2,
            utc_offset=utc_offset,
            archetypes=(small_archetype(call_rates=rates, text_rates=(0.0,) * 6),),
            background=BackgroundConfig(side_links=0, rate_multiplier=0.0),
        )
        local_hours = np.unique((generate(config).columns.timestamp + utc_offset) // 3600)
        local = [_local(3600 * hour, 0) for hour in local_hours.tolist()]
        reached = {24 * dt.weekday() + dt.hour for dt in local}
        assert reached == {h for h, s in enumerate(SEGMENT_OF_HOUR) if s == segment}


@st.composite
def _dense_ties(draw):
    """(ts, caller, callee, is_call, duration, start, n_users) of events over
    at most 3 users and 3 seconds, where events repeat a few (ts, caller,
    callee) triples and differ only in kind or duration."""
    n_users = draw(st.integers(2, 3))
    start = draw(st.integers(-(10**9), 10**9))
    triple = st.tuples(
        st.integers(start, start + 2), st.integers(0, n_users - 1), st.integers(1, n_users - 1)
    )
    triples = draw(st.lists(triple, min_size=1, max_size=6))
    rows = draw(st.lists(
        st.tuples(st.integers(0, len(triples) - 1), st.booleans(), st.integers(-1, 3)),
        max_size=40,
    ))
    ts, caller, step = (np.array([triples[i][k] for i, _, _ in rows], dtype=np.int64)
                        for k in range(3))
    is_call = np.array([c for _, c, _ in rows], dtype=bool)
    duration = np.array([d for _, _, d in rows], dtype=np.int64)
    return ts, caller, (caller + step) % n_users, is_call, duration, start, n_users


def _reverse_tie_runs(order: np.ndarray, key: np.ndarray) -> tuple[np.ndarray, int]:
    """``order`` with each run of equal ``key[order]`` reversed, and the
    number of runs longer than one."""
    sorted_key = key[order]
    starts = np.flatnonzero(np.r_[True, sorted_key[1:] != sorted_key[:-1]])
    ends = np.r_[starts[1:], len(key)]
    run = np.repeat(np.arange(len(starts)), ends - starts)
    at = starts[run] + ends[run] - 1 - np.arange(len(key))
    return order[at], int((ends - starts > 1).sum())


class TestEventOrder:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(_dense_ties())
    def test_matches_stable_lexsort(self, case):
        ts, caller, callee, is_call, duration, start, n_users = case
        order, key = _event_order((ts - start) * n_users + caller, callee)
        want = np.lexsort((callee, caller, ts))
        np.testing.assert_array_equal(order, want)
        np.testing.assert_array_equal(is_call[order], is_call[want])
        np.testing.assert_array_equal(duration[order], duration[want])
        sorted_ts, sorted_caller = np.divmod(key, n_users)
        np.testing.assert_array_equal(sorted_ts + start, ts[want])
        np.testing.assert_array_equal(sorted_caller, caller[want])

    @pytest.mark.parametrize("seed", [3, 4])
    def test_generated_columns_are_in_stable_order(self, seed):
        cols = generate(small_config(n_pairs=300, seed=seed, utc_offset=19800)).columns
        order = np.lexsort((cols.callee, cols.caller, cols.timestamp))
        np.testing.assert_array_equal(order, np.arange(len(cols)))

    def test_tie_order_of_the_quicksort_does_not_matter(self, monkeypatch):
        # two busy links over one week: many events share a second and a caller
        config = small_config(
            n_pairs=2,
            window=ObservationWindow.from_dates("2007-01-01", "2007-01-08"),
            archetypes=(small_archetype(call_rates=(900.0,) * 6, text_rates=(900.0,) * 6),),
            background=BackgroundConfig(side_links=0),
        )
        plain = generate(config).columns
        runs = []
        quicksort = np.argsort

        def reversed_ties(a, *args, **kwargs):
            order = quicksort(a, *args, **kwargs)
            if args or kwargs:  # only the default kind is a quicksort
                return order
            order, n_runs = _reverse_tie_runs(order, a)
            runs.append(n_runs)
            return order

        monkeypatch.setattr(np, "argsort", reversed_ties)
        shuffled = generate(config).columns
        assert len(runs) == 1 and runs[0] >= 10
        for name in ("caller", "callee", "timestamp", "is_call", "duration"):
            np.testing.assert_array_equal(getattr(shuffled, name), getattr(plain, name))


# at most 4 UTF-8 bytes a character, so at most 64 bytes an id
_EVENT_IDS = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=16),
    st.sampled_from(["a", "#", "x" * 64, "é" * 32, "\U0001f4de" * 16, "u" * 60 + "-\u00e9#"]),
)


@st.composite
def _event_columns(draw) -> EventColumns:
    """Columns over ids of 1-64 UTF-8 bytes, with timestamps of every sign
    and digit count and durations from unknown to int64's maximum."""
    users = draw(st.lists(_EVENT_IDS, min_size=1, max_size=6, unique=True))
    n = draw(st.integers(0, 12))
    codes = st.integers(0, len(users) - 1)
    ts = st.one_of(
        st.sampled_from([0, -1, 7, -7, 10**17, -(10**17), 2**63 - 1, -(2**63)]),
        st.integers(-9, 9),
        st.integers(-(2**63), 2**63 - 1),
    )
    dur = st.one_of(st.sampled_from([-1, 0, 9, 10, 2**63 - 1]), st.integers(0, 2**63 - 1))

    def column(values, dtype):
        return np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=dtype)

    return EventColumns(
        column(codes, np.int64), column(codes, np.int64), column(ts, np.int64),
        column(st.booleans(), bool), column(dur, np.int64), users, ObservationWindow.default(),
    )


class TestEventWrite:
    @pytest.mark.parametrize("block_rows", [1, 997])
    def test_block_write_matches_all_at_once(self, block_rows):
        cols = generate(small_config(n_pairs=20)).columns
        assert len(cols) > 2 * 997
        out = io.BytesIO()
        _write_event_rows(out, cols, block_rows)
        assert out.getvalue() == event_rows_reference(cols)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(cols=_event_columns(), data=st.data())
    def test_matches_reference_bytes(self, cols, data):
        edges = {1, 2} | {max(1, len(cols) + d) for d in (-1, 0, 1)}
        block_rows = data.draw(st.sampled_from(sorted(edges)))
        names = ("caller", "callee", "timestamp", "is_call", "duration")
        before = {name: getattr(cols, name).copy() for name in names}
        out = io.BytesIO()
        _write_event_rows(out, cols, block_rows)
        assert out.getvalue() == event_rows_reference(cols)
        for name, column in before.items():  # the writer reads its columns only
            np.testing.assert_array_equal(getattr(cols, name), column)

    @pytest.mark.parametrize("top", [9, 2**32 - 1, 2**32, 2**64 - 1])  # uint32 and uint64 paths
    def test_digits_leave_the_magnitudes_unchanged(self, top):
        mag = np.array([0, 7, 10, 99, top], dtype=np.uint64)
        copy = mag.copy()
        out = np.zeros((len(mag), len(str(int(mag.max())))), dtype=np.uint8)
        keep = np.zeros(out.shape, dtype=bool)
        synthgen._digits(out, keep, mag)
        np.testing.assert_array_equal(mag, copy)
        assert [row[k].tobytes().decode() for row, k in zip(out, keep)] == list(
            map(str, copy.tolist())
        )

    def test_events_csv_is_header_plus_rows(self, tmp_path):
        dataset = generate(small_config(n_pairs=20))
        paths = write_dataset(dataset, tmp_path)
        with open(paths["events"], "rb") as handle:
            data = handle.read()
        assert data == EVENTS_HEADER.encode() + b"\n" + event_rows_reference(dataset.columns)


class TestVerifyPlanted:
    def test_no_background_gives_full_recovery(self):
        config = small_config(
            background=BackgroundConfig(side_links=0, rate_multiplier=0.0)
        )
        dataset = generate(config)
        report = verify_planted(dataset.columns, dataset.truth)
        assert report.recovered_fraction == 1.0
        assert report.ok

    def test_default_preset_recovery(self):
        config = table3_like(400, seed=2)
        dataset = generate(config)
        report = verify_planted(dataset.columns, dataset.truth)
        assert report.recovered_fraction >= 0.99
        assert report.ok

    def test_pathological_multiplier_flagged(self):
        config = small_config(
            n_pairs=30,
            background=BackgroundConfig(side_links=3, rate_multiplier=10.0),
        )
        dataset = generate(config)
        report = verify_planted(dataset.columns, dataset.truth)
        assert report.recovered_fraction < 0.99
        assert not report.ok
        assert report.missing


class TestPresets:
    def test_preset_registry(self):
        assert set(PRESETS) == {"table3-like", "planted-factors"}

    def test_table3_prevalences_normalized(self):
        config = table3_like(100, seed=0)
        assert sum(a.prevalence for a in config.archetypes) == pytest.approx(1.0, abs=1e-12)
        codes = [a.code for a in config.archetypes]
        assert "-Y peers" in codes and "L child" in codes

    def test_planted_factors_has_five_groups(self):
        config = planted_factors(100, seed=0)
        assert len(config.factor_groups) == 5
        assert config.pair_activity_sigma == 0.0

    def test_membership_names_are_valid(self):
        groups = planted_factor_membership()
        assert len(groups) == 5
        assert sum(len(v) for v in groups.values()) == 60

