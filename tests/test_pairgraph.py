"""Graph layer versus brute-force oracles, plus relationship labelling."""

from __future__ import annotations

import io
import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import columns, ev, format_event_row, ranked_alters
from linkcdr.errors import ConfigError, DatasetError
from linkcdr import pairgraph
from linkcdr.ingest import (
    EVENTS_HEADER,
    EventColumns,
    Gender,
    ObservationWindow,
    SubscriberRecord,
    parse_events,
)
from linkcdr.pairgraph import (
    LinkGraph,
    apply_regularity_filter,
    build_links,
    common_contacts,
    mutual_top_rank_pairs,
)
from linkcdr.relations import (
    BRACKETS,
    PairKey,
    demographic_law,
    is_opposite_gender_peer_code,
    label_relationship,
    peer_bracket_of_code,
    task_label,
)
from oracles import common_contacts_brute, mutual_pairs_brute, rank_alters_brute, recount_links


def random_events(rng, n_users, n_events, window):
    users = [f"u{i:02d}" for i in range(n_users)]
    events = []
    for _ in range(n_events):
        a, b = rng.choice(n_users, size=2, replace=False)
        ts = int(rng.integers(window.start, window.end))
        kind = "text" if rng.random() < 0.3 else "call"
        duration = None if kind == "call" and rng.random() < 0.1 else int(rng.integers(0, 600))
        events.append(ev(users[a], users[b], ts, kind, duration))
    return events


def counters(graph, a: str, b: str) -> dict:
    row = graph.index([PairKey.of(a, b)])[0]
    return {
        "calls": graph.calls[row],
        "texts": graph.texts[row],
        "duration": graph.duration[row],
        "calls_from_first": graph.calls_from_first[row],
        "duration_from_first": graph.duration_from_first[row],
    }


class TestBuildLinks:
    def test_hand_counted_directions(self, default_window):
        t = default_window.start
        events = [ev("a", "b", t + i, "call", 10) for i in range(3)]
        events += [ev("b", "a", t + 10 + i, "call", 20) for i in range(2)]
        graph = build_links(columns(events))
        link = counters(graph, "a", "b")
        assert link["calls"] == 5
        assert link["calls_from_first"] == 3
        assert link["calls"] - link["calls_from_first"] == 2
        assert link["duration"] == 70
        assert link["duration_from_first"] == 30

    def test_single_text(self, default_window):
        graph = build_links(columns([ev("a", "b", default_window.start, "text")]))
        link = counters(graph, "a", "b")
        assert link["calls"] == 0
        assert link["texts"] == 1

    def test_absent_pair_has_no_entry(self, default_window):
        graph = build_links(columns([ev("a", "b", default_window.start)]))
        assert graph.keys() == [PairKey("a", "b")]
        for a, b in (("c", "d"), ("a", "c"), ("c", "b")):
            with pytest.raises(DatasetError, match="unknown pair"):
                graph.index([PairKey("a", "b"), PairKey.of(a, b)])

    def test_index_maps_pairs_to_rows(self, default_window):
        t = default_window.start
        events = [ev("z", "a", t), ev("b", "a", t + 1), ev("a", "c", t + 2)]
        graph = build_links(columns(events))
        keys = graph.keys()
        assert sorted(keys) == [PairKey("a", "b"), PairKey("a", "c"), PairKey("a", "z")]
        query = keys[::-1] + keys[:1]
        assert graph.index(query).tolist() == [2, 1, 0, 0]
        assert graph.index([]).tolist() == []

    def test_event_link_is_each_events_link_row(self, default_window):
        t = default_window.start
        events = [ev("z", "a", t), ev("b", "a", t + 1), ev("a", "c", t + 2), ev("a", "z", t + 3)]
        graph = build_links(columns(events))
        assert graph.event_link.dtype == np.int32
        keys = graph.keys()
        assert [keys[i] for i in graph.event_link] == [
            PairKey.of(e.caller_id, e.callee_id) for e in events
        ]

    def test_self_loop_event_rejected(self, default_window):
        t = default_window.start
        with pytest.raises(DatasetError, match="self-loop"):
            build_links(columns([ev("a", "b", t), ev("a", "a", t + 1)]))

    def test_graph_holds_its_columns(self, default_window):
        cols = columns([ev("a", "b", default_window.start)])
        graph = build_links(cols)
        assert graph.columns is cols
        assert graph.users is cols.users

    def test_durations_sum_exactly_past_float_precision(self, default_window):
        t = default_window.start
        graph = build_links(
            columns([ev("a", "b", t, "call", 2**53), ev("b", "a", t + 1, "call", 1)])
        )
        link = counters(graph, "a", "b")
        assert link["duration"] == 2**53 + 1
        assert link["duration_from_first"] == 2**53

    def test_duration_total_at_int64_max_is_kept(self, default_window):
        t = default_window.start
        graph = build_links(
            columns([ev("a", "b", t, "call", 2**62), ev("b", "a", t + 1, "call", 2**62 - 1)])
        )
        assert counters(graph, "a", "b")["duration"] == np.iinfo(np.int64).max

    def test_duration_total_past_int64_rejected(self, default_window):
        t = default_window.start
        cols = columns([ev("a", "b", t + i, "call", 9 * 10**17) for i in range(11)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning on the way to the error
            with pytest.raises(DatasetError, match=r"link \(a, b\) sum past int64"):
                build_links(cols)

    def test_empty_input(self):
        graph = build_links(columns([]))
        assert len(graph) == 0
        assert graph.keys() == []
        assert mutual_top_rank_pairs(graph) == []
        assert common_contacts(graph, []).shape == (0, 2)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_counters_match_brute_recount(self, default_window, seed):
        rng = np.random.default_rng(seed)
        events = random_events(rng, 12, 1000, default_window)
        oracle = recount_links(events, default_window)
        graph = build_links(columns(events))
        keys = [PairKey(*key) for key in oracle]
        assert sorted(graph.keys()) == sorted(keys)
        rows = graph.index(keys)
        for row, rec in zip(rows, oracle.values()):
            assert graph.calls[row] == rec["calls_total"]
            assert graph.texts[row] == rec["texts_total"]
            assert graph.duration[row] == rec["duration_total"]
            assert graph.calls_from_first[row] == rec["calls_from_first"]
            assert graph.texts_from_first[row] == rec["texts_from_first"]
            assert graph.duration_from_first[row] == rec["duration_from_first"]
            assert graph.months[row].tolist() == rec["months"]


def fold_cases(window: ObservationWindow) -> dict[str, list]:
    """Event lists for the blocked fold, each under a few link blocks."""
    t, months = window.start, window.month_starts
    links = [("a", "b"), ("c", "a"), ("b", "c")]
    straddling = []
    for i in range(23):  # three interleaved links, so each spans several blocks
        x, y = links[i % 3] if i % 2 else links[i % 3][::-1]
        kind = "text" if i % 4 == 3 else "call"
        duration = None if i % 5 == 4 else 7 * i
        straddling.append(ev(x, y, months[i % len(months)] + i, kind, duration))
    past_2_53 = [ev("a", "b", t, "call", 2**53)]
    past_2_53 += [ev("c", "d", t + 1 + i, "text") for i in range(8)]
    past_2_53.append(ev("b", "a", t + 20, "call", 3))
    return {
        "empty": [],
        "one event": [ev("b", "a", t + 5, "call", 30)],
        "straddling links": straddling,
        "past 2**53 across blocks": past_2_53,
        "random": random_events(np.random.default_rng(11), 9, 300, window),
    }


BLOCK_SIZES = [1, 7, 10**6]  # an event per block, a few, and one block for all


class TestBlockedFold:
    @staticmethod
    def fold(monkeypatch, cols, block: int) -> LinkGraph:
        monkeypatch.setattr(pairgraph, "LINK_BLOCK", block)
        return build_links(cols)

    @pytest.mark.parametrize("block", BLOCK_SIZES)
    @pytest.mark.parametrize("case", list(fold_cases(ObservationWindow.default())))
    def test_every_array_matches_one_block_and_the_oracle(
        self, monkeypatch, default_window, case, block
    ):
        events = fold_cases(default_window)[case]
        cols = columns(events)
        graph = self.fold(monkeypatch, cols, block)
        whole = self.fold(monkeypatch, cols, len(events) + 1)
        assert graph.event_link.dtype == np.int32
        for field in fields(LinkGraph):
            got, want = getattr(graph, field.name), getattr(whole, field.name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype, field.name
                np.testing.assert_array_equal(got, want, err_msg=field.name)
            else:
                assert got == want, field.name

        oracle = recount_links(events, default_window)
        keys = graph.keys()
        assert sorted(keys) == sorted(PairKey(*key) for key in oracle)
        for row, key in enumerate(keys):
            rec = oracle[(key.first, key.second)]
            assert graph.calls[row] == rec["calls_total"]
            assert graph.texts[row] == rec["texts_total"]
            assert graph.duration[row] == rec["duration_total"]
            assert graph.calls_from_first[row] == rec["calls_from_first"]
            assert graph.texts_from_first[row] == rec["texts_from_first"]
            assert graph.duration_from_first[row] == rec["duration_from_first"]
            assert graph.months[row].tolist() == rec["months"]
        assert [keys[i] for i in graph.event_link] == [
            PairKey.of(e.caller_id, e.callee_id) for e in events
        ]

    @pytest.mark.parametrize("block", BLOCK_SIZES)
    def test_total_past_int64_only_after_the_blocks_are_summed(
        self, monkeypatch, default_window, block
    ):
        t = default_window.start
        events = [ev("a", "b", t, "call", 2**63 - 1)]
        events += [ev("c", "d", t + 1 + i, "text") for i in range(8)]
        events.append(ev("b", "a", t + 20, "call", 1))  # 2**63 only by the low words' carry
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DatasetError, match=r"link \(a, b\) sum past int64"):
                self.fold(monkeypatch, columns(events), block)

    def test_temporaries_do_not_grow_with_the_input(self, monkeypatch, default_window):
        """build_links' traced peak above what it returns, at 4 and at 16
        blocks of 4096 events over one set of 30 links: the fold holds one
        block's temporaries and each block's distinct keys (at most 30), so
        the 16-block overhead may exceed the 4-block one by at most a
        quarter. One full-length int64 temporary would add 8 bytes an event,
        at 16 blocks more than twice the 4-block overhead."""
        monkeypatch.setattr(pairgraph, "LINK_BLOCK", 4096)
        rng = np.random.default_rng(5)
        users = [f"u{i:02d}" for i in range(20)]
        pairs = np.array([(a, b) for a in range(20) for b in range(a + 1, 20)])
        pairs = pairs[rng.choice(len(pairs), 30, replace=False)]
        build_links(columns([ev("a", "b", default_window.start)]))  # warm caches

        def overhead(n_events: int) -> int:
            link = rng.integers(0, 30, n_events)
            swap = rng.random(n_events) < 0.5
            caller = np.where(swap, pairs[link, 1], pairs[link, 0])
            callee = np.where(swap, pairs[link, 0], pairs[link, 1])
            ts = np.sort(rng.integers(default_window.start, default_window.end, n_events))
            is_call = rng.random(n_events) < 0.6
            duration = np.where(is_call, rng.integers(-1, 600, n_events), 0)
            cols = EventColumns(caller, callee, ts, is_call, duration, users, default_window)
            tracemalloc.start()
            try:
                graph = build_links(cols)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(graph) == 30
            return peak - kept

        small, large = overhead(4 * 4096), overhead(16 * 4096)
        assert large <= 1.25 * small, (small, large)

    def test_events_past_the_bound(self, monkeypatch, default_window):
        """Link rows and event positions are int32, so more than
        ``MAX_EVENTS`` events raise; the bound is patched."""
        cols = columns([ev("a", "b", default_window.start + i) for i in range(5)])
        monkeypatch.setattr(pairgraph, "MAX_EVENTS", 5)
        assert len(build_links(cols)) == 1
        monkeypatch.setattr(pairgraph, "MAX_EVENTS", 4)
        with pytest.raises(DatasetError, match="5 events: int32 event positions hold at most 4"):
            build_links(cols)


class TestWideCodes:
    """Columns of more than 46,341 users, so the product of two int32 codes in
    ``first * n_users + second`` passes 2**31 and must widen to int64 first.
    25,000 one-call filler links intern 50,000 users; the events of a random
    12-user graph come last, so both of their codes pass 50,000."""

    @staticmethod
    def events(window: ObservationWindow) -> tuple[list, list]:
        filler = [ev(f"p{i:05d}", f"q{i:05d}", window.start + i) for i in range(25_000)]
        return filler, random_events(np.random.default_rng(8), 12, 400, window)

    def test_graph_layer_matches_the_oracles(self, default_window):
        filler, wide = self.events(default_window)
        cols = columns(filler + wide)
        assert cols.caller.dtype == np.int32 and len(cols.users) == 50_012
        graph = build_links(cols)
        oracle = recount_links(filler + wide, default_window)
        keys = graph.keys()
        assert sorted(keys) == sorted(PairKey(*key) for key in oracle)
        np.testing.assert_array_equal(graph.index(keys), np.arange(len(keys)))
        assert graph.first.min() >= 0 and graph.second.max() < len(cols.users)
        for row, key in enumerate(keys):
            rec = oracle[(key.first, key.second)]
            assert graph.calls[row] == rec["calls_total"]
            assert graph.texts[row] == rec["texts_total"]
            assert graph.duration[row] == rec["duration_total"]
            assert graph.calls_from_first[row] == rec["calls_from_first"]
            assert graph.months[row].tolist() == rec["months"]
        assert [keys[i] for i in graph.event_link[-len(wide):]] == [
            PairKey.of(e.caller_id, e.callee_id) for e in wide
        ]
        # the filler is its own component: every filler link is a mutual pair
        small = recount_links(wide, default_window)
        assert [(k.first, k.second) for k in mutual_top_rank_pairs(graph)] == sorted(
            [(f"p{i:05d}", f"q{i:05d}") for i in range(25_000)] + mutual_pairs_brute(small)
        )
        query = sorted(PairKey(*key) for key in small)
        assert common_contacts(graph, query).tolist() == [
            list(common_contacts_brute(small, k.first, k.second)) for k in query
        ]

    def test_parsed_file_gives_the_same_graph(self, default_window):
        filler, wide = self.events(default_window)
        text = "\n".join([EVENTS_HEADER, *map(format_event_row, filler + wide)]) + "\n"
        cols, diags = parse_events(io.BytesIO(text.encode()), default_window)
        assert diags == [] and cols.caller.dtype == cols.callee.dtype == np.int32
        want = columns(filler + wide)
        assert cols.users == want.users
        for name in ("caller", "callee", "timestamp", "is_call", "duration"):
            np.testing.assert_array_equal(getattr(cols, name), getattr(want, name))
        got, built = build_links(cols), build_links(want)
        for field in ("event_link", "first", "second", "calls", "duration", "months"):
            np.testing.assert_array_equal(getattr(got, field), getattr(built, field))


class TestRankAlters:
    def test_orders_by_call_count(self, default_window):
        t = default_window.start
        events = [ev("e", "x", t + i) for i in range(10)]
        events += [ev("e", "y", t + 100 + i) for i in range(3)]
        graph = build_links(columns(events))
        assert [alter for alter, _ in ranked_alters(graph)["e"]] == ["x", "y"]

    def test_duration_breaks_count_ties(self, default_window):
        t = default_window.start
        events = [ev("e", "x", t + i, "call", 120) for i in range(5)]
        events += [ev("e", "y", t + 100 + i, "call", 20) for i in range(5)]
        graph = build_links(columns(events))
        assert [alter for alter, _ in ranked_alters(graph)["e"]] == ["x", "y"]

    def test_ego_without_links(self, default_window):
        graph = build_links(columns([ev("a", "b", default_window.start)]))
        assert "zzz" not in ranked_alters(graph)

    def test_matches_brute_sort_on_fixture(self, default_window):
        rng = np.random.default_rng(7)
        events = random_events(rng, 4, 120, default_window)
        graph = build_links(columns(events))
        oracle = recount_links(events, default_window)
        ranked = ranked_alters(graph)
        for user in "u00 u01 u02 u03".split():
            assert ranked[user] == rank_alters_brute(oracle, user)


class TestRegularityFilter:
    def test_five_active_months_kept(self, default_window):
        events = [ev("a", "b", default_window.month_starts[m] + 5) for m in range(5)]
        graph = build_links(columns(events))
        assert len(apply_regularity_filter(graph, 5)) == 1

    def test_texts_do_not_count(self, default_window):
        events = [ev("a", "b", default_window.month_starts[m] + 5) for m in range(4)]
        events += [ev("a", "b", default_window.month_starts[m] + 9, "text") for m in range(7)]
        graph = build_links(columns(events))
        assert len(apply_regularity_filter(graph, 5)) == 0

    def test_min_months_zero_keeps_all(self, default_window):
        events = [ev("a", "b", default_window.start), ev("c", "d", default_window.start + 1)]
        graph = build_links(columns(events))
        assert len(apply_regularity_filter(graph, 0)) == 2

    def test_min_months_above_window_fatal(self, default_window):
        graph = build_links(columns([ev("a", "b", default_window.start)]))
        with pytest.raises(ConfigError):
            apply_regularity_filter(graph, 8)

    def test_bound_is_the_graphs_own_window(self, two_month_window):
        graph = build_links(columns([ev("a", "b", two_month_window.start)], two_month_window))
        with pytest.raises(ConfigError, match=r"must lie in 0\.\.2, the months in the window"):
            apply_regularity_filter(graph, 3)
        assert apply_regularity_filter(graph, 2).tolist() == []

    def test_raising_min_months_never_adds_pairs(self, default_window):
        rng = np.random.default_rng(3)
        events = random_events(rng, 10, 600, default_window)
        graph = build_links(columns(events))
        keys = graph.keys()
        previous = None
        for months in range(8):
            kept = {keys[i] for i in apply_regularity_filter(graph, months)}
            if previous is not None:
                assert kept <= previous
            previous = kept


class TestMutualTopRank:
    def test_single_link_is_mutual(self, default_window):
        graph = build_links(columns([ev("a", "b", default_window.start)]))
        assert mutual_top_rank_pairs(graph) == [PairKey("a", "b")]

    def test_star_keeps_only_strongest_leaf(self, default_window):
        t = default_window.start
        events = [ev("c", "l1", t + i) for i in range(10)]
        events += [ev("c", "l2", t + 50 + i) for i in range(5)]
        graph = build_links(columns(events))
        assert mutual_top_rank_pairs(graph) == [PairKey("c", "l1")]

    def test_triangle_matches_exhaustive_oracle(self, default_window):
        t = default_window.start
        events = []
        for i, (x, y) in enumerate([("a", "b"), ("b", "c"), ("c", "a")]):
            events += [ev(x, y, t + 100 * i + j) for j in range(5)]
        graph = build_links(columns(events))
        oracle = recount_links(events, default_window)
        got = [(k.first, k.second) for k in mutual_top_rank_pairs(graph)]
        assert got == mutual_pairs_brute(oracle)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_graphs_match_oracle(self, default_window, seed):
        rng = np.random.default_rng(100 + seed)
        events = random_events(rng, 20, 800, default_window)
        graph = build_links(columns(events))
        pairs = mutual_top_rank_pairs(graph)
        assert [(k.first, k.second) for k in pairs] == mutual_pairs_brute(
            recount_links(events, default_window)
        )
        # mutuality recheck and uniqueness per user
        ranked = ranked_alters(graph)
        seen = set()
        for key in pairs:
            assert ranked[key.first][0][0] == key.second
            assert ranked[key.second][0][0] == key.first
            assert key.first not in seen and key.second not in seen
            seen.update(key)


class TestCommonContacts:
    def test_disjoint_neighborhoods(self, default_window):
        t = default_window.start
        events = [ev("a", "b", t), ev("a", "x", t + 1), ev("b", "y", t + 2)]
        graph = build_links(columns(events))
        assert common_contacts(graph, [PairKey.of("a", "b")]).tolist() == [[0, 0]]

    def test_fully_shared_top5(self, default_window):
        t = default_window.start
        events = [ev("a", "b", t)]
        for i, n in enumerate(("n1", "n2", "n3")):
            events.append(ev("a", n, t + 10 + i))
            events.append(ev("b", n, t + 20 + i))
        graph = build_links(columns(events))
        assert common_contacts(graph, [PairKey.of("a", "b")]).tolist() == [[3, 3]]

    def test_unknown_pair_errors(self, default_window):
        graph = build_links(columns([ev("a", "b", default_window.start)]))
        with pytest.raises(DatasetError, match="unknown pair"):
            common_contacts(graph, [PairKey.of("a", "b"), PairKey.of("a", "z")])

    def test_pair_outside_the_ranked_links_errors(self, default_window):
        events = [ev("a", "b", default_window.month_starts[m] + 5) for m in range(5)]
        events.append(ev("a", "c", default_window.start + 9))
        graph = build_links(columns(events))
        kept = apply_regularity_filter(graph, 5)
        assert common_contacts(graph, [PairKey.of("a", "b")], kept).tolist() == [[0, 0]]
        with pytest.raises(DatasetError, match=r"pair \(a, c\) is not one of the ranked links"):
            common_contacts(graph, [PairKey.of("a", "c")], kept)

    @pytest.mark.parametrize("seed", range(4))
    def test_eight_node_fixture_matches_brute_intersection(self, default_window, seed):
        rng = np.random.default_rng(40 + seed)
        events = random_events(rng, 8, 300, default_window)
        graph = build_links(columns(events))
        oracle = recount_links(events, default_window)
        keys = graph.keys()
        assert common_contacts(graph, keys).tolist() == [
            list(common_contacts_brute(oracle, key.first, key.second)) for key in keys
        ]


# ids whose first-appearance (intern) order differs from their id order
GRAPH_IDS = ("u7", "b", "u10", "a", "zz", "u2", "m", "c1", "c0", "k", "u1")
GRAPH_WINDOW = ObservationWindow.default()


@st.composite
def tied_multigraphs(draw):
    """Events of a small multigraph whose call counts and duration sums tie
    often, so the alter-id tie-break decides; some examples carry an ego
    with more than 5 alters and an isolated text-only link."""
    users = draw(st.permutations(GRAPH_IDS))[: draw(st.integers(2, len(GRAPH_IDS)))]
    candidates = [(a, b) for i, a in enumerate(users) for b in users[i + 1 :]]
    links = draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=20, unique=True))
    if len(users) >= 7 and draw(st.booleans()):
        hub = users[0]
        links = list(dict.fromkeys(links + [(hub, u) for u in users[1:]]))
    if draw(st.booleans()):
        links.append(("t1", "t0"))
    month_starts = GRAPH_WINDOW.month_starts
    events = []
    for a, b in links:
        n_calls = 0 if a == "t1" else draw(st.integers(0, 3))
        n_texts = draw(st.integers(0 if n_calls else 1, 2))
        for i in range(n_calls + n_texts):
            caller, callee = (a, b) if draw(st.booleans()) else (b, a)
            ts = month_starts[draw(st.integers(0, len(month_starts) - 1))] + i
            if i < n_calls:
                events.append(ev(caller, callee, ts, "call", draw(st.sampled_from([None, 30, 60]))))
            else:
                events.append(ev(caller, callee, ts, "text"))
    return events, draw(st.integers(1, 3))


class TestGraphDifferential:
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(tied_multigraphs())
    def test_ranking_mutual_and_common_match_brute(self, case):
        events, min_months = case
        graph = build_links(columns(events, GRAPH_WINDOW))
        recount = recount_links(events, GRAPH_WINDOW)
        all_keys = graph.keys()
        row = {key: i for i, key in enumerate(all_keys)}
        assert graph.event_link.min(initial=0) >= 0
        assert graph.event_link.tolist() == [
            row[PairKey.of(e.caller_id, e.callee_id)] for e in events
        ]
        for months in (0, min_months):
            kept = apply_regularity_filter(graph, months)
            np.testing.assert_array_equal(kept, np.flatnonzero(graph.active_months >= months))
            assert kept.dtype == np.int64 and (np.diff(kept) > 0).all()
            oracle = {
                key: rec
                for key, rec in recount.items()
                if sum(c > 0 for c in rec["months"]) >= months
            }
            egos = {user for key in oracle for user in key}
            assert ranked_alters(graph, kept) == {u: rank_alters_brute(oracle, u) for u in egos}
            got = [(k.first, k.second) for k in mutual_top_rank_pairs(graph, kept)]
            assert got == mutual_pairs_brute(oracle)
            keys = [all_keys[i] for i in kept]
            assert sorted(keys) == sorted(PairKey(*key) for key in oracle)
            query = keys[::-1] + keys[:2]
            assert common_contacts(graph, query, kept).tolist() == [
                list(common_contacts_brute(oracle, k.first, k.second)) for k in query
            ]


def rec(age: int, gender: Gender, uid: str = "u") -> SubscriberRecord:
    return SubscriberRecord(uid, age, gender)


class TestLabelRelationship:
    def test_young_opposite_gender_peers(self):
        label = label_relationship(rec(25, Gender.FEMALE, "a"), rec(27, Gender.MALE, "b"))
        assert label == ("-Y peers", 25)

    def test_parent_child_uses_child_bracket(self):
        label = label_relationship(rec(30, Gender.FEMALE, "a"), rec(55, Gender.FEMALE, "b"))
        assert label == ("M child", 30)

    def test_forty_year_gap_is_grandparent(self):
        label = label_relationship(rec(20, Gender.MALE, "a"), rec(85, Gender.FEMALE, "b"))
        assert label.code == "Y grandchild"

    def test_same_gender_peer_sign(self):
        label = label_relationship(rec(60, Gender.MALE, "a"), rec(62, Gender.MALE, "b"))
        assert label.code == "+O peers"

    def test_missing_metadata_errors(self):
        with pytest.raises(DatasetError, match="unlabeled"):
            label_relationship(rec(30, Gender.FEMALE, "a"), None)

    @pytest.mark.parametrize(
        "age, bracket",
        [(0, "<18"), (17, "<18"), (18, "Y"), (28, "Y"), (29, "M"), (45, "M"),
         (46, "L"), (55, "L"), (56, "O"), (79, "O"), (80, "80+"), (120, "80+")],
    )
    def test_bracket_boundaries(self, age, bracket):
        label = label_relationship(rec(age, Gender.FEMALE, "a"), rec(age, Gender.MALE, "b"))
        assert label.code == f"-{bracket} peers"

    def test_code_helpers(self):
        assert is_opposite_gender_peer_code("-Y peers")
        assert not is_opposite_gender_peer_code("+Y peers")
        assert not is_opposite_gender_peer_code("M child")
        assert peer_bracket_of_code("-O peers") == "O"
        assert peer_bracket_of_code("+80+ peers") == "80+"
        assert peer_bracket_of_code("M child") is None

    def test_task_labels(self):
        codes = ("-Y peers", "+Y peers", "M child")
        assert [task_label(code, 30, "ogp") for code in codes] == [1, 0, 0]
        assert [task_label("M child", age, "age35") for age in (34, 35, None)] == [1, 0, None]
        assert task_label("", 20, "ogp") is None and task_label("", 20, "age35") is None
        with pytest.raises(ConfigError, match="unknown task 'age40'"):
            task_label("-Y peers", 20, "age40")

    @pytest.mark.parametrize("bracket", [code for code, _, _ in BRACKETS])
    @pytest.mark.parametrize("form", ["-{} peers", "+{} peers", "{} child"])
    def test_demographic_law_inverts_the_label(self, bracket, form):
        code = form.format(bracket)
        law = demographic_law(code)
        f, m = Gender.FEMALE, Gender.MALE
        genders = {"opposite": [(f, m), (m, f)], "same": [(f, f), (m, m)]}.get(
            law.genders, [(f, f), (f, m), (m, f), (m, m)]
        )
        corners = [(y, g) for y in law.younger_ages for g in law.age_gap if y + g <= 120]
        assert corners
        for younger, gap in corners:
            for g1, g2 in genders:
                label = label_relationship(rec(younger + gap, g1, "a"), rec(younger, g2, "b"))
                assert label == (code, younger)
        # a year outside either gap bound is another category
        younger = law.younger_ages[0]
        for gap in (law.age_gap[0] - 1, law.age_gap[1] + 1):
            if gap >= 0:
                other = label_relationship(rec(younger, f, "a"), rec(younger + gap, m, "b"))
                assert other.code != code

    @pytest.mark.parametrize(
        "code", ["Y grandchild", "Y peers", "*Y peers", "-X peers", "X child", " child", "a", ""]
    )
    def test_no_law_outside_peer_and_child_codes(self, code):
        assert demographic_law(code) is None
