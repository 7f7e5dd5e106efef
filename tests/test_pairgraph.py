"""Graph layer versus brute-force oracles, plus relationship labelling."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import columns, ev
from linkcdr.errors import ConfigError, DatasetError
from linkcdr.ingest import Gender, SubscriberRecord
from linkcdr.pairgraph import (
    AgeDiffCategory,
    GenderComposition,
    PairKey,
    apply_regularity_filter,
    build_links,
    common_contacts,
    is_opposite_gender_peer_code,
    label_relationship,
    mutual_top_rank_pairs,
    peer_bracket_of_code,
    rank_alters,
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


class TestBuildLinks:
    def test_hand_counted_directions(self, default_window):
        t = default_window.start
        events = [ev("a", "b", t + i, "call", 10) for i in range(3)]
        events += [ev("b", "a", t + 10 + i, "call", 20) for i in range(2)]
        graph = build_links(columns(events), default_window)
        link = graph.link("a", "b")
        assert link.calls_total == 5
        assert link.calls_from_first == 3
        assert link.calls_from_second == 2
        assert link.duration_total == 70
        assert link.duration_from_first == 30

    def test_single_text(self, default_window):
        graph = build_links(columns([ev("a", "b", default_window.start, "text")]), default_window)
        link = graph.link("a", "b")
        assert link.calls_total == 0
        assert link.texts_total == 1

    def test_absent_pair_has_no_entry(self, default_window):
        graph = build_links(columns([ev("a", "b", default_window.start)]), default_window)
        assert PairKey.of("c", "d") not in graph.links
        with pytest.raises(DatasetError, match="unknown pair"):
            graph.link("c", "d")

    def test_empty_input(self, default_window):
        assert len(build_links(columns([]), default_window)) == 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_counters_match_brute_recount(self, default_window, seed):
        rng = np.random.default_rng(seed)
        events = random_events(rng, 12, 1000, default_window)
        oracle = recount_links(events, default_window)
        graph = build_links(columns(events), default_window)
        assert set(graph.links) == set(oracle)
        for key, rec in oracle.items():
            link = graph.links[PairKey(*key)]
            assert link.calls_total == rec["calls_total"]
            assert link.texts_total == rec["texts_total"]
            assert link.duration_total == rec["duration_total"]
            assert link.calls_from_first == rec["calls_from_first"]
            assert link.texts_from_first == rec["texts_from_first"]
            assert link.duration_from_first == rec["duration_from_first"]
            assert link.months_active == rec["months"]
            assert link.calls_total == link.calls_from_first + link.calls_from_second
            assert link.texts_total == link.texts_from_first + link.texts_from_second


class TestRankAlters:
    def test_orders_by_call_count(self, default_window):
        t = default_window.start
        events = [ev("e", "x", t + i) for i in range(10)]
        events += [ev("e", "y", t + 100 + i) for i in range(3)]
        graph = build_links(columns(events), default_window)
        assert [alter for alter, _ in rank_alters(graph, "e")] == ["x", "y"]

    def test_duration_breaks_count_ties(self, default_window):
        t = default_window.start
        events = [ev("e", "x", t + i, "call", 120) for i in range(5)]
        events += [ev("e", "y", t + 100 + i, "call", 20) for i in range(5)]
        graph = build_links(columns(events), default_window)
        assert [alter for alter, _ in rank_alters(graph, "e")] == ["x", "y"]

    def test_ego_without_links(self, default_window):
        graph = build_links(columns([ev("a", "b", default_window.start)]), default_window)
        assert rank_alters(graph, "zzz") == []

    def test_matches_brute_sort_on_fixture(self, default_window):
        rng = np.random.default_rng(7)
        events = random_events(rng, 4, 120, default_window)
        graph = build_links(columns(events), default_window)
        oracle = recount_links(events, default_window)
        for user in "u00 u01 u02 u03".split():
            assert rank_alters(graph, user) == rank_alters_brute(oracle, user)


class TestRegularityFilter:
    def test_five_active_months_kept(self, default_window):
        events = [ev("a", "b", default_window.month_starts[m] + 5) for m in range(5)]
        graph = build_links(columns(events), default_window)
        assert len(apply_regularity_filter(graph, default_window, 5)) == 1

    def test_texts_do_not_count(self, default_window):
        events = [ev("a", "b", default_window.month_starts[m] + 5) for m in range(4)]
        events += [ev("a", "b", default_window.month_starts[m] + 9, "text") for m in range(7)]
        graph = build_links(columns(events), default_window)
        assert len(apply_regularity_filter(graph, default_window, 5)) == 0

    def test_min_months_zero_keeps_all(self, default_window):
        events = [ev("a", "b", default_window.start), ev("c", "d", default_window.start + 1)]
        graph = build_links(columns(events), default_window)
        assert len(apply_regularity_filter(graph, default_window, 0)) == 2

    def test_min_months_above_window_fatal(self, default_window):
        graph = build_links(columns([ev("a", "b", default_window.start)]), default_window)
        with pytest.raises(ConfigError):
            apply_regularity_filter(graph, default_window, 8)

    def test_raising_min_months_never_adds_pairs(self, default_window):
        rng = np.random.default_rng(3)
        events = random_events(rng, 10, 600, default_window)
        graph = build_links(columns(events), default_window)
        previous = None
        for months in range(8):
            kept = set(apply_regularity_filter(graph, default_window, months).links)
            if previous is not None:
                assert kept <= previous
            previous = kept


class TestMutualTopRank:
    def test_single_link_is_mutual(self, default_window):
        graph = build_links(columns([ev("a", "b", default_window.start)]), default_window)
        assert mutual_top_rank_pairs(graph) == [PairKey("a", "b")]

    def test_star_keeps_only_strongest_leaf(self, default_window):
        t = default_window.start
        events = [ev("c", "l1", t + i) for i in range(10)]
        events += [ev("c", "l2", t + 50 + i) for i in range(5)]
        graph = build_links(columns(events), default_window)
        assert mutual_top_rank_pairs(graph) == [PairKey("c", "l1")]

    def test_triangle_matches_exhaustive_oracle(self, default_window):
        t = default_window.start
        events = []
        for i, (x, y) in enumerate([("a", "b"), ("b", "c"), ("c", "a")]):
            events += [ev(x, y, t + 100 * i + j) for j in range(5)]
        graph = build_links(columns(events), default_window)
        oracle = recount_links(events, default_window)
        got = [(k.first, k.second) for k in mutual_top_rank_pairs(graph)]
        assert got == mutual_pairs_brute(oracle)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_graphs_match_oracle(self, default_window, seed):
        rng = np.random.default_rng(100 + seed)
        events = random_events(rng, 20, 800, default_window)
        graph = build_links(columns(events), default_window)
        pairs = mutual_top_rank_pairs(graph)
        assert [(k.first, k.second) for k in pairs] == mutual_pairs_brute(
            recount_links(events, default_window)
        )
        # mutuality recheck and uniqueness per user
        seen = set()
        for key in pairs:
            assert rank_alters(graph, key.first)[0][0] == key.second
            assert rank_alters(graph, key.second)[0][0] == key.first
            assert key.first not in seen and key.second not in seen
            seen.update(key)


class TestCommonContacts:
    def test_disjoint_neighborhoods(self, default_window):
        t = default_window.start
        events = [ev("a", "b", t), ev("a", "x", t + 1), ev("b", "y", t + 2)]
        graph = build_links(columns(events), default_window)
        assert common_contacts(graph, PairKey.of("a", "b")) == (0, 0)

    def test_fully_shared_top5(self, default_window):
        t = default_window.start
        events = [ev("a", "b", t)]
        for i, n in enumerate(("n1", "n2", "n3")):
            events.append(ev("a", n, t + 10 + i))
            events.append(ev("b", n, t + 20 + i))
        graph = build_links(columns(events), default_window)
        assert common_contacts(graph, PairKey.of("a", "b")) == (3, 3)

    def test_unknown_pair_errors(self, default_window):
        graph = build_links(columns([ev("a", "b", default_window.start)]), default_window)
        with pytest.raises(DatasetError, match="unknown pair"):
            common_contacts(graph, PairKey.of("a", "z"))

    @pytest.mark.parametrize("seed", range(4))
    def test_eight_node_fixture_matches_brute_intersection(self, default_window, seed):
        rng = np.random.default_rng(40 + seed)
        events = random_events(rng, 8, 300, default_window)
        graph = build_links(columns(events), default_window)
        oracle = recount_links(events, default_window)
        for key in graph.links:
            assert common_contacts(graph, key) == common_contacts_brute(
                oracle, key.first, key.second
            )


def rec(age: int, gender: Gender, uid: str = "u") -> SubscriberRecord:
    return SubscriberRecord(uid, age, gender)


class TestLabelRelationship:
    def test_young_opposite_gender_peers(self):
        label = label_relationship(rec(25, Gender.FEMALE, "a"), rec(27, Gender.MALE, "b"))
        assert label.age_diff_category is AgeDiffCategory.PEER
        assert label.gender_composition is GenderComposition.OPPOSITE
        assert label.code == "-Y peers"
        assert label.younger_age == 25

    def test_parent_child_uses_child_bracket(self):
        label = label_relationship(rec(30, Gender.FEMALE, "a"), rec(55, Gender.FEMALE, "b"))
        assert label.age_diff_category is AgeDiffCategory.PARENT_CHILD
        assert label.younger_bracket == "M"
        assert label.code == "M child"

    def test_forty_year_gap_is_grandparent(self):
        label = label_relationship(rec(20, Gender.MALE, "a"), rec(85, Gender.FEMALE, "b"))
        assert label.age_diff_category is AgeDiffCategory.GRANDPARENT_CHILD
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
        assert label.younger_bracket == bracket

    def test_code_helpers(self):
        assert is_opposite_gender_peer_code("-Y peers")
        assert not is_opposite_gender_peer_code("+Y peers")
        assert not is_opposite_gender_peer_code("M child")
        assert peer_bracket_of_code("-O peers") == "O"
        assert peer_bracket_of_code("+80+ peers") == "80+"
        assert peer_bracket_of_code("M child") is None
