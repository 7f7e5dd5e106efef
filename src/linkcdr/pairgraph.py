"""Ego-alter call graph: link aggregation, alter ranking, mutual top-rank
pair extraction, common contacts, and relationship labelling.

A *link* is the undirected aggregate of all events between one unordered
user pair. Alters of an ego are ranked by total call count on the link,
with a deterministic tie-break (higher total duration, then smaller alter
id). A *mutual top-rank pair* is a pair where each user is the other's
rank-1 alter after the regularity filter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, NamedTuple

import numpy as np

from .errors import ConfigError, DatasetError
from .ingest import EventColumns, ObservationWindow, SubscriberRecord


class PairKey(NamedTuple):
    """Unordered user pair in canonical order (first < second)."""

    first: str
    second: str

    @classmethod
    def of(cls, a: str, b: str) -> "PairKey":
        if a == b:
            raise DatasetError(f"degenerate pair ({a!r}, {a!r})")
        return cls(a, b) if a < b else cls(b, a)


@dataclass
class PairLink:
    """Aggregated interaction counters for one unordered pair.

    Directional counters are oriented from the canonical ``first`` user;
    ``months_active`` counts calls per calendar month of the window.
    Duration sums include known durations only.
    """

    key: PairKey
    calls_total: int = 0
    texts_total: int = 0
    duration_total: int = 0
    calls_from_first: int = 0
    calls_from_second: int = 0
    texts_from_first: int = 0
    texts_from_second: int = 0
    duration_from_first: int = 0
    duration_from_second: int = 0
    months_active: list[int] = field(default_factory=list)

    @property
    def n_active_months(self) -> int:
        return sum(1 for c in self.months_active if c > 0)


class LinkGraph:
    """Immutable-by-convention container of links with an adjacency index."""

    def __init__(self, links: dict[PairKey, PairLink]) -> None:
        self.links = links
        self.adjacency: dict[str, list[str]] = {}
        for key in links:
            self.adjacency.setdefault(key.first, []).append(key.second)
            self.adjacency.setdefault(key.second, []).append(key.first)

    def __len__(self) -> int:
        return len(self.links)

    def link(self, a: str, b: str) -> PairLink:
        key = PairKey.of(a, b)
        got = self.links.get(key)
        if got is None:
            raise DatasetError(f"unknown pair ({key.first}, {key.second})")
        return got

    def neighbors(self, user: str) -> list[str]:
        return self.adjacency.get(user, [])


def build_links(cols: EventColumns, window: ObservationWindow) -> LinkGraph:
    """Fold the event columns into one PairLink per unordered pair."""
    if len(cols) == 0:
        return LinkGraph({})
    n_users = len(cols.users)
    # canonical order is lexicographic on user ids, not on intern codes
    lex_rank = np.empty(n_users, dtype=np.int64)
    lex_rank[np.argsort(np.asarray(cols.users, dtype=object))] = np.arange(n_users)

    caller_first = lex_rank[cols.caller] < lex_rank[cols.callee]
    first = np.where(caller_first, cols.caller, cols.callee)
    second = np.where(caller_first, cols.callee, cols.caller)
    pair_id = first * n_users + second
    unique_ids, group = np.unique(pair_id, return_inverse=True)
    n_pairs = len(unique_ids)

    is_call = cols.is_call
    is_text = ~is_call
    known = cols.duration >= 0
    dur = np.where(known & is_call, cols.duration, 0)

    def count(mask: np.ndarray) -> np.ndarray:
        return np.bincount(group[mask], minlength=n_pairs).astype(np.int64)

    def total(mask: np.ndarray, weights: np.ndarray) -> np.ndarray:
        return np.bincount(group[mask], weights=weights[mask], minlength=n_pairs).astype(np.int64)

    calls_total = count(is_call)
    texts_total = count(is_text)
    calls_ff = count(is_call & caller_first)
    texts_ff = count(is_text & caller_first)
    dur_total = total(is_call, dur)
    dur_ff = total(is_call & caller_first, dur)

    n_months = window.n_months
    months = np.bincount(
        group[is_call] * n_months + window.month_index(cols.timestamp[is_call]),
        minlength=n_pairs * n_months,
    ).reshape(n_pairs, n_months)

    first_codes = unique_ids // n_users
    second_codes = unique_ids % n_users
    links: dict[PairKey, PairLink] = {}
    for i in range(n_pairs):
        key = PairKey(cols.users[int(first_codes[i])], cols.users[int(second_codes[i])])
        links[key] = PairLink(
            key=key,
            calls_total=int(calls_total[i]),
            texts_total=int(texts_total[i]),
            duration_total=int(dur_total[i]),
            calls_from_first=int(calls_ff[i]),
            calls_from_second=int(calls_total[i] - calls_ff[i]),
            texts_from_first=int(texts_ff[i]),
            texts_from_second=int(texts_total[i] - texts_ff[i]),
            duration_from_first=int(dur_ff[i]),
            duration_from_second=int(dur_total[i] - dur_ff[i]),
            months_active=[int(c) for c in months[i]],
        )
    return LinkGraph(links)


def rank_alters(graph: LinkGraph, ego: str) -> list[tuple[str, int]]:
    """Alters of ego ordered by call count, then duration, then alter id."""
    ranked = []
    for alter in graph.neighbors(ego):
        link = graph.link(ego, alter)
        ranked.append((-link.calls_total, -link.duration_total, alter))
    ranked.sort()
    return [(alter, -neg_calls) for neg_calls, _, alter in ranked]


def apply_regularity_filter(
    graph: LinkGraph, window: ObservationWindow, min_months: int = 5
) -> LinkGraph:
    """Keep links with at least one call in ``min_months`` distinct months.

    Text-only activity never counts toward regularity.
    """
    if min_months > window.n_months:
        raise ConfigError(
            f"min_months {min_months} exceeds the {window.n_months} months in the window"
        )
    kept = {key: link for key, link in graph.links.items() if link.n_active_months >= min_months}
    return LinkGraph(kept)


def mutual_top_rank_pairs(graph: LinkGraph) -> list[PairKey]:
    """Pairs where each user is the other's rank-1 alter, sorted by key."""
    top: dict[str, str] = {}
    for user in graph.adjacency:
        ranked = rank_alters(graph, user)
        if ranked:
            top[user] = ranked[0][0]
    pairs = [
        PairKey(a, b) for a, b in ((u, t) for u, t in top.items() if u < t) if top.get(b) == a
    ]
    pairs.sort()
    return pairs


def common_contacts(graph: LinkGraph, pair: PairKey) -> tuple[int, int]:
    """(top-5 common alters, all common alters) for a pair, excluding the pair itself."""
    if pair not in graph.links:
        raise DatasetError(f"unknown pair ({pair.first}, {pair.second})")
    a, b = pair.first, pair.second
    exclude = {a, b}
    neigh_a = set(graph.neighbors(a)) - exclude
    neigh_b = set(graph.neighbors(b)) - exclude
    all_common = len(neigh_a & neigh_b)
    top_a = {alter for alter, _ in rank_alters(graph, a)[:5]} - exclude
    top_b = {alter for alter, _ in rank_alters(graph, b)[:5]} - exclude
    top5_common = len(top_a & top_b)
    return top5_common, all_common


# --- Relationship labelling -------------------------------------------------

PEER_GAP_YEARS = 20
GRANDPARENT_GAP_YEARS = 40

BRACKETS: tuple[tuple[str, int, int], ...] = (
    ("<18", 0, 17),
    ("Y", 18, 28),
    ("M", 29, 45),
    ("L", 46, 55),
    ("O", 56, 79),
    ("80+", 80, 120),
)


class AgeDiffCategory(str, Enum):
    PEER = "peer"
    PARENT_CHILD = "parent_child"
    GRANDPARENT_CHILD = "grandparent_child"


class GenderComposition(str, Enum):
    SAME = "same"
    OPPOSITE = "opposite"


def age_bracket(age: int) -> str:
    for code, lo, hi in BRACKETS:
        if lo <= age <= hi:
            return code
    raise DatasetError(f"age {age} outside 0-120")


@dataclass(frozen=True)
class RelationshipLabel:
    age_diff_category: AgeDiffCategory
    gender_composition: GenderComposition
    younger_age: int
    younger_bracket: str
    code: str


def label_relationship(
    rec_a: SubscriberRecord | None, rec_b: SubscriberRecord | None
) -> RelationshipLabel:
    """Infer the relationship category of a pair from age and gender.

    Age gaps below 20 years make peers, 20-39 a parent-child-like pair,
    40+ a grandparent-child-like pair; the display code carries the gender
    sign for peers and the younger user's age bracket throughout.
    """
    if rec_a is None or rec_b is None:
        raise DatasetError("unlabeled pair: subscriber metadata missing")
    gap = abs(rec_a.age - rec_b.age)
    if gap < PEER_GAP_YEARS:
        category = AgeDiffCategory.PEER
    elif gap < GRANDPARENT_GAP_YEARS:
        category = AgeDiffCategory.PARENT_CHILD
    else:
        category = AgeDiffCategory.GRANDPARENT_CHILD
    composition = (
        GenderComposition.SAME if rec_a.gender is rec_b.gender else GenderComposition.OPPOSITE
    )
    younger = min(rec_a.age, rec_b.age)
    bracket = age_bracket(younger)
    if category is AgeDiffCategory.PEER:
        sign = "-" if composition is GenderComposition.OPPOSITE else "+"
        code = f"{sign}{bracket} peers"
    elif category is AgeDiffCategory.PARENT_CHILD:
        code = f"{bracket} child"
    else:
        code = f"{bracket} grandchild"
    return RelationshipLabel(category, composition, younger, bracket, code)


def is_opposite_gender_peer_code(code: str) -> bool:
    return code.startswith("-") and code.endswith(" peers")


def peer_bracket_of_code(code: str) -> str | None:
    """Age bracket of a peer code like ``-Y peers``; None for non-peer codes."""
    if not code.endswith(" peers"):
        return None
    return code[1 : -len(" peers")]


def label_pairs(
    pairs: Iterable[PairKey], subscribers: dict[str, SubscriberRecord]
) -> dict[PairKey, RelationshipLabel]:
    """Labels for every pair with metadata on both sides; others are skipped."""
    labels: dict[PairKey, RelationshipLabel] = {}
    for pair in pairs:
        rec_a = subscribers.get(pair.first)
        rec_b = subscribers.get(pair.second)
        if rec_a is not None and rec_b is not None:
            labels[pair] = label_relationship(rec_a, rec_b)
    return labels
