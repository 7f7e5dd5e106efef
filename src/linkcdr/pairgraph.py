"""Ego-alter call graph: link aggregation, alter ranking, mutual top-rank
pair extraction and common contacts.

A *link* is the undirected aggregate of all events between one unordered
user pair. ``LinkGraph`` holds one array entry per link over the user codes
of the ``EventColumns`` it was built from, and the one index from events to
links (``event_link``); user ids appear only at its edges (``keys()`` and
``index(pairs)``). Alters of an ego are ranked by total call count on the
link, with a deterministic tie-break (higher total duration, then smaller
alter id), in one sort over all egos (``alter_ranking``). A *mutual
top-rank pair* is a pair where each user is the other's rank-1 alter after
the regularity filter; ``common_contacts`` counts the shared top-5 and all
shared alters of a list of pairs in one batched call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DatasetError
from .ingest import EventColumns, ObservationWindow
from .relations import PairKey

TOP_ALTERS = 5  # depth of the top-alter lists behind the top-5 common contacts

_LINK_FIELDS = ("first", "second", "calls", "texts", "duration", "calls_from_first",
                "texts_from_first", "duration_from_first", "months")


@dataclass(frozen=True, eq=False)
class LinkGraph:
    """Per-link counter arrays over the user codes of the source columns.

    ``first``/``second`` hold each link's user codes, smaller id first, and
    rows are sorted by ``first * len(users) + second``. Directional counters
    count from the first user (from-second = total - from-first); durations
    sum known call durations; ``months`` counts calls per calendar month of
    the window. ``lex_rank`` is each user code's position in id order.
    ``event_link`` is each source event's link row (int32), -1 once filtered out.
    """

    users: list[str]
    user_index: dict[str, int]
    lex_rank: np.ndarray
    event_link: np.ndarray
    first: np.ndarray
    second: np.ndarray
    calls: np.ndarray
    texts: np.ndarray
    duration: np.ndarray
    calls_from_first: np.ndarray
    texts_from_first: np.ndarray
    duration_from_first: np.ndarray
    months: np.ndarray

    def __len__(self) -> int:
        return len(self.first)

    @property
    def active_months(self) -> np.ndarray:
        """Months with at least one call, per link."""
        return np.count_nonzero(self.months, axis=1)

    def keys(self) -> list[PairKey]:
        """The pair of each link, in row order."""
        users = np.asarray(self.users, dtype=object)
        return list(map(PairKey, users[self.first], users[self.second]))

    def index(self, pairs: Sequence[PairKey]) -> np.ndarray:
        """Link row of each pair; DatasetError for a pair that is not a link."""
        get, n = self.user_index.get, len(self.users)
        codes = np.array([(get(a, -1), get(b, -1)) for a, b in pairs], dtype=np.int64)
        codes = codes.reshape(-1, 2)
        wanted, ids = codes[:, 0] * n + codes[:, 1], self.first * n + self.second
        rows = np.searchsorted(ids, wanted)
        found = (codes >= 0).all(axis=1) & (rows < len(ids))
        found[found] = ids[rows[found]] == wanted[found]
        if not found.all():
            first, second = pairs[int(np.argmin(found))]
            raise DatasetError(f"unknown pair ({first}, {second})")
        return rows


def build_links(cols: EventColumns, window: ObservationWindow) -> LinkGraph:
    """Fold the event columns into per-link counter arrays."""
    if (cols.caller == cols.callee).any():
        raise DatasetError("self-loop event: caller and callee are the same user")
    n_users = len(cols.users)
    # canonical order is lexicographic on user ids, not on intern codes
    lex_rank = np.empty(n_users, dtype=np.int64)
    lex_rank[np.argsort(np.asarray(cols.users, dtype=object))] = np.arange(n_users)
    caller_first = lex_rank[cols.caller] < lex_rank[cols.callee]
    first = np.where(caller_first, cols.caller, cols.callee)
    second = np.where(caller_first, cols.callee, cols.caller)
    unique_ids, group = np.unique(first * n_users + second, return_inverse=True)
    n_links, n_months = len(unique_ids), window.n_months

    is_call = cols.is_call
    is_text = ~is_call
    dur = np.where(is_call & (cols.duration >= 0), cols.duration, 0)

    def count(mask: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
        w = None if weights is None else weights[mask]
        return np.bincount(group[mask], weights=w, minlength=n_links).astype(np.int64)

    month_cell = group[is_call] * n_months + window.month_index(cols.timestamp[is_call])
    return LinkGraph(
        cols.users,
        {user: code for code, user in enumerate(cols.users)},
        lex_rank,
        group.astype(np.int32),  # a link row is below the event count
        *np.divmod(unique_ids, max(n_users, 1)),
        calls=count(is_call),
        texts=count(is_text),
        duration=count(is_call, dur),
        calls_from_first=count(is_call & caller_first),
        texts_from_first=count(is_text & caller_first),
        duration_from_first=count(is_call & caller_first, dur),
        months=np.bincount(month_cell, minlength=n_links * n_months).reshape(n_links, n_months),
    )


def apply_regularity_filter(
    graph: LinkGraph, window: ObservationWindow, min_months: int = 5
) -> LinkGraph:
    """Keep links with at least one call in ``min_months`` distinct months.

    Text-only activity never counts toward regularity. The view's
    ``event_link`` points at its own rows, -1 for the events of a dropped link.
    """
    if not 0 <= min_months <= window.n_months:
        raise ConfigError(
            f"min_months {min_months} must lie in 0..{window.n_months}, the months in the window"
        )
    keep = graph.active_months >= min_months
    remap = np.full(len(graph) + 1, -1, dtype=np.int32)  # the last slot keeps a -1
    remap[:-1][keep] = np.arange(np.count_nonzero(keep))
    fields = {name: getattr(graph, name)[keep] for name in _LINK_FIELDS}
    return replace(graph, event_link=remap[graph.event_link], **fields)


class AlterRanking(NamedTuple):
    """Every ego's alters, best first: entries ``start[u]:start[u + 1]`` of
    ``alter`` (user codes) and ``link`` (link rows) belong to user code ``u``."""

    alter: np.ndarray
    link: np.ndarray
    start: np.ndarray


def alter_ranking(graph: LinkGraph) -> AlterRanking:
    """Rank each ego's alters by call count, then total duration (both
    descending), then alter id, with one sort over both ends of every link."""
    link = np.tile(np.arange(len(graph)), 2)
    ego = np.concatenate([graph.first, graph.second])
    alter = np.concatenate([graph.second, graph.first])
    order = np.lexsort((graph.lex_rank[alter], -graph.duration[link], -graph.calls[link], ego))
    start = np.zeros(len(graph.users) + 1, dtype=np.int64)
    np.cumsum(np.bincount(ego, minlength=len(graph.users)), out=start[1:])
    return AlterRanking(alter[order], link[order], start)


def mutual_top_rank_pairs(graph: LinkGraph) -> list[PairKey]:
    """Pairs where each user is the other's rank-1 alter, sorted by key."""
    ranking = alter_ranking(graph)
    egos = np.flatnonzero(np.diff(ranking.start))
    top = np.full(len(graph.users), -1, dtype=np.int64)
    top[egos] = ranking.alter[ranking.start[egos]]
    mutual = egos[(top[top[egos]] == egos) & (graph.lex_rank[egos] < graph.lex_rank[top[egos]])]
    users = np.asarray(graph.users, dtype=object)
    return sorted(map(PairKey, users[mutual], users[top[mutual]]))


def _shared_alters(
    ranking: AlterRanking, a: np.ndarray, b: np.ndarray, depth: np.ndarray
) -> np.ndarray:
    """Per pair i, how many users are among both the first ``depth[a[i]]``
    ranked alters of a[i] and the first ``depth[b[i]]`` of b[i]. Neither user
    of a pair is ever counted: a link never joins a user to itself."""
    n_pairs, n_users = len(a), len(depth)
    ego = np.concatenate([a, b])
    take = depth[ego]
    slot = np.repeat(np.arange(2 * n_pairs), take)
    offset = np.arange(len(slot)) - (np.cumsum(take) - take)[slot]
    alter = ranking.alter[ranking.start[ego][slot] + offset]
    # an alter is listed at most once per ego, so a key seen twice is shared
    key = np.sort(slot % n_pairs * n_users + alter)
    return np.bincount(key[1:][key[1:] == key[:-1]] // n_users, minlength=n_pairs)


def common_contacts(graph: LinkGraph, pairs: Sequence[PairKey]) -> np.ndarray:
    """(top-5 common alters, all common alters) of each pair, excluding the
    pair itself, as an (n, 2) int array; every pair must be a link."""
    rows = graph.index(pairs)
    a, b = graph.first[rows], graph.second[rows]
    ranking = alter_ranking(graph)
    degree = np.diff(ranking.start)
    top = _shared_alters(ranking, a, b, np.minimum(degree, TOP_ALTERS))
    return np.stack([top, _shared_alters(ranking, a, b, degree)], axis=1)
