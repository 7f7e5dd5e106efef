"""Ego-alter call graph: link aggregation, alter ranking, mutual top-rank
pair extraction and common contacts.

A *link* is the undirected aggregate of all events between one unordered
user pair. ``LinkGraph`` holds the ``EventColumns`` it was built from, and
so their window, one array entry per link over their user codes, and the
one index from events to links (``event_link``); user ids appear only at
its edges (``keys()`` and ``index(pairs)``). A subset of the links, such as
those the regularity filter keeps, is an array of link rows (``links``),
never a second graph. Alters of an ego are ranked over such rows (default:
every link) by total call count, with a deterministic tie-break (higher
total duration, then smaller alter id), in one sort over all egos
(``alter_ranking``). A *mutual top-rank pair* is a pair where each user is
the other's rank-1 alter after the regularity filter; ``common_contacts``
counts the shared top-5 and all shared alters of a list of pairs in one
batched call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DatasetError
from .ingest import EventColumns
from .relations import PairKey

TOP_ALTERS = 5  # depth of the top-alter lists behind the top-5 common contacts


@dataclass(frozen=True, eq=False)
class LinkGraph:
    """Per-link counter arrays over the user codes of ``columns``, the event
    set the graph was built from.

    ``first``/``second`` hold each link's user codes, smaller id first, and
    rows are sorted by ``first * len(users) + second``. Directional counters
    count from the first user (from-second = total - from-first); durations
    sum known call durations; ``months`` counts calls per calendar month of
    the columns' window. ``lex_rank`` is each user code's position in id
    order. ``event_link`` is each event's link row (int32).
    """

    columns: EventColumns
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
    def users(self) -> list[str]:
        return self.columns.users

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


def build_links(cols: EventColumns) -> LinkGraph:
    """Fold the event columns into per-link counter arrays: one bincount
    over ``row * 4 + 2 * is_call + caller_first`` counts calls and texts from
    each end, known call durations are summed exactly in int64 over
    ``row * 2 + caller_first``, and one bincount counts calls per (row,
    month). Each full-length temporary is freed once its counts are taken.
    A link whose durations sum past int64 raises DatasetError."""
    if (cols.caller == cols.callee).any():
        raise DatasetError("self-loop event: caller and callee are the same user")
    n_users = len(cols.users)
    # canonical order is lexicographic on user ids, not on intern codes
    lex_rank = np.empty(n_users, dtype=np.int64)
    lex_rank[np.argsort(np.asarray(cols.users, dtype=object))] = np.arange(n_users)
    caller_first = lex_rank[cols.caller] < lex_rank[cols.callee]
    first = np.where(caller_first, cols.caller, cols.callee)
    second = np.where(caller_first, cols.callee, cols.caller)
    key = first * n_users + second
    del first, second
    unique_ids, group = np.unique(key, return_inverse=True)
    del key
    n_links, n_months = len(unique_ids), cols.window.n_months

    is_call = cols.is_call
    counts = np.bincount(group * 4 + 2 * is_call + caller_first, minlength=4 * n_links)
    texts_from_second, texts_from_first, calls_from_second, calls_from_first = counts.reshape(
        n_links, 4
    ).T
    known = is_call & (cols.duration >= 0)
    cell, duration = group[known] * 2 + caller_first[known], cols.duration[known]
    del caller_first, known
    # The high and low 32 bits of the durations are summed apart, so neither
    # sum can wrap (a link has fewer than 2**31 events).
    high, low = np.zeros((2, 2 * n_links), dtype=np.int64)
    np.add.at(high, cell, duration >> 32)
    duration &= 0xFFFFFFFF
    np.add.at(low, cell, duration)
    del cell, duration
    high, low = high.reshape(n_links, 2), low.reshape(n_links, 2)
    past_int64 = high.sum(axis=1) + (low.sum(axis=1) >> 32) >= 1 << 31
    if past_int64.any():
        first, second = divmod(int(unique_ids[np.argmax(past_int64)]), n_users)
        raise DatasetError(
            f"call durations of link ({cols.users[first]}, {cols.users[second]}) sum past int64"
        )
    duration_from_second, duration_from_first = ((high << 32) + low).T
    month_cell = group[is_call] * n_months + cols.window.month_index(cols.timestamp[is_call])
    months = np.bincount(month_cell, minlength=n_links * n_months).reshape(n_links, n_months)
    del month_cell
    return LinkGraph(
        cols,
        {user: code for code, user in enumerate(cols.users)},
        lex_rank,
        group.astype(np.int32),  # a link row is below the event count
        *np.divmod(unique_ids, max(n_users, 1)),
        calls=calls_from_first + calls_from_second,
        texts=texts_from_first + texts_from_second,
        duration=duration_from_first + duration_from_second,
        calls_from_first=calls_from_first,
        texts_from_first=texts_from_first,
        duration_from_first=duration_from_first,
        months=months,
    )


def apply_regularity_filter(graph: LinkGraph, min_months: int = 5) -> np.ndarray:
    """Ascending int64 rows of the links with at least one call in
    ``min_months`` distinct months; text-only activity never counts."""
    n_months = graph.columns.window.n_months
    if not 0 <= min_months <= n_months:
        raise ConfigError(
            f"min_months {min_months} must lie in 0..{n_months}, the months in the window"
        )
    return np.flatnonzero(graph.active_months >= min_months).astype(np.int64, copy=False)


class AlterRanking(NamedTuple):
    """Every ego's alters, best first: entries ``start[u]:start[u + 1]`` of
    ``alter`` (user codes) and ``link`` (link rows) belong to user code ``u``."""

    alter: np.ndarray
    link: np.ndarray
    start: np.ndarray


def alter_ranking(graph: LinkGraph, links: np.ndarray | None = None) -> AlterRanking:
    """Rank each ego's alters among ``links`` by call count, then total duration
    (both descending), then alter id, with one sort over both ends of every link."""
    links = np.arange(len(graph)) if links is None else links
    link = np.tile(links, 2)
    ego = np.concatenate([graph.first[links], graph.second[links]])
    alter = np.concatenate([graph.second[links], graph.first[links]])
    order = np.lexsort((graph.lex_rank[alter], -graph.duration[link], -graph.calls[link], ego))
    start = np.zeros(len(graph.users) + 1, dtype=np.int64)
    np.cumsum(np.bincount(ego, minlength=len(graph.users)), out=start[1:])
    return AlterRanking(alter[order], link[order], start)


def mutual_top_rank_pairs(graph: LinkGraph, links: np.ndarray | None = None) -> list[PairKey]:
    """Pairs where each user is the other's rank-1 alter among ``links``, sorted by key."""
    ranking = alter_ranking(graph, links)
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


def common_contacts(
    graph: LinkGraph, pairs: Sequence[PairKey], links: np.ndarray | None = None
) -> np.ndarray:
    """(top-5 common alters, all common alters) of each pair among ``links``,
    excluding the pair itself, as an (n, 2) int array; every pair must be one
    of ``links``."""
    rows = graph.index(pairs)
    if links is not None and not np.isin(rows, links).all():
        first, second = pairs[int(np.argmin(np.isin(rows, links)))]
        raise DatasetError(f"pair ({first}, {second}) is not one of the ranked links")
    a, b = graph.first[rows], graph.second[rows]
    ranking = alter_ranking(graph, links)
    degree = np.diff(ranking.start)
    top = _shared_alters(ranking, a, b, np.minimum(degree, TOP_ALTERS))
    return np.stack([top, _shared_alters(ranking, a, b, degree)], axis=1)
