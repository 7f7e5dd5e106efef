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
from .ingest import MAX_EVENTS, EventColumns
from .relations import PairKey

TOP_ALTERS = 5  # depth of the top-alter lists behind the top-5 common contacts
LINK_BLOCK = 1 << 16  # events per block of build_links' fold


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
        wanted, ids = codes[:, 0] * n + codes[:, 1], self.first * n
        ids += self.second  # in place: one int64 per link
        rows = np.searchsorted(ids, wanted)
        found = (codes >= 0).all(axis=1) & (rows < len(ids))
        found[found] = ids[rows[found]] == wanted[found]
        if not found.all():
            first, second = pairs[int(np.argmin(found))]
            raise DatasetError(f"unknown pair ({first}, {second})")
        return rows


def _add_rows(totals: np.ndarray, cell: np.ndarray, rows: np.ndarray) -> None:
    """Add the counts of ``cell`` = column * len(rows) + local link to
    ``totals`` (one row per column, one entry per link) at the links
    ``rows``, which are distinct: one 1-D fancy add per column, which numpy
    runs about twice as fast as one 2-D fancy add over all the columns."""
    parts = np.bincount(cell, minlength=len(totals) * len(rows)).reshape(len(totals), -1)
    for total, part in zip(totals, parts):
        total[rows] += part


def build_links(cols: EventColumns) -> LinkGraph:
    """Fold the event columns into per-link counter arrays in blocks of
    ``LINK_BLOCK`` events, in two passes.

    The first pass keys each event by its link (``first * n_users +
    second``), takes each block's distinct keys with ``np.unique`` and keeps
    its inverse in ``event_link``; one sort of all blocks' distinct keys
    then gives the link rows. The second pass maps each block's distinct
    keys to their rows by ``searchsorted``, remaps the block's
    ``event_link`` through them and adds the block's counts: a bincount
    over (``2 * is_call + caller_first``, local link) counts calls and texts
    from each end, known call durations are summed exactly in int64 over
    ``row * 2 + caller_first``, and a bincount counts calls per (month,
    local link). So besides the graph it returns, the fold holds only the
    blocks' distinct keys and one block's temporaries. A link whose
    durations sum past int64 raises DatasetError, and so do more than
    ``MAX_EVENTS`` events, since link rows and event positions are int32."""
    n_users, n_events = len(cols.users), len(cols)
    if n_events > MAX_EVENTS:
        raise DatasetError(f"{n_events} events: int32 event positions hold at most {MAX_EVENTS}")
    # canonical order is lexicographic on user ids, not on intern codes
    lex_rank = np.empty(n_users, dtype=np.int64)
    lex_rank[np.argsort(np.asarray(cols.users, dtype=object))] = np.arange(n_users)
    # no events make one empty block
    blocks = [slice(lo, lo + LINK_BLOCK) for lo in range(0, max(n_events, 1), LINK_BLOCK)]
    event_link = np.empty(n_events, dtype=np.int32)  # a link row is below the event count
    block_keys = []
    for block in blocks:
        caller, callee = cols.caller[block], cols.callee[block]
        if (caller == callee).any():
            raise DatasetError("self-loop event: caller and callee are the same user")
        caller_first = lex_rank[caller] < lex_rank[callee]
        key = np.where(caller_first, caller, callee).astype(np.int64)  # codes may be int32
        key *= n_users
        key += np.where(caller_first, callee, caller)
        keys, event_link[block] = np.unique(key, return_inverse=True)
        block_keys.append(keys)
    # a sort and a mask: np.unique without an inverse hashes, several times slower
    link_keys = np.concatenate(block_keys)
    link_keys.sort()
    new_key = np.ones(len(link_keys), dtype=bool)
    np.not_equal(link_keys[1:], link_keys[:-1], out=new_key[1:])
    link_keys = link_keys[new_key]
    n_links, n_months = len(link_keys), cols.window.n_months

    counts = np.zeros((4, n_links), dtype=np.int64)
    # The high and low 32 bits of the durations are summed apart, so neither
    # sum can wrap (a link has fewer than 2**31 events).
    high, low = np.zeros((2, 2 * n_links), dtype=np.int64)
    months = np.zeros((n_months, n_links), dtype=np.int64)
    for block, keys in zip(blocks, block_keys):
        rows = np.searchsorted(link_keys, keys)
        local = event_link[block].astype(np.int64)
        caller_first = lex_rank[cols.caller[block]] < lex_rank[cols.callee[block]]
        is_call = cols.is_call[block]
        cell = (2 * is_call + caller_first) * len(keys) + local
        _add_rows(counts, cell, rows)
        duration = cols.duration[block]
        known = is_call & (duration >= 0)
        cell, duration = rows[local[known]] * 2 + caller_first[known], duration[known]
        np.add.at(high, cell, duration >> 32)
        duration &= 0xFFFFFFFF
        np.add.at(low, cell, duration)
        cell = local[is_call] + len(keys) * cols.window.month_index(cols.timestamp[block][is_call])
        _add_rows(months, cell, rows)
        event_link[block] = rows[local]
    high, low = high.reshape(n_links, 2), low.reshape(n_links, 2)
    past_int64 = high.sum(axis=1) + (low.sum(axis=1) >> 32) >= 1 << 31
    if past_int64.any():
        first, second = divmod(int(link_keys[np.argmax(past_int64)]), n_users)
        raise DatasetError(
            f"call durations of link ({cols.users[first]}, {cols.users[second]}) sum past int64"
        )
    duration_from_second, duration_from_first = ((high << 32) + low).T
    first = link_keys // n_users
    texts_from_second, texts_from_first, calls_from_second, calls_from_first = counts
    return LinkGraph(
        cols,
        {user: code for code, user in enumerate(cols.users)},
        lex_rank,
        event_link,
        first,
        link_keys - first * n_users,
        calls=calls_from_first + calls_from_second,
        texts=texts_from_first + texts_from_second,
        duration=duration_from_first + duration_from_second,
        calls_from_first=calls_from_first,
        texts_from_first=texts_from_first,
        duration_from_first=duration_from_first,
        months=months.T,
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
    pair = slot - slot // n_pairs * n_pairs
    key = np.sort(pair * n_users + alter)
    return np.bincount(key[1:][key[1:] == key[:-1]] // n_users, minlength=n_pairs)


def common_contacts(
    graph: LinkGraph, pairs: Sequence[PairKey], links: np.ndarray | None = None
) -> np.ndarray:
    """(top-5 common alters, all common alters) of each pair among ``links``,
    excluding the pair itself, as an (n, 2) int array; every pair must be one
    of ``links``. Only a link that touches a pair's user can rank that user's
    alters, so only those links are ranked."""
    rows = graph.index(pairs)
    if links is None:
        ranked = np.ones(len(graph), dtype=bool)
    else:
        ranked = np.zeros(len(graph), dtype=bool)
        ranked[links] = True
        if not ranked[rows].all():
            first, second = pairs[int(np.argmin(ranked[rows]))]
            raise DatasetError(f"pair ({first}, {second}) is not one of the ranked links")
    a, b = graph.first[rows], graph.second[rows]
    pair_user = np.zeros(len(graph.users), dtype=bool)
    pair_user[a] = pair_user[b] = True
    ranked &= pair_user[graph.first] | pair_user[graph.second]
    ranking = alter_ranking(graph, np.flatnonzero(ranked))
    degree = np.diff(ranking.start)
    top = _shared_alters(ranking, a, b, np.minimum(degree, TOP_ALTERS))
    return np.stack([top, _shared_alters(ranking, a, b, degree)], axis=1)
