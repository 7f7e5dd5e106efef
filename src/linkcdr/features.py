"""Pair feature extraction: time segmentation, weekly statistics, daypart
fractions, active days, reciprocity, inter-event gaps, and the 175-value
vector.

``compute_feature_matrix`` is the one entry point. It reads the events and
their observation window from the link graph's columns, takes each pair's
events through the graph's ``event_link``, and builds each feature group
with whole-array operations over blocks of ``ROW_BLOCK`` output rows, so
it holds one block's temporaries; one pair's vector is the one-row call.
The stages return raw values, and each block then applies the transform
that ``manifest.FEATURE_SPECS`` names for each column (``_transform``).

All day/hour decisions use local wall-clock time obtained by adding a fixed
UTC offset to the event timestamps (single-country data, no DST model); an
event's time segment is a lookup in ``manifest.SEGMENT_OF_HOUR``. Weeks are
Monday-aligned local calendar weeks fully contained in the observation
window; weeks without activity contribute explicit zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import manifest
from .errors import DatasetError
from .ingest import EventColumns, ObservationWindow
from .manifest import MONDAY_EPOCH_DAY, SECONDS_PER_DAY, SEGMENT_OF_HOUR
from .pairgraph import LinkGraph, common_contacts
from .relations import PairKey

_SEGMENT_OF_HOUR = np.array(SEGMENT_OF_HOUR, dtype=np.int8)
ROW_BLOCK = 1024  # output rows per block of the feature kernel
_EVENT_CHUNK_BITS = 16
_EVENT_CHUNK = 1 << _EVENT_CHUNK_BITS  # events per chunk of the sort that groups them by row


def _local_parts(ts: np.ndarray, utc_offset: int) -> tuple[np.ndarray, np.ndarray]:
    """(local day number, int8 segment index) for an epoch array; the
    segment is ``manifest.SEGMENT_OF_HOUR`` at the local hour of the week."""
    lt = ts + utc_offset
    hour_of_week = (lt - MONDAY_EPOCH_DAY * SECONDS_PER_DAY) % (7 * SECONDS_PER_DAY) // 3600
    return lt // SECONDS_PER_DAY, _SEGMENT_OF_HOUR[hour_of_week]


@dataclass(frozen=True)
class WeekGrid:
    """Monday-aligned full weeks of a window, in local day numbers."""

    first_monday_day: int
    n_weeks: int

    @classmethod
    def from_window(cls, window: ObservationWindow, utc_offset: int = 0) -> "WeekGrid":
        start_local = window.start + utc_offset
        end_local = window.end + utc_offset
        first_day = -(-start_local // SECONDS_PER_DAY)
        first_monday = first_day + (MONDAY_EPOCH_DAY - first_day) % 7
        n_weeks = (end_local // SECONDS_PER_DAY - first_monday) // 7
        if n_weeks < 1:
            raise DatasetError("observation window holds no full Monday-aligned week")
        return cls(int(first_monday), int(n_weeks))

    def week_index(self, day: np.ndarray) -> np.ndarray:
        """Full-week index per event day, ``n_weeks`` outside the grid."""
        idx = (day - self.first_monday_day) // 7
        return np.where((idx >= 0) & (idx < self.n_weeks), idx, self.n_weeks)


def _group_stats(
    values: np.ndarray, start: np.ndarray, count: np.ndarray | int
) -> np.ndarray:
    """(runs, 7) population statistics (``manifest.STATS``) of the runs of
    ``values`` that begin at ``start`` and hold ``count`` values each (one
    count for runs of equal length). The runs are non-empty, each sorted,
    and tile ``values`` in order.

    Moments are segmented sums; third and fourth moments are products of
    the squared deviations, since numpy computes only ``**2`` without
    ``pow``. The order statistics are read at the run offsets; the median
    is the mean of the two middle entries, ``np.median``'s arithmetic.
    """
    mean = np.add.reduceat(values, start) / count
    centered = values - np.repeat(mean, count)
    sq = centered * centered
    std = np.sqrt(np.add.reduceat(sq, start) / count)
    safe = np.where(std > 0, std, 1.0)
    skew = np.where(std > 0, np.add.reduceat(sq * centered, start) / count / safe**3, 0.0)
    kurt = np.where(std > 0, np.add.reduceat(sq * sq, start) / count / safe**4 - 3.0, 0.0)
    median = (values[start + (count - 1) // 2] + values[start + count // 2]) / 2
    lo, hi = values[start], values[start + count - 1]
    return np.stack([mean, median, std, lo, hi, skew, kurt], axis=1)


# The columns each transform of ``manifest.FEATURE_SPECS`` applies to; the
# stages return raw values and ``_transform`` applies these once per block.
_LOG1P, _SIGNED_LOG1P = (
    np.flatnonzero([spec.transform == name for spec in manifest.FEATURE_SPECS])
    for name in (manifest.TRANSFORM_LOG1P, manifest.TRANSFORM_SIGNED_LOG1P)
)


def _transform(raw: np.ndarray) -> None:
    """Apply in place, to each column of the raw feature rows ``raw``, the
    transform its ``manifest.FEATURE_SPECS`` entry names."""
    raw[:, _LOG1P] = np.log1p(raw[:, _LOG1P])
    signed = raw[:, _SIGNED_LOG1P]
    raw[:, _SIGNED_LOG1P] = np.sign(signed) * np.log1p(np.abs(signed))


# --- stage functions: each builds one feature group for every row -----------


class _Events(NamedTuple):
    """Per-event arrays shared by the stages; ``row`` is each event's output row."""

    row: np.ndarray
    ts: np.ndarray
    is_call: np.ndarray
    known_dur: np.ndarray  # unknown call durations as 0
    day: np.ndarray
    seg: np.ndarray

    @classmethod
    def select(cls, cols: EventColumns, idx, row: np.ndarray, utc_offset: int) -> "_Events":
        ts = cols.timestamp[idx]
        day, seg = _local_parts(ts, utc_offset)
        known_dur = np.maximum(cols.duration[idx], 0).astype(np.float64)
        return cls(row, ts, cols.is_call[idx], known_dur, day, seg)


def _weekly_tensor(ev: _Events, n_rows: int, grid: WeekGrid) -> np.ndarray:
    """(rows, weeks + 1, 18) weekly calls, call durations and texts per
    segment, from one bincount over (row, week, quantity, segment); the
    last week slot holds the events outside every full week."""
    slots = grid.n_weeks + 1
    base = (ev.row * slots + grid.week_index(ev.day)) * 18 + ev.seg
    keys = np.concatenate([base + np.where(ev.is_call, 0, 12), base[ev.is_call] + 6])
    weights = np.concatenate([np.ones(base.size), ev.known_dur[ev.is_call]])
    sums = np.bincount(keys, weights, minlength=n_rows * slots * 18)
    return sums.reshape(n_rows, slots, 18)


def _weekly_stats(weeks: np.ndarray) -> np.ndarray:
    """(rows, 126): the 7 statistics over the weeks of each of the 18
    columns of a (rows, weeks, 18) tensor, each column's weeks one sorted
    run of ``_group_stats``."""
    n_rows, n_weeks, n_cols = weeks.shape
    runs = weeks.transpose(0, 2, 1).copy().reshape(n_rows * n_cols, n_weeks)
    runs.sort(axis=1)
    start = np.arange(0, runs.size, n_weeks)
    return _group_stats(runs.ravel(), start, n_weeks).reshape(n_rows, n_cols * 7)


def _fractions(totals: np.ndarray) -> np.ndarray:
    """(rows, 18) daypart shares from (rows, 3 quantities, 6 segments) totals."""
    blocks = totals.reshape(-1, 3, 2, 3).transpose(0, 2, 1, 3)  # row, weekpart, qty, daypart
    weekpart_total = blocks.sum(axis=-1, keepdims=True)
    frac = np.divide(blocks, weekpart_total, out=np.zeros_like(blocks), where=weekpart_total > 0)
    return frac.reshape(len(totals), 18)


def _active_days(ev: _Events, n_rows: int) -> np.ndarray:
    """(rows, 12) counts of distinct local days with a call, then a text,
    per segment: the distinct (row, kind, segment, day) keys of one sort."""
    slot = ev.row * 12 + np.where(ev.is_call, 0, 6) + ev.seg
    day = ev.day - ev.day.min() if ev.day.size else ev.day
    span = int(day.max(initial=0)) + 1
    keys = np.sort(slot * span + day)
    active_slots = keys[np.diff(keys, prepend=-1) != 0] // span
    return np.bincount(active_slots, minlength=n_rows * 12).reshape(n_rows, 12)


def _reciprocity(graph: LinkGraph, links: np.ndarray) -> np.ndarray:
    """(rows, 3) |out - in| / (out + in) of the calls, durations and texts on
    the graph's rows ``links``; 0 without traffic."""
    total = np.stack([graph.calls[links], graph.duration[links], graph.texts[links]], axis=1)
    from_first = np.stack(
        [
            graph.calls_from_first[links],
            graph.duration_from_first[links],
            graph.texts_from_first[links],
        ],
        axis=1,
    )
    gap = np.abs(total - 2 * from_first).astype(np.float64)
    return np.divide(gap, total, out=np.zeros_like(gap), where=total > 0)


def _interevent(
    group: np.ndarray, ts: np.ndarray, n_groups: int, window_seconds: int
) -> np.ndarray:
    """(n_groups, 7) gap statistics of each group's event times.

    One sort of (group, ts) keys yields every group's gaps contiguously,
    and one sort of (group, gap) keys gives ``_group_stats`` each group's
    gaps as a sorted run. Groups with fewer than two events take the
    window length for the scale statistics and 0 for skewness and kurtosis.
    """
    out = np.zeros((n_groups, 7))
    out[:, :5] = window_seconds
    if ts.size < 2:
        return out
    t0 = int(ts.min())
    span = int(ts.max()) - t0 + 1
    if n_groups * span >= 2**63:
        raise DatasetError("event times span too long to sort with their pair index")
    group, ts = np.divmod(np.sort(group * span + (ts - t0)), span)
    same = group[1:] == group[:-1]
    gap_group = group[1:][same]
    gaps = np.sort(gap_group * span + np.diff(ts)[same]) % span
    count = np.bincount(gap_group, minlength=n_groups)
    owners = np.flatnonzero(count)
    count = count[owners]
    out[owners] = _group_stats(gaps.astype(np.float64), np.cumsum(count) - count, count)
    return out


# --- the kernel ---------------------------------------------------------------


def _grouped_by_row(row: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Positions (int32) of the events that have a row (``row >= 0``),
    grouped by row in ascending order and ascending within a row; row r has
    ``count[r]`` events. A stable counting sort that places ``_EVENT_CHUNK``
    events at a time, so besides its output it holds one chunk's temporaries."""
    fill = np.cumsum(count) - count  # the next free slot of each row
    out = np.empty(int(count.sum()), dtype=np.int32)
    for lo in range(0, len(row), _EVENT_CHUNK):
        chunk = row[lo : lo + _EVENT_CHUNK]
        # (row, position) keys are distinct, so one plain sort is stable
        key = np.flatnonzero(chunk >= 0)
        key += chunk[key].astype(np.int64) << _EVENT_CHUNK_BITS
        key.sort()
        r = key >> _EVENT_CHUNK_BITS
        head = np.flatnonzero(np.diff(r, prepend=-1))  # where each row's run starts
        size = np.diff(head, append=len(r))
        r = r[head]
        at = np.repeat(fill[r] - head, size)  # a run's i-th event goes to its row's slot + i
        at += np.arange(len(key))
        key &= _EVENT_CHUNK - 1
        key += lo
        out[at] = key
        fill[r] += size
    return out


def _row_blocks(
    graph: LinkGraph, links: np.ndarray, utc_offset: int
) -> Iterator[tuple[int, int, _Events]]:
    """``(lo, hi, events)`` for each block of ``ROW_BLOCK`` output rows, the
    graph's rows ``links``: the block's events, in file order within each
    row, with each one's row less ``lo``. The events are first grouped by
    row (``_grouped_by_row``), so each block's events are one run of them."""
    lookup = np.full(len(graph), -1, dtype=np.int32)
    lookup[links] = np.arange(len(links))
    row = lookup[graph.event_link]
    del lookup
    count = graph.calls[links] + graph.texts[links]  # each row's events
    grouped = _grouped_by_row(row, count)
    del row
    start = np.concatenate(([0], np.cumsum(count)))
    for lo in range(0, len(links), ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, len(links))
        idx, row = grouped[start[lo] : start[hi]], np.repeat(np.arange(hi - lo), count[lo:hi])
        yield lo, hi, _Events.select(graph.columns, idx, row, utc_offset)


def compute_feature_matrix(
    graph: LinkGraph,
    pairs: Sequence[PairKey],
    utc_offset: int = 0,
    contact_links: np.ndarray | None = None,
) -> np.ndarray:
    """Feature matrix (len(pairs) x 175) in the order of ``pairs``.

    ``graph`` holds every pair; the events and the window are its columns'.
    The common contacts count over its rows ``contact_links`` (default:
    every link). The pairs' distinct links are computed in blocks of
    ``ROW_BLOCK`` (``_row_blocks``), each written straight to the rows of
    its pairs. Every feature adds, sorts and counts each link's events in
    file order whatever the blocks, so the block size moves no byte.
    """
    if not pairs:
        return np.zeros((0, manifest.N_FEATURES))
    out = np.empty((len(pairs), manifest.N_FEATURES))
    out[:, -2:] = common_contacts(graph, pairs, contact_links)
    window = graph.columns.window
    grid = WeekGrid.from_window(window, utc_offset)
    links, inverse = np.unique(graph.index(pairs), return_inverse=True)
    by_link = np.argsort(inverse, kind="stable")
    for lo, hi, ev in _row_blocks(graph, links, utc_offset):
        n = hi - lo
        gaps = _interevent(2 * ev.row + ~ev.is_call, ev.ts, 2 * n, window.n_seconds)
        tally = _weekly_tensor(ev, n, grid)
        values = np.concatenate(
            [
                _weekly_stats(tally[:, :-1]),
                _fractions(tally.sum(axis=1)),
                _active_days(ev, n),
                _reciprocity(graph, links[lo:hi]),
                gaps.reshape(n, 14),
            ],
            axis=1,
        )
        _transform(values)
        at = by_link[slice(*np.searchsorted(inverse, (lo, hi), sorter=by_link))]
        out[at, :-2] = values[inverse[at] - lo]
    return out
