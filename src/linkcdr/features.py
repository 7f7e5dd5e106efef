"""Pair feature extraction: time segmentation, weekly statistics, daypart
fractions, active days, reciprocity, inter-event gaps, and the 175-value
vector.

``compute_feature_matrix`` is the one entry point. It takes each pair's
events from the link graph's ``event_link`` and builds each feature group
for all rows with whole-array operations; one pair's vector is the one-row call.

All day/hour decisions use local wall-clock time obtained by adding a fixed
UTC offset to the event timestamps (single-country data, no DST model); an
event's time segment is a lookup in ``manifest.SEGMENT_OF_HOUR``. Weeks are
Monday-aligned local calendar weeks fully contained in the observation
window; weeks without activity contribute explicit zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import manifest
from .errors import DatasetError
from .ingest import EventColumns, ObservationWindow
from .manifest import MONDAY_EPOCH_DAY, SECONDS_PER_DAY, SEGMENT_OF_HOUR
from .pairgraph import LinkGraph, common_contacts
from .relations import PairKey

_SEGMENT_OF_HOUR = np.array(SEGMENT_OF_HOUR, dtype=np.int8)


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
    utc_offset: int

    @classmethod
    def from_window(cls, window: ObservationWindow, utc_offset: int = 0) -> "WeekGrid":
        start_local = window.start + utc_offset
        end_local = window.end + utc_offset
        first_day = -(-start_local // SECONDS_PER_DAY)
        first_monday = first_day + (MONDAY_EPOCH_DAY - first_day) % 7
        n_weeks = (end_local // SECONDS_PER_DAY - first_monday) // 7
        if n_weeks < 1:
            raise DatasetError("observation window holds no full Monday-aligned week")
        return cls(int(first_monday), int(n_weeks), utc_offset)

    def week_index(self, day: np.ndarray) -> np.ndarray:
        """Full-week index per event day, -1 outside the grid."""
        idx = (day - self.first_monday_day) // 7
        return np.where((idx >= 0) & (idx < self.n_weeks), idx, -1)


def _column_stats(x: np.ndarray, axis: int = 0) -> np.ndarray:
    """(7, ...) population statistics of ``x`` along ``axis``."""
    mean = x.mean(axis=axis, keepdims=True)
    centered = x - mean
    std = np.sqrt(np.mean(centered**2, axis=axis, keepdims=True))
    safe = np.where(std > 0, std, 1.0)
    skew = np.where(std > 0, np.mean(centered**3, axis=axis, keepdims=True) / safe**3, 0.0)
    kurt = np.where(std > 0, np.mean(centered**4, axis=axis, keepdims=True) / safe**4 - 3.0, 0.0)
    median = np.median(x, axis=axis, keepdims=True)
    lo, hi = x.min(axis=axis, keepdims=True), x.max(axis=axis, keepdims=True)
    return np.stack([s.squeeze(axis) for s in (mean, median, std, lo, hi, skew, kurt)])


def _signed_log1p(x: np.ndarray) -> np.ndarray:
    return np.sign(x) * np.log1p(np.abs(x))


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


def _quantity_sums(
    group: np.ndarray,
    cell: np.ndarray,
    is_call: np.ndarray,
    known_dur: np.ndarray,
    n_groups: int,
    n_cells: int,
) -> np.ndarray:
    """(n_groups, 3, n_cells) call counts, call durations and text counts,
    from one bincount over (group, quantity, cell)."""
    width = 3 * n_cells
    base = group * width + cell
    keys = np.concatenate([base + np.where(is_call, 0, 2 * n_cells), base[is_call] + n_cells])
    weights = np.concatenate([np.ones(base.size), known_dur[is_call]])
    sums = np.bincount(keys, weights, minlength=n_groups * width)
    return sums.reshape(n_groups, 3, n_cells)


def _weekly_tensor(ev: _Events, n_rows: int, grid: WeekGrid) -> np.ndarray:
    """(rows, weeks, 18) weekly calls, durations and texts per segment."""
    week = grid.week_index(ev.day)
    inside = week >= 0
    sums = _quantity_sums(
        ev.row[inside] * grid.n_weeks + week[inside],
        ev.seg[inside],
        ev.is_call[inside],
        ev.known_dur[inside],
        n_rows * grid.n_weeks,
        6,
    )
    return sums.reshape(n_rows, grid.n_weeks, 18)


def _weekly_stats(tensor: np.ndarray) -> np.ndarray:
    """(rows, 126): 7 statistics over the weeks per (quantity, segment)
    column, the five scale statistics log1p-transformed."""
    block = _column_stats(tensor, axis=1).transpose(1, 2, 0).copy()
    block[..., :5] = np.log1p(block[..., :5])
    return block.reshape(len(tensor), 126)


def _fractions(totals: np.ndarray) -> np.ndarray:
    """(rows, 18) daypart shares from (rows, 3 quantities, 6 segments) totals."""
    blocks = totals.reshape(-1, 3, 2, 3).transpose(0, 2, 1, 3)  # row, weekpart, qty, daypart
    weekpart_total = blocks.sum(axis=-1, keepdims=True)
    frac = np.divide(blocks, weekpart_total, out=np.zeros_like(blocks), where=weekpart_total > 0)
    # late-night calls and duration carry footnote log1p
    frac[:, :, :2, 2] = np.log1p(frac[:, :, :2, 2])
    return frac.reshape(len(totals), 18)


def _active_days(ev: _Events, n_rows: int) -> np.ndarray:
    """(rows, 12) log1p counts of distinct local days with a call, then a
    text, per segment: the distinct (row, kind, segment, day) keys of one sort."""
    slot = ev.row * 12 + np.where(ev.is_call, 0, 6) + ev.seg
    day = ev.day - ev.day.min() if ev.day.size else ev.day
    span = int(day.max(initial=0)) + 1
    keys = np.sort(slot * span + day)
    active_slots = keys[np.diff(keys, prepend=-1) != 0] // span
    return np.log1p(np.bincount(active_slots, minlength=n_rows * 12).reshape(n_rows, 12))


def _reciprocity(graph: LinkGraph, links: np.ndarray) -> np.ndarray:
    """(rows, 3) |out - in| / (out + in) of the calls, durations and texts on
    the graph's rows ``links``; 0 without traffic."""
    total = np.stack([graph.calls, graph.duration, graph.texts], axis=1)[links]
    from_first = np.stack(
        [graph.calls_from_first, graph.duration_from_first, graph.texts_from_first], axis=1
    )[links]
    gap = np.abs(total - 2 * from_first).astype(np.float64)
    return np.divide(gap, total, out=np.zeros_like(gap), where=total > 0)


def _interevent(
    group: np.ndarray, ts: np.ndarray, n_groups: int, window_seconds: int
) -> np.ndarray:
    """(n_groups, 7) transformed gap statistics of each group's event times.

    One sort of (group, ts) keys yields every group's gaps contiguously;
    moments are segmented sums and the order statistics come from one sort
    of (group, gap) keys. Groups with fewer than two events take the
    sentinel log1p(window length) for the scale statistics and 0 for
    skewness and kurtosis.
    """
    out = np.zeros((n_groups, 7))
    out[:, :5] = math.log1p(window_seconds)
    if ts.size < 2:
        return out
    t0 = int(ts.min())
    span = int(ts.max()) - t0 + 1
    if n_groups * span >= 2**63:
        raise DatasetError("event times span too long to sort with their pair index")
    group, ts = np.divmod(np.sort(group * span + (ts - t0)), span)
    same = group[1:] == group[:-1]
    gap_group = group[1:][same]
    if gap_group.size == 0:
        return out
    gaps = np.diff(ts)[same]
    count = np.bincount(gap_group, minlength=n_groups)
    owners = np.flatnonzero(count)
    count = count[owners]
    start = np.cumsum(count) - count
    ordered = (np.sort(gap_group * span + gaps) % span).astype(np.float64)
    gaps = gaps.astype(np.float64)

    mean = np.add.reduceat(gaps, start) / count
    centered = gaps - np.repeat(mean, count)
    std = np.sqrt(np.add.reduceat(centered**2, start) / count)
    safe = np.where(std > 0, std, 1.0)
    skew = np.where(std > 0, np.add.reduceat(centered**3, start) / count / safe**3, 0.0)
    kurt = np.where(std > 0, np.add.reduceat(centered**4, start) / count / safe**4 - 3.0, 0.0)

    mid = start + count // 2
    median = np.where(count % 2, ordered[mid], (ordered[mid - 1] + ordered[mid]) / 2)
    lo, hi = ordered[start], ordered[start + count - 1]
    out[owners, :5] = np.log1p(np.stack([mean, median, std, lo, hi], axis=1))
    out[owners, 5:] = _signed_log1p(np.stack([skew, kurt], axis=1))
    return out


# --- the kernel ---------------------------------------------------------------


def compute_feature_matrix(
    cols: EventColumns,
    pairs: Sequence[PairKey],
    graph: LinkGraph,
    window: ObservationWindow,
    utc_offset: int = 0,
) -> np.ndarray:
    """Feature matrix (len(pairs) x 175) in the order of ``pairs``.

    ``graph`` is ``build_links(cols, window)`` or a filtered view of it and
    holds every pair; it gives each pair's events, totals and common contacts.
    """
    if len(graph.event_link) != len(cols):
        raise DatasetError(
            f"the link graph indexes {len(graph.event_link)} events, the columns {len(cols)}"
        )
    if not pairs:
        return np.zeros((0, manifest.N_FEATURES))
    grid = WeekGrid.from_window(window, utc_offset)
    links, inverse = np.unique(graph.index(pairs), return_inverse=True)
    n = len(links)
    lookup = np.full(len(graph) + 1, -1)  # the last slot keeps a dropped link's -1
    lookup[links] = np.arange(n)
    row = lookup[graph.event_link]
    idx = np.flatnonzero(row >= 0)
    row = row[idx]  # frees the full-length rows before the selection
    ev = _Events.select(cols, idx, row, utc_offset)
    del lookup, idx, row  # free the selection's temporaries; ev.row keeps the rows
    blocks = np.concatenate(
        [
            _weekly_stats(_weekly_tensor(ev, n, grid)),
            _fractions(_quantity_sums(ev.row, ev.seg, ev.is_call, ev.known_dur, n, 6)),
            _active_days(ev, n),
            _reciprocity(graph, links),
            _interevent(2 * ev.row + ~ev.is_call, ev.ts, 2 * n, window.n_seconds).reshape(n, 14),
        ],
        axis=1,
    )
    common = common_contacts(graph, pairs).astype(np.float64)
    return np.concatenate([blocks[inverse], common], axis=1)
