"""Shared fixtures and tiny builders for the test suite."""

from __future__ import annotations

import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from linkcdr.errors import ParseError
from linkcdr.features import _group_stats
from linkcdr.ingest import CdrEvent, EventColumns, EventKind, Gender, ObservationWindow
from linkcdr.manifest import FEATURE_NAMES
from linkcdr.pairgraph import LinkGraph, alter_ranking
from linkcdr.synthgen import TRUTH_HEADER, PlantedPair

JAN1_2007 = 1167609600  # Monday 2007-01-01 00:00:00 UTC
DAY = 86400
WEEK = 7 * DAY


class DistStats(NamedTuple):
    mean: float
    median: float
    std: float
    min: float
    max: float
    skew: float
    kurt: float


def dist_stats(values) -> DistStats:
    """The feature kernel's population statistics (``_group_stats``) of one
    1-D series; excess kurtosis, and 0 skewness and kurtosis at std 0."""
    run = np.sort(np.asarray(values, dtype=np.float64))
    (stats,) = _group_stats(run, np.zeros(1, dtype=np.int64), run.size)
    return DistStats(*(float(v) for v in stats))


def epoch(text: str) -> int:
    """UTC epoch seconds of an ISO datetime like '2007-01-02 08:30:00'."""
    return int(datetime.fromisoformat(text).replace(tzinfo=timezone.utc).timestamp())


def ev(
    caller: str,
    callee: str,
    ts: int,
    kind: str = "call",
    duration: int | None = 60,
) -> CdrEvent:
    if kind == "text":
        duration = 0
    return CdrEvent(caller, callee, ts, EventKind(kind), duration)


def columns(events: list[CdrEvent], window: ObservationWindow | None = None) -> EventColumns:
    """The columnar form that ``build_links`` and ``validate_dataset`` take,
    over ``window`` (default: ``ObservationWindow.default()``)."""
    return EventColumns.from_events(events, window or ObservationWindow.default())


def format_event_row(event: CdrEvent) -> str:
    """One ``events.csv`` data line, in the column order of ``EVENTS_HEADER``."""
    dur = "" if event.duration is None else str(event.duration)
    return f"{event.caller_id},{event.callee_id},{event.timestamp},{event.kind.value},{dur}"


def read_truth_csv(path: str) -> list[PlantedPair]:
    """The planted pairs of a ``truth.csv`` written by ``write_dataset``."""
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().rstrip("\r\n")
        if header != TRUTH_HEADER:
            raise ParseError(f"truth header mismatch: got {header!r}")
        out = []
        for line in handle:
            line = line.rstrip("\r\n")
            if not line:
                continue
            first, second, code, a1, g1, a2, g2 = line.split(",")
            out.append(PlantedPair(first, second, code, int(a1), Gender(g1), int(a2), Gender(g2)))
    return out


def ranked_alters(graph: LinkGraph, links=None) -> dict[str, list[tuple[str, int]]]:
    """Each ego's (alter id, calls) list in rank order over the graph's rows
    ``links``, read from ``alter_ranking``; the shape of
    ``tests/oracles.rank_alters_brute``."""
    ranking = alter_ranking(graph, links)
    out = {}
    for code, user in enumerate(graph.users):
        block = slice(ranking.start[code], ranking.start[code + 1])
        if block.start < block.stop:
            out[user] = [
                (graph.users[alter], int(graph.calls[link]))
                for alter, link in zip(ranking.alter[block], ranking.link[block])
            ]
    return out


@pytest.fixture
def default_window() -> ObservationWindow:
    return ObservationWindow.default()


@pytest.fixture
def two_month_window() -> ObservationWindow:
    return ObservationWindow.from_dates("2007-01-01", "2007-03-01")


def planted_factor_membership() -> dict[str, list[str]]:
    """Expected feature groupings for the planted-factors preset.

    Only robustly driven features are declared: weekly mean/median/std/max
    of the factor's channel in its dayparts plus the matching active-day
    counts. min/skew/kurt stay undeclared (too quantized at low rates).
    """
    stats = ("mean", "median", "std", "max")
    groups: dict[str, list[str]] = {}
    spec = {
        "calls_daytime": ("calls", "call", ("daytime",)),
        "calls_evening": ("calls", "call", ("evening",)),
        "calls_late_night": ("calls", "call", ("late_night",)),
        "texts_day_evening": ("texts", "text", ("daytime", "evening")),
        "texts_late_night": ("texts", "text", ("late_night",)),
    }
    for group, (qty, kind, dayparts) in spec.items():
        names = []
        for wp in ("weekday", "weekend"):
            for dp in dayparts:
                names.extend(f"weekly_{qty}_{wp}_{dp}_{s}" for s in stats)
                names.append(f"active_days_{kind}_{wp}_{dp}")
        groups[group] = names
    missing = [n for names in groups.values() for n in names if n not in FEATURE_NAMES]
    assert not missing, f"unknown feature names: {missing}"
    return groups
