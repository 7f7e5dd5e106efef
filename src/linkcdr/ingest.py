"""Parsing and validation of CDR event files and subscriber metadata.

The on-disk formats are plain CSV:

* ``events.csv`` — header ``caller_id,callee_id,timestamp,kind,duration``;
  ``kind`` is ``call`` or ``text``; an empty ``duration`` field encodes an
  unknown call duration (allowed for calls only, e.g. calls placed by
  non-subscribers whose durations the operator does not record).
* ``subscribers.csv`` — header ``user_id,age,gender,postcode``; ``gender``
  is ``F`` or ``M``; ``postcode`` may be empty.

Parsing is total: every input row is either accepted or reported as a
line-level diagnostic; only an unreadable stream or a wrong header is fatal.
Accepted event rows go straight into ``EventColumns`` (user ids interned in
order of first appearance); ``CdrEvent`` is the one-event record form, and
``EventColumns.from_events``/``to_events`` convert a record list both ways.
"""

from __future__ import annotations

import calendar
import io
from array import array
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from typing import BinaryIO, Iterable, Iterator, Mapping

import numpy as np

from .errors import DatasetError, ParseError

EVENTS_HEADER = "caller_id,callee_id,timestamp,kind,duration"
SUBSCRIBERS_HEADER = "user_id,age,gender,postcode"


class EventKind(str, Enum):
    CALL = "call"
    TEXT = "text"


class Gender(str, Enum):
    FEMALE = "F"
    MALE = "M"


@dataclass(frozen=True, slots=True)
class CdrEvent:
    """One call or text between two users.

    ``duration`` is in seconds; ``None`` means the duration was not
    recorded (permitted for calls only). Texts always carry duration 0.
    """

    caller_id: str
    callee_id: str
    timestamp: int
    kind: EventKind
    duration: int | None


@dataclass(frozen=True, slots=True)
class SubscriberRecord:
    user_id: str
    age: int
    gender: Gender
    postcode: str | None = None


@dataclass(frozen=True, slots=True)
class ParseDiagnostic:
    line: int
    reason: str

    def to_json_line(self) -> str:
        import json

        return json.dumps({"line": self.line, "reason": self.reason})


def _month_start_epochs(start: int, end: int) -> tuple[int, ...]:
    """Epoch seconds of the first day of every UTC month intersecting [start, end)."""
    first = datetime.fromtimestamp(start, tz=timezone.utc)
    year, month = first.year, first.month
    starts: list[int] = []
    while True:
        epoch = calendar.timegm((year, month, 1, 0, 0, 0))
        if epoch >= end:
            break
        if not starts and epoch > start:
            raise AssertionError("month grid must begin at or before the window start")
        starts.append(epoch)
        month += 1
        if month == 13:
            year, month = year + 1, 1
    return tuple(starts)


def epoch_seconds(text: str) -> int:
    """Epoch seconds of an integer or an ISO date or date-time; a naive date
    or time means UTC, an aware one (``Z``, ``+02:00``) keeps its offset."""
    try:
        return int(text)
    except ValueError:
        dt = datetime.fromisoformat(text)
        return int((dt if dt.tzinfo else dt.replace(tzinfo=timezone.utc)).timestamp())


@dataclass(frozen=True)
class ObservationWindow:
    """Half-open observation interval [start, end) in UTC epoch seconds.

    ``month_starts`` holds the first instant of each UTC calendar month the
    window touches; the grid is used for the per-month activity counters
    behind the regularity filter.
    """

    start: int
    end: int
    month_starts: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.start >= self.end:
            raise DatasetError(f"empty observation window: start {self.start} >= end {self.end}")
        if not self.month_starts:
            object.__setattr__(self, "month_starts", _month_start_epochs(self.start, self.end))

    @classmethod
    def from_dates(cls, start_date: str, end_date: str) -> "ObservationWindow":
        """Build a window from ISO dates or date-times (see ``epoch_seconds``)."""
        return cls(epoch_seconds(start_date), epoch_seconds(end_date))

    @classmethod
    def default(cls) -> "ObservationWindow":
        """The stock seven-month window, January through July 2007."""
        return cls.from_dates("2007-01-01", "2007-08-01")

    @property
    def n_months(self) -> int:
        return len(self.month_starts)

    @property
    def n_seconds(self) -> int:
        return self.end - self.start

    def contains(self, timestamp: int) -> bool:
        return self.start <= timestamp < self.end

    def month_index(self, timestamps: np.ndarray) -> np.ndarray:
        """Month of each timestamp: the rightmost month start at or before it."""
        ts = np.asarray(timestamps, dtype=np.int64)
        outside = (ts < self.start) | (ts >= self.end)
        if outside.any():
            raise DatasetError(f"timestamp {int(ts[outside][0])} outside window")
        return np.searchsorted(np.asarray(self.month_starts), ts, side="right") - 1


class EventColumns:
    """Columnar view of an event list for array-based pipelines.

    User identifiers are interned into ``users`` and referenced by integer
    code; unknown durations are stored as -1.
    """

    __slots__ = ("caller", "callee", "timestamp", "is_call", "duration", "users", "user_index")

    def __init__(
        self,
        caller: np.ndarray,
        callee: np.ndarray,
        timestamp: np.ndarray,
        is_call: np.ndarray,
        duration: np.ndarray,
        users: list[str],
    ) -> None:
        self.caller = caller
        self.callee = callee
        self.timestamp = timestamp
        self.is_call = is_call
        self.duration = duration
        self.users = users
        self.user_index = {u: i for i, u in enumerate(users)}

    def __len__(self) -> int:
        return len(self.timestamp)

    @classmethod
    def _from_rows(cls, rows: Iterable[tuple[str, str, int, bool, int]]) -> "EventColumns":
        """Columns of ``(caller, callee, timestamp, is_call, duration)`` rows,
        with -1 for an unknown duration; user ids are interned in order of
        first appearance."""
        index: dict[str, int] = {}
        code = index.setdefault
        caller, callee, ts, dur = array("q"), array("q"), array("q"), array("q")
        is_call = array("B")
        for a, b, t, c, d in rows:
            caller.append(code(a, len(index)))
            callee.append(code(b, len(index)))
            ts.append(t)
            is_call.append(c)
            dur.append(d)
        return cls(
            np.frombuffer(caller, dtype=np.int64),
            np.frombuffer(callee, dtype=np.int64),
            np.frombuffer(ts, dtype=np.int64),
            np.frombuffer(is_call, dtype=bool),
            np.frombuffer(dur, dtype=np.int64),
            list(index),
        )

    @classmethod
    def from_events(cls, events: Iterable[CdrEvent]) -> "EventColumns":
        return cls._from_rows(
            (
                ev.caller_id,
                ev.callee_id,
                ev.timestamp,
                ev.kind is EventKind.CALL,
                -1 if ev.duration is None else ev.duration,
            )
            for ev in events
        )

    def to_events(self) -> list[CdrEvent]:
        out = []
        for i in range(len(self)):
            d = int(self.duration[i])
            out.append(
                CdrEvent(
                    self.users[int(self.caller[i])],
                    self.users[int(self.callee[i])],
                    int(self.timestamp[i]),
                    EventKind.CALL if self.is_call[i] else EventKind.TEXT,
                    None if d < 0 else d,
                )
            )
        return out


def _decode_lines(stream: BinaryIO) -> Iterable[str]:
    text = io.TextIOWrapper(stream, encoding="utf-8", errors="replace", newline="")
    for line in text:
        yield line.rstrip("\r\n")


def parse_events(
    stream: BinaryIO, window: ObservationWindow
) -> tuple[EventColumns, list[ParseDiagnostic]]:
    """Parse an events CSV stream into validated event columns.

    Malformed rows are skipped and reported with their line number; file
    order is preserved for accepted rows, and user ids are interned in order
    of first appearance.
    """
    lines = _decode_lines(stream)
    try:
        header = next(lines)
    except StopIteration:
        raise ParseError("events stream is empty (missing header)") from None
    if header != EVENTS_HEADER:
        raise ParseError(f"events header mismatch: expected {EVENTS_HEADER!r}, got {header!r}")
    diagnostics: list[ParseDiagnostic] = []
    columns = EventColumns._from_rows(_accepted_rows(lines, window, diagnostics))
    return columns, diagnostics


_INT64_MAX = 2**63 - 1


def _accepted_rows(
    lines: Iterable[str], window: ObservationWindow, diagnostics: list[ParseDiagnostic]
) -> Iterator[tuple[str, str, int, bool, int]]:
    """Yield ``EventColumns._from_rows`` rows for valid lines (numbered from
    2, after the header) and report every other non-blank line."""
    for lineno, line in enumerate(lines, start=2):
        if line == "":
            continue
        parts = line.split(",")
        if len(parts) != 5:
            diagnostics.append(ParseDiagnostic(lineno, f"expected 5 fields, got {len(parts)}"))
            continue
        caller, callee, ts_text, kind_text, dur_text = parts
        if not caller or not callee:
            diagnostics.append(ParseDiagnostic(lineno, "empty user id"))
            continue
        if caller == callee:
            diagnostics.append(ParseDiagnostic(lineno, "self-loop"))
            continue
        try:
            ts = int(ts_text)
        except ValueError:
            diagnostics.append(ParseDiagnostic(lineno, f"bad timestamp {ts_text!r}"))
            continue
        if not window.contains(ts):
            diagnostics.append(ParseDiagnostic(lineno, f"timestamp {ts} outside window"))
            continue
        if kind_text == "call":
            is_call = True
        elif kind_text == "text":
            is_call = False
        else:
            diagnostics.append(ParseDiagnostic(lineno, f"unknown kind {kind_text!r}"))
            continue
        if dur_text == "":
            if not is_call:
                diagnostics.append(ParseDiagnostic(lineno, "text with unknown duration"))
                continue
            duration = -1
        else:
            try:
                duration = int(dur_text)
                if duration > _INT64_MAX:  # the int64 column cannot hold it
                    raise ValueError(dur_text)
            except ValueError:
                diagnostics.append(ParseDiagnostic(lineno, f"bad duration {dur_text!r}"))
                continue
            if duration < 0:
                diagnostics.append(ParseDiagnostic(lineno, f"negative duration {duration}"))
                continue
            if not is_call and duration != 0:
                diagnostics.append(ParseDiagnostic(lineno, "text with nonzero duration"))
                continue
        yield caller, callee, ts, is_call, duration


def parse_subscribers(
    stream: BinaryIO,
) -> tuple[dict[str, SubscriberRecord], list[ParseDiagnostic]]:
    """Parse a subscribers CSV stream; duplicates keep the first occurrence."""
    lines = _decode_lines(stream)
    try:
        header = next(lines)
    except StopIteration:
        raise ParseError("subscribers stream is empty (missing header)") from None
    if header != SUBSCRIBERS_HEADER:
        raise ParseError(
            f"subscribers header mismatch: expected {SUBSCRIBERS_HEADER!r}, got {header!r}"
        )

    records: dict[str, SubscriberRecord] = {}
    diagnostics: list[ParseDiagnostic] = []
    for lineno, line in enumerate(lines, start=2):
        if line == "":
            continue
        parts = line.split(",")
        if len(parts) != 4:
            diagnostics.append(ParseDiagnostic(lineno, f"expected 4 fields, got {len(parts)}"))
            continue
        uid, age_text, gender_text, postcode = parts
        if not uid:
            diagnostics.append(ParseDiagnostic(lineno, "empty user id"))
            continue
        try:
            age = int(age_text)
        except ValueError:
            diagnostics.append(ParseDiagnostic(lineno, f"bad age {age_text!r}"))
            continue
        if not 0 <= age <= 120:
            diagnostics.append(ParseDiagnostic(lineno, "age out of range"))
            continue
        try:
            gender = Gender(gender_text)
        except ValueError:
            diagnostics.append(ParseDiagnostic(lineno, f"unknown gender {gender_text!r}"))
            continue
        if uid in records:
            diagnostics.append(ParseDiagnostic(lineno, f"duplicate user id {uid!r}"))
            continue
        records[uid] = SubscriberRecord(uid, age, gender, postcode or None)
    return records, diagnostics


@dataclass
class ValidationReport:
    n_events: int
    n_calls: int
    n_texts: int
    n_users_seen: int
    n_subscribers_seen: int
    n_nonsubscribers_seen: int
    n_unknown_duration_calls: int
    events_per_month: list[int]
    warnings: list[str]

    @property
    def ok(self) -> bool:
        return not self.warnings

    def to_dict(self) -> dict:
        return {
            "n_events": self.n_events,
            "n_calls": self.n_calls,
            "n_texts": self.n_texts,
            "n_users_seen": self.n_users_seen,
            "n_subscribers_seen": self.n_subscribers_seen,
            "n_nonsubscribers_seen": self.n_nonsubscribers_seen,
            "n_unknown_duration_calls": self.n_unknown_duration_calls,
            "events_per_month": self.events_per_month,
            "warnings": self.warnings,
            "ok": self.ok,
        }


def validate_dataset(
    cols: EventColumns,
    subscribers: Mapping[str, SubscriberRecord],
    window: ObservationWindow,
) -> ValidationReport:
    """Cross-check parsed inputs and summarize coverage.

    Raises on an empty event set; a month with zero events is flagged as a
    warning (suspicious input) and marks the report not-ok.
    """
    if len(cols) == 0:
        raise DatasetError("no events in dataset")

    per_month = np.bincount(window.month_index(cols.timestamp), minlength=window.n_months)
    seen = np.zeros(len(cols.users), dtype=bool)
    seen[cols.caller] = True
    seen[cols.callee] = True
    users = [u for u, s in zip(cols.users, seen.tolist()) if s]
    n_calls = int(np.count_nonzero(cols.is_call))
    n_subs = sum(1 for u in users if u in subscribers)
    warnings = [
        f"month {i} (starting at epoch {start}) has zero events"
        for i, (start, count) in enumerate(zip(window.month_starts, per_month))
        if count == 0
    ]
    return ValidationReport(
        n_events=len(cols),
        n_calls=n_calls,
        n_texts=len(cols) - n_calls,
        n_users_seen=len(users),
        n_subscribers_seen=n_subs,
        n_nonsubscribers_seen=len(users) - n_subs,
        n_unknown_duration_calls=int(np.count_nonzero(cols.is_call & (cols.duration < 0))),
        events_per_month=per_month.tolist(),
        warnings=warnings,
    )
