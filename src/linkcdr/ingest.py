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
order of first appearance, as int32 codes, so at most ``MAX_USERS`` ids),
which also hold the ``ObservationWindow`` the rows were read against, so no
later layer takes the window again;
``CdrEvent`` is the one-event record form, and
``EventColumns.from_events``/``to_events`` convert a record list both ways.

``parse_events`` reads the stream in blocks of whole lines. Its block path
decodes the *plain* rows of a block (see ``_plain_rows``) with whole-array
operations and interns their ids as packed uint64 words against a sorted
cache. Its line path, ``_row``, is the row grammar and the only source of
diagnostic text; it reads every other non-blank line, one at a time.
"""

from __future__ import annotations

import io
from array import array
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from enum import Enum
from typing import BinaryIO, Iterable, Iterator, Mapping

import numpy as np

from .errors import ConfigError, DatasetError, ParseError

EVENTS_HEADER = "caller_id,callee_id,timestamp,kind,duration"
SUBSCRIBERS_HEADER = "user_id,age,gender,postcode"
MAX_USERS = 2**31 - 1  # user codes are int32; a product of two codes widens to int64
MAX_EVENTS = 2**31 - 1  # event positions and link rows are int32


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
    first, last = np.array([start, end - 1], dtype="datetime64[s]").astype("datetime64[M]")
    return tuple(np.arange(first, last + 1).astype("datetime64[s]").astype(np.int64).tolist())


def epoch_seconds(text: str, source: str = "time") -> int:
    """Epoch seconds of an integer or an ISO date or date-time; a naive date
    or time means UTC, an aware one (``Z``, ``+02:00``) keeps its offset.
    Other text is a ConfigError naming ``source``, the flag or key it came from."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        dt = datetime.fromisoformat(text)
    except ValueError:
        raise ConfigError(
            f"{source}: {text!r} is neither epoch seconds nor an ISO date or date-time"
        ) from None
    return int((dt if dt.tzinfo else dt.replace(tzinfo=timezone.utc)).timestamp())


def window_from_texts(
    start: str | None, end: str | None, start_name: str, end_name: str
) -> ObservationWindow | None:
    """The window between two ``epoch_seconds`` texts given by the flags or
    keys ``start_name`` and ``end_name``; None when neither is given. Only
    one text, an unparseable text or start >= end is a ConfigError."""
    if start is None and end is None:
        return None
    if start is None or end is None:
        raise ConfigError(f"{start_name} and {end_name} must be given together")
    first, last = epoch_seconds(start, start_name), epoch_seconds(end, end_name)
    if first >= last:
        raise ConfigError(
            f"empty observation window: {start_name} {start!r} is not before {end_name} {end!r}"
        )
    return ObservationWindow(first, last)


@dataclass(frozen=True)
class ObservationWindow:
    """Half-open observation interval [start, end) in UTC epoch seconds.

    ``month_starts`` holds the first instant of each UTC calendar month the
    window touches; the grid is used for the per-month activity counters
    behind the regularity filter.
    """

    start: int
    end: int
    month_starts: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        if self.start >= self.end:
            raise DatasetError(f"empty observation window: start {self.start} >= end {self.end}")
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
    """One event set in columns, with the observation window it was read
    against (``window``), which every later layer reads from here.

    User identifiers are interned into ``users`` and referenced by integer
    code (int32 wherever columns are built, so at most ``MAX_USERS`` users);
    unknown durations are stored as -1.
    """

    __slots__ = ("caller", "callee", "timestamp", "is_call", "duration", "users", "window")

    def __init__(
        self,
        caller: np.ndarray,
        callee: np.ndarray,
        timestamp: np.ndarray,
        is_call: np.ndarray,
        duration: np.ndarray,
        users: list[str],
        window: ObservationWindow,
    ) -> None:
        self.caller = caller
        self.callee = callee
        self.timestamp = timestamp
        self.is_call = is_call
        self.duration = duration
        self.users = users
        self.window = window

    def __len__(self) -> int:
        return len(self.timestamp)

    @classmethod
    def from_events(cls, events: Iterable[CdrEvent], window: ObservationWindow) -> "EventColumns":
        """Columns of an event list over ``window``; user ids are interned in
        order of first appearance."""
        index: dict[str, int] = {}
        code = index.setdefault
        rows = [
            (code(ev.caller_id, len(index)), code(ev.callee_id, len(index)), ev.timestamp,
             ev.kind is EventKind.CALL, -1 if ev.duration is None else ev.duration)
            for ev in events
        ]
        _check_user_count(len(index))
        caller, callee, ts, is_call, dur = np.array(rows, dtype=np.int64).reshape(-1, 5).T.copy()
        caller, callee = caller.astype(np.int32), callee.astype(np.int32)
        return cls(caller, callee, ts, is_call.astype(bool), dur, list(index), window)

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


def _check_user_count(n_users: int) -> None:
    if n_users > MAX_USERS:
        raise DatasetError(
            f"{n_users} distinct user ids: int32 user codes hold at most {MAX_USERS}"
        )


def _decode_lines(stream: BinaryIO) -> Iterable[str]:
    text = io.TextIOWrapper(stream, encoding="utf-8", errors="replace", newline="")
    for line in text:
        yield line.rstrip("\r\n")


def parse_events(
    stream: BinaryIO, window: ObservationWindow
) -> tuple[EventColumns, list[ParseDiagnostic]]:
    """Parse an events CSV stream into validated event columns over ``window``.

    Malformed rows are skipped and reported with their line number; file
    order is preserved for accepted rows, and user ids are interned in order
    of first appearance. The columns hold 25 bytes per accepted row: int32
    caller and callee codes, int64 timestamp and duration, and a bool kind.
    More than ``MAX_USERS`` distinct ids raise DatasetError.
    """
    interner = _Interner()
    columns = (array(_CODE), array(_CODE), array("q"), array("B"), array("q"))
    diagnostics: list[ParseDiagnostic] = []
    header = None
    first_line = 2
    for block in _line_blocks(stream):
        a = np.frombuffer(block + _PAD, dtype=np.uint8)
        starts, ends = _line_spans(a, len(block))
        if header is None:
            header = block[: ends[0]].decode("utf-8", errors="replace")
            if header != EVENTS_HEADER:
                raise ParseError(
                    f"events header mismatch: expected {EVENTS_HEADER!r}, got {header!r}"
                )
            starts, ends = starts[1:], ends[1:]
        lines, words, values = _plain_rows(a, starts, ends, window)
        rest = ends > starts  # blank lines are skipped
        rest[lines] = False
        other_lines, other_values, names = [], [], []
        for i in np.flatnonzero(rest).tolist():
            got = _row(block[starts[i] : ends[i]].decode("utf-8", errors="replace"), window)
            if isinstance(got, str):
                diagnostics.append(ParseDiagnostic(first_line + i, got))
            else:
                other_lines.append(i)
                names += got[:2]
                other_values.append(got[2:])
        other_lines = np.array(other_lines, dtype=np.int64)
        codes = interner.intern(words, lines, other_lines, names)
        _check_user_count(len(interner.index))
        other = np.array(other_values, dtype=np.int64).reshape(-1, 3).T
        rows = np.concatenate((codes, np.concatenate((values, other), axis=1)))
        order = np.argsort(np.concatenate((lines, other_lines)), kind="stable")
        for column, row in zip(columns, rows[:, order]):
            column.frombytes(row.astype(column.typecode).view(np.uint8))
        first_line += len(starts)
    if header is None:
        raise ParseError("events stream is empty (missing header)")
    caller, callee, ts, is_call, dur = (np.frombuffer(c, dtype=c.typecode) for c in columns)
    users = list(interner.index)
    return EventColumns(caller, callee, ts, is_call.view(bool), dur, users, window), diagnostics


_CODE = "i"  # the array typecode of the user code columns
if array(_CODE).itemsize != 4:
    raise ImportError(f"array typecode {_CODE!r} is not 4 bytes on this platform")
_BLOCK_BYTES = 1 << 18
_PAD = bytes(64)  # lets a word be read at every byte of a block
_MASKS = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)  # first n bytes
_CALL, _TEXT = (int.from_bytes(kind, "little") for kind in (b"call", b"text"))
_INT64_MAX = 2**63 - 1


def _line_blocks(stream: BinaryIO) -> Iterator[bytes]:
    """The stream in blocks of whole lines, which end at ``\\r\\n``, ``\\r`` or
    ``\\n`` (a last line may lack its ending); a ``\\r`` that ends a read is
    held back, since the next read may start with the ``\\n`` of its pair."""
    held = b""
    while chunk := stream.read(_BLOCK_BYTES):
        data = held + chunk
        stop = len(data) - data.endswith(b"\r")
        cut = max(data.rfind(b"\n", 0, stop), data.rfind(b"\r", 0, stop)) + 1
        if cut:
            yield data[:cut]
        held = data[cut:]
    if held:
        yield held


def _line_spans(a: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """First byte and end (before the line ending) of each line of a block,
    the ``n`` first bytes of ``a``; ``a`` is zero-padded past them."""
    ending = np.flatnonzero((a[:n] == 10) | (a[:n] == 13))
    ends = ending[~((a[ending] == 10) & (a[ending - 1] == 13))]  # \r\n ends once; a[-1] is 0
    starts = np.concatenate(([0], ends + 1 + ((a[ends] == 13) & (a[ends + 1] == 10))))
    if starts[-1] < n:
        return starts, np.append(ends, n)
    return starts[:-1], ends


def _plain_rows(
    a: np.ndarray, starts: np.ndarray, ends: np.ndarray, window: ObservationWindow
) -> tuple[np.ndarray, ...]:
    """The plain lines of a block that ``_row`` accepts, decoded in bulk: their
    indices, ids packed into zero-padded (lines, 2, words) uint64 words, and
    a (3, lines) array of timestamp, is_call and duration. A line is plain,
    and ``_row`` reads it the same way, when it has four commas, both ids are
    1-64 bytes in 0x21-0x7E, the timestamp is 1-18 ASCII digits, the kind is
    ``call`` or ``text`` and the duration is 0-18 ASCII digits."""
    n = len(a) - len(_PAD)
    # the word at byte i packs bytes i..i+7, first byte lowest
    word = np.ndarray((len(a) - 7,), dtype="<u8", buffer=a, strides=(1,))
    commas = np.flatnonzero(a[:n] == 44)
    first = np.searchsorted(commas, starts)
    lines = np.flatnonzero(np.searchsorted(commas, ends) - first == 4)
    c = commas[first[lines] + np.arange(4)[:, None]]  # (4, lines)
    begin, end = starts[lines], ends[lines]
    id_start = np.stack((begin, c[0] + 1), axis=1)
    id_len = c[:2].T - id_start
    offsets = np.arange(0, 8 * -(-min(int(id_len.max(initial=1)), 64) // 8), 8)
    words = word[id_start[..., None] + offsets]
    words &= _MASKS[np.clip(id_len[..., None] - offsets, 0, 8)]
    ts, ts_digits = _decimal(a, c[1] + 1, c[2])
    duration, duration_digits = _decimal(a, c[3] + 1, end)
    duration[end == c[3] + 1] = -1
    kind = word[c[2] + 1] & _MASKS[4]
    is_call = kind == _CALL
    unprintable = np.flatnonzero(a[:n] - np.uint8(0x21) > 0x7E - 0x21)
    ok = (
        ((id_len >= 1) & (id_len <= 64)).all(axis=1)
        & (np.searchsorted(unprintable, begin) == np.searchsorted(unprintable, c[1]))
        & (words[:, 0] != words[:, 1]).any(axis=1)
        & (c[2] > c[1] + 1)
        & ts_digits
        & (ts >= window.start)
        & (ts < window.end)
        & (c[3] - c[2] == 5)
        & (is_call | (kind == _TEXT))
        & duration_digits
        & (is_call | (duration == 0))
    )
    return lines[ok], words[ok], np.stack((ts, is_call, duration))[:, ok]


def _decimal(a: np.ndarray, start: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values of the byte spans [start, end) of ``a`` read as decimal digits,
    and whether each span is at most 18 ASCII digits (its value is then exact)."""
    at = np.arange(-min(int((end - start).max(initial=0)), 18), 0)[:, None] + end
    digits = np.take(a, at, mode="clip") - np.uint8(48)  # right-aligned, one row per place
    digits[at < start] = 0
    value = np.zeros(len(end), dtype=np.int64)
    for place in digits:
        value *= 10
        value += place
    return value, (digits <= 9).all(axis=0) & (end - start <= 18)


def _keys(words: np.ndarray) -> np.ndarray:
    """One sortable key per row of a C-contiguous (ids, width) word array."""
    width = words.shape[1]
    return words.view(np.uint64 if width == 1 else np.dtype((np.void, 8 * width))).ravel()


class _Interner:
    """User codes in order of first appearance: ``index`` maps each id to its
    code, and a sorted cache of packed plain ids (``words``, ``codes``) finds
    most codes without a dict lookup. Only ids new to the cache reach the dict.
    The cache starts with the all-zero key, which no id packs to, as code -1."""

    def __init__(self) -> None:
        self.index: dict[str, int] = {}
        self.words = np.zeros((1, 1), dtype=np.uint64)
        self.codes = np.full(1, -1, dtype=np.int64)

    def intern(
        self, words: np.ndarray, lines: np.ndarray, other_lines: np.ndarray, names: list[str]
    ) -> np.ndarray:
        """Caller and callee codes, (2, rows), of a block's plain rows, then of
        its other accepted rows (``names`` holds their caller, callee pairs);
        ids new to the cache get codes in order of line, caller first."""
        width = max(words.shape[-1], self.words.shape[1])
        if width > self.words.shape[1]:  # wider keys sort as bytes, not as uint64
            self.words = np.pad(self.words, ((0, 0), (0, width - self.words.shape[1])))
            order = np.argsort(_keys(self.words))
            self.words, self.codes = self.words[order], self.codes[order]
        words = np.pad(words, ((0, 0), (0, 0), (0, width - words.shape[-1]))).reshape(-1, width)
        unique, inverse = np.unique(_keys(words), return_inverse=True)
        known = _keys(self.words)
        at = np.minimum(np.searchsorted(known, unique), len(known) - 1)
        codes = np.where(known[at] == unique, self.codes[at], -1)
        occurs = np.flatnonzero(codes[inverse] < 0)
        fresh, first = np.unique(inverse[occurs], return_index=True)
        new = occurs[first]  # where each id new to the cache first occurs
        new_names = [w.tobytes().rstrip(b"\0").decode("ascii") for w in words[new]]
        # a plain id's slot is 2 * line, one more for a callee; a stable sort
        # keeps the caller of another row before its callee
        slots = np.concatenate((2 * lines[new // 2] + (new & 1), np.repeat(2 * other_lines, 2)))
        every = new_names + names
        code = self.index.setdefault
        for k in np.argsort(slots, kind="stable").tolist():
            code(every[k], len(self.index))
        new_codes = np.array([self.index[name] for name in new_names], dtype=np.int64)
        codes[fresh] = new_codes
        at = np.searchsorted(known, unique[fresh])
        self.words = np.insert(self.words, at, words[new], axis=0)
        self.codes = np.insert(self.codes, at, new_codes)
        other = np.array([self.index[name] for name in names], dtype=np.int64)
        return np.concatenate((codes[inverse].reshape(-1, 2), other.reshape(-1, 2))).T


def _row(line: str, window: ObservationWindow) -> tuple[str, str, int, bool, int] | str:
    """The ``(caller, callee, timestamp, is_call, duration)`` row a data line
    encodes, with -1 for an unknown duration, or the reason it is rejected."""
    parts = line.split(",")
    if len(parts) != 5:
        return f"expected 5 fields, got {len(parts)}"
    caller, callee, ts_text, kind_text, dur_text = parts
    if not caller or not callee:
        return "empty user id"
    if caller == callee:
        return "self-loop"
    try:
        ts = int(ts_text)
    except ValueError:
        return f"bad timestamp {ts_text!r}"
    if not window.contains(ts):
        return f"timestamp {ts} outside window"
    if kind_text == "call":
        is_call = True
    elif kind_text == "text":
        is_call = False
    else:
        return f"unknown kind {kind_text!r}"
    if dur_text == "":
        if not is_call:
            return "text with unknown duration"
        return caller, callee, ts, is_call, -1
    try:
        duration = int(dur_text)
        if duration > _INT64_MAX:  # the int64 column cannot hold it
            raise ValueError(dur_text)
    except ValueError:
        return f"bad duration {dur_text!r}"
    if duration < 0:
        return f"negative duration {duration}"
    if not is_call and duration != 0:
        return "text with nonzero duration"
    return caller, callee, ts, is_call, duration


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
        return {**asdict(self), "ok": self.ok}


def validate_dataset(
    cols: EventColumns, subscribers: Mapping[str, SubscriberRecord]
) -> ValidationReport:
    """Cross-check parsed inputs and summarize coverage over the columns' window.

    Raises on an empty event set; a month with zero events is flagged as a
    warning (suspicious input) and marks the report not-ok.
    """
    if len(cols) == 0:
        raise DatasetError("no events in dataset")

    window = cols.window
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
