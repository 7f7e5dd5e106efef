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
finds a block's lines and *plain* rows from one scan for separators (see
``_line_spans``), decodes the plain rows with whole-array operations, eight
digits per word, and interns their ids as packed uint64 words against a
sorted cache. Its line path, ``_row``, is the row grammar and the only
source of diagnostic text; it reads every other non-blank line, one at a
time, and its rows are merged into the plain rows by position.
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
    Other text is a ConfigError naming ``source``, the flag it came from."""
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
    first_line = 1
    for block in _line_blocks(stream):
        a = np.frombuffer(block + _PAD, dtype=np.uint8)
        starts, ends, lines, bounds = _line_spans(a, len(block))
        rest = ends > starts  # blank lines are skipped
        if header is None:
            header = block[: ends[0]].decode("utf-8", errors="replace")
            if header != EVENTS_HEADER:
                raise ParseError(
                    f"events header mismatch: expected {EVENTS_HEADER!r}, got {header!r}"
                )
            rest[0] = False
            lines, bounds = lines[1:], bounds[:, 1:]  # the header is the first candidate
        lines, words, values = _plain_rows(a, lines, bounds, window)
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
        codes, other_codes = interner.intern(words, lines, other_lines, names)
        _check_user_count(len(interner.index))
        other = np.array(other_values, dtype=np.int64).reshape(-1, 3).T
        at = np.searchsorted(lines, other_lines)  # the line-path rows' places among the plain rows
        for column, plain, merged in zip(columns, (*codes, *values), (*other_codes, *other)):
            row = np.insert(plain, at, merged).astype(column.typecode, copy=False)
            column.frombytes(row.view(np.uint8))
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
_BYTE_SHIFTS = np.array([8 * n % 64 for n in range(9)], dtype=np.uint64)  # n bytes; 8 is all fill
_CALL, _TEXT = (int.from_bytes(kind, "little") for kind in (b"call", b"text"))
_INT64_MAX = 2**63 - 1
# a byte in each of a word's eight bytes: '0', 0x33, 6 and a high-nibble mask
_ZEROS, _THREES, _SIXES, _HIGH = (b * 0x0101010101010101 for b in (0x30, 0x33, 6, 0xF0))
# eight digits, first lowest, fold to four pairs, two quads and one number
_FOLDS = ((8, 10, 0x00FF00FF00FF00FF), (16, 100, 0x0000FFFF0000FFFF), (32, 10000, 0xFFFFFFFF))
_PLACES = np.array([1, 10**8, 10**16], dtype=np.uint64)


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


def _word_view(a: np.ndarray) -> np.ndarray:
    """The word at byte i of a padded block packs bytes i..i+7, first byte lowest."""
    return np.ndarray((len(a) - 7,), dtype="<u8", buffer=a, strides=(1,))


def _line_spans(a: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """First byte and end (before the line ending) of each line of a block,
    the ``n`` first bytes of ``a`` (zero-padded past them), the plain
    candidates and a (6, candidates) array of the bounds of their fields.

    One scan finds the separators (each comma and each byte outside
    0x21-0x7E, the first pad byte included) after a virtual one at -1. A
    line ends at a ``\\r`` or ``\\n`` (the ``\\n`` of a ``\\r\\n`` ends none), or
    at the pad byte if the block lacks a last ending. It is a candidate when
    the separators since the previous line's last one are four commas and
    its end; these six bound its five fields."""
    x = a[: n + 1]
    sep = np.concatenate(([-1], np.flatnonzero((x - np.uint8(0x21) > 0x7E - 0x21) | (x == 44))))
    byte = a[sep]  # a[-1] is a pad byte
    ending = (byte == 10) | (byte == 13)
    ending[-1] = a[n - 1] != 10 and a[n - 1] != 13  # sep[-1] is the pad byte at n
    term = np.flatnonzero(ending)
    crlf = (byte[term] == 13) & (a[sep[term] + 1] == 10)
    lone = np.concatenate(([True], ~crlf[:-1]))  # the \n of a \r\n ends no line
    term, crlf = term[lone], crlf[lone]
    last = np.concatenate(([0], (term + crlf)[:-1]))  # each line's previous separator
    lines = np.flatnonzero(term - last == 5)
    lines = lines[(byte[term[lines] - np.arange(1, 5)[:, None]] == 44).all(axis=0)]
    return sep[last] + 1, sep[term], lines, sep[term[lines] - np.arange(5, -1, -1)[:, None]]


def _plain_rows(
    a: np.ndarray, lines: np.ndarray, bounds: np.ndarray, window: ObservationWindow
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """The plain lines of a block that ``_row`` accepts, decoded in bulk from
    its candidates ``lines`` and their field bounds (see ``_line_spans``):
    their indices, ids packed into zero-padded (lines, 2, words) uint64
    words, and their timestamp, is_call and duration columns, in line order.
    A candidate is plain, and ``_row`` reads it the same way, when both ids
    are 1-64 bytes, the timestamp is 1-18 ASCII digits, the kind is ``call``
    or ``text`` and the duration is 0-18 ASCII digits."""
    word = _word_view(a)
    start, end = bounds[:-1] + 1, bounds[1:]  # caller, callee, timestamp, kind, duration
    length = end - start
    longest = np.maximum(length[0], length[1])
    offsets = np.arange(0, 8 * -(-min(int(longest.max(initial=1)), 64) // 8), 8)
    words = word[start[:2].T[..., None] + offsets]
    words &= _MASKS[np.clip(length[:2].T[..., None] - offsets, 0, 8)]
    ts, ts_digits = _decimal(a, start[2], end[2])
    duration, duration_digits = _decimal(a, start[4], end[4])
    duration[length[4] == 0] = -1
    kind = word[start[3]] & _MASKS[4]
    is_call = kind == _CALL
    ok = (
        (length[:3].min(axis=0) >= 1)  # ids and timestamp
        & (longest <= 64)
        & (words[:, 0] != words[:, 1]).any(axis=1)
        & ts_digits
        & (ts >= window.start)
        & (ts < window.end)
        & (length[3] == 4)
        & (is_call | (kind == _TEXT))
        & duration_digits
        & (is_call | (duration == 0))
    )
    width = -(-int(longest[ok].max(initial=1)) // 8)  # a rejected row's long id widens no key
    words = np.compress(ok, words[..., :width], axis=0)
    return lines[ok], words, (ts[ok], is_call[ok], duration[ok])


def _decimal(a: np.ndarray, start: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values of the byte spans [start, end) of a padded block ``a`` read as
    decimal digits, and whether each span is at most 18 ASCII digits (its
    value is then exact). A span is read as the few words right-aligned at
    its end that the longest span needs, with '0' before its start; a word
    is eight digits when each byte's high nibble is 3 before and after
    adding 6, and folds in three multiply-shift steps (Lemire, *Number
    Parsing at a Gigabyte per Second*, SPE 2021)."""
    length = end - start
    n_words = -(-min(int(length.max(initial=0)), 18) // 8)
    place = np.arange(8, 8 * n_words + 1, 8)[:, None]
    before = np.clip(place - length, 0, 8)  # bytes of each word before its span's start
    # (words, spans), lowest places first; one that would start before its
    # span is read at the span's start and shifted up into place
    w = _word_view(a)[np.maximum(end - place, start)] << _BYTE_SHIFTS[before]
    fill = _MASKS[before]
    w &= ~fill  # in place throughout: fewer temporaries measured faster
    fill &= _ZEROS
    w |= fill
    check = w + _SIXES
    check &= _HIGH
    check >>= 4
    check |= w & _HIGH
    digits = (check == _THREES).all(axis=0) & (length <= 18)
    w -= _ZEROS
    for shift, scale, mask in _FOLDS:
        low = w >> shift
        w *= scale
        w += low
        w &= mask
    # uint64 arrays wrap silently; the place scales stay an array, not a numpy scalar
    value = (w * _PLACES[:n_words, None]).sum(axis=0, dtype=np.uint64)
    return value.view(np.int64), digits


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
    ) -> tuple[np.ndarray, np.ndarray]:
        """Caller and callee codes, (2, rows), of a block's plain rows and of
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
        return codes[inverse].reshape(-1, 2).T, other.reshape(-1, 2).T


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
