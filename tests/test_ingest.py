"""Parsing, validation, and round-trip behaviour of the CSV ingest layer."""

from __future__ import annotations

import importlib.util
import io
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import JAN1_2007, columns, ev, format_event_row
from linkcdr import ingest
from linkcdr.errors import DatasetError, ParseError
from linkcdr.ingest import (
    EVENTS_HEADER,
    SUBSCRIBERS_HEADER,
    CdrEvent,
    EventColumns,
    EventKind,
    Gender,
    ObservationWindow,
    epoch_seconds,
    parse_events,
    parse_subscribers,
    validate_dataset,
)
from oracles import month_starts_reference, parse_events_reference


def events_stream(rows: list[str]) -> io.BytesIO:
    return io.BytesIO(("\n".join([EVENTS_HEADER] + rows) + "\n").encode())


def subscribers_stream(rows: list[str]) -> io.BytesIO:
    return io.BytesIO(("\n".join([SUBSCRIBERS_HEADER] + rows) + "\n").encode())


class TestObservationWindow:
    def test_default_window_has_seven_months(self):
        window = ObservationWindow.default()
        assert window.n_months == 7
        assert window.start == JAN1_2007
        assert window.month_starts[0] == window.start

    def test_month_index_boundaries(self):
        window = ObservationWindow.default()
        stamps = [window.start, window.month_starts[1] - 1, window.month_starts[1], window.end - 1]
        assert window.month_index(np.asarray(stamps)).tolist() == [0, 0, 1, 6]
        for outside in (window.start - 1, window.end):
            with pytest.raises(DatasetError, match="outside window"):
                window.month_index(np.asarray([window.start, outside]))

    @pytest.mark.parametrize(
        "text, expected",
        [
            (str(JAN1_2007), JAN1_2007),
            ("2007-01-01", JAN1_2007),
            ("2007-01-01T00:00:00Z", JAN1_2007),
            ("2007-01-01T00:00:00+02:00", JAN1_2007 - 2 * 3600),
        ],
    )
    def test_dates_naive_mean_utc_and_offsets_are_kept(self, text, expected):
        assert epoch_seconds(text) == expected
        assert ObservationWindow.from_dates(text, "2007-08-01").start == expected

    def test_degenerate_window_rejected(self):
        with pytest.raises(DatasetError):
            ObservationWindow(100, 100)

    @pytest.mark.parametrize(
        "start, end",
        [
            ("2007-03-15T12:00:00", "2007-06-10"),  # starts mid-month
            ("2007-02-01", "2007-05-01"),  # starts and ends at a month start
            ("2007-04-30T23:59:59", "2007-05-01"),  # one second
            ("2006-11-20", "2007-02-03"),  # crosses a year
            ("1969-12-31T23:00:00", "1970-02-01"),  # starts before 1970
            ("1965-03-10", "1966-01-01T00:00:01"),  # ends one second into a month
        ],
    )
    def test_month_grid_matches_a_month_walk(self, start, end):
        window = ObservationWindow.from_dates(start, end)
        assert list(window.month_starts) == month_starts_reference(window.start, window.end)

    def test_month_grid_is_always_derived(self):
        with pytest.raises(TypeError):
            ObservationWindow(JAN1_2007, JAN1_2007 + 86400, (JAN1_2007,))


class TestParseEvents:
    def test_columns_carry_the_window(self, two_month_window):
        cols, _ = parse_events(events_stream(["a,b,1170324000,call,5"]), two_month_window)
        assert cols.window is two_month_window

    def test_call_row_maps_fields(self, default_window):
        cols, diags = parse_events(
            events_stream(["a,b,1170324000,call,65"]), default_window
        )
        assert diags == []
        assert cols.to_events() == [CdrEvent("a", "b", 1170324000, EventKind.CALL, 65)]

    def test_text_row_has_zero_duration(self, default_window):
        cols, _ = parse_events(events_stream(["a,b,1170324000,text,0"]), default_window)
        assert not cols.is_call[0]
        assert cols.duration[0] == 0

    def test_self_loop_dropped_with_diagnostic(self, default_window):
        cols, diags = parse_events(
            events_stream(["a,a,1170324000,call,65"]), default_window
        )
        assert len(cols) == 0
        assert len(diags) == 1 and "self-loop" in diags[0].reason

    def test_empty_duration_means_unknown_call(self, default_window):
        cols, diags = parse_events(events_stream(["a,b,1170324000,call,"]), default_window)
        assert diags == []
        assert cols.to_events()[0].duration is None

    @pytest.mark.parametrize(
        "row, fragment",
        [
            ("a,b,notatime,call,65", "timestamp"),
            ("a,b,1170324000,call,-5", "negative duration"),
            ("a,b,1170324000,fax,65", "kind"),
            ("a,b,1170324000,text,", "unknown duration"),
            ("a,b,1170324000,text,4", "nonzero"),
            ("a,b,999,call,65", "outside window"),
            ("a,b,1170324000,call", "5 fields"),
        ],
    )
    def test_bad_rows_become_diagnostics(self, default_window, row, fragment):
        cols, diags = parse_events(events_stream([row]), default_window)
        assert len(cols) == 0
        assert len(diags) == 1 and fragment in diags[0].reason

    def test_header_mismatch_is_fatal(self, default_window):
        with pytest.raises(ParseError):
            parse_events(io.BytesIO(b"x,y,z\n"), default_window)

    def test_diagnostics_carry_line_numbers(self, default_window):
        cols, diags = parse_events(
            events_stream(["a,b,1170324000,call,65", "a,a,1170324000,call,65"]),
            default_window,
        )
        assert len(cols) == 1
        assert diags[0].line == 3

    def test_parse_is_total_on_fuzzed_bytes(self, default_window):
        rng = np.random.default_rng(0)
        for _ in range(50):
            blob = bytes(rng.integers(0, 256, size=rng.integers(1, 400)))
            stream = io.BytesIO(EVENTS_HEADER.encode() + b"\n" + blob)
            cols, diags = parse_events(stream, default_window)
            assert isinstance(cols, EventColumns) and isinstance(diags, list)

    def test_round_trip(self, default_window):
        rng = np.random.default_rng(1)
        users = [f"u{i}" for i in range(8)]
        events = []
        for _ in range(200):
            a, b = rng.choice(len(users), size=2, replace=False)
            ts = int(rng.integers(default_window.start, default_window.end))
            if rng.random() < 0.4:
                events.append(ev(users[a], users[b], ts, "text"))
            elif rng.random() < 0.2:
                events.append(ev(users[a], users[b], ts, "call", None))
            else:
                events.append(ev(users[a], users[b], ts, "call", int(rng.integers(0, 3600))))
        payload = "\n".join([EVENTS_HEADER] + [format_event_row(e) for e in events]) + "\n"
        reparsed, diags = parse_events(io.BytesIO(payload.encode()), default_window)
        assert diags == []
        assert reparsed.to_events() == events


_WINDOW = ObservationWindow.default()
_USERS = st.sampled_from(["a", "b", "c", "u1", "u22", "x"])
_IN_WINDOW = st.integers(_WINDOW.start, _WINDOW.end - 1).map(str)


@st.composite
def _valid_row(draw) -> str:
    caller, callee = draw(st.lists(_USERS, min_size=2, max_size=2, unique=True))
    if draw(st.booleans()):
        kind, duration = "text", "0"
    else:
        kind, duration = "call", draw(st.sampled_from(["", "0", "65", "3599"]))
    return ",".join([caller, callee, draw(_IN_WINDOW), kind, duration])


def _rejected_rows(ts: str) -> list[st.SearchStrategy[str]]:
    """One strategy per reason ``parse_events`` rejects a row for."""
    return [
        st.sampled_from([f"a,b,{ts},call", f"a,b,{ts},call,5,6", "a,b"]),
        st.sampled_from([f",b,{ts},call,5", f"a,,{ts},text,0"]),
        _USERS.map(lambda u: f"{u},{u},{ts},call,5"),
        st.sampled_from(["a,b,x12,call,5", "a,b,,text,0", "a,b,1.5e9,call,1"]),
        st.sampled_from([_WINDOW.start - 1, _WINDOW.end, 0]).map(lambda t: f"a,b,{t},call,5"),
        st.sampled_from(["fax", "CALL", ""]).map(lambda k: f"a,b,{ts},{k},5"),
        st.just(f"a,b,{ts},text,"),
        st.sampled_from(["4", "60"]).map(lambda d: f"a,b,{ts},text,{d}"),
        st.sampled_from(["x", "1.5", str(2**63)]).map(lambda d: f"a,b,{ts},call,{d}"),
        st.sampled_from(["-1", "-600"]).map(lambda d: f"b,a,{ts},call,{d}"),
    ]


def _unplain_rows(ts: str) -> list[st.SearchStrategy[bytes]]:
    """Rows outside the plain subset the block path decodes in bulk, which
    ``parse_events`` may accept or reject: one strategy per way to leave it."""
    numbers = [f" {ts}", f"+{ts}", f"{ts[:3]}_{ts[3:]}", f"000{ts}", "٠" + ts, "١٧",
               f"{ts[:-1]}:", str(2**64 + int(ts))]  # ':' follows '9'; 2**64 wraps an int64
    durations = ["+5", " 5", "1_0", "007", "٣", "9" * 18, "9" * 19, str(2**63 - 1), str(2**63)]
    ids = ["abcdefghi", "u" * 64, "v" * 65, "a b", "a\tb", "a\0b", "a\x7fb", "a ", "é", "ü" * 40]
    return [
        st.sampled_from(numbers).map(lambda t: f"a,b,{t},call,5".encode()),
        st.sampled_from(numbers).map(lambda d: f"a,b,{ts},call,{d.strip()}".encode()),
        st.sampled_from(durations).map(lambda d: f"b,a,{ts},call,{d}".encode()),
        st.sampled_from(durations).map(lambda d: f"b,a,{ts},text,{d}".encode()),
        st.tuples(st.sampled_from(ids), _USERS).map(
            lambda pair: f"{pair[0]},{pair[1]},{ts},call,5".encode()
        ),
        st.sampled_from(ids).map(lambda u: f"a,{u},{ts},text,0".encode()),
        st.sampled_from(ids).map(lambda u: f"{u},{u},{ts},call,5".encode()),
        st.sampled_from([b"a\xff,b,", b"\xe2\x82,b,", b"a,\xc3,", b"a,b,\xff"]).map(
            lambda head: head + f"{ts},call,1".encode()
        ),
    ]


@st.composite
def _events_file(draw) -> bytes:
    """Valid rows (repeated users, unknown call durations), blank lines, one
    row per rejection reason and rows outside the plain subset, shuffled,
    each line with its own ending, some of them runs (``\\r\\r\\n``, ``\\n\\r``)
    that a line-ending scan could pair wrongly."""
    ts = draw(_IN_WINDOW)
    rows = [r.encode() for r in draw(st.lists(st.one_of(_valid_row(), st.just("")), max_size=25))]
    rows += [draw(reason).encode() for reason in _rejected_rows(ts)]
    rows += draw(st.lists(st.one_of(_unplain_rows(ts)), max_size=8))
    rows = draw(st.permutations(rows))
    endings = st.sampled_from([b"\n", b"\r\n", b"\r", b"\r\r\n", b"\n\r"])
    lines = [EVENTS_HEADER.encode(), *rows]
    return b"".join(line + draw(endings) for line in lines)


def _assert_matches_reference(data: bytes, stream=None) -> None:
    cols, diags = parse_events(stream or io.BytesIO(data), _WINDOW)
    want_events, want_diags = parse_events_reference(data, _WINDOW)
    assert [(d.line, d.reason) for d in diags] == want_diags
    assert cols.to_events() == want_events
    want = EventColumns.from_events(want_events, _WINDOW)
    assert cols.users == want.users
    for name in ("caller", "callee", "timestamp", "is_call", "duration"):
        got, expected = getattr(cols, name), getattr(want, name)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)


class _Trickle(io.RawIOBase):
    """A stream whose ``read`` returns at most ``most`` bytes."""

    def __init__(self, data: bytes, most: int) -> None:
        self.data, self.most, self.at = data, most, 0

    def readable(self) -> bool:
        return True

    def read(self, size: int = -1) -> bytes:
        size = self.most if size < 0 else min(size, self.most)
        out = self.data[self.at : self.at + size]
        self.at += len(out)
        return out


class TestParserDifferential:
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(_events_file())
    def test_matches_reference_parser(self, data):
        _assert_matches_reference(data)

    @pytest.mark.parametrize("block", [1, 2, 7, 64])
    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(data=_events_file())
    def test_blocks_split_headers_rows_and_line_endings(self, block, data):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "_BLOCK_BYTES", block)
            _assert_matches_reference(data)

    def test_short_reads(self):
        rows = [f"u{i},u{i + 1},{_WINDOW.start + i},call,{i}" for i in range(40)]
        data = "\r\n".join([EVENTS_HEADER, *rows, "a,a,1,call,5", "é,b,x,call,"]).encode()
        _assert_matches_reference(data, _Trickle(data, 3))

    def test_benchmark_builders_file(self, tmp_path):
        """The benchmark's raw file: every injected rejection reason and pool
        calls with unknown durations, written apart from the package."""
        spec = importlib.util.spec_from_file_location(
            "build_inputs", Path(__file__).parent.parent / "perfbench" / "build_inputs.py"
        )
        builder = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(builder)
        builder.build(3, 20, str(tmp_path))
        _assert_matches_reference((tmp_path / "events.csv").read_bytes())


class TestParserEdges:
    def test_empty_stream(self):
        with pytest.raises(ParseError, match="events stream is empty"):
            parse_events(io.BytesIO(b""), _WINDOW)

    @pytest.mark.parametrize("ending", [b"", b"\n", b"\r\n", b"\r"])
    def test_header_only(self, ending):
        cols, diags = parse_events(io.BytesIO(EVENTS_HEADER.encode() + ending), _WINDOW)
        assert len(cols) == 0 and cols.users == [] and diags == []
        assert cols.timestamp.dtype == np.int64 and cols.is_call.dtype == bool

    def test_lone_carriage_return_at_end(self):
        data = f"{EVENTS_HEADER}\na,b,{_WINDOW.start},call,5\r".encode()
        _assert_matches_reference(data)
        assert len(parse_events(io.BytesIO(data), _WINDOW)[0]) == 1

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_plain_rows_skip_the_line_parser(self, monkeypatch, newline):
        """Plain rows are decoded in bulk, whatever their line ending; one
        that reached ``_row`` would still parse right but lose the block
        path's speed."""

        def refuse(line, window):
            raise AssertionError(f"line parser called on {line!r}")

        monkeypatch.setattr(ingest, "_row", refuse)
        rows = [
            f"{caller},{callee},{_WINDOW.start + i},{kind},{duration}"
            for i, (caller, callee, kind, duration) in enumerate(
                [("a", "b", "call", "65"), ("b", "a", "text", "0"), ("c", "a", "call", ""),
                 ("abcdefghijk", "~!#$", "call", "9" * 18), ("u" * 64, "b", "text", "00")] * 30
            )
        ]
        data = newline.join([EVENTS_HEADER, *rows, ""]).encode()
        cols, diags = parse_events(io.BytesIO(data), _WINDOW)
        assert diags == [] and len(cols) == len(rows)
        assert cols.users == ["a", "b", "c", "abcdefghijk", "~!#$", "u" * 64]
        assert cols.duration[:5].tolist() == [65, 0, -1, 10**18 - 1, 0]


# the digits, their neighbours '/' and ':', and bytes a digit test could let through
_SPAN = st.one_of(
    st.lists(st.sampled_from(b"0123456789/:\x00\x20\x7f\xff"), max_size=20).map(bytes),
    st.text("0123456789", max_size=20).map(str.encode),
)


class TestBlockPath:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(first=_SPAN, middle=_SPAN, last=_SPAN)
    def test_decimal_matches_int(self, first, middle, last):
        """The digit reader on spans at a block's first byte and at its last
        byte before the pad: a span is flagged exactly when it is at most 18
        ASCII digits, and then reads as ``int`` reads it."""
        block = first + middle + last
        a = np.frombuffer(block + ingest._PAD, dtype=np.uint8)
        start = np.array([0, len(block) - len(last)])
        end = np.array([len(first), len(block)])
        values, flags = ingest._decimal(a, start, end)
        for span, value, flag in zip((first, last), values.tolist(), flags.tolist()):
            assert flag == (len(span) <= 18 and (span == b"" or span.isdigit())), span
            if flag:
                assert value == int(span or b"0"), span

    def test_memory_does_not_grow_with_events(self, monkeypatch):
        """``parse_events``' traced peak, less the columns it returns, holds
        one block's temporaries and the interned ids, so it does not grow
        when the same rows are repeated to 2x and 4x the events. Blocks are
        patched to 4 KiB; two rows in each repeat take the line path."""
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", 1 << 12)
        start = _WINDOW.start
        rows = [f"u{i % 7},u{i % 5 + 7},{start + i},{'call' if i % 3 else 'text'},{i % 3 * 60}"
                for i in range(40)] + [f"é,u1,{start},call,+5", f"u2,u3,{start},call, 5"]

        def overhead(times: int) -> int:
            data = ("\n".join([EVENTS_HEADER, *rows * times]) + "\n").encode()
            stream = io.BytesIO(data)
            tracemalloc.start()
            try:
                cols, diags = parse_events(stream, _WINDOW)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert diags == [] and len(cols) == len(rows) * times
            return peak - kept

        overhead(1)  # warm caches
        small = overhead(25)
        assert overhead(50) <= 1.25 * small and overhead(100) <= 1.25 * small, small


class TestParseSubscribers:
    def test_basic_record(self):
        records, diags = parse_subscribers(subscribers_stream(["u1,34,F,00100"]))
        assert diags == []
        assert records["u1"].age == 34
        assert records["u1"].gender is Gender.FEMALE
        assert records["u1"].postcode == "00100"

    def test_duplicate_keeps_first(self):
        records, diags = parse_subscribers(
            subscribers_stream(["u1,34,F,00100", "u1,40,M,00200"])
        )
        assert records["u1"].age == 34
        assert len(diags) == 1 and "duplicate" in diags[0].reason

    def test_age_out_of_range_dropped(self):
        records, diags = parse_subscribers(subscribers_stream(["u2,250,M,"]))
        assert records == {}
        assert "age out of range" in diags[0].reason

    def test_empty_postcode_is_none(self):
        records, _ = parse_subscribers(subscribers_stream(["u1,34,M,"]))
        assert records["u1"].postcode is None

    def test_header_mismatch_is_fatal(self):
        with pytest.raises(ParseError):
            parse_subscribers(io.BytesIO(b"nope\n"))


class TestValidateDataset:
    def test_empty_events_fatal(self):
        with pytest.raises(DatasetError):
            validate_dataset(columns([]), {})

    def test_zero_month_flagged(self, default_window):
        events = [ev("a", "b", default_window.month_starts[m] + 10) for m in range(6)]
        report = validate_dataset(columns(events), {})
        assert not report.ok
        assert len(report.warnings) == 1 and "month 6" in report.warnings[0]

    def test_hand_counted_fixture(self, default_window):
        # 20 rows: 12 calls (3 with unknown duration), 8 texts, users a-e,
        # subscribers a, b, c only
        subs, _ = parse_subscribers(
            subscribers_stream(["a,30,F,", "b,32,M,", "c,40,F,"])
        )
        t0 = default_window.start
        events = []
        for m in range(7):
            events.append(ev("a", "b", default_window.month_starts[m] + 100))
        events += [
            ev("a", "c", t0 + 50, "call", None),
            ev("d", "a", t0 + 60, "call", None),
            ev("e", "b", t0 + 70, "call", None),
            ev("c", "d", t0 + 80),
            ev("b", "e", t0 + 90),
        ]
        events += [ev("a", "b", t0 + 100 + i, "text") for i in range(8)]
        assert len(events) == 20
        report = validate_dataset(columns(events), subs)
        assert report.n_events == 20
        assert report.n_calls == 12
        assert report.n_texts == 8
        assert report.n_unknown_duration_calls == 3
        assert report.n_users_seen == 5
        assert report.n_subscribers_seen == 3
        assert report.n_nonsubscribers_seen == 2
        assert report.events_per_month[0] == 14
        assert report.events_per_month[1:] == [1] * 6
        assert report.ok


class TestEventColumns:
    def test_round_trip_preserves_events(self, default_window):
        events = [
            ev("b", "a", default_window.start + 5),
            ev("a", "c", default_window.start + 9, "text"),
            ev("c", "b", default_window.start + 12, "call", None),
        ]
        cols = EventColumns.from_events(events, default_window)
        assert cols.window is default_window
        assert cols.to_events() == events
        assert len(cols) == 3


class TestUserCodeBound:
    """User codes are int32, so more than ``ingest.MAX_USERS`` distinct ids
    raise DatasetError; the bound is patched, so nothing large is allocated."""

    # four users; the last row is read by the line path (non-ASCII id, signed duration)
    ROWS = ["a,b,1170324000,call,5", "b,c,1170324001,text,0", "c,d\u00e9,1170324002,call,+7"]

    def test_codes_are_int32(self, default_window):
        cols, diags = parse_events(events_stream(self.ROWS), default_window)
        assert diags == [] and cols.users == ["a", "b", "c", "d\u00e9"]
        built = EventColumns.from_events(cols.to_events(), default_window)
        for codes in (cols.caller, cols.callee, built.caller, built.callee):
            assert codes.dtype == np.int32
        np.testing.assert_array_equal(built.callee, cols.callee)

    def test_parse_events_past_the_bound(self, monkeypatch, default_window):
        monkeypatch.setattr(ingest, "MAX_USERS", 4)
        cols, _ = parse_events(events_stream(self.ROWS), default_window)
        assert len(cols.users) == 4
        monkeypatch.setattr(ingest, "MAX_USERS", 3)
        with pytest.raises(DatasetError, match="4 distinct user ids: int32 user codes hold at most 3"):
            parse_events(events_stream(self.ROWS), default_window)

    def test_from_events_past_the_bound(self, monkeypatch, default_window):
        events = [ev("a", "b", default_window.start), ev("c", "d", default_window.start + 1)]
        monkeypatch.setattr(ingest, "MAX_USERS", 4)
        assert len(EventColumns.from_events(events, default_window).users) == 4
        monkeypatch.setattr(ingest, "MAX_USERS", 3)
        with pytest.raises(DatasetError, match="4 distinct user ids"):
            EventColumns.from_events(events, default_window)


class TestDiagnosticShape:
    def test_json_line_fields(self, default_window):
        import json

        _, diags = parse_events(
            events_stream(["a,a,1170324000,call,65"]), default_window
        )
        payload = json.loads(diags[0].to_json_line())
        assert set(payload) == {"line", "reason"}
        assert payload["line"] == 2
        assert isinstance(payload["reason"], str)
