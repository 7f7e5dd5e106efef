"""The pinned files of a small seeded chain keep their committed bytes
(``tests/data/chain_digests.json``, regenerated by ``tests/chain_digests.py``),
or under another numeric runtime their float values."""

from __future__ import annotations

import json
import lzma

import pytest

import chain_digests
from chain_digests import MALFORMED, moved_chain_files, moved_files, run_chain, same_values


def test_chain_files_match_the_committed_digests(tmp_path):
    moved = moved_chain_files(tmp_path, run_chain(tmp_path))
    assert not moved, "bytes moved; see tests/chain_digests.py --check\n" + "\n".join(moved)
    # one diagnostic per injected rejection, in order; the last line is accepted
    lines = (tmp_path / "ingest-malformed" / "diagnostics.jsonl").read_text().splitlines()
    assert [json.loads(line)["reason"] for line in lines] == [
        "expected 5 fields, got 4", "empty user id", "self-loop", "bad timestamp 'soon'",
        "timestamp 1 outside window", "unknown kind 'fax'", "text with unknown duration",
        "bad duration '1.5'", "negative duration -60", "text with nonzero duration",
    ]
    assert len(lines) == len(MALFORMED) - 1


def test_moved_files_names_changed_new_and_gone_files():
    expected = {"a/x": "1", "a/y": "2", "a/gone": "3"}
    actual = {"a/x": "1", "a/y": "9", "a/new": "4"}
    assert moved_files(expected, actual) == [
        "a/gone  expected 3  actual -",
        "a/new  expected -  actual 4",
        "a/y  expected 2  actual 9",
    ]
    assert moved_files(expected, expected) == []


def test_same_values_compares_numbers_at_the_tolerance():
    recorded = "first,second,x\na,b,0.1,2.5\n"
    assert same_values(recorded, "first,second,x\na,b,0.10000000000001,2.5\n")
    assert not same_values(recorded, "first,second,x\na,b,0.10000000001,2.5\n")
    assert not same_values(recorded, "first,second,x\na,c,0.1,2.5\n")
    assert not same_values(recorded, "first,second,x\na,b,0.1\n")
    assert not same_values(recorded, recorded + "a,b,0.1,2.5\n")


def test_same_values_compares_json_by_value():
    recorded = '{"a": 0.1, "b": [1, "x", null, true], "c": NaN}\n'
    assert same_values(recorded, recorded)
    assert same_values(recorded, '{"c": NaN, "b": [1, "x", null, true], "a": 0.10000000000001}')
    assert not same_values(recorded, '{"a": 0.10000000001, "b": [1, "x", null, true], "c": NaN}')
    assert not same_values(recorded, '{"a": 0.1, "b": [1, "y", null, true], "c": NaN}')
    assert not same_values(recorded, '{"a": 0.1, "b": [1, "x", null, 1], "c": NaN}')
    assert not same_values(recorded, '{"a": 0.1, "b": [1, "x", null], "c": NaN}')
    assert not same_values(recorded, '{"a": 0.1, "b": [1, "x", null, true], "c": 0.0}')
    assert not same_values(recorded, '{"a": 0.1, "b": [1, "x", null, true]}')
    assert not same_values(recorded, "a,b,c\n")


@pytest.mark.parametrize("shift", [0.0, 1e-6])
def test_a_float_file_under_another_runtime_is_compared_by_value(tmp_path, monkeypatch, shift):
    """Under another runtime a float file whose bytes moved within the
    tolerance passes; past it, ``--check`` lists it as it lists an integer
    file, and names both runtimes."""
    recorded = json.loads(chain_digests.DIGESTS.read_text())
    name = "features/features.csv"
    texts = json.loads(lzma.decompress(chain_digests.FLOATS.read_bytes()))
    header, first, *rest = texts[name].splitlines(keepends=True)
    fields = first.split(",")
    fields[2] = repr(float(fields[2]) * (1 + 1e-15) + shift)  # last bits, or past 1e-12
    (tmp_path / name).parent.mkdir()
    (tmp_path / name).write_text("".join([header, ",".join(fields), *rest]), encoding="utf-8")
    digests = {**recorded["sha256"], name: "moved"}
    monkeypatch.setattr(chain_digests, "runtime", lambda: {"numpy": "another"})
    moved = moved_chain_files(tmp_path, digests)
    if shift == 0.0:
        assert moved == []
    else:
        assert moved[0] == f"{name}  expected {recorded['sha256'][name]}  actual moved"
        assert "recorded under" in moved[1] and "'numpy': 'another'" in moved[1]
    monkeypatch.setattr(chain_digests, "runtime", lambda: recorded["runtime"])
    assert moved_chain_files(tmp_path, digests)[0].startswith(f"{name}  expected")
