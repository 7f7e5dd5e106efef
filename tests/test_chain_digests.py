"""The integer-only files of a small seeded chain keep their committed bytes
(``tests/data/chain_digests.json``, regenerated by ``tests/chain_digests.py``)."""

from __future__ import annotations

import json

from chain_digests import DIGESTS, MALFORMED, moved_files, run_chain


def test_integer_only_files_match_the_committed_digests(tmp_path):
    expected = json.loads(DIGESTS.read_text())
    actual = run_chain(tmp_path)
    moved = moved_files(expected, actual)
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
