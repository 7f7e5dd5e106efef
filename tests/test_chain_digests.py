"""The integer-only files of a small seeded chain keep their committed bytes
(``tests/data/chain_digests.json``, regenerated by ``tests/chain_digests.py``)."""

from __future__ import annotations

import json

from chain_digests import DIGESTS, run_chain


def test_integer_only_files_match_the_committed_digests(tmp_path):
    expected = json.loads(DIGESTS.read_text())
    actual = run_chain(tmp_path)
    assert set(actual) == set(expected)
    moved = sorted(name for name in expected if actual[name] != expected[name])
    assert not moved, f"bytes moved in {moved}; see tests/chain_digests.py"
