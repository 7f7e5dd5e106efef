"""The sha256 of each integer-only file of a small seeded chain, pinned in
``tests/data/chain_digests.json``.

The chain is ``generate --verify`` of 300 ``table3-like`` pairs at a fixed
seed, then ``pairs`` on its output. Its files hold only integers and ids,
so their bytes must not move on any numpy, BLAS or platform; the tier-1
test ``test_chain_digests.py`` reruns the chain and compares. A change that
means to move these bytes regenerates the file and names every moved file
in CHANGES.md:

    PYTHONPATH=src python tests/chain_digests.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from linkcdr.cli import main
from linkcdr.io_utils import sha256_file

DIGESTS = Path(__file__).parent / "data" / "chain_digests.json"
N_PAIRS, SEED = 300, 5


def run_chain(root: Path) -> dict[str, str]:
    """Run the chain under ``root``; the sha256 of each pinned file, keyed
    by stage directory and file name."""
    gen, pairs = root / "generate", root / "pairs"
    assert main([
        "generate", "--preset", "table3-like", "--n-pairs", str(N_PAIRS),
        "--seed", str(SEED), "--verify", "--out", str(gen),
    ]) == 0
    assert main([
        "pairs", "--events", str(gen / "events.csv"),
        "--subscribers", str(gen / "subscribers.csv"), "--out", str(pairs),
    ]) == 0
    files = [gen / name for name in ("events.csv", "subscribers.csv", "truth.csv")]
    files += [pairs / name for name in ("pairs.csv", "diagnostics.jsonl")]
    return {f"{path.parent.name}/{path.name}": sha256_file(str(path)) for path in files}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_chain(Path(tmp))
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}", file=sys.stderr)
