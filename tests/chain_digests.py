"""The sha256 of each pinned file of a small seeded chain, pinned in
``tests/data/chain_digests.json``.

The chain is ``generate --verify`` of 300 ``table3-like`` pairs at a fixed
seed, then ``pairs`` and ``features`` on its output, ``pca`` on those
features and ``train`` of each model kind on them (one seed). A copy of
the first ``events.csv`` with one malformed line per ``ingest._row``
rejection reason (``MALFORMED``) then goes through ``ingest`` and
``pairs``, so the pinned diagnostics are not empty. A second, smaller
``generate --verify`` pins a nonzero ``--utc-offset``. The reports are
pinned too: ``bayes-bounds --loo`` on the features, ``evaluate`` of the
lsvm predictions, and ``report`` of those two. The integer-only
files hold only integers, ids and fixed text, so their bytes must not
move on any numpy, BLAS or platform. The last bits of a float-bearing
file (``FLOAT_FILES``) may follow the numeric runtime (``runtime``), so
the digests record the runtime they were made under, and
``tests/data/chain_floats.json.xz`` keeps those files' text: under another
runtime a float file counts as moved only if a parsed value differs by
more than ``TOLERANCE``. The tier-1 test ``test_chain_digests.py`` reruns
the chain and compares.

    PYTHONPATH=src python tests/chain_digests.py --check

reruns the chain, prints each moved file with its expected and actual
sha256 and exits 1 if any moved; it rewrites nothing. A change that means
to move these bytes pastes that list into CHANGES.md and rewrites the
digests and float texts with

    PYTHONPATH=src python tests/chain_digests.py
"""

from __future__ import annotations

import json
import lzma
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import linkcdr
from linkcdr.cli import BLAS_THREADS, _runtime, main
from linkcdr.io_utils import sha256_file

DIGESTS = Path(__file__).parent / "data" / "chain_digests.json"
FLOATS = Path(__file__).parent / "data" / "chain_floats.json.xz"
N_PAIRS, SEED = 300, 5
# the second generator configuration: pairs, seed and --utc-offset
OFFSET_N_PAIRS, OFFSET_SEED, UTC_OFFSET = 100, 6, 19800
MODELS = ("lsvm", "logreg", "knn")
FLOAT_FILES = (
    "features/features.csv",
    "pca/scree.csv",
    "pca/loadings.csv",
    *(f"train_{model}/predictions.csv" for model in MODELS),
    "train_lsvm/model.json",
    "bayes-bounds/bounds.json",
    "evaluate/report.json",
    "report/summary.txt",
    "report/histograms.csv",
)
TOLERANCE = 1e-12  # the golden fixture's, absolute and relative

# One line per rejection reason of ``ingest._row``, in its order, and last a
# line it accepts that the parser's block path does not (a non-ASCII id and
# a signed duration). ``inject`` puts the k-th (from 0) before the source's
# data row (k + 1) * MALFORMED_STRIDE (from 0), so they fall in different
# parse blocks.
MALFORMED = (
    "m1,m2,1167609600,call",  # expected 5 fields, got 4
    ",m2,1167609600,call,60",  # empty user id
    "m1,m1,1167609600,call,60",  # self-loop
    "m1,m2,soon,call,60",  # bad timestamp
    "m1,m2,1,call,60",  # timestamp outside window
    "m1,m2,1167609600,fax,0",  # unknown kind
    "m1,m2,1167609600,text,",  # text with unknown duration
    "m1,m2,1167609600,call,1.5",  # bad duration
    "m1,m2,1167609600,call,-60",  # negative duration
    "m1,m2,1167609600,text,5",  # text with nonzero duration
    "mü,m2,1167609600,call,+60",  # accepted by the line path only
)
MALFORMED_STRIDE = 9001


def inject(source: Path, target: Path) -> None:
    """Copy an events file, inserting the ``MALFORMED`` lines."""
    header, *rows = source.read_text(encoding="utf-8").splitlines()
    for k in reversed(range(len(MALFORMED))):
        rows.insert(min((k + 1) * MALFORMED_STRIDE, len(rows)), MALFORMED[k])
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")


def runtime() -> dict:
    """What a float file's last bits may follow: numpy's version, its BLAS,
    and the SIMD extensions numpy dispatches to on this machine (its
    ``log1p`` on AVX-512 differs from the C library's in the last bit)."""
    numeric = _runtime()
    return {key: numeric[key] for key in ("numpy", "blas", "simd")}


def run_pinned(argv: list[str]) -> None:
    """Run a stage whose floats follow the BLAS thread count (``pca``,
    ``train``) in a child process, which pins one BLAS thread as the CLI
    does when no thread variable is set. In this process numpy may have
    loaded before ``linkcdr.cli`` could pin it."""
    env = {key: value for key, value in os.environ.items() if key not in BLAS_THREADS}
    src = str(Path(linkcdr.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-m", "linkcdr.cli", *argv], env=env, check=True)


def run_chain(root: Path) -> dict[str, str]:
    """Run the chain under ``root``; the sha256 of each pinned file, keyed
    by stage directory and file name."""
    gen, pairs, features = root / "generate", root / "pairs", root / "features"
    offset = root / f"generate-{UTC_OFFSET}"
    malformed = root / "malformed" / "events.csv"
    subscribers = str(gen / "subscribers.csv")
    assert main([
        "generate", "--preset", "table3-like", "--n-pairs", str(N_PAIRS),
        "--seed", str(SEED), "--verify", "--out", str(gen),
    ]) == 0
    assert main([
        "generate", "--preset", "table3-like", "--n-pairs", str(OFFSET_N_PAIRS),
        "--seed", str(OFFSET_SEED), "--utc-offset", str(UTC_OFFSET), "--verify",
        "--out", str(offset),
    ]) == 0
    assert main([
        "pairs", "--events", str(gen / "events.csv"),
        "--subscribers", subscribers, "--out", str(pairs),
    ]) == 0
    assert main([
        "features", "--events", str(gen / "events.csv"),
        "--pairs", str(pairs / "pairs.csv"), "--out", str(features),
    ]) == 0
    matrix = str(features / "features.csv")
    run_pinned(["pca", "--features", matrix, "--n-comp", "5", "--out", str(root / "pca")])
    for model in MODELS:
        run_pinned([
            "train", "--features", matrix, "--pairs", str(pairs / "pairs.csv"),
            "--task", "ogp", "--model", model, "--n-train", "100", "--n-test", "60",
            "--seed", "1", "--seeds", "1", "--out", str(root / f"train_{model}"),
        ])
    run_pinned([
        "bayes-bounds", "--features", matrix, "--pairs", str(pairs / "pairs.csv"),
        "--task", "ogp", "--loo", "--out", str(root / "bayes-bounds"),
    ])
    assert main([
        "evaluate", "--predictions", str(root / "train_lsvm" / "predictions.csv"),
        "--pairs", str(pairs / "pairs.csv"), "--task", "ogp", "--out", str(root / "evaluate"),
    ]) == 0
    assert main([
        "report", "--reports", str(root / "evaluate" / "report.json"),
        str(root / "bayes-bounds" / "bounds.json"), "--out", str(root / "report"),
    ]) == 0
    inject(gen / "events.csv", malformed)
    ingest, pairs_malformed = root / "ingest-malformed", root / "pairs-malformed"
    assert main([
        "ingest", "--events", str(malformed), "--subscribers", subscribers,
        "--out", str(ingest),
    ]) == 0
    assert main([
        "pairs", "--events", str(malformed), "--subscribers", subscribers,
        "--out", str(pairs_malformed),
    ]) == 0
    files = [
        stage / name
        for stage in (gen, offset)
        for name in ("events.csv", "subscribers.csv", "truth.csv")
    ]
    files += [pairs / name for name in ("pairs.csv", "diagnostics.jsonl")]
    files += [ingest / name for name in ("validation.json", "diagnostics.jsonl")]
    files += [pairs_malformed / name for name in ("pairs.csv", "diagnostics.jsonl")]
    files += [root / name for name in FLOAT_FILES]
    return {f"{path.parent.name}/{path.name}": sha256_file(str(path)) for path in files}


def moved_files(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    """One line per pinned file whose digest differs, is new or is gone:
    its name, expected sha256 and actual sha256 (``-`` where there is none)."""
    return [
        f"{name}  expected {expected.get(name, '-')}  actual {actual.get(name, '-')}"
        for name in sorted(set(expected) | set(actual))
        if expected.get(name) != actual.get(name)
    ]


def _close(want: float, got: float) -> bool:
    return want == got or (want != want and got != got) or (
        abs(got - want) <= TOLERANCE * (1 + abs(want))
    )


def _same_json(want, got) -> bool:
    """Whether two parsed JSON values are equal, numbers within ``TOLERANCE``."""
    if isinstance(want, dict):
        return (
            isinstance(got, dict)
            and want.keys() == got.keys()
            and all(_same_json(want[key], got[key]) for key in want)
        )
    if isinstance(want, list):
        return isinstance(got, list) and len(want) == len(got) and all(map(_same_json, want, got))
    numbers = [isinstance(v, (int, float)) and not isinstance(v, bool) for v in (want, got)]
    if all(numbers):
        return _close(want, got)
    return not any(numbers) and want == got


def same_values(recorded: str, actual: str) -> bool:
    """Whether two texts hold the same values, numbers within ``TOLERANCE``:
    a JSON object by value, any other text as comma-separated fields."""
    if recorded.startswith("{"):
        try:
            return _same_json(json.loads(recorded), json.loads(actual))
        except ValueError:
            return False
    rows = [text.splitlines() for text in (recorded, actual)]
    if len(rows[0]) != len(rows[1]):
        return False
    for want_line, got_line in zip(*rows):
        want_fields, got_fields = want_line.split(","), got_line.split(",")
        if len(want_fields) != len(got_fields):
            return False
        for want, got in zip(want_fields, got_fields):
            if want != got:
                try:
                    want_value, got_value = float(want), float(got)
                except ValueError:
                    return False
                if not _close(want_value, got_value):
                    return False
    return True


def moved_chain_files(root: Path, digests: dict[str, str]) -> list[str]:
    """``moved_files`` of the chain run under ``root`` against the committed
    digests. Under another runtime than the recorded one, a float file whose
    values all lie within ``TOLERANCE`` of the recorded text has not moved,
    and a last line names both runtimes."""
    recorded = json.loads(DIGESTS.read_text())
    expected, here = dict(recorded["sha256"]), runtime()
    if recorded["runtime"] == here:
        return moved_files(expected, digests)
    texts = json.loads(lzma.decompress(FLOATS.read_bytes()))
    for name in set(FLOAT_FILES) & set(digests):
        if digests[name] == expected.get(name):
            continue
        if same_values(texts[name], (root / name).read_text(encoding="utf-8")):
            expected[name] = digests[name]
    moved = moved_files(expected, digests)
    note = f"float files compared by value: recorded under {recorded['runtime']}, run under {here}"
    return moved + [note] if moved else moved


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        digests = run_chain(root)
        if sys.argv[1:] == ["--check"]:
            moved = moved_chain_files(root, digests)
            print("\n".join(moved) if moved else f"all {len(digests)} files match {DIGESTS.name}")
            sys.exit(1 if moved else 0)
        if sys.argv[1:]:
            sys.exit("usage: chain_digests.py [--check]")
        texts = {name: (root / name).read_text(encoding="utf-8") for name in FLOAT_FILES}
    record = {"runtime": runtime(), "sha256": digests}
    DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    FLOATS.write_bytes(lzma.compress(json.dumps(texts, sort_keys=True).encode(), preset=9))
    print(f"wrote {DIGESTS} and {FLOATS}", file=sys.stderr)
