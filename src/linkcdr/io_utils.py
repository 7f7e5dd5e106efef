"""Deterministic file I/O helpers shared by the CLI stages."""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import numpy as np

from . import __version__, manifest
from .errors import ConfigError, ParseError
from .relations import PairKey


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _sanitize(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def write_json(path: str, payload: Any) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        json.dump(_sanitize(payload), out, indent=2, sort_keys=True)
        out.write("\n")


def read_json(path: str) -> Any:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _recorded_sha256(path: str) -> tuple[str, str | None]:
    """The ``manifest.json`` beside ``path`` and the sha256 it records for
    ``path``'s file name among its outputs (None if it is absent or does not
    list the file)."""
    sibling = os.path.join(os.path.dirname(path), "manifest.json")
    if not os.path.isfile(sibling):
        return sibling, None
    try:
        payload = read_json(sibling)
        outputs = payload["outputs"] if "subcommand" in payload else None
        entry = outputs.get(os.path.basename(path))
        return sibling, None if entry is None else entry["sha256"]
    except (ValueError, LookupError, TypeError, AttributeError):
        raise ConfigError(f"{sibling} beside input {path} is not a stage manifest") from None


@dataclass
class RunManifest:
    """Reproducibility record written next to every stage's outputs: the
    stage names each file it writes into ``out`` through ``path``."""

    subcommand: str
    out: str
    inputs: dict[str, str] = field(default_factory=dict)  # label -> path
    config: dict[str, Any] = field(default_factory=dict)
    seeds: list[int] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    input_sha256: dict[str, str] = field(default_factory=dict)  # label -> digest
    runtime: dict[str, Any] = field(default_factory=dict)

    def check_inputs(self) -> None:
        """Hash each input once and hold it to the manifest beside it: a
        sibling ``manifest.json`` that lists the input's file name with
        another sha256, or is no stage manifest, raises ConfigError."""
        for label, path in self.inputs.items():
            digest = sha256_file(path)
            sibling, recorded = _recorded_sha256(path)
            if recorded is not None and recorded != digest:
                raise ConfigError(
                    f"input {label} {path} has sha256 {digest}, "
                    f"but {sibling} records {recorded}"
                )
            self.input_sha256[label] = digest

    def path(self, name: str) -> str:
        """The path of output ``name`` in ``out``, recorded among the outputs.
        ``out`` is made when the first file is named, so a run that fails a
        flag check writes nothing."""
        os.makedirs(self.out, exist_ok=True)
        path = os.path.join(self.out, name)
        self.outputs.append(path)
        return path

    def write(self) -> str:
        """Write ``manifest.json`` into ``out``; inputs carry the digests
        ``check_inputs`` took."""
        payload = {
            "subcommand": self.subcommand,
            "toolkit_version": __version__,
            "inputs": {
                label: {"path": path, "sha256": self.input_sha256[label]}
                for label, path in self.inputs.items()
            },
            "config": self.config,
            "runtime": self.runtime,
            "seeds": self.seeds,
            "outputs": {
                os.path.basename(path): {"path": path, "sha256": sha256_file(path)}
                for path in self.outputs
            },
        }
        path = os.path.join(self.out, "manifest.json")
        write_json(path, payload)
        return path


PAIRS_HEADER = (
    "first,second,calls_total,texts_total,duration_total,months_active,label_code,younger_age"
)


def write_pairs_csv(path: str, rows: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.write(PAIRS_HEADER + "\n")
        for row in rows:
            out.write(
                f"{row['first']},{row['second']},{row['calls_total']},{row['texts_total']},"
                f"{row['duration_total']},{row['months_active']},{row['label_code']},"
                f"{row['younger_age']}\n"
            )


def read_pairs_csv(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().rstrip("\r\n")
        if header != PAIRS_HEADER:
            raise ParseError(f"{path}: pairs header mismatch: got {header!r}")
        rows = []
        for line_no, line in enumerate(handle, start=2):
            line = line.rstrip("\r\n")
            if not line:
                continue
            try:
                first, second, calls, texts, dur, months, code, younger = line.split(",")
                rows.append(
                    {
                        "first": first,
                        "second": second,
                        "calls_total": int(calls),
                        "texts_total": int(texts),
                        "duration_total": int(dur),
                        "months_active": int(months),
                        "label_code": code,
                        "younger_age": int(younger) if younger else None,
                    }
                )
            except ValueError as exc:  # a wrong field count or a non-integer count
                raise ParseError(f"{path}: bad pairs row on line {line_no}: {exc}") from None
    return rows


def write_features_csv(path: str, pairs: Sequence[PairKey], matrix: np.ndarray) -> None:
    if matrix.shape != (len(pairs), manifest.N_FEATURES):
        raise ParseError(f"feature matrix shape {matrix.shape} does not match manifest")
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.write("first,second," + ",".join(manifest.FEATURE_NAMES) + "\n")
        for pair, row in zip(pairs, matrix):
            out.write(f"{pair.first},{pair.second}," + ",".join(repr(v) for v in row.tolist()) + "\n")


def read_features_csv(path: str) -> tuple[list[PairKey], np.ndarray]:
    """Pair ids and the (pairs, N_FEATURES) value matrix of a features.csv.
    One pass over the lines checks the header and each row's field count and
    reads the ids; numpy's C reader then reads the values."""
    n_fields = manifest.N_FEATURES + 2
    pairs: list[PairKey] = []
    line_nos: list[int] = []
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().rstrip("\r\n")
        if header != "first,second," + ",".join(manifest.FEATURE_NAMES):
            raise ParseError(f"{path}: features header does not match the feature manifest")
        for line_no, line in enumerate(handle, start=2):
            line = line.rstrip("\r\n")
            if not line:
                continue
            if line.count(",") != n_fields - 1:
                raise ParseError(
                    f"{path}: line {line_no}: feature row has {line.count(',') + 1} fields, "
                    f"expected {n_fields}"
                )
            first, second, _ = line.split(",", 2)
            pairs.append(PairKey(first, second))
            line_nos.append(line_no)
    if not pairs:
        return pairs, np.zeros((0, manifest.N_FEATURES))
    try:
        matrix = np.loadtxt(
            path, delimiter=",", skiprows=1, comments=None,  # '#' is an id byte
            usecols=range(2, n_fields), ndmin=2, encoding="utf-8",
        )
    except ValueError as exc:  # numpy names the data row, counted from 0
        row = re.search(r"at row (\d+)", str(exc))
        where = f"line {line_nos[int(row[1])]}" if row else "a feature row"
        raise ParseError(f"{path}: bad value on {where}: {exc}") from None
    return pairs, matrix


PREDICTIONS_HEADER = "row_id,prediction,probability"


def write_predictions_csv(
    path: str,
    row_ids: Sequence[str],
    predictions: np.ndarray,
    probabilities: np.ndarray | None,
) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.write(PREDICTIONS_HEADER + "\n")
        for i, row_id in enumerate(row_ids):
            prob = "" if probabilities is None else repr(float(probabilities[i]))
            out.write(f"{row_id},{int(predictions[i])},{prob}\n")


def read_predictions_csv(path: str) -> tuple[list[str], np.ndarray, np.ndarray | None]:
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().rstrip("\r\n")
        if header != PREDICTIONS_HEADER:
            raise ParseError(f"{path}: predictions header mismatch: got {header!r}")
        line_of: dict[str, int] = {}  # row id -> its line, in file order
        preds: list[int] = []
        probs: list[float] = []
        any_prob: bool | None = None  # whether the first row has a probability
        for line_no, line in enumerate(handle, start=2):
            line = line.rstrip("\r\n")
            if not line:
                continue
            try:
                row_id, pred, prob = line.rsplit(",", 2)
                if row_id in line_of:
                    raise ValueError(f"row id {row_id!r} repeats line {line_of[row_id]}")
                if pred not in ("0", "1"):
                    raise ValueError(f"prediction {pred!r} is not 0 or 1")
                if any_prob is None:
                    any_prob = bool(prob)
                elif bool(prob) != any_prob:
                    raise ValueError(
                        f"probability {prob!r} given, but the first row has none"
                        if prob
                        else "probability is empty, but the first row has one"
                    )
                if prob:
                    probs.append(float(prob))
                    if not 0.0 <= probs[-1] <= 1.0:  # nan fails too
                        raise ValueError(f"probability {prob!r} is not between 0 and 1")
            except ValueError as exc:  # a wrong field count or a bad value
                raise ParseError(f"{path}: bad predictions row on line {line_no}: {exc}") from None
            line_of[row_id] = line_no
            preds.append(int(pred))
    probabilities = np.asarray(probs) if any_prob else None
    return list(line_of), np.asarray(preds, dtype=np.int64), probabilities
