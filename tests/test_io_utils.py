"""features.csv round trip and the reader's errors."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from linkcdr.errors import ParseError
from linkcdr.io_utils import read_features_csv, write_features_csv
from linkcdr.manifest import N_FEATURES
from linkcdr.pairgraph import PairKey

_SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 0.0, 1.7976931348623157e308, 0.1]


def _features(n: int = 4) -> tuple[list[PairKey], np.ndarray]:
    pairs = [PairKey(f"#a{i}", f"b#{i}") for i in range(n)]
    matrix = np.random.default_rng(0).normal(size=(n, N_FEATURES)) * 1e3
    matrix[:, : len(_SPECIAL)] = _SPECIAL
    return pairs, matrix


class TestReadFeatures:
    def test_round_trip_is_bitwise(self, tmp_path):
        pairs, matrix = _features()
        path = str(tmp_path / "features.csv")
        write_features_csv(path, pairs, matrix)
        got_pairs, got = read_features_csv(path)
        assert got_pairs == pairs
        assert got.dtype == np.float64
        assert got.tobytes() == matrix.tobytes()

    def test_blank_lines_are_skipped(self, tmp_path):
        pairs, matrix = _features()
        path = tmp_path / "features.csv"
        write_features_csv(str(path), pairs, matrix)
        header, *rows = path.read_text().splitlines()
        path.write_text("\n".join([header, "", rows[0], "", "", *rows[1:], ""]) + "\n")
        got_pairs, got = read_features_csv(str(path))
        assert got_pairs == pairs
        assert got.tobytes() == matrix.tobytes()

    def test_header_only_gives_empty_matrix_without_warning(self, tmp_path):
        path = str(tmp_path / "features.csv")
        write_features_csv(path, [], np.zeros((0, N_FEATURES)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pairs, matrix = read_features_csv(path)
        assert pairs == [] and matrix.shape == (0, N_FEATURES)

    def test_short_row_is_a_parse_error(self, tmp_path):
        pairs, matrix = _features()
        path = tmp_path / "features.csv"
        write_features_csv(str(path), pairs, matrix)
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = lines[2].rsplit(",", 1)[0] + "\n"
        path.write_text("".join(lines))
        with pytest.raises(ParseError, match=f"feature row has {N_FEATURES + 1} fields"):
            read_features_csv(str(path))

    def test_non_numeric_value_names_its_line(self, tmp_path):
        pairs, matrix = _features()
        path = tmp_path / "features.csv"
        write_features_csv(str(path), pairs, matrix)
        lines = path.read_text().splitlines(keepends=True)
        lines.insert(2, "\n")
        fields = lines[4].split(",")
        fields[7] = "abc"
        lines[4] = ",".join(fields)
        path.write_text("".join(lines))
        with pytest.raises(ParseError, match=r"line 5\b.*'abc'"):
            read_features_csv(str(path))
