"""features.csv round trip and the readers' errors for features, pairs and
predictions files."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from linkcdr.errors import ParseError
from linkcdr.io_utils import (
    read_features_csv,
    read_pairs_csv,
    read_predictions_csv,
    write_features_csv,
    write_pairs_csv,
    write_predictions_csv,
)
from linkcdr.manifest import N_FEATURES
from linkcdr.relations import PairKey

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
        with pytest.raises(ParseError, match=f"feature row has {N_FEATURES + 1} fields") as exc:
            read_features_csv(str(path))
        assert str(exc.value).startswith(f"{path}: line 3: ")
        assert str(exc.value).endswith(f"expected {N_FEATURES + 2}")

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


_PAIR_ROWS = [
    {"first": "a", "second": "b", "calls_total": 12, "texts_total": 3, "duration_total": 900,
     "months_active": 5, "label_code": "-M peers", "younger_age": 33},
    {"first": "c", "second": "d", "calls_total": 0, "texts_total": 7, "duration_total": 0,
     "months_active": 6, "label_code": "", "younger_age": ""},
]


def _with_line(path, line_no: int, text: str) -> None:
    """Replace 1-based line ``line_no`` of ``path`` by ``text``."""
    lines = path.read_text().splitlines()
    lines[line_no - 1] = text
    path.write_text("\n".join(lines) + "\n")


class TestReadPairs:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "pairs.csv")
        write_pairs_csv(path, _PAIR_ROWS)
        # an unknown younger age is written empty and read back as None
        assert read_pairs_csv(path) == [_PAIR_ROWS[0], {**_PAIR_ROWS[1], "younger_age": None}]

    @pytest.mark.parametrize(
        "row, detail",
        [
            ("c,d,abc,7,0,6,,", "invalid literal for int"),
            ("c,d,0,7,0,6,,1.5", "invalid literal for int"),
            ("c,d,0,7,0,6", "not enough values"),
            ("c,d,0,7,0,6,,,", "too many values"),
        ],
    )
    def test_bad_row_names_file_and_line(self, tmp_path, row, detail):
        path = tmp_path / "pairs.csv"
        write_pairs_csv(str(path), _PAIR_ROWS)
        _with_line(path, 3, row)
        with pytest.raises(ParseError, match=f"^{path}: bad pairs row on line 3: {detail}"):
            read_pairs_csv(str(path))


class TestReadPredictions:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "predictions.csv")
        probs = np.asarray([0.25, 0.875])
        write_predictions_csv(path, ["a|b", "c|d"], np.asarray([0, 1]), probs)
        ids, preds, got = read_predictions_csv(path)
        assert ids == ["a|b", "c|d"] and preds.tolist() == [0, 1]
        assert got.tobytes() == probs.tobytes()

    def test_round_trip_without_probabilities(self, tmp_path):
        path = str(tmp_path / "predictions.csv")
        write_predictions_csv(path, ["a|b", "c|d"], np.asarray([1, 0]), None)
        assert read_predictions_csv(path)[2] is None

    @pytest.mark.parametrize(
        "row, detail",
        [
            ("c|d,x,0.5", "prediction 'x' is not 0 or 1"),
            ("c|d,2,0.5", "prediction '2' is not 0 or 1"),
            ("c|d,1,high", "could not convert string to float"),
            ("c|d,1", "not enough values"),
            ("c|d,1,", "probability is empty, but the first row has one"),
            ("c|d,1,nan", "probability 'nan' is not between 0 and 1"),
            ("c|d,1,inf", "probability 'inf' is not between 0 and 1"),
            ("c|d,1,1.5", "probability '1.5' is not between 0 and 1"),
            ("c|d,0,-0.25", "probability '-0.25' is not between 0 and 1"),
        ],
    )
    def test_bad_row_names_file_and_line(self, tmp_path, row, detail):
        path = tmp_path / "predictions.csv"
        write_predictions_csv(str(path), ["a|b", "c|d"], np.asarray([0, 1]), np.asarray([0.5, 0.5]))
        _with_line(path, 3, row)
        with pytest.raises(ParseError, match=f"^{path}: bad predictions row on line 3: {detail}"):
            read_predictions_csv(str(path))

    def test_probability_after_rows_without_one(self, tmp_path):
        path = tmp_path / "predictions.csv"
        write_predictions_csv(str(path), ["a|b", "c|d"], np.asarray([0, 1]), None)
        _with_line(path, 3, "c|d,1,0.5")
        match = f"^{path}: bad predictions row on line 3: probability '0.5' given, but the first"
        with pytest.raises(ParseError, match=match):
            read_predictions_csv(str(path))
