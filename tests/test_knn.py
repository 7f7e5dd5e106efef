"""Exact kNN and its neighbour ordering versus brute-force references with
explicit tie rules."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkcdr.errors import DatasetError
from linkcdr.learn.neighbors import knn_predict, knn_predict_grid, nearest
from oracles import neighbor_order_reference


def brute_force_knn(train_x, train_y, queries, k):
    out = []
    for q in queries:
        dists = [(float(((q - x) ** 2).sum()), i) for i, x in enumerate(train_x)]
        dists.sort()
        votes = [train_y[i] for _, i in dists[:k]]
        ones = sum(votes)
        out.append(1 if 2 * ones > k else 0)
    return np.asarray(out)


class TestKnnPredict:
    def test_query_equal_to_training_row(self):
        x = np.asarray([[0.0, 0.0], [5.0, 5.0]])
        y = np.asarray([0, 1])
        assert knn_predict(x, y, np.asarray([[5.0, 5.0]]), k=1)[0] == 1

    def test_k_equal_train_size_gives_majority(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((9, 3))
        y = np.asarray([1, 1, 1, 1, 1, 0, 0, 0, 0])
        pred = knn_predict(x, y, rng.standard_normal((20, 3)), k=9)
        assert (pred == 1).all()

    def test_distance_tie_prefers_lower_index(self):
        # both rows equidistant from the query; row 0 must win the vote
        x = np.asarray([[1.0, 0.0], [-1.0, 0.0]])
        y = np.asarray([1, 0])
        assert knn_predict(x, y, np.asarray([[0.0, 0.0]]), k=1)[0] == 1

    def test_even_vote_tie_goes_to_zero(self):
        x = np.asarray([[1.0], [-1.0]])
        y = np.asarray([1, 0])
        assert knn_predict(x, y, np.asarray([[0.0]]), k=2)[0] == 0

    def test_empty_training_set(self):
        with pytest.raises(DatasetError, match="empty"):
            knn_predict(np.zeros((0, 2)), np.zeros(0), np.zeros((1, 2)), k=1)

    def test_k_out_of_range(self):
        x = np.zeros((3, 2))
        with pytest.raises(DatasetError):
            knn_predict(x, np.zeros(3), np.zeros((1, 2)), k=4)

    def test_dimension_mismatch(self):
        with pytest.raises(DatasetError, match="dimension"):
            knn_predict(np.zeros((3, 2)), np.zeros(3), np.zeros((1, 3)), k=1)

    def test_thirty_point_fixture_matches_brute_force(self):
        rng = np.random.default_rng(1)
        x = np.round(rng.integers(-4, 5, size=(30, 4))).astype(float)
        y = (rng.random(30) < 0.5).astype(int)
        queries = rng.integers(-4, 5, size=(25, 4)).astype(float)
        np.testing.assert_array_equal(
            knn_predict(x, y, queries, k=3), brute_force_knn(x, y, queries, 3)
        )

    @pytest.mark.parametrize("k", [1, 3, 7, 50, 200])
    def test_agrees_with_oracle_up_to_200_rows(self, k):
        rng = np.random.default_rng(k)
        x = rng.standard_normal((200, 6))
        y = (rng.random(200) < 0.4).astype(int)
        queries = rng.standard_normal((40, 6))
        np.testing.assert_array_equal(
            knn_predict(x, y, queries, k=k), brute_force_knn(x, y, queries, k)
        )

    def test_chunking_does_not_change_results(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((50, 3))
        queries = rng.standard_normal((70, 3))
        a = nearest(x, queries, 5, chunk_size=7)
        b = nearest(x, queries, 5, chunk_size=1024)
        np.testing.assert_array_equal(a, b)


@st.composite
def tied_neighbour_problems(draw):
    """Training rows drawn from a handful of small integer points, so exact
    duplicates and equal distances are the rule; queries from the same grid,
    or the training rows themselves under ``exclude_self``."""
    dim = draw(st.integers(1, 3))
    point = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
    pool = draw(st.lists(point, min_size=1, max_size=6))
    n = draw(st.integers(2, 40))
    train_x = np.asarray([draw(st.sampled_from(pool)) for _ in range(n)], dtype=np.float64)
    exclude_self = draw(st.booleans())
    queries = (
        train_x
        if exclude_self
        else np.asarray(draw(st.lists(point, min_size=1, max_size=30)), dtype=np.float64)
    )
    top = n - exclude_self
    m = draw(st.sampled_from(sorted({1, draw(st.integers(1, top)), top})))
    chunk_size = draw(st.sampled_from([1, 7, 1024]))
    return train_x, queries, m, exclude_self, chunk_size


class TestNearest:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(tied_neighbour_problems())
    def test_matches_full_stable_argsort(self, problem):
        train_x, queries, m, exclude_self, chunk_size = problem
        got = nearest(train_x, queries, m, exclude_self=exclude_self, chunk_size=chunk_size)
        want = neighbor_order_reference(train_x, queries, m, exclude_self=exclude_self)
        np.testing.assert_array_equal(got, want)

    def test_rows_tied_at_the_cut_off_go_by_index(self):
        # rows 0-3 tie at distance 1 behind row 4: rows 0 and 1 fill the cut
        x = np.asarray([[1.0], [-1.0], [1.0], [-1.0], [0.0]])
        np.testing.assert_array_equal(nearest(x, np.zeros((1, 1)), 3), [[4, 0, 1]])

    def test_exclude_self_drops_only_the_own_row(self):
        x = np.zeros((4, 2))
        np.testing.assert_array_equal(
            nearest(x, x, 3, exclude_self=True, chunk_size=3),
            [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]],
        )

    @pytest.mark.parametrize("m, exclude_self", [(0, False), (4, False), (3, True)])
    def test_m_out_of_range(self, m, exclude_self):
        x = np.zeros((3, 2))
        with pytest.raises(DatasetError, match="out of range"):
            nearest(x, x, m, exclude_self=exclude_self)

    def test_nan_distance_is_rejected(self):
        x = np.asarray([[0.0], [np.nan], [1.0]])
        with pytest.raises(DatasetError, match="non-finite"):
            nearest(x, np.zeros((1, 1)), 3)


class TestKnnPredictGrid:
    def test_each_k_equals_its_own_knn_predict(self):
        rng = np.random.default_rng(3)
        x = rng.integers(-2, 3, size=(60, 3)).astype(float)
        y = (rng.random(60) < 0.5).astype(int)
        queries = rng.integers(-2, 3, size=(45, 3)).astype(float)
        ks = [1, 2, 3, 5, 11, 21, 51, 60]
        for k, pred in zip(ks, knn_predict_grid(x, y, queries, ks)):
            np.testing.assert_array_equal(pred, brute_force_knn(x, y, queries, k))
            np.testing.assert_array_equal(pred, knn_predict(x, y, queries, k))

    @pytest.mark.parametrize("ks", [[0, 3], [3, 61]])
    def test_any_k_out_of_range_is_rejected(self, ks):
        x = np.zeros((60, 2))
        with pytest.raises(DatasetError, match="out of range"):
            knn_predict_grid(x, np.zeros(60), np.zeros((1, 2)), ks)
