"""Exact k-nearest-neighbor classification with deterministic tie-breaking."""

from __future__ import annotations

import numpy as np

from ..errors import DatasetError


def nearest(
    train_x: np.ndarray, queries: np.ndarray, m: int, exclude_self: bool = False, chunk_size: int = 1024
) -> np.ndarray:
    """(queries, m) indices of each query's m nearest training rows in (squared
    Euclidean distance, training index) order, so an equal distance goes to the
    lower index. With ``exclude_self`` the queries are the training rows, none its own."""
    if not 1 <= m <= train_x.shape[0] - exclude_self:
        raise DatasetError(f"k {m} out of range 1..{train_x.shape[0] - exclude_self}")
    train_sq = (train_x**2).sum(axis=1)[None, :]
    out = np.empty((queries.shape[0], m), dtype=np.int64)
    for lo in range(0, queries.shape[0], chunk_size):
        block = queries[lo : lo + chunk_size]
        dists = np.maximum((block**2).sum(axis=1)[:, None] + train_sq - 2.0 * (block @ train_x.T), 0.0)
        if exclude_self:
            np.fill_diagonal(dists[:, lo:], np.inf)
        # keep every row tied at the m-th distance, then sort what is kept; min spares a copy
        cut = dists.min(axis=1) if m == 1 else np.partition(dists, m - 1, axis=1)[:, m - 1]
        kept, cols = np.nonzero(dists <= cut[:, None])
        counts = np.bincount(kept, minlength=len(block))
        if (counts < m).any():
            raise DatasetError("non-finite distance: neighbour order undefined")
        order = np.lexsort((cols, dists[kept, cols], kept))
        out[lo : lo + len(block)] = cols[order][(np.cumsum(counts) - counts)[:, None] + np.arange(m)]
        del dists  # free this block's distances before the next block builds its own
    return out


def knn_predict_grid(
    train_x: np.ndarray, train_y: np.ndarray, queries: np.ndarray, ks: list[int]
) -> list[np.ndarray]:
    """Majority vote among the k nearest training rows per query, for each k
    in ``ks``, from one neighbour ordering; an even vote goes to label 0."""
    train_x = np.asarray(train_x, dtype=np.float64)
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if train_x.shape[0] == 0:
        raise DatasetError("empty training set")
    if min(ks) < 1:
        raise DatasetError(f"k {min(ks)} out of range 1..{train_x.shape[0]}")
    if queries.shape[1] != train_x.shape[1]:
        raise DatasetError("query dimension does not match training set")
    neighbours = nearest(train_x, queries, max(ks))
    votes = np.cumsum(np.asarray(train_y, dtype=np.int64)[neighbours], axis=1)
    return [(2 * votes[:, k - 1] > k).astype(np.int64) for k in ks]


def knn_predict(
    train_x: np.ndarray, train_y: np.ndarray, queries: np.ndarray, k: int
) -> np.ndarray:
    """Majority vote among the k nearest training rows per query."""
    return knn_predict_grid(train_x, train_y, queries, [k])[0]
