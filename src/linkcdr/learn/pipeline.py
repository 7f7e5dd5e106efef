"""Training orchestration: balanced sampling, stratified cross-validation,
seed-mode ensembling, and the age-restricted peer experiment."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ConfigError, DatasetError
from ..relations import peer_bracket_of_code
from .calibration import platt_fit, platt_probability
from .evaluation import EvalReport, evaluate
from .linear import (
    KIND_KNN, KIND_LOGREG, KIND_LSVM, TrainedModel, train_linear_svm, train_logreg, train_path,
)
from .neighbors import knn_predict_grid

C_GRID: tuple[float, ...] = (1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0)
K_GRID: tuple[int, ...] = (1, 3, 5, 11, 21, 51)
N_FOLDS = 5  # cross-validation folds
MIN_CLASS_ROWS = 50  # smaller-class rows a bracket needs for the restricted experiment


@dataclass
class LabeledDataset:
    """Standardized feature rows with binary labels and relationship tags."""

    x: np.ndarray
    y: np.ndarray
    groups: list[str]
    row_ids: list[str]

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        n = self.x.shape[0]
        if not (len(self.y) == len(self.groups) == len(self.row_ids) == n):
            raise DatasetError("dataset fields have mismatched lengths")
        if not ((self.y == 0) | (self.y == 1)).all():
            raise DatasetError("labels must be binary 0/1")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def subset(self, idx: np.ndarray) -> "LabeledDataset":
        idx = np.asarray(idx)
        return LabeledDataset(
            self.x[idx],
            self.y[idx],
            [self.groups[i] for i in idx],
            [self.row_ids[i] for i in idx],
        )


def balanced_sample(dataset: LabeledDataset, n_train: int, seed: int) -> LabeledDataset:
    """Draw n_train/2 rows per class without replacement, deterministically."""
    if n_train <= 0 or n_train % 2:
        raise ConfigError(f"n_train must be positive and even, got {n_train}")
    per_class = n_train // 2
    rng = np.random.default_rng(seed)
    chosen = []
    for cls in (0, 1):
        idx = np.flatnonzero(dataset.y == cls)
        if idx.size < per_class:
            raise DatasetError(
                f"class {cls} has {idx.size} rows, need {per_class} (minority class has {idx.size})"
            )
        chosen.append(rng.choice(idx, size=per_class, replace=False))
    order = np.sort(np.concatenate(chosen))
    return dataset.subset(order)


def stratified_folds(y: np.ndarray, n_folds: int, seed: int) -> np.ndarray:
    """Deterministic per-class round-robin fold assignment over the
    non-negative integer labels ``y``, classes in ascending order."""
    rng = np.random.default_rng(seed)
    folds = np.empty(len(y), dtype=np.int64)
    for cls in np.flatnonzero(np.bincount(y)):
        idx = np.flatnonzero(y == cls)
        shuffled = rng.permutation(idx)
        folds[shuffled] = np.arange(len(shuffled)) % n_folds
    return folds


@dataclass
class CrossValResult:
    best_param: float | int
    table: list[tuple[float | int, float]]
    model: TrainedModel


def cross_validate(
    dataset: LabeledDataset,
    kind: str,
    grid: Sequence[float | int],
    seed: int,
) -> CrossValResult:
    """Pick the grid value with the best mean fold accuracy and refit on all
    rows; ties go to the earlier grid entry.

    A linear kind scores each fold with one ``train_path`` over the grid, each
    C starting from the previous C's solution on that fold (Friedman, Hastie &
    Tibshirani 2010); the refit on all rows is a trainer call, from zero."""
    if len(grid) == 0:
        raise ConfigError("hyperparameter grid is empty")
    if dataset.n < 10:
        raise DatasetError(f"cross-validation needs at least 10 rows, got {dataset.n}")
    if kind not in (KIND_KNN, KIND_LOGREG, KIND_LSVM):
        raise ConfigError(f"unknown model kind {kind!r}")
    folds = stratified_folds(dataset.y, N_FOLDS, seed)
    fold_acc = []
    for fold in range(N_FOLDS):
        train, test = folds != fold, folds == fold
        x, y = dataset.x[train], dataset.y[train]
        if kind == KIND_KNN:  # one neighbour ordering scores every k
            preds = knn_predict_grid(x, y, dataset.x[test], [int(k) for k in grid])
        else:
            path = train_path(x, y, kind, [float(c) for c in grid])
            preds = [model.predict(dataset.x[test]) for model in path]
        fold_acc.append([float((pred == dataset.y[test]).mean()) for pred in preds])
    mean_acc = [float(np.mean(scores)) for scores in zip(*fold_acc)]
    best_param = grid[int(np.argmax(mean_acc))]
    if kind == KIND_KNN:
        model = TrainedModel(kind=KIND_KNN, k=int(best_param), train_x=dataset.x, train_y=dataset.y)
    elif kind == KIND_LOGREG:
        model = train_logreg(dataset.x, dataset.y, c=float(best_param))
    else:
        model = train_linear_svm(dataset.x, dataset.y, c=float(best_param))
    return CrossValResult(best_param, list(zip(grid, mean_acc)), model)


@dataclass
class EnsembleResult:
    predictions: np.ndarray
    probabilities: np.ndarray | None
    per_seed_predictions: np.ndarray  # (n_seeds, n_test)
    models: list[TrainedModel]
    best_params: list[float | int]
    cv_tables: list[list[tuple[float | int, float]]]  # per seed, CrossValResult.table


def seed_ensemble(
    pool: LabeledDataset,
    test_x: np.ndarray,
    kind: str,
    grid: Sequence[float | int],
    seeds: Sequence[int],
    n_train: int | None = None,
) -> EnsembleResult:
    """Run the full balanced-sample -> CV -> refit -> predict pipeline once
    per seed and take the per-row mode of the predictions.

    For the linear kinds, per-seed sigmoid probabilities are fitted on each
    seed's training sample and averaged across seeds; kNN gives none.
    """
    if len(seeds) % 2 == 0:
        raise ConfigError("even seed count: mode may tie")
    if n_train is None:
        counts = np.bincount(pool.y, minlength=2)
        n_train = 2 * int(counts.min())
    votes = np.zeros(np.atleast_2d(test_x).shape[0], dtype=np.int64)
    per_seed = []
    models: list[TrainedModel] = []
    best_params: list[float | int] = []
    cv_tables: list[list[tuple[float | int, float]]] = []
    prob_sum: np.ndarray | None = None
    for seed in seeds:
        sample = balanced_sample(pool, n_train, seed)
        cv = cross_validate(sample, kind, grid, seed)
        model = cv.model
        pred = model.predict(test_x)
        per_seed.append(pred)
        votes += pred
        if kind != KIND_KNN:
            a, b = platt_fit(model.decision_function(sample.x), sample.y)
            model.calibration = (a, b)
            p = platt_probability(model.decision_function(test_x), a, b)
            prob_sum = p if prob_sum is None else prob_sum + p
        models.append(model)
        best_params.append(cv.best_param)
        cv_tables.append(cv.table)
    final = (2 * votes > len(seeds)).astype(np.int64)
    probabilities = prob_sum / len(seeds) if prob_sum is not None else None
    return EnsembleResult(
        final, probabilities, np.asarray(per_seed), models, best_params, cv_tables
    )


def peer_bracket_rows(dataset: LabeledDataset, bracket: str) -> np.ndarray:
    """Rows of ``dataset`` that are peers whose younger user is in ``bracket``."""
    return np.asarray(
        [i for i, code in enumerate(dataset.groups) if peer_bracket_of_code(code) == bracket],
        dtype=np.int64,
    )


def age_restricted_experiment(
    pool: LabeledDataset,
    test: LabeledDataset,
    bracket: str,
    kind: str,
    seeds: Sequence[int],
    n_train: int | None = None,
) -> EvalReport:
    """Train (``seed_ensemble`` over ``C_GRID``) and evaluate only on peers
    whose younger user is in ``bracket``.

    With opposite-gender-peer labels the report's TPR is the accuracy among
    opposite-gender peers and the TNR the accuracy among same-gender peers.
    """
    pool_idx = peer_bracket_rows(pool, bracket)
    test_idx = peer_bracket_rows(test, bracket)
    if pool_idx.size == 0 or test_idx.size == 0:
        raise DatasetError(f"no peer pairs in bracket {bracket!r}")
    sub_pool = pool.subset(pool_idx)
    sub_test = test.subset(test_idx)
    counts = np.bincount(sub_pool.y, minlength=2)
    if counts.min() < MIN_CLASS_ROWS:
        raise DatasetError(
            f"bracket {bracket!r} has only {int(counts.min())} pairs in its smaller class, "
            f"need {MIN_CLASS_ROWS}"
        )
    result = seed_ensemble(sub_pool, sub_test.x, kind, C_GRID, seeds, n_train=n_train)
    return evaluate(result.predictions, sub_test.y, sub_test.groups, result.probabilities)
