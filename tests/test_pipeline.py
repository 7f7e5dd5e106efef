"""Balanced sampling, cross-validation, seed ensembling, age restriction."""

from __future__ import annotations

import numpy as np
import pytest

from linkcdr.errors import ConfigError, DatasetError
from linkcdr.learn import pipeline
from linkcdr.learn.linear import train_linear_svm, train_logreg
from linkcdr.learn.neighbors import knn_predict
from linkcdr.learn.pipeline import (
    C_GRID,
    K_GRID,
    LabeledDataset,
    TrainConfig,
    age_restricted_experiment,
    balanced_sample,
    cross_validate,
    seed_ensemble,
    stratified_folds,
)


def make_dataset(n0: int, n1: int, seed: int = 0, d: int = 4, gap: float = 3.0,
                 groups=None) -> LabeledDataset:
    rng = np.random.default_rng(seed)
    y = np.concatenate([np.zeros(n0, int), np.ones(n1, int)])
    x = rng.standard_normal((n0 + n1, d))
    x[:, 0] += gap * (2 * y - 1)
    if groups is None:
        groups = ["+M peers" if label == 0 else "-M peers" for label in y]
    return LabeledDataset(x, y, list(groups), [f"r{i}" for i in range(n0 + n1)])


class TestBalancedSample:
    def test_exact_split(self):
        sample = balanced_sample(make_dataset(1000, 3000), 2000, seed=1)
        assert sample.n == 2000
        assert sample.y.sum() == 1000

    def test_insufficient_minority_reports_count(self):
        with pytest.raises(DatasetError, match="minority class has 400"):
            balanced_sample(make_dataset(400, 3000), 2000, seed=1)

    def test_same_seed_same_rows(self):
        ds = make_dataset(500, 500)
        a = balanced_sample(ds, 300, seed=9)
        b = balanced_sample(ds, 300, seed=9)
        assert a.row_ids == b.row_ids

    def test_different_seed_different_rows(self):
        ds = make_dataset(500, 500)
        a = balanced_sample(ds, 300, seed=1)
        b = balanced_sample(ds, 300, seed=2)
        assert a.row_ids != b.row_ids

    def test_odd_n_train_rejected(self):
        with pytest.raises(ConfigError):
            balanced_sample(make_dataset(50, 50), 99, seed=0)

    def test_no_replacement(self):
        sample = balanced_sample(make_dataset(200, 200), 400, seed=3)
        assert len(set(sample.row_ids)) == 400


class TestCrossValidate:
    def test_folds_partition_rows(self):
        y = (np.random.default_rng(0).random(57) < 0.4).astype(int)
        folds = stratified_folds(y, 5, seed=2)
        assert folds.shape == (57,)
        assert set(folds) == set(range(5))
        # stratified: each fold's class counts are within 1 of n/5 per class
        for cls in (0, 1):
            counts = np.bincount(folds[y == cls], minlength=5)
            assert counts.max() - counts.min() <= 1

    def test_single_cell_grid(self):
        ds = make_dataset(30, 30)
        result = cross_validate(ds, "logreg", [1.0], seed=0)
        assert result.best_param == 1.0
        assert len(result.table) == 1

    def test_two_cluster_grid_picks_informative_c(self):
        # imbalanced clusters: the C=1e-6 model collapses to the majority
        # class through its unpenalized bias, the C=1 model separates
        ds = make_dataset(30, 90, gap=4.0)
        result = cross_validate(ds, "lsvm", [1e-6, 1.0], seed=0)
        assert result.best_param == 1.0
        accs = dict(result.table)
        assert accs[1e-6] <= 0.8 < accs[1.0]

    def test_tie_goes_to_earlier_grid_entry(self):
        ds = make_dataset(40, 40, gap=8.0)
        # both cells separate perfectly -> tie -> first one returned
        result = cross_validate(ds, "logreg", [10.0, 100.0], seed=0)
        assert result.best_param == 10.0

    def test_refit_uses_full_training_set(self):
        ds = make_dataset(40, 40, gap=5.0)
        result = cross_validate(ds, "logreg", [1.0], seed=0)
        assert (result.model.predict(ds.x) == ds.y).all()

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            cross_validate(make_dataset(20, 20), "logreg", [], seed=0)

    def test_unknown_kind_rejected_before_any_fit(self, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("an unknown kind reached a trainer")

        for name in ("train_path", "train_logreg", "train_linear_svm", "knn_predict_grid"):
            monkeypatch.setattr(pipeline, name, no_fit)
        with pytest.raises(ConfigError, match="unknown model kind 'svm'"):
            cross_validate(make_dataset(20, 20), "svm", C_GRID, seed=0)

    def test_too_small_training_set(self):
        with pytest.raises(DatasetError):
            cross_validate(make_dataset(4, 4), "logreg", [1.0], seed=0)

    def test_knn_grid(self):
        ds = make_dataset(40, 40, gap=4.0)
        result = cross_validate(ds, "knn", [1, 3, 5], seed=0)
        assert result.best_param in (1, 3, 5)
        assert (result.model.predict(ds.x) == ds.y).mean() > 0.9

    def test_knn_table_equals_one_knn_predict_per_k_and_fold(self):
        # rounded features tie often; the table must be bitwise the per-k scan
        ds = make_dataset(70, 60, seed=4, d=3, gap=0.5)
        ds.x = np.round(ds.x)
        folds = stratified_folds(ds.y, 5, seed=9)
        want = []
        for k in K_GRID:
            scores = []
            for fold in range(5):
                train = folds != fold
                pred = knn_predict(ds.x[train], ds.y[train], ds.x[~train], k)
                scores.append(float((pred == ds.y[~train]).mean()))
            want.append((k, float(np.mean(scores))))
        assert cross_validate(ds, "knn", K_GRID, seed=9).table == want

    @pytest.mark.parametrize("kind", ["lsvm", "logreg"])
    @pytest.mark.parametrize("d", [80, 4], ids=["n<d", "n>=d"])
    def test_linear_table_equals_cold_fits_per_c_and_fold(self, kind, d):
        # the path along the C grid must score each fold as cold fits do
        trainer = {"lsvm": train_linear_svm, "logreg": train_logreg}[kind]
        ds = make_dataset(35, 30, seed=5, d=d, gap=0.8)
        folds = stratified_folds(ds.y, 5, seed=2)
        want = []
        for c in C_GRID:
            scores = []
            for fold in range(5):
                train = folds != fold
                pred = trainer(ds.x[train], ds.y[train], c=c).predict(ds.x[~train])
                scores.append(float((pred == ds.y[~train]).mean()))
            want.append((c, float(np.mean(scores))))
        assert len({score for _, score in want}) > 1  # the grid matters here
        assert cross_validate(ds, kind, C_GRID, seed=2).table == want


class TestSeedEnsemble:
    def test_even_seed_count_rejected(self):
        ds = make_dataset(40, 40)
        with pytest.raises(ConfigError, match="mode may tie"):
            seed_ensemble(ds, ds.x, "logreg", [1.0], seeds=[0, 1], n_train=20)

    def test_mode_of_per_seed_votes(self):
        ds = make_dataset(60, 60, gap=4.0)
        result = seed_ensemble(ds, ds.x, "logreg", [1.0], seeds=[0, 1, 2], n_train=40)
        votes = result.per_seed_predictions.sum(axis=0)
        np.testing.assert_array_equal(result.predictions, (2 * votes > 3).astype(int))

    def test_all_seeds_agree_on_separable_data(self):
        ds = make_dataset(60, 60, gap=6.0)
        rng = np.random.default_rng(1)
        test_x = rng.standard_normal((30, 4))
        test_x[:, 0] += 6.0
        result = seed_ensemble(ds, test_x, "lsvm", [1.0], seeds=[0, 1, 2], n_train=40)
        assert (result.per_seed_predictions == 1).all()
        assert (result.predictions == 1).all()

    def test_probabilities_present_and_monotone_with_margin(self):
        ds = make_dataset(80, 80, gap=3.0)
        result = seed_ensemble(ds, ds.x, "logreg", [1.0], seeds=[0, 1, 2], n_train=60)
        assert result.probabilities is not None
        assert result.probabilities.shape == (160,)
        assert (result.probabilities[ds.y == 1].mean()
                > result.probabilities[ds.y == 0].mean())

    def test_knn_has_no_probabilities(self):
        ds = make_dataset(30, 30, gap=4.0)
        result = seed_ensemble(ds, ds.x, "knn", [3], seeds=[0, 1, 2], n_train=20)
        assert result.probabilities is None

    def test_default_n_train_uses_balanced_maximum(self):
        ds = make_dataset(50, 90, gap=4.0)
        result = seed_ensemble(ds, ds.x, "logreg", [1.0], seeds=[0, 1, 2])
        assert result.models[0].weights is not None  # ran with n_train = 100


def bracketed_dataset(seed: int = 0) -> tuple[LabeledDataset, LabeledDataset]:
    """Peers in two brackets; OGP/SGP separable only via feature 1 in 'O'."""
    rng = np.random.default_rng(seed)
    rows, labels, groups = [], [], []
    for bracket, n in (("Y", 400), ("O", 400)):
        for _ in range(n):
            is_ogp = rng.random() < 0.5
            x = rng.standard_normal(4)
            if bracket == "Y":
                x[0] += 3.0 if is_ogp else -3.0
            else:
                x[1] += 1.5 if is_ogp else -1.5
            rows.append(x)
            labels.append(1 if is_ogp else 0)
            groups.append(("-" if is_ogp else "+") + f"{bracket} peers")
    x = np.asarray(rows)
    y = np.asarray(labels)
    full = LabeledDataset(x, y, groups, [f"r{i}" for i in range(len(y))])
    idx = np.random.default_rng(1).permutation(len(y))
    return full.subset(idx[200:]), full.subset(idx[:200])


class TestAgeRestrictedExperiment:
    def test_restricted_rows_all_match_bracket(self):
        pool, test = bracketed_dataset()
        config = TrainConfig(kind="logreg", grid=(1.0,), seeds=(0, 1, 2), n_train=100)
        report = age_restricted_experiment(pool, test, "O", config)
        assert set(report.per_group) <= {"-O peers", "+O peers"}

    def test_restricted_training_recovers_bracket_signal(self):
        pool, test = bracketed_dataset()
        config = TrainConfig(kind="logreg", grid=(1.0,), seeds=(0, 1, 2), n_train=100)
        report = age_restricted_experiment(pool, test, "O", config)
        assert report.accuracy > 0.7  # the O-only signal is learnable

    def test_absent_bracket_errors(self):
        pool, test = bracketed_dataset()
        with pytest.raises(DatasetError):
            age_restricted_experiment(pool, test, "L", TrainConfig(grid=(1.0,)))

    def test_small_class_errors(self):
        pool, test = bracketed_dataset()
        config = TrainConfig(kind="logreg", grid=(1.0,), min_class_rows=10_000)
        with pytest.raises(DatasetError, match="smaller class"):
            age_restricted_experiment(pool, test, "O", config)
