"""Classifier training and evaluation: balanced sampling, linear models
(damped Newton for l2 fits, FISTA for l1 feature selection), exact kNN,
cross-validation, seed-mode ensembling, Platt calibration, and
per-relationship evaluation reports."""

from .calibration import platt_fit, platt_probability
from .evaluation import EvalReport, GroupStats, evaluate
from .linear import TrainedModel, select_features, train_linear_svm, train_logreg
from .neighbors import knn_predict
from .pipeline import (
    C_GRID,
    K_GRID,
    CrossValResult,
    EnsembleResult,
    LabeledDataset,
    age_restricted_experiment,
    balanced_sample,
    cross_validate,
    seed_ensemble,
)

__all__ = [
    "C_GRID",
    "K_GRID",
    "CrossValResult",
    "EnsembleResult",
    "EvalReport",
    "GroupStats",
    "LabeledDataset",
    "TrainedModel",
    "age_restricted_experiment",
    "balanced_sample",
    "cross_validate",
    "evaluate",
    "knn_predict",
    "platt_fit",
    "platt_probability",
    "seed_ensemble",
    "select_features",
    "train_linear_svm",
    "train_logreg",
]
