"""Classifier training and evaluation: balanced sampling, linear models
(one damped Newton solver for l2 fits and l1 feature selection), exact
kNN, cross-validation, seed-mode ensembling, Platt calibration, and
per-relationship evaluation reports."""
