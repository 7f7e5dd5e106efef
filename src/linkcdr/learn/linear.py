"""Linear classifiers: logistic regression and squared-hinge linear SVM.

Both trainers minimize

    mean loss(y_i, w . x_i + b) + (1/C) * R(w)

with logistic loss or squared hinge, R either 0.5*||w||^2 or ||w||_1, and
an unpenalized bias. Labels are {0, 1} at the interface and mapped to
{-1, +1} internally. Each penalty has one solver, and both start from zero
weights, so training is deterministic and takes no seed:

- l2: damped Newton on [w, b], one linear solve per step with Armijo
  backtracking. Logistic loss uses its exact Hessian (Lin, Weng & Keerthi
  2008); the squared hinge uses the generalized Hessian, curvature 2 on the
  active set margin < 1 and 0 elsewhere (Keerthi & DeCoste 2005).
- l1 (feature selection): FISTA with adaptive restart on the
  soft-thresholding proximal map.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import DatasetError

KIND_LOGREG = "logreg"
KIND_LSVM = "lsvm"
KIND_KNN = "knn"


@dataclass
class TrainedModel:
    """A fitted classifier: linear decision function or kNN reference set."""

    kind: str
    penalty: str | None = None
    c: float | None = None
    k: int | None = None
    weights: np.ndarray | None = None
    bias: float = 0.0
    selected_features: np.ndarray | None = None
    calibration: tuple[float, float] | None = None
    train_x: np.ndarray | None = None
    train_y: np.ndarray | None = None
    n_iterations: int = 0
    grad_map_norm: float = math.nan
    converged: bool | None = None
    objective: float = math.nan

    def decision_function(self, x: np.ndarray) -> np.ndarray:
        if self.weights is None:
            raise DatasetError("not a linear model")
        return np.asarray(x, dtype=np.float64) @ self.weights + self.bias

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.kind == KIND_KNN:
            from .neighbors import knn_predict

            return knn_predict(self.train_x, self.train_y, x, self.k)
        return (self.decision_function(x) > 0).astype(np.int64)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        from .calibration import platt_probability

        if self.calibration is None:
            raise DatasetError("model has no calibration parameters")
        a, b = self.calibration
        return platt_probability(self.decision_function(x), a, b)


def _loss_terms(kind: str, margins: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(per-sample loss, dloss/dmargin) for margins y * (w.x + b)."""
    if kind == KIND_LOGREG:
        loss = np.logaddexp(0.0, -margins)
        # -sigmoid(-m), computed stably
        grad = -np.exp(-np.logaddexp(0.0, margins))
        return loss, grad
    if kind == KIND_LSVM:
        gap = np.maximum(0.0, 1.0 - margins)
        return gap**2, -2.0 * gap
    raise DatasetError(f"unknown linear kind {kind!r}")


def objective_value(
    weights: np.ndarray,
    bias: float,
    x: np.ndarray,
    y01: np.ndarray,
    kind: str,
    penalty: str,
    c: float,
) -> float:
    """The exact objective the trainers minimize (mean loss + penalty)."""
    y = 2.0 * np.asarray(y01, dtype=np.float64) - 1.0
    margins = y * (x @ weights + bias)
    loss = float(_loss_terms(kind, margins)[0].mean())
    if penalty == "l2":
        reg = 0.5 * float(weights @ weights) / c
    elif penalty == "l1":
        reg = float(np.abs(weights).sum()) / c
    else:
        raise DatasetError(f"unknown penalty {penalty!r}")
    return loss + reg


def smooth_gradient(
    weights: np.ndarray,
    bias: float,
    x: np.ndarray,
    y01: np.ndarray,
    kind: str,
    penalty: str,
    c: float,
) -> tuple[np.ndarray, float]:
    """Gradient of the smooth part (mean loss, plus the l2 term if any)."""
    y = 2.0 * np.asarray(y01, dtype=np.float64) - 1.0
    margins = y * (x @ weights + bias)
    dmargin = _loss_terms(kind, margins)[1] * y / x.shape[0]
    gw = x.T @ dmargin
    gb = float(dmargin.sum())
    if penalty == "l2":
        gw = gw + weights / c
    return gw, gb


def _curvature(kind: str, margins: np.ndarray) -> np.ndarray:
    """d2loss/dmargin2; for the squared hinge the generalized one, 2 on the
    active set margin < 1 and 0 elsewhere."""
    if kind == KIND_LOGREG:
        # sigmoid(m) * sigmoid(-m), computed stably
        return np.exp(-np.logaddexp(0.0, margins) - np.logaddexp(0.0, -margins))
    return np.where(margins < 1.0, 2.0, 0.0)


def _fit_newton(
    x: np.ndarray, y01: np.ndarray, kind: str, c: float, max_iter: int, tol: float
) -> tuple[np.ndarray, float, int, float]:
    """Damped Newton for the l2 objective on [w, b]."""
    n, d = x.shape
    y = 2.0 * y01 - 1.0
    xa = np.column_stack([x, np.ones(n)])
    ridge = np.append(np.full(d, 1.0 / c), 0.0)  # the bias is unpenalized
    w, b = np.zeros(d), 0.0
    value = objective_value(w, b, x, y01, kind, "l2", c)
    iterations = 0
    while True:
        grad = np.append(*smooth_gradient(w, b, x, y01, kind, "l2", c))
        grad_norm = math.sqrt(float(grad @ grad))
        if grad_norm < tol or iterations == max_iter:
            break
        hess = (xa.T * (_curvature(kind, y * (x @ w + b)) / n)) @ xa + np.diag(ridge)
        if hess[-1, -1] == 0.0:
            # No sample has curvature (an empty active set, or every sigmoid
            # saturated): the loss is flat in b, its gradient entry is 0, and
            # a unit pivot keeps the solve defined and leaves b in place.
            hess[-1, -1] = 1.0
        step = np.linalg.solve(hess, -grad)
        slope = float(grad @ step)
        t = 1.0
        for _ in range(60):
            w_trial, b_trial = w + t * step[:-1], b + t * float(step[-1])
            trial_value = objective_value(w_trial, b_trial, x, y01, kind, "l2", c)
            if trial_value <= value + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            break  # no step decreases the objective measurably: stop unconverged
        w, b, value = w_trial, b_trial, trial_value
        iterations += 1
    return w, b, iterations, grad_norm


def _lipschitz_bound(x: np.ndarray, kind: str) -> float:
    xa = np.column_stack([x, np.ones(x.shape[0])])
    top = float(np.linalg.eigvalsh(xa.T @ xa)[-1])
    curvature = 0.25 if kind == KIND_LOGREG else 2.0
    return max(curvature * top / x.shape[0], 1e-12)


def _soft_threshold(v: np.ndarray, amount: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - amount, 0.0)


def _fit_fista(
    x: np.ndarray, y01: np.ndarray, kind: str, c: float, max_iter: int, tol: float
) -> tuple[np.ndarray, float, int, float]:
    """FISTA with adaptive restart for the l1 objective."""
    d = x.shape[1]
    step = 1.0 / _lipschitz_bound(x, kind)
    shrink = step / c
    w = np.zeros(d)
    b = 0.0
    w_prev, b_prev = w, b
    t_prev = 1.0
    grad_map = math.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        t = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_prev * t_prev))
        beta = (t_prev - 1.0) / t
        zw = w + beta * (w - w_prev)
        zb = b + beta * (b - b_prev)
        gw, gb = smooth_gradient(zw, zb, x, y01, kind, "l1", c)
        w_next = _soft_threshold(zw - step * gw, shrink)
        b_next = zb - step * gb
        # adaptive restart: momentum points against the last move
        if (zw - w_next) @ (w_next - w) + (zb - b_next) * (b_next - b) > 0:
            t = 1.0
            gw, gb = smooth_gradient(w, b, x, y01, kind, "l1", c)
            w_next = _soft_threshold(w - step * gw, shrink)
            b_next = b - step * gb
        w_prev, b_prev = w, b
        w, b = w_next, b_next
        t_prev = t
        gw, gb = smooth_gradient(w, b, x, y01, kind, "l1", c)
        map_w = (w - _soft_threshold(w - step * gw, shrink)) / step
        grad_map = math.sqrt(float(map_w @ map_w) + gb * gb)
        if grad_map < tol:
            break
    return w, b, iterations, grad_map


def _train(
    x: np.ndarray,
    y: np.ndarray,
    kind: str,
    penalty: str,
    c: float,
    max_iter: int,
    tol: float,
) -> TrainedModel:
    x = np.asarray(x, dtype=np.float64)
    y01 = np.asarray(y, dtype=np.int64)
    if x.ndim != 2 or x.shape[0] != y01.shape[0]:
        raise DatasetError("feature matrix and labels are misaligned")
    classes = np.unique(y01)
    if classes.size < 2:
        raise DatasetError("single-class training set")
    if not set(classes.tolist()) <= {0, 1}:
        raise DatasetError("labels must be binary 0/1")
    if c <= 0:
        raise DatasetError("C must be positive")
    if penalty == "l2":
        fit = _fit_newton
    elif penalty == "l1":
        fit = _fit_fista
    else:
        raise DatasetError(f"unknown penalty {penalty!r}")
    w, b, iterations, grad_map = fit(x, y01, kind, c, max_iter, tol)
    converged = grad_map < tol
    if not converged:
        # constant text, so the default filter reports it once per process
        warnings.warn(
            "linear solver stopped at max_iter before its gradient-map norm reached tol",
            RuntimeWarning,
        )
    return TrainedModel(
        kind=kind,
        penalty=penalty,
        c=c,
        weights=w,
        bias=b,
        n_iterations=iterations,
        grad_map_norm=grad_map,
        converged=converged,
        objective=objective_value(w, b, x, y01, kind, penalty, c),
    )


def train_logreg(
    x: np.ndarray,
    y: np.ndarray,
    penalty: str = "l2",
    c: float = 1.0,
    max_iter: int = 1000,
    tol: float = 1e-6,
) -> TrainedModel:
    """Logistic regression."""
    return _train(x, y, KIND_LOGREG, penalty, c, max_iter, tol)


def train_linear_svm(
    x: np.ndarray,
    y: np.ndarray,
    penalty: str = "l2",
    c: float = 1.0,
    max_iter: int = 1000,
    tol: float = 1e-6,
) -> TrainedModel:
    """Linear SVM with squared hinge loss; same optimizer contract as
    train_logreg."""
    return _train(x, y, KIND_LSVM, penalty, c, max_iter, tol)


def select_features(model: TrainedModel, threshold: float = 1e-5) -> np.ndarray:
    """Indices of weights with magnitude >= threshold, ascending."""
    if model.kind == KIND_KNN or model.weights is None:
        raise DatasetError("not a linear model")
    if model.penalty != "l1":
        raise DatasetError("feature selection requires an l1-penalized model")
    return np.flatnonzero(np.abs(model.weights) >= threshold)
