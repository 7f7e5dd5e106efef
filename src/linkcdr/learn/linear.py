"""Linear classifiers: logistic regression and squared-hinge linear SVM.

Both trainers minimize

    mean loss(y_i, w . x_i + b) + (1/C) * R(w)

with logistic loss or squared hinge, R either 0.5*||w||^2 or ||w||_1, and
an unpenalized bias. Labels are {0, 1} at the interface and mapped to
{-1, +1} internally. One solver serves both penalties: damped Newton on
[w, b] from zero weights (so training is deterministic and takes no seed)
with Armijo backtracking on the full objective, using the exact logistic
Hessian (Lin, Weng & Keerthi 2008) or the generalized squared-hinge one,
curvature 2 where margin < 1 and 0 elsewhere (Keerthi & DeCoste 2005). The
rows [x, 1] are signed by their labels once per path, so one product with
[w, b] gives the margins, and every trial point of a step costs one margin
product, from which its loss, gradient and curvature all follow. The
Hessian is formed from the rows with curvature alone, as s.T @ s: the
active rows for the squared hinge, the rows scaled by the square root of
their curvature for the logistic loss. An l2 step is one linear solve; an
l1 step minimizes the model plus penalty exactly by feature-sign search:
proximal Newton (Lee, Sun & Saunders 2014). An l2 fit with fewer rows than
features runs in the span of the rows, which holds every iterate from
w = 0, so its steps are n + 1 dimensional.

``train_path`` fits one model per C of a grid, in order: the first from
zero, each later one from the previous solution (a pathwise warm start;
Friedman, Hastie & Tibshirani 2010), all on one basis of the rows' span.
The optimum does not depend on the start, so each fit reaches the cold
fit's solution to within the stopping tolerance. Cross-validation fits
each fold's C grid as one path; a trainer call is a path of one C, so it
starts from zero.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import DatasetError

KIND_LOGREG = "logreg"
KIND_LSVM = "lsvm"
KIND_KNN = "knn"

# Added to the diagonal of the l1 model Hessian, singular when n < d + 1 or few
# hinge samples are active; any H >= mI keeps proximal Newton's fixed point.
L1_DAMPING = 1e-10
SELECT_THRESHOLD = 1e-5  # smallest |weight| of a feature that l1 selection keeps


@dataclass
class TrainedModel:
    """A fitted classifier: linear decision function or kNN reference set."""

    kind: str
    penalty: str | None = None
    c: float | None = None
    k: int | None = None
    weights: np.ndarray | None = None
    bias: float = 0.0
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
            # bound at call time, so a wrapper installed on neighbors.knn_predict sees the call
            from .neighbors import knn_predict

            return knn_predict(self.train_x, self.train_y, x, self.k)
        return (self.decision_function(x) > 0).astype(np.int64)


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


def _feature_sign(hess: np.ndarray, grad: np.ndarray, theta: np.ndarray, lam: float) -> np.ndarray:
    """Feature-sign search (Lee, Battle, Raina & Ng 2007), from d = 0, for the step
    d minimizing grad.d + d.hess.d / 2 + lam * ||w + d_w||_1 at theta = [w, b]."""

    def model(z: np.ndarray) -> float:
        d = z - theta
        return float(grad @ d + 0.5 * (d @ hess @ d)) + lam * float(np.abs(z[:-1]).sum())

    z, value = theta, model(theta)
    sign = np.append(np.sign(theta[:-1]), 0.0)  # the bias has none, yet is active
    while True:
        # Minimize the model over the active set with its signs fixed, and
        # keep the best of that point and those where a weight crosses zero.
        active = np.append(sign[:-1] != 0, True)
        a, rest = np.flatnonzero(active), np.flatnonzero(~active)
        rhs = grad[a] + lam * sign[a] - hess[np.ix_(a, rest)] @ theta[rest]
        target = np.zeros_like(z)
        target[a] = theta[a] + np.linalg.solve(hess[np.ix_(a, a)], -rhs)
        best, best_value = target, model(target)
        for i in np.flatnonzero(z[:-1] * target[:-1] < 0):
            point = z + z[i] / (z[i] - target[i]) * (target - z)
            point[i] = 0.0
            if (point_value := model(point)) < best_value:
                best, best_value = point, point_value
        if best_value < value:
            z, value = best, best_value
            new_sign = np.append(np.sign(z[:-1]), 0.0)
            if not np.array_equal(new_sign[a], sign[a]):
                sign = new_sign
                continue
        # The signs hold (or no step decreases the model): activate the zero
        # weight whose slope most exceeds lam; none left means z is optimal.
        slope = grad + hess @ (z - theta)
        excess = np.where(active, 0.0, np.abs(slope))
        j = int(np.argmax(excess))
        if excess[j] <= lam:
            return z - theta
        sign[j] = -np.sign(slope[j])


def _hessian(
    kind: str, signed: np.ndarray, margins: np.ndarray, diagonal: np.ndarray
) -> np.ndarray:
    """The Newton Hessian in [w, b] at ``margins``: the loss Hessian from the
    rows with curvature, as s.T @ s (numpy forms one triangle, by BLAS syrk),
    plus ``diagonal``. The rows ``signed`` are [x, 1] times the label, a sign
    that the products cancel."""
    n = signed.shape[0]
    if kind == KIND_LSVM:  # curvature 2 on the active rows, 0 elsewhere
        s = signed[margins < 1.0]
        hess = s.T @ s
        hess *= 2.0 / n
    else:
        s = signed * np.sqrt(_curvature(kind, margins) / n)[:, None]
        hess = s.T @ s
    hess.flat[:: hess.shape[0] + 1] += diagonal  # the diagonal, in place
    if hess[-1, -1] == 0.0:
        # No sample has curvature (an empty active set, or every sigmoid
        # saturated): the loss is flat in b, its gradient entry is 0, and
        # a unit pivot keeps the solve defined and leaves b in place.
        hess[-1, -1] = 1.0
    return hess


def _fit_newton(
    signed: np.ndarray,
    kind: str,
    penalty: str,
    c: float,
    max_iter: int,
    tol: float,
    theta: np.ndarray,
) -> tuple[np.ndarray, int, float, float]:
    """(theta, steps, KKT residual, objective) of the fit started at
    theta = [w, b], on the rows ``signed`` = [x, 1] * y, whose product with
    theta is the margins; the residual is the norm of the minimum-norm
    subgradient, which for l2 is the gradient norm."""
    n, d = signed.shape[0], signed.shape[1] - 1
    l1, lam = penalty == "l1", 1.0 / c
    diagonal = np.append(np.full(d, L1_DAMPING if l1 else lam), 0.0)  # bias unpenalized

    def terms(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """(margins, dloss/dmargin, objective) at theta, from one margin product."""
        margins = signed @ theta
        loss, dloss = _loss_terms(kind, margins)
        w = theta[:-1]
        reg = float(np.abs(w).sum()) / c if l1 else 0.5 * float(w @ w) / c
        return margins, dloss, float(loss.mean()) + reg

    margins, dloss, value = terms(theta)
    iterations = 0
    while True:
        w, grad = theta[:-1], signed.T @ (dloss / n)
        if l1:  # less the l1 subgradient nearest to the gradient
            nearest = np.where(w != 0, -lam * np.sign(w), np.clip(grad[:-1], -lam, lam))
            residual = grad - np.append(nearest, 0.0)
        else:
            grad[:-1] += w / c
            residual = grad
        residual_norm = math.sqrt(float(residual @ residual))
        if residual_norm < tol or iterations == max_iter:
            break
        hess = _hessian(kind, signed, margins, diagonal)
        if l1:
            step = _feature_sign(hess, grad, theta, lam)
            l1_change = lam * float(np.abs(w + step[:-1]).sum() - np.abs(w).sum())
        else:
            step, l1_change = np.linalg.solve(hess, -grad), 0.0
        decrease = float(grad @ step) + l1_change
        t = 1.0
        for _ in range(60):
            trial = theta + t * step
            trial_margins, trial_dloss, trial_value = terms(trial)
            if trial_value <= value + 1e-4 * t * decrease:
                break
            t *= 0.5
        else:
            break  # no step decreases the objective measurably: stop unconverged
        theta, margins, dloss, value = trial, trial_margins, trial_dloss, trial_value
        iterations += 1
    return theta, iterations, residual_norm, value


def train_path(
    x: np.ndarray,
    y: np.ndarray,
    kind: str,
    cs: Sequence[float],
    penalty: str = "l2",
    max_iter: int = 1000,
    tol: float = 1e-6,
) -> list[TrainedModel]:
    """One fit per C of ``cs``, in order, the first from zero and each later
    one from the previous solution. An l2 path with fewer rows than features
    runs in the span of the rows, on one basis for every C: the iterates,
    their norms, the objective and the gradient norm are those of the full
    space (Chapelle 2007)."""
    x = np.asarray(x, dtype=np.float64)
    y01 = np.asarray(y, dtype=np.int64)
    if x.ndim != 2 or x.shape[0] != y01.shape[0]:
        raise DatasetError("feature matrix and labels are misaligned")
    if y01.size == 0 or (y01 == y01[0]).all():
        raise DatasetError("single-class training set")
    if not ((y01 == 0) | (y01 == 1)).all():
        raise DatasetError("labels must be binary 0/1")
    if not all(0 < c < math.inf for c in cs):  # NaN fails every comparison
        raise DatasetError("C must be positive and finite")
    basis, reduced = None, x
    if penalty != "l1" and x.shape[0] < x.shape[1]:  # solve for w = basis @ z
        basis = np.linalg.qr(x.T)[0]
        reduced = x @ basis
    signed = np.column_stack([reduced, np.ones(len(y01))]) * (2.0 * y01 - 1.0)[:, None]
    theta = np.zeros(signed.shape[1])
    models = []
    for c in cs:
        theta, iterations, grad_map, value = _fit_newton(
            signed, kind, penalty, c, max_iter, tol, theta
        )
        converged = grad_map < tol
        if not converged:
            # constant text, so the default filter reports it once per process
            warnings.warn(
                "linear solver stopped at max_iter before its gradient-map norm reached tol",
                RuntimeWarning,
            )
        models.append(
            TrainedModel(
                kind=kind,
                penalty=penalty,
                c=c,
                weights=theta[:-1] if basis is None else basis @ theta[:-1],
                bias=float(theta[-1]),
                n_iterations=iterations,
                grad_map_norm=grad_map,
                converged=converged,
                objective=value,
            )
        )
    return models


def train_logreg(
    x: np.ndarray,
    y: np.ndarray,
    penalty: str = "l2",
    c: float = 1.0,
    max_iter: int = 1000,
    tol: float = 1e-6,
) -> TrainedModel:
    """Logistic regression."""
    return train_path(x, y, KIND_LOGREG, [c], penalty, max_iter, tol)[0]


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
    return train_path(x, y, KIND_LSVM, [c], penalty, max_iter, tol)[0]


def select_features(model: TrainedModel) -> np.ndarray:
    """Indices of weights with magnitude >= SELECT_THRESHOLD, ascending."""
    if model.kind == KIND_KNN or model.weights is None:
        raise DatasetError("not a linear model")
    if model.penalty != "l1":
        raise DatasetError("feature selection requires an l1-penalized model")
    return np.flatnonzero(np.abs(model.weights) >= SELECT_THRESHOLD)
