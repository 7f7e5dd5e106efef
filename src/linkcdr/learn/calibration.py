"""Posterior probabilities for margin classifiers via a fitted sigmoid.

Maps a decision value f to p(y=1|f) = 1 / (1 + exp(A*f + B)); A comes out
negative when larger decision values indicate the positive class. Fitting
maximizes the likelihood against smoothed targets (N+ + 1)/(N+ + 2) and
1/(N- + 2) with a damped Newton iteration.
"""

from __future__ import annotations

import numpy as np

from ..errors import DatasetError

MAX_ITER = 200  # Newton steps of the sigmoid fit
TOL = 1e-10  # the fit stops once both gradient entries are below this


def platt_probability(scores: np.ndarray | float, a: float, b: float) -> np.ndarray:
    """Stable evaluation of 1 / (1 + exp(a*scores + b))."""
    f = a * np.asarray(scores, dtype=np.float64) + b
    out = np.where(f >= 0, np.exp(-np.logaddexp(0.0, f)), 1.0 - np.exp(-np.logaddexp(0.0, -f)))
    return out


def _nll(scores: np.ndarray, targets: np.ndarray, a: float, b: float) -> float:
    f = a * scores + b
    # t*f + log(1 + exp(-f)), stable on both sides
    return float(np.sum(np.where(f >= 0, targets * f, (targets - 1.0) * f) + np.logaddexp(0.0, -np.abs(f))))


def platt_fit(scores: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Fit (A, B) of the calibration sigmoid on decision values and 0/1 labels."""
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if scores.shape != labels.shape:
        raise DatasetError("scores and labels are misaligned")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise DatasetError("calibration needs both classes present")

    hi = (n_pos + 1.0) / (n_pos + 2.0)
    lo = 1.0 / (n_neg + 2.0)
    targets = np.where(labels == 1, hi, lo)

    a = 0.0
    b = float(np.log((n_neg + 1.0) / (n_pos + 1.0)))
    value = _nll(scores, targets, a, b)
    ridge = 1e-12
    min_step = 1e-12
    for _ in range(MAX_ITER):
        p = platt_probability(scores, a, b)
        residual = targets - p  # dNLL/df per sample
        grad_a = float(np.dot(scores, residual))
        grad_b = float(np.sum(residual))
        if abs(grad_a) < TOL and abs(grad_b) < TOL:
            break
        d2 = p * (1.0 - p)
        h_aa = float(np.dot(scores * scores, d2)) + ridge
        h_bb = float(np.sum(d2)) + ridge
        h_ab = float(np.dot(scores, d2))
        det = h_aa * h_bb - h_ab * h_ab
        if det <= 0:
            break
        step_a = -(h_bb * grad_a - h_ab * grad_b) / det
        step_b = -(h_aa * grad_b - h_ab * grad_a) / det
        decrement = grad_a * step_a + grad_b * step_b
        size = 1.0
        while size >= min_step:
            new_a = a + size * step_a
            new_b = b + size * step_b
            new_value = _nll(scores, targets, new_a, new_b)
            if new_value < value + 1e-4 * size * decrement:
                a, b, value = new_a, new_b, new_value
                break
            size /= 2.0
        else:
            break
    return a, b
